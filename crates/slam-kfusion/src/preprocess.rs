//! Depth preprocessing kernels: unit conversion, bilateral filtering,
//! pyramid construction, vertex and normal maps.
//!
//! Every kernel returns its result together with the [`Workload`] it
//! performed, mirroring the per-kernel instrumentation of SLAMBench.

use crate::image::{DepthImage, Image2D, NormalMap, VertexMap};
use crate::workload::Workload;
use slam_math::camera::PinholeCamera;
use slam_math::Vec3;
use slam_trace::Tracer;

/// Converts a millimetre depth buffer to metres while down-sampling by
/// `ratio` (the `compute_size_ratio` parameter): output pixel `(x, y)`
/// takes input pixel `(x·ratio, y·ratio)`.
///
/// # Panics
///
/// Panics when `depth_mm.len() != width * height` or `ratio == 0`.
pub fn mm2meters(
    depth_mm: &[u16],
    width: usize,
    height: usize,
    ratio: usize,
) -> (DepthImage, Workload) {
    assert!(ratio > 0, "ratio must be positive");
    assert_eq!(depth_mm.len(), width * height, "depth buffer size mismatch");
    let (ow, oh) = (width / ratio, height / ratio);
    let mut out = Image2D::new(ow, oh, 0.0f32);
    for y in 0..oh {
        for x in 0..ow {
            let mm = depth_mm[(y * ratio) * width + x * ratio];
            out.set(x, y, f32::from(mm) / 1000.0);
        }
    }
    let n = (ow * oh) as f64;
    // one multiply per pixel; read u16, write f32
    (out, Workload::new(n, n * 6.0))
}

/// Bilateral filter: edge-preserving smoothing of the depth image.
///
/// `radius` is the half window (SLAMBench uses 2), `sigma_space` the
/// spatial Gaussian in pixels, `sigma_range` the range Gaussian in metres.
/// Holes (`0`) neither contribute nor get filled.
///
/// Runs on the shared [`slam_exec`] worker pool with up to `threads`
/// threads (`0` = all available) over fixed row bands, recording a
/// `bilateral` kernel span plus per-band spans into `tracer`. Every
/// output pixel is written exactly once and the band layout depends
/// only on the image height, so the output is bit-identical for every
/// thread count, traced or not.
pub fn bilateral_filter(
    depth: &DepthImage,
    radius: usize,
    sigma_space: f32,
    sigma_range: f32,
    threads: usize,
    tracer: &Tracer,
) -> (DepthImage, Workload) {
    let _kernel = tracer.kernel_span("bilateral");
    let (w, h) = (depth.width(), depth.height());
    let mut out = Image2D::new(w, h, 0.0f32);
    let r = radius as isize;
    // precompute the spatial weights
    let side = 2 * radius + 1;
    let mut spatial = vec![0.0f32; side * side];
    let inv_2ss = 1.0 / (2.0 * sigma_space * sigma_space);
    for dy in -r..=r {
        for dx in -r..=r {
            let d2 = (dx * dx + dy * dy) as f32;
            spatial[((dy + r) as usize) * side + (dx + r) as usize] = (-d2 * inv_2ss).exp();
        }
    }
    let inv_2sr = 1.0 / (2.0 * sigma_range * sigma_range);
    let range = |d: f32, centre: f32| {
        let diff = d - centre;
        (-diff * diff * inv_2sr).exp()
    };
    // the taps of the upper half window, (dy, dx) with dy > 0 or
    // dy == 0 < dx: tap -o of a pixel is tap o of its neighbour at -o
    let half: Vec<(isize, isize)> = (0..=r)
        .flat_map(|dy| (-r..=r).map(move |dx| (dy, dx)))
        .filter(|&(dy, dx)| dy > 0 || dx > 0)
        .collect();
    let half_index = |dy: isize, dx: isize| half.iter().position(|&o| o == (dy, dx));
    let threads = slam_exec::effective_threads(threads);
    let (spatial, half, range) = (&spatial, &half, &range);
    let src = depth.as_slice();
    let valid = |d: f32| d.is_finite() && d > 0.0;
    let mut tasks: Vec<slam_exec::Task<'_, f64>> = Vec::new();
    {
        let mut rest: &mut [f32] = out.as_mut_slice();
        for band in slam_exec::band_ranges(h) {
            let (chunk, next) = rest.split_at_mut(band.len() * w);
            rest = next;
            tasks.push(Box::new(move || {
                let mut ops = 0.0f64;
                // SoA row accumulators: the offset loops stream whole rows
                // through `acc_sum`/`acc_w`, so the hot inner loop over `x`
                // is a contiguous gather-multiply-accumulate that the
                // compiler can vectorize. Per pixel the (dy, dx) terms are
                // still added in the same order as the scalar formulation,
                // so the output is bit-identical to it.
                let mut acc_sum = vec![0.0f32; w];
                let mut acc_w = vec![0.0f32; w];
                // The range weight is symmetric: `d_q - d_p` and
                // `d_p - d_q` differ only in sign, so both pixels of a tap
                // pair get the same `exp` bits. Row y's upper-half weights
                // live in ring row `y % (r + 1)` until row y + r is done;
                // a pair whose pixels lie in different bands is computed
                // by each band, as before, so no band computes a halo.
                let stride = half.len() * w;
                let mut ring = vec![0.0f32; (radius + 1) * stride];
                for (row, y) in band.clone().enumerate() {
                    acc_sum.fill(0.0);
                    acc_w.fill(0.0);
                    let centre_row = &src[y * w..(y + 1) * w];
                    let here = (y % (radius + 1)) * stride;
                    for (k, &(dy, dx)) in half.iter().enumerate() {
                        let yy = y + dy as usize;
                        if yy >= band.end {
                            continue;
                        }
                        let nrow = &src[yy * w..(yy + 1) * w];
                        let e = &mut ring[here + k * w..here + (k + 1) * w];
                        let x0 = (-dx).max(0).min(w as isize) as usize;
                        let x1 = (w as isize - dx).clamp(0, w as isize) as usize;
                        for x in x0..x1 {
                            let (c, d) = (centre_row[x], nrow[(x as isize + dx) as usize]);
                            e[x] = if valid(c) && valid(d) {
                                range(d, c)
                            } else {
                                0.0
                            };
                        }
                    }
                    for dy in -r..=r {
                        let yy = y as isize + dy;
                        if yy < 0 || yy >= h as isize {
                            continue;
                        }
                        let yy = yy as usize;
                        let nrow = &src[yy * w..(yy + 1) * w];
                        for dx in -r..=r {
                            let sw = spatial[((dy + r) as usize) * side + (dx + r) as usize];
                            let x0 = (-dx).max(0).min(w as isize) as usize;
                            let x1 = (w as isize - dx).clamp(0, w as isize) as usize;
                            if dy == 0 && dx == 0 {
                                // the centre tap: exp(-0) = 1
                                for x in x0..x1 {
                                    let d = nrow[x];
                                    if !valid(d) {
                                        continue;
                                    }
                                    acc_sum[x] += sw * d;
                                    acc_w[x] += sw;
                                }
                                continue;
                            }
                            // where this band computed the tap's range
                            // weight: (ring row, upper-half tap, column
                            // shift); `None` for a pair across bands
                            let cached = match half_index(dy, dx) {
                                Some(k) if yy < band.end => Some((here, k, 0)),
                                None if yy >= band.start => half_index(-dy, -dx)
                                    .map(|k| ((yy % (radius + 1)) * stride, k, dx)),
                                _ => None,
                            };
                            if let Some((ring_row, k, shift)) = cached {
                                let e = &ring[ring_row + k * w..ring_row + (k + 1) * w];
                                for x in x0..x1 {
                                    let d = nrow[(x as isize + dx) as usize];
                                    if !valid(d) {
                                        continue;
                                    }
                                    let wgt = sw * e[(x as isize + shift) as usize];
                                    acc_sum[x] += wgt * d;
                                    acc_w[x] += wgt;
                                }
                            } else {
                                for x in x0..x1 {
                                    let d = nrow[(x as isize + dx) as usize];
                                    // reject holes AND non-finite samples: a
                                    // NaN or Inf pixel must not poison the
                                    // accumulators of its neighbours
                                    if !valid(d) {
                                        continue;
                                    }
                                    let wgt = sw * range(d, centre_row[x]);
                                    acc_sum[x] += wgt * d;
                                    acc_w[x] += wgt;
                                }
                            }
                        }
                    }
                    for x in 0..w {
                        let centre = centre_row[x];
                        if !valid(centre) {
                            continue;
                        }
                        ops += (side * side) as f64 * 6.0;
                        if acc_w[x] > 0.0 {
                            chunk[row * w + x] = acc_sum[x] / acc_w[x];
                        }
                    }
                }
                ops
            }));
        }
    }
    // ordered sum over the fixed band layout: deterministic
    let ops: f64 = slam_exec::run_tasks(tracer, "bilateral", threads, tasks)
        .into_iter()
        .sum();
    let n = (w * h) as f64;
    let window_reads = n * (side * side) as f64 * 4.0;
    (out, Workload::new(ops, window_reads + n * 4.0))
}

/// Runs `row(y, out_row)` for every row of `out` on the shared
/// [`slam_exec`] worker pool over the fixed row bands, recording a `name`d
/// span per band. Each output pixel is written by exactly one band, and
/// the band layout depends only on the image height, so a kernel whose
/// rows depend only on their inputs is bit-identical for every thread
/// count.
fn fill_rows<T: Copy + Send>(
    out: &mut Image2D<T>,
    name: &'static str,
    threads: usize,
    tracer: &Tracer,
    row: impl Fn(usize, &mut [T]) + Sync,
) {
    let (w, h) = (out.width(), out.height());
    if w == 0 {
        return;
    }
    let row = &row;
    let mut tasks: Vec<slam_exec::Task<'_, ()>> = Vec::new();
    let mut rest: &mut [T] = out.as_mut_slice();
    for band in slam_exec::band_ranges(h) {
        let (chunk, next) = rest.split_at_mut(band.len() * w);
        rest = next;
        tasks.push(Box::new(move || {
            for (y, out_row) in band.zip(chunk.chunks_mut(w)) {
                row(y, out_row);
            }
        }));
    }
    let threads = slam_exec::effective_threads(threads);
    slam_exec::run_tasks(tracer, name, threads, tasks);
}

/// Depth-aware half-sampling for pyramid construction: averages the 2×2
/// block but only over pixels within `3·sigma_range` of the block's
/// top-left pixel, preserving depth edges. Runs on up to `threads` pool
/// threads (`0` = all available), recording a `halfsample` kernel span
/// plus per-band spans into `tracer`. Bit-identical for every thread
/// count.
pub fn half_sample(
    depth: &DepthImage,
    sigma_range: f32,
    threads: usize,
    tracer: &Tracer,
) -> (DepthImage, Workload) {
    let _kernel = tracer.kernel_span("halfsample");
    let (w, h) = (depth.width() / 2, depth.height() / 2);
    let mut out = Image2D::new(w, h, 0.0f32);
    let band = 3.0 * sigma_range;
    fill_rows(&mut out, "halfsample", threads, tracer, |y, out_row| {
        for (x, o) in out_row.iter_mut().enumerate() {
            let center = depth.get(x * 2, y * 2);
            if !center.is_finite() || center <= 0.0 {
                continue;
            }
            let mut sum = 0.0f32;
            let mut count = 0u32;
            for dy in 0..2 {
                for dx in 0..2 {
                    let d = depth.get(x * 2 + dx, y * 2 + dy);
                    if d.is_finite() && d > 0.0 && (d - center).abs() < band {
                        sum += d;
                        count += 1;
                    }
                }
            }
            if count > 0 {
                *o = sum / count as f32;
            }
        }
    });
    let n = (w * h) as f64;
    (out, Workload::new(n * 8.0, n * 5.0 * 4.0))
}

/// Back-projects a depth image into a camera-frame vertex map. Invalid
/// depth yields the zero vertex. Runs on up to `threads` pool threads
/// (`0` = all available), recording a `depth2vertex` kernel span plus
/// per-band spans into `tracer`. Bit-identical for every thread count.
///
/// # Panics
///
/// Panics when the camera resolution does not match the image.
pub fn depth2vertex(
    depth: &DepthImage,
    camera: &PinholeCamera,
    threads: usize,
    tracer: &Tracer,
) -> (VertexMap, Workload) {
    let _kernel = tracer.kernel_span("depth2vertex");
    assert_eq!(
        (camera.width, camera.height),
        (depth.width(), depth.height()),
        "camera/image resolution mismatch"
    );
    let (w, h) = (depth.width(), depth.height());
    let mut out = Image2D::new(w, h, Vec3::ZERO);
    fill_rows(&mut out, "depth2vertex", threads, tracer, |y, out_row| {
        for (x, o) in out_row.iter_mut().enumerate() {
            let d = depth.get(x, y);
            // `d > 0.0` alone would let +Inf through (NaN already fails
            // the comparison); reject both so vertices stay finite
            if d.is_finite() && d > 0.0 {
                *o = camera.unproject(slam_math::Vec2::new(x as f32, y as f32), d);
            }
        }
    });
    let n = (w * h) as f64;
    (out, Workload::new(n * 6.0, n * 16.0))
}

/// Estimates per-pixel normals from a camera-frame vertex map via the
/// cross product of forward differences. Border pixels and pixels with
/// invalid neighbours get the zero normal. Runs on up to `threads` pool
/// threads (`0` = all available), recording a `vertex2normal` kernel
/// span plus per-band spans into `tracer`. Bit-identical for every
/// thread count.
pub fn vertex2normal(
    vertices: &VertexMap,
    threads: usize,
    tracer: &Tracer,
) -> (NormalMap, Workload) {
    let _kernel = tracer.kernel_span("vertex2normal");
    let (w, h) = (vertices.width(), vertices.height());
    let mut out = Image2D::new(w, h, Vec3::ZERO);
    fill_rows(&mut out, "vertex2normal", threads, tracer, |y, out_row| {
        if y == 0 || y + 1 >= h {
            return;
        }
        for (x, o) in out_row.iter_mut().enumerate() {
            // `z <= 0.0` is false for NaN, so an explicit finite check is
            // needed to keep poisoned vertices out of the differences
            let invalid = |v: Vec3| !v.z.is_finite() || v.z <= 0.0;
            let center = vertices.get(x, y);
            if invalid(center) || x + 1 >= w || x == 0 {
                continue;
            }
            let right = vertices.get(x + 1, y);
            let left = vertices.get(x - 1, y);
            let down = vertices.get(x, y + 1);
            let up = vertices.get(x, y - 1);
            if invalid(right) || invalid(left) || invalid(down) || invalid(up) {
                continue;
            }
            let dx = right - left;
            let dy = down - up;
            // cross(dy, dx) gives the normal facing the camera (-z) for a
            // fronto-parallel wall in the y-down camera convention
            *o = dy.cross(dx).normalized_or_zero();
        }
    });
    let n = (w * h) as f64;
    (out, Workload::new(n * 15.0, n * 5.0 * 12.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_depth(w: usize, h: usize, z: f32) -> DepthImage {
        Image2D::new(w, h, z)
    }

    #[test]
    fn mm2meters_converts_and_downsamples() {
        let mm: Vec<u16> = vec![1500; 8 * 4];
        let (m, work) = mm2meters(&mm, 8, 4, 2);
        assert_eq!(m.width(), 4);
        assert_eq!(m.height(), 2);
        assert!((m.get(0, 0) - 1.5).abs() < 1e-6);
        assert!(work.ops > 0.0);
    }

    #[test]
    fn mm2meters_keeps_holes() {
        let mut mm = vec![1000u16; 4];
        mm[0] = 0;
        let (m, _) = mm2meters(&mm, 2, 2, 1);
        assert_eq!(m.get(0, 0), 0.0);
        assert!((m.get(1, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mm2meters_checks_size() {
        let _ = mm2meters(&[0u16; 3], 2, 2, 1);
    }

    #[test]
    fn bilateral_preserves_flat_regions() {
        let depth = flat_depth(16, 16, 2.0);
        let (f, _) = bilateral_filter(&depth, 2, 1.5, 0.1, 0, Tracer::off());
        for (_, _, v) in f.enumerate_pixels() {
            assert!((v - 2.0).abs() < 1e-4);
        }
    }

    #[test]
    fn bilateral_smooths_noise() {
        let mut depth = flat_depth(16, 16, 2.0);
        depth.set(8, 8, 2.01); // small perturbation within range sigma
        let (f, _) = bilateral_filter(&depth, 2, 1.5, 0.1, 0, Tracer::off());
        let v = f.get(8, 8);
        assert!((v - 2.0).abs() < 0.009, "noise should shrink, got {v}");
    }

    #[test]
    fn bilateral_preserves_edges() {
        // step edge: left half at 1 m, right half at 3 m
        let mut depth = flat_depth(16, 16, 1.0);
        for y in 0..16 {
            for x in 8..16 {
                depth.set(x, y, 3.0);
            }
        }
        let (f, _) = bilateral_filter(&depth, 2, 1.5, 0.1, 0, Tracer::off());
        assert!(
            (f.get(7, 8) - 1.0).abs() < 1e-3,
            "edge bled: {}",
            f.get(7, 8)
        );
        assert!(
            (f.get(8, 8) - 3.0).abs() < 1e-3,
            "edge bled: {}",
            f.get(8, 8)
        );
    }

    #[test]
    fn bilateral_skips_holes() {
        let mut depth = flat_depth(8, 8, 2.0);
        depth.set(4, 4, 0.0);
        let (f, _) = bilateral_filter(&depth, 2, 1.5, 0.1, 0, Tracer::off());
        assert_eq!(f.get(4, 4), 0.0, "hole must stay a hole");
        assert!((f.get(3, 4) - 2.0).abs() < 1e-4, "neighbours unaffected");
    }

    #[test]
    fn bilateral_filter_is_thread_count_invariant() {
        // structured scene: slope + deterministic noise + a hole, with a
        // height that does not divide evenly into bands
        let mut depth = flat_depth(64, 47, 0.0);
        for y in 0..47 {
            for x in 0..64 {
                let noise = ((x * 31 + y * 17) % 7) as f32 * 0.002;
                depth.set(x, y, 1.0 + x as f32 * 0.01 + noise);
            }
        }
        depth.set(10, 10, 0.0);
        let (reference, ref_work) = bilateral_filter(&depth, 2, 1.5, 0.1, 1, Tracer::off());
        for threads in [2usize, 4, 7] {
            let (f, work) = bilateral_filter(&depth, 2, 1.5, 0.1, threads, Tracer::off());
            let bits = |img: &DepthImage| -> Vec<u32> {
                img.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&f), bits(&reference), "{threads} threads diverged");
            assert_eq!(work.ops.to_bits(), ref_work.ops.to_bits());
        }
    }

    /// A depth image with a slope, deterministic noise, holes, NaN and
    /// infinite pixels.
    fn rough_depth(w: usize, h: usize) -> DepthImage {
        let mut depth = flat_depth(w, h, 0.0);
        for y in 0..h {
            for x in 0..w {
                let noise = ((x * 31 + y * 17) % 7) as f32 * 0.002;
                let d = match (x * 7 + y * 13) % 53 {
                    0 => 0.0,
                    1 => f32::NAN,
                    2 => f32::INFINITY,
                    _ if (x / 9 + y / 5) % 4 == 0 => 2.5 + noise,
                    _ => 1.0 + x as f32 * 0.01 + noise,
                };
                depth.set(x, y, d);
            }
        }
        depth
    }

    /// The bilateral filter as a plain per-pixel loop: every tap
    /// evaluates its own range weight, in (dy, dx) order.
    fn reference_bilateral(depth: &DepthImage, radius: usize, ss: f32, sr: f32) -> DepthImage {
        let (w, h) = (depth.width() as isize, depth.height() as isize);
        let r = radius as isize;
        let (inv_2ss, inv_2sr) = (1.0 / (2.0 * ss * ss), 1.0 / (2.0 * sr * sr));
        let valid = |d: f32| d.is_finite() && d > 0.0;
        let mut out = flat_depth(depth.width(), depth.height(), 0.0);
        for y in 0..h {
            for x in 0..w {
                let centre = depth.get(x as usize, y as usize);
                if !valid(centre) {
                    continue;
                }
                let (mut sum, mut weight) = (0.0f32, 0.0f32);
                for dy in -r..=r {
                    for dx in -r..=r {
                        let (xx, yy) = (x + dx, y + dy);
                        if xx < 0 || yy < 0 || xx >= w || yy >= h {
                            continue;
                        }
                        let d = depth.get(xx as usize, yy as usize);
                        if !valid(d) {
                            continue;
                        }
                        let spatial = (-((dx * dx + dy * dy) as f32) * inv_2ss).exp();
                        let diff = d - centre;
                        let wgt = spatial * (-diff * diff * inv_2sr).exp();
                        sum += wgt * d;
                        weight += wgt;
                    }
                }
                if weight > 0.0 {
                    out.set(x as usize, y as usize, sum / weight);
                }
            }
        }
        out
    }

    #[test]
    fn bilateral_matches_the_per_pixel_loop_at_every_band_height() {
        let bits =
            |img: &DepthImage| -> Vec<u32> { img.as_slice().iter().map(|v| v.to_bits()).collect() };
        // heights 47 and 60 give 1-row bands, 120 2-row, 150 3-row and
        // 480 8-row ones; widths below the window exercise the clipping
        for (w, h) in [
            (64, 47),
            (80, 60),
            (160, 120),
            (50, 150),
            (96, 480),
            (3, 130),
            (1, 9),
        ] {
            let depth = rough_depth(w, h);
            for radius in [0, 1, 2, 3] {
                let want = reference_bilateral(&depth, radius, 1.5, 0.1);
                for threads in [1, 2, 7] {
                    let (got, _) =
                        bilateral_filter(&depth, radius, 1.5, 0.1, threads, Tracer::off());
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{w}x{h}, radius {radius}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn pyramid_kernels_are_thread_count_invariant() {
        let cam = PinholeCamera::new(96, 71, 80.0, 80.0, 47.5, 35.0);
        let depth = rough_depth(cam.width, cam.height);
        let v3bits = |img: &Image2D<Vec3>| -> Vec<[u32; 3]> {
            img.as_slice()
                .iter()
                .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
                .collect()
        };
        let run = |threads: usize| {
            let (half, hw) = half_sample(&depth, 0.1, threads, Tracer::off());
            let (vertices, vw) = depth2vertex(&depth, &cam, threads, Tracer::off());
            let (normals, nw) = vertex2normal(&vertices, threads, Tracer::off());
            let half: Vec<u32> = half.as_slice().iter().map(|v| v.to_bits()).collect();
            let work = [hw, vw, nw].map(|w| [w.ops.to_bits(), w.bytes.to_bits()]);
            (half, v3bits(&vertices), v3bits(&normals), work)
        };
        let reference = run(1);
        assert!(reference.2.iter().any(|n| n[2] != 0), "no normal computed");
        for threads in [2usize, 4, 7, 0] {
            assert_eq!(run(threads), reference, "{threads} threads diverged");
        }
    }

    #[test]
    fn non_finite_depth_does_not_poison_outputs() {
        let cam = PinholeCamera::tiny();
        let mut depth = flat_depth(cam.width, cam.height, 2.0);
        depth.set(8, 8, f32::NAN);
        depth.set(12, 8, f32::INFINITY);
        depth.set(8, 12, f32::NEG_INFINITY);
        let (f, _) = bilateral_filter(&depth, 2, 1.5, 0.1, 0, Tracer::off());
        for (x, y, v) in f.enumerate_pixels() {
            assert!(v.is_finite(), "bilateral emitted non-finite at ({x},{y})");
        }
        assert_eq!(f.get(8, 8), 0.0, "NaN centre must become a hole");
        assert!((f.get(9, 8) - 2.0).abs() < 1e-4, "neighbour unaffected");
        let (hs, _) = half_sample(&depth, 0.1, 0, Tracer::off());
        for (x, y, v) in hs.enumerate_pixels() {
            assert!(v.is_finite(), "half_sample emitted non-finite at ({x},{y})");
        }
        let (vm, _) = depth2vertex(&depth, &cam, 0, Tracer::off());
        for (x, y, v) in vm.enumerate_pixels() {
            assert!(
                v.x.is_finite() && v.y.is_finite() && v.z.is_finite(),
                "depth2vertex emitted non-finite at ({x},{y})"
            );
        }
        assert_eq!(vm.get(8, 8), Vec3::ZERO);
        assert_eq!(vm.get(12, 8), Vec3::ZERO, "Inf depth must become a hole");
        let mut poisoned = vm.clone();
        poisoned.set(6, 6, Vec3::new(0.0, 0.0, f32::NAN));
        let (nm, _) = vertex2normal(&poisoned, 0, Tracer::off());
        for (x, y, n) in nm.enumerate_pixels() {
            assert!(
                n.x.is_finite() && n.y.is_finite() && n.z.is_finite(),
                "vertex2normal emitted non-finite at ({x},{y})"
            );
        }
        assert_eq!(nm.get(7, 6), Vec3::ZERO, "neighbour of NaN vertex invalid");
    }

    #[test]
    fn half_sample_halves_resolution() {
        let depth = flat_depth(8, 6, 1.5);
        let (h, _) = half_sample(&depth, 0.1, 0, Tracer::off());
        assert_eq!(h.width(), 4);
        assert_eq!(h.height(), 3);
        assert!((h.get(1, 1) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn half_sample_respects_depth_band() {
        let mut depth = flat_depth(4, 4, 1.0);
        // one far outlier inside the 2x2 block at (0,0)
        depth.set(1, 1, 3.0);
        let (h, _) = half_sample(&depth, 0.1, 0, Tracer::off());
        assert!(
            (h.get(0, 0) - 1.0).abs() < 1e-6,
            "outlier averaged in: {}",
            h.get(0, 0)
        );
    }

    #[test]
    fn depth2vertex_back_projects() {
        let cam = PinholeCamera::tiny();
        let depth = flat_depth(cam.width, cam.height, 2.0);
        let (v, _) = depth2vertex(&depth, &cam, 0, Tracer::off());
        let centre = v.get(cam.width / 2, cam.height / 2);
        assert!((centre.z - 2.0).abs() < 1e-5);
        assert!(centre.x.abs() < 0.02);
        // off-centre pixel has lateral offset
        let corner = v.get(0, 0);
        assert!(corner.x < -0.5);
        assert!(
            (corner.z - 2.0).abs() < 1e-5,
            "z-depth is constant for a flat wall"
        );
    }

    #[test]
    fn depth2vertex_zeroes_holes() {
        let cam = PinholeCamera::tiny();
        let mut depth = flat_depth(cam.width, cam.height, 2.0);
        depth.set(5, 5, 0.0);
        let (v, _) = depth2vertex(&depth, &cam, 0, Tracer::off());
        assert_eq!(v.get(5, 5), Vec3::ZERO);
    }

    #[test]
    fn normals_of_flat_wall_face_camera() {
        let cam = PinholeCamera::tiny();
        let depth = flat_depth(cam.width, cam.height, 2.0);
        let (v, _) = depth2vertex(&depth, &cam, 0, Tracer::off());
        let (n, _) = vertex2normal(&v, 0, Tracer::off());
        let centre = n.get(cam.width / 2, cam.height / 2);
        assert!(
            (centre - Vec3::new(0.0, 0.0, -1.0)).norm() < 1e-3,
            "wall normal should face the camera, got {centre}"
        );
    }

    #[test]
    fn normals_are_unit_or_zero() {
        let cam = PinholeCamera::tiny();
        // a sloped surface: depth increases with x
        let mut depth = flat_depth(cam.width, cam.height, 0.0);
        for y in 0..cam.height {
            for x in 0..cam.width {
                depth.set(x, y, 1.0 + x as f32 * 0.01);
            }
        }
        let (v, _) = depth2vertex(&depth, &cam, 0, Tracer::off());
        let (n, _) = vertex2normal(&v, 0, Tracer::off());
        for (_, _, nv) in n.enumerate_pixels() {
            let len = nv.norm();
            assert!(len < 1e-6 || (len - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn normals_invalid_near_holes_and_borders() {
        let cam = PinholeCamera::tiny();
        let mut depth = flat_depth(cam.width, cam.height, 2.0);
        depth.set(10, 10, 0.0);
        let (v, _) = depth2vertex(&depth, &cam, 0, Tracer::off());
        let (n, _) = vertex2normal(&v, 0, Tracer::off());
        assert_eq!(n.get(10, 10), Vec3::ZERO);
        assert_eq!(n.get(11, 10), Vec3::ZERO, "neighbour of a hole is invalid");
        assert_eq!(n.get(0, 0), Vec3::ZERO, "border is invalid");
    }
}
