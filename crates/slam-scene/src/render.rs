//! Sphere-tracing renderer: scene × camera pose → ideal depth + RGB.
//!
//! This plays the role of the offline ray tracer that produced the
//! ICL-NUIM sequences. Output depth is the *z-depth* (distance along the
//! optical axis), which is what RGB-D sensors report and what the
//! KinectFusion preprocessing expects.

use crate::scene::Scene;
use crate::sdf::{gradient, normal_samples, Sdf, NORMAL_STEP};
use slam_math::camera::PinholeCamera;
use slam_math::{Se3, Vec3};

/// Renderer settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Maximum ray length in metres; rays that exceed it produce a depth
    /// hole (value `0`), like a sensor's maximum range.
    pub max_range: f32,
    /// Sphere-tracing hit threshold as a fraction of the current ray
    /// length (plus a small absolute floor).
    pub hit_epsilon: f32,
    /// Maximum sphere-tracing steps per ray.
    pub max_steps: usize,
    /// Light direction for Lambertian shading of the RGB image
    /// (world frame; need not be normalised).
    pub light_dir: Vec3,
    /// Ambient light term in `[0, 1]`.
    pub ambient: f32,
}

impl Default for RenderOptions {
    fn default() -> RenderOptions {
        RenderOptions {
            max_range: 8.0,
            hit_epsilon: 1e-4,
            max_steps: 192,
            light_dir: Vec3::new(0.4, -1.0, 0.3),
            ambient: 0.25,
        }
    }
}

/// An ideal (noise-free) rendered RGB-D frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedFrame {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Row-major z-depth in metres; `0.0` marks a hole (no hit in range).
    pub depth: Vec<f32>,
    /// Row-major RGB pixels.
    pub rgb: Vec<[u8; 3]>,
}

impl RenderedFrame {
    /// Depth at pixel `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics when the pixel is out of bounds.
    pub fn depth_at(&self, u: usize, v: usize) -> f32 {
        assert!(u < self.width && v < self.height, "pixel out of bounds");
        self.depth[v * self.width + u]
    }

    /// Fraction of pixels with valid (non-hole) depth.
    pub fn valid_fraction(&self) -> f32 {
        if self.depth.is_empty() {
            return 0.0;
        }
        let valid = self.depth.iter().filter(|&&d| d > 0.0).count();
        valid as f32 / self.depth.len() as f32
    }
}

/// A sphere-tracing renderer over a [`Scene`].
///
/// The march skips objects that provably cannot be the nearest at a
/// sample (see [`Renderer::render`]), so its frames are bit-identical to
/// marching [`Scene::distance`] and shading with [`Scene::closest`] and
/// [`Scene::normal`], at a fraction of the evaluations.
#[derive(Debug, Clone)]
pub struct Renderer {
    scene: Scene,
    options: RenderOptions,
}

/// Rounding slack of the culled march, in units of `f32::EPSILON` times an
/// object's magnitude `L·|p| + Σ|parameters|`. Two evaluations, three
/// sample positions and the bound arithmetic add up to about 30 such
/// units; the rest is margin.
const SLACK_ULPS: f32 = 64.0;

/// One object's lower bound on the current ray, as a line in the ray
/// parameter: its value at the sample at `t` is at least
/// `floor − rate·t`, rounding included. NaN means no bound: it never
/// rules the object out.
#[derive(Debug, Clone, Copy)]
struct Bound {
    floor: f32,
    rate: f32,
}

impl Bound {
    /// The lower bound at the sample at `t`.
    fn low(&self, t: f32) -> f32 {
        self.floor - self.rate * t
    }
}

/// One object seen from a camera centre: its value there and how far the
/// field can move, rounding included. NaN fields mean no bound.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    /// The value at the centre.
    value: f32,
    /// `L`, the field's Lipschitz bound.
    lipschitz: f32,
    /// `L` plus the slack per metre of travel.
    spread: f32,
    /// The slack at the centre, from `|origin|` and the parameters.
    base: f32,
}

impl Anchor {
    fn new(sdf: &Sdf, value: f32, radius: f32) -> Anchor {
        let (lipschitz, magnitude) = (sdf.lipschitz(), sdf.magnitude());
        if !(lipschitz.is_finite() && magnitude.is_finite()) {
            return Anchor {
                value,
                lipschitz: f32::NAN,
                spread: f32::NAN,
                base: f32::NAN,
            };
        }
        // the slack grows with the sample's magnitude `|origin| + t`
        let ulp = SLACK_ULPS * f32::EPSILON;
        Anchor {
            value,
            lipschitz,
            spread: lipschitz + ulp * lipschitz,
            base: ulp * (lipschitz * radius + magnitude),
        }
    }

    /// The bound a value `d` taken at the sample at `t` gives, on a ray
    /// moving `speed` per unit of `t`. A non-finite `d` gives none.
    fn bound(&self, d: f32, t: f32, speed: f32) -> Bound {
        if !d.is_finite() {
            return Bound {
                floor: f32::NAN,
                rate: f32::NAN,
            };
        }
        Bound {
            floor: d + self.lipschitz * (speed * t) - self.base,
            rate: self.spread * speed,
        }
    }
}

/// The scene evaluated once at a camera centre. Every ray's first sample
/// is the centre, so it seeds every ray of a frame.
struct Centre {
    origin: Vec3,
    anchors: Vec<Anchor>,
    /// `Scene::closest` at the centre.
    closest: (f32, usize),
}

/// A march's accepted sample.
struct Hit {
    t: f32,
    p: Vec3,
    /// Index of the closest object at `p`.
    object: usize,
}

impl Renderer {
    /// Creates a renderer with default [`RenderOptions`].
    pub fn new(scene: Scene) -> Renderer {
        Renderer::with_options(scene, RenderOptions::default())
    }

    /// Creates a renderer with explicit options.
    pub fn with_options(scene: Scene, options: RenderOptions) -> Renderer {
        Renderer { scene, options }
    }

    /// The scene being rendered.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The active options.
    pub fn options(&self) -> &RenderOptions {
        &self.options
    }

    /// Casts a single ray from `origin` along (unit) `dir`; returns the
    /// Euclidean hit distance, or `None` when nothing is hit within range.
    pub fn cast_ray(&self, origin: Vec3, dir: Vec3) -> Option<f32> {
        let centre = self.centre(origin);
        self.march(&centre, dir, &mut Vec::new()).map(|hit| hit.t)
    }

    /// Renders a full RGB-D frame from the camera-to-world `pose`.
    ///
    /// Each ray keeps one lower bound per object: its last exact value,
    /// lowered by the object's Lipschitz bound for every metre the ray has
    /// moved since, and by a rounding slack. A sample skips any object
    /// whose bound exceeds the minimum so far: its value is strictly
    /// larger than the minimum, so the minimum and `closest`'s first-index
    /// argmin are those of a full evaluation. Every ray starts at the
    /// camera centre, so one evaluation there seeds the whole frame.
    ///
    /// Rows are rendered in [`slam_exec::band_ranges`] bands on the shared
    /// worker pool (up to [`slam_exec::effective_threads`]`(0)` threads, so
    /// an active thread budget caps it). A ray's state is its own and the
    /// centre is only read, so every pixel is bit-identical at any thread
    /// count.
    pub fn render(&self, camera: &PinholeCamera, pose: &Se3) -> RenderedFrame {
        let (w, h) = (camera.width, camera.height);
        let mut depth = vec![0.0f32; w * h];
        let mut rgb = vec![[0u8; 3]; w * h];
        let centre = &self.centre(pose.translation());
        let mut tasks: Vec<slam_exec::Task<'_, ()>> = Vec::new();
        {
            let mut depth_rest: &mut [f32] = &mut depth;
            let mut rgb_rest: &mut [[u8; 3]] = &mut rgb;
            for band in slam_exec::band_ranges(h) {
                let (depth_band, depth_next) = depth_rest.split_at_mut(band.len() * w);
                let (rgb_band, rgb_next) = rgb_rest.split_at_mut(band.len() * w);
                depth_rest = depth_next;
                rgb_rest = rgb_next;
                tasks.push(Box::new(move || {
                    self.render_band(camera, pose, centre, band.start, depth_band, rgb_band);
                }));
            }
        }
        slam_exec::run_tasks(
            slam_trace::Tracer::off(),
            "render",
            slam_exec::effective_threads(0),
            tasks,
        );
        RenderedFrame {
            width: w,
            height: h,
            depth,
            rgb,
        }
    }

    /// Renders the rows from `v0` on into `depth` and `rgb`, which hold
    /// whole rows of `camera`'s image.
    fn render_band(
        &self,
        camera: &PinholeCamera,
        pose: &Se3,
        centre: &Centre,
        v0: usize,
        depth: &mut [f32],
        rgb: &mut [[u8; 3]],
    ) {
        let w = camera.width;
        let light = self.options.light_dir.normalized_or_zero();
        let mut bounds = Vec::new();
        for (i, (depth, rgb)) in depth.iter_mut().zip(rgb).enumerate() {
            let (u, v) = (i % w, v0 + i / w);
            let dir_cam = camera.ray_direction(u as f32, v as f32);
            let dir = pose.transform_vector(dir_cam);
            if let Some(hit) = self.march(centre, dir, &mut bounds) {
                // z-depth: component of the hit along the optical axis
                let z = hit.t * dir_cam.z;
                if z > 0.0 && z <= self.options.max_range {
                    *depth = z;
                    let n = self.normal(centre, &bounds, &hit);
                    let diffuse = (-light).dot(n).max(0.0);
                    let shade = self.options.ambient + (1.0 - self.options.ambient) * diffuse;
                    *rgb = self.scene.objects()[hit.object].albedo.to_rgb8(shade);
                }
            }
        }
    }

    /// Evaluates every object at a camera centre.
    fn centre(&self, origin: Vec3) -> Centre {
        let radius = origin.norm();
        let mut closest = (f32::INFINITY, 0);
        let anchors = self
            .scene
            .objects()
            .iter()
            .enumerate()
            .map(|(i, obj)| {
                let d = obj.sdf.distance(origin);
                if d < closest.0 {
                    closest = (d, i);
                }
                Anchor::new(&obj.sdf, d, radius)
            })
            .collect();
        Centre {
            origin,
            anchors,
            closest,
        }
    }

    /// Sphere-traces from `centre` along `dir`, leaving each object's
    /// bounds as of the returned sample in `bounds`.
    fn march(&self, centre: &Centre, dir: Vec3, bounds: &mut Vec<Bound>) -> Option<Hit> {
        if self.scene.is_empty() {
            return None;
        }
        let speed = dir.norm();
        // `origin + dir * 0` is the centre up to the sign of zeros, which
        // no field tells apart; a non-finite `dir` makes it NaN instead
        let seeded = dir.is_finite();
        bounds.clear();
        bounds.extend(centre.anchors.iter().map(|a| {
            let value = if seeded { a.value } else { f32::NAN };
            a.bound(value, 0.0, speed)
        }));
        // `closest`'s value is `Scene::distance` up to the sign of a zero,
        // which neither the hit test nor the step tells apart
        let mut t = 0.0f32;
        let mut object = centre.closest.1;
        for step in 0..self.options.max_steps {
            let p = centre.origin + dir * t;
            let d;
            (d, object) = if step == 0 && seeded {
                centre.closest
            } else {
                self.closest(centre, bounds, object, p, t, speed)
            };
            if d < self.options.hit_epsilon * t.max(1.0) {
                return Some(Hit { t, p, object });
            }
            // sphere tracing step; small floor avoids stalling on grazing rays
            t += d.max(1e-4);
            if t > self.options.max_range {
                return None;
            }
        }
        // Ran out of steps very close to a surface: accept the hit if we
        // are within a loose band, otherwise report a hole.
        let p = centre.origin + dir * t;
        let (d, object) = self.closest(centre, bounds, object, p, t, speed);
        (d < 5e-3).then_some(Hit { t, p, object })
    }

    /// `Scene::closest(p)` for the sample `p` at `t`, evaluating only the
    /// objects `bounds` cannot rule out and refreshing their bounds.
    ///
    /// `near`, the previous sample's closest object, is evaluated first:
    /// its value caps the minimum from the start. The fold then runs in
    /// index order with that value in its place, as `Scene::closest`'s
    /// does.
    fn closest(
        &self,
        centre: &Centre,
        bounds: &mut [Bound],
        near: usize,
        p: Vec3,
        t: f32,
        speed: f32,
    ) -> (f32, usize) {
        let objects = self.scene.objects();
        let cap = objects[near].sdf.distance(p);
        bounds[near] = centre.anchors[near].bound(cap, t, speed);
        let mut best = (f32::INFINITY, 0);
        for (i, (obj, anchor)) in objects.iter().zip(&centre.anchors).enumerate() {
            let d = if i == near {
                cap
            } else if bounds[i].low(t) > best.0.min(cap) {
                continue;
            } else {
                let d = obj.sdf.distance(p);
                bounds[i] = anchor.bound(d, t, speed);
                d
            };
            if d < best.0 {
                best = (d, i);
            }
        }
        best
    }

    /// `Scene::normal(hit.p)`, each of its six samples evaluating only the
    /// objects that the hit's bounds, widened by the sample offset, cannot
    /// rule out. As in [`Renderer::closest`], the hit's object goes first:
    /// when its six values are below every other object's bound, they are
    /// the six minima.
    fn normal(&self, centre: &Centre, bounds: &[Bound], hit: &Hit) -> Vec3 {
        let objects = self.scene.objects();
        let samples = normal_samples(hit.p);
        let caps = samples.map(|q| objects[hit.object].sdf.distance(q));
        let widened = |i: usize| bounds[i].low(hit.t) - centre.anchors[i].lipschitz * NORMAL_STEP;
        let top = caps.iter().fold(f32::NEG_INFINITY, |a, &c| a.max(c));
        let alone = !caps.iter().any(|c| c.is_nan())
            && (0..objects.len()).all(|i| i == hit.object || widened(i) > top);
        if alone {
            return gradient(caps);
        }
        gradient(std::array::from_fn(|k| {
            let mut min = f32::INFINITY;
            for (i, obj) in objects.iter().enumerate() {
                let d = if i == hit.object {
                    caps[k]
                } else if widened(i) > min.min(caps[k]) {
                    continue;
                } else {
                    obj.sdf.distance(samples[k])
                };
                min = min.min(d);
            }
            min
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::scene::Albedo;
    use crate::trajectory::Trajectory;

    fn wall_scene() -> Scene {
        // a wall at z = 2 in front of a camera at the origin looking +z
        let mut s = Scene::new("wall");
        s.add(
            "wall",
            Sdf::half_space(-Vec3::Z, Vec3::new(0.0, 0.0, 2.0)),
            Albedo::grey(0.8),
        );
        s
    }

    #[test]
    fn ray_hits_wall_at_exact_distance() {
        let r = Renderer::new(wall_scene());
        let t = r.cast_ray(Vec3::ZERO, Vec3::Z).expect("hit");
        assert!((t - 2.0).abs() < 1e-2, "got {t}");
    }

    #[test]
    fn ray_misses_when_pointing_away() {
        let r = Renderer::new(wall_scene());
        assert!(r.cast_ray(Vec3::ZERO, -Vec3::Z).is_none());
    }

    #[test]
    fn empty_scene_never_hits() {
        let r = Renderer::new(Scene::new("empty"));
        assert!(r.cast_ray(Vec3::ZERO, Vec3::Z).is_none());
    }

    #[test]
    fn rendered_wall_has_flat_z_depth() {
        let r = Renderer::new(wall_scene());
        let cam = PinholeCamera::tiny();
        let frame = r.render(&cam, &Se3::IDENTITY);
        // z-depth of a fronto-parallel plane is constant across the image
        let centre = frame.depth_at(cam.width / 2, cam.height / 2);
        assert!((centre - 2.0).abs() < 1e-2);
        let corner = frame.depth_at(0, 0);
        assert!(
            (corner - 2.0).abs() < 2e-2,
            "z-depth should be flat, got {corner}"
        );
        assert!(frame.valid_fraction() > 0.99);
    }

    #[test]
    fn sphere_depth_profile() {
        let mut s = Scene::new("ball");
        s.add(
            "ball",
            Sdf::sphere(Vec3::new(0.0, 0.0, 3.0), 1.0),
            Albedo::grey(0.9),
        );
        let r = Renderer::new(s);
        let cam = PinholeCamera::tiny();
        let frame = r.render(&cam, &Se3::IDENTITY);
        // centre pixel hits the nearest point of the sphere
        let centre = frame.depth_at(cam.width / 2, cam.height / 2);
        assert!((centre - 2.0).abs() < 1e-2, "got {centre}");
        // border pixels miss
        assert_eq!(frame.depth_at(0, 0), 0.0);
        assert!(frame.valid_fraction() > 0.05);
        assert!(frame.valid_fraction() < 0.9);
    }

    #[test]
    fn beyond_max_range_is_hole() {
        let opts = RenderOptions {
            max_range: 1.0,
            ..RenderOptions::default()
        };
        let r = Renderer::with_options(wall_scene(), opts);
        let cam = PinholeCamera::tiny();
        let frame = r.render(&cam, &Se3::IDENTITY);
        assert_eq!(frame.valid_fraction(), 0.0);
    }

    #[test]
    fn shading_darker_away_from_light() {
        let mut s = Scene::new("ball");
        s.add(
            "ball",
            Sdf::sphere(Vec3::new(0.0, 0.0, 3.0), 1.0),
            Albedo::grey(1.0),
        );
        let r = Renderer::new(s);
        let cam = PinholeCamera::tiny();
        let frame = r.render(&cam, &Se3::IDENTITY);
        // light travels towards -y, so surfaces whose normals point +y are
        // lit. The camera convention is y-down: with the identity pose,
        // larger image v means larger world y, so the *bottom* of the image
        // sees the lit side of the sphere.
        let cx = cam.width / 2;
        let top = frame.rgb[(cam.height / 2 - 20) * cam.width + cx][0] as i32;
        let bottom = frame.rgb[(cam.height / 2 + 20) * cam.width + cx][0] as i32;
        assert!(
            bottom > top,
            "lit side {bottom} should outshine dark side {top}"
        );
    }

    #[test]
    fn camera_translation_shifts_depth() {
        let r = Renderer::new(wall_scene());
        let cam = PinholeCamera::tiny();
        let closer = Se3::from_translation(Vec3::new(0.0, 0.0, 1.0));
        let frame = r.render(&cam, &closer);
        let centre = frame.depth_at(cam.width / 2, cam.height / 2);
        assert!((centre - 1.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn depth_at_out_of_bounds_panics() {
        let frame = RenderedFrame {
            width: 2,
            height: 2,
            depth: vec![0.0; 4],
            rgb: vec![[0; 3]; 4],
        };
        frame.depth_at(2, 0);
    }

    /// The unculled march the renderer must reproduce bit for bit: every
    /// sample evaluates every object through `Scene::distance`.
    fn reference_cast(r: &Renderer, origin: Vec3, dir: Vec3) -> Option<f32> {
        let (scene, options) = (r.scene(), r.options());
        if scene.is_empty() {
            return None;
        }
        let mut t = 0.0f32;
        for _ in 0..options.max_steps {
            let p = origin + dir * t;
            let d = scene.distance(p);
            if d < options.hit_epsilon * t.max(1.0) {
                return Some(t);
            }
            t += d.max(1e-4);
            if t > options.max_range {
                return None;
            }
        }
        let p = origin + dir * t;
        if scene.distance(p) < 5e-3 {
            Some(t)
        } else {
            None
        }
    }

    /// The unculled render: [`reference_cast`], shaded through
    /// `Scene::closest` and `Scene::normal`.
    fn reference_render(r: &Renderer, camera: &PinholeCamera, pose: &Se3) -> RenderedFrame {
        let (scene, options) = (r.scene(), r.options());
        let (w, h) = (camera.width, camera.height);
        let mut depth = vec![0.0f32; w * h];
        let mut rgb = vec![[0u8; 3]; w * h];
        let origin = pose.translation();
        let light = options.light_dir.normalized_or_zero();
        for v in 0..h {
            for u in 0..w {
                let dir_cam = camera.ray_direction(u as f32, v as f32);
                let dir = pose.transform_vector(dir_cam);
                if let Some(t) = reference_cast(r, origin, dir) {
                    let z = t * dir_cam.z;
                    if z > 0.0 && z <= options.max_range {
                        let idx = v * w + u;
                        depth[idx] = z;
                        let p = origin + dir * t;
                        let (_, obj_idx) = scene.closest(p);
                        let n = scene.normal(p);
                        let diffuse = (-light).dot(n).max(0.0);
                        let shade = options.ambient + (1.0 - options.ambient) * diffuse;
                        rgb[idx] = scene.objects()[obj_idx].albedo.to_rgb8(shade);
                    }
                }
            }
        }
        RenderedFrame {
            width: w,
            height: h,
            depth,
            rgb,
        }
    }

    /// Asserts identical sizes, depth bits and RGB.
    fn assert_same_frame(want: &RenderedFrame, got: &RenderedFrame, what: &str) {
        assert_eq!(
            (want.width, want.height, want.depth.len(), want.rgb.len()),
            (got.width, got.height, got.depth.len(), got.rgb.len()),
            "{what}: sizes differ"
        );
        for (i, (a, b)) in want.depth.iter().zip(&got.depth).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: depth differs at pixel {i}: {a} vs {b}"
            );
        }
        for (i, (a, b)) in want.rgb.iter().zip(&got.rgb).enumerate() {
            assert_eq!(a, b, "{what}: rgb differs at pixel {i}");
        }
    }

    /// Renders `pose` both ways and asserts identical depth bits and RGB;
    /// returns the frame.
    fn assert_matches_reference(r: &Renderer, pose: &Se3, what: &str) -> RenderedFrame {
        let cam = PinholeCamera::tiny();
        let want = reference_render(r, &cam, pose);
        let got = r.render(&cam, pose);
        assert_same_frame(&want, &got, what);
        got
    }

    /// `n` poses spread over the whole trajectory.
    fn poses(trajectory: &Trajectory, n: usize) -> Vec<Se3> {
        (0..n)
            .map(|i| trajectory.pose(i as f32 / (n - 1) as f32))
            .collect()
    }

    /// Every preset with its trajectory, as the datasets and suites pair
    /// them.
    fn preset_pairs() -> Vec<(Scene, Trajectory)> {
        vec![
            (presets::living_room(), presets::living_room_trajectory()),
            (presets::office(), presets::wobble_trajectory()),
            (presets::corridor(), presets::corridor_trajectory()),
            (presets::blank_corridor(), presets::corridor_trajectory()),
            (presets::warehouse(), presets::warehouse_trajectory()),
            (presets::sphere_world(), presets::living_room_trajectory()),
        ]
    }

    #[test]
    fn culled_render_matches_reference_on_every_preset() {
        for (scene, trajectory) in preset_pairs() {
            let name = scene.name().to_string();
            let r = Renderer::new(scene);
            for (k, pose) in poses(&trajectory, 4).iter().enumerate() {
                let frame = assert_matches_reference(&r, pose, &format!("{name} pose {k}"));
                assert!(frame.valid_fraction() > 0.3, "{name} pose {k} is empty");
            }
        }
    }

    #[test]
    fn culled_render_matches_reference_on_an_empty_scene() {
        let r = Renderer::new(Scene::new("empty"));
        let frame = assert_matches_reference(&r, &Se3::IDENTITY, "empty");
        assert_eq!(frame.valid_fraction(), 0.0);
    }

    #[test]
    fn culled_render_matches_reference_with_nan_centres() {
        // a NaN-centred sphere is NaN everywhere; a NaN-centred box or
        // cylinder drops the NaN axis through `max` and stays finite
        let mut scene = presets::sphere_world();
        let nan = Vec3::new(f32::NAN, 0.2, 3.5);
        scene.add("nan ball", Sdf::sphere(nan, 0.3), Albedo::grey(0.2));
        scene.add(
            "nan box",
            Sdf::cuboid(nan, Vec3::splat(0.2)),
            Albedo::grey(0.3),
        );
        scene.add(
            "nan post",
            Sdf::cylinder_y(nan, 0.1, 0.5),
            Albedo::grey(0.4),
        );
        let r = Renderer::new(scene);
        for (k, pose) in poses(&presets::living_room_trajectory(), 4)
            .iter()
            .enumerate()
        {
            let frame = assert_matches_reference(&r, pose, &format!("nan centres pose {k}"));
            assert!(
                frame.valid_fraction() > 0.3,
                "nan centres pose {k} is empty"
            );
        }
    }

    #[test]
    fn culled_render_matches_reference_with_a_scaled_half_space() {
        // JSON may carry a non-unit normal: this field grows 3 m per metre
        let slope = Vec3::new(0.3, 1.0, -0.2).normalized().expect("non-zero") * 3.0;
        let json = serde_json::to_string(&Sdf::HalfSpace {
            normal: slope,
            offset: slope.dot(Vec3::new(2.0, 0.4, 2.0)),
        })
        .expect("serializes");
        let ramp: Sdf = serde_json::from_str(&json).expect("deserializes");
        assert!((ramp.lipschitz() - 3.0).abs() < 1e-5);
        let mut scene = presets::sphere_world();
        scene.add("ramp", ramp, Albedo::new(0.2, 0.6, 0.2));
        let r = Renderer::new(scene);
        for (k, pose) in poses(&presets::living_room_trajectory(), 4)
            .iter()
            .enumerate()
        {
            assert_matches_reference(&r, pose, &format!("scaled half space pose {k}"));
        }
    }

    #[test]
    fn culled_render_matches_reference_from_inside_an_object() {
        let r = Renderer::new(presets::sphere_world());
        // the centre of the sphere-world ball, then inside the room's shell
        for eye in [Vec3::new(2.0, 0.4, 2.0), Vec3::new(2.0, 1.0, -0.5)] {
            let pose = Se3::look_at(eye, presets::ROOM_CENTER, Vec3::Y);
            assert!(r.scene().distance(eye) < 0.0);
            let frame = assert_matches_reference(&r, &pose, &format!("inside at {eye}"));
            assert_eq!(frame.valid_fraction(), 0.0, "every ray hits at t = 0");
        }
    }

    #[test]
    fn culled_render_matches_reference_when_rays_run_out_of_steps() {
        let scene = presets::living_room();
        let pose = presets::living_room_trajectory().pose(0.5);
        for max_steps in [0, 1, 3, 6] {
            let opts = RenderOptions {
                max_steps,
                ..RenderOptions::default()
            };
            let r = Renderer::with_options(scene.clone(), opts);
            let frame = assert_matches_reference(&r, &pose, &format!("max_steps {max_steps}"));
            if max_steps == 6 {
                // some hits came from the loose 5e-3 band after the last step
                let cam = PinholeCamera::tiny();
                let origin = pose.translation();
                let banded = (0..cam.height)
                    .flat_map(|v| (0..cam.width).map(move |u| (u, v)))
                    .filter(|&(u, v)| {
                        let dir = pose.transform_vector(cam.ray_direction(u as f32, v as f32));
                        reference_cast(&r, origin, dir).is_some_and(|t| {
                            scene.distance(origin + dir * t) >= opts.hit_epsilon * t.max(1.0)
                        })
                    })
                    .count();
                assert!(banded > 0, "no ray took the 5e-3 acceptance path");
                assert!(frame.valid_fraction() > 0.0);
            }
        }
    }

    /// `sdf` moved by `offset`.
    fn translated(sdf: &Sdf, offset: Vec3) -> Sdf {
        let boxed = |s: &Sdf| Box::new(translated(s, offset));
        match sdf {
            Sdf::Sphere { center, radius } => Sdf::sphere(*center + offset, *radius),
            Sdf::Cuboid {
                center,
                half_extents,
            } => Sdf::cuboid(*center + offset, *half_extents),
            Sdf::RoundedCuboid {
                center,
                half_extents,
                radius,
            } => Sdf::rounded_cuboid(*center + offset, *half_extents, *radius),
            Sdf::HalfSpace { normal, offset: o } => Sdf::HalfSpace {
                normal: *normal,
                offset: o + normal.dot(offset),
            },
            Sdf::CylinderY {
                center,
                radius,
                half_height,
            } => Sdf::cylinder_y(*center + offset, *radius, *half_height),
            Sdf::Union(a, b) => Sdf::Union(boxed(a), boxed(b)),
            Sdf::Intersection(a, b) => Sdf::Intersection(boxed(a), boxed(b)),
            Sdf::Difference(a, b) => Sdf::Difference(boxed(a), boxed(b)),
            Sdf::Complement(a) => Sdf::Complement(boxed(a)),
        }
    }

    #[test]
    fn culled_render_matches_reference_far_from_the_origin() {
        let offset = Vec3::splat(1e4);
        for (scene, trajectory) in [
            (presets::living_room(), presets::living_room_trajectory()),
            (presets::warehouse(), presets::warehouse_trajectory()),
        ] {
            let mut far = Scene::new(scene.name());
            for obj in scene.objects() {
                far.add(obj.name.clone(), translated(&obj.sdf, offset), obj.albedo);
            }
            let r = Renderer::new(far);
            for (k, pose) in poses(&trajectory, 2).iter().enumerate() {
                let moved = Se3::new(pose.rotation(), pose.translation() + offset);
                assert_matches_reference(&r, &moved, &format!("{} + 1e4 pose {k}", scene.name()));
            }
        }
    }

    #[test]
    fn cast_ray_matches_reference_on_random_rays() {
        /// SplitMix64: a tiny seeded generator for test rays.
        struct SplitMix64(u64);
        impl SplitMix64 {
            fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                lo + (hi - lo) * ((z >> 40) as f32 / (1u64 << 24) as f32)
            }
        }
        let mut rng = SplitMix64(0x5eed);
        for (scene, _) in preset_pairs() {
            let name = scene.name().to_string();
            let r = Renderer::new(scene);
            let mut hits = 0;
            for case in 0..500 {
                let origin = Vec3::new(
                    rng.f32_in(-1.0, 5.0),
                    rng.f32_in(-1.0, 3.5),
                    rng.f32_in(-1.0, 5.0),
                );
                let dir = Vec3::new(
                    rng.f32_in(-1.0, 1.0),
                    rng.f32_in(-1.0, 1.0),
                    rng.f32_in(-1.0, 1.0),
                )
                .normalized_or_zero();
                let want = reference_cast(&r, origin, dir);
                let got = r.cast_ray(origin, dir);
                assert_eq!(
                    want.map(f32::to_bits),
                    got.map(f32::to_bits),
                    "{name} case {case}: ray {origin} → {dir}"
                );
                hits += usize::from(got.is_some_and(|t| t > 0.0));
            }
            assert!(hits > 50, "{name}: only {hits} rays hit anything");
            // degenerate directions: a NaN or infinite one makes every
            // sample but the centre non-finite, a zero one never moves
            let degenerate = [
                Vec3::splat(f32::NAN),
                Vec3::new(f32::INFINITY, 0.0, 0.0),
                Vec3::ZERO,
            ];
            for dir in degenerate {
                for origin in [presets::ROOM_CENTER, Vec3::new(2.0, 0.1, 2.0)] {
                    let want = reference_cast(&r, origin, dir);
                    let got = r.cast_ray(origin, dir);
                    assert_eq!(
                        want.map(f32::to_bits),
                        got.map(f32::to_bits),
                        "{name}: ray {origin} → {dir}"
                    );
                }
            }
        }
    }

    /// Renders `pose` on one thread and on the whole pool, asserts the two
    /// frames identical and returns the pooled one.
    fn assert_thread_count_invariant(
        r: &Renderer,
        cam: &PinholeCamera,
        pose: &Se3,
        what: &str,
    ) -> RenderedFrame {
        let serial = slam_exec::with_thread_budget(1, || r.render(cam, pose));
        let pooled = r.render(cam, pose);
        assert_same_frame(&serial, &pooled, what);
        pooled
    }

    #[test]
    fn render_is_bit_identical_across_thread_counts_on_every_preset() {
        let vga = PinholeCamera::kinect();
        // (camera, poses per preset): fewer poses as the frame grows
        let cameras = [
            (vga, 1),
            (vga.scaled_down(2), 1),
            (PinholeCamera::tiny(), 3),
        ];
        for (scene, trajectory) in preset_pairs() {
            let name = scene.name().to_string();
            let r = Renderer::new(scene);
            for (cam, n) in cameras {
                let size = format!("{}x{}", cam.width, cam.height);
                // interior poses: with n = 1 the trajectory's midpoint
                for k in 0..n {
                    let pose = trajectory.pose((k + 1) as f32 / (n + 1) as f32);
                    let frame = assert_thread_count_invariant(
                        &r,
                        &cam,
                        &pose,
                        &format!("{name} {size} pose {k}"),
                    );
                    assert!(
                        frame.valid_fraction() > 0.3,
                        "{name} {size} pose {k} is empty"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_cameras_render_and_match_reference() {
        let r = Renderer::new(presets::living_room());
        let pose = presets::living_room_trajectory().pose(0.5);
        for (w, h) in [(1, 1), (1, 480), (640, 1), (0, 480), (640, 0), (0, 0)] {
            let cam = PinholeCamera::new(
                w,
                h,
                525.0,
                525.0,
                (w as f32 - 1.0) / 2.0,
                (h as f32 - 1.0) / 2.0,
            );
            let what = format!("{w}x{h}");
            let frame = assert_thread_count_invariant(&r, &cam, &pose, &what);
            assert_eq!(
                (frame.depth.len(), frame.rgb.len()),
                (w * h, w * h),
                "{what}"
            );
            assert_same_frame(&reference_render(&r, &cam, &pose), &frame, &what);
            if w * h > 0 {
                assert!(frame.valid_fraction() > 0.0, "{what} is empty");
            }
        }
    }
}
