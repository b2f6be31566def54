//! Sparse blocked TSDF volume: 8³-voxel bricks held in a deterministic
//! open-addressed brick table, allocated on first touch inside the
//! truncation band.
//!
//! # Determinism
//!
//! Fusion runs in three steps, each bit-identical across thread counts:
//!
//! 1. **Mark** — image rows are banded with [`slam_exec::band_ranges`]; each
//!    band marks candidate bricks in its own bitset and the bitsets are
//!    OR-merged. OR is commutative and idempotent, so the merged set
//!    does not depend on the banding or thread count.
//! 2. **Allocate** — new bricks are inserted serially in ascending
//!    brick-id order, so the table layout is a pure function of the
//!    frame history.
//! 3. **Integrate** — *all* allocated bricks (not just this frame's
//!    marks) are banded over the slot arena with `split_at_mut`; every
//!    voxel is written exactly once by the shared
//!    [`integrate_span`](crate::tsdf) kernel, which evaluates the same
//!    closed-form per-voxel math as the dense backend. Keeping stale
//!    bricks in the pass means an allocated voxel receives exactly the
//!    update stream the dense backend gives it, so voxels with equal
//!    observation histories hold bit-identical values across backends.
//!
//! The mark pass is a conservative superset of the truncation band:
//! every voxel the dense backend would update with an in-band value
//! (`|sdf| <= mu`) lives in a marked brick, which the dense↔sparse
//! equivalence tests verify.

use crate::image::DepthImage;
use crate::tsdf::{floor, integrate_span, SpanScratch};
use crate::volume::{BadVoxel, DumpError, Volume, VoxelFault};
use crate::workload::Workload;
use slam_math::camera::PinholeCamera;
use slam_math::{Se3, Vec3};
use slam_trace::Tracer;

/// Voxels per brick side.
pub const BRICK_SIDE: usize = 8;
/// Voxels per brick.
pub const BRICK_VOXELS: usize = BRICK_SIDE * BRICK_SIDE * BRICK_SIDE;

/// Longest linear-probe walk and brick-DDA walk tolerated before giving
/// up; both are backstops, not expected paths.
const MAX_SKIP_BRICKS: usize = 64;

/// Pixels covered by one z-march of the mark pass. One march per
/// segment (instead of one per pixel) trades a wider, still
/// conservative marking margin for ~an order of magnitude fewer
/// mark-box calls.
const MARK_SEGMENT: usize = 16;

/// A sparse TSDF volume storing only bricks that have been touched by
/// the truncation band of some observation. Unallocated space reads as
/// unobserved (`tsdf = 1.0`, `weight = 0.0`), exactly like untouched
/// voxels of the dense backend.
///
/// # Examples
///
/// Volumes are built through [`VolumeStorage::new`](crate::VolumeStorage::new):
///
/// ```
/// use slam_kfusion::{SparseTsdfVolume, VolumeBackend, VolumeStorage};
/// let storage = VolumeStorage::new(VolumeBackend::Sparse, 512, 4.0);
/// let vol: &SparseTsdfVolume = storage.as_sparse().expect("a sparse volume");
/// assert_eq!(vol.resolution(), 512);
/// assert_eq!(vol.allocated_bricks(), 0);
/// // an empty 512³ volume costs kilobytes, not the dense gigabyte
/// assert!(vol.memory_bytes() < 1 << 20);
/// ```
///
/// The constructor itself is crate-private:
///
/// ```compile_fail,E0624
/// use slam_kfusion::{SparseTsdfVolume, VolumeBackend, VolumeStorage};
/// let vol = SparseTsdfVolume::new(512, 4.0);
/// ```
///
/// So are the voxel arrays; reads go through the [`Volume`] trait:
///
/// ```compile_fail,E0616
/// use slam_kfusion::{VolumeBackend, VolumeStorage};
/// let storage = VolumeStorage::new(VolumeBackend::Sparse, 512, 4.0);
/// let first = storage.as_sparse().expect("a sparse volume").tsdf[0];
/// ```
#[derive(Debug, Clone)]
pub struct SparseTsdfVolume {
    resolution: usize,
    size: f32,
    voxel: f32,
    /// `1 / voxel`, the world-to-grid scale.
    inv_voxel: f32,
    bricks_per_side: usize,
    /// Open-addressed table of packed entries
    /// `((brick_id + 1) << 32) | slot`; `0` marks an empty cell. The
    /// capacity is a power of two and the load factor stays below ½.
    table: Vec<u64>,
    /// Slot → brick id, in allocation order.
    brick_ids: Vec<u32>,
    /// TSDF arena, [`BRICK_VOXELS`] entries per slot (z-major within
    /// the brick, x fastest — the same layout as the dense backend).
    tsdf: Vec<f32>,
    /// Weight arena, parallel to `tsdf`.
    weight: Vec<f32>,
    /// Slot → "holds surface information": set once any voxel of the
    /// brick drops below `tsdf = 1.0`. Bricks without the flag cannot
    /// contain a zero crossing, so the ray marcher may leap them like
    /// unallocated space. Sticky and derived per brick from its own
    /// voxels, so it is thread-count independent.
    surface: Vec<bool>,
    /// Brick-id-indexed bitset mirroring `surface` (bit set ⇔ brick
    /// allocated with its surface flag up). The free-space DDA tests
    /// this instead of probing the hash table per brick step; at 256³
    /// it is 4 KiB and stays cache-resident.
    surface_bits: Vec<u64>,
}

impl SparseTsdfVolume {
    /// Creates an empty volume with no bricks allocated.
    ///
    /// # Panics
    ///
    /// Panics when `resolution == 0` or `size <= 0`.
    pub(crate) fn new(resolution: usize, size: f32) -> SparseTsdfVolume {
        assert!(resolution > 0, "resolution must be positive");
        assert!(size > 0.0, "size must be positive");
        let bricks_per_side = resolution.div_ceil(BRICK_SIDE);
        let voxel = size / resolution as f32;
        SparseTsdfVolume {
            resolution,
            size,
            voxel,
            inv_voxel: 1.0 / voxel,
            bricks_per_side,
            table: vec![0; 256],
            brick_ids: Vec::new(),
            tsdf: Vec::new(),
            weight: Vec::new(),
            surface: Vec::new(),
            surface_bits: vec![0; (bricks_per_side.pow(3)).div_ceil(64)],
        }
    }

    /// Voxels per side.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Physical size of the cube side in metres.
    pub fn size(&self) -> f32 {
        self.size
    }

    /// Side of one voxel in metres.
    pub fn voxel_size(&self) -> f32 {
        self.voxel
    }

    /// Number of currently allocated bricks.
    pub fn allocated_bricks(&self) -> usize {
        self.brick_ids.len()
    }

    /// Memory footprint of the brick table plus voxel arenas in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.tsdf.len() + self.weight.len()) * std::mem::size_of::<f32>()
            + self.table.len() * std::mem::size_of::<u64>()
            + self.brick_ids.len() * std::mem::size_of::<u32>()
            + self.surface.len()
            + self.surface_bits.len() * std::mem::size_of::<u64>()
    }

    /// Number of voxels that have received at least one observation.
    pub fn occupied_voxels(&self) -> usize {
        self.weight.iter().filter(|&&w| w > 0.0).count()
    }

    #[inline]
    fn brick_id(&self, bx: usize, by: usize, bz: usize) -> u32 {
        ((bz * self.bricks_per_side + by) * self.bricks_per_side + bx) as u32
    }

    #[inline]
    fn hash(id: u32) -> usize {
        ((u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// Arena slot of `id`, if the brick is allocated.
    #[inline]
    fn slot_of(&self, id: u32) -> Option<usize> {
        let mask = self.table.len() - 1;
        let key = (u64::from(id) + 1) << 32;
        let mut i = Self::hash(id) & mask;
        loop {
            let entry = self.table[i];
            if entry == 0 {
                return None;
            }
            if entry & 0xFFFF_FFFF_0000_0000 == key {
                return Some((entry & 0xFFFF_FFFF) as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a brick that is known to be absent, growing the table
    /// when the load factor would exceed ½. Callers insert in ascending
    /// id order, which makes the table layout deterministic.
    fn insert_brick(&mut self, id: u32) {
        if (self.brick_ids.len() + 1) * 2 > self.table.len() {
            self.grow_table();
        }
        let mask = self.table.len() - 1;
        let mut i = Self::hash(id) & mask;
        while self.table[i] != 0 {
            i = (i + 1) & mask;
        }
        let slot = self.brick_ids.len();
        self.table[i] = ((u64::from(id) + 1) << 32) | slot as u64;
        self.brick_ids.push(id);
        self.tsdf.resize(self.tsdf.len() + BRICK_VOXELS, 1.0);
        self.weight.resize(self.weight.len() + BRICK_VOXELS, 0.0);
        self.surface.push(false);
    }

    fn grow_table(&mut self) {
        let capacity = (self.table.len() * 2).max(256);
        let mut table = vec![0u64; capacity];
        let mask = capacity - 1;
        for (slot, &id) in self.brick_ids.iter().enumerate() {
            let mut i = Self::hash(id) & mask;
            while table[i] != 0 {
                i = (i + 1) & mask;
            }
            table[i] = ((u64::from(id) + 1) << 32) | slot as u64;
        }
        self.table = table;
    }

    /// `(tsdf, weight)` of a voxel; the unobserved default where the
    /// containing brick is unallocated.
    #[inline]
    fn voxel_value(&self, x: usize, y: usize, z: usize) -> (f32, f32) {
        let id = self.brick_id(x / BRICK_SIDE, y / BRICK_SIDE, z / BRICK_SIDE);
        match self.slot_of(id) {
            None => (1.0, 0.0),
            Some(slot) => {
                let m = BRICK_SIDE - 1;
                let li = ((z & m) * BRICK_SIDE + (y & m)) * BRICK_SIDE + (x & m);
                let at = slot * BRICK_VOXELS + li;
                (self.tsdf[at], self.weight[at])
            }
        }
    }

    /// Raw TSDF value of voxel `(x, y, z)`; `1.0` where unallocated.
    ///
    /// # Panics
    ///
    /// Panics when any coordinate is out of range.
    pub fn voxel_tsdf(&self, x: usize, y: usize, z: usize) -> f32 {
        assert!(
            x < self.resolution && y < self.resolution && z < self.resolution,
            "voxel out of range"
        );
        self.voxel_value(x, y, z).0
    }

    /// Integration weight of voxel `(x, y, z)`; `0.0` where unallocated.
    ///
    /// # Panics
    ///
    /// Panics when any coordinate is out of range.
    pub fn voxel_weight(&self, x: usize, y: usize, z: usize) -> f32 {
        assert!(
            x < self.resolution && y < self.resolution && z < self.resolution,
            "voxel out of range"
        );
        self.voxel_value(x, y, z).1
    }

    /// World-space centre of voxel `(x, y, z)`.
    pub fn voxel_center(&self, x: usize, y: usize, z: usize) -> Vec3 {
        Vec3::new(
            (x as f32 + 0.5) * self.voxel,
            (y as f32 + 0.5) * self.voxel,
            (z as f32 + 0.5) * self.voxel,
        )
    }

    /// Trilinearly-interpolated TSDF at a world point, or `None` when
    /// the point is outside the volume or *uninformative* — every
    /// interpolation corner still at the unobserved default `1.0`.
    /// Wherever a corner carries information the arithmetic matches the
    /// dense backend exactly; in uninformative space the dense backend
    /// may report `Some(1.0)` where this reports `None`, which lets the
    /// ray marcher fall through to [`SparseTsdfVolume::free_space_skip`]
    /// and leap whole bricks instead of striding. Reading only the TSDF
    /// arena (no weights) keeps the hot path at one brick-table lookup
    /// plus eight loads.
    pub fn sample(&self, p: Vec3) -> Option<f32> {
        let (c, tx, ty, tz) = self.cell(p)?;
        Some(slam_math::interp::trilerp(c, tx, ty, tz))
    }

    /// The interpolation cell around a world point: the eight corner
    /// TSDF values (x varies fastest) and the fractional coordinates.
    /// `None` when the point is outside the volume or the cell is
    /// uninformative (every corner at the `1.0` default — only fused
    /// observations move a voxel off it, so this is exactly "no
    /// information here").
    fn cell(&self, p: Vec3) -> Option<([f32; 8], f32, f32, f32)> {
        let g = p * self.inv_voxel - Vec3::splat(0.5);
        let x0 = floor(g.x);
        let y0 = floor(g.y);
        let z0 = floor(g.z);
        let max = (self.resolution - 1) as f32;
        if x0 < 0.0 || y0 < 0.0 || z0 < 0.0 || x0 >= max || y0 >= max || z0 >= max {
            return None;
        }
        let (xi, yi, zi) = (x0 as usize, y0 as usize, z0 as usize);
        let mut c = [0.0f32; 8];
        let m = BRICK_SIDE - 1;
        if (xi & m) < m && (yi & m) < m && (zi & m) < m {
            // fast path: all eight corners in one brick — one lookup. A
            // surface-free brick reads 1.0 at every voxel (the decoders
            // reject anything else), so its cell is uninformative
            // without a hash probe or an arena read
            let id = self.brick_id(xi / BRICK_SIDE, yi / BRICK_SIDE, zi / BRICK_SIDE);
            if !self.has_surface(id as usize) {
                return None;
            }
            let slot = self.slot_of(id)?;
            let base =
                slot * BRICK_VOXELS + ((zi & m) * BRICK_SIDE + (yi & m)) * BRICK_SIDE + (xi & m);
            for (i, corner) in c.iter_mut().enumerate() {
                let at = base
                    + ((i >> 2) & 1) * BRICK_SIDE * BRICK_SIDE
                    + ((i >> 1) & 1) * BRICK_SIDE
                    + (i & 1);
                *corner = self.tsdf[at];
            }
        } else {
            // slow path: the cell straddles a brick face. The corners
            // touch at most 2 bricks per straddled axis, so cache the
            // (brick → slot) lookups per distinct brick — typically 2
            // table probes instead of 8.
            let bx = [xi / BRICK_SIDE, (xi + 1) / BRICK_SIDE];
            let by = [yi / BRICK_SIDE, (yi + 1) / BRICK_SIDE];
            let bz = [zi / BRICK_SIDE, (zi + 1) / BRICK_SIDE];
            let mut slots: [Option<Option<usize>>; 8] = [None; 8];
            for (i, corner) in c.iter_mut().enumerate() {
                let (cx, cy, cz) = (i & 1, (i >> 1) & 1, (i >> 2) & 1);
                // collapse the cache key along axes that do not straddle
                let key = usize::from(bx[0] != bx[1]) * cx
                    + usize::from(by[0] != by[1]) * cy * 2
                    + usize::from(bz[0] != bz[1]) * cz * 4;
                let slot = *slots[key]
                    .get_or_insert_with(|| self.slot_of(self.brick_id(bx[cx], by[cy], bz[cz])));
                *corner = match slot {
                    None => 1.0,
                    Some(slot) => {
                        let (x, y, z) = (xi + cx, yi + cy, zi + cz);
                        let li = ((z & m) * BRICK_SIDE + (y & m)) * BRICK_SIDE + (x & m);
                        self.tsdf[slot * BRICK_VOXELS + li]
                    }
                };
            }
        }
        if c.iter().all(|&t| t >= 1.0) {
            return None;
        }
        Some((c, g.x - x0, g.y - y0, g.z - z0))
    }

    /// TSDF gradient at a world point via central differences of
    /// trilinear samples one voxel apart, all six computed from one
    /// 4³-neighbourhood fetch
    /// ([`slam_math::interp::central_gradient`]); `None` near the
    /// volume border or in uninformative space. Same arithmetic as the
    /// dense backend — wherever both return a value over identical
    /// voxel content, the results are bit-identical.
    pub fn gradient(&self, p: Vec3) -> Option<Vec3> {
        // below 4³ there is no cell with a one-voxel border on each side
        if self.resolution < 4 {
            return None;
        }
        let g = p * self.inv_voxel - Vec3::splat(0.5);
        let x0 = floor(g.x);
        let y0 = floor(g.y);
        let z0 = floor(g.z);
        let max = (self.resolution - 3) as f32;
        if x0 < 1.0 || y0 < 1.0 || z0 < 1.0 || x0 > max || y0 > max || z0 > max {
            return None;
        }
        let (xi, yi, zi) = (x0 as usize, y0 as usize, z0 as usize);
        // the 4³ window spans at most 2 bricks per axis, splitting each
        // axis into a prefix run (first brick) and a suffix run (second
        // brick); cache the (brick → slot) lookups per distinct brick
        // and copy whole x-runs out of the arena
        let bx = [(xi - 1) / BRICK_SIDE, (xi + 2) / BRICK_SIDE];
        let by = [(yi - 1) / BRICK_SIDE, (yi + 2) / BRICK_SIDE];
        let bz = [(zi - 1) / BRICK_SIDE, (zi + 2) / BRICK_SIDE];
        let prefix = |v: usize, b0: usize| ((b0 + 1) * BRICK_SIDE - (v - 1)).min(4);
        let (px, py, pz) = (prefix(xi, bx[0]), prefix(yi, by[0]), prefix(zi, bz[0]));
        let mut slots: [Option<Option<usize>>; 8] = [None; 8];
        let mut c = [1.0f32; 64];
        let m = BRICK_SIDE - 1;
        for dz in 0..4 {
            let z = zi - 1 + dz;
            let kz = usize::from(dz >= pz);
            let zb = (z & m) * BRICK_SIDE;
            for dy in 0..4 {
                let y = yi - 1 + dy;
                let ky = usize::from(dy >= py);
                let row = (dz * 4 + dy) * 4;
                for (kx, at, run) in [(0usize, 0usize, px), (1, px, 4 - px)] {
                    if run == 0 {
                        continue;
                    }
                    let slot = *slots[kz * 4 + ky * 2 + kx]
                        .get_or_insert_with(|| self.slot_of(self.brick_id(bx[kx], by[ky], bz[kz])));
                    if let Some(slot) = slot {
                        let x = xi - 1 + at;
                        let base = slot * BRICK_VOXELS + (zb + (y & m)) * BRICK_SIDE + (x & m);
                        c[row + at..row + at + run].copy_from_slice(&self.tsdf[base..base + run]);
                    }
                }
            }
        }
        if c.iter().all(|&t| t >= 1.0) {
            return None;
        }
        let (dx, dy, dz) = slam_math::interp::central_gradient(&c, g.x - x0, g.y - y0, g.z - z0);
        Some(Vec3::new(dx, dy, dz))
    }

    /// `true` when brick `id` is allocated with its surface flag up.
    /// Every other brick — unallocated, or allocated with every voxel
    /// still at the unobserved/free default `tsdf = 1.0` — holds no
    /// zero crossing, so the ray marcher may leap it. One bit test in
    /// the id-indexed `surface_bits` mirror, no hash probe.
    #[inline]
    fn has_surface(&self, id: usize) -> bool {
        self.surface_bits[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Mirrors the per-slot `surface` flags into the id-indexed bitset
    /// the free-space DDA reads. Serial and derived, so thread-count
    /// independent; sticky flags mean bits only ever turn on.
    fn refresh_surface_bits(&mut self) {
        for (slot, &up) in self.surface.iter().enumerate() {
            if up {
                let id = self.brick_ids[slot] as usize;
                self.surface_bits[id / 64] |= 1u64 << (id % 64);
            }
        }
    }

    /// Distance (along unit `dir`) a ray at `p` can safely advance
    /// while it walks surface-free bricks: unallocated bricks and
    /// allocated bricks whose voxels all sit at the `tsdf = 1.0`
    /// default hold no zero crossing, so the ray marcher can leap whole
    /// bricks instead of stepping. Returns `0.0` when `p` is outside
    /// the brick grid or already inside a surface-carrying brick.
    ///
    /// A single-level brick DDA: each axis keeps its own exit parameter,
    /// advanced by `+= dt` per crossing; ties go to x, then y, then z;
    /// at most `MAX_SKIP_BRICKS` bricks are walked, and the result
    /// backs off half a voxel. The brick id steps with the walk and is
    /// tested straight against `surface_bits`.
    pub fn free_space_skip(&self, p: Vec3, dir: Vec3) -> f32 {
        let bw = self.voxel * BRICK_SIDE as f32;
        let bps = self.bricks_per_side as i64;
        let (mut bx, mut by, mut bz) = (
            floor(p.x / bw) as i64,
            floor(p.y / bw) as i64,
            floor(p.z / bw) as i64,
        );
        if [bx, by, bz].iter().any(|&c| c < 0 || c >= bps) {
            return 0.0;
        }
        let mut id = (bz * bps + by) * bps + bx;
        if self.has_surface(id as usize) {
            return 0.0;
        }
        // per axis: brick step, id stride, first exit parameter, and
        // the parameter span of one brick
        let axis = |b: i64, o: f32, d: f32, stride: i64| {
            if d > 1e-12 {
                (1, stride, ((b + 1) as f32 * bw - o) / d, bw / d)
            } else if d < -1e-12 {
                (-1, -stride, (b as f32 * bw - o) / d, -bw / d)
            } else {
                (0, 0, f32::INFINITY, f32::INFINITY)
            }
        };
        let (sx, ix, mut tx, dtx) = axis(bx, p.x, dir.x, 1);
        let (sy, iy, mut ty, dty) = axis(by, p.y, dir.y, bps);
        let (sz, iz, mut tz, dtz) = axis(bz, p.z, dir.z, bps * bps);
        let mut skip = 0.0f32;
        for _ in 0..MAX_SKIP_BRICKS {
            // leave the brick through the nearest face: update that
            // axis' brick and id, stop at the grid edge or a surface
            // brick, else push that axis' exit parameter one brick on
            if tx <= ty && tx <= tz {
                skip = tx;
                bx += sx;
                id += ix;
                if bx < 0 || bx >= bps || self.has_surface(id as usize) {
                    break;
                }
                tx += dtx;
            } else if ty <= tz {
                skip = ty;
                by += sy;
                id += iy;
                if by < 0 || by >= bps || self.has_surface(id as usize) {
                    break;
                }
                ty += dty;
            } else {
                skip = tz;
                bz += sz;
                id += iz;
                if bz < 0 || bz >= bps || self.has_surface(id as usize) {
                    break;
                }
                tz += dtz;
            }
        }
        // back off half a voxel so sampling resumes just before the
        // region boundary rather than exactly on it
        (skip - 0.5 * self.voxel).max(0.0)
    }

    /// Fuses one depth frame: marks bricks touched by the truncation
    /// band, allocates the new ones in ascending id order, then runs
    /// the shared fusion kernel over every allocated brick. The result
    /// is bit-identical for every thread count (see the module docs),
    /// and every voxel value matches what the dense backend computes
    /// for the same observation history. Records an `integrate` kernel
    /// span plus per-band spans into `tracer`; `threads = 0` means all
    /// available. A pose with a non-finite component fuses nothing,
    /// allocates no brick and returns [`Workload::ZERO`].
    ///
    /// # Panics
    ///
    /// Panics when the camera resolution does not match the depth image.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate(
        &mut self,
        depth: &DepthImage,
        camera: &PinholeCamera,
        pose: &Se3,
        mu: f32,
        max_weight: f32,
        threads: usize,
        tracer: &Tracer,
    ) -> Workload {
        let _kernel = tracer.kernel_span("integrate");
        assert_eq!(
            (camera.width, camera.height),
            (depth.width(), depth.height()),
            "camera/image resolution mismatch"
        );
        if !pose.is_finite() {
            return Workload::ZERO;
        }
        let threads = slam_exec::effective_threads(threads);
        let (mark, mark_ops) = self.mark_bands(depth, camera, pose, mu, threads, tracer);
        // allocation: serial, ascending brick id — deterministic
        for (word_index, word) in mark.iter().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let id = (word_index * 64 + bit) as u32;
                if self.slot_of(id).is_none() {
                    self.insert_brick(id);
                }
            }
        }
        let (ops, updated) =
            self.integrate_bricks(depth, camera, pose, mu, max_weight, threads, tracer);
        self.refresh_surface_bits();
        let touched = (self.brick_ids.len() * BRICK_VOXELS) as f64;
        Workload::new(mark_ops + ops, touched * 2.0 + updated * 16.0)
    }

    /// The mark pass: every image band computes a brick bitset covering
    /// the truncation band of its pixels; the bitsets OR-merge into the
    /// frame's candidate set.
    ///
    /// Rows are scanned in fixed [`MARK_SEGMENT`]-pixel segments: one
    /// z-march along the segment's central ray covers the whole segment.
    /// At depth `z` the segment's pixel rays fan out from the central
    /// ray purely along the world-space direction of the camera x-axis,
    /// so the marking box grows by the beam half-width along that axis
    /// only, plus the usual isotropic per-pixel margin (half a pixel of
    /// beam, the z-step slack through the steepest slope, and a voxel of
    /// rounding headroom). The result is a conservative superset of the
    /// per-pixel truncation band — the dense↔sparse equivalence suite
    /// pins this — at ~an order of magnitude fewer mark-box calls.
    fn mark_bands(
        &self,
        depth: &DepthImage,
        camera: &PinholeCamera,
        pose: &Se3,
        mu: f32,
        threads: usize,
        tracer: &Tracer,
    ) -> (Vec<u64>, f64) {
        let bps = self.bricks_per_side;
        let words = (bps * bps * bps).div_ceil(64);
        let brick_world = self.voxel * BRICK_SIDE as f32;
        let dz = 0.5 * brick_world;
        let voxel = self.voxel;
        let inv_f = (1.0 / camera.fx).max(1.0 / camera.fy);
        // world direction of the image x-axis: the segment beam fans
        // out along this axis (per-axis magnitudes for an AABB bound)
        let ex = pose.rotation() * Vec3::new(1.0, 0.0, 0.0);
        let ex_abs = Vec3::new(ex.x.abs(), ex.y.abs(), ex.z.abs());
        let src = depth.as_slice();
        slam_exec::run_bands(tracer, "integrate_mark", threads, camera.height, |rows| {
            let mut bits = vec![0u64; words];
            let mut ops = 0.0f64;
            for y in rows {
                let row = &src[y * camera.width..(y + 1) * camera.width];
                for (seg, px) in row.chunks(MARK_SEGMENT).enumerate() {
                    // depth range over the segment's valid pixels
                    let mut d_min = f32::INFINITY;
                    let mut d_max = 0.0f32;
                    for &d in px {
                        if d.is_finite() && d > 0.0 {
                            d_min = d_min.min(d);
                            d_max = d_max.max(d);
                        }
                    }
                    ops += px.len() as f64 * 2.0;
                    if d_max <= 0.0 {
                        continue;
                    }
                    let xa = seg * MARK_SEGMENT;
                    let xb = xa + px.len() - 1;
                    let xc = 0.5 * (xa + xb) as f32;
                    let half_px = 0.5 * (xb - xa) as f32;
                    // steepest ray slope over the segment's footprint
                    let slope_x = ((xa as f32 - camera.cx).abs())
                        .max((xb as f32 - camera.cx).abs())
                        / camera.fx;
                    let slope_y = ((y as f32 - camera.cy).abs() + 0.5) / camera.fy;
                    let slope = (slope_x + 0.5 / camera.fx).max(slope_y);
                    let ray_x = (xc - camera.cx) / camera.fx;
                    let ray_y = (y as f32 - camera.cy) / camera.fy;
                    let z_min = (d_min - mu).max(0.0012);
                    let z_max = d_max + mu;
                    let mut z = z_min;
                    while z < z_max + dz {
                        let pw = pose.transform_point(Vec3::new(ray_x * z, ray_y * z, z));
                        // isotropic margin: half a pixel of beam,
                        // the z-step slack projected through the
                        // steepest slope, a voxel of rounding
                        // headroom — plus the segment's beam
                        // half-width along the x-axis direction
                        let m = 0.5 * (z + dz) * inv_f + (slope + 1.0) * 0.6 * dz + voxel;
                        let beam = half_px * (z + dz) / camera.fx;
                        let hw = Vec3::new(
                            m + beam * ex_abs.x,
                            m + beam * ex_abs.y,
                            m + beam * ex_abs.z,
                        );
                        ops += 12.0;
                        self.mark_box(&mut bits, pw, hw, brick_world);
                        z += dz;
                    }
                }
            }
            (bits, ops)
        })
        .into_iter()
        .fold((vec![0u64; words], 0.0f64), |(mut acc, ops), (bits, o)| {
            for (a, b) in acc.iter_mut().zip(bits) {
                *a |= b;
            }
            (acc, ops + o)
        })
    }

    /// Sets the bits of every brick whose cell intersects the axis-
    /// aligned box `centre ± half_width` (per-axis half widths).
    #[inline]
    fn mark_box(&self, bits: &mut [u64], centre: Vec3, half_width: Vec3, brick_world: f32) {
        let bps = self.bricks_per_side as i64;
        let lo = |v: f32, h: f32| (((v - h) / brick_world).floor() as i64).max(0);
        let hi = |v: f32, h: f32| (((v + h) / brick_world).floor() as i64).min(bps - 1);
        let (x0, x1) = (lo(centre.x, half_width.x), hi(centre.x, half_width.x));
        let (y0, y1) = (lo(centre.y, half_width.y), hi(centre.y, half_width.y));
        let (z0, z1) = (lo(centre.z, half_width.z), hi(centre.z, half_width.z));
        for bz in z0..=z1 {
            for by in y0..=y1 {
                for bx in x0..=x1 {
                    let id = self.brick_id(bx as usize, by as usize, bz as usize) as usize;
                    bits[id / 64] |= 1u64 << (id % 64);
                }
            }
        }
    }

    /// The fusion pass over every allocated brick, banded over arena
    /// slots with `split_at_mut` — each voxel written exactly once.
    #[allow(clippy::too_many_arguments)]
    fn integrate_bricks(
        &mut self,
        depth: &DepthImage,
        camera: &PinholeCamera,
        pose: &Se3,
        mu: f32,
        max_weight: f32,
        threads: usize,
        tracer: &Tracer,
    ) -> (f64, f64) {
        let world_to_cam = pose.inverse();
        let res = self.resolution;
        let bps = self.bricks_per_side;
        let voxel = self.voxel;
        let dx_cam = world_to_cam.rotation() * Vec3::new(voxel, 0.0, 0.0);
        let slots = self.brick_ids.len();
        let ids: &[u32] = &self.brick_ids;
        let mut tasks: Vec<slam_exec::Task<'_, (f64, f64)>> = Vec::new();
        {
            let mut t_rest: &mut [f32] = &mut self.tsdf;
            let mut w_rest: &mut [f32] = &mut self.weight;
            let mut s_rest: &mut [bool] = &mut self.surface;
            for band in slam_exec::band_ranges(slots) {
                let (t_chunk, t_next) = t_rest.split_at_mut(band.len() * BRICK_VOXELS);
                let (w_chunk, w_next) = w_rest.split_at_mut(band.len() * BRICK_VOXELS);
                let (s_chunk, s_next) = s_rest.split_at_mut(band.len());
                t_rest = t_next;
                w_rest = w_next;
                s_rest = s_next;
                let s0 = band.start;
                tasks.push(Box::new(move || {
                    let mut ops: f64 = 0.0;
                    let mut updated: f64 = 0.0;
                    let mut scratch = SpanScratch::new();
                    for (si, (t_brick, w_brick)) in t_chunk
                        .chunks_mut(BRICK_VOXELS)
                        .zip(w_chunk.chunks_mut(BRICK_VOXELS))
                        .enumerate()
                    {
                        let id = ids[s0 + si] as usize;
                        let bx = id % bps;
                        let by = (id / bps) % bps;
                        let bz = id / (bps * bps);
                        let x0 = bx * BRICK_SIDE;
                        let count = BRICK_SIDE.min(res - x0);
                        for lz in 0..BRICK_SIDE {
                            let gz = bz * BRICK_SIDE + lz;
                            if gz >= res {
                                break;
                            }
                            for ly in 0..BRICK_SIDE {
                                let gy = by * BRICK_SIDE + ly;
                                if gy >= res {
                                    break;
                                }
                                // identical row geometry to the dense
                                // backend: base at global x = 0
                                let row_world = Vec3::new(
                                    0.5 * voxel,
                                    (gy as f32 + 0.5) * voxel,
                                    (gz as f32 + 0.5) * voxel,
                                );
                                let row_base = world_to_cam.transform_point(row_world);
                                let at = (lz * BRICK_SIDE + ly) * BRICK_SIDE;
                                let (o, u) = integrate_span(
                                    depth,
                                    camera,
                                    row_base,
                                    dx_cam,
                                    x0,
                                    &mut t_brick[at..at + count],
                                    &mut w_brick[at..at + count],
                                    mu,
                                    max_weight,
                                    &mut scratch,
                                );
                                ops += o;
                                updated += u;
                            }
                        }
                        // sticky surface flag: a pure function of the
                        // brick's own voxels, so thread-count invariant
                        if !s_chunk[si] {
                            s_chunk[si] = t_brick.iter().any(|&t| t < 1.0);
                        }
                    }
                    (ops, updated)
                }));
            }
        }
        slam_exec::run_tasks(tracer, "integrate", threads, tasks)
            .into_iter()
            .fold((0.0, 0.0), |(a, b), (o, u)| (a + o, b + u))
    }

    /// Appends the sparse v3 payload (`brick_side, brick_count`, then
    /// bricks sorted by id) to `out`. Sorting makes the dump canonical:
    /// two volumes with identical voxel content serialise identically
    /// regardless of their allocation histories.
    pub(crate) fn payload_to_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(BRICK_SIDE as u32).to_le_bytes());
        out.extend_from_slice(&(self.brick_ids.len() as u32).to_le_bytes());
        let mut order: Vec<usize> = (0..self.brick_ids.len()).collect();
        order.sort_by_key(|&slot| self.brick_ids[slot]);
        out.reserve(order.len() * (4 + BRICK_VOXELS * 8));
        for slot in order {
            out.extend_from_slice(&self.brick_ids[slot].to_le_bytes());
            let base = slot * BRICK_VOXELS;
            for v in &self.tsdf[base..base + BRICK_VOXELS] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for w in &self.weight[base..base + BRICK_VOXELS] {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }

    /// Parses the sparse v3 payload written by
    /// [`SparseTsdfVolume::payload_to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns the first problem found: a structural one (header, length,
    /// brick id), or the first voxel that no fusion can produce
    /// ([`VoxelFault`]).
    pub(crate) fn from_payload(
        resolution: usize,
        size: f32,
        payload: &[u8],
    ) -> Result<SparseTsdfVolume, DumpError> {
        if payload.len() < 8 {
            return Err("sparse payload header truncated".into());
        }
        let word = |at: usize| {
            u32::from_le_bytes([
                payload[at],
                payload[at + 1],
                payload[at + 2],
                payload[at + 3],
            ])
        };
        crate::volume::expect_brick_side(word(0))?;
        let count = word(4) as usize;
        let record = 4 + BRICK_VOXELS * 8;
        let expected = 8 + count * record;
        if payload.len() != expected {
            return Err(format!(
                "expected {expected} payload bytes for {count} bricks, found {}",
                payload.len()
            )
            .into());
        }
        let mut vol = SparseTsdfVolume::new(resolution, size);
        let bps = vol.bricks_per_side;
        let max_id = (bps * bps * bps) as u32;
        let mut prev: Option<u32> = None;
        for b in 0..count {
            let at = 8 + b * record;
            let id = word(at);
            if id >= max_id {
                return Err(format!("brick id {id} out of range (max {max_id})").into());
            }
            if prev.is_some_and(|p| p >= id) {
                return Err(format!("brick ids must be strictly ascending (saw {id})").into());
            }
            prev = Some(id);
            vol.insert_brick(id);
            let slot = vol.brick_ids.len() - 1;
            let base = slot * BRICK_VOXELS;
            for i in 0..BRICK_VOXELS {
                let o = at + 4 + i * 4;
                let t = f32::from_le_bytes([
                    payload[o],
                    payload[o + 1],
                    payload[o + 2],
                    payload[o + 3],
                ]);
                let o = o + BRICK_VOXELS * 4;
                let w = f32::from_le_bytes([
                    payload[o],
                    payload[o + 1],
                    payload[o + 2],
                    payload[o + 3],
                ]);
                if let Some(fault) = VoxelFault::of(t, w) {
                    let id = id as usize;
                    let at = [
                        id % bps * BRICK_SIDE + i % BRICK_SIDE,
                        id / bps % bps * BRICK_SIDE + i / BRICK_SIDE % BRICK_SIDE,
                        id / (bps * bps) * BRICK_SIDE + i / (BRICK_SIDE * BRICK_SIDE),
                    ];
                    return Err(DumpError::Voxel(BadVoxel {
                        at,
                        tsdf: t,
                        weight: w,
                        fault,
                    }));
                }
                vol.tsdf[base + i] = t;
                vol.weight[base + i] = w;
            }
            vol.surface[slot] = vol.tsdf[base..base + BRICK_VOXELS].iter().any(|&t| t < 1.0);
        }
        vol.refresh_surface_bits();
        Ok(vol)
    }
}

impl Volume for SparseTsdfVolume {
    fn resolution(&self) -> usize {
        SparseTsdfVolume::resolution(self)
    }

    fn size(&self) -> f32 {
        SparseTsdfVolume::size(self)
    }

    fn voxel_size(&self) -> f32 {
        SparseTsdfVolume::voxel_size(self)
    }

    fn memory_bytes(&self) -> usize {
        SparseTsdfVolume::memory_bytes(self)
    }

    fn occupied_voxels(&self) -> usize {
        SparseTsdfVolume::occupied_voxels(self)
    }

    fn voxel_tsdf(&self, x: usize, y: usize, z: usize) -> f32 {
        SparseTsdfVolume::voxel_tsdf(self, x, y, z)
    }

    fn voxel_weight(&self, x: usize, y: usize, z: usize) -> f32 {
        SparseTsdfVolume::voxel_weight(self, x, y, z)
    }

    fn voxel_center(&self, x: usize, y: usize, z: usize) -> Vec3 {
        SparseTsdfVolume::voxel_center(self, x, y, z)
    }

    fn sample(&self, p: Vec3) -> Option<f32> {
        SparseTsdfVolume::sample(self, p)
    }

    fn gradient(&self, p: Vec3) -> Option<Vec3> {
        SparseTsdfVolume::gradient(self, p)
    }

    fn free_space_skip(&self, p: Vec3, dir: Vec3) -> f32 {
        SparseTsdfVolume::free_space_skip(self, p, dir)
    }

    fn integrate(
        &mut self,
        depth: &DepthImage,
        camera: &PinholeCamera,
        pose: &Se3,
        mu: f32,
        max_weight: f32,
        threads: usize,
        tracer: &Tracer,
    ) -> Workload {
        SparseTsdfVolume::integrate(self, depth, camera, pose, mu, max_weight, threads, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image2D;
    use crate::tsdf::tests::SplitMix64;
    use crate::tsdf::TsdfVolume;

    /// A structured depth image whose values vary across the frame.
    fn structured_depth(cam: &PinholeCamera, base: f32) -> DepthImage {
        let mut depth = Image2D::new(cam.width, cam.height, base);
        for y in 0..cam.height {
            for x in 0..cam.width {
                depth.set(x, y, base + (x as f32 * 0.002) + (y as f32 * 0.001));
            }
        }
        depth
    }

    #[test]
    fn new_volume_is_empty_and_cheap() {
        let vol = SparseTsdfVolume::new(256, 4.0);
        assert_eq!(vol.allocated_bricks(), 0);
        assert_eq!(vol.occupied_voxels(), 0);
        assert_eq!(vol.voxel_tsdf(0, 0, 0), 1.0);
        assert_eq!(vol.voxel_weight(128, 128, 128), 0.0);
        // dense 256³ costs 128 MiB; empty sparse must stay tiny
        assert!(vol.memory_bytes() < 1 << 16, "{}", vol.memory_bytes());
    }

    #[test]
    fn gradient_on_tiny_volumes_is_none() {
        for res in 1..4 {
            let vol = SparseTsdfVolume::new(res, 1.0);
            for p in [Vec3::splat(0.0), Vec3::splat(0.5), Vec3::splat(0.99)] {
                assert_eq!(vol.gradient(p), None, "resolution {res} at {p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resolution_panics() {
        let _ = SparseTsdfVolume::new(0, 1.0);
    }

    #[test]
    fn integration_allocates_only_near_surface() {
        let cam = PinholeCamera::tiny();
        let mut vol = SparseTsdfVolume::new(64, 2.0);
        let depth = Image2D::new(cam.width, cam.height, 1.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        vol.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        assert!(vol.allocated_bricks() > 0);
        let total_bricks = 8 * 8 * 8;
        assert!(
            vol.allocated_bricks() < total_bricks / 2,
            "allocated {} of {total_bricks} bricks — not sparse",
            vol.allocated_bricks()
        );
        assert!(vol.occupied_voxels() > 500);
    }

    /// Two stepped boxes in front of a back wall at 2.6 m.
    fn two_box_depth(cam: &PinholeCamera) -> DepthImage {
        let (w, h) = (cam.width, cam.height);
        let mut depth = Image2D::new(w, h, 2.6f32);
        for y in h / 6..7 * h / 12 {
            for x in w / 5..11 * w / 16 {
                depth.set(x, y, 2.0 + 0.001 * (x + y) as f32 * 240.0 / h as f32);
            }
        }
        for y in 7 * h / 12..5 * h / 6 {
            for x in w / 2..7 * w / 8 {
                depth.set(x, y, 2.2);
            }
        }
        depth
    }

    /// Fuses three identical frames into a dense and a sparse volume and
    /// checks every voxel. Static scene, fixed pose: every voxel's
    /// observation history is identical across backends, so every
    /// in-band voxel must match exactly and sparse weights must equal
    /// dense weights wherever the brick was allocated from frame one.
    fn assert_in_band_equivalence(
        cam: &PinholeCamera,
        depth: &DepthImage,
        pose: &Se3,
        res: usize,
        size: f32,
        mu: f32,
    ) {
        let mut dense = TsdfVolume::new(res, size);
        let mut sparse = SparseTsdfVolume::new(res, size);
        for _ in 0..3 {
            dense.integrate(depth, cam, pose, mu, 100.0, 0, Tracer::off());
            sparse.integrate(depth, cam, pose, mu, 100.0, 0, Tracer::off());
        }
        let mut in_band = 0usize;
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    let dt = dense.voxel_tsdf(x, y, z);
                    let dw = dense.voxel_weight(x, y, z);
                    let st = sparse.voxel_tsdf(x, y, z);
                    let sw = sparse.voxel_weight(x, y, z);
                    if dt < 1.0 {
                        // an in-band observation happened: the sparse
                        // backend must have caught it, with identical
                        // history and bit-identical values
                        assert_eq!(dt.to_bits(), st.to_bits(), "tsdf differs at ({x},{y},{z})");
                        assert_eq!(
                            dw.to_bits(),
                            sw.to_bits(),
                            "weight differs at ({x},{y},{z})"
                        );
                        in_band += 1;
                    }
                    if sw > 0.0 {
                        assert!(dw >= sw, "sparse over-counted at ({x},{y},{z})");
                        assert_eq!(dt.to_bits(), st.to_bits(), "tsdf differs at ({x},{y},{z})");
                    }
                }
            }
        }
        assert!(in_band > 1000, "only {in_band} in-band voxels — weak test");
    }

    #[test]
    fn matches_dense_backend_bit_for_bit_in_band() {
        // tiny sensor over a tilted plane; res 33 does not divide evenly
        // into bricks or bands
        let tiny = PinholeCamera::tiny();
        assert_in_band_equivalence(
            &tiny,
            &structured_depth(&tiny, 1.0),
            &Se3::from_translation(Vec3::new(1.0, 1.0, 0.0)),
            33,
            2.0,
            0.2,
        );
        // 320x240 sensor over stepped boxes at res 96 in a 4 m volume;
        // too large for Miri, which runs the tiny case above
        if !cfg!(miri) {
            let qvga = PinholeCamera::new(320, 240, 262.5, 262.5, 159.5, 119.5);
            assert_in_band_equivalence(
                &qvga,
                &two_box_depth(&qvga),
                &Se3::from_translation(Vec3::new(2.0, 2.0, 0.2)),
                96,
                4.0,
                0.1,
            );
        }
    }

    #[test]
    fn matches_dense_under_camera_translation() {
        // camera translating parallel to the wall: band membership is
        // stable, so equivalence must survive a multi-frame trajectory
        let cam = PinholeCamera::tiny();
        let depth = Image2D::new(cam.width, cam.height, 1.0);
        let res = 48;
        let mut dense = TsdfVolume::new(res, 2.0);
        let mut sparse = SparseTsdfVolume::new(res, 2.0);
        for i in 0..4 {
            let pose = Se3::from_translation(Vec3::new(0.9 + 0.05 * i as f32, 1.0, 0.0));
            dense.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
            sparse.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        }
        let mut checked = 0usize;
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    let dt = dense.voxel_tsdf(x, y, z);
                    if dt < 1.0 {
                        assert_eq!(
                            dt.to_bits(),
                            sparse.voxel_tsdf(x, y, z).to_bits(),
                            "tsdf differs at ({x},{y},{z})"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} in-band voxels");
    }

    #[test]
    fn sample_and_gradient_match_dense_near_surface() {
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam, 1.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let mut dense = TsdfVolume::new(64, 2.0);
        let mut sparse = SparseTsdfVolume::new(64, 2.0);
        for _ in 0..2 {
            dense.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
            sparse.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        }
        let mut matched = 0usize;
        for i in 0..200 {
            // probe points scattered around the wall at z ≈ 1
            let f = i as f32;
            let p = Vec3::new(
                0.6 + (f * 0.37).fract() * 0.8,
                0.6 + (f * 0.71).fract() * 0.8,
                0.95 + (f * 0.53).fract() * 0.1,
            );
            if let Some(sv) = sparse.sample(p) {
                let dv = dense
                    .sample(p)
                    .expect("dense must observe what sparse does");
                assert_eq!(sv.to_bits(), dv.to_bits(), "sample differs at {p}");
                if let Some(sg) = sparse.gradient(p) {
                    let dg = dense.gradient(p).expect("gradient parity");
                    assert_eq!(sg.x.to_bits(), dg.x.to_bits());
                    assert_eq!(sg.y.to_bits(), dg.y.to_bits());
                    assert_eq!(sg.z.to_bits(), dg.z.to_bits());
                }
                matched += 1;
            }
        }
        assert!(matched > 50, "only {matched} probes hit observed space");
    }

    #[test]
    fn integration_is_thread_count_invariant() {
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam, 0.9);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        // 33³: divides into neither bricks nor bands evenly
        let run = |threads: usize| {
            let mut vol = SparseTsdfVolume::new(33, 2.0);
            let w1 = vol.integrate(&depth, &cam, &pose, 0.2, 100.0, threads, Tracer::off());
            let w2 = vol.integrate(&depth, &cam, &pose, 0.2, 100.0, threads, Tracer::off());
            let mut out = Vec::new();
            vol.payload_to_bytes(&mut out);
            (out, w1.ops.to_bits(), w2.ops.to_bits())
        };
        let reference = run(1);
        assert!(!reference.0.is_empty());
        for threads in [2usize, 4, 7] {
            assert_eq!(run(threads), reference, "{threads} threads diverged");
        }
    }

    #[test]
    fn non_finite_depth_is_rejected() {
        let cam = PinholeCamera::tiny();
        let mut depth = Image2D::new(cam.width, cam.height, 1.0f32);
        for y in 0..cam.height {
            for x in 0..cam.width {
                match (x + y) % 4 {
                    0 => depth.set(x, y, f32::NAN),
                    1 => depth.set(x, y, f32::INFINITY),
                    _ => {}
                }
            }
        }
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let mut vol = SparseTsdfVolume::new(32, 2.0);
        vol.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        assert!(
            vol.tsdf.iter().all(|v| v.is_finite()),
            "NaN escaped into tsdf"
        );
        assert!(
            vol.weight.iter().all(|w| w.is_finite()),
            "NaN escaped into weight"
        );
        assert!(vol.occupied_voxels() > 0, "finite pixels must still fuse");
    }

    #[test]
    fn free_space_skip_jumps_unallocated_bricks() {
        let cam = PinholeCamera::tiny();
        let depth = Image2D::new(cam.width, cam.height, 1.5);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let mut vol = SparseTsdfVolume::new(64, 2.0);
        vol.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        // from the camera, looking down +z towards the wall at z = 1.5:
        // the first metre is unallocated and must be skippable
        let skip = vol.free_space_skip(Vec3::new(1.0, 1.0, 0.3), Vec3::new(0.0, 0.0, 1.0));
        assert!(
            skip > vol.voxel_size() * BRICK_SIDE as f32 * 0.5,
            "skip {skip}"
        );
        // but the skip must never jump past the first allocated brick:
        // walk the skip and verify the landing point is still in front
        // of the band (sample is either None or positive)
        let p = Vec3::new(1.0, 1.0, 0.3 + skip);
        if let Some(v) = vol.sample(p) {
            assert!(v > 0.0, "skipped into the surface: sample {v}");
        }
        // inside an allocated brick there is no skip
        assert_eq!(
            vol.free_space_skip(Vec3::new(1.0, 1.0, 1.45), Vec3::new(0.0, 0.0, 1.0)),
            0.0
        );
        // outside the grid there is no skip
        assert_eq!(
            vol.free_space_skip(Vec3::new(-0.5, 1.0, 0.5), Vec3::new(0.0, 0.0, 1.0)),
            0.0
        );
    }

    #[test]
    fn high_resolution_volume_is_feasible() {
        // the dense backend at 512³ costs 1 GiB of voxel storage; the
        // sparse backend fuses a frame at 512³ in test time and stays
        // within a small multiple of the observed surface
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam, 1.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let mut vol = SparseTsdfVolume::new(512, 2.0);
        vol.integrate(&depth, &cam, &pose, 0.1, 100.0, 0, Tracer::off());
        assert!(vol.allocated_bricks() > 0);
        assert!(vol.occupied_voxels() > 10_000);
        let dense_bytes = 512usize * 512 * 512 * 8;
        assert!(
            vol.memory_bytes() < dense_bytes / 4,
            "sparse 512³ used {} bytes",
            vol.memory_bytes()
        );
    }

    #[test]
    fn table_survives_growth() {
        let mut vol = SparseTsdfVolume::new(512, 4.0);
        // force several growth cycles with a deterministic id pattern
        let bps = vol.bricks_per_side;
        let max = (bps * bps * bps) as u32;
        let ids: Vec<u32> = (0..2000u32).map(|i| (i * 37) % max).collect();
        let mut inserted: Vec<u32> = Vec::new();
        for &id in &ids {
            if vol.slot_of(id).is_none() {
                vol.insert_brick(id);
                inserted.push(id);
            }
        }
        assert!(vol.table.len() >= inserted.len() * 2);
        for &id in &inserted {
            assert!(vol.slot_of(id).is_some(), "lost brick {id} after growth");
        }
        assert_eq!(vol.allocated_bricks(), inserted.len());
    }

    /// The brick walk as first written: runtime-indexed per-axis arrays,
    /// `f32::floor` and a brick id recomputed per brick. The flat walk
    /// must match it bit for bit.
    fn reference_free_space_skip(vol: &SparseTsdfVolume, p: Vec3, dir: Vec3) -> f32 {
        let skippable = |b: [i64; 3]| {
            let id = vol.brick_id(b[0] as usize, b[1] as usize, b[2] as usize) as usize;
            vol.surface_bits[id / 64] & (1u64 << (id % 64)) == 0
        };
        let bw = vol.voxel * BRICK_SIDE as f32;
        let bps = vol.bricks_per_side as i64;
        let mut b = [
            (p.x / bw).floor() as i64,
            (p.y / bw).floor() as i64,
            (p.z / bw).floor() as i64,
        ];
        if b.iter().any(|&c| c < 0 || c >= bps) || !skippable(b) {
            return 0.0;
        }
        let dirs = [dir.x, dir.y, dir.z];
        let origin = [p.x, p.y, p.z];
        let mut t_next = [f32::INFINITY; 3];
        let mut dt = [f32::INFINITY; 3];
        let mut step = [0i64; 3];
        for axis in 0..3 {
            if dirs[axis] > 1e-12 {
                step[axis] = 1;
                t_next[axis] = ((b[axis] + 1) as f32 * bw - origin[axis]) / dirs[axis];
                dt[axis] = bw / dirs[axis];
            } else if dirs[axis] < -1e-12 {
                step[axis] = -1;
                t_next[axis] = (b[axis] as f32 * bw - origin[axis]) / dirs[axis];
                dt[axis] = -bw / dirs[axis];
            }
        }
        let mut skip = 0.0f32;
        for _ in 0..MAX_SKIP_BRICKS {
            let axis = if t_next[0] <= t_next[1] && t_next[0] <= t_next[2] {
                0
            } else if t_next[1] <= t_next[2] {
                1
            } else {
                2
            };
            skip = t_next[axis];
            b[axis] += step[axis];
            if b[axis] < 0 || b[axis] >= bps || !skippable(b) {
                break;
            }
            t_next[axis] += dt[axis];
        }
        (skip - 0.5 * vol.voxel).max(0.0)
    }

    /// The cell read as first written: `f32::floor`, and a hash probe
    /// for every cell, surface-free brick or not.
    fn reference_cell(vol: &SparseTsdfVolume, p: Vec3) -> Option<([f32; 8], f32, f32, f32)> {
        let g = p * (1.0 / vol.voxel) - Vec3::splat(0.5);
        let (x0, y0, z0) = (g.x.floor(), g.y.floor(), g.z.floor());
        let max = (vol.resolution - 1) as f32;
        if x0 < 0.0 || y0 < 0.0 || z0 < 0.0 || x0 >= max || y0 >= max || z0 >= max {
            return None;
        }
        let (xi, yi, zi) = (x0 as usize, y0 as usize, z0 as usize);
        let mut c = [0.0f32; 8];
        for (i, corner) in c.iter_mut().enumerate() {
            *corner = vol
                .voxel_value(xi + (i & 1), yi + ((i >> 1) & 1), zi + ((i >> 2) & 1))
                .0;
        }
        if c.iter().all(|&t| t >= 1.0) {
            return None;
        }
        Some((c, g.x - x0, g.y - y0, g.z - z0))
    }

    /// The gradient from 64 single-voxel reads and `f32::floor`.
    fn reference_gradient(vol: &SparseTsdfVolume, p: Vec3) -> Option<Vec3> {
        if vol.resolution < 4 {
            return None;
        }
        let g = p * (1.0 / vol.voxel) - Vec3::splat(0.5);
        let (x0, y0, z0) = (g.x.floor(), g.y.floor(), g.z.floor());
        let max = (vol.resolution - 3) as f32;
        if x0 < 1.0 || y0 < 1.0 || z0 < 1.0 || x0 > max || y0 > max || z0 > max {
            return None;
        }
        let (xi, yi, zi) = (x0 as usize, y0 as usize, z0 as usize);
        let mut c = [1.0f32; 64];
        for (i, v) in c.iter_mut().enumerate() {
            *v = vol
                .voxel_value(xi - 1 + i % 4, yi - 1 + i / 4 % 4, zi - 1 + i / 16)
                .0;
        }
        if c.iter().all(|&t| t >= 1.0) {
            return None;
        }
        let (dx, dy, dz) = slam_math::interp::central_gradient(&c, g.x - x0, g.y - y0, g.z - z0);
        Some(Vec3::new(dx, dy, dz))
    }

    /// A 256³ sparse volume in the default 4 m cube, fused from three
    /// 160×120 `living_room` frames at their ground-truth poses. The
    /// room's walls and floor lie on the cube's faces.
    fn living_room_volume() -> SparseTsdfVolume {
        let mut config = slam_scene::DatasetConfig::living_room();
        config.camera = config.camera.scaled_down(4);
        config.frame_count = 3;
        let dataset = slam_scene::SyntheticDataset::generate(&config);
        let cam = *dataset.camera();
        let mut vol = SparseTsdfVolume::new(256, 4.0);
        for frame in dataset.frames() {
            let (depth, _) =
                crate::preprocess::mm2meters(&frame.depth_mm, cam.width, cam.height, 1);
            vol.integrate(
                &depth,
                &cam,
                &frame.ground_truth,
                0.1,
                100.0,
                0,
                Tracer::off(),
            );
        }
        vol
    }

    /// A random unit direction; one in four has its components drawn
    /// from the cases the walk's float rules decide: axis-parallel,
    /// `|d| <= 1e-12`, signed zeros and equal magnitudes (ties).
    fn random_dir(rng: &mut SplitMix64) -> Vec3 {
        let special = [
            0.0,
            -0.0,
            1e-12,
            -1e-12,
            5e-13,
            1.0,
            -1.0,
            0.57735026,
            -0.57735026,
        ];
        let pick = |rng: &mut SplitMix64| special[(rng.next_u64() % special.len() as u64) as usize];
        if rng.next_u64().is_multiple_of(4) {
            return Vec3::new(pick(rng), pick(rng), pick(rng));
        }
        loop {
            let v = Vec3::new(
                rng.f32_in(-1.0, 1.0),
                rng.f32_in(-1.0, 1.0),
                rng.f32_in(-1.0, 1.0),
            );
            if let Some(u) = v.normalized() {
                return u;
            }
        }
    }

    /// A random point of `[-0.1, 1.1] × size` per axis; one coordinate
    /// in four snapped to a brick face, and one point in eight snapped
    /// to a brick corner (where exit parameters tie).
    fn random_point(rng: &mut SplitMix64, vol: &SparseTsdfVolume) -> Vec3 {
        let bw = vol.voxel * BRICK_SIDE as f32;
        let bps = vol.bricks_per_side as u64;
        let coord = |rng: &mut SplitMix64, snap: bool| {
            if snap {
                (rng.next_u64() % (bps + 1)) as f32 * bw
            } else {
                rng.f32_in(-0.1 * vol.size, 1.1 * vol.size)
            }
        };
        let corner = rng.next_u64().is_multiple_of(8);
        let snaps = [0, 1, 2].map(|_| corner || rng.next_u64().is_multiple_of(4));
        Vec3::new(
            coord(rng, snaps[0]),
            coord(rng, snaps[1]),
            coord(rng, snaps[2]),
        )
    }

    /// Compares the flat walk, the cell shortcut and the inline-floor
    /// gradient against their references at `n` random probes; returns
    /// (informative samples, leaping walks, walks of 64 bricks).
    fn assert_matches_references(vol: &SparseTsdfVolume, seed: u64, n: usize) -> [usize; 3] {
        let mut rng = SplitMix64(seed);
        let mut seen = [0usize; 3];
        let bw = vol.voxel * BRICK_SIDE as f32;
        for case in 0..n {
            let p = random_point(&mut rng, vol);
            let dir = random_dir(&mut rng);
            let (got, want) = (
                vol.free_space_skip(p, dir),
                reference_free_space_skip(vol, p, dir),
            );
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case}: skip at {p} along {dir}"
            );
            seen[1] += usize::from(got > 0.0);
            seen[2] += usize::from(got >= MAX_SKIP_BRICKS as f32 * bw * 0.99 - bw);
            let bits = |v: Option<f32>| v.map(f32::to_bits);
            let want = reference_cell(vol, p)
                .map(|(c, tx, ty, tz)| slam_math::interp::trilerp(c, tx, ty, tz));
            assert_eq!(
                bits(vol.sample(p)),
                bits(want),
                "case {case}: sample at {p}"
            );
            seen[0] += usize::from(want.is_some());
            let vbits = |g: Option<Vec3>| g.map(|g| [g.x.to_bits(), g.y.to_bits(), g.z.to_bits()]);
            assert_eq!(
                vbits(vol.gradient(p)),
                vbits(reference_gradient(vol, p)),
                "case {case}: gradient at {p}"
            );
        }
        seen
    }

    #[test]
    fn brick_walk_cell_and_gradient_match_their_references() {
        let fused = living_room_volume();
        let mut dump = Vec::new();
        fused.payload_to_bytes(&mut dump);
        let decoded = SparseTsdfVolume::from_payload(256, 4.0, &dump).expect("dump decodes");
        // an empty 512³ grid: 64 bricks a side, so diagonal walks run
        // into the 64-brick cap
        let empty = SparseTsdfVolume::new(512, 4.0);
        let n = if cfg!(miri) { 50 } else { 40_000 };
        for (what, vol, seed) in [
            ("fused", &fused, 0x5eed_0001),
            ("decoded", &decoded, 0x5eed_0002),
            ("empty", &empty, 0x5eed_0003),
        ] {
            let [informative, leaps, capped] = assert_matches_references(vol, seed, n);
            if cfg!(miri) {
                continue;
            }
            assert!(leaps > n / 10, "{what}: only {leaps} leaping walks");
            if what == "empty" {
                assert_eq!(informative, 0, "{what}");
                assert!(capped > 0, "{what}: no walk reached the cap");
            } else {
                assert!(
                    informative > n / 100,
                    "{what}: only {informative} informative samples"
                );
            }
        }
        // the NaN and infinite points the bounds tests let through
        let dirs = [Vec3::new(0.0, 0.0, 1.0), Vec3::new(-0.6, 0.0, 0.8)];
        for p in [
            Vec3::splat(f32::NAN),
            Vec3::new(1.0, f32::INFINITY, 2.0),
            Vec3::new(f32::NAN, 2.0, 2.0),
        ] {
            for dir in dirs {
                let (got, want) = (
                    fused.free_space_skip(p, dir),
                    reference_free_space_skip(&fused, p, dir),
                );
                assert_eq!(got.to_bits(), want.to_bits(), "skip at {p} along {dir}");
            }
            assert_eq!(
                fused.sample(p).map(f32::to_bits),
                reference_cell(&fused, p)
                    .map(|(c, tx, ty, tz)| slam_math::interp::trilerp(c, tx, ty, tz).to_bits()),
                "sample at {p}"
            );
        }
    }
}
