//! **Bit-identity check:** runs KinectFusion over the living-room
//! sequence and prints one FNV-1a hash per frame, then the FNV-1a of the
//! final volume dump. Two builds that print the same lines produced the
//! same bits: every frame's pose, tracked flag, measured workload and
//! raycast maps, and the final TSDF.
//!
//! ```text
//! cargo run --release -p bench --bin bit_hash -- \
//!     <scale> <frames> <dense|sparse> <compute_size_ratio> \
//!     <volume_resolution> <mu> <integration_rate> <tracking_rate> <threads>
//! ```
//!
//! `scale` divides the 640×480 Kinect camera (2 = QVGA, 4 = 160×120).
//! Run it in both checkouts and `cmp` the outputs.

use bench::living_room_dataset;
use slam_kfusion::{KFusionConfig, KinectFusion, SlamAlgorithm, VolumeBackend};
use slam_math::camera::PinholeCamera;
use slam_math::vec::Vec3;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn vecs(&mut self, vecs: &[Vec3]) {
        for v in vecs {
            for c in [v.x, v.y, v.z] {
                self.bytes(&c.to_bits().to_le_bytes());
            }
        }
    }
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize, name: &str) -> T {
    match args.get(i).map(|a| a.parse()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!(
                "usage: bit_hash <scale> <frames> <dense|sparse> <compute_size_ratio> \
                 <volume_resolution> <mu> <integration_rate> <tracking_rate> <threads>"
            );
            eprintln!("missing or bad <{name}>");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: usize = arg(&args, 0, "scale");
    let frames: usize = arg(&args, 1, "frames");
    let config = KFusionConfig {
        volume_backend: arg::<VolumeBackend>(&args, 2, "dense|sparse"),
        compute_size_ratio: arg(&args, 3, "compute_size_ratio"),
        volume_resolution: arg(&args, 4, "volume_resolution"),
        mu: arg(&args, 5, "mu"),
        integration_rate: arg(&args, 6, "integration_rate"),
        tracking_rate: arg(&args, 7, "tracking_rate"),
        threads: arg(&args, 8, "threads"),
        ..KFusionConfig::default()
    };
    if let Err(e) = config.validate() {
        eprintln!("invalid configuration: {e:?}");
        std::process::exit(2);
    }
    let dataset = living_room_dataset(PinholeCamera::kinect().scaled_down(scale), frames);
    let first = dataset.frames()[0].ground_truth;
    let mut kf = KinectFusion::new(config, *dataset.camera(), first);
    for frame in dataset.frames() {
        let r = kf.step_frame(&frame.depth_mm);
        let mut h = Fnv::new();
        // `Debug` prints every float in shortest round-trip form
        h.bytes(format!("{:?}|{}|{:?}", r.pose, r.tracked, r.workload).as_bytes());
        if let Some(model) = kf.model() {
            h.vecs(model.vertices.as_slice());
            h.vecs(model.normals.as_slice());
        }
        println!("{:016x}", h.0);
    }
    let mut h = Fnv::new();
    h.bytes(&kf.volume().to_bytes());
    println!("{:016x}", h.0);
}
