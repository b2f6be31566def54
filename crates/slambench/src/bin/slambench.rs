//! The `slambench` command-line benchmark runner, mirroring the original
//! framework's CLI: pick a dataset, an algorithmic configuration and a
//! device model; get speed, accuracy and power.
//!
//! ```text
//! cargo run --release -p slambench --bin slambench -- \
//!     --dataset living_room --kt 2 --frames 50 \
//!     --volume-resolution 128 --compute-size-ratio 2 --mu 0.075 \
//!     --device xu3 --export-trajectory run.tum --export-mesh model.off
//! ```

use slam_kfusion::{AlgoId, KFusionConfig};
use slam_math::camera::PinholeCamera;
use slam_metrics::ate::{ate, AteOptions};
use slam_metrics::timing::SequenceTiming;
use slam_metrics::trajectory_io::{to_tum, TimedPose};
use slam_power::devices;
use slam_power::{DeviceModel, EnergyMeter};
use slam_scene::dataset::{DatasetConfig, SyntheticDataset};
use slam_scene::presets;
use std::process::ExitCode;

struct Args {
    algorithm: AlgoId,
    dataset: String,
    kt: usize,
    frames: usize,
    width: usize,
    height: usize,
    config: KFusionConfig,
    device: String,
    dvfs: f64,
    export_trajectory: Option<String>,
    export_mesh: Option<String>,
    export_frame: Option<String>,
    quiet: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            algorithm: AlgoId::default(),
            dataset: "living_room".into(),
            kt: 2,
            frames: 50,
            width: 320,
            height: 240,
            config: KFusionConfig::default(),
            device: "xu3".into(),
            dvfs: 1.0,
            export_trajectory: None,
            export_mesh: None,
            export_frame: None,
            quiet: false,
        }
    }
}

const USAGE: &str = "\
slambench — dense SLAM performance/accuracy/power benchmark

OPTIONS:
    --algorithm <kfusion|point-odometry>  SLAM algorithm (default kfusion)
    --dataset <living_room|office>   scene preset (default living_room)
    --kt <0..3>                      living-room trajectory variant (default 2)
    --frames <N>                     frames to run (default 50)
    --width <W> --height <H>         sensor resolution (default 320x240)
    --volume-resolution <N>          TSDF voxels per side (default 256)
    --volume-size <M>                TSDF cube size in metres (default 4)
    --volume-backend <dense|sparse>  TSDF storage layout (default dense;
                                     sparse allocates 8^3-voxel bricks on
                                     first touch and tracks differently)
    --compute-size-ratio <1|2|4|8>   input downsampling (default 1)
    --mu <M>                         TSDF truncation distance (default 0.1)
    --icp-threshold <T>              ICP convergence threshold (default 1e-5)
    --pyramid <a,b,c>                ICP iterations per level (default 10,5,4)
    --tracking-rate <N>              track every N frames (default 1)
    --integration-rate <N>           integrate every N frames (default 1)
    --no-bilateral                   disable the bilateral filter
    --threads <N>                    worker threads for the kernels (0 = auto,
                                     default 0; output is identical for any N)
    --device <xu3|tk1|arndale|pi|desktop>  cost model (default xu3)
    --dvfs <0..1]                    DVFS operating point (default 1.0)
    --export-trajectory <path>       write the estimated trajectory (TUM format)
    --export-mesh <path>             write the reconstruction (OFF format)
    --export-frame <prefix>          write the first frame's RGB (.ppm) and depth (.pgm)
    --quiet                          summary only, no per-frame log
    --help                           this text
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let next_value =
        |flag: &str, it: &mut std::slice::Iter<'_, String>| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--algorithm" => args.algorithm = next_value(flag, &mut it)?.parse()?,
            "--dataset" => args.dataset = next_value(flag, &mut it)?,
            "--kt" => args.kt = parse(flag, &next_value(flag, &mut it)?)?,
            "--frames" => args.frames = parse(flag, &next_value(flag, &mut it)?)?,
            "--width" => args.width = parse(flag, &next_value(flag, &mut it)?)?,
            "--height" => args.height = parse(flag, &next_value(flag, &mut it)?)?,
            "--volume-resolution" => {
                args.config.volume_resolution = parse(flag, &next_value(flag, &mut it)?)?
            }
            "--volume-size" => args.config.volume_size = parse(flag, &next_value(flag, &mut it)?)?,
            "--volume-backend" => {
                args.config.volume_backend = match next_value(flag, &mut it)?.as_str() {
                    "dense" => slam_kfusion::VolumeBackend::Dense,
                    "sparse" => slam_kfusion::VolumeBackend::Sparse,
                    other => return Err(format!("--volume-backend: unknown backend {other}")),
                }
            }
            "--compute-size-ratio" => {
                args.config.compute_size_ratio = parse(flag, &next_value(flag, &mut it)?)?
            }
            "--mu" => args.config.mu = parse(flag, &next_value(flag, &mut it)?)?,
            "--icp-threshold" => {
                args.config.icp_threshold = parse(flag, &next_value(flag, &mut it)?)?
            }
            "--pyramid" => {
                let v = next_value(flag, &mut it)?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 3 {
                    return Err("--pyramid needs three comma-separated counts".into());
                }
                for (i, p) in parts.iter().enumerate() {
                    args.config.pyramid_iterations[i] = parse(flag, p)?;
                }
            }
            "--tracking-rate" => {
                args.config.tracking_rate = parse(flag, &next_value(flag, &mut it)?)?
            }
            "--integration-rate" => {
                args.config.integration_rate = parse(flag, &next_value(flag, &mut it)?)?
            }
            "--no-bilateral" => args.config.bilateral_filter = false,
            "--threads" => args.config.threads = parse(flag, &next_value(flag, &mut it)?)?,
            "--device" => args.device = next_value(flag, &mut it)?,
            "--dvfs" => args.dvfs = parse(flag, &next_value(flag, &mut it)?)?,
            "--export-trajectory" => args.export_trajectory = Some(next_value(flag, &mut it)?),
            "--export-mesh" => args.export_mesh = Some(next_value(flag, &mut it)?),
            "--export-frame" => args.export_frame = Some(next_value(flag, &mut it)?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown option {other}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value {v:?} for {flag}"))
}

fn device_by_name(name: &str) -> Result<DeviceModel, String> {
    Ok(match name {
        "xu3" => devices::odroid_xu3(),
        "tk1" => devices::jetson_tk1(),
        "arndale" => devices::arndale(),
        "pi" => devices::raspberry_pi2(),
        "desktop" => devices::desktop_gtx(),
        other => {
            return Err(format!(
                "unknown device {other:?} (try xu3|tk1|arndale|pi|desktop)"
            ))
        }
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = args.config.validate() {
        eprintln!("invalid configuration: {e}");
        return ExitCode::FAILURE;
    }
    let device = match device_by_name(&args.device) {
        Ok(d) => d.at_dvfs(args.dvfs.clamp(0.05, 1.0)),
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // ---- dataset -----------------------------------------------------------
    let mut dc = match args.dataset.as_str() {
        "living_room" => DatasetConfig::living_room(),
        "office" => DatasetConfig::office(),
        other => {
            eprintln!("unknown dataset {other:?} (try living_room|office)");
            return ExitCode::FAILURE;
        }
    };
    if args.dataset == "living_room" {
        if args.kt > 3 {
            eprintln!("--kt must be 0..3");
            return ExitCode::FAILURE;
        }
        dc.trajectory = presets::living_room_kt(args.kt);
    }
    dc.frame_count = args.frames;
    let fx = 525.0 * args.width as f32 / 640.0;
    dc.camera = PinholeCamera::new(
        args.width,
        args.height,
        fx,
        fx,
        args.width as f32 / 2.0 - 0.5,
        args.height as f32 / 2.0 - 0.5,
    );
    eprintln!(
        "rendering {} frames of {}/kt{} at {}x{}...",
        dc.frame_count, args.dataset, args.kt, args.width, args.height
    );
    let dataset = SyntheticDataset::generate(&dc);
    if let Some(prefix) = &args.export_frame {
        use slam_scene::ppm::{depth_to_pgm, rgb_to_ppm};
        let frame = &dataset.frames()[0];
        let cam = dataset.camera();
        let rgb = rgb_to_ppm(&frame.rgb, cam.width, cam.height);
        let depth = depth_to_pgm(&frame.depth_m(), cam.width, cam.height, 5.0);
        if let Err(e) = std::fs::write(format!("{prefix}.ppm"), rgb)
            .and_then(|()| std::fs::write(format!("{prefix}.pgm"), depth))
        {
            eprintln!("failed to write frame images: {e}");
            return ExitCode::FAILURE;
        }
        println!("frame 0       : written to {prefix}.ppm / {prefix}.pgm");
    }

    // ---- run ----------------------------------------------------------------
    eprintln!(
        "running {} [{}] on {} ...",
        args.algorithm, args.config, device
    );
    let init = dataset.frames()[0].ground_truth;
    let mut alg = args.algorithm.create(&args.config, *dataset.camera(), init);
    let mut meter = EnergyMeter::new(device);
    let mut timing = SequenceTiming::new();
    let mut est = Vec::new();
    let mut timed = Vec::new();
    if !args.quiet {
        println!("frame  tracked  model-ms  watts   iters");
    }
    for frame in dataset.frames() {
        let r = alg.step_frame(&frame.depth_mm);
        let cost = meter.record_frame(&r.workload);
        timing.push(cost.seconds);
        est.push(r.pose);
        timed.push(TimedPose {
            timestamp: frame.timestamp,
            pose: r.pose,
        });
        if !args.quiet {
            println!(
                "{:>5}  {:^7}  {:>8.2}  {:>5.2}  {:>5}",
                frame.index,
                if r.tracked { "yes" } else { "LOST" },
                cost.seconds * 1e3,
                cost.average_watts(),
                r.icp_iterations
            );
        }
    }

    // ---- report --------------------------------------------------------------
    let gt = dataset.ground_truth();
    let accuracy = ate(&est, &gt, AteOptions::default()).expect("non-empty run");
    let run = meter.run_cost();
    println!("\n=== slambench summary ===");
    println!("algorithm     : {}", args.algorithm);
    println!("configuration : {}", args.config);
    println!("device        : {}", meter.device());
    println!("speed         : {}", timing);
    println!(
        "power         : {:.2} W avg, {:.2} J total",
        run.average_watts(),
        run.joules
    );
    println!("accuracy      : {}", accuracy);
    println!("lost frames   : {}", alg.lost_frames());

    // ---- exports --------------------------------------------------------------
    if let Some(path) = &args.export_trajectory {
        if let Err(e) = std::fs::write(path, to_tum(&timed)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trajectory    : written to {path} (TUM format)");
    }
    if let Some(path) = &args.export_mesh {
        eprintln!("extracting mesh...");
        match alg.extract_mesh(args.config.threads) {
            Some(mesh) => {
                if let Err(e) = std::fs::write(path, mesh.to_off()) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "mesh          : {} triangles written to {path} (OFF format)",
                    mesh.triangle_count()
                );
            }
            None => {
                eprintln!(
                    "{} builds no meshable model; skipping {path}",
                    args.algorithm
                );
            }
        }
    }
    ExitCode::SUCCESS
}
