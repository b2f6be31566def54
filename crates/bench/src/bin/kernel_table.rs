//! **E6 / per-kernel breakdown:** the SLAMBench-style kernel timing table
//! (ICRA'15 methodology the poster summarises) — modelled milliseconds per
//! kernel per frame on each catalogue device. Stdout carries only the
//! modelled figures, so it is the same on every run and host; the
//! measured host profile and wall time go to stderr.
//!
//! Run with `cargo run --release -p bench --bin kernel_table`.

use bench::living_room_dataset;
use slam_kfusion::{KFusionConfig, Kernel};
use slam_math::camera::PinholeCamera;
use slam_metrics::report::Table;
use slam_power::devices::all_devices;
use slam_trace::{SpanLevel, Tracer};
use slambench::engine::EvalEngine;

fn main() {
    let frames = 20;
    // 320x240 keeps the host run quick while exercising every kernel
    let camera = PinholeCamera::new(320, 240, 262.5, 262.5, 159.5, 119.5);
    println!("== E6: per-kernel time breakdown (default configuration) ==");
    println!("dataset: living_room, {frames} frames at 320x240\n");

    let dataset = living_room_dataset(camera, frames);
    // keep the host run snappy; ratios hold
    let config = KFusionConfig {
        volume_resolution: 128,
        ..KFusionConfig::default()
    };
    eprintln!("running pipeline...");
    // no disk cache here: the measured profile below needs a real
    // execution under the tracer, not a cache hit
    let tracer = Tracer::new();
    let engine = EvalEngine::new().with_tracer(tracer.clone());
    let run = engine.evaluate(&dataset, &config);
    let profile = tracer.drain().profile();

    let devices = all_devices();
    let mut headers = vec!["kernel".into()];
    headers.extend(devices.iter().map(|d| format!("{} (ms)", d.name)));
    headers.push("share".into());
    let mut table = Table::new(headers);

    let reports: Vec<_> = devices.iter().map(|d| run.cost_on(d)).collect();
    let totals: Vec<f64> = reports.iter().map(|r| r.run_cost.seconds).collect();
    for kernel in Kernel::ALL {
        let mut cells = vec![kernel.name().to_string()];
        for report in &reports {
            let s = report
                .kernel_seconds
                .iter()
                .find(|(k, _)| *k == kernel)
                .map(|(_, s)| *s)
                .unwrap_or(0.0);
            cells.push(format!("{:.2}", s / frames as f64 * 1e3));
        }
        // share of total on the first device (the XU3)
        let share = reports[0]
            .kernel_seconds
            .iter()
            .find(|(k, _)| *k == kernel)
            .map(|(_, s)| s / totals[0] * 100.0)
            .unwrap_or(0.0);
        cells.push(format!("{share:.1}%"));
        table.row(cells);
    }
    let mut total_cells = vec!["TOTAL".to_string()];
    for (report, total) in reports.iter().zip(&totals) {
        let _ = report;
        total_cells.push(format!("{:.2}", total / frames as f64 * 1e3));
    }
    total_cells.push("100%".into());
    table.row(total_cells);
    println!("{}", table.render());

    let mut fps = Table::new(vec!["device".into(), "FPS".into(), "power (W)".into()]);
    for (d, report) in devices.iter().zip(&reports) {
        fps.row(vec![
            d.name.clone(),
            format!("{:.2}", report.run_cost.mean_fps()),
            format!("{:.2}", report.run_cost.average_watts()),
        ]);
    }
    println!("{}", fps.render());

    // the same table measured on this host, derived from the traced
    // run's aggregated per-kernel profile: informational only, and
    // printed on stderr because it changes from run to run
    let mut host = Table::new(vec![
        "kernel".into(),
        "host ms/frame".into(),
        "share".into(),
    ]);
    for kernel in Kernel::ALL {
        let Some(row) = profile.get_at(SpanLevel::Kernel, kernel.name()) else {
            continue;
        };
        host.row(vec![
            kernel.name().to_string(),
            format!("{:.2}", row.total_secs() / frames as f64 * 1e3),
            format!(
                "{:.1}%",
                100.0 * profile.share(SpanLevel::Kernel, kernel.name())
            ),
        ]);
    }
    eprintln!("== measured host profile (slam-trace) ==");
    eprintln!("{}", host.render());
    eprintln!(
        "host wall time: {:.1} ms/frame (informational only; figures use the device model)",
        run.wall_seconds() / frames as f64 * 1e3
    );
    println!(
        "dominant modelled kernel on the XU3: {}",
        run.cost_on(&devices[0]).dominant_kernel()
    );
}
