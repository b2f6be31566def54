//! **E1 / Figure 2 (left):** design-space exploration of the KinectFusion
//! algorithmic parameters on the ODROID XU3 model.
//!
//! Regenerates the paper's scatter of runtime (s) vs. max ATE (m) for
//! three series — the default configuration, a random-sampling sweep and
//! the HyperMapper-style active learning — and reports the best
//! configurations under the 5 cm accuracy limit.
//!
//! Run with `cargo run --release -p bench --bin fig2_dse`.
//!
//! Every run lands in the disk cache under `results/cache/`; after an
//! interrupted sweep, rerun the bin from the same directory and the
//! finished runs come back as disk hits (bit-identical outcome, same
//! seed). The random sweep is one engine batch, so its in-flight runs
//! execute again.

use bench::{exploration_camera, living_room_dataset, thresholds};
use slam_dse::active::ActiveLearnerOptions;
use slam_dse::Evaluation;
use slam_metrics::report::{scatter_plot, Table};
use slam_power::devices::odroid_xu3;
use slambench::engine::EvalEngine;
use slambench::explore::{
    explore_with_engine, random_sweep_with_engine, ExploreOptions, MeasuredConfig,
};

fn to_points(ms: &[MeasuredConfig]) -> Vec<(f64, f64)> {
    ms.iter().map(|m| (m.runtime_s, m.max_ate_m)).collect()
}

fn hypervolume(ms: &[MeasuredConfig], reference: [f64; 2]) -> f64 {
    let evals: Vec<Evaluation> = ms
        .iter()
        .map(|m| Evaluation::new(m.x.clone(), vec![m.runtime_s, m.max_ate_m]))
        .collect();
    let front = slam_dse::pareto::pareto_front(&evals);
    slam_dse::pareto::hypervolume_2d(&front, reference)
}

fn main() {
    let frames = 25;
    let budget = 120;
    let random_n = 120;
    println!("== E1 / Figure 2 (left): runtime vs accuracy on the ODROID XU3 model ==");
    println!("dataset: living_room, {frames} frames at 320x240 (see DESIGN.md for scaling)");
    println!("budget: {budget} active-learning evaluations vs {random_n} random samples\n");

    let dataset = living_room_dataset(exploration_camera(), frames);
    let device = odroid_xu3();

    let engine = EvalEngine::with_disk_cache("results/cache");
    eprintln!("[1/2] random sampling ({random_n} configurations, parallel)...");
    let random_sweep = random_sweep_with_engine(&engine, &dataset, &device, random_n, 2018);
    if !random_sweep.quarantined.is_empty() {
        eprintln!("quarantined during random sweep:");
        for q in &random_sweep.quarantined {
            eprintln!("  {q}");
        }
    }
    let random = random_sweep.measured;

    eprintln!("[2/2] active learning ({budget} evaluations)...");
    let mut options = ExploreOptions {
        budget,
        learner: ActiveLearnerOptions {
            initial_samples: 40,
            iterations: 16,
            batch_size: 5,
            candidates_per_iteration: 1500,
            exploration_fraction: 0.2,
            seed: 2018,
            ..ActiveLearnerOptions::default()
        },
        accuracy_limit: thresholds::MAX_ATE_M,
        ..ExploreOptions::default()
    };
    options.learner.forest.trees = 24;
    let outcome = explore_with_engine(&engine, &dataset, &device, &options);
    if !outcome.quarantined.is_empty() {
        eprintln!("quarantined during active learning:");
        for q in &outcome.quarantined {
            eprintln!("  {q}");
        }
    }

    // ---- the scatter (clip the hopeless tail for readability) -------------
    let clip = |pts: Vec<(f64, f64)>| -> Vec<(f64, f64)> {
        pts.into_iter()
            .filter(|&(r, a)| r < 0.5 && a < 0.5)
            .collect()
    };
    let series = vec![
        ("random sampling", '.', clip(to_points(&random))),
        ("active learning", 'o', clip(to_points(&outcome.measured))),
        (
            "default configuration",
            'D',
            vec![(
                outcome.default_config.runtime_s,
                outcome.default_config.max_ate_m,
            )],
        ),
    ];
    println!(
        "\nRuntime (s, x) vs Max ATE (m, y); accuracy limit {} m:",
        thresholds::MAX_ATE_M
    );
    print!("{}", scatter_plot(&series, 72, 24));

    // ---- best configurations ----------------------------------------------
    let best_of = |ms: &[MeasuredConfig]| -> Option<MeasuredConfig> {
        ms.iter()
            .filter(|m| m.max_ate_m <= thresholds::MAX_ATE_M)
            .min_by(|a, b| a.runtime_s.partial_cmp(&b.runtime_s).expect("finite"))
            .cloned()
    };
    let best_random = best_of(&random);
    let best_active = best_of(&outcome.measured);

    let mut table = Table::new(vec![
        "series".into(),
        "runtime (s)".into(),
        "FPS".into(),
        "max ATE (m)".into(),
        "power (W)".into(),
        "speedup vs default".into(),
        "configuration".into(),
    ]);
    let default = &outcome.default_config;
    let mut push = |name: &str, m: &MeasuredConfig| {
        table.row(vec![
            name.into(),
            format!("{:.4}", m.runtime_s),
            format!("{:.1}", m.fps),
            format!("{:.4}", m.max_ate_m),
            format!("{:.2}", m.watts),
            format!("{:.2}x", default.runtime_s / m.runtime_s),
            format!("{}", m.config),
        ]);
    };
    push("default", default);
    if let Some(m) = &best_random {
        push("best random (ATE<5cm)", m);
    }
    if let Some(m) = &best_active {
        push("best active (ATE<5cm)", m);
    }
    println!("{}", table.render());

    // ---- front quality ------------------------------------------------------
    let reference = [
        default.runtime_s.max(0.3),
        0.25, // a generous ATE reference bound
    ];
    let hv_random = hypervolume(&random, reference);
    let hv_active = hypervolume(&outcome.measured, reference);
    println!("2-D hypervolume (runtime x maxATE, ref {reference:?}):");
    println!("  random sampling : {hv_random:.5}");
    println!("  active learning : {hv_active:.5}");
    println!(
        "  active/random   : {:.3} (>= 1.0 means active learning dominates)",
        hv_active / hv_random.max(1e-12)
    );

    match (&best_random, &best_active) {
        (Some(r), Some(a)) => {
            println!(
                "\nshape check: best feasible runtime — active {:.4} s vs random {:.4} s ({})",
                a.runtime_s,
                r.runtime_s,
                if a.runtime_s <= r.runtime_s {
                    "active wins"
                } else {
                    "random wins"
                },
            );
        }
        _ => println!("\nshape check: a series found no feasible configuration"),
    }
}
