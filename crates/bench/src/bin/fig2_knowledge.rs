//! **E2 / Figure 2 (right):** knowledge extraction.
//!
//! Labels explored configurations with the paper's three predicates —
//! accurate (max ATE < 5 cm), fast (> 30 FPS), power-efficient (< 3 W) —
//! and fits a shallow decision tree over the *raw algorithmic parameters*,
//! printing rules of the paper's form ("Volume resolution < 96 → …").
//!
//! Run with `cargo run --release -p bench --bin fig2_knowledge`.
//!
//! Every run lands in the disk cache under `results/cache/`; after an
//! interruption, rerun the bin from the same directory and the finished
//! runs come back as disk hits (bit-identical outcome, same seed). The
//! sweep is one engine batch, so its in-flight runs execute again.

use bench::{exploration_camera, living_room_dataset, thresholds};
use slam_dse::knowledge::{KnowledgeTree, LabelledConfigs};
use slam_kfusion::AlgoId;
use slam_power::devices::odroid_xu3;
use slambench::config_space::space_for;
use slambench::engine::EvalEngine;
use slambench::explore::random_sweep_with_engine;

fn main() {
    let frames = 25;
    let samples = 120;
    println!("== E2 / Figure 2 (right): decision-tree knowledge extraction ==");
    println!("dataset: living_room, {frames} frames at 320x240; {samples} random configurations\n");

    let dataset = living_room_dataset(exploration_camera(), frames);
    let device = odroid_xu3();
    eprintln!("evaluating {samples} configurations (parallel)...");
    let engine = EvalEngine::with_disk_cache("results/cache");
    let sweep = random_sweep_with_engine(&engine, &dataset, &device, samples, 4242);
    for q in &sweep.quarantined {
        eprintln!("quarantined: {q}");
    }
    let measured = sweep.measured;

    // label: classes mirror the paper's OR-of-criteria boxes
    let mut x = Vec::new();
    let mut labels = Vec::new();
    let mut counts = [0usize; 2];
    for m in &measured {
        let accurate = m.max_ate_m <= thresholds::MAX_ATE_M;
        let fast = m.fps >= thresholds::FPS;
        let efficient = m.watts <= thresholds::WATTS;
        let good = accurate && fast && efficient;
        x.push(m.x.clone());
        labels.push(if good { 1.0 } else { 0.0 });
        counts[usize::from(good)] += 1;
    }
    println!(
        "labelling: {} good (accurate & fast & power-efficient), {} rejected",
        counts[1], counts[0]
    );

    let data = LabelledConfigs {
        x,
        labels,
        class_names: vec![
            "rejected".into(),
            "BEST (accurate + fast + power-efficient)".into(),
        ],
    };
    let space = space_for(AlgoId::KinectFusion);
    let tree = KnowledgeTree::fit(&space, &data, 3);

    println!("\nextracted decision tree (depth <= 3):\n");
    print!("{}", tree.render());
    println!("training accuracy: {:.1}%", tree.accuracy(&data) * 100.0);

    if let Some(root) = tree.root_parameter() {
        println!("\nroot split parameter: {root}");
    }
    println!("\nall split parameters (paper's figure splits on volume");
    println!("resolution, compute size ratio and mu):");
    for (name, thr) in tree.split_parameters() {
        println!("  {name} < {thr:.4}");
    }

    // ---- per-objective parameter importance --------------------------------
    use rand::SeedableRng;
    use slam_dse::forest::{RandomForest, RandomForestOptions};
    use slam_dse::importance::permutation_importance;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
    let features: Vec<Vec<f64>> = measured.iter().map(|m| space.normalize(&m.x)).collect();
    println!("\nrandom-forest permutation importance per objective:");
    for (objective, values) in [
        (
            "runtime",
            measured.iter().map(|m| m.runtime_s).collect::<Vec<_>>(),
        ),
        ("max ATE", measured.iter().map(|m| m.max_ate_m).collect()),
        ("power", measured.iter().map(|m| m.watts).collect()),
    ] {
        let forest = RandomForest::fit(
            &features,
            &values,
            &RandomForestOptions::default(),
            &mut rng,
        );
        let importances = permutation_importance(&forest, &features, &values, 3, &mut rng);
        let top: Vec<String> = importances
            .iter()
            .take(3)
            .map(|fi| {
                format!(
                    "{} ({:.2})",
                    space.names()[fi.feature],
                    fi.relative_increase
                )
            })
            .collect();
        println!("  {objective:>8}: {}", top.join(", "));
    }
}
