//! GA-quality regression tests: the evolutionary search must earn its
//! keep against the ablations the benches measure (random
//! initialization only, and the PUMA balanced heuristic).

use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{
    ht_fitness_from_mapping, optimize, puma_mapping, CoreMapping, DepInfo, GaContext, GaParams,
    Partitioning,
};
use pimcomp_ir::transform::normalize;

fn context<'a>(
    graph: &'a pimcomp_ir::Graph,
    hw: &'a HardwareConfig,
    partitioning: &'a Partitioning,
    dep: &'a DepInfo,
    mode: PipelineMode,
) -> GaContext<'a> {
    GaContext {
        hw,
        graph,
        partitioning,
        dep,
        mode,
        core_limit: None,
    }
}

#[test]
fn evolution_beats_random_initialization() {
    let graph = normalize(&pimcomp_ir::models::tiny_cnn()).unwrap();
    let hw = HardwareConfig::small_test();
    let partitioning = Partitioning::new(&graph, &hw).unwrap();
    let dep = DepInfo::analyze(&graph);
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let ctx = context(&graph, &hw, &partitioning, &dep, mode);
        let (_, with_evolution) = optimize(
            &ctx,
            &GaParams {
                population: 16,
                iterations: 40,
                ..GaParams::fast(5)
            },
            &mut |_| {},
        )
        .unwrap();
        let (_, random_only) = optimize(
            &ctx,
            &GaParams {
                population: 16,
                iterations: 0,
                ..GaParams::fast(5)
            },
            &mut |_| {},
        )
        .unwrap();
        assert!(
            with_evolution.final_fitness <= random_only.final_fitness,
            "{mode}: evolution {} vs random-only {}",
            with_evolution.final_fitness,
            random_only.final_fitness
        );
        assert!(
            with_evolution.final_fitness < random_only.final_fitness * 0.99,
            "{mode}: evolution should improve measurably"
        );
    }
}

#[test]
fn ga_matches_the_balanced_heuristic_on_its_home_turf() {
    // The PUMA heuristic is near-optimal for HT on a simple chain; the
    // GA must land within a few percent of it (and usually beats its
    // mapping).
    let graph = normalize(&pimcomp_ir::models::tiny_cnn()).unwrap();
    let hw = HardwareConfig::small_test();
    let partitioning = Partitioning::new(&graph, &hw).unwrap();
    let dep = DepInfo::analyze(&graph);
    let ctx = context(
        &graph,
        &hw,
        &partitioning,
        &dep,
        PipelineMode::HighThroughput,
    );
    let (best, _) = optimize(
        &ctx,
        &GaParams {
            population: 24,
            iterations: 80,
            ..GaParams::fast(9)
        },
        &mut |_| {},
    )
    .unwrap();
    let ga_fit = ht_fitness_from_mapping(
        &hw,
        &partitioning,
        &CoreMapping::from_chromosome(&best, &partitioning).unwrap(),
    );
    let heuristic = puma_mapping(&partitioning, &hw).unwrap();
    let heuristic_fit = ht_fitness_from_mapping(&hw, &partitioning, &heuristic);
    assert!(
        ga_fit <= heuristic_fit * 1.05,
        "GA {ga_fit} should be within 5% of heuristic {heuristic_fit}"
    );
}

#[test]
fn ga_history_is_monotonically_non_increasing() {
    // Elitism guarantees the best-so-far never regresses.
    let graph = normalize(&pimcomp_ir::models::two_branch()).unwrap();
    let hw = HardwareConfig::small_test();
    let partitioning = Partitioning::new(&graph, &hw).unwrap();
    let dep = DepInfo::analyze(&graph);
    let ctx = context(
        &graph,
        &hw,
        &partitioning,
        &dep,
        PipelineMode::HighThroughput,
    );
    let (_, stats) = optimize(&ctx, &GaParams::fast(33), &mut |_| {}).unwrap();
    for w in stats.history.windows(2) {
        assert!(w[1] <= w[0], "history regressed: {} -> {}", w[0], w[1]);
    }
    assert!(stats.final_fitness <= stats.initial_fitness);
}

#[test]
fn max_nodes_per_core_bounds_scattering_without_breaking_feasibility() {
    // Ablation of the chromosome capacity knob (the per-core slot grid
    // of "GA placement kernel" in docs/ARCHITECTURE.md): it trades
    // mapping freedom against on-chip communication locality (paper
    // §IV-C.1).
    let graph = normalize(&pimcomp_ir::models::tiny_cnn()).unwrap();
    let hw = HardwareConfig::small_test();
    let partitioning = Partitioning::new(&graph, &hw).unwrap();
    let dep = DepInfo::analyze(&graph);
    let ctx = context(
        &graph,
        &hw,
        &partitioning,
        &dep,
        PipelineMode::HighThroughput,
    );
    let mut fits = Vec::new();
    for max_nodes in [2usize, 4, 8] {
        let (best, stats) = optimize(
            &ctx,
            &GaParams {
                population: 12,
                iterations: 20,
                max_nodes_per_core: Some(max_nodes),
                ..GaParams::fast(17)
            },
            &mut |_| {},
        )
        .unwrap();
        // Every configuration must yield a mapping (every replica whole,
        // which `from_chromosome` checks)...
        CoreMapping::from_chromosome(&best, &partitioning).unwrap();
        // ...that respects the per-core node limit.
        for core in 0..best.cores() {
            assert!(best.genes_of_core(core).count() <= max_nodes);
        }
        fits.push(stats.final_fitness);
    }
    // Looser limits can only help the search space; allow GA noise.
    assert!(
        fits[2] <= fits[0] * 1.5,
        "wider chromosome much worse: {fits:?}"
    );
}
