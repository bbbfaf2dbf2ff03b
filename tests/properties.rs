//! Property-based tests over the core data structures and invariants.

use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{
    required_windows, Chromosome, CoreMapping, DepInfo, DepRule, FitnessMemo, GaContext, Gene,
    Partitioning, ReplicationPlan, Schedule,
};
use pimcomp_ir::{Graph, GraphBuilder};
use proptest::prelude::*;

/// A random straight-line CNN: input + alternating conv/relu stages.
fn arb_chain_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..32, // input channels
        8usize..40, // input extent
        1usize..5,  // conv stages
        proptest::collection::vec((1usize..32, 1usize..4), 1..5),
    )
        .prop_map(|(cin, extent, _stages, convs)| {
            let mut b = GraphBuilder::new("prop");
            let mut cur = b.input("x", [cin, extent, extent]);
            for (i, (ch, k)) in convs.into_iter().enumerate() {
                let k = (2 * k + 1).min(extent); // odd kernel that fits
                let pad = k / 2;
                cur = b
                    .conv2d(format!("c{i}"), cur, ch, (k, k), (1, 1), (pad, pad))
                    .expect("generated conv fits");
                cur = b.relu(format!("r{i}"), cur).expect("relu");
            }
            b.finish().expect("generated graph is valid")
        })
}

/// A deterministic feasible chromosome: one replica per node, striped
/// over the cores first-fit (the seed state the edit sequences of
/// `memoized_and_incremental_fitness_match_scratch` start from).
fn striped_chromosome(p: &Partitioning, hw: &HardwareConfig) -> Chromosome {
    let cores = hw.total_cores();
    let mut c = Chromosome::empty(cores, p.len().max(4));
    let mut core = 0usize;
    for idx in 0..p.len() {
        for _ in 0..p.entry(idx).ags_per_replica {
            let slot = c
                .slot_of_node_on_core(core, idx)
                .or_else(|| c.free_slot_of_core(core))
                .expect("grid sized to fit");
            let cur = c.gene(slot).map_or(0, |g| g.ag_count);
            c.set_gene(
                slot,
                Some(Gene {
                    mvm: idx,
                    ag_count: cur + 1,
                }),
            );
            core = (core + 1) % cores;
        }
    }
    c
}

/// Applies one GA-shaped edit (grow / shrink / spread) to a chromosome,
/// keeping every node's AG total a positive multiple of its
/// AGs-per-replica (the invariant `Chromosome::replication` enforces).
/// Returns whether the chromosome changed.
fn apply_edit(
    c: &mut Chromosome,
    p: &Partitioning,
    (kind, node_sel, core_sel, amount): (u8, usize, usize, usize),
) -> bool {
    let node = node_sel % p.len();
    let a = p.entry(node).ags_per_replica;
    let cores = c.cores();
    match kind {
        // Grow: add `amount` whole replicas, one AG at a time,
        // first-fit from a chosen start core. All-or-nothing.
        0 => {
            let before = c.clone();
            for i in 0..amount * a {
                let placed = (0..cores).any(|off| {
                    let core = (core_sel + i + off) % cores;
                    let slot = c
                        .slot_of_node_on_core(core, node)
                        .or_else(|| c.free_slot_of_core(core));
                    if let Some(slot) = slot {
                        let cur = c.gene(slot).map_or(0, |g| g.ag_count);
                        c.set_gene(
                            slot,
                            Some(Gene {
                                mvm: node,
                                ag_count: cur + 1,
                            }),
                        );
                        true
                    } else {
                        false
                    }
                });
                if !placed {
                    *c = before;
                    return false;
                }
            }
            true
        }
        // Shrink: remove `amount` whole replicas, keeping at least one.
        1 => {
            let total = c.ag_total(node);
            let removable = (total / a).saturating_sub(1).min(amount);
            if removable == 0 {
                return false;
            }
            let mut to_remove = removable * a;
            for slot in 0..c.len() {
                if to_remove == 0 {
                    break;
                }
                let Some(g) = c.gene(slot) else { continue };
                if g.mvm != node {
                    continue;
                }
                let take = g.ag_count.min(to_remove);
                to_remove -= take;
                c.set_gene(
                    slot,
                    (g.ag_count > take).then_some(Gene {
                        mvm: node,
                        ag_count: g.ag_count - take,
                    }),
                );
            }
            assert_eq!(to_remove, 0);
            true
        }
        // Spread: move `amount` AGs of some gene to another core
        // (replication totals unchanged — the placement-only case that
        // exercises LL chain reuse and HT two-core dirtiness).
        _ => {
            let genes: Vec<(usize, Gene)> = c.genes().filter(|(_, g)| g.ag_count >= 2).collect();
            if genes.is_empty() {
                return false;
            }
            let (slot, gene) = genes[node_sel % genes.len()];
            let src_core = c.core_of_slot(slot);
            let move_n = amount.min(gene.ag_count - 1);
            for off in 0..cores {
                let dst = (core_sel + off) % cores;
                if dst == src_core {
                    continue;
                }
                let dst_slot = c
                    .slot_of_node_on_core(dst, gene.mvm)
                    .or_else(|| c.free_slot_of_core(dst));
                let Some(dst_slot) = dst_slot else { continue };
                let dst_count = c.gene(dst_slot).map_or(0, |g| g.ag_count);
                c.set_gene(
                    dst_slot,
                    Some(Gene {
                        mvm: gene.mvm,
                        ag_count: dst_count + move_n,
                    }),
                );
                c.set_gene(
                    slot,
                    Some(Gene {
                        mvm: gene.mvm,
                        ag_count: gene.ag_count - move_n,
                    }),
                );
                return true;
            }
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partitioning_conserves_weight_area(graph in arb_chain_graph()) {
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&graph, &hw).unwrap();
        for entry in p.entries() {
            // AGs cover the weight matrix height exactly.
            prop_assert!(entry.ags_per_replica * hw.crossbar_rows >= entry.weight_height);
            prop_assert!((entry.ags_per_replica - 1) * hw.crossbar_rows < entry.weight_height);
            // Crossbars cover the width exactly.
            let wcols = hw.weight_cols_per_crossbar();
            prop_assert!(entry.crossbars_per_ag * wcols >= entry.weight_width);
            prop_assert!((entry.crossbars_per_ag.saturating_sub(1)) * wcols < entry.weight_width);
            // Windows equal the output spatial extent.
            prop_assert_eq!(entry.windows, entry.out_height * entry.out_width);
        }
    }

    #[test]
    fn windows_per_replica_partitions_work(
        graph in arb_chain_graph(),
        r in 1usize..20,
    ) {
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&graph, &hw).unwrap();
        for (idx, entry) in p.entries().iter().enumerate() {
            let mut plan = ReplicationPlan::ones(&p);
            plan.set_count(idx, r);
            let wpr = plan.windows_per_replica(&p, idx);
            // Ceil division: r * wpr covers all windows with less than
            // one replica's worth of slack.
            prop_assert!(r * wpr >= entry.windows);
            prop_assert!(r * wpr < entry.windows + r);
        }
    }

    #[test]
    fn gene_codes_round_trip(mvm in 0usize..5000, count in 1usize..9999) {
        let g = Gene { mvm, ag_count: count };
        prop_assert_eq!(Gene::from_code(g.code()), Some(g));
    }

    #[test]
    fn chromosome_codes_round_trip(
        cores in 1usize..12,
        max_nodes in 1usize..5,
        genes in proptest::collection::vec((0usize..8, 1usize..50), 0..16),
    ) {
        let mut c = Chromosome::empty(cores, max_nodes);
        for (i, (mvm, count)) in genes.into_iter().enumerate() {
            let slot = i % c.len();
            c.set_gene(slot, Some(Gene { mvm, ag_count: count }));
        }
        let codes = c.to_codes();
        let back = Chromosome::from_codes(&codes, cores, max_nodes);
        prop_assert_eq!(c, back);
    }

    #[test]
    fn required_windows_is_monotone_in_j(
        k in 1usize..6,
        s in 1usize..4,
        p in 0usize..3,
        hi in 6usize..20,
        wi in 6usize..20,
    ) {
        prop_assume!(k + s > p); // window formula stays meaningful
        let rule = DepRule::SlidingWindow {
            kernel: (k, k),
            stride: (s, s),
            padding: (p, p),
        };
        // Consumer dims derived from the provider dims.
        let ho = (hi + 2 * p).saturating_sub(k) / s + 1;
        let wo = (wi + 2 * p).saturating_sub(k) / s + 1;
        prop_assume!(ho > 0 && wo > 0);
        let nc = ho * wo;
        let np = hi * wi;
        let mut prev = 0usize;
        for j in 0..nc {
            let req = required_windows(rule, j, (ho, wo), nc, (hi, wi), np);
            prop_assert!(req <= np, "dep beyond provider output");
            // Monotone along each output row; across rows it may only
            // grow as well because rd grows with r.
            if j % wo != 0 {
                prop_assert!(req >= prev, "dep must not shrink within a row");
            }
            prev = req;
        }
        // The last window needs (nearly) the whole provider.
        let last = required_windows(rule, nc - 1, (ho, wo), nc, (hi, wi), np);
        prop_assert!(last >= np - (s - 1) * wi - (s - 1),
            "last window should need ~everything: {last} of {np}");
    }

    #[test]
    fn mapping_materialization_is_consistent(
        graph in arb_chain_graph(),
        seed_counts in proptest::collection::vec(1usize..4, 1..6),
    ) {
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&graph, &hw).unwrap();
        let cores = hw.total_cores();
        let mut c = Chromosome::empty(cores, p.len().max(1));
        // Deterministic striped placement with the requested replicas.
        let mut core = 0usize;
        let mut used = vec![0usize; cores];
        let capacity = hw.crossbar_capacity_per_core();
        for idx in 0..p.len() {
            let entry = p.entry(idx);
            let r = seed_counts[idx % seed_counts.len()];
            let mut remaining = r * entry.ags_per_replica;
            while remaining > 0 {
                if used[core] + entry.crossbars_per_ag > capacity
                    || c.slot_of_node_on_core(core, idx)
                        .or_else(|| c.free_slot_of_core(core))
                        .is_none()
                {
                    core = (core + 1) % cores;
                    continue;
                }
                let slot = c
                    .slot_of_node_on_core(core, idx)
                    .or_else(|| c.free_slot_of_core(core))
                    .unwrap();
                let cur = c.gene(slot).map_or(0, |g| g.ag_count);
                c.set_gene(slot, Some(Gene { mvm: idx, ag_count: cur + 1 }));
                used[core] += entry.crossbars_per_ag;
                remaining -= 1;
            }
        }
        let mapping = CoreMapping::from_chromosome(&c, &p).unwrap();
        mapping.validate(&p).unwrap();
        // Whole-replica preference: every owner hosts slice 0.
        for (mvm, owners) in mapping.owners.iter().enumerate() {
            for (replica, &owner) in owners.iter().enumerate() {
                let has_slice0 = mapping.instances.iter().any(|i| {
                    i.mvm == mvm && i.replica == replica && i.slice == 0 && i.core == owner
                });
                prop_assert!(has_slice0, "owner must host slice 0");
            }
        }
    }

    #[test]
    fn memoized_and_incremental_fitness_match_scratch(
        graph in arb_chain_graph(),
        edits in proptest::collection::vec((0u8..3, 0usize..64, 0usize..64, 1usize..4), 1..12),
        ht in any::<bool>(),
    ) {
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&graph, &hw).unwrap();
        let dep = DepInfo::analyze(&graph);
        let ctx = GaContext {
            hw: &hw,
            graph: &graph,
            partitioning: &p,
            dep: &dep,
            mode: if ht { PipelineMode::HighThroughput } else { PipelineMode::LowLatency },
            core_limit: None,
        };
        let mut memo = FitnessMemo::new(&ctx);

        let mut current = striped_chromosome(&p, &hw);
        let scratch = ctx.fitness(&current).unwrap();
        prop_assert_eq!(memo.evaluate(&current).unwrap().to_bits(), scratch.to_bits());

        let mut applied = 0usize;
        for edit in edits {
            let mut child = current.clone();
            if !apply_edit(&mut child, &p, edit) {
                continue;
            }
            applied += 1;
            // The incremental path (dirty-core recomputation in HT,
            // chain reuse in LL) must agree with the from-scratch
            // estimator to the bit, for any mutation sequence.
            let scratch = ctx.fitness(&child).unwrap();
            let incremental = memo.evaluate_mutated(&current, &child).unwrap();
            prop_assert_eq!(
                incremental.to_bits(),
                scratch.to_bits(),
                "incremental {} != scratch {}",
                incremental,
                scratch
            );
            // And once memoized, a revisit returns the identical value.
            let memoized = memo.evaluate(&child).unwrap();
            prop_assert_eq!(memoized.to_bits(), scratch.to_bits());
            current = child;
        }
        // Every applied edit ends with a guaranteed revisit hit.
        prop_assert!(memo.cache_hits() >= applied);
    }

    #[test]
    fn ht_core_time_is_monotone_in_load(
        items in proptest::collection::vec((1usize..8, 1usize..500), 1..6),
        extra_ags in 1usize..4,
        extra_cycles in 1usize..200,
    ) {
        let hw = HardwareConfig::small_test();
        let base = pimcomp_core::ht_core_time(&hw, &items);
        // Adding a node never reduces core time.
        let mut more = items.clone();
        more.push((extra_ags, extra_cycles));
        prop_assert!(pimcomp_core::ht_core_time(&hw, &more) >= base);
        // Growing any node's cycles never reduces core time.
        let mut longer = items.clone();
        longer[0].1 += extra_cycles;
        prop_assert!(pimcomp_core::ht_core_time(&hw, &longer) >= base);
    }
}

// End-to-end schedule invariants: fewer cases, each compiles a model.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every AG's predecessors are scheduled before its first use: in
    /// the LL schedule all of a unit's provider units precede it in
    /// pipeline order; in the HT schedule each core executes its node
    /// programs in ascending partitioned-node (topological) order.
    #[test]
    fn schedules_order_predecessors_before_use(
        graph in arb_chain_graph(),
        seed in 0u64..1000,
        ht in any::<bool>(),
    ) {
        use pimcomp_core::{CompileOptions, CompileSession, GaParams};
        let mode = if ht { PipelineMode::HighThroughput } else { PipelineMode::LowLatency };
        let opts = CompileOptions::new(mode).with_ga(GaParams {
            population: 4,
            iterations: 2,
            ..GaParams::fast(seed)
        });
        let model = CompileSession::new(HardwareConfig::small_test(), &graph, opts)
            .unwrap()
            .run()
            .unwrap();
        match &model.schedule {
            Schedule::LowLatency(ll) => {
                for (uid, unit) in ll.units.iter().enumerate() {
                    for provider in &unit.providers {
                        let provider_units = ll.units_of(provider.node);
                        prop_assert!(!provider_units.is_empty(), "provider without units");
                        for &pu in provider_units {
                            prop_assert!(
                                pu < uid,
                                "unit {uid} ({}) uses provider unit {pu} scheduled after it",
                                unit.name
                            );
                        }
                    }
                }
            }
            Schedule::HighThroughput(htds) => {
                for core_programs in &htds.per_core {
                    for pair in core_programs.windows(2) {
                        prop_assert!(
                            htds.programs[pair[0]].mvm <= htds.programs[pair[1]].mvm,
                            "core program order violates topological node order"
                        );
                    }
                }
            }
        }
    }
}

/// A random executable network: a conv/relu chain with an optional
/// pooling stage and an optional classifier tail — wider op coverage
/// than [`arb_chain_graph`] so the functional executor sees pools,
/// flattens and linears, not just convolutions.
fn arb_exec_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..16, // input channels
        8usize..24, // input extent
        proptest::collection::vec((1usize..24, 1usize..3), 1..4),
        any::<bool>(), // maxpool stage
        any::<bool>(), // classifier tail
        1usize..24,    // classifier width
    )
        .prop_map(|(cin, extent, convs, pool, tail, classes)| {
            let mut b = GraphBuilder::new("prop_exec");
            let mut cur = b.input("x", [cin, extent, extent]);
            for (i, (ch, k)) in convs.into_iter().enumerate() {
                let k = (2 * k + 1).min(extent);
                let pad = k / 2;
                cur = b
                    .conv2d(format!("c{i}"), cur, ch, (k, k), (1, 1), (pad, pad))
                    .expect("generated conv fits");
                cur = b.relu(format!("r{i}"), cur).expect("relu");
            }
            if pool {
                cur = b
                    .max_pool("pool", cur, (2, 2), (2, 2), (0, 0))
                    .expect("pool fits");
            }
            if tail {
                cur = b.global_avg_pool("gap", cur).expect("gap");
                cur = b.flatten("flat", cur).expect("flatten");
                b.linear("fc", cur, classes).expect("fc");
            }
            b.finish().expect("generated graph is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The functional-executor safety net: arbitrary small networks
    /// flow through partition → map → execute without panicking, and
    /// the mapped per-crossbar layout agrees with the reference
    /// interpreter within f32 summation-order tolerance. A quantized
    /// pass over the same model must also run to completion.
    #[test]
    fn mapped_execution_agrees_with_reference(
        graph in arb_exec_graph(),
        seed in 0u64..1000,
        ht in any::<bool>(),
    ) {
        use pimcomp_core::{CompileOptions, CompileSession, GaParams};
        let hw = HardwareConfig::small_test();
        let mode = if ht { PipelineMode::HighThroughput } else { PipelineMode::LowLatency };
        let opts = CompileOptions::new(mode).with_ga(GaParams {
            population: 4,
            iterations: 2,
            ..GaParams::fast(seed)
        });
        let model = CompileSession::new(hw.clone(), &graph, opts)
            .unwrap()
            .run()
            .unwrap();
        let outcome = pimcomp_exec::verify_model(&model, seed, None).unwrap();
        prop_assert!(
            outcome.output_rmse <= 1e-4,
            "mapped layout diverges from reference: rmse {:.3e}",
            outcome.output_rmse
        );
        let q = pimcomp_arch::QuantConfig::for_hardware(&hw, 6).unwrap();
        let quant = pimcomp_exec::verify_model(&model, seed, Some(q)).unwrap();
        prop_assert!(quant.output_rmse.is_finite());
    }

    /// ADC grids over one calibrated full scale are nested, so the
    /// per-conversion error — measured on single-slice linear layers,
    /// where each output element is exactly one ADC conversion —
    /// is monotone non-increasing in ADC resolution, against the
    /// ideal-converter (`adc_bits = 32`) baseline.
    #[test]
    fn adc_error_is_monotone_in_resolution(
        in_features in 2usize..=64,
        out_features in 1usize..=16,
        seed in 0u64..1000,
    ) {
        use pimcomp_core::{CompileOptions, CompileSession, GaParams};
        let mut b = GraphBuilder::new("adc_mono");
        let x = b.input_flat("x", in_features);
        b.linear("fc", x, out_features).expect("fc");
        let graph = b.finish().expect("valid");
        let hw = HardwareConfig::small_test();
        prop_assert!(in_features <= hw.crossbar_rows, "single-slice precondition");
        let opts = CompileOptions::new(PipelineMode::HighThroughput)
            .with_ga(GaParams::fast(seed));
        let model = CompileSession::new(hw.clone(), &graph, opts)
            .unwrap()
            .run()
            .unwrap();
        let ideal = pimcomp_arch::QuantConfig::for_hardware(&hw, 32).unwrap();
        let baseline = pimcomp_exec::mapped_outputs(&model, seed, Some(ideal)).unwrap();
        let base: Vec<f32> = baseline.iter().flat_map(|(_, t)| t.data.clone()).collect();
        let mut prev = f64::INFINITY;
        for bits in [1u32, 2, 3, 4, 6, 8, 10, 12, 16] {
            let q = pimcomp_arch::QuantConfig::for_hardware(&hw, bits).unwrap();
            let out = pimcomp_exec::mapped_outputs(&model, seed, Some(q)).unwrap();
            let flat: Vec<f32> = out.iter().flat_map(|(_, t)| t.data.clone()).collect();
            let err = pimcomp_exec::rmse(&flat, &base);
            prop_assert!(
                err <= prev + 1e-12,
                "ADC error increased with resolution: {bits} bits gives rmse {err:.6e} \
                 after {prev:.6e}"
            );
            prev = err;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one GEMM kernel under both backends: for any geometry —
    /// ragged against the tile, a single window (Linear), contractions
    /// shorter than a crossbar slice, grouped columns, empty `k` ranges,
    /// signed zeros in both operands — every output cell is, by
    /// `to_bits`, the scalar ascending-index dot product it replaces,
    /// stored or accumulated.
    #[test]
    fn gemm_kernel_equals_the_scalar_dot_bit_for_bit(
        windows in 1usize..40,
        height in 1usize..200,
        per_group in 1usize..12,
        groups in 1usize..4,
        bounds in (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000),
        seed in 0u64..1000,
        accumulate in any::<bool>(),
    ) {
        use pimcomp_exec::{pack_rows, MvmJob, WeightMatrix};
        let width = per_group * groups;
        let (k0, k1) = (bounds.0 % (height + 1), bounds.1 % (height + 1));
        let (c0, c1) = (bounds.2 % (width + 1), bounds.3 % (width + 1));
        let (k, cols) = (k0.min(k1)..k0.max(k1), c0.min(c1)..c0.max(c1));
        let signed_zeros = |mut v: Vec<f32>| {
            for (i, x) in v.iter_mut().enumerate() {
                match i % 7 {
                    2 => *x = -0.0,
                    5 => *x = 0.0,
                    _ => {}
                }
            }
            v
        };
        let rows: Vec<Vec<f32>> = (0..groups)
            .map(|g| signed_zeros(pimcomp_exec::synth_input(seed, &format!("g{g}"), windows * height)))
            .collect();
        let weights = WeightMatrix {
            height,
            width,
            cols: signed_zeros(pimcomp_exec::synth_input(seed, "w", width * height)),
        };
        let panels: Vec<f32> = rows.iter().flat_map(|r| pack_rows(r, windows, height)).collect();
        let graph = pimcomp_ir::models::tiny_mlp();
        let before = pimcomp_exec::synth_input(seed, "out", width * windows);
        let mut out = before.clone();
        let job = MvmJob {
            node: &graph.nodes()[0],
            windows,
            height,
            width,
            groups,
            panels: &panels,
            weights,
        };
        job.gemm(cols.clone(), k.clone(), &mut out, accumulate);
        for c in 0..width {
            for w in 0..windows {
                let row = &rows[c / per_group][w * height..][k.clone()];
                let mut dot = 0.0f32;
                for (x, y) in row.iter().zip(&job.weights.cols[c * height..][k.clone()]) {
                    dot += x * y;
                }
                let cell = c * windows + w;
                let want = match (cols.contains(&c), accumulate) {
                    (false, _) => before[cell],
                    (true, false) => dot,
                    (true, true) => before[cell] + dot,
                };
                prop_assert_eq!(
                    out[cell].to_bits(),
                    want.to_bits(),
                    "cell ({}, {}) of {}x{}x{} groups {} cols {:?} k {:?}",
                    c, w, windows, height, width, groups, cols, k
                );
            }
        }
    }
}
