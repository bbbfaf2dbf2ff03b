//! Event-driven low-latency simulator.
//!
//! Executes the streaming pipeline of an [`LlSchedule`] at
//! sliding-window granularity: a consumer window starts once the
//! receptive-window prefix `(rd, cd)` of every provider is complete
//! (paper §IV-D.2). Modelled effects:
//!
//! * per-core MVM issue spacing (`T_interval`, the parallelism degree);
//! * per-replica crossbar occupancy (a replica's next window cannot
//!   start its MVMs before the previous window's crossbars free up);
//! * VFU serialization per core;
//! * NoC delay for partial-sum accumulation and inter-node forwarding;
//! * strided window assignment across replicas, so a node's output
//!   prefix completes smoothly.
//!
//! The engine prices nothing itself. It reads the [`LlCosts`] table
//! `pimcomp_core` builds once at run start — per unit, one window's VFU
//! pass, each replica's partial-sum transfers to its owner (the slowest
//! one's cycles and every one's energy, in order), the inbound
//! forwarding delay and the provider edges — and keeps only state,
//! queues and the clock.
//!
//! Before the run it lays the schedule and that table out flat
//! ([`Tables`]): one replica table indexed by a global id, `u32` in the
//! queue, whose order is `(unit, replica)` order; per unit, what every
//! window of it adds; one array of `(core, count)` pairs and one of
//! partial-sum energies, which each replica indexes by range. Each
//! replica carries the output `(row, col)` of its next window and steps
//! it by the unit's replica count, so neither the dependency check nor
//! the prefix advance divides per window.
//!
//! Replica tokens `(time, id)` wait in the queue both engines share
//! ([`EventQueue`]), with its near tier sized from the cost table, keyed
//! by time with the id breaking ties — the order of a min-heap of the
//! pairs, because no push is earlier than the time just popped: a
//! window popped at `now` completes at `t_done ≥ now`, and its replica
//! and its woken waiters are queued at `t_done` and `t_done` plus a
//! forwarding delay. A push at `now` may carry a smaller id than the one
//! just popped; it pops next. Every duration reaches the clock through
//! [`later`], so a time that would pass `u64::MAX` is
//! [`SimError::Diverged`], never a wrap.

use crate::report::{makespan_leakage_pj, Counters, SimReport};
use crate::resources::{later, ActivitySpan, EventQueue, Server, VFU};
use crate::SimError;
use pimcomp_arch::EnergyModel;
use pimcomp_core::{CompiledModel, LlCosts, LlEdge, LlSchedule, LlUnitKind};
use pimcomp_ir::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One replica in the engine's flat table, at its global id: its unit's
/// first id plus its index in the unit, so id order is `(unit, replica)`
/// order.
#[derive(Debug, Clone)]
struct Replica {
    /// Windows completed.
    done: usize,
    /// Windows assigned: `k, k + R, k + 2R, …` for replica `k` of `R`.
    windows: usize,
    /// Output `(row, col)` of the next window, `k + done · R`: stepped by
    /// `R` windows as each completes, never divided out of the index.
    row: usize,
    col: usize,
    unit: usize,
    owner: usize,
    /// The slowest partial-sum transfer to the owner (MVM units).
    remote_cycles: u64,
    /// Its `(core, count)` pairs in [`Tables::ags`] (MVM units).
    ags: Range<usize>,
    /// Its partial-sum energies in [`LlCosts::partial_pj`] (MVM units).
    pj: Range<usize>,
}

/// One unit, resolved once from the schedule, the partitioning and the
/// cost table.
#[derive(Debug, Clone)]
struct Unit {
    /// Global id of replica 0.
    first: usize,
    /// Replica count `R`.
    replicas: usize,
    windows: usize,
    node: usize,
    /// Output columns (at least 1), and `R` windows as `(rows, cols)`.
    width: usize,
    step: (usize, usize),
    /// Crossbars per AG; `None` for a vector unit.
    crossbars_per_ag: Option<u64>,
    /// NoC bytes of one partial sum, per sending core.
    partial_bytes: u64,
    local_bytes: u64,
    vfu_elems: u64,
    vfu_pass: u64,
    forward_cycles: u64,
    /// Its provider edges in [`Tables::edges`].
    edges: Range<usize>,
}

/// The schedule and its [`LlCosts`], laid out flat for the event loop.
struct Tables {
    units: Vec<Unit>,
    replicas: Vec<Replica>,
    /// Every MVM replica's `(core, count)` pairs, in `ags_per_core`
    /// order (cores are unique within a replica).
    ags: Vec<(usize, u64)>,
    /// Beside each of `ags`: the base time of the replica's previous
    /// issue group on that core (`u64::MAX`: none yet). Crossbar
    /// pipelining: the next window's MVMs start ≥ prev + T_MVM.
    prev_base: Vec<u64>,
    edges: Vec<LlEdge>,
    partial_pj: Vec<f64>,
}

impl Tables {
    fn new(compiled: &CompiledModel, schedule: &LlSchedule, costs: LlCosts) -> Self {
        let eb = compiled.hw.input_bytes_per_element();
        let graph = &compiled.graph;
        let mut t = Tables {
            units: Vec::with_capacity(schedule.units.len()),
            replicas: Vec::new(),
            ags: Vec::new(),
            prev_base: Vec::new(),
            edges: Vec::new(),
            partial_pj: costs.partial_pj,
        };
        for (uid, (u, c)) in schedule.units.iter().zip(costs.units).enumerate() {
            let r_count = u.replicas.len();
            let width = graph.node(u.node).output_shape.width().max(1);
            let (crossbars_per_ag, partial_bytes, local_bytes) = match u.kind {
                LlUnitKind::Mvm { mvm } => {
                    let entry = compiled.partitioning.entry(mvm);
                    (
                        Some(entry.crossbars_per_ag as u64),
                        (entry.weight_width * eb) as u64,
                        (entry.weight_height + entry.weight_width) as u64 * eb as u64,
                    )
                }
                LlUnitKind::Vector => (None, 0, (2 * u.elems_per_window * eb) as u64),
            };
            let edges = t.edges.len()..t.edges.len() + c.edges.len();
            t.edges.extend(c.edges);
            t.units.push(Unit {
                first: t.replicas.len(),
                replicas: r_count,
                windows: u.windows,
                node: u.node.index(),
                width,
                step: (r_count / width, r_count % width),
                crossbars_per_ag,
                partial_bytes,
                local_bytes,
                vfu_elems: u.vfu_elems_per_window as u64,
                vfu_pass: c.vfu_pass,
                forward_cycles: c.forward_cycles,
                edges,
            });
            for (k, r) in u.replicas.iter().enumerate() {
                let remote = c.remotes.get(k);
                let first_ag = t.ags.len();
                if crossbars_per_ag.is_some() {
                    let pairs = r.ags_per_core.iter().map(|&(core, n)| (core, n as u64));
                    t.ags.extend(pairs);
                }
                t.replicas.push(Replica {
                    done: 0,
                    windows: r.windows,
                    row: k / width,
                    col: k % width,
                    unit: uid,
                    owner: r.owner,
                    remote_cycles: remote.map_or(0, |m| m.cycles),
                    ags: first_ag..t.ags.len(),
                    pj: remote.map_or(0..0, |m| m.pj.clone()),
                });
            }
        }
        t.prev_base = vec![u64::MAX; t.ags.len()];
        t
    }

    /// The near-tier span of the event queue: above the longest single
    /// window — its largest issue group's `count × T_interval + T_MVM`,
    /// the partial-sum transfer, the VFU pass and the forwarding delay —
    /// so that a replica's next window and the waiters it wakes are
    /// usually filed in the wheel; at most 2^16 slots.
    fn near_span(&self, t_int: u64, t_mvm: u64) -> u64 {
        let longest = self.replicas.iter().map(|r| {
            let u = &self.units[r.unit];
            let group = self.ags[r.ags.clone()].iter().map(|&(_, n)| n).max();
            let mvm = group.map_or(0, |n| n.saturating_mul(t_int).saturating_add(t_mvm));
            [r.remote_cycles, u.vfu_pass, u.forward_cycles]
                .into_iter()
                .fold(mvm, u64::saturating_add)
        });
        let longest = longest.max().unwrap_or(0).min(1 << 16);
        (longest + 1).next_power_of_two().min(1 << 16)
    }
}

/// Runs the LL simulation for a compiled model.
pub(crate) fn run(
    compiled: &CompiledModel,
    energy_model: &EnergyModel,
) -> Result<SimReport, SimError> {
    let schedule = compiled
        .schedule
        .as_ll()
        .ok_or(SimError::WrongScheduleKind)?;
    let hw = &compiled.hw;
    let cores = hw.total_cores();
    let graph = &compiled.graph;
    let costs = LlCosts::new(hw, graph, &compiled.partitioning, &compiled.dep, schedule);
    let (t_int, t_mvm) = (costs.t_interval, costs.t_mvm);
    let tables = Tables::new(compiled, schedule, costs);
    let near_span = tables.near_span(t_int, t_mvm);
    let Tables {
        units,
        mut replicas,
        ags,
        mut prev_base,
        edges,
        partial_pj,
    } = tables;
    let ids = u32::try_from(replicas.len()).map_err(|_| SimError::Diverged {
        detail: format!("{} LL replicas overflow a u32 id", replicas.len()),
    })?;

    let mut issue_free = vec![0u64; cores];
    let mut vfu = vec![Server::default(); cores];
    let mut spans: Vec<ActivitySpan> = vec![ActivitySpan::default(); cores];

    // Node production prefixes (windows complete in row-major prefix)
    // and waiter lists, both dense by node index — the event loop hits
    // them on every dependency check and wake-up.
    let node_count = graph.node_count();
    let mut node_prefix: Vec<usize> = vec![0; node_count];
    // Prefix invariant: `unit_prefix[u]` is the first window of unit `u`
    // not yet complete, i.e. every window below it is. Window `p` is
    // replica `p % R`'s `p / R`-th, so it is complete once that
    // replica's `done` exceeds `p / R`. A node's prefix is the minimum
    // over its column-group units. (A unit without replicas never runs
    // and counts as complete.)
    let mut unit_prefix: Vec<usize> = units
        .iter()
        .map(|u| if u.replicas == 0 { u.windows } else { 0 })
        .collect();
    // Waiters: node index -> a min-heap of (threshold, replica id), so a
    // prefix advance pops exactly the waiters it satisfies. The order
    // they are re-queued in cannot matter: each replica owns one token,
    // so no two queued events share an id.
    let mut waiters: Vec<BinaryHeap<Reverse<(usize, u32)>>> = vec![BinaryHeap::new(); node_count];
    // Dense view of the schedule's units-of-node map, resolved once.
    let units_by_node: Vec<&[usize]> = (0..node_count)
        .map(|i| schedule.units_of(NodeId(i)))
        .collect();

    let mut counted = Counters {
        // Boundary global traffic (network inputs + outputs).
        global_bytes: compiled.memory.global_traffic as u64,
        ..Counters::default()
    };

    // Pop budget. Every replica owns one token, which is either queued
    // or parked in one provider's waiter list. A pop executes a window
    // or parks the token on the first provider whose prefix is short.
    // Prefixes only grow, and a parked token is requeued exactly when
    // its threshold is met, so a window parks at most once per
    // provider:
    //   pops <= sum over replicas of windows * (1 + providers),
    // plus one per replica for a token popped with nothing left to do.
    let work = replicas.iter().fold(0u64, |work, r| {
        let per_window = 1 + units[r.unit].edges.len() as u64;
        work.saturating_add((r.windows as u64).saturating_mul(per_window))
            .saturating_add(1)
    });
    let pop_budget = work.saturating_mul(2);

    let mut queue: EventQueue<u32> = EventQueue::with_near_span(near_span);
    for id in 0..ids {
        if replicas[id as usize].windows > 0 {
            queue.push(0, id);
        }
    }

    let mut last_done: u64 = 0;
    let mut pops: u64 = 0;

    while let Some((now, id)) = queue.pop() {
        pops += 1;
        #[cfg(test)]
        tests::POPS.with(|n| n.set(n.get() + 1));
        if pops > pop_budget {
            return Err(SimError::Diverged {
                detail: format!("LL event budget of {pop_budget} pops exceeded"),
            });
        }
        let rep = &replicas[id as usize];
        let uid = rep.unit;
        let u = &units[uid];
        let done = rep.done;
        if done >= rep.windows {
            continue;
        }
        let k = id as usize - u.first;
        let j = k + done * u.replicas; // global window index (strided)
        let (row, col) = (rep.row, rep.col);
        debug_assert_eq!((row, col), (j / u.width, j % u.width), "unit {uid}");

        // Dependency check.
        let ready = now;
        let mut needs = edges[u.edges.clone()]
            .iter()
            .map(|e| (e.provider, e.required(row, col)));
        if let Some((provider, req)) = needs.find(|&(p, req)| node_prefix[p] < req) {
            waiters[provider].push(Reverse((req, id)));
            continue;
        }

        // Execute the window.
        let owner = rep.owner;
        let t_done = match u.crossbars_per_ag {
            Some(crossbars_per_ag) => {
                let mut mvm_end = ready;
                for pos in rep.ags.clone() {
                    let (core, count) = ags[pos];
                    let prev = prev_base[pos];
                    let mut base = ready.max(issue_free[core]);
                    if prev != u64::MAX {
                        // At most that window's checked `end`.
                        base = base.max(prev + t_mvm);
                    }
                    issue_free[core] = later(base, count.saturating_mul(t_int), "an MVM window")?;
                    prev_base[pos] = base;
                    let end = later(
                        base,
                        (count - 1).saturating_mul(t_int).saturating_add(t_mvm),
                        "an MVM window",
                    )?;
                    mvm_end = mvm_end.max(end);
                    spans[core].record(base, end);
                    counted.mvm_ops += count;
                    counted.crossbar_mvms += count * crossbars_per_ag;
                }
                // Partial sums from remote cores to the owner.
                let arrive = later(mvm_end, rep.remote_cycles, "a NoC transfer")?;
                counted.noc_bytes += u.partial_bytes * rep.pj.len() as u64;
                for pj in &partial_pj[rep.pj.clone()] {
                    counted.noc_pj += pj;
                }
                // Accumulate + activate on the owner's VFU.
                let t = vfu[owner].acquire(arrive, u.vfu_pass, VFU)?;
                counted.vfu_elems += u.vfu_elems;
                counted.local_bytes += u.local_bytes;
                spans[owner].record(arrive, t);
                t
            }
            None if u.vfu_elems == 0 => ready,
            None => {
                let t = vfu[owner].acquire(ready, u.vfu_pass, VFU)?;
                counted.vfu_elems += u.vfu_elems;
                counted.local_bytes += u.local_bytes;
                spans[owner].record(ready, t);
                t
            }
        };

        let rep = &mut replicas[id as usize];
        rep.done += 1;
        rep.col += u.step.1;
        rep.row += u.step.0;
        if rep.col >= u.width {
            rep.col -= u.width;
            rep.row += 1;
        }
        let more = rep.done < rep.windows;
        last_done = last_done.max(t_done);

        // Update the node's production prefix and wake waiters. The
        // unit's prefix moves only when the window that just finished
        // was the prefix window; it then runs past every later window
        // already complete — one step per window over the whole run,
        // walking (replica, round) in step with the window.
        let node = u.node;
        let old = node_prefix[node];
        if j == unit_prefix[uid] {
            let (mut p, mut kk, mut round) = (j, k, done);
            while p < u.windows && replicas[u.first + kk].done > round {
                p += 1;
                kk += 1;
                if kk == u.replicas {
                    kk = 0;
                    round += 1;
                }
            }
            unit_prefix[uid] = p;
            let node_units = units_by_node[node].iter();
            node_prefix[node] = node_units.map(|&v| unit_prefix[v]).min().unwrap_or(0);
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            node_prefix[node],
            node_prefix_of(&units, units_by_node[node], &replicas),
            "unit {uid} window {j}"
        );
        let prefix = node_prefix[node];
        if prefix > old {
            let heap = &mut waiters[node];
            while let Some(&Reverse((thr, waiter))) = heap.peek() {
                if thr > prefix {
                    break;
                }
                heap.pop();
                // Forwarding latency applies once per wake; the
                // transfers of subsequent ready windows overlap with
                // compute (wormhole pipelining).
                let forward = units[replicas[waiter as usize].unit].forward_cycles;
                queue.push(later(t_done, forward, "a NoC transfer")?, waiter);
            }
        }

        // Next window of this replica.
        if more {
            queue.push(t_done, id);
        }
    }

    // Completion check.
    for (uid, u) in schedule.units.iter().enumerate() {
        for (k, r) in replicas[units[uid].first..][..u.replicas.len()]
            .iter()
            .enumerate()
        {
            if r.done < r.windows {
                return Err(SimError::Deadlock {
                    detail: format!(
                        "unit {uid} ({}) replica {k}: {}/{} windows",
                        u.name, r.done, r.windows
                    ),
                });
            }
        }
    }

    let latency = last_done;
    let active = spans.iter().filter(|s| s.is_active()).count();
    // LL leakage: cores hold live inter-layer state, so every active
    // core leaks over the whole inference (paper §V-B.2: "the active
    // time of each core is related to the overall inference time").
    let leak = makespan_leakage_pj(energy_model, hw, active, latency);
    let busy = spans.iter().map(|s| s.busy_cycles()).collect();
    Ok(counted.into_report(compiled, energy_model, latency, leak, active, busy))
}

/// Prefix-complete window count of a node, rescanned from every
/// replica: the strided minimum across replicas, then the minimum across
/// the node's column-group units. The oracle debug builds hold the
/// incremental `unit_prefix` bookkeeping to after every window.
#[cfg(debug_assertions)]
fn node_prefix_of(units: &[Unit], unit_ids: &[usize], replicas: &[Replica]) -> usize {
    if unit_ids.is_empty() {
        return 0;
    }
    let mut prefix = usize::MAX;
    for &uid in unit_ids {
        let u = &units[uid];
        let mut up = u.windows;
        for (k, r) in replicas[u.first..][..u.replicas].iter().enumerate() {
            let frontier = k + r.done * u.replicas;
            if frontier < u.windows {
                up = up.min(frontier);
            }
        }
        prefix = prefix.min(up);
    }
    if prefix == usize::MAX {
        0
    } else {
        prefix
    }
}

#[cfg(test)]
mod tests {
    use crate::Simulator;
    use pimcomp_arch::{HardwareConfig, PipelineMode};
    use pimcomp_core::{sized_chips, CompileOptions, CompileSession, GaParams, DEFAULT_HEADROOM};
    use pimcomp_ir::{models, transform::normalize};
    use std::cell::Cell;

    thread_local! {
        /// Queue entries this thread's LL runs popped: windows run,
        /// tokens parked on a provider, and finished tokens.
        pub(crate) static POPS: Cell<u64> = const { Cell::new(0) };
    }

    /// The five `simulate_paper` LL mappings (GA 20×30, seed 1, the
    /// paper targets): their pops and windows. An engine change that
    /// keeps every pop in its `(time, unit, replica)` order keeps both
    /// counts; `--nocapture` prints them.
    #[test]
    #[ignore = "paper scale: run in release"]
    fn paper_mappings_pop_the_pinned_event_counts() {
        let ga = GaParams {
            population: 20,
            iterations: 30,
            seed: 1,
            ..GaParams::default()
        };
        let mut counts = Vec::new();
        for name in models::PAPER_BENCHMARKS {
            let graph = models::by_name(name).and_then(|g| normalize(&g).ok());
            let graph = graph.expect("paper benchmark resolves");
            let chips = sized_chips(&graph, &HardwareConfig::puma(), DEFAULT_HEADROOM).unwrap();
            let hw = HardwareConfig::puma_with_chips(chips).with_parallelism(20);
            let opts = CompileOptions::new(PipelineMode::LowLatency).with_ga(ga.clone());
            let compiled = CompileSession::new(hw.clone(), &graph, opts)
                .and_then(CompileSession::run)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let units = &compiled.schedule.as_ll().expect("an LL schedule").units;
            let windows: usize = units
                .iter()
                .filter(|u| !u.replicas.is_empty())
                .map(|u| u.windows)
                .sum();
            POPS.with(|n| n.set(0));
            Simulator::new(hw).run(&compiled).unwrap();
            let pops = POPS.with(Cell::get);
            println!("{name}: {pops} pops, {windows} windows");
            counts.push((name, pops, windows));
        }
        assert_eq!(
            counts,
            [
                ("vgg16", 176_552, 154_508),
                ("resnet18", 62_979, 50_032),
                ("googlenet", 60_335, 50_424),
                ("inception_v3", 175_053, 135_975),
                ("squeezenet", 80_592, 63_198),
            ]
        );
    }
}
