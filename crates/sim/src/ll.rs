//! Event-driven low-latency simulator.
//!
//! Executes the streaming pipeline of an
//! [`LlSchedule`](pimcomp_core::LlSchedule) at sliding-window
//! granularity: a consumer window starts once the receptive-window
//! prefix `(rd, cd)` of every provider is complete (paper §IV-D.2).
//! Modelled effects:
//!
//! * per-core MVM issue spacing (`T_interval`, the parallelism degree);
//! * per-replica crossbar occupancy (a replica's next window cannot
//!   start its MVMs before the previous window's crossbars free up);
//! * VFU serialization per core;
//! * NoC delay for partial-sum accumulation and inter-node forwarding;
//! * strided window assignment across replicas, so a node's output
//!   prefix completes smoothly.

use crate::report::{makespan_leakage_pj, Counters, SimReport};
use crate::resources::ActivitySpan;
use crate::{invalid, SimError};
use pimcomp_arch::{EnergyModel, NocModel};
use pimcomp_core::{required_windows, CompiledModel, DepRule, LlSchedule, LlUnitKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-replica runtime state.
#[derive(Debug, Clone)]
struct ReplicaRt {
    /// Windows completed by this replica.
    done: usize,
    /// Base time of the previous window's MVM issue group, aligned by
    /// position with the replica's `ags_per_core` list (cores are
    /// unique within a replica); `u64::MAX` = no previous window.
    /// Crossbar pipelining: next window's MVMs start ≥ prev + T_MVM.
    prev_base: Vec<u64>,
}

/// One `(unit, provider)` edge as the dependency check reads it,
/// resolved once instead of through the edge map and both graph nodes
/// on every check.
struct Edge {
    /// Provider node index.
    provider: usize,
    /// `None` when the dependency analysis has no such edge: nothing is
    /// required of the provider.
    rule: Option<DepRule>,
    consumer_dims: (usize, usize),
    consumer_windows: usize,
    provider_dims: (usize, usize),
    provider_windows: usize,
}

impl Edge {
    /// Provider windows (prefix length) consumer window `j` needs.
    fn required(&self, j: usize) -> usize {
        self.rule.map_or(0, |rule| {
            required_windows(
                rule,
                j,
                self.consumer_dims,
                self.consumer_windows,
                self.provider_dims,
                self.provider_windows,
            )
        })
    }
}

/// The partial-sum traffic of one window of an MVM replica: every core
/// but the owner sends its share to the owner.
struct Remote {
    /// The slowest of those transfers (0 when the owner holds every AG).
    cycles: u64,
    /// Energy of each, in `ags_per_core` order: they are added to the
    /// run's `f64` total one by one, and the total depends on the order.
    pj: Vec<f64>,
}

/// Checks every index the event loop follows (artifacts are
/// deserialized unvalidated), once, before any state is sized from it.
fn validate(compiled: &CompiledModel, schedule: &LlSchedule) -> Result<(), SimError> {
    let cores = compiled.hw.total_cores();
    let nodes = compiled.graph.node_count().min(compiled.dep.windows.len());
    let entries = compiled.partitioning.entries().len();
    let units = &schedule.units;
    let listed = schedule.units_of_node.values().flatten();
    if let Some(v) = listed.filter(|&&v| v >= units.len()).min() {
        return Err(invalid(format!("`units_of_node` lists unit {v}")));
    }
    for (uid, u) in units.iter().enumerate() {
        let mut refs = std::iter::once(u.node).chain(u.providers.iter().map(|p| p.node));
        if let Some(n) = refs.find(|n| n.index() >= nodes) {
            return Err(invalid(format!("unit {uid} refers to node {}", n.index())));
        }
        if matches!(u.kind, LlUnitKind::Mvm { mvm } if mvm >= entries) {
            return Err(invalid(format!("unit {uid} computes {:?}", u.kind)));
        }
        let r_count = u.replicas.len();
        for (k, r) in u.replicas.iter().enumerate() {
            // The owner accumulates; every listed core issues >= 1 AG.
            let mut used = r.ags_per_core.iter().copied().chain([(r.owner, 1)]);
            if let Some((core, count)) = used.find(|&(core, count)| core >= cores || count == 0) {
                return Err(invalid(format!(
                    "unit {uid} replica {k} runs {count} AGs on core {core}"
                )));
            }
            // Window `j` is replica `j % R`'s `j / R`-th, so replica `k`
            // holds at most `ceil((windows - k) / R)`. (Fewer is not an
            // index hazard: it starves the consumers and ends in
            // `Deadlock`.)
            if r.windows > u.windows.saturating_sub(k).div_ceil(r_count) {
                return Err(invalid(format!(
                    "unit {uid} replica {k} claims {} of the unit's {} windows",
                    r.windows, u.windows
                )));
            }
        }
    }
    Ok(())
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
    validate(compiled, schedule)?;
    let hw = &compiled.hw;
    let noc = NocModel::new(hw);
    let cores = hw.total_cores();
    let eb = hw.input_bytes_per_element();
    let t_int = hw.issue_interval();
    let t_mvm = hw.mvm_latency;
    let units = &schedule.units;

    // Runtime state.
    let mut reps: Vec<Vec<ReplicaRt>> = units
        .iter()
        .map(|u| {
            u.replicas
                .iter()
                .map(|r| ReplicaRt {
                    done: 0,
                    prev_base: vec![u64::MAX; r.ags_per_core.len()],
                })
                .collect()
        })
        .collect();
    let mut issue_free = vec![0u64; cores];
    let mut vfu_free = vec![0u64; cores];
    let mut spans: Vec<ActivitySpan> = vec![ActivitySpan::default(); cores];

    // Node production prefixes (windows complete in row-major prefix)
    // and waiter lists, both dense by node index — the event loop hits
    // them on every dependency check and wake-up.
    let node_count = compiled.graph.node_count();
    let mut node_prefix: Vec<usize> = vec![0; node_count];
    // Prefix invariant: `unit_prefix[u]` is the first window of unit `u`
    // not yet complete, i.e. every window below it is. Window `p` is
    // replica `p % R`'s `p / R`-th, so it is complete once that
    // replica's `done` exceeds `p / R`. A node's prefix is the minimum
    // over its column-group units. (A unit without replicas never runs
    // and counts as complete.)
    let mut unit_prefix: Vec<usize> = units
        .iter()
        .map(|u| if u.replicas.is_empty() { u.windows } else { 0 })
        .collect();
    // Waiters: node index -> (unit, replica, threshold).
    let mut waiters: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); node_count];
    // Dense view of the schedule's units-of-node map, resolved once.
    let empty_units: Vec<usize> = Vec::new();
    let units_by_node: Vec<&[usize]> = (0..node_count)
        .map(|i| {
            schedule
                .units_of_node
                .get(&i)
                .map_or(empty_units.as_slice(), |v| v.as_slice())
        })
        .collect();

    let mut counted = Counters {
        // Boundary global traffic (network inputs + outputs).
        global_bytes: compiled.memory.global_traffic as u64,
        ..Counters::default()
    };

    // Pre-computed per-unit inbound forwarding delay (provider owner ->
    // consumer owner, one window's payload).
    let dep_delay: Vec<u64> = units
        .iter()
        .map(|u| {
            let dst = u.replicas.first().map_or(0, |r| r.owner);
            u.providers
                .iter()
                .map(|p| {
                    let p_units = schedule.units_of(p.node);
                    let src = p_units
                        .first()
                        .and_then(|&pu| units[pu].replicas.first())
                        .map_or(dst, |r| r.owner);
                    let bytes = p_units
                        .first()
                        .map_or(0, |&pu| units[pu].elems_per_window * eb);
                    noc.transfer_cycles(src, dst, bytes)
                })
                .max()
                .unwrap_or(0)
        })
        .collect();

    let graph = &compiled.graph;
    let dims = |id| {
        let shape = &graph.node(id).output_shape;
        (shape.height(), shape.width())
    };
    let edges: Vec<Vec<Edge>> = units
        .iter()
        .map(|u| {
            let of = |p: &pimcomp_core::LlProviderRef| Edge {
                provider: p.node.index(),
                rule: compiled.dep.edge(u.node, p.node).map(|dep| dep.rule),
                consumer_dims: dims(u.node),
                consumer_windows: compiled.dep.windows_of(u.node),
                provider_dims: dims(p.node),
                provider_windows: compiled.dep.windows_of(p.node),
            };
            u.providers.iter().map(of).collect()
        })
        .collect();
    let remotes: Vec<Vec<Remote>> = units
        .iter()
        .map(|u| {
            let LlUnitKind::Mvm { mvm } = u.kind else {
                return Vec::new();
            };
            let bytes = compiled.partitioning.entry(mvm).weight_width * eb;
            let of = |r: &pimcomp_core::LlReplica| {
                let senders = r.ags_per_core.iter().filter(|&&(core, _)| core != r.owner);
                Remote {
                    cycles: senders
                        .clone()
                        .map(|&(core, _)| noc.transfer_cycles(core, r.owner, bytes))
                        .max()
                        .unwrap_or(0),
                    pj: senders
                        .map(|&(core, _)| noc.transfer_energy_pj(core, r.owner, bytes))
                        .collect(),
                }
            };
            u.replicas.iter().map(of).collect()
        })
        .collect();

    // Pop budget. Every replica owns one token, which is either queued
    // or parked in one provider's waiter list. A pop executes a window
    // or parks the token on the first provider whose prefix is short.
    // Prefixes only grow, and a parked token is requeued exactly when
    // its threshold is met, so a window parks at most once per
    // provider:
    //   pops <= sum over replicas of windows * (1 + providers),
    // plus one per replica for a token popped with nothing left to do.
    let work = units.iter().fold(0u64, |work, u| {
        let per_window = 1 + u.providers.len() as u64;
        u.replicas.iter().fold(work, |work, r| {
            work.saturating_add((r.windows as u64).saturating_mul(per_window))
                .saturating_add(1)
        })
    });
    let pop_budget = work.saturating_mul(2);

    let mut queue: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    for (uid, u) in units.iter().enumerate() {
        for (k, r) in u.replicas.iter().enumerate() {
            if r.windows > 0 {
                queue.push(Reverse((0, uid, k)));
            }
        }
    }

    let mut last_done: u64 = 0;
    let mut pops: u64 = 0;

    while let Some(Reverse((now, uid, k))) = queue.pop() {
        pops += 1;
        if pops > pop_budget {
            return Err(SimError::Diverged {
                detail: format!("LL event budget of {pop_budget} pops exceeded"),
            });
        }
        let u = &units[uid];
        let rep_spec = &u.replicas[k];
        let r_count = u.replicas.len();
        let done = reps[uid][k].done;
        if done >= rep_spec.windows {
            continue;
        }
        let j = k + done * r_count; // global window index (strided)

        // Dependency check.
        let ready = now;
        let mut blocked = false;
        for edge in &edges[uid] {
            let req = edge.required(j);
            if node_prefix[edge.provider] < req {
                waiters[edge.provider].push((uid, k, req));
                blocked = true;
                break;
            }
        }
        if blocked {
            continue;
        }

        // Execute the window.
        let t_done = match u.kind {
            LlUnitKind::Mvm { mvm } => {
                let entry = compiled.partitioning.entry(mvm);
                let mut mvm_end = ready;
                for (pos, &(core, count)) in rep_spec.ags_per_core.iter().enumerate() {
                    let prev = reps[uid][k].prev_base[pos];
                    let mut base = ready.max(issue_free[core]);
                    if prev != u64::MAX {
                        base = base.max(prev + t_mvm);
                    }
                    issue_free[core] = base + count as u64 * t_int;
                    reps[uid][k].prev_base[pos] = base;
                    let end = base + (count as u64 - 1) * t_int + t_mvm;
                    mvm_end = mvm_end.max(end);
                    spans[core].record(base, end);
                    counted.mvm_ops += count as u64;
                    counted.crossbar_mvms += count as u64 * entry.crossbars_per_ag as u64;
                }
                // Partial sums from remote cores to the owner.
                let owner = rep_spec.owner;
                let remote = &remotes[uid][k];
                let arrive = mvm_end + remote.cycles;
                counted.noc_bytes += (entry.weight_width * eb * remote.pj.len()) as u64;
                for pj in &remote.pj {
                    counted.noc_pj += pj;
                }
                // Accumulate + activate on the owner's VFU.
                let w = u.vfu_elems_per_window;
                let t = vfu_free[owner].max(arrive) + hw.vfu_cycles(w);
                vfu_free[owner] = t;
                counted.vfu_elems += w as u64;
                counted.local_bytes +=
                    (entry.weight_height + entry.weight_width) as u64 * eb as u64;
                spans[owner].record(arrive, t);
                t
            }
            LlUnitKind::Vector => {
                let owner = rep_spec.owner;
                let w = u.vfu_elems_per_window;
                if w == 0 {
                    ready
                } else {
                    let t = vfu_free[owner].max(ready) + hw.vfu_cycles(w);
                    vfu_free[owner] = t;
                    counted.vfu_elems += w as u64;
                    counted.local_bytes += (2 * u.elems_per_window * eb) as u64;
                    spans[owner].record(ready, t);
                    t
                }
            }
        };

        reps[uid][k].done += 1;
        last_done = last_done.max(t_done);

        // Update the node's production prefix and wake waiters. The
        // unit's prefix moves only when the window that just finished
        // was the prefix window; it then runs past every later window
        // already complete — one step per window over the whole run.
        let node = u.node.index();
        let old = node_prefix[node];
        if j == unit_prefix[uid] {
            let mut p = j;
            while p < u.windows && reps[uid][p % r_count].done > p / r_count {
                p += 1;
            }
            unit_prefix[uid] = p;
            let node_units = units_by_node[node].iter();
            node_prefix[node] = node_units.map(|&v| unit_prefix[v]).min().unwrap_or(0);
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            node_prefix[node],
            node_prefix_of(units, units_by_node[node], &reps),
            "unit {uid} window {j}"
        );
        let prefix = node_prefix[node];
        if prefix > old {
            let list = &mut waiters[node];
            let mut kept = 0;
            for i in 0..list.len() {
                let (wu, wk, thr) = list[i];
                if thr <= prefix {
                    // Forwarding latency applies once per wake; the
                    // transfers of subsequent ready windows overlap
                    // with compute (wormhole pipelining).
                    queue.push(Reverse((t_done + dep_delay[wu], wu, wk)));
                } else {
                    list[kept] = (wu, wk, thr);
                    kept += 1;
                }
            }
            list.truncate(kept);
        }

        // Next window of this replica.
        if reps[uid][k].done < rep_spec.windows {
            queue.push(Reverse((t_done, uid, k)));
        }
    }

    // Completion check.
    for (uid, u) in units.iter().enumerate() {
        for (k, r) in u.replicas.iter().enumerate() {
            if reps[uid][k].done < r.windows {
                return Err(SimError::Deadlock {
                    detail: format!(
                        "unit {uid} ({}) replica {k}: {}/{} windows",
                        u.name, reps[uid][k].done, r.windows
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
fn node_prefix_of(
    units: &[pimcomp_core::LlUnit],
    unit_ids: &[usize],
    reps: &[Vec<ReplicaRt>],
) -> usize {
    if unit_ids.is_empty() {
        return 0;
    }
    let mut prefix = usize::MAX;
    for &uid in unit_ids {
        let u = &units[uid];
        let r = u.replicas.len();
        let mut up = u.windows;
        for (k, _) in u.replicas.iter().enumerate() {
            let done = reps[uid][k].done;
            let frontier = k + done * r;
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
