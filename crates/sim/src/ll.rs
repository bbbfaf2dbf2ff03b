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
//!
//! The engine prices nothing itself. It reads the [`LlCosts`] table
//! `pimcomp_core` builds once at run start — per unit, one window's VFU
//! pass, each replica's partial-sum transfers to its owner (the slowest
//! one's cycles and every one's energy, in order), the inbound
//! forwarding delay and the provider edges — and keeps only state,
//! queues and the clock.
//!
//! Replica tokens `(time, unit, replica)` wait in the monotone radix
//! heap both engines share ([`EventQueue`]), keyed by time with
//! `(unit, replica)` breaking ties — the order of a min-heap of the
//! triples, because no push is earlier than the time just popped: a
//! window popped at `now` completes at `t_done ≥ now`, and its replica
//! and its woken waiters are queued at `t_done` and `t_done` plus a
//! forwarding delay. A push at `now` may carry a smaller `(unit,
//! replica)` than the one just popped; it pops next. Every duration
//! reaches the clock through [`later`], so a time that would pass
//! `u64::MAX` is [`SimError::Diverged`], never a wrap.

use crate::report::{makespan_leakage_pj, Counters, SimReport};
use crate::resources::{later, ActivitySpan, EventQueue, Server, VFU};
use crate::SimError;
use pimcomp_arch::EnergyModel;
use pimcomp_core::{CompiledModel, LlCosts, LlUnitKind};
use pimcomp_ir::NodeId;
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
    let eb = hw.input_bytes_per_element();
    let graph = &compiled.graph;
    let costs = LlCosts::new(hw, graph, &compiled.partitioning, &compiled.dep, schedule);
    let (t_int, t_mvm, costs) = (costs.t_interval, costs.t_mvm, costs.units);
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
        .map(|u| if u.replicas.is_empty() { u.windows } else { 0 })
        .collect();
    // Waiters: node index -> a min-heap of (threshold, unit, replica), so
    // a prefix advance pops exactly the waiters it satisfies. The order
    // they are re-queued in cannot matter: each replica owns one token,
    // so no two queued events share a `(unit, replica)` key.
    let mut waiters: Vec<BinaryHeap<Reverse<(usize, usize, usize)>>> =
        vec![BinaryHeap::new(); node_count];
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
    let work = units.iter().fold(0u64, |work, u| {
        let per_window = 1 + u.providers.len() as u64;
        u.replicas.iter().fold(work, |work, r| {
            work.saturating_add((r.windows as u64).saturating_mul(per_window))
                .saturating_add(1)
        })
    });
    let pop_budget = work.saturating_mul(2);

    let mut queue: EventQueue<(usize, usize)> = EventQueue::new();
    for (uid, u) in units.iter().enumerate() {
        for (k, r) in u.replicas.iter().enumerate() {
            if r.windows > 0 {
                queue.push(0, (uid, k));
            }
        }
    }

    let mut last_done: u64 = 0;
    let mut pops: u64 = 0;

    while let Some((now, (uid, k))) = queue.pop() {
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
        let edges = costs[uid].edges.iter();
        let mut needs = edges.map(|e| (e.provider, e.required(j)));
        if let Some((provider, req)) = needs.find(|&(p, req)| node_prefix[p] < req) {
            waiters[provider].push(Reverse((req, uid, k)));
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
                        // At most that window's checked `end`.
                        base = base.max(prev + t_mvm);
                    }
                    let count = count as u64;
                    issue_free[core] = later(base, count.saturating_mul(t_int), "an MVM window")?;
                    reps[uid][k].prev_base[pos] = base;
                    let end = later(
                        base,
                        (count - 1).saturating_mul(t_int).saturating_add(t_mvm),
                        "an MVM window",
                    )?;
                    mvm_end = mvm_end.max(end);
                    spans[core].record(base, end);
                    counted.mvm_ops += count;
                    counted.crossbar_mvms += count * entry.crossbars_per_ag as u64;
                }
                // Partial sums from remote cores to the owner.
                let owner = rep_spec.owner;
                let remote = &costs[uid].remotes[k];
                let arrive = later(mvm_end, remote.cycles, "a NoC transfer")?;
                counted.noc_bytes += (entry.weight_width * eb * remote.pj.len()) as u64;
                for pj in &remote.pj {
                    counted.noc_pj += pj;
                }
                // Accumulate + activate on the owner's VFU.
                let t = vfu[owner].acquire(arrive, costs[uid].vfu_pass, VFU)?;
                counted.vfu_elems += u.vfu_elems_per_window as u64;
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
                    let t = vfu[owner].acquire(ready, costs[uid].vfu_pass, VFU)?;
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
            let heap = &mut waiters[node];
            while let Some(&Reverse((thr, wu, wk))) = heap.peek() {
                if thr > prefix {
                    break;
                }
                heap.pop();
                // Forwarding latency applies once per wake; the
                // transfers of subsequent ready windows overlap with
                // compute (wormhole pipelining).
                queue.push(
                    later(t_done, costs[wu].forward_cycles, "a NoC transfer")?,
                    (wu, wk),
                );
            }
        }

        // Next window of this replica.
        if reps[uid][k].done < rep_spec.windows {
            queue.push(t_done, (uid, k));
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
