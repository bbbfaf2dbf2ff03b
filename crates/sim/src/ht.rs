//! Event-driven high-throughput simulator.
//!
//! Executes the per-core round programs of an
//! [`HtSchedule`](pimcomp_core::HtSchedule), modelling:
//!
//! * **structural conflicts** — consecutive MVMs on the same AG
//!   serialize on its crossbars;
//! * **issue bandwidth** — MVM launches within a core are spaced by
//!   `T_interval` (the parallelism-degree knob);
//! * **global-memory contention** — one FCFS port shared by all cores,
//!   acquired strictly in event-time order (no future reservations, so
//!   a slow core cannot convoy the whole machine);
//! * **inter-core synchronization** — partial-sum accumulation at each
//!   replica's owner core blocks on NoC message arrival;
//! * **memory-policy spills** — working sets beyond local capacity add
//!   write-out/read-back traffic every round.
//!
//! In HT mode different layers process different inferences, so each
//! core's program is internally independent; the steady-state pipeline
//! interval is the bottleneck core's completion time, and throughput is
//! its reciprocal.
//!
//! # Event model
//!
//! The queue holds *wake tokens*. A token `(time, core)` entitles
//! `core` to try to run one item — a phase of one of its programs or
//! vec tasks — at `time`, scanning its items round-robin from a cursor.
//! A token that runs an item is consumed, and the run spawns tokens for
//! the times at which something new can happen: the item's next phase,
//! the issue slot clearing, a partial sum arriving at its owner core. A
//! token that finds nothing runnable sleeps until the core's earliest
//! pending store, or retires if there is none.
//!
//! Tokens are anonymous and a failed attempt changes no state, so the
//! tokens of one `(time, core)` are interchangeable. The heap therefore
//! stores them as one `(time, core, count)` group: the group runs items
//! one token at a time until an attempt fails, and what is left of it
//! sleeps as a single entry. Kept apart, every sleeping token would be
//! popped, rescan the core and be pushed back at every wake time — and
//! since a run spawns more tokens than it consumes, events would grow
//! quadratically with the work simulated.

use crate::report::{Counters, SimReport};
use crate::resources::{ActivitySpan, BandwidthServer};
use crate::{invalid, SimError};
use pimcomp_arch::{EnergyModel, HardwareConfig, NocModel};
use pimcomp_core::{CompiledModel, HtSchedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-program execution phase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Next round's load + MVMs + local adds still to run.
    Compute { round: usize },
    /// Local work of `round` done at `ready`; waiting for partials.
    AwaitPartials { round: usize, ready: u64 },
    /// Computation of `round` done at `at`; the result store is issued
    /// once simulated time reaches `at` (keeps the shared port causal).
    StorePending { round: usize, at: u64 },
    /// All rounds complete.
    Done,
}

/// Per-vec-task execution phase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VecPhase {
    NotStarted,
    StorePending { at: u64 },
    Done,
}

/// One entry of a core's round-robin scan list.
#[derive(Debug, Clone, Copy)]
enum Item {
    Program(usize),
    VecTask(usize),
}

/// A per-round partial-sum message with its NoC cost.
struct Send {
    to_core: usize,
    /// The program on `to_core` accumulating this node, if any.
    owner: Option<usize>,
    bytes: u64,
    cycles: u64,
    energy_pj: f64,
}

/// The per-round constants of one program.
struct Round {
    /// Global-memory load: the inputs plus the program's share of its
    /// core's spill write-out/read-back traffic.
    load_bytes: usize,
    crossbars_per_ag: u64,
    /// VFU element-operations once every partial arrived (remote adds
    /// + activation); zero for programs that own no remote slices.
    remote_add_elems: usize,
    /// VFU element-operations right after the MVMs (intra-core adds).
    local_add_elems: usize,
    sends: Vec<Send>,
}

/// Everything the event loop reads, validated and computed once.
struct Tables {
    rounds: Vec<Round>,
    /// Per core: its unfinished programs, then its vec tasks, in
    /// schedule order. Finished items are removed as the run proceeds.
    scan: Vec<Vec<Item>>,
    /// Upper bound on scan attempts; see [`Tables::build`].
    attempt_budget: u64,
}

impl Tables {
    /// Checks every index the event loop follows (artifacts are
    /// deserialized unvalidated) and hoists what it would otherwise
    /// recompute every round.
    fn build(
        compiled: &CompiledModel,
        schedule: &HtSchedule,
        noc: &NocModel,
    ) -> Result<Self, SimError> {
        let cores = compiled.hw.total_cores();
        let spill = &compiled.memory.spill_bytes_per_round;
        for (list, len) in [
            ("per_core", schedule.per_core.len()),
            ("vec_per_core", schedule.vec_per_core.len()),
            ("spill_bytes_per_round", spill.len()),
        ] {
            if len != cores {
                return Err(invalid(format!(
                    "`{list}` covers {len} cores, the hardware has {cores}"
                )));
            }
        }
        let entries = compiled.partitioning.entries();
        let instances = compiled.mapping.instances.len();
        for (pid, p) in schedule.programs.iter().enumerate() {
            if p.core >= cores {
                return Err(invalid(format!("program {pid} runs on core {}", p.core)));
            }
            if p.mvm >= entries.len() {
                return Err(invalid(format!("program {pid} computes node {}", p.mvm)));
            }
            if let Some(inst) = p.ag_instances.iter().find(|&&i| i >= instances) {
                return Err(invalid(format!("program {pid} uses AG instance {inst}")));
            }
            if let Some(s) = p.sends_per_round.iter().find(|s| s.to_core >= cores) {
                return Err(invalid(format!(
                    "program {pid} sends to core {}",
                    s.to_core
                )));
            }
        }

        // Owner-program index: (core, mvm) -> program id, dense.
        let mvm_stride = entries.len();
        let mut prog_at: Vec<Option<usize>> = vec![None; cores * mvm_stride];
        for (pid, p) in schedule.programs.iter().enumerate() {
            prog_at[p.core * mvm_stride + p.mvm] = Some(pid);
        }

        let mut scan = Vec::with_capacity(cores);
        for core in 0..cores {
            let mut items = Vec::new();
            for &pid in &schedule.per_core[core] {
                match schedule.programs.get(pid) {
                    Some(p) if p.core == core => {
                        if p.rounds > 0 {
                            items.push(Item::Program(pid));
                        }
                    }
                    _ => {
                        return Err(invalid(format!(
                            "core {core} lists program {pid}, which is not one of its programs"
                        )))
                    }
                }
            }
            for &vid in &schedule.vec_per_core[core] {
                if vid >= schedule.vec_tasks.len() {
                    return Err(invalid(format!("core {core} lists vec task {vid}")));
                }
                items.push(Item::VecTask(vid));
            }
            scan.push(items);
        }

        let rounds = schedule
            .programs
            .iter()
            .map(|p| {
                let entry = &entries[p.mvm];
                let recvs = p.recvs_per_round;
                let remote_add_elems = if recvs > 0 {
                    (recvs + 1) * entry.weight_width * schedule.batch
                } else {
                    0
                };
                let spill_share = 2 * spill[p.core] / schedule.per_core[p.core].len().max(1);
                Round {
                    load_bytes: p.load_bytes_per_round + spill_share,
                    crossbars_per_ag: entry.crossbars_per_ag as u64,
                    remote_add_elems,
                    local_add_elems: p.vec_elems_per_round.saturating_sub(remote_add_elems),
                    sends: p
                        .sends_per_round
                        .iter()
                        .map(|s| Send {
                            to_core: s.to_core,
                            owner: prog_at[s.to_core * mvm_stride + p.mvm],
                            bytes: s.bytes as u64,
                            cycles: noc.transfer_cycles(p.core, s.to_core, s.bytes),
                            energy_pj: noc.transfer_energy_pj(p.core, s.to_core, s.bytes),
                        })
                        .collect(),
                }
            })
            .collect();

        // Attempt budget. An attempt either runs an item or fails and
        // ends its token group.
        //   runs   <= sum(3 * rounds) + 2 * vec tasks
        //             (compute, accumulate, store; load+VFU, store)
        //   tokens <= cores + sum(rounds * (4 + sends)) + 3 * vec tasks
        //             (one per core at t=0; a compute run spawns
        //             2 + sends, a vec-task start 2, any other run 1)
        // A group fails at most once. Groups that ran something first
        // number <= runs; a group that ran nothing holds a token that
        // was never popped before (a group made only of sleepers wakes
        // when a store of its core falls due, so it runs), and there
        // are <= tokens of those. Hence
        //   attempts <= 2 * runs + tokens <= 4 * work,
        //   work = sum(rounds * (3 + sends)) + 2 * vec tasks + cores.
        // Exceeding it means a scheduling loop — or wake-ups that have
        // gone quadratic again.
        let work = schedule
            .programs
            .iter()
            .map(|p| (p.rounds as u64).saturating_mul(3 + p.sends_per_round.len() as u64))
            .fold(
                2 * schedule.vec_tasks.len() as u64 + cores as u64,
                u64::saturating_add,
            );

        Ok(Tables {
            rounds,
            scan,
            attempt_budget: work.saturating_mul(4),
        })
    }
}

/// The per-chip global memories (Table I: 4 MB per chip, one FCFS port
/// the chip's cores contend for) and the traffic through them.
struct GlobalMemory<'a> {
    hw: &'a HardwareConfig,
    ports: Vec<BandwidthServer>,
    global_bytes: u64,
    local_bytes: u64,
}

impl GlobalMemory<'_> {
    /// Moves `bytes` between `core`'s local memory and its chip's
    /// global memory, acquired at `now`; returns the completion time.
    fn transfer(&mut self, core: usize, now: u64, bytes: usize) -> u64 {
        if bytes == 0 {
            return now;
        }
        self.global_bytes += bytes as u64;
        self.local_bytes += bytes as u64;
        self.ports[core / self.hw.cores_per_chip].acquire(now, self.hw.global_memory_cycles(bytes))
    }
}

/// Runs the HT simulation for a compiled model.
pub(crate) fn run(
    compiled: &CompiledModel,
    energy_model: &EnergyModel,
) -> Result<SimReport, SimError> {
    let schedule = compiled
        .schedule
        .as_ht()
        .ok_or(SimError::WrongScheduleKind)?;
    let hw = &compiled.hw;
    let cores = hw.total_cores();
    let t_int = hw.issue_interval();
    let t_mvm = hw.mvm_latency;
    let Tables {
        rounds,
        mut scan,
        attempt_budget,
    } = Tables::build(compiled, schedule, &NocModel::new(hw))?;

    let mut phase: Vec<Phase> = schedule
        .programs
        .iter()
        .map(|p| {
            if p.rounds == 0 {
                Phase::Done
            } else {
                Phase::Compute { round: 0 }
            }
        })
        .collect();
    let mut vec_phase = vec![VecPhase::NotStarted; schedule.vec_tasks.len()];

    // Partial-sum arrivals per owner program, indexed by round:
    // `partials[pid][round] = (count, latest)`. Senders may run many
    // rounds ahead of the owner, so the per-program table grows lazily
    // to the highest round touched; a consumed round is reset to (0, 0)
    // (indistinguishable from "never arrived", which is what the
    // `< recvs_per_round` check below relies on).
    let mut partials: Vec<Vec<(usize, u64)>> = vec![Vec::new(); schedule.programs.len()];

    let mut mem = GlobalMemory {
        hw,
        ports: vec![BandwidthServer::new(); hw.chips],
        global_bytes: 0,
        local_bytes: 0,
    };
    let mut issue_free = vec![0u64; cores];
    let mut vfu_free = vec![0u64; cores];
    let mut ag_free: Vec<u64> = vec![0; compiled.mapping.instances.len()];
    let mut spans: Vec<ActivitySpan> = vec![ActivitySpan::default(); cores];
    let mut cursor = vec![0usize; cores];

    let mut counted = Counters::default();

    // Wake tokens, coalesced: `(time, core, count)` stands for `count`
    // indistinguishable tokens, each entitling `core` to try to run one
    // item at `time`. Cores with work start with one token at t=0.
    let mut queue: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
    for (core, items) in scan.iter().enumerate() {
        if !items.is_empty() {
            queue.push(Reverse((0, core, 1)));
        }
    }
    let mut attempts: u64 = 0;

    while let Some(Reverse((now, core, mut tokens))) = queue.pop() {
        // Every token for (now, core) is already queued: runs at `now`
        // only push later times (own core: `max(now + 1)`; messages: a
        // round's MVM latency plus the NoC away).
        while let Some(&Reverse((t, c, n))) = queue.peek() {
            if (t, c) != (now, core) {
                break;
            }
            tokens += n;
            queue.pop();
        }

        let items = &mut scan[core];
        while tokens > 0 {
            attempts += 1;
            if attempts > attempt_budget {
                return Err(SimError::Diverged {
                    detail: format!("HT event budget of {attempt_budget} attempts exceeded"),
                });
            }

            // Round-robin from the cursor for the first runnable item,
            // noting the earliest not-yet-due store on the way.
            let mut wake_at = u64::MAX;
            let mut ran = None; // where the cursor goes after a run
            let start = cursor[core];
            for pick in (start..items.len()).chain(0..start) {
                // A run sets the cursor just past `pick`; an item that
                // finished leaves the list, which has the same effect.
                let mut next = pick + 1;
                match items[pick] {
                    Item::Program(pid) => {
                        let p = &schedule.programs[pid];
                        let r = &rounds[pid];
                        match phase[pid] {
                            Phase::Done => continue,
                            Phase::StorePending { round, at } => {
                                if now < at {
                                    wake_at = wake_at.min(at);
                                    continue;
                                }
                                let t_store = mem.transfer(core, now, p.store_bytes_per_round);
                                spans[core].record(now, t_store);
                                phase[pid] = if round + 1 >= p.rounds {
                                    items.remove(pick);
                                    next = pick;
                                    Phase::Done
                                } else {
                                    Phase::Compute { round: round + 1 }
                                };
                                queue.push(Reverse((t_store.max(now + 1), core, 1)));
                            }
                            Phase::AwaitPartials { round, ready } => {
                                let got = partials[pid].get(round).copied().unwrap_or((0, 0));
                                if got.0 < p.recvs_per_round {
                                    continue; // message arrival re-queues us
                                }
                                // Remote adds + activation.
                                let start = ready.max(got.1).max(now);
                                let t_vfu =
                                    vfu_free[core].max(start) + hw.vfu_cycles(r.remote_add_elems);
                                vfu_free[core] = t_vfu;
                                counted.vfu_elems += r.remote_add_elems as u64;
                                partials[pid][round] = (0, 0);
                                spans[core].record(start, t_vfu);
                                phase[pid] = Phase::StorePending { round, at: t_vfu };
                                queue.push(Reverse((t_vfu.max(now + 1), core, 1)));
                            }
                            Phase::Compute { round } => {
                                // 1. Load inputs (plus this core's spill
                                //    share), acquired at the current
                                //    event time.
                                let t_load = mem.transfer(core, now, r.load_bytes);
                                // 2. MVMs: batch per AG, issued at
                                //    T_interval spacing, serialized per
                                //    AG's crossbars.
                                let base = issue_free[core].max(t_load);
                                let mut t_mvm_end = base;
                                let mut k = 0u64;
                                for _b in 0..schedule.batch {
                                    for &inst in &p.ag_instances {
                                        let issue = base + k * t_int;
                                        let start = issue.max(ag_free[inst]);
                                        let end = start + t_mvm;
                                        ag_free[inst] = end;
                                        t_mvm_end = t_mvm_end.max(end);
                                        k += 1;
                                    }
                                }
                                issue_free[core] = base + k * t_int;
                                counted.mvm_ops += k;
                                counted.crossbar_mvms += k * r.crossbars_per_ag;
                                // Crossbar input reads.
                                mem.local_bytes += p.load_bytes_per_round as u64;

                                // 3. Local adds (owner's remote adds +
                                //    act are costed in AwaitPartials).
                                let t_adds = if r.local_add_elems > 0 {
                                    let t = vfu_free[core].max(t_mvm_end)
                                        + hw.vfu_cycles(r.local_add_elems);
                                    vfu_free[core] = t;
                                    counted.vfu_elems += r.local_add_elems as u64;
                                    t
                                } else {
                                    t_mvm_end
                                };
                                spans[core].record(now, t_adds);

                                // 4. Push partials to owner cores.
                                for s in &r.sends {
                                    counted.noc_bytes += s.bytes;
                                    counted.noc_pj += s.energy_pj;
                                    if let Some(owner) = s.owner {
                                        let arr = t_adds + s.cycles;
                                        let table = &mut partials[owner];
                                        if table.len() <= round {
                                            table.resize(round + 1, (0, 0));
                                        }
                                        let e = &mut table[round];
                                        e.0 += 1;
                                        e.1 = e.1.max(arr);
                                        queue.push(Reverse((arr, s.to_core, 1)));
                                    }
                                }

                                // 5. Owner waits for partials; non-owners
                                //    (and ownerless rounds) go straight
                                //    to the store.
                                phase[pid] = if p.recvs_per_round > 0 {
                                    Phase::AwaitPartials {
                                        round,
                                        ready: t_adds,
                                    }
                                } else {
                                    Phase::StorePending { round, at: t_adds }
                                };
                                // The program's own chain resumes at
                                // t_adds...
                                queue.push(Reverse((t_adds.max(now + 1), core, 1)));
                                // ...but the control unit is free to
                                // issue the next program's MVMs as soon
                                // as the issue bandwidth clears —
                                // crossbars of different programs crunch
                                // concurrently (Fig. 5's f(n)).
                                queue.push(Reverse((issue_free[core].max(now + 1), core, 1)));
                            }
                        }
                    }
                    Item::VecTask(vid) => {
                        let t = &schedule.vec_tasks[vid];
                        match vec_phase[vid] {
                            VecPhase::Done => continue,
                            VecPhase::StorePending { at } => {
                                if now < at {
                                    wake_at = wake_at.min(at);
                                    continue;
                                }
                                let t_store = mem.transfer(core, now, t.store_bytes);
                                spans[core].record(now, t_store);
                                vec_phase[vid] = VecPhase::Done;
                                items.remove(pick);
                                next = pick;
                                queue.push(Reverse((t_store.max(now + 1), core, 1)));
                            }
                            VecPhase::NotStarted => {
                                let t_load = mem.transfer(core, now, t.load_bytes);
                                let t_vfu = vfu_free[core].max(t_load) + hw.vfu_cycles(t.elems);
                                vfu_free[core] = t_vfu;
                                counted.vfu_elems += t.elems as u64;
                                vec_phase[vid] = VecPhase::StorePending { at: t_vfu };
                                spans[core].record(now, t_vfu);
                                queue.push(Reverse((t_vfu.max(now + 1), core, 1)));
                                // The VFU work runs on its own unit; the
                                // core may continue with other programs
                                // meanwhile.
                                queue.push(Reverse((t_load.max(now + 1), core, 1)));
                            }
                        }
                    }
                }
                ran = Some(next);
                break;
            }

            let Some(next) = ran else {
                // Everything is done or blocked, and the attempt changed
                // nothing, so every remaining token of the group would
                // see the same: they sleep together until the earliest
                // pending store (blocked owners are woken by the
                // arriving message's own token).
                if wake_at != u64::MAX {
                    queue.push(Reverse((wake_at, core, tokens)));
                }
                break;
            };
            tokens -= 1;
            cursor[core] = if next < items.len() { next } else { 0 };
        }
    }

    // Verify completion (a stuck owner would show up here).
    for (pid, st) in phase.iter().enumerate() {
        if *st != Phase::Done {
            return Err(SimError::Deadlock {
                detail: format!(
                    "program {pid} (node {}, core {}) did not finish: {:?}",
                    schedule.programs[pid].mvm, schedule.programs[pid].core, st
                ),
            });
        }
    }
    for (vid, st) in vec_phase.iter().enumerate() {
        if *st != VecPhase::Done {
            return Err(SimError::Deadlock {
                detail: format!("vec task {vid} did not finish: {st:?}"),
            });
        }
    }

    let busy: Vec<u64> = spans.iter().map(|s| s.last_end()).collect();
    let interval = busy.iter().copied().max().unwrap_or(0);
    let active = spans.iter().filter(|s| s.is_active()).count();

    // Leakage: each active core leaks over its own activity span (in HT
    // an early-finishing core powers down); global memory and routers
    // leak over the whole makespan.
    let mut leak = 0.0;
    for s in &spans {
        if s.is_active() {
            leak += energy_model.leakage_pj(
                energy_model.leakage.core_mw + energy_model.leakage.router_mw,
                s.span(),
            );
        }
    }
    leak += energy_model.leakage_pj(
        energy_model.leakage.global_memory_mw * hw.chips as f64,
        interval,
    );

    counted.global_bytes = mem.global_bytes;
    counted.local_bytes = mem.local_bytes;
    Ok(counted.into_report(compiled, energy_model, interval, leak, active, busy))
}
