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
//! The engine prices nothing itself. Every duration it adds is read
//! from the [`HtCosts`] table `pimcomp_core` builds once at run start —
//! per program, one round's global-memory load (with its spill share)
//! and store, the span of its MVMs, its VFU passes and its partial-sum
//! sends with their NoC cycles and energy; per vec task, its transfers
//! and VFU pass — so the engine keeps only state, queues and the clock.
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
//! tokens of one `(time, core)` are interchangeable. The queue therefore
//! stores them as `(time, core, count)` groups: the group runs items one
//! token at a time until an attempt fails. Kept apart, every sleeping
//! token would be popped, rescan the core and be pushed back at every
//! wake time — and since a run spawns more tokens than it consumes,
//! events would grow quadratically with the work simulated.
//!
//! What is left of a failed group is not queued again. Its tokens wait
//! on a per-core list under their wake time, the earliest store due
//! after `now`, and join the group popped at that `(time, core)`. That
//! group is always queued: the run that made the store pending, at some
//! `t0 <= now`, queued its core at `max(at, t0 + 1)`, which is `at`
//! because `at > now`. Debug builds check that no sleeping tokens are
//! passed over and none are left at the end.
//!
//! The queue is the monotone radix heap both engines share
//! ([`EventQueue`]), keyed by time with `(core, count)` breaking ties,
//! so it pops in the order of a `(time, core, count)` min-heap. That
//! needs every push at or after the time just popped, and a run at
//! `now` pushes strictly later: its own core at `now + 1` or later, a
//! message at its round's end plus the NoC. The coalescing loop peeks
//! only at events of `now`. Every duration reaches the clock through
//! [`later`], so a time that would pass `u64::MAX` is
//! [`SimError::Diverged`], never a wrap.

use crate::report::{core_leak_mw, global_memory_leak_mw, Counters, SimReport};
use crate::resources::{later, ActivitySpan, EventQueue, Server, VFU};
use crate::SimError;
use pimcomp_arch::{EnergyModel, HardwareConfig};
use pimcomp_core::{CompiledModel, HtCosts, HtSchedule, Transfer};

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

/// Per core: its unfinished programs, then its vec tasks, in schedule
/// order — the round-robin scan list. Finished items are removed as the
/// run proceeds.
fn scan_lists(schedule: &HtSchedule, cores: usize) -> Vec<Vec<Item>> {
    (0..cores)
        .map(|core| {
            let programs = schedule.per_core[core].iter().copied();
            let programs = programs.filter(|&pid| schedule.programs[pid].rounds > 0);
            let vec_tasks = schedule.vec_per_core[core].iter().copied();
            programs
                .map(Item::Program)
                .chain(vec_tasks.map(Item::VecTask))
                .collect()
        })
        .collect()
}

/// Upper bound on scan attempts. An attempt either runs an item or
/// fails and ends its token group.
fn attempt_budget(schedule: &HtSchedule, cores: usize) -> u64 {
    //   runs   <= sum(3 * rounds) + 2 * vec tasks
    //             (compute, accumulate, store; load+VFU, store)
    //   tokens <= cores + sum(rounds * (4 + sends)) + 3 * vec tasks
    //             (one per core at t=0; a compute run spawns
    //             2 + sends, a vec-task start 2, any other run 1)
    // A group fails at most once. Groups that ran something first
    // number <= runs; a group that ran nothing holds a token that
    // was never popped before (sleepers are never queued, only
    // added to a group of queued tokens), and there are <= tokens
    // of those. Hence
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
    work.saturating_mul(4)
}

/// The per-chip global memories (Table I: 4 MB per chip, one FCFS port
/// the chip's cores contend for) and the traffic through them.
struct GlobalMemory<'a> {
    hw: &'a HardwareConfig,
    ports: Vec<Server>,
    global_bytes: u64,
    local_bytes: u64,
}

impl GlobalMemory<'_> {
    /// Moves `t`'s bytes between `core`'s local memory and its chip's
    /// global memory, acquired at `now`; returns the completion time.
    fn transfer(&mut self, core: usize, now: u64, t: Transfer) -> Result<u64, SimError> {
        if t.bytes == 0 {
            return Ok(now);
        }
        self.global_bytes += t.bytes as u64;
        self.local_bytes += t.bytes as u64;
        self.ports[core / self.hw.cores_per_chip].acquire(now, t.cycles, "a global-memory transfer")
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
    let spill = &compiled.memory.spill_bytes_per_round;
    let costs = HtCosts::new(hw, &compiled.partitioning, schedule, spill);
    let (t_int, t_mvm) = (costs.t_interval, costs.t_mvm);
    let mut scan = scan_lists(schedule, cores);
    let attempt_budget = attempt_budget(schedule, cores);

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
        ports: vec![Server::default(); hw.chips],
        global_bytes: 0,
        local_bytes: 0,
    };
    let mut issue_free = vec![0u64; cores];
    let mut vfu = vec![Server::default(); cores];
    let mut ag_free: Vec<u64> = vec![0; compiled.mapping.instances.len()];
    let mut spans: Vec<ActivitySpan> = vec![ActivitySpan::default(); cores];
    let mut cursor = vec![0usize; cores];

    let mut counted = Counters::default();

    // Wake tokens, coalesced: `(time, core, count)` stands for `count`
    // indistinguishable tokens, each entitling `core` to try to run one
    // item at `time`. Cores with work start with one token at t=0.
    let mut queue: EventQueue<(usize, u64)> = EventQueue::new();
    for (core, items) in scan.iter().enumerate() {
        if !items.is_empty() {
            queue.push(0, (core, 1));
        }
    }
    // Sleeping tokens, per core: `(wake_at, count)`. They are not queued:
    // a group is queued at every `(wake_at, core)` already (see the
    // `StorePending` pushes), and they join it when it pops.
    let mut asleep: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cores];
    let mut attempts: u64 = 0;

    while let Some((now, (core, mut tokens))) = queue.pop() {
        // Every token for (now, core) is already queued: runs at `now`
        // only push later times (own core: `max(now + 1)`; messages: a
        // round's MVM latency plus the NoC away).
        while let Some((c, n)) = queue.peek() {
            if c != core {
                break;
            }
            tokens += n;
            queue.pop();
        }
        let sleepers = &mut asleep[core];
        debug_assert!(
            sleepers.iter().all(|&(at, _)| at >= now),
            "core {core} popped at {now} past a sleeping group: {sleepers:?}"
        );
        sleepers.retain(|&(at, n)| {
            if at == now {
                tokens += n;
            }
            at != now
        });

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
                        let r = &costs.rounds[pid];
                        match phase[pid] {
                            Phase::Done => continue,
                            Phase::StorePending { round, at } => {
                                if now < at {
                                    wake_at = wake_at.min(at);
                                    continue;
                                }
                                let t_store = mem.transfer(core, now, r.store)?;
                                spans[core].record(now, t_store);
                                phase[pid] = if round + 1 >= p.rounds {
                                    items.remove(pick);
                                    next = pick;
                                    Phase::Done
                                } else {
                                    Phase::Compute { round: round + 1 }
                                };
                                queue.push(t_store.max(now + 1), (core, 1));
                            }
                            Phase::AwaitPartials { round, ready } => {
                                let got = partials[pid].get(round).copied().unwrap_or((0, 0));
                                if got.0 < p.recvs_per_round {
                                    continue; // message arrival re-queues us
                                }
                                // Remote adds + activation.
                                let start = ready.max(got.1).max(now);
                                let t_vfu = vfu[core].acquire(start, r.remote_add_cycles, VFU)?;
                                counted.vfu_elems += r.remote_add_elems as u64;
                                partials[pid][round] = (0, 0);
                                spans[core].record(start, t_vfu);
                                phase[pid] = Phase::StorePending { round, at: t_vfu };
                                // Queued at exactly `at` whenever a later
                                // attempt can see the store not yet due
                                // (`now < at` makes `max` return `at`):
                                // the group sleepers join.
                                queue.push(t_vfu.max(now + 1), (core, 1));
                            }
                            Phase::Compute { round } => {
                                // 1. Load inputs (plus this core's spill
                                //    share), acquired at the current
                                //    event time.
                                let t_load = mem.transfer(core, now, r.load)?;
                                // 2. MVMs: batch per AG, issued at
                                //    T_interval spacing, serialized per
                                //    AG's crossbars.
                                let base = issue_free[core].max(t_load);
                                // Every time the loop computes is at most
                                // `bound`, so this one check covers them.
                                let bound = later(base, r.mvm_span, "an MVM round")?;
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
                                debug_assert!(t_mvm_end <= bound && base + k * t_int <= bound);
                                issue_free[core] = base + k * t_int;
                                counted.mvm_ops += k;
                                counted.crossbar_mvms += k * r.crossbars_per_ag;
                                // Crossbar input reads.
                                mem.local_bytes += p.load_bytes_per_round as u64;

                                // 3. Local adds (owner's remote adds +
                                //    act are costed in AwaitPartials).
                                let t_adds = if r.local_add_elems > 0 {
                                    counted.vfu_elems += r.local_add_elems as u64;
                                    vfu[core].acquire(t_mvm_end, r.local_add_cycles, VFU)?
                                } else {
                                    t_mvm_end
                                };
                                spans[core].record(now, t_adds);

                                // 4. Push partials to owner cores.
                                for s in &r.sends {
                                    counted.noc_bytes += s.bytes;
                                    counted.noc_pj += s.energy_pj;
                                    if let Some(owner) = s.owner {
                                        let arr = later(t_adds, s.cycles, "a NoC transfer")?;
                                        let table = &mut partials[owner];
                                        if table.len() <= round {
                                            table.resize(round + 1, (0, 0));
                                        }
                                        let e = &mut table[round];
                                        e.0 += 1;
                                        e.1 = e.1.max(arr);
                                        queue.push(arr, (s.to_core, 1));
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
                                // t_adds — exactly `at` of a store a
                                // later attempt finds not yet due, so
                                // sleepers have a group to join there...
                                queue.push(t_adds.max(now + 1), (core, 1));
                                // ...but the control unit is free to
                                // issue the next program's MVMs as soon
                                // as the issue bandwidth clears —
                                // crossbars of different programs crunch
                                // concurrently (Fig. 5's f(n)).
                                queue.push(issue_free[core].max(now + 1), (core, 1));
                            }
                        }
                    }
                    Item::VecTask(vid) => {
                        let (t, c) = (&schedule.vec_tasks[vid], &costs.vec_tasks[vid]);
                        match vec_phase[vid] {
                            VecPhase::Done => continue,
                            VecPhase::StorePending { at } => {
                                if now < at {
                                    wake_at = wake_at.min(at);
                                    continue;
                                }
                                let t_store = mem.transfer(core, now, c.store)?;
                                spans[core].record(now, t_store);
                                vec_phase[vid] = VecPhase::Done;
                                items.remove(pick);
                                next = pick;
                                queue.push(t_store.max(now + 1), (core, 1));
                            }
                            VecPhase::NotStarted => {
                                let t_load = mem.transfer(core, now, c.load)?;
                                let t_vfu = vfu[core].acquire(t_load, c.vfu_pass, VFU)?;
                                counted.vfu_elems += t.elems as u64;
                                vec_phase[vid] = VecPhase::StorePending { at: t_vfu };
                                spans[core].record(now, t_vfu);
                                // Exactly `at` whenever a later attempt
                                // finds the store not yet due: the group
                                // sleepers join.
                                queue.push(t_vfu.max(now + 1), (core, 1));
                                // The VFU work runs on its own unit; the
                                // core may continue with other programs
                                // meanwhile.
                                queue.push(t_load.max(now + 1), (core, 1));
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
                // arriving message's own token). The run that made that
                // store pending, at some `t0 <= now < wake_at`, queued
                // its core at `max(wake_at, t0 + 1) = wake_at`, so the
                // sleepers ride with the group popped there.
                if wake_at != u64::MAX {
                    let sleepers = &mut asleep[core];
                    match sleepers.iter_mut().find(|(at, _)| *at == wake_at) {
                        Some((_, n)) => *n += tokens,
                        None => sleepers.push((wake_at, tokens)),
                    }
                }
                break;
            };
            tokens -= 1;
            cursor[core] = if next < items.len() { next } else { 0 };
        }
    }

    debug_assert!(
        asleep.iter().all(Vec::is_empty),
        "sleeping tokens outlived the queue: {asleep:?}"
    );

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
    for s in spans.iter().filter(|s| s.is_active()) {
        leak += energy_model.leakage_pj(core_leak_mw(energy_model), s.span());
    }
    leak += energy_model.leakage_pj(global_memory_leak_mw(energy_model, hw), interval);

    counted.global_bytes = mem.global_bytes;
    counted.local_bytes = mem.local_bytes;
    Ok(counted.into_report(compiled, energy_model, interval, leak, active, busy))
}

#[cfg(test)]
mod tests {
    use crate::Simulator;
    use pimcomp_arch::{HardwareConfig, PipelineMode};
    use pimcomp_core::{CompileOptions, CompileSession};
    use pimcomp_ir::models;

    /// Sleeping tokens join the group queued at their wake time, and none
    /// outlive the run: in a debug build the `debug_assert!`s in [`run`]
    /// check both on every pop and at the end. Parallelism 1 spaces a
    /// core's events far apart, 200 piles many onto one time.
    #[test]
    fn sleeping_tokens_ride_with_the_group_due_at_their_wake_time() {
        for graph in [models::tiny_cnn(), models::two_branch(), models::tiny_mlp()] {
            for parallelism in [1, 20, 200] {
                let hw = HardwareConfig::small_test().with_parallelism(parallelism);
                for batch in [1, 2] {
                    let opts = CompileOptions::new(PipelineMode::HighThroughput)
                        .with_fast_ga(3)
                        .with_batch(batch);
                    let compiled = CompileSession::new(hw.clone(), &graph, opts)
                        .and_then(CompileSession::run)
                        .unwrap_or_else(|e| panic!("{} p{parallelism}: {e}", graph.name()));
                    let report = Simulator::new(hw.clone()).run(&compiled).unwrap();
                    assert!(report.total_cycles > 0 && report.mvm_ops > 0);
                }
            }
        }
    }
}
