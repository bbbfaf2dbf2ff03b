//! Event-driven high-throughput simulator.
//!
//! Executes the per-core round programs of an
//! [`HtSchedule`], modelling:
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
//! A *wake token* `(time, core)` entitles `core` to try to run one item
//! — a phase of one of its programs or vec tasks — at `time`, scanning
//! its items round-robin from a cursor. A token that runs an item is
//! consumed, and the run spawns tokens for the times at which something
//! new can happen: the item's next phase, the issue slot clearing, a
//! partial sum arriving at its owner core. A token that finds nothing
//! runnable sleeps until the core's earliest pending store, or retires
//! if there is none.
//!
//! Tokens are anonymous and a failed attempt changes no state, so the
//! tokens of one `(time, core)` are interchangeable: they run as one
//! group, one token at a time, until an attempt fails. Each core keeps
//! its tokens in a [`Ledger`], one count per time.
//!
//! A core enters the queue only at a time when it can run an item. It
//! is *blocked* when it has no program in `Compute`, no vec task
//! `NotStarted` and no `AwaitPartials` program whose partials are all
//! counted: then it can run only a store, from the earliest pending
//! one's time on (`runnable_from`, 0 for a core that is not blocked).
//! Tokens due before that are *parked*: their group would find nothing
//! to run, so it is never queued. Its tokens would sleep until
//! `runnable_from`, where a group always waits — the run that set that
//! store pending, at some `t0` before the parked tokens' time, spawned a
//! token at `max(at, t0 + 1)`, which is `at` — and the pop of that group
//! takes every parked token with it.
//!
//! Between two pops of a core, only another core's run changes what it
//! can run, by completing the partials its awaiting program counts. When
//! a run at `(t, s)` unblocks a core that way, the parked tokens that
//! `(time, core)` order pops before `(t, s)` would have failed there, so
//! they join the group at `runnable_from`, or retire if no store is
//! pending. The others would now run: they stay at their times, and the
//! earliest is queued.
//!
//! That is the loop that popped every group, less the groups that ran
//! nothing, not an approximation of it: every token, and every attempt
//! that runs an item, falls at the same time, in the same group, in the
//! same order. Debug builds assert that every popped group runs an item
//! and that the tokens left at the end are parked. A core is queued at
//! its earliest runnable time only, and at the next when that pop is
//! done; an entry whose core has blocked since it was queued is stale,
//! and its pop is skipped.
//!
//! The queue is the monotone radix heap both engines share
//! ([`EventQueue`]), keyed by time with the core breaking ties, so it
//! pops in `(time, core)` order. That needs every push at or after the
//! time just popped. A run at `now` pushes strictly later — its own
//! core at `now + 1` or later, a message at its round's end plus the
//! NoC — except a release, which may queue a core above the sender's at
//! `now`: a pop it has not reached yet. Every duration reaches the clock
//! through [`later`], so a time that would pass `u64::MAX` is
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

/// One core's state, kept together: a group touches all of it.
#[derive(Debug, Default)]
struct Core {
    /// Its unfinished programs, then its vec tasks, in schedule order —
    /// the round-robin scan list. Finished items are removed as the run
    /// proceeds.
    items: Vec<Item>,
    /// Where the next scan starts.
    cursor: usize,
    /// When the MVM issue bandwidth next clears.
    issue_free: u64,
    vfu: Server,
    span: ActivitySpan,
}

/// Every core's state at the start of the run.
fn core_states(schedule: &HtSchedule, cores: usize) -> Vec<Core> {
    (0..cores)
        .map(|core| {
            let programs = schedule.per_core[core].iter().copied();
            let programs = programs.filter(|&pid| schedule.programs[pid].rounds > 0);
            let vec_tasks = schedule.vec_per_core[core].iter().copied();
            let items = programs
                .map(Item::Program)
                .chain(vec_tasks.map(Item::VecTask))
                .collect();
            Core {
                items,
                ..Core::default()
            }
        })
        .collect()
}

/// Upper bound on scan attempts. Every popped group runs an item
/// before any attempt of it fails, and a failed attempt ends its group,
/// so there are at most as many failed attempts as runs:
///   attempts <= 2 * runs,
///   runs     <= sum(3 * rounds) + 2 * vec tasks
///               (compute, accumulate, store; load+VFU, store).
/// Exceeding it means a scheduling loop, or a group that ran nothing.
fn attempt_budget(schedule: &HtSchedule) -> u64 {
    let runs = schedule
        .programs
        .iter()
        .map(|p| 3 * p.rounds as u64)
        .fold(2 * schedule.vec_tasks.len() as u64, u64::saturating_add);
    runs.saturating_mul(2)
}

/// The earliest time at which a core holding `items` can run one: 0
/// unless it is blocked — no program in `Compute`, no vec task
/// `NotStarted`, no `AwaitPartials` program with every partial counted —
/// else its earliest pending store's, `u64::MAX` with none pending.
fn runnable_from(
    items: &[Item],
    schedule: &HtSchedule,
    phase: &[Phase],
    vec_phase: &[VecPhase],
    partials: &[Vec<(usize, u64)>],
) -> u64 {
    let mut from = u64::MAX;
    for &item in items {
        match item {
            Item::Program(pid) => match phase[pid] {
                Phase::Compute { .. } => return 0,
                Phase::AwaitPartials { round, .. } => {
                    let got = partials[pid].get(round).map_or(0, |e| e.0);
                    if got >= schedule.programs[pid].recvs_per_round {
                        return 0;
                    }
                }
                Phase::StorePending { at, .. } => from = from.min(at),
                Phase::Done => {}
            },
            Item::VecTask(vid) => match vec_phase[vid] {
                VecPhase::NotStarted => return 0,
                VecPhase::StorePending { at } => from = from.min(at),
                VecPhase::Done => {}
            },
        }
    }
    from
}

/// Wake tokens of one core due at one time.
#[derive(Debug, Clone, Copy)]
struct Wake {
    at: u64,
    tokens: u64,
    /// The queue holds `(at, core)` for them.
    queued: bool,
}

/// One core's wake tokens, by time, and the time from which it can run.
#[derive(Debug, Default)]
struct Ledger {
    /// One entry per time, ascending.
    wakes: Vec<Wake>,
    /// See [`runnable_from`]. It is current from the core's last pop on,
    /// save that a completed partial count sets it to 0 ([`Self::unblock`]).
    runnable_from: u64,
}

impl Ledger {
    /// Adds `tokens` due at `at`.
    fn add(&mut self, at: u64, tokens: u64) {
        // Most tokens fall at or after the latest time held.
        let i = self.wakes.iter().rposition(|w| w.at <= at);
        match i.map(|i| &mut self.wakes[i]) {
            Some(w) if w.at == at => w.tokens += tokens,
            _ => self.wakes.insert(
                i.map_or(0, |i| i + 1),
                Wake {
                    at,
                    tokens,
                    queued: false,
                },
            ),
        }
    }

    /// Queues `core` at its earliest runnable time, unless it already is.
    fn queue_first(&mut self, core: usize, queue: &mut EventQueue<usize>) {
        let i = self.wakes.partition_point(|w| w.at < self.runnable_from);
        if let Some(w) = self.wakes.get_mut(i).filter(|w| !w.queued) {
            w.queued = true;
            queue.push(w.at, core);
        }
    }

    /// The tokens of the group popped at `now`: its own and every parked
    /// one, all of which sleep until `now`. `None` if the entry is stale.
    fn take_group(&mut self, now: u64) -> Option<u64> {
        let i = self.wakes.partition_point(|w| w.at < now);
        let wake = &mut self.wakes[i];
        debug_assert!(wake.at == now && wake.queued, "{wake:?} popped at {now}");
        wake.queued = false;
        if now < self.runnable_from {
            return None;
        }
        debug_assert!(
            i == 0 || self.runnable_from == now,
            "tokens parked before {now} passed over: {:?}",
            self.wakes
        );
        Some(self.wakes.drain(..=i).map(|w| w.tokens).sum())
    }

    /// A run at `(now, sender)` has completed the partials a program of
    /// `core`, this ledger's, awaits. Parked tokens that `(time, core)`
    /// order pops before it slept until `runnable_from`; the rest can run.
    fn unblock(&mut self, core: usize, now: u64, sender: usize) {
        let from = std::mem::take(&mut self.runnable_from);
        if from == 0 {
            return;
        }
        #[cfg(test)]
        if self.wakes.iter().any(|w| w.at == now) {
            tests::TIES.with(|n| n.set(n.get() + 1));
        }
        let before = self.wakes.partition_point(|w| (w.at, core) < (now, sender));
        let slept: u64 = self
            .wakes
            .drain(..before)
            .map(|w| {
                debug_assert!(w.at < from && !w.queued, "{w:?} was due from {from}");
                w.tokens
            })
            .sum();
        if slept > 0 && from != u64::MAX {
            self.add(from, slept);
        }
    }
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
    let mut state = core_states(schedule, cores);
    let attempt_budget = attempt_budget(schedule);

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
    let mut ag_free: Vec<u64> = vec![0; compiled.mapping.instances.len()];

    let mut counted = Counters::default();

    // Wake tokens per core; the queue holds a core at the earliest time
    // its ledger can run. Cores with work start with one token at t=0.
    let mut ledgers: Vec<Ledger> = (0..cores).map(|_| Ledger::default()).collect();
    let mut queue: EventQueue<usize> = EventQueue::new();
    for (core, c) in state.iter().enumerate() {
        if !c.items.is_empty() {
            ledgers[core].add(0, 1);
            ledgers[core].queue_first(core, &mut queue);
        }
    }
    let mut attempts: u64 = 0;

    while let Some((now, core)) = queue.pop() {
        #[cfg(test)]
        tests::POPS.with(|n| n.set(n.get() + 1));
        // Every token for (now, core) is in the ledger: runs at `now`
        // only add later times (own core: `max(now + 1)`; messages: a
        // round's MVM latency plus the NoC away).
        let Some(mut tokens) = ledgers[core].take_group(now) else {
            continue;
        };
        let popped = tokens;

        let Core {
            items,
            cursor,
            issue_free,
            vfu,
            span,
        } = &mut state[core];
        while tokens > 0 {
            attempts += 1;
            if attempts > attempt_budget {
                return Err(SimError::Diverged {
                    detail: format!("HT event budget of {attempt_budget} attempts exceeded"),
                });
            }

            // Round-robin from the cursor for the first runnable item.
            let mut ran = None; // where the cursor goes after a run
            let start = *cursor;
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
                                    continue;
                                }
                                let t_store = mem.transfer(core, now, r.store)?;
                                span.record(now, t_store);
                                phase[pid] = if round + 1 >= p.rounds {
                                    items.remove(pick);
                                    next = pick;
                                    Phase::Done
                                } else {
                                    Phase::Compute { round: round + 1 }
                                };
                                ledgers[core].add(t_store.max(now + 1), 1);
                            }
                            Phase::AwaitPartials { round, ready } => {
                                let got = partials[pid].get(round).copied().unwrap_or((0, 0));
                                if got.0 < p.recvs_per_round {
                                    continue; // the completing sender unblocks us
                                }
                                // Remote adds + activation.
                                let start = ready.max(got.1).max(now);
                                let t_vfu = vfu.acquire(start, r.remote_add_cycles, VFU)?;
                                counted.vfu_elems += r.remote_add_elems as u64;
                                partials[pid][round] = (0, 0);
                                span.record(start, t_vfu);
                                phase[pid] = Phase::StorePending { round, at: t_vfu };
                                // Exactly `at` whenever a later attempt can
                                // see the store not yet due (`now < at`
                                // makes `max` return `at`): the group
                                // parked tokens join.
                                ledgers[core].add(t_vfu.max(now + 1), 1);
                            }
                            Phase::Compute { round } => {
                                // 1. Load inputs (plus this core's spill
                                //    share), acquired at the current
                                //    event time.
                                let t_load = mem.transfer(core, now, r.load)?;
                                // 2. MVMs: batch per AG, issued at
                                //    T_interval spacing, serialized per
                                //    AG's crossbars.
                                let base = (*issue_free).max(t_load);
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
                                *issue_free = base + k * t_int;
                                counted.mvm_ops += k;
                                counted.crossbar_mvms += k * r.crossbars_per_ag;
                                // Crossbar input reads.
                                mem.local_bytes += p.load_bytes_per_round as u64;

                                // 3. Local adds (owner's remote adds +
                                //    act are costed in AwaitPartials).
                                let t_adds = if r.local_add_elems > 0 {
                                    counted.vfu_elems += r.local_add_elems as u64;
                                    vfu.acquire(t_mvm_end, r.local_add_cycles, VFU)?
                                } else {
                                    t_mvm_end
                                };
                                span.record(now, t_adds);

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
                                        let to = &mut ledgers[s.to_core];
                                        to.add(arr, 1);
                                        // This core's ledger is settled
                                        // when its group ends.
                                        if s.to_core != core {
                                            let recvs = schedule.programs[owner].recvs_per_round;
                                            if e.0 >= recvs
                                                && matches!(
                                                    phase[owner],
                                                    Phase::AwaitPartials { round: r, .. }
                                                        if r == round
                                                )
                                            {
                                                to.unblock(s.to_core, now, core);
                                            }
                                            to.queue_first(s.to_core, &mut queue);
                                        }
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
                                // parked tokens have a group to join
                                // there...
                                ledgers[core].add(t_adds.max(now + 1), 1);
                                // ...but the control unit is free to
                                // issue the next program's MVMs as soon
                                // as the issue bandwidth clears —
                                // crossbars of different programs crunch
                                // concurrently (Fig. 5's f(n)).
                                ledgers[core].add((*issue_free).max(now + 1), 1);
                            }
                        }
                    }
                    Item::VecTask(vid) => {
                        let (t, c) = (&schedule.vec_tasks[vid], &costs.vec_tasks[vid]);
                        match vec_phase[vid] {
                            VecPhase::Done => continue,
                            VecPhase::StorePending { at } => {
                                if now < at {
                                    continue;
                                }
                                let t_store = mem.transfer(core, now, c.store)?;
                                span.record(now, t_store);
                                vec_phase[vid] = VecPhase::Done;
                                items.remove(pick);
                                next = pick;
                                ledgers[core].add(t_store.max(now + 1), 1);
                            }
                            VecPhase::NotStarted => {
                                let t_load = mem.transfer(core, now, c.load)?;
                                let t_vfu = vfu.acquire(t_load, c.vfu_pass, VFU)?;
                                counted.vfu_elems += t.elems as u64;
                                vec_phase[vid] = VecPhase::StorePending { at: t_vfu };
                                span.record(now, t_vfu);
                                // Exactly `at` whenever a later attempt
                                // finds the store not yet due: the group
                                // parked tokens join.
                                ledgers[core].add(t_vfu.max(now + 1), 1);
                                // The VFU work runs on its own unit; the
                                // core may continue with other programs
                                // meanwhile.
                                ledgers[core].add(t_load.max(now + 1), 1);
                            }
                        }
                    }
                }
                ran = Some(next);
                break;
            }

            let Some(next) = ran else {
                break;
            };
            tokens -= 1;
            *cursor = if next < items.len() { next } else { 0 };
        }

        #[cfg(test)]
        tests::GROUPS.with(|n| n.set(n.get() + 1));
        #[cfg(test)]
        if tokens == popped {
            tests::IDLE_GROUPS.with(|n| n.set(n.get() + 1));
        }
        debug_assert!(tokens < popped, "core {core}'s group at {now} ran nothing");
        // Nothing but another core's completed partial count changes
        // what this core can run before its next pop. What is left of a
        // failed group changed nothing either: it sleeps until the
        // earliest pending store, which the run that set it, at some
        // `t0 <= now`, queued at `max(at, t0 + 1) = at`, or retires.
        let ledger = &mut ledgers[core];
        ledger.runnable_from = runnable_from(items, schedule, &phase, &vec_phase, &partials);
        if tokens > 0 && ledger.runnable_from != u64::MAX {
            debug_assert!(ledger.runnable_from > now);
            ledger.add(ledger.runnable_from, tokens);
        }
        ledger.queue_first(core, &mut queue);
    }

    debug_assert!(
        ledgers
            .iter()
            .all(|l| l.wakes.iter().all(|w| w.at < l.runnable_from)),
        "tokens that can run outlived the queue"
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

    let spans = || state.iter().map(|c| &c.span);
    let busy: Vec<u64> = spans().map(|s| s.last_end()).collect();
    let interval = busy.iter().copied().max().unwrap_or(0);
    let active = spans().filter(|s| s.is_active()).count();

    // Leakage: each active core leaks over its own activity span (in HT
    // an early-finishing core powers down); global memory and routers
    // leak over the whole makespan.
    let mut leak = 0.0;
    for s in spans().filter(|s| s.is_active()) {
        leak += energy_model.leakage_pj(core_leak_mw(energy_model), s.span());
    }
    leak += energy_model.leakage_pj(global_memory_leak_mw(energy_model, hw), interval);

    counted.global_bytes = mem.global_bytes;
    counted.local_bytes = mem.local_bytes;
    Ok(counted.into_report(compiled, energy_model, interval, leak, active, busy))
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::{SimReport, Simulator};
    use pimcomp_arch::{HardwareConfig, PipelineMode};
    use pimcomp_core::{
        sized_chips, CompileOptions, CompileSession, CompiledModel, GaParams, HtNodeProgram,
        HtSchedule, HtSend, Schedule, DEFAULT_HEADROOM,
    };
    use pimcomp_ir::{models, transform::normalize};
    use std::cell::Cell;

    thread_local! {
        /// Queue entries this thread's HT runs popped, stale ones too.
        pub(crate) static POPS: Cell<u64> = const { Cell::new(0) };
        /// Token groups popped: the entries that were not stale.
        pub(crate) static GROUPS: Cell<u64> = const { Cell::new(0) };
        /// Popped groups whose first attempt ran nothing.
        pub(crate) static IDLE_GROUPS: Cell<u64> = const { Cell::new(0) };
        /// Unblocks of a core holding tokens at the unblocking run's time.
        pub(crate) static TIES: Cell<u64> = const { Cell::new(0) };
    }

    /// Simulates `compiled`: its report and the run's `[pops, groups,
    /// groups that ran nothing]`.
    fn counted_run(hw: &HardwareConfig, compiled: &CompiledModel) -> (SimReport, [u64; 3]) {
        let counters = [&POPS, &GROUPS, &IDLE_GROUPS];
        for c in counters {
            c.with(|n| n.set(0));
        }
        let report = Simulator::new(hw.clone()).run(compiled).unwrap();
        (report, counters.map(|c| c.with(Cell::get)))
    }

    /// Parked tokens join the group at their core's earliest pending
    /// store, every popped group runs an item, and no token that can run
    /// outlives the run: a debug build's `debug_assert!`s in [`run`]
    /// check all three, and the counters the second in any build.
    /// Parallelism 1 spaces a core's events far apart, 200 piles many
    /// onto one time.
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
                    let (report, [pops, groups, idle]) = counted_run(&hw, &compiled);
                    assert!(report.total_cycles > 0 && report.mvm_ops > 0);
                    assert!(groups > 0 && groups <= pops);
                    assert_eq!(idle, 0, "{} p{parallelism} b{batch}", graph.name());
                }
            }
        }
    }

    /// `tiny_mlp`'s compiled model with its schedule replaced by a
    /// hand-built one on two cores, every load off the global-memory
    /// port. `owner` runs node 0's owner program, which awaits one
    /// partial a round; `sender` runs node 1's program, then node 0's,
    /// which sends it. Both cores' first MVMs issue at t=0, and the
    /// sender's second program issues when its issue slot clears, at
    /// `T_interval`: that run completes the owner's partial count at the
    /// time of the owner's own issue-slot token, parked since t=0.
    fn partial_count_completes_at_a_parked_token(owner: usize, sender: usize) -> CompiledModel {
        let hw = HardwareConfig::small_test();
        let opts = CompileOptions::new(PipelineMode::HighThroughput)
            .with_fast_ga(3)
            .with_batch(1);
        let mut model = CompileSession::new(hw.clone(), &models::tiny_mlp(), opts)
            .and_then(CompileSession::run)
            .unwrap();
        let program = |mvm, core, instance, store, sends, recvs, vec| HtNodeProgram {
            mvm,
            core,
            ag_instances: vec![instance],
            windows: 2,
            rounds: 2,
            load_bytes_per_round: 0,
            store_bytes_per_round: store,
            sends_per_round: sends,
            recvs_per_round: recvs,
            vec_elems_per_round: vec,
        };
        let send = HtSend {
            to_core: owner,
            bytes: 64,
        };
        let cores = hw.total_cores();
        let mut per_core = vec![Vec::new(); cores];
        per_core[owner] = vec![0];
        per_core[sender] = vec![2, 1];
        model.schedule = Schedule::HighThroughput(HtSchedule {
            batch: 1,
            programs: vec![
                program(0, owner, 0, 64, vec![], 1, 256),
                program(0, sender, 1, 0, vec![send], 0, 64),
                program(1, sender, 2, 64, vec![], 0, 0),
            ],
            per_core,
            vec_tasks: vec![],
            vec_per_core: vec![Vec::new(); cores],
        });
        model.memory.spill_bytes_per_round = vec![0; cores];
        model
    }

    /// The parent engine's report of [`partial_count_completes_at_a_parked_token`]
    /// with the owner on core 1 and the sender on core 0; on cores 0
    /// and 1 only `per_core_busy` swaps. Its `memory` is the compiled
    /// `tiny_mlp`'s plan, whose folded activations have no vec task.
    const TIED_REPORT: &str = concat!(
        r#"{"model":"tiny_mlp","compiler":"PIMCOMP","mode":"HighThroughput","#,
        r#""total_cycles":259,"throughput_inf_per_s":3861003.861003861,"latency_us":0.259,"#,
        r#""mvm_ops":6,"crossbar_mvms":6,"vfu_elems":640,"noc_bytes":128,"global_bytes":256,"#,
        r#""energy":{"mvm_pj":17593.343999999997,"vfu_pj":2188.8,"memory_pj":1152,"#,
        r#""noc_pj":414.048,"reload_pj":0,"leakage_pj":251078.04400000002},"#,
        r#""memory":{"avg_local_bytes":197,"peak_local_bytes":320,"#,
        r#""global_traffic_bytes":256},"reload_epochs":0,"reload_ags_rewritten":0,"#,
        r#""reload_cells_rewritten":0,"reload_stall_cycles":0,"active_cores":2,"#,
        r#""per_core_busy":[168,259,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}"#
    );

    /// A partial count completed at the time of one of the owner's
    /// parked tokens: with the sender below the owner, the pop at that
    /// time comes after the sender's and the token runs the owner's
    /// accumulation; with the sender above, the pop came first and the
    /// token retires. Either way the report and the groups that ran
    /// are the parent engine's, which popped every group (24 a side;
    /// 14 and 13 ran nothing).
    #[test]
    fn a_partial_count_completed_at_a_parked_tokens_time_follows_pop_order() {
        for (owner, sender, ran) in [(1, 0, 10), (0, 1, 11)] {
            let model = partial_count_completes_at_a_parked_token(owner, sender);
            TIES.with(|n| n.set(0));
            let (report, [pops, groups, idle]) = counted_run(&model.hw, &model);
            assert_eq!(
                TIES.with(Cell::get),
                1,
                "the count completes at a parked token"
            );
            assert_eq!((pops, groups, idle), (ran, ran, 0), "owner {owner}");
            let mut want = TIED_REPORT.to_string();
            if owner == 0 {
                want = want.replace("[168,259,", "[259,168,");
            }
            assert_eq!(serde_json::to_string(&report).unwrap(), want);
        }
    }

    /// The ten `simulate_paper` HT mappings' counts (GA 20×30, seed 1,
    /// the paper targets): `--nocapture` prints them.
    #[test]
    #[ignore = "paper scale: run in release"]
    fn paper_mappings_pop_no_group_that_runs_nothing() {
        let ga = GaParams {
            population: 20,
            iterations: 30,
            seed: 1,
            ..GaParams::default()
        };
        for name in models::PAPER_BENCHMARKS {
            let graph = models::by_name(name).and_then(|g| normalize(&g).ok());
            let graph = graph.expect("paper benchmark resolves");
            let chips = sized_chips(&graph, &HardwareConfig::puma(), DEFAULT_HEADROOM).unwrap();
            let hw = HardwareConfig::puma_with_chips(chips).with_parallelism(20);
            let opts = CompileOptions::new(PipelineMode::HighThroughput).with_ga(ga.clone());
            let compiled = CompileSession::new(hw.clone(), &graph, opts)
                .and_then(CompileSession::run)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (report, [pops, groups, idle]) = counted_run(&hw, &compiled);
            println!("{name}: {pops} pops, {groups} groups, {idle} ran nothing");
            assert!(report.total_cycles > 0 && groups <= pops);
            assert_eq!(idle, 0, "{name}");
        }
    }
}
