//! The sweep coordinator: owns the canonical point grid, leases index
//! ranges to workers, journals completed records, and reduces the
//! journal — in canonical order — to the byte-identical sweep report.
//!
//! # Lease lifecycle
//!
//! ```text
//! pending ──grant──► leased ──PointDone──► done (journaled)
//!    ▲                  │
//!    └──── reclaim ─────┘   (worker disconnect, or lease timeout)
//! ```
//!
//! A lease is a contiguous range of unfinished indices. Reclaim
//! returns only the *unfinished* part of a lease to the pending set;
//! finished points stay done. A straggler that completes a reclaimed
//! point after re-issue is harmless: records are deterministic, so the
//! duplicate journal entry carries an identical payload and replay is
//! idempotent.

use crate::journal::{replay, spec_fingerprint, Journal, JournalEntry, JournalHeader};
use crate::protocol::{read_msg, write_msg, CoordMsg, WorkerMsg, PROTOCOL_VERSION};
use crate::ServeError;
use pimcomp_dse::{PointRecord, SearchStrategy, SweepPlan, SweepReport, SweepSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How the coordinator listens, leases, and journals.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`Coordinator::local_addr`]).
    pub listen: String,
    /// Points per lease. Small leases spread work and shrink the
    /// re-do window on worker death; large leases amortize round
    /// trips. Clamped to at least 1.
    pub lease_size: usize,
    /// A lease older than this is reclaimed even if its worker is
    /// still connected (hung workers). Disconnects reclaim
    /// immediately, independent of this timeout.
    pub lease_timeout: Duration,
    /// Journal path; `None` journals nothing (no crash-resume).
    pub journal: Option<PathBuf>,
    /// Print per-point progress to stderr.
    pub progress: bool,
    /// Job label, echoed in the handshake and the journal header.
    pub job: String,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            listen: "127.0.0.1:0".to_string(),
            lease_size: 4,
            lease_timeout: Duration::from_secs(60),
            journal: None,
            progress: false,
            job: "sweep".to_string(),
        }
    }
}

/// What a finished coordinator run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// The sweep report — byte-identical to a single-process
    /// exhaustive run of the same spec.
    pub report: SweepReport,
    /// Points recovered from the journal before any worker connected.
    pub resumed_points: usize,
    /// Points evaluated (journaled) during this run.
    pub evaluated_points: usize,
    /// Leases granted during this run.
    pub leases_issued: usize,
    /// Leases reclaimed from dead or hung workers and re-issued.
    pub leases_reclaimed: usize,
    /// Worker connections accepted.
    pub workers_seen: usize,
}

struct ActiveLease {
    conn: u64,
    worker: String,
    issued: Instant,
    outstanding: BTreeSet<usize>,
}

#[derive(Default)]
struct Stats {
    leases_issued: usize,
    leases_reclaimed: usize,
    workers_seen: usize,
    evaluated_points: usize,
}

struct State {
    pending: BTreeSet<usize>,
    leases: Vec<ActiveLease>,
    done: BTreeMap<usize, PointRecord>,
    journal: Option<Journal>,
    unsynced: usize,
    stats: Stats,
}

struct Shared {
    cfg: CoordinatorConfig,
    spec_json: String,
    keys: Vec<String>,
    n: usize,
    resumed_points: usize,
    state: Mutex<State>,
    all_done: AtomicBool,
}

impl Shared {
    /// Locks the state, recovering from a poisoned mutex: the state is
    /// a monotonic ledger (pending shrinks, done grows), so a panic in
    /// one handler thread cannot leave it half-updated in a way that
    /// corrupts the sweep — worst case a lease leaks until timeout.
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn progress(&self, line: &str) {
        if self.cfg.progress {
            eprintln!("[serve:{}] {line}", self.cfg.job);
        }
    }

    /// Returns unfinished indices of every lease matching `which` to
    /// the pending set.
    fn reclaim(&self, state: &mut State, which: impl Fn(&ActiveLease) -> bool, why: &str) {
        let mut reclaimed = Vec::new();
        state.leases.retain(|lease| {
            if which(lease) {
                reclaimed.push((lease.worker.clone(), lease.outstanding.clone()));
                false
            } else {
                true
            }
        });
        for (worker, outstanding) in reclaimed {
            if outstanding.is_empty() {
                continue;
            }
            state.stats.leases_reclaimed += 1;
            self.progress(&format!(
                "reclaimed {} point(s) from {worker} ({why})",
                outstanding.len()
            ));
            state.pending.extend(outstanding);
        }
    }

    /// Journals and records one completed point. Duplicates (a
    /// straggler finishing a reclaimed point) are accepted and
    /// ignored; a record whose key does not match the canonical grid
    /// is a protocol violation.
    fn record_done(
        &self,
        index: u64,
        cache_hit: bool,
        record: PointRecord,
        worker: &str,
    ) -> Result<(), ServeError> {
        let index_usize = usize::try_from(index).unwrap_or(usize::MAX);
        let Some(expected_key) = self.keys.get(index_usize) else {
            return Err(ServeError::Protocol {
                detail: format!(
                    "worker {worker} reported point {index}, outside the {}-point grid",
                    self.n
                ),
            });
        };
        if record.key() != *expected_key {
            return Err(ServeError::Protocol {
                detail: format!(
                    "worker {worker} reported key `{}` for point {index} \
                     (canonical key `{expected_key}`) — spec disagreement",
                    record.key()
                ),
            });
        }

        let mut state = self.lock();
        // Drop the point from whichever lease holds it (if any — the
        // lease may already have been reclaimed).
        for lease in &mut state.leases {
            lease.outstanding.remove(&index_usize);
        }
        state.leases.retain(|lease| !lease.outstanding.is_empty());
        state.pending.remove(&index_usize);

        if state.done.contains_key(&index_usize) {
            // Deterministic duplicate from a straggler; nothing to do.
            return Ok(());
        }
        if let Some(journal) = &mut state.journal {
            journal.append(&JournalEntry {
                index,
                record: record.clone(),
            })?;
            state.unsynced += 1;
            // Per-batch durability: fsync every lease_size entries and
            // at completion, bounding crash loss to one batch.
            if state.unsynced >= self.cfg.lease_size.max(1) {
                if let Some(journal) = &mut state.journal {
                    journal.sync()?;
                }
                state.unsynced = 0;
            }
        }
        state.done.insert(index_usize, record);
        state.stats.evaluated_points += 1;
        let done = state.done.len();
        self.progress(&format!(
            "{done}/{} {expected_key} worker={worker} ({})",
            self.n,
            if cache_hit { "cache hit" } else { "compiled" }
        ));
        if done == self.n {
            if let Some(journal) = &mut state.journal {
                journal.sync()?;
            }
            state.unsynced = 0;
            self.all_done.store(true, Ordering::SeqCst);
        }
        Ok(())
    }
}

/// The coordinator half of the distributed sweep service. See the
/// [crate docs](crate) for the architecture and an in-process example.
pub struct Coordinator {
    listener: TcpListener,
    plan: SweepPlan,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Parses and validates the spec, replays the journal if one is
    /// configured and present, and binds the listen socket. No worker
    /// traffic is accepted until [`Coordinator::run`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::Explore`] when the spec is invalid (same rules
    ///   as `pimcomp explore`),
    /// * [`ServeError::Unsupported`] for successive-halving specs —
    ///   the service shards *exhaustive* grids; halving's between-rung
    ///   barriers would serialize the fleet,
    /// * [`ServeError::Journal`] when an existing journal is corrupt
    ///   or belongs to a different sweep,
    /// * [`ServeError::Io`] when the socket cannot be bound.
    pub fn bind(spec_json: &str, cfg: CoordinatorConfig) -> Result<Coordinator, ServeError> {
        let spec = SweepSpec::from_json(spec_json)?;
        if !matches!(spec.search, SearchStrategy::Exhaustive) {
            return Err(ServeError::Unsupported {
                detail: "distributed sweeps support exhaustive specs only; \
                         drop the `search` section or run `pimcomp explore`"
                    .to_string(),
            });
        }
        let plan = SweepPlan::new(&spec)?;
        let n = plan.len();
        let keys: Vec<String> = plan.points().iter().map(|p| p.key()).collect();

        let header = JournalHeader {
            version: crate::JOURNAL_VERSION,
            job: cfg.job.clone(),
            spec_fingerprint: spec_fingerprint(spec_json),
            points: n as u64,
        };
        let mut done: BTreeMap<usize, PointRecord> = BTreeMap::new();
        let journal = match &cfg.journal {
            None => None,
            Some(path) if path.exists() => {
                let replayed = replay(path, &header)?;
                for (index, record) in &replayed.records {
                    done.insert(*index as usize, record.clone());
                }
                Some(Journal::open_append(path, &replayed)?)
            }
            Some(path) => Some(Journal::create(path, &header)?),
        };
        let resumed = done.len();
        let pending: BTreeSet<usize> = (0..n).filter(|i| !done.contains_key(i)).collect();

        let listener = TcpListener::bind(&cfg.listen).map_err(|e| ServeError::Io {
            detail: format!("binding {}: {e}", cfg.listen),
        })?;

        let all_done = AtomicBool::new(pending.is_empty());
        let shared = Arc::new(Shared {
            cfg,
            spec_json: spec_json.to_string(),
            keys,
            n,
            resumed_points: resumed,
            state: Mutex::new(State {
                pending,
                leases: Vec::new(),
                done,
                journal,
                unsynced: 0,
                stats: Stats::default(),
            }),
            all_done,
        });
        if resumed > 0 {
            shared.progress(&format!("resumed {resumed}/{n} point(s) from the journal"));
        }
        Ok(Coordinator {
            listener,
            plan,
            shared,
        })
    }

    /// The bound listen address — the one workers connect to. With
    /// `listen: "127.0.0.1:0"` this is where the picked port shows up.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(|e| ServeError::Io {
            detail: format!("reading listener address: {e}"),
        })
    }

    /// Serves until every point is journaled, then reduces and returns
    /// the report. Worker connections may come and go freely; their
    /// leases are reclaimed on disconnect or timeout and re-issued.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on listener failure, [`ServeError::Journal`]
    /// on journal write failure (surfaced at the next completion), and
    /// [`ServeError::Explore`] if reduction fails — which, given a
    /// validated plan and key-checked records, indicates a bug, not an
    /// input problem.
    pub fn run(self) -> Result<ServeOutcome, ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io {
                detail: format!("configuring listener: {e}"),
            })?;
        let mut next_conn: u64 = 0;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.all_done.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    handlers.push(self.spawn_handler(stream, &mut next_conn));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => {
                    return Err(ServeError::Io {
                        detail: format!("accepting connection: {e}"),
                    });
                }
            }
            handlers.retain(|handle| !handle.is_finished());
            {
                let mut state = self.shared.lock();
                let timeout = self.shared.cfg.lease_timeout;
                self.shared.reclaim(
                    &mut state,
                    |l| l.issued.elapsed() > timeout,
                    "lease timeout",
                );
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        // Drain before dropping the listener: a worker whose connection
        // is still in the accept queue when the last point lands would
        // otherwise get a connection reset instead of a handshake and
        // `Finished`. Keep accepting and let every live handler see its
        // worker disconnect; the deadline only guards against a peer
        // that hangs without ever closing.
        let deadline = Instant::now() + self.shared.cfg.lease_timeout;
        loop {
            let idle = match self.listener.accept() {
                Ok((stream, _peer)) => {
                    handlers.push(self.spawn_handler(stream, &mut next_conn));
                    false
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
                Err(_) => true,
            };
            handlers.retain(|handle| !handle.is_finished());
            if idle && handlers.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                // A hung connection; its handler thread detaches when
                // the Vec drops and dies with the worker's socket.
                self.shared
                    .progress("shutdown drain timed out with worker connections still open");
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        let mut state = self.shared.lock();
        if let Some(journal) = &mut state.journal {
            journal.sync()?;
        }
        let records: Vec<PointRecord> = std::mem::take(&mut state.done).into_values().collect();
        let stats = std::mem::take(&mut state.stats);
        drop(state);

        // Canonical reduction: BTreeMap iteration is index order, and
        // `reduce` re-checks count and keys before assembling.
        let report = self.plan.reduce(records)?;
        Ok(ServeOutcome {
            report,
            resumed_points: self.shared.resumed_points,
            evaluated_points: stats.evaluated_points,
            leases_issued: stats.leases_issued,
            leases_reclaimed: stats.leases_reclaimed,
            workers_seen: stats.workers_seen,
        })
    }

    /// Spawns the handler thread for one accepted connection. Each
    /// handler exits on disconnect or after sending `Finished`, and
    /// reclaims its leases on the way out.
    fn spawn_handler(&self, stream: TcpStream, next_conn: &mut u64) -> std::thread::JoinHandle<()> {
        let conn = *next_conn;
        *next_conn += 1;
        let shared = Arc::clone(&self.shared);
        {
            let mut state = shared.lock();
            state.stats.workers_seen += 1;
        }
        std::thread::spawn(move || {
            let result = handle_worker(&shared, conn, stream);
            let mut state = shared.lock();
            shared.reclaim(&mut state, |l| l.conn == conn, "disconnect");
            drop(state);
            if let Err(e) = result {
                shared.progress(&format!("worker connection {conn} ended: {e}"));
            }
        })
    }
}

/// One worker connection: handshake, then serve NeedWork/PointDone
/// until the worker disconnects or the sweep finishes.
fn handle_worker(shared: &Shared, conn: u64, stream: TcpStream) -> Result<(), ServeError> {
    stream.set_nodelay(true).ok();
    let reader_stream = stream.try_clone().map_err(|e| ServeError::Io {
        detail: format!("cloning connection stream: {e}"),
    })?;
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);

    let worker = match read_msg::<WorkerMsg>(&mut reader)? {
        None => return Ok(()),
        Some(WorkerMsg::Hello { protocol, worker }) => {
            if protocol != PROTOCOL_VERSION {
                let detail = format!(
                    "worker {worker} speaks protocol v{protocol}, \
                     coordinator speaks v{PROTOCOL_VERSION}"
                );
                write_msg(
                    &mut writer,
                    &CoordMsg::Error {
                        detail: detail.clone(),
                    },
                )
                .ok();
                return Err(ServeError::Handshake { detail });
            }
            worker
        }
        Some(other) => {
            let detail = format!("expected Hello, got {other:?}");
            write_msg(
                &mut writer,
                &CoordMsg::Error {
                    detail: detail.clone(),
                },
            )
            .ok();
            return Err(ServeError::Protocol { detail });
        }
    };
    write_msg(
        &mut writer,
        &CoordMsg::HelloAck {
            protocol: PROTOCOL_VERSION,
            job: shared.cfg.job.clone(),
            points: shared.n as u64,
            spec_json: shared.spec_json.clone(),
        },
    )?;
    shared.progress(&format!("worker {worker} connected"));

    loop {
        let msg = match read_msg::<WorkerMsg>(&mut reader)? {
            None => return Ok(()), // disconnect; caller reclaims
            Some(msg) => msg,
        };
        match msg {
            WorkerMsg::NeedWork => {
                // Decide under the lock, write after releasing it. The
                // done *flag* (not the map) answers Finished: it
                // outlives `run`'s reduction, so a worker polling
                // after the report is already reduced still gets its
                // Finished instead of waiting forever.
                let reply = {
                    let mut state = shared.lock();
                    if shared.all_done.load(Ordering::SeqCst) {
                        CoordMsg::Finished
                    } else if let Some(first) = state.pending.iter().next().copied() {
                        let lease_size = shared.cfg.lease_size.max(1);
                        let mut end = first + 1;
                        while end - first < lease_size && state.pending.contains(&end) {
                            end += 1;
                        }
                        let outstanding: BTreeSet<usize> = (first..end).collect();
                        for index in &outstanding {
                            state.pending.remove(index);
                        }
                        state.leases.push(ActiveLease {
                            conn,
                            worker: worker.clone(),
                            issued: Instant::now(),
                            outstanding,
                        });
                        state.stats.leases_issued += 1;
                        CoordMsg::Lease {
                            start: first as u64,
                            end: end as u64,
                        }
                    } else {
                        // Everything is leased out; the worker polls
                        // until a lease completes or is reclaimed.
                        CoordMsg::Wait { retry_ms: 50 }
                    }
                };
                let finished = matches!(reply, CoordMsg::Finished);
                write_msg(&mut writer, &reply)?;
                if finished {
                    return Ok(());
                }
            }
            WorkerMsg::PointStart { index, key } => {
                shared.progress(&format!("start {index}: {key} worker={worker}"));
            }
            WorkerMsg::Progress { index, stage } => {
                shared.progress(&format!("point {index}: {stage} worker={worker}"));
            }
            WorkerMsg::PointDone {
                index,
                cache_hit,
                record,
            } => {
                if let Err(e) = shared.record_done(index, cache_hit, record, &worker) {
                    write_msg(
                        &mut writer,
                        &CoordMsg::Error {
                            detail: e.to_string(),
                        },
                    )
                    .ok();
                    return Err(e);
                }
            }
            WorkerMsg::Hello { .. } => {
                let detail = format!("worker {worker} sent a second Hello");
                write_msg(
                    &mut writer,
                    &CoordMsg::Error {
                        detail: detail.clone(),
                    },
                )
                .ok();
                return Err(ServeError::Protocol { detail });
            }
        }
    }
}
