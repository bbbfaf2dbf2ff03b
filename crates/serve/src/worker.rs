//! The sweep worker: connects to a coordinator, re-expands the shipped
//! spec into the identical deterministic point grid, and evaluates
//! leased points through the exploration engine's per-point API.
//!
//! Workers are stateless and interchangeable: any worker may evaluate
//! any point, any number may join or leave mid-sweep, and a worker
//! that dies mid-lease costs only the re-evaluation of its unfinished
//! points. Pointing several workers at one shared cache directory
//! turns it into a content-addressed artifact store — entries are
//! keyed by fingerprints, so concurrent writers produce identical
//! bytes for the same key and a cache race is never a correctness
//! problem.

use crate::protocol::{read_msg, write_msg, CoordMsg, WorkerMsg, PROTOCOL_VERSION};
use crate::ServeError;
use pimcomp_core::{CompileObserver, CompileStage};
use pimcomp_dse::{cache, SweepPlan, SweepSpec};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// How a worker connects and evaluates.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// Display name, shown in the coordinator's progress view.
    pub name: String,
    /// Artifact cache directory shared with other workers; `None`
    /// compiles every point from scratch.
    pub cache_dir: Option<PathBuf>,
    /// Size bound for the cache in megabytes; eviction runs after
    /// each lease ([`pimcomp_dse::cache::enforce_cache_limit`]).
    pub cache_max_mb: Option<u64>,
    /// Stop (dropping the connection, mid-lease if need be) after
    /// evaluating this many points. The crash-resume tests and the CI
    /// worker-kill drill use this to die deterministically; production
    /// workers leave it `None`.
    pub max_points: Option<usize>,
    /// Sleep this long after each point — a throttle so tests can
    /// overlap worker lifetimes deterministically.
    pub throttle: Option<Duration>,
}

impl WorkerConfig {
    /// A worker that connects to `addr` with defaults everywhere else
    /// (no cache, no limits).
    pub fn connect_to(addr: impl Into<String>) -> Self {
        WorkerConfig {
            connect: addr.into(),
            name: format!("worker-{}", std::process::id()),
            cache_dir: None,
            cache_max_mb: None,
            max_points: None,
            throttle: None,
        }
    }
}

/// What one worker session did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The worker's name.
    pub worker: String,
    /// Points evaluated and reported.
    pub points_evaluated: usize,
    /// How many of those the cache answered.
    pub cache_hits: usize,
    /// How many of those hits a metrics sidecar answered, without
    /// loading the artifact or simulating.
    pub metrics_hits: usize,
    /// Leases received.
    pub leases: usize,
    /// True when the worker stopped at
    /// [`WorkerConfig::max_points`] rather than the coordinator's
    /// `Finished`.
    pub stopped_early: bool,
}

/// Streams compile-stage transitions for one point back to the
/// coordinator. Best-effort by design: a lost progress line never
/// fails an evaluation — the PointDone write afterwards surfaces real
/// connection problems.
struct StageStream<'a, W: Write> {
    writer: &'a mut W,
    index: u64,
}

impl<W: Write> CompileObserver for StageStream<'_, W> {
    fn on_stage_finish(&mut self, stage: CompileStage, _elapsed: Duration) {
        write_msg(
            self.writer,
            &WorkerMsg::Progress {
                index: self.index,
                stage: stage.label().to_string(),
            },
        )
        .ok();
    }
}

/// Runs one worker session to completion: handshake, lease loop,
/// disconnect. Returns when the coordinator reports the sweep
/// finished, or early at [`WorkerConfig::max_points`].
///
/// # Errors
///
/// * [`ServeError::Io`] when the coordinator is unreachable or the
///   connection drops,
/// * [`ServeError::Handshake`] on a protocol-version mismatch,
/// * [`ServeError::Protocol`] on malformed traffic, a point-count
///   disagreement, or a coordinator-side rejection,
/// * [`ServeError::Explore`] when the shipped spec does not validate
///   or the cache directory cannot be created.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerSummary, ServeError> {
    let stream = TcpStream::connect(&cfg.connect).map_err(|e| ServeError::Io {
        detail: format!("connecting to coordinator {}: {e}", cfg.connect),
    })?;
    stream.set_nodelay(true).ok();
    let reader_stream = stream.try_clone().map_err(|e| ServeError::Io {
        detail: format!("cloning connection stream: {e}"),
    })?;
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);

    write_msg(
        &mut writer,
        &WorkerMsg::Hello {
            protocol: PROTOCOL_VERSION,
            worker: cfg.name.clone(),
        },
    )?;
    let (points, spec_json) = match read_msg::<CoordMsg>(&mut reader)? {
        Some(CoordMsg::HelloAck {
            protocol,
            points,
            spec_json,
            ..
        }) => {
            if protocol != PROTOCOL_VERSION {
                return Err(ServeError::Handshake {
                    detail: format!(
                        "coordinator speaks protocol v{protocol}, \
                         worker speaks v{PROTOCOL_VERSION}"
                    ),
                });
            }
            (points, spec_json)
        }
        Some(CoordMsg::Error { detail }) => return Err(ServeError::Protocol { detail }),
        Some(other) => {
            return Err(ServeError::Protocol {
                detail: format!("expected HelloAck, got {other:?}"),
            })
        }
        None => {
            return Err(ServeError::Io {
                detail: "coordinator closed the connection during the handshake".to_string(),
            })
        }
    };

    // Re-expand the shipped spec; expansion is deterministic, so every
    // worker and the coordinator hold the identical grid. The count
    // cross-check catches version skew before any work is wasted.
    let spec = SweepSpec::from_json(&spec_json)?;
    let plan = SweepPlan::new(&spec)?;
    if plan.len() as u64 != points {
        return Err(ServeError::Protocol {
            detail: format!(
                "coordinator announced {points} points but the spec expands to {} on this worker \
             — mismatched builds?",
                plan.len()
            ),
        });
    }
    if let Some(dir) = &cfg.cache_dir {
        std::fs::create_dir_all(dir).map_err(|e| ServeError::Io {
            detail: format!("creating cache dir {}: {e}", dir.display()),
        })?;
    }

    let mut summary = WorkerSummary {
        worker: cfg.name.clone(),
        points_evaluated: 0,
        cache_hits: 0,
        metrics_hits: 0,
        leases: 0,
        stopped_early: false,
    };
    'session: loop {
        write_msg(&mut writer, &WorkerMsg::NeedWork)?;
        match read_msg::<CoordMsg>(&mut reader)? {
            Some(CoordMsg::Lease { start, end }) => {
                summary.leases += 1;
                let mut touched = Vec::new();
                for index in start..end {
                    if cfg
                        .max_points
                        .is_some_and(|max| summary.points_evaluated >= max)
                    {
                        // Deliberate mid-lease death: drop the
                        // connection so the coordinator reclaims the
                        // rest of this lease.
                        summary.stopped_early = true;
                        break 'session;
                    }
                    let key = plan
                        .points()
                        .get(index as usize)
                        .map(|p| p.key())
                        .unwrap_or_default();
                    write_msg(&mut writer, &WorkerMsg::PointStart { index, key })?;
                    let mut observer = StageStream {
                        writer: &mut writer,
                        index,
                    };
                    let outcome = plan.evaluate_final_observed(
                        index as usize,
                        cfg.cache_dir.as_deref(),
                        &mut observer,
                    )?;
                    summary.cache_hits += usize::from(outcome.cache_hit);
                    summary.metrics_hits += usize::from(outcome.metrics_hit);
                    if let Some(name) = &outcome.cache_file {
                        touched.push(name.clone());
                    }
                    write_msg(
                        &mut writer,
                        &WorkerMsg::PointDone {
                            index,
                            cache_hit: outcome.cache_hit,
                            record: outcome.record,
                        },
                    )?;
                    summary.points_evaluated += 1;
                    if let Some(pause) = cfg.throttle {
                        std::thread::sleep(pause);
                    }
                }
                // Bound the shared store after each lease, stamping
                // this lease's artifacts most-recent.
                if let (Some(dir), Some(max_mb)) = (&cfg.cache_dir, cfg.cache_max_mb) {
                    touched.sort_unstable();
                    touched.dedup();
                    cache::enforce_cache_limit(dir, max_mb.saturating_mul(1024 * 1024), &touched)?;
                }
            }
            Some(CoordMsg::Wait { retry_ms }) => {
                std::thread::sleep(Duration::from_millis(retry_ms.min(1_000)));
            }
            Some(CoordMsg::Finished) => break,
            Some(CoordMsg::Error { detail }) => return Err(ServeError::Protocol { detail }),
            Some(other) => {
                return Err(ServeError::Protocol {
                    detail: format!("expected Lease/Wait/Finished, got {other:?}"),
                })
            }
            None => {
                return Err(ServeError::Io {
                    detail: "coordinator closed the connection mid-session".to_string(),
                })
            }
        }
    }
    Ok(summary)
}
