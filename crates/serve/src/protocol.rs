//! The coordinator ⇄ worker wire protocol: versioned, line-delimited
//! JSON over a TCP stream.
//!
//! Every message is one JSON value on one line (`\n`-terminated), in
//! the vendored `serde` derive's externally-tagged enum encoding —
//! unit variants are a bare string, payload variants a single-key map:
//!
//! ```text
//! worker → coordinator                 coordinator → worker
//! ────────────────────                 ────────────────────
//! {"Hello":{"protocol":1,...}}         {"HelloAck":{"protocol":1,...}}
//! "NeedWork"                           {"Lease":{"start":0,"end":4}}
//! {"PointStart":{"index":0,...}}       {"Wait":{"retry_ms":50}}
//! {"Progress":{"index":0,...}}         "Finished"
//! {"PointDone":{"index":0,...}}        {"Error":{"detail":"..."}}
//! ```
//!
//! The handshake carries [`PROTOCOL_VERSION`] both ways; either side
//! rejects a peer from a different version with a structured error
//! rather than guessing at field drift. The full schema, message by
//! message, is documented in `docs/DISTRIBUTED.md`.

use crate::ServeError;
use pimcomp_dse::PointRecord;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// The wire-protocol version; bump on any breaking change to the
/// message set or field shapes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Messages a worker sends to the coordinator.
// `PointDone` dwarfs the other variants, but boxing its record would
// leak into the wire encoding produced by the vendored serde derive;
// these values are short-lived and never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum WorkerMsg {
    /// Opens the session; must be the first message on the connection.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Worker display name (for the coordinator's progress view).
        worker: String,
    },
    /// Asks for a lease; the coordinator answers with
    /// [`CoordMsg::Lease`], [`CoordMsg::Wait`], or
    /// [`CoordMsg::Finished`].
    NeedWork,
    /// The worker started evaluating a point (progress only).
    PointStart {
        /// Point index in the canonical grid.
        index: u64,
        /// The point's stable key.
        key: String,
    },
    /// A compile stage finished for a point (progress only, wired off
    /// the core `CompileObserver`).
    Progress {
        /// Point index in the canonical grid.
        index: u64,
        /// Human-readable stage label.
        stage: String,
    },
    /// A point evaluation finished; carries the full deterministic
    /// record the coordinator journals.
    PointDone {
        /// Point index in the canonical grid.
        index: u64,
        /// Whether the shared artifact cache answered (progress only —
        /// never journaled, never in the report).
        cache_hit: bool,
        /// The point's record, byte-equivalent to what a
        /// single-process run would produce.
        record: PointRecord,
    },
}

/// Messages the coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum CoordMsg {
    /// Accepts the handshake and ships the job.
    HelloAck {
        /// The coordinator's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Job label (for logs).
        job: String,
        /// Points in the expanded grid; the worker cross-checks its
        /// own expansion against this.
        points: u64,
        /// The sweep spec, verbatim; the worker re-expands it into the
        /// identical deterministic point grid.
        spec_json: String,
    },
    /// A lease over the contiguous index range `start..end`.
    Lease {
        /// First leased index (inclusive).
        start: u64,
        /// One past the last leased index.
        end: u64,
    },
    /// No work is available right now (other leases are in flight);
    /// ask again after `retry_ms`.
    Wait {
        /// Suggested retry delay in milliseconds.
        retry_ms: u64,
    },
    /// Every point is complete; the worker should disconnect.
    Finished,
    /// The coordinator rejects the session or a message.
    Error {
        /// Why.
        detail: String,
    },
}

/// Writes one message as one JSON line and flushes it.
///
/// # Errors
///
/// [`ServeError::Io`] when the stream write fails (a dead peer),
/// [`ServeError::Protocol`] when the message cannot be encoded.
pub(crate) fn write_msg<T: Serialize, W: Write>(writer: &mut W, msg: &T) -> Result<(), ServeError> {
    let line = serde_json::to_string(msg).map_err(|e| ServeError::Protocol {
        detail: format!("encoding message: {e}"),
    })?;
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| ServeError::Io {
            detail: format!("writing message: {e}"),
        })
}

/// Reads the next message line. Returns `Ok(None)` on clean EOF (the
/// peer disconnected between messages); blank lines are skipped.
///
/// # Errors
///
/// [`ServeError::Io`] when the read fails, [`ServeError::Protocol`]
/// when a line is not valid JSON for `T` — wire bytes never panic.
pub(crate) fn read_msg<T: Deserialize>(reader: &mut impl BufRead) -> Result<Option<T>, ServeError> {
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| ServeError::Io {
            detail: format!("reading message: {e}"),
        })?;
        if n == 0 {
            return Ok(None);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        return serde_json::from_str(trimmed)
            .map(Some)
            .map_err(|e| ServeError::Protocol {
                detail: format!(
                    "malformed message `{}`: {e}",
                    &trimmed[..trimmed.len().min(120)]
                ),
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip_worker(msg: WorkerMsg) {
        let mut buf = Vec::new();
        write_msg(&mut buf, &msg).unwrap();
        let mut reader = BufReader::new(&buf[..]);
        let back: WorkerMsg = read_msg(&mut reader).unwrap().unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn worker_messages_round_trip() {
        round_trip_worker(WorkerMsg::Hello {
            protocol: PROTOCOL_VERSION,
            worker: "w1".into(),
        });
        round_trip_worker(WorkerMsg::NeedWork);
        round_trip_worker(WorkerMsg::PointStart {
            index: 3,
            key: "tiny_mlp/HT/small_test+par4/naive/b1/seed1".into(),
        });
        round_trip_worker(WorkerMsg::Progress {
            index: 3,
            stage: "replicating + mapping".into(),
        });
    }

    #[test]
    fn coord_messages_round_trip_including_embedded_spec_json() {
        // The spec travels as a JSON string *inside* a one-line
        // message: quotes and newlines must survive the line framing.
        let spec = "{\n  \"models\": [\"tiny_mlp\"]\n}";
        let msg = CoordMsg::HelloAck {
            protocol: PROTOCOL_VERSION,
            job: "smoke".into(),
            points: 4,
            spec_json: spec.into(),
        };
        let mut buf = Vec::new();
        write_msg(&mut buf, &msg).unwrap();
        assert_eq!(
            buf.iter().filter(|&&b| b == b'\n').count(),
            1,
            "one message must be exactly one line"
        );
        let mut reader = BufReader::new(&buf[..]);
        let back: CoordMsg = read_msg(&mut reader).unwrap().unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn malformed_line_is_a_structured_error() {
        let mut reader = BufReader::new(&b"{definitely not json\n"[..]);
        let err = read_msg::<CoordMsg>(&mut reader).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn wrong_variant_shape_is_a_structured_error() {
        let mut reader = BufReader::new(&b"{\"Lease\":{\"start\":\"zero\"}}\n"[..]);
        let err = read_msg::<CoordMsg>(&mut reader).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn eof_between_messages_is_clean() {
        let mut reader = BufReader::new(&b""[..]);
        assert!(read_msg::<WorkerMsg>(&mut reader).unwrap().is_none());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut reader = BufReader::new(&b"\n\n\"NeedWork\"\n"[..]);
        let msg: WorkerMsg = read_msg(&mut reader).unwrap().unwrap();
        assert_eq!(msg, WorkerMsg::NeedWork);
    }
}
