//! # osn-server — overload-tolerant snapshot query daemon
//!
//! A std-only HTTP/1.1 server (no async runtime, no dependencies beyond
//! the workspace) that loads one validated trace, pre-materialises the
//! paper's per-day analyses through [`osn_core::query::SnapshotQuery`],
//! and answers:
//!
//! | endpoint                  | body | plane |
//! |---------------------------|------|-------|
//! | `GET /healthz`            | `ok` | inline (never queued) |
//! | `GET /readyz`             | JSON trace identity | inline |
//! | `GET /v1/meta`            | JSON trace identity + engine kind + version | inline |
//! | `GET /v1/stats`           | JSON server counters + telemetry | inline |
//! | `GET /v1/head`            | JSON live-ingest head state (published day, lag, health) | inline |
//! | `GET /metrics`            | Prometheus text exposition | inline |
//! | `GET /v1/days`            | JSON day lists | workers (inline on a cache hit) |
//! | `GET /v1/metrics/{day}`   | CSV header + row, byte-identical to `osn metrics` | workers (inline on a cache hit) |
//! | `GET /v1/communities/{day}` | CSV header + row, byte-identical to `osn communities` | workers (inline on a cache hit) |
//! | `POST /v1/events`         | JSON append ack (WAL seq, dedup flag) | workers |
//!
//! `POST /v1/events` is the durable write plane (`serve
//! --accept-writes`): bearer-token auth, CSV or JSON batches, per-batch
//! `Idempotency-Key` dedup, and admission control that sheds writes with
//! `429`/`503` + `Retry-After` while reads keep answering — see
//! [`mod@write`].
//!
//! The full HTTP reference lives in `API.md` at the workspace root; it
//! is generated from the route table in [`router`] and kept fresh by a
//! unit test.
//!
//! Robustness is the design center, not throughput:
//!
//! * **Bounded everywhere** — connections still sending their head and
//!   the work queue both have hard bounds; overflow is answered with an
//!   immediate `503` + `Retry-After`, never an unbounded backlog.
//! * **Hostile-client proof** — request heads are read under a deadline
//!   counted from accept (slow-loris), capped in size (header floods),
//!   and a half-closed client still gets its response.
//! * **Panic isolated** — handlers run under the same supervisor as the
//!   batch pipelines (`osn_metrics::supervisor`); a panicking request is
//!   a `500`, not a dead process, and the access log reuses the
//!   supervisor's failure taxonomy.
//! * **Graceful drain** — shutdown stops accepting, finishes in-flight
//!   work up to a deadline, and reports what (if anything) it had to
//!   abandon so the CLI can exit `0` (clean) or `4` (degraded drain).
//!
//! See `DESIGN.md` (workspace root) for the full runbook.

pub mod accesslog;
pub mod cache;
pub mod handlers;
pub mod http;
pub mod net;
pub mod router;
pub mod server;
pub mod write;

pub use accesslog::{AccessLog, ServerStats, StatsSnapshot};
pub use http::{Body, Conn, HeadError, RequestHead, Response};
pub use router::Route;
pub use server::{DrainReport, Server, ServerConfig};
pub use write::WritePlaneConfig;
