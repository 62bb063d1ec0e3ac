//! **ppl-obs** — the flight recorder: spans, structured logs, and request
//! traces for the serving stack.  Plain `std`, zero dependencies, like
//! everything else in the workspace.
//!
//! Four pieces:
//!
//! * [`span`] — a fixed vocabulary of request [`Phase`]s and an RAII
//!   [`Span`] timer.  Spans feed the *ambient* trace of the current
//!   thread; when no trace is active, [`Span::enter`] is inert — it reads
//!   no clock and allocates nothing, which is what lets the engine hot
//!   loop carry span calls for free when tracing is off (proved by the
//!   repository's `alloc_budget` test).
//! * [`hist`] — the lock-free log-linear latency [`Histogram`] behind
//!   every percentile `/metrics` reports (≤ 12.5% relative error,
//!   quantiles clamped to the observed `[min, max]`).
//! * [`trace`] — the [`Recorder`]: a per-(route, phase) [`Histogram`]
//!   matrix, a bounded ring buffer of the last N completed request
//!   traces (behind `GET /v1/trace`), and engine-quality gauges (minimum
//!   ESS seen, worst acceptance rate).
//! * [`log`] — leveled structured logging: one JSON object per line on
//!   stderr, monotonic timestamps, rate-limited per (level, code) so an
//!   overload storm cannot turn the logger into the bottleneck.
//!
//! # Determinism
//!
//! Nothing in this crate touches an RNG or the inference engines' state.
//! Trace ids are derived from a hash of the request bytes plus a process
//! epoch counter ([`trace::request_hash`], [`Recorder::begin`]), so
//! enabling or disabling tracing can never perturb a bit-deterministic
//! result — the serving layer's byte-identity guarantees hold with the
//! recorder on or off.

pub mod hist;
pub mod log;
pub mod span;
pub mod trace;

pub use hist::Histogram;
pub use span::{Phase, Span, NUM_PHASES, PHASES};
pub use trace::{CompletedTrace, Recorder, RoutePhaseStats};
