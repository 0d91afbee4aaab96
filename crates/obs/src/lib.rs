//! # rtoss-obs — observability for the R-TOSS serving stack
//!
//! End-to-end tracing, per-layer profiling, every metric primitive and
//! the one metrics exposition path for the sparse serving pipeline.
//! Dependency-free (std only) so every
//! runtime crate — `rtoss-tensor`, `rtoss-sparse`, `rtoss-serve` — can
//! instrument through it without pulling the dependency graph upward.
//!
//! Eight pieces:
//!
//! - [`trace`] — the lock-cheap span/event core: thread-local span
//!   stacks, per-thread buffers drained into a global collector, a
//!   zero-cost disabled path, and sampling (`RTOSS_TRACE`,
//!   `RTOSS_TRACE_SAMPLE`).
//! - [`metrics`] — the cumulative primitives every serving crate
//!   declares its metrics with: lock-striped counters and the one
//!   log-bucket latency histogram.
//! - [`timeseries`] — windowed time-series: fixed rings of aligned
//!   time buckets (counter set / gauge) with O(1) lock-cheap recording
//!   and the same one-atomic-load disabled path (`RTOSS_SERIES`).
//! - [`slo`] — multi-window burn-rate SLO monitors with
//!   firing/resolved hysteresis, emitting structured alert events.
//! - [`flight`] — the black-box flight recorder: a bounded ring of
//!   recent spans/instants/samples/alerts dumped as post-mortem JSON.
//! - [`chrome`] — the Chrome/Perfetto `trace.json` exporter (a method
//!   on [`Trace`]).
//! - [`prom`] — Prometheus text exposition: a generic metric model,
//!   the one renderer (it groups samples by family itself, so callers
//!   may push in any order), and a parser (for round-trip
//!   verification).
//! - [`profile`] — per-span self-time aggregation and the top-N layer
//!   table behind the `obs_profile` report.
//!
//! ## Quickstart
//!
//! ```
//! rtoss_obs::set_enabled(true);
//! rtoss_obs::reset();
//! {
//!     let _batch = rtoss_obs::span("execute");
//!     let _layer = rtoss_obs::span("layer:demo");
//! }
//! rtoss_obs::set_enabled(false);
//! let trace = rtoss_obs::drain();
//! assert_eq!(trace.events.len(), 2);
//! let json = trace.to_chrome_json(); // load in ui.perfetto.dev
//! assert!(json.contains("\"ph\":\"X\""));
//! ```
//!
//! The global trace state (enabled flag, sampling divisor, per-thread
//! buffers) is process-wide; tests that toggle it should serialize
//! themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flight;
pub mod metrics;
pub mod profile;
pub mod prom;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use flight::{FlightEntry, FlightRecorder};
pub use profile::{Profile, SpanStat};
pub use prom::{sanitize_name, PromHistogram, PromMetric, PromSample, PromValue};
pub use slo::{AlertEvent, AlertKind, AlertState, BurnRatePolicy, SloMonitor};
pub use timeseries::{
    series_enabled, set_series_enabled, GaugeSample, SetSample, WindowSpec, WindowedGauge,
    WindowedSet, SERIES_ENV,
};
pub use trace::{
    batch_scope, current_tid, drain, emit_async, emit_instant, emit_instant_lazy, emit_span,
    enabled, now_ns, recording, reset, sample_every, set_enabled, set_sample_every, span,
    span_lazy, ts_ns, ArgValue, Args, EventKind, ScopeGuard, SpanGuard, Trace, TraceEvent,
    MAX_EVENTS_PER_THREAD, SAMPLE_ENV, TRACE_ENV,
};

/// Serializes unit tests that mutate the process-wide trace state.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
