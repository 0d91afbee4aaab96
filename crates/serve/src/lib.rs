//! Deadline-aware, micro-batched inference serving over the R-TOSS
//! pattern-sparse runtime.
//!
//! The paper's pitch is *real-time* object detection: latency targets on
//! embedded GPUs. This crate supplies the missing systems half of that
//! story — a std-only (threads + mutexes, no async runtime) serving
//! stack that turns a compiled [`SparseModel`](rtoss_sparse::SparseModel)
//! into a server with:
//!
//! - a **bounded MPMC queue** with three backpressure policies
//!   ([`Block`](BackpressurePolicy::Block),
//!   [`RejectWhenFull`](BackpressurePolicy::RejectWhenFull),
//!   [`ShedExpired`](BackpressurePolicy::ShedExpired));
//! - a **micro-batching worker pool**: workers pop runs of
//!   shape-compatible requests, stack them along the batch dimension,
//!   and execute one forward pass — bit-identical to per-request
//!   execution (`SparseModel::forward_batch` guarantees it);
//! - **panic isolation**: a panicking model fails only its own batch,
//!   is counted, and the worker keeps serving;
//! - **metrics** declared over `rtoss_obs::metrics`' lock-striped
//!   counters and log-bucket latency histogram: one cumulative counter
//!   per outcome, one histogram per serving phase (queue-wait /
//!   batch-assembly / execute), and a serde-serializable
//!   [`MetricsSnapshot`]. A completion is counted once, in the
//!   cumulative counters; windowed views (the fleet's deadline burn
//!   rate) are derived from readings of those counters.
//!
//! Load generation lives outside the library: the benchmark spine
//! (`benchmark/`, workload `serve_open`) drives a server open-loop.
//!
//! # Example
//!
//! ```
//! use rtoss_serve::{BackpressurePolicy, ServeConfig, Server};
//! use rtoss_sparse::SparseModel;
//! use rtoss_tensor::Tensor;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = rtoss_models::yolov5s_twin(4, 2, 1)?;
//! let engine = Arc::new(SparseModel::compile(&model.graph)?);
//! let server = Server::start(engine, ServeConfig {
//!     workers: 2,
//!     max_batch: 4,
//!     policy: BackpressurePolicy::ShedExpired,
//!     ..ServeConfig::default()
//! });
//! let ticket = server.submit(Tensor::zeros(&[1, 3, 64, 64]),
//!                            Some(Duration::from_secs(5)))?;
//! let response = ticket.wait()?;
//! assert!(!response.outputs.is_empty());
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod metrics;
mod queue;
mod request;
mod server;

pub use metrics::{MetricsSnapshot, PhaseHistogram, PhaseStats, ServerMetrics};
pub use queue::BackpressurePolicy;
pub use request::{
    InferenceRequest, InferenceResponse, RequestError, RequestResult, RequestTiming, Ticket,
};
pub use rtoss_tensor::ExecConfig;
pub use server::{QueueDepthHandle, ServeConfig, ServeModel, Server};
