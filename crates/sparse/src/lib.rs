//! Pattern-grouped sparse convolution execution.
//!
//! The paper's inference speedups come from two properties of
//! semi-structured pruning (§II.B, §IV.C):
//!
//! 1. pruned weights need never be touched (compute scales with `k/9`),
//! 2. kernels sharing one of the ≤21 patterns can be *grouped*, so the
//!    inner loop runs a fixed, regular set of offsets — unlike
//!    unstructured sparsity, whose irregular gathers defeat caching.
//!
//! A pruned layer is stored once, as a kernel-major [`Pack`].
//! [`PatternCompressedConv`] is the view of one in which kernels of a
//! pattern share one offset list, [`UnstructuredSparseConv`] the view
//! in which every kernel owns its offsets (fig6's unstructured
//! baseline); pattern groups and COO tuples are derived from the pack
//! on demand. One register-tiled driver,
//! [`exec::conv2d_packed_into`], executes every pack: what a pattern
//! buys at run time is a *uniform tap count per kernel*, which lets the
//! driver run one arity-monomorphized body per layer (measured 4–6% on
//! a whole twin16 forward over an arity-generic per-run loop, 0.5% on
//! its heaviest 3×3 layer; which layers carry the difference is
//! unverified). The benchmark spine times both views of one 3×3 layer
//! (`sparse.conv3x3_pattern_3ep_ms` vs `sparse.conv3x3_coo_3ep_ms`).
//!
//! # Example
//!
//! ```
//! use rtoss_sparse::PatternCompressedConv;
//! use rtoss_tensor::{init, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 2-of-9 pruned weight compresses ~4x.
//! let mut w = init::uniform(&mut init::rng(1), &[8, 8, 3, 3], -1.0, 1.0);
//! let set = rtoss_core::pattern::canonical_set(2)?;
//! rtoss_core::prune3x3::prune_3x3_weights(&mut w, &set)?;
//! let pc = PatternCompressedConv::from_dense(&w, 1, 1)?;
//! assert!(pc.compression_ratio() > 2.5);
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

mod format;
mod model;

pub mod exec;
pub mod pack;
pub mod plan;
pub mod runtime;

pub use format::{
    FindingCap, FormatViolation, PatternCompressedConv, PatternGroup, SparseFormatError,
    UnstructuredSparseConv,
};
pub use model::{SparseModel, SparseModelError};
pub use pack::{coo_from_pattern, Pack};
pub use plan::{ExecutionPlan, LevelDeal, LevelSchedule, PlanSummary, StepSummary};
pub use rtoss_tensor::exec::ExecConfig;
