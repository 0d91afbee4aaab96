//! Dense `f32` N-dimensional tensor substrate for the R-TOSS reproduction.
//!
//! The paper's pruning algorithms (R-TOSS, DAC 2023) operate on convolution
//! weight tensors laid out as `(out_channels, in_channels, kh, kw)` and on
//! activation tensors laid out as `(batch, channels, height, width)`.
//! This crate provides exactly that substrate: a contiguous row-major
//! [`Tensor`] plus the operations needed to run and train small detectors
//! on a CPU — im2col convolution, pooling, matrix multiplication,
//! reductions, and weight initialisation.
//!
//! # Example
//!
//! ```
//! use rtoss_tensor::Tensor;
//!
//! # fn main() -> Result<(), rtoss_tensor::TensorError> {
//! let x = Tensor::zeros(&[1, 3, 8, 8]);
//! let w = Tensor::ones(&[4, 3, 3, 3]);
//! let y = rtoss_tensor::ops::conv2d(&x, &w, None, 1, 1)?;
//! assert_eq!(y.shape(), &[1, 4, 8, 8]);
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

mod error;
mod shape;
mod tensor;

pub mod exec;
pub mod init;
pub mod microkernel;
pub mod ops;
pub mod pool;

pub use error::TensorError;
pub use exec::{Epilogue, EpilogueAct, ExecConfig};
pub use pool::{BatchHandle, PoolTask, WorkerPool};
pub use shape::Shape;
pub use tensor::Tensor;
