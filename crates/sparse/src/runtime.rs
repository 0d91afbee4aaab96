//! Wall-clock measurement of dense vs sparse execution — the measured
//! CPU series of the Fig. 6 speedup harness.

use crate::exec::{conv2d_pattern_sparse_with, conv2d_unstructured_with};
use crate::format::{PatternCompressedConv, UnstructuredSparseConv};
use rtoss_tensor::exec::ExecConfig;
use rtoss_tensor::{ops, Tensor, TensorError};
use std::time::Instant;

/// Timing comparison of the three executors on one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTiming {
    /// Dense im2col conv seconds per run.
    pub dense_s: f64,
    /// Pattern-grouped sparse conv seconds per run.
    pub pattern_s: f64,
    /// Unstructured COO conv seconds per run.
    pub unstructured_s: f64,
}

impl LayerTiming {
    /// Dense-over-pattern speedup.
    pub fn pattern_speedup(&self) -> f64 {
        self.dense_s / self.pattern_s
    }

    /// Dense-over-unstructured speedup.
    pub fn unstructured_speedup(&self) -> f64 {
        self.dense_s / self.unstructured_s
    }
}

fn time<F: FnMut() -> Result<Tensor, TensorError>>(
    reps: usize,
    mut f: F,
) -> Result<f64, TensorError> {
    // Warm-up run (also validates shapes before timing).
    f()?;
    let start = Instant::now();
    for _ in 0..reps {
        let out = f()?;
        std::hint::black_box(out.as_slice()[0]);
    }
    Ok(start.elapsed().as_secs_f64() / reps as f64)
}

/// Times dense, pattern-sparse, and unstructured execution of one
/// pruned layer on one input, averaging over `reps` runs. All three
/// executors are serial.
///
/// # Errors
///
/// Returns an error if the weight/input geometry is invalid.
pub fn measure_layer(
    x: &Tensor,
    weights: &Tensor,
    stride: usize,
    pad: usize,
    reps: usize,
) -> Result<LayerTiming, TensorError> {
    let pc = PatternCompressedConv::from_dense(weights, stride, pad).map_err(|e| {
        TensorError::Invalid {
            op: "measure_layer",
            msg: e.to_string(),
        }
    })?;
    let un = UnstructuredSparseConv::from_dense(weights, stride, pad).map_err(|e| {
        TensorError::Invalid {
            op: "measure_layer",
            msg: e.to_string(),
        }
    })?;
    let serial = ExecConfig::serial();
    let dense_s = time(reps, || ops::conv2d(x, weights, None, stride, pad))?;
    let pattern_s = time(reps, || conv2d_pattern_sparse_with(x, &pc, None, &serial))?;
    let unstructured_s = time(reps, || conv2d_unstructured_with(x, &un, None, &serial))?;
    Ok(LayerTiming {
        dense_s,
        pattern_s,
        unstructured_s,
    })
}

/// End-to-end model timing: dense graph (eval mode) vs the compiled
/// [`SparseModel`](crate::SparseModel) engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelTiming {
    /// Dense graph forward seconds per frame.
    pub dense_s: f64,
    /// Sparse engine forward seconds per frame.
    pub sparse_s: f64,
}

impl ModelTiming {
    /// Dense-over-sparse speedup.
    pub fn speedup(&self) -> f64 {
        self.dense_s / self.sparse_s
    }
}

/// Times one (pruned) detector graph against its compiled sparse engine
/// on the same input, averaging over `reps` frames. The dense graph
/// runs serially; the engine runs its plan at the process default
/// width ([`ExecConfig::default`]).
///
/// # Errors
///
/// Returns an error if the graph cannot be compiled or inference fails.
pub fn measure_model(
    graph: &mut rtoss_nn::Graph,
    x: &Tensor,
    reps: usize,
) -> Result<ModelTiming, Box<dyn std::error::Error>> {
    let engine = crate::SparseModel::compile(graph)?;
    graph.set_training(false);
    graph.forward(x)?; // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        let y = graph.forward(x)?;
        std::hint::black_box(y[0].as_slice()[0]);
    }
    let dense_s = start.elapsed().as_secs_f64() / reps as f64;
    graph.clear_cache();

    engine.forward(x)?; // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        let y = engine.forward(x)?;
        std::hint::black_box(y[0].as_slice()[0]);
    }
    let sparse_s = start.elapsed().as_secs_f64() / reps as f64;
    Ok(ModelTiming { dense_s, sparse_s })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::pattern::canonical_set;
    use rtoss_core::prune3x3::prune_3x3_weights;
    use rtoss_tensor::init;

    #[test]
    fn measures_positive_times() {
        let mut w = init::uniform(&mut init::rng(1), &[8, 8, 3, 3], -1.0, 1.0);
        prune_3x3_weights(&mut w, &canonical_set(2).unwrap()).unwrap();
        let x = init::uniform(&mut init::rng(2), &[1, 8, 16, 16], -1.0, 1.0);
        let t = measure_layer(&x, &w, 1, 1, 2).unwrap();
        assert!(t.dense_s > 0.0 && t.pattern_s > 0.0 && t.unstructured_s > 0.0);
        assert!(t.pattern_speedup() > 0.0);
    }

    #[test]
    fn model_timing_runs_and_is_positive() {
        use rtoss_core::{EntryPattern, Pruner, RTossPruner};
        let mut m = rtoss_models::yolov5s_twin(4, 2, 5).unwrap();
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .unwrap();
        let x = init::uniform(&mut init::rng(6), &[1, 3, 64, 64], 0.0, 1.0);
        let t = measure_model(&mut m.graph, &x, 2).unwrap();
        assert!(t.dense_s > 0.0 && t.sparse_s > 0.0);
        assert!(t.speedup() > 0.1);
    }

    #[test]
    fn sparse_beats_dense_on_heavily_pruned_layer() {
        // 2-of-9 pruning: pattern executor does ~22% of the MACs. Even a
        // modest measured advantage confirms work really is skipped.
        let mut w = init::uniform(&mut init::rng(3), &[32, 32, 3, 3], -1.0, 1.0);
        prune_3x3_weights(&mut w, &canonical_set(2).unwrap()).unwrap();
        let x = init::uniform(&mut init::rng(4), &[1, 32, 32, 32], -1.0, 1.0);
        let t = measure_layer(&x, &w, 1, 1, 3).unwrap();
        assert!(
            t.pattern_speedup() > 1.2,
            "pattern speedup only {:.2} (dense {:.4}s, sparse {:.4}s)",
            t.pattern_speedup(),
            t.dense_s,
            t.pattern_s
        );
    }
}
