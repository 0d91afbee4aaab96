//! State-of-the-art pruning baselines the paper compares against
//! (§V.C): PATDNN (PD), Neural Magic SparseML-style magnitude pruning
//! (NMS), Network Slimming (NS), Pruning Filters (PF), and Neural
//! Pruning (NP).
//!
//! Each baseline re-implements the *pruning rule* of its source paper
//! (DESIGN.md §2); all of them implement the [`crate::Pruner`] trait so
//! the figure harnesses can sweep them uniformly.

mod filter_pruning;
mod magnitude;
mod neural_pruning;
mod patdnn;
mod slimming;

pub use filter_pruning::PruningFilters;
pub use magnitude::MagnitudePruner;
pub use neural_pruning::NeuralPruning;
pub use patdnn::PatDnn;
pub use slimming::NetworkSlimming;

use crate::Pruner;

/// The full baseline roster in the paper's Fig. 4–7 order
/// (PD, NMS, NS, PF, NP), with each method's default configuration.
pub fn all_baselines() -> Vec<Box<dyn Pruner>> {
    vec![
        Box::new(PatDnn::default()),
        Box::new(MagnitudePruner::default()),
        Box::new(NetworkSlimming::default()),
        Box::new(PruningFilters::default()),
        Box::new(NeuralPruning::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_order_matches_paper() {
        let names: Vec<String> = all_baselines().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["PD", "NMS", "NS", "PF", "NP"]);
    }

    #[test]
    fn every_baseline_prunes_the_twin() {
        for b in all_baselines() {
            let mut m = rtoss_models::yolov5s_twin(8, 3, 21).unwrap();
            let r = b.prune_graph(&mut m.graph).unwrap();
            assert!(
                r.overall_sparsity() > 0.1,
                "{} produced sparsity {}",
                b.name(),
                r.overall_sparsity()
            );
            assert!(
                r.overall_sparsity() < 0.95,
                "{} pruned everything",
                b.name()
            );
        }
    }
}
