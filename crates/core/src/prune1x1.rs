//! Algorithm 3: 1×1 kernel pooling and transformation.
//!
//! Modern detectors are 56–68% 1×1 kernels (§III), which prior pattern
//! pruners ignore. R-TOSS flattens a layer's 1×1 kernel weights, pools
//! every 9 consecutive weights into a temporary 3×3 matrix, pattern-prunes
//! those matrices with Algorithm 2, and scatters the surviving weights
//! back to their original 1×1 positions. A tail chunk of fewer than 9
//! weights is "considered as zero weights and pruned" (Algorithm 3,
//! line 13).

use crate::pattern::PatternSet;
use crate::prune3x3::{distinct_sorted, prune_chunks};
use crate::PruneError;
use rtoss_tensor::Tensor;

/// Result of pruning one 1×1 weight tensor.
#[derive(Debug, Clone)]
pub struct Prune1x1Output {
    /// Binary mask with the same `(O, I, 1, 1)` shape as the weight.
    pub mask: Tensor,
    /// Pattern index chosen for each pooled 3×3 temporary matrix.
    pub chosen: Vec<usize>,
    /// Number of tail weights pruned because they did not fill a 3×3
    /// temporary matrix.
    pub tail_pruned: usize,
}

impl Prune1x1Output {
    /// The distinct pattern indices actually used, sorted ascending —
    /// the subset a parent layer shares with its group children.
    pub fn used_patterns(&self) -> Vec<usize> {
        distinct_sorted(&self.chosen)
    }
}

/// Prunes a `(O, I, 1, 1)` weight tensor in place via the 1×1 → 3×3
/// transformation (Algorithm 3).
///
/// The "temporary 3×3 matrices" of lines 5–11 are the consecutive
/// 9-chunks of the flattened weight, so Algorithm 2 runs over them
/// where they lie and lines 15–16 (reshape and write back) have nothing
/// left to move.
///
/// # Errors
///
/// Returns [`PruneError::Shape`] if the weight is not rank 4 with 1×1
/// spatial extent.
pub fn prune_1x1_weights(
    weights: &mut Tensor,
    patterns: &PatternSet,
) -> Result<Prune1x1Output, PruneError> {
    let shape = weights.shape();
    if shape.len() != 4 || shape[2] != 1 || shape[3] != 1 {
        return Err(PruneError::Shape {
            op: "prune_1x1",
            msg: format!("expected (O, I, 1, 1) weights, got {shape:?}"),
        });
    }
    let mut mask = Tensor::zeros(shape);
    // Lines 1-2: flatten the kernel weights.
    let flat = weights.as_mut_slice();
    let full = flat.len() / 9 * 9;
    let mut chosen = Vec::with_capacity(full / 9);
    // Lines 5-11 and 14: every 9 weights are one 3×3 matrix for
    // Algorithm 2.
    prune_chunks(
        &mut flat[..full],
        &mut mask.as_mut_slice()[..full],
        patterns,
        &mut chosen,
    );
    // Line 13: leftover weights are considered zero and pruned (their
    // mask entries are already zero).
    flat[full..].fill(0.0);
    Ok(Prune1x1Output {
        mask,
        chosen,
        tail_pruned: flat.len() - full,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::canonical_set;
    use rtoss_tensor::init;

    #[test]
    fn sparsity_matches_entry_count_when_divisible() {
        // 6*6 = 36 weights = 4 full chunks, no tail.
        let set = canonical_set(2).unwrap();
        let mut w = init::uniform(&mut init::rng(1), &[6, 6, 1, 1], -1.0, 1.0);
        let out = prune_1x1_weights(&mut w, &set).unwrap();
        assert_eq!(out.tail_pruned, 0);
        assert_eq!(out.chosen.len(), 4);
        assert!((w.sparsity() - 7.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn tail_is_fully_pruned() {
        // 4*3 = 12 weights = 1 chunk + tail of 3.
        let set = canonical_set(3).unwrap();
        let mut w = init::uniform(&mut init::rng(2), &[4, 3, 1, 1], -1.0, 1.0);
        let out = prune_1x1_weights(&mut w, &set).unwrap();
        assert_eq!(out.tail_pruned, 3);
        // Tail weights are zero.
        assert!(w.as_slice()[9..].iter().all(|&v| v == 0.0));
        // First chunk keeps exactly 3.
        let nz = w.as_slice()[..9].iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nz, 3);
    }

    #[test]
    fn survivors_keep_their_values_and_positions() {
        let set = canonical_set(3).unwrap();
        let mut w = init::uniform(&mut init::rng(3), &[3, 6, 1, 1], -1.0, 1.0);
        let before = w.clone();
        let out = prune_1x1_weights(&mut w, &set).unwrap();
        for (i, (&a, &b)) in before.as_slice().iter().zip(w.as_slice()).enumerate() {
            if b != 0.0 {
                assert_eq!(a, b, "surviving weight {i} moved or changed");
            }
        }
        // Mask agrees with survivors.
        for (&v, &m) in w.as_slice().iter().zip(out.mask.as_slice()) {
            assert_eq!(m != 0.0, v != 0.0 || (m != 0.0 && v == 0.0));
            if m == 0.0 {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn smaller_than_one_chunk_is_entirely_pruned() {
        let set = canonical_set(2).unwrap();
        let mut w = init::uniform(&mut init::rng(4), &[2, 2, 1, 1], -1.0, 1.0);
        let out = prune_1x1_weights(&mut w, &set).unwrap();
        assert_eq!(out.tail_pruned, 4);
        assert!(out.chosen.is_empty());
        assert!(w.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn idempotent() {
        let set = canonical_set(2).unwrap();
        let mut w = init::uniform(&mut init::rng(5), &[8, 9, 1, 1], -1.0, 1.0);
        prune_1x1_weights(&mut w, &set).unwrap();
        let snap = w.clone();
        prune_1x1_weights(&mut w, &set).unwrap();
        assert_eq!(w, snap);
    }

    #[test]
    fn rejects_non_1x1() {
        let set = canonical_set(2).unwrap();
        let mut w = Tensor::zeros(&[2, 2, 3, 3]);
        assert!(prune_1x1_weights(&mut w, &set).is_err());
    }

    #[test]
    fn large_layer_sparsity_close_to_limit() {
        // Large 1×1 layer: sparsity → (9-k)/9 as tail fraction vanishes.
        let set = canonical_set(2).unwrap();
        let mut w = init::uniform(&mut init::rng(6), &[64, 64, 1, 1], -1.0, 1.0);
        prune_1x1_weights(&mut w, &set).unwrap();
        let expected = 7.0 / 9.0;
        assert!((w.sparsity() - expected).abs() < 0.01, "{}", w.sparsity());
    }
}
