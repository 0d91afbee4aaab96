//! Algorithm 2: 3×3 kernel pattern pruning.
//!
//! For every 2-D kernel of a conv weight `(O, I, 3, 3)`, compute the
//! post-mask L2 norm under each candidate pattern, keep the best
//! pattern's cells, and zero the rest. Returns the binary mask so the
//! caller can install it as the parameter's pruning mask (keeping the
//! weights pruned through fine-tuning).

use crate::pattern::PatternSet;
use crate::PruneError;
use rtoss_tensor::Tensor;

/// Result of pruning one 3×3 weight tensor.
#[derive(Debug, Clone)]
pub struct Prune3x3Output {
    /// Binary (0/1) mask with the same shape as the weight.
    pub mask: Tensor,
    /// Index into the pattern set chosen for each kernel, row-major over
    /// `(O, I)`.
    pub chosen: Vec<usize>,
}

impl Prune3x3Output {
    /// The distinct pattern indices actually used, sorted ascending —
    /// the subset a parent layer shares with its group children.
    pub fn used_patterns(&self) -> Vec<usize> {
        distinct_sorted(&self.chosen)
    }
}

/// The distinct values of `chosen`, ascending, read off a seen-table:
/// one pass over the choices and one over the (pattern-set sized)
/// table.
pub(crate) fn distinct_sorted(chosen: &[usize]) -> Vec<usize> {
    let mut seen: Vec<bool> = Vec::new();
    for &c in chosen {
        if c >= seen.len() {
            seen.resize(c + 1, false);
        }
        seen[c] = true;
    }
    (0..seen.len()).filter(|&c| seen[c]).collect()
}

/// Algorithm 2 over a run of 9-weight chunks, in place: scores every
/// pattern per chunk (lines 6–11), keeps the best fit's cells, zeroes
/// the rest, writes the 0/1 mask and appends the chosen index.
/// `weights` and `mask` are the same whole number of chunks.
pub(crate) fn prune_chunks(
    weights: &mut [f32],
    mask: &mut [f32],
    patterns: &PatternSet,
    chosen: &mut Vec<usize>,
) {
    debug_assert_eq!(weights.len(), mask.len());
    debug_assert_eq!(weights.len() % 9, 0);
    for (kernel, m) in weights.chunks_exact_mut(9).zip(mask.chunks_exact_mut(9)) {
        let (best, _) = patterns.best_for(kernel);
        let bits = patterns.patterns()[best].bits();
        for (ci, (w, m)) in kernel.iter_mut().zip(m.iter_mut()).enumerate() {
            if bits & (1 << ci) != 0 {
                *m = 1.0;
            } else {
                *w = 0.0;
                *m = 0.0;
            }
        }
        chosen.push(best);
    }
}

/// Prunes a `(O, I, 3, 3)` weight tensor in place with the given
/// pattern set (Algorithm 2), returning the mask and per-kernel choices.
///
/// # Errors
///
/// Returns [`PruneError::Shape`] if the weight is not rank 4 with 3×3
/// spatial extent.
pub fn prune_3x3_weights(
    weights: &mut Tensor,
    patterns: &PatternSet,
) -> Result<Prune3x3Output, PruneError> {
    let shape = weights.shape();
    if shape.len() != 4 || shape[2] != 3 || shape[3] != 3 {
        return Err(PruneError::Shape {
            op: "prune_3x3",
            msg: format!("expected (O, I, 3, 3) weights, got {shape:?}"),
        });
    }
    let mut mask = Tensor::zeros(shape);
    let mut chosen = Vec::with_capacity(shape[0] * shape[1]);
    prune_chunks(
        weights.as_mut_slice(),
        mask.as_mut_slice(),
        patterns,
        &mut chosen,
    );
    Ok(Prune3x3Output { mask, chosen })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{canonical_set, Pattern, PatternSet};
    use rtoss_tensor::init;

    #[test]
    fn keeps_exactly_k_weights_per_kernel() {
        for k in [2usize, 3, 4, 5] {
            let set = canonical_set(k).unwrap();
            let mut w = init::uniform(&mut init::rng(1), &[4, 3, 3, 3], -1.0, 1.0);
            let out = prune_3x3_weights(&mut w, &set).unwrap();
            for ki in 0..12 {
                let nz = w.as_slice()[ki * 9..(ki + 1) * 9]
                    .iter()
                    .filter(|&&v| v != 0.0)
                    .count();
                assert!(nz <= k, "kernel {ki} kept {nz} > {k}");
                let mask_nz = out.mask.as_slice()[ki * 9..(ki + 1) * 9]
                    .iter()
                    .filter(|&&v| v != 0.0)
                    .count();
                assert_eq!(mask_nz, k);
            }
        }
    }

    #[test]
    fn chooses_max_l2_pattern() {
        // Kernel with all energy in the top row: the top-row pattern wins.
        let top_row = Pattern::from_cells(&[(0, 0), (0, 1), (0, 2)]).unwrap();
        let bottom_row = Pattern::from_cells(&[(2, 0), (2, 1), (2, 2)]).unwrap();
        let set = PatternSet::new(vec![bottom_row, top_row]).unwrap();
        let mut w = Tensor::from_vec(
            vec![5.0, 5.0, 5.0, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let out = prune_3x3_weights(&mut w, &set).unwrap();
        assert_eq!(out.chosen, vec![1]);
        assert_eq!(w.as_slice(), &[5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pruning_is_idempotent() {
        let set = canonical_set(3).unwrap();
        let mut w = init::uniform(&mut init::rng(2), &[2, 2, 3, 3], -1.0, 1.0);
        let first = prune_3x3_weights(&mut w, &set).unwrap();
        let snapshot = w.clone();
        let second = prune_3x3_weights(&mut w, &set).unwrap();
        assert_eq!(w, snapshot, "second pass must not change weights");
        assert_eq!(first.chosen, second.chosen);
    }

    #[test]
    fn mask_matches_surviving_weights() {
        let set = canonical_set(2).unwrap();
        let mut w = init::uniform(&mut init::rng(3), &[3, 2, 3, 3], -1.0, 1.0);
        let out = prune_3x3_weights(&mut w, &set).unwrap();
        for (v, m) in w.as_slice().iter().zip(out.mask.as_slice()) {
            if *m == 0.0 {
                assert_eq!(*v, 0.0);
            }
        }
    }

    #[test]
    fn induced_sparsity_matches_entry_count() {
        let set = canonical_set(2).unwrap();
        let mut w = init::uniform(&mut init::rng(4), &[8, 8, 3, 3], -1.0, 1.0);
        prune_3x3_weights(&mut w, &set).unwrap();
        // 2 of 9 kept → sparsity 7/9.
        assert!((w.sparsity() - 7.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn used_patterns_subset() {
        let set = canonical_set(3).unwrap();
        let mut w = init::uniform(&mut init::rng(5), &[6, 6, 3, 3], -1.0, 1.0);
        let out = prune_3x3_weights(&mut w, &set).unwrap();
        let used = out.used_patterns();
        assert!(!used.is_empty());
        assert!(used.len() <= set.len());
        assert!(used.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rejects_non_3x3() {
        let set = canonical_set(3).unwrap();
        let mut w = Tensor::zeros(&[2, 2, 1, 1]);
        assert!(prune_3x3_weights(&mut w, &set).is_err());
        let mut w = Tensor::zeros(&[2, 2, 3]);
        assert!(prune_3x3_weights(&mut w, &set).is_err());
    }
}
