//! Kernel patterns: generation (Eq. 1), the adjacency filter, and
//! L2-frequency selection (§IV.B of the paper).
//!
//! A pattern is a binary mask over a 3×3 kernel with exactly `k`
//! non-zero cells. The paper generates all `C(9, k)` candidates, drops
//! "patterns without adjacent non-zero weights" (we read this as: the
//! kept cells form one 4-connected component, preserving the
//! semi-structured property), and keeps the most-used patterns measured
//! by which pattern maximises the post-mask L2 norm of random kernels
//! drawn uniformly from `[-1, 1]`. The working set the paper lands on
//! has **21 patterns**; with our selection defaults that is exactly the
//! 12 connected 2-entry patterns plus the top-9 of the 22 connected
//! 3-entry patterns ([`canonical_pattern_count`]).

use crate::PruneError;
use rand::Rng;
use rtoss_tensor::init;
use serde::{Deserialize, Serialize};

/// A binary mask over a 3×3 kernel, stored as a 9-bit set
/// (row-major: bit `3*row + col`).
///
/// # Example
///
/// ```
/// use rtoss_core::pattern::Pattern;
///
/// let p = Pattern::from_cells(&[(0, 0), (0, 1)]).unwrap();
/// assert_eq!(p.weight_count(), 2);
/// assert!(p.is_connected());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Pattern(u16);

impl Pattern {
    /// Builds a pattern from `(row, col)` cells.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::Config`] if a cell is out of the 3×3 range
    /// or duplicated.
    pub fn from_cells(cells: &[(usize, usize)]) -> Result<Self, PruneError> {
        let mut bits = 0u16;
        for &(r, c) in cells {
            if r >= 3 || c >= 3 {
                return Err(PruneError::Config {
                    msg: format!("pattern cell ({r},{c}) outside 3x3"),
                });
            }
            let bit = 1u16 << (3 * r + c);
            if bits & bit != 0 {
                return Err(PruneError::Config {
                    msg: format!("duplicate pattern cell ({r},{c})"),
                });
            }
            bits |= bit;
        }
        Ok(Pattern(bits))
    }

    /// Builds a pattern from a raw 9-bit mask.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::Config`] if bits above the ninth are set.
    pub fn from_bits(bits: u16) -> Result<Self, PruneError> {
        if bits >= 1 << 9 {
            return Err(PruneError::Config {
                msg: format!("pattern bits {bits:#x} exceed 3x3"),
            });
        }
        Ok(Pattern(bits))
    }

    /// The raw 9-bit mask.
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Whether the cell at `(row, col)` is kept (non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `row >= 3` or `col >= 3`.
    pub fn keeps(self, row: usize, col: usize) -> bool {
        assert!(row < 3 && col < 3);
        self.0 & (1 << (3 * row + col)) != 0
    }

    /// Number of kept (non-zero) cells — the "entry count" `k`.
    pub fn weight_count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The kept cells as `(row, col)` pairs, row-major.
    pub fn cells(self) -> Vec<(usize, usize)> {
        (0..9)
            .filter(|i| self.0 & (1 << i) != 0)
            .map(|i| (i / 3, i % 3))
            .collect()
    }

    /// Whether the kept cells form a single 4-connected component
    /// (the paper's "adjacent non-zero weights" rule).
    ///
    /// A bit flood-fill from the lowest kept cell: no allocation, at
    /// most nine rounds.
    pub fn is_connected(self) -> bool {
        // Cells that have a left (column > 0) / right (column < 2)
        // neighbour inside the 3×3 grid.
        const HAS_LEFT: u16 = 0b110_110_110;
        const HAS_RIGHT: u16 = 0b011_011_011;
        let kept = self.0 & 0x1ff;
        if kept == 0 {
            return false;
        }
        let mut reached = kept & kept.wrapping_neg();
        loop {
            let grown = (reached
                | reached >> 3
                | reached << 3
                | (reached & HAS_LEFT) >> 1
                | (reached & HAS_RIGHT) << 1)
                & kept;
            if grown == reached {
                return reached == kept;
            }
            reached = grown;
        }
    }

    /// Applies the pattern to a flat row-major 3×3 kernel, zeroing the
    /// dropped cells in place.
    ///
    /// # Panics
    ///
    /// Panics if `kernel.len() != 9`.
    pub fn apply(self, kernel: &mut [f32]) {
        assert_eq!(kernel.len(), 9, "pattern applies to 3x3 kernels");
        for (i, v) in kernel.iter_mut().enumerate() {
            if self.0 & (1 << i) == 0 {
                *v = 0.0;
            }
        }
    }

    /// L2 norm of the kernel after applying this pattern (without
    /// modifying the kernel) — the selection score of Algorithm 2.
    ///
    /// # Panics
    ///
    /// Panics if `kernel.len() != 9`.
    pub fn masked_l2(self, kernel: &[f32]) -> f32 {
        assert_eq!(kernel.len(), 9, "pattern applies to 3x3 kernels");
        let mut s = 0.0f32;
        for (i, &v) in kernel.iter().enumerate() {
            if self.0 & (1 << i) != 0 {
                s += v * v;
            }
        }
        s.sqrt()
    }
}

/// The L2 contest of Algorithm 2 over `patterns`: `(index, l2)` of the
/// first pattern with the strictly greatest post-mask L2 norm.
///
/// The nine cells are squared once per kernel; each pattern then sums
/// its kept squares in ascending cell order from `0.0` and takes the
/// root, exactly as [`Pattern::masked_l2`] does, so scores — and ties,
/// which `sqrt` can create — are bit-identical to calling it per
/// pattern. (A dropped cell adds `+0.0`, which leaves a non-negative
/// running sum unchanged.)
///
/// # Panics
///
/// Panics if `kernel.len() != 9`.
fn best_of(patterns: &[Pattern], kernel: &[f32]) -> (usize, f32) {
    assert_eq!(kernel.len(), 9, "pattern applies to 3x3 kernels");
    let mut squares = [0.0f32; 9];
    for (sq, &v) in squares.iter_mut().zip(kernel) {
        *sq = v * v;
    }
    let mut best = (0usize, f32::NEG_INFINITY);
    for (i, p) in patterns.iter().enumerate() {
        let mut s = 0.0f32;
        for (ci, &sq) in squares.iter().enumerate() {
            s += if p.0 & (1 << ci) != 0 { sq } else { 0.0 };
        }
        let l2 = s.sqrt();
        if l2 > best.1 {
            best = (i, l2);
        }
    }
    best
}

/// `n(k) = C(9, k)`: the number of raw pattern candidates (Eq. 1 with
/// `n = 9`).
pub fn candidate_count(k: usize) -> usize {
    // C(9, k)
    if k > 9 {
        return 0;
    }
    let mut num = 1usize;
    let mut den = 1usize;
    for i in 0..k {
        num *= 9 - i;
        den *= i + 1;
    }
    num / den
}

/// Enumerates all `C(9, k)` patterns with exactly `k` kept cells.
///
/// # Errors
///
/// Returns [`PruneError::Config`] if `k` is 0 or greater than 9 (the
/// paper's valid range is 1..=8).
pub fn generate_all(k: usize) -> Result<Vec<Pattern>, PruneError> {
    if k == 0 || k > 9 {
        return Err(PruneError::Config {
            msg: format!("entry count k={k} outside 1..=9"),
        });
    }
    let mut out = Vec::with_capacity(candidate_count(k));
    for bits in 0u16..(1 << 9) {
        if bits.count_ones() as usize == k {
            out.push(Pattern(bits));
        }
    }
    Ok(out)
}

/// Enumerates the connected ("adjacent") patterns with `k` kept cells —
/// the paper's first narrowing rule.
///
/// # Errors
///
/// Propagates [`generate_all`] errors.
pub fn generate_adjacent(k: usize) -> Result<Vec<Pattern>, PruneError> {
    Ok(generate_all(k)?
        .into_iter()
        .filter(|p| p.is_connected())
        .collect())
}

/// An ordered set of candidate patterns sharing the same entry count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternSet {
    k: usize,
    patterns: Vec<Pattern>,
}

impl PatternSet {
    /// Wraps an explicit pattern list.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::Config`] if the list is empty or the entry
    /// counts are inconsistent.
    pub fn new(patterns: Vec<Pattern>) -> Result<Self, PruneError> {
        let Some(first) = patterns.first() else {
            return Err(PruneError::Config {
                msg: "empty pattern set".into(),
            });
        };
        let k = first.weight_count();
        if patterns.iter().any(|p| p.weight_count() != k) {
            return Err(PruneError::Config {
                msg: "mixed entry counts in pattern set".into(),
            });
        }
        Ok(PatternSet { k, patterns })
    }

    /// Entry count `k` shared by all patterns.
    pub fn entry_count(&self) -> usize {
        self.k
    }

    /// The patterns, in selection order.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The best pattern for a flat 3×3 kernel by post-mask L2 norm
    /// (Algorithm 2, lines 7–11). Returns `(index, l2)`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel.len() != 9`.
    pub fn best_for(&self, kernel: &[f32]) -> (usize, f32) {
        best_of(&self.patterns, kernel)
    }

    /// Restricts the set to the given pattern indices (used to share a
    /// parent layer's pattern subset with its children).
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::Config`] if `indices` is empty or any index
    /// is out of range.
    pub fn subset(&self, indices: &[usize]) -> Result<PatternSet, PruneError> {
        if indices.is_empty() {
            return Err(PruneError::Config {
                msg: "empty pattern subset".into(),
            });
        }
        let mut patterns = Vec::with_capacity(indices.len());
        for &i in indices {
            let p = self.patterns.get(i).ok_or_else(|| PruneError::Config {
                msg: format!("pattern index {i} out of range {}", self.patterns.len()),
            })?;
            patterns.push(*p);
        }
        PatternSet::new(patterns)
    }
}

/// L2-frequency selection (§IV.B, rule 2): draws `samples` random
/// 3×3 kernels uniformly from `[-1, 1]`, counts which adjacent pattern
/// wins the post-mask L2 contest for each, and keeps the `budget`
/// most-used patterns.
///
/// # Errors
///
/// Returns [`PruneError::Config`] for `k` outside 1..=9, a zero budget,
/// or zero samples.
pub fn select_patterns(
    k: usize,
    budget: usize,
    samples: usize,
    seed: u64,
) -> Result<PatternSet, PruneError> {
    if budget == 0 || samples == 0 {
        return Err(PruneError::Config {
            msg: "pattern budget and sample count must be non-zero".into(),
        });
    }
    let candidates = generate_adjacent(k)?;
    let mut wins = vec![0u64; candidates.len()];
    let mut rng = init::rng(seed);
    let mut kernel = [0.0f32; 9];
    for _ in 0..samples {
        for v in &mut kernel {
            *v = rng.gen_range(-1.0f32..1.0);
        }
        wins[best_of(&candidates, &kernel).0] += 1;
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        wins[b]
            .cmp(&wins[a])
            .then(candidates[a].cmp(&candidates[b]))
    });
    let kept: Vec<Pattern> = order
        .into_iter()
        .take(budget.min(candidates.len()))
        .map(|i| candidates[i])
        .collect();
    PatternSet::new(kept)
}

/// [`select_patterns`] without the adjacency filter: candidates are all
/// `C(9, k)` masks (ablation of §IV.B rule 1 — disconnected
/// patterns score slightly higher L2 but forfeit the semi-structured
/// regularity the executors rely on).
///
/// # Errors
///
/// Returns [`PruneError::Config`] for invalid `k`, budget, or samples.
pub fn select_patterns_unfiltered(
    k: usize,
    budget: usize,
    samples: usize,
    seed: u64,
) -> Result<PatternSet, PruneError> {
    if budget == 0 || samples == 0 {
        return Err(PruneError::Config {
            msg: "pattern budget and sample count must be non-zero".into(),
        });
    }
    let candidates = generate_all(k)?;
    let mut wins = vec![0u64; candidates.len()];
    let mut rng = init::rng(seed);
    let mut kernel = [0.0f32; 9];
    for _ in 0..samples {
        for v in &mut kernel {
            *v = rng.gen_range(-1.0f32..1.0);
        }
        wins[best_of(&candidates, &kernel).0] += 1;
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        wins[b]
            .cmp(&wins[a])
            .then(candidates[a].cmp(&candidates[b]))
    });
    let kept: Vec<Pattern> = order
        .into_iter()
        .take(budget.min(candidates.len()))
        .map(|i| candidates[i])
        .collect();
    PatternSet::new(kept)
}

/// The paper's default pattern budget per entry count: all 12 connected
/// 2-entry patterns, the top-9 3-entry patterns (12 + 9 = the paper's
/// "21 pre-defined kernel patterns"), and 8 patterns for the 4EP/5EP
/// sensitivity variants (PATDNN's working-set size).
pub fn default_budget(k: usize) -> usize {
    match k {
        2 => 12,
        3 => 9,
        _ => 8,
    }
}

/// Builds the canonical pattern set for entry count `k` with the
/// default budget and a fixed selection seed.
///
/// # Errors
///
/// Propagates [`select_patterns`] errors.
pub fn canonical_set(k: usize) -> Result<PatternSet, PruneError> {
    select_patterns(k, default_budget(k), 20_000, 0x5EED)
}

/// Total number of patterns in the paper's working set
/// (2EP ∪ 3EP): must equal 21 (§IV.C).
pub fn canonical_pattern_count() -> usize {
    default_budget(2) + default_budget(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_counts_match_eq1() {
        // C(9, k) for k = 1..=8: 9, 36, 84, 126, 126, 84, 36, 9.
        let expect = [9, 36, 84, 126, 126, 84, 36, 9];
        for (k, &e) in (1..=8).zip(expect.iter()) {
            assert_eq!(candidate_count(k), e, "k={k}");
            assert_eq!(generate_all(k).unwrap().len(), e, "k={k}");
        }
    }

    #[test]
    fn adjacency_filter_counts() {
        // Connected 2-cell shapes = number of grid edges = 12.
        assert_eq!(generate_adjacent(2).unwrap().len(), 12);
        // Connected 3-cell shapes in a 3x3 grid = 22
        // (6 straight + 16 L-shaped placements).
        assert_eq!(generate_adjacent(3).unwrap().len(), 22);
        // All patterns remain valid k-subsets.
        for p in generate_adjacent(4).unwrap() {
            assert_eq!(p.weight_count(), 4);
            assert!(p.is_connected());
        }
    }

    #[test]
    fn connectivity_examples() {
        // Two opposite corners: not connected.
        let p = Pattern::from_cells(&[(0, 0), (2, 2)]).unwrap();
        assert!(!p.is_connected());
        // A row: connected.
        let p = Pattern::from_cells(&[(1, 0), (1, 1), (1, 2)]).unwrap();
        assert!(p.is_connected());
        // Diagonal neighbours don't count as adjacent.
        let p = Pattern::from_cells(&[(0, 0), (1, 1)]).unwrap();
        assert!(!p.is_connected());
    }

    #[test]
    fn flood_fill_matches_dfs_on_every_mask() {
        // The cell-list DFS the bit flood-fill replaced.
        fn dfs_connected(p: Pattern) -> bool {
            let cells = p.cells();
            let Some(&start) = cells.first() else {
                return false;
            };
            let mut seen = vec![start];
            let mut stack = vec![start];
            while let Some((r, c)) = stack.pop() {
                for (nr, nc) in [
                    (r.wrapping_sub(1), c),
                    (r + 1, c),
                    (r, c.wrapping_sub(1)),
                    (r, c + 1),
                ] {
                    if nr < 3 && nc < 3 && p.keeps(nr, nc) && !seen.contains(&(nr, nc)) {
                        seen.push((nr, nc));
                        stack.push((nr, nc));
                    }
                }
            }
            seen.len() == cells.len()
        }
        for bits in 0u16..512 {
            let p = Pattern::from_bits(bits).unwrap();
            assert_eq!(p.is_connected(), dfs_connected(p), "mask {bits:#011b}");
        }
    }

    #[test]
    fn best_for_is_the_masked_l2_contest_bit_for_bit() {
        let mut rng = init::rng(77);
        for k in 2..=5 {
            let set = canonical_set(k).unwrap();
            for round in 0..500 {
                let mut kernel = [0.0f32; 9];
                for v in &mut kernel {
                    *v = rng.gen_range(-1.0f32..1.0);
                }
                if round % 5 == 0 {
                    // Ties: equal magnitudes make several patterns score
                    // the same, so first-wins decides.
                    kernel = kernel.map(|v| v.signum() * 0.5);
                }
                let mut want = (0usize, f32::NEG_INFINITY);
                for (i, p) in set.patterns().iter().enumerate() {
                    let l2 = p.masked_l2(&kernel);
                    if l2 > want.1 {
                        want = (i, l2);
                    }
                }
                let got = set.best_for(&kernel);
                assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
            }
        }
    }

    #[test]
    fn apply_and_masked_l2() {
        let p = Pattern::from_cells(&[(0, 0), (0, 1), (1, 1)]).unwrap();
        let mut k = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let l2 = p.masked_l2(&k);
        assert!((l2 - (1.0f32 + 4.0 + 25.0).sqrt()).abs() < 1e-6);
        p.apply(&mut k);
        assert_eq!(k, [1.0, 2.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn best_for_picks_max_l2() {
        let set = PatternSet::new(vec![
            Pattern::from_cells(&[(0, 0), (0, 1)]).unwrap(),
            Pattern::from_cells(&[(2, 1), (2, 2)]).unwrap(),
        ])
        .unwrap();
        let kernel = [0.1, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0];
        let (idx, l2) = set.best_for(&kernel);
        assert_eq!(idx, 1);
        assert!((l2 - 50.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn selection_is_deterministic_and_budgeted() {
        let a = select_patterns(3, 9, 5_000, 1).unwrap();
        let b = select_patterns(3, 9, 5_000, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 9);
        assert_eq!(a.entry_count(), 3);
        for p in a.patterns() {
            assert!(p.is_connected());
        }
    }

    #[test]
    fn canonical_working_set_has_21_patterns() {
        // §IV.C: "we reduced the total number of patterns required to 21".
        assert_eq!(canonical_pattern_count(), 21);
        let two = canonical_set(2).unwrap();
        let three = canonical_set(3).unwrap();
        assert_eq!(two.len() + three.len(), 21);
    }

    #[test]
    fn pattern_set_validation() {
        assert!(PatternSet::new(vec![]).is_err());
        let mixed = vec![
            Pattern::from_cells(&[(0, 0), (0, 1)]).unwrap(),
            Pattern::from_cells(&[(0, 0), (0, 1), (0, 2)]).unwrap(),
        ];
        assert!(PatternSet::new(mixed).is_err());
    }

    #[test]
    fn subset_shares_patterns() {
        let set = canonical_set(2).unwrap();
        let sub = set.subset(&[0, 3]).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.patterns()[0], set.patterns()[0]);
        assert!(set.subset(&[]).is_err());
        assert!(set.subset(&[99]).is_err());
    }

    #[test]
    fn invalid_construction() {
        assert!(Pattern::from_cells(&[(3, 0)]).is_err());
        assert!(Pattern::from_cells(&[(0, 0), (0, 0)]).is_err());
        assert!(Pattern::from_bits(1 << 9).is_err());
        assert!(generate_all(0).is_err());
        assert!(generate_all(10).is_err());
        assert!(select_patterns(3, 0, 10, 0).is_err());
        assert!(select_patterns(3, 5, 0, 0).is_err());
    }
}
