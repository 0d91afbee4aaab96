//! Compressed storage formats for pruned convolution weights.

use crate::pack::{narrow, Pack, View};
use rtoss_tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::ops::Deref;

/// Error produced when building a sparse format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseFormatError {
    /// The dense weight tensor has the wrong rank or spatial extent, or
    /// is larger than a pack can index.
    BadShape {
        /// Offending shape.
        shape: Vec<usize>,
    },
}

impl fmt::Display for SparseFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseFormatError::BadShape { shape } => {
                write!(
                    f,
                    "expected rank-4 square-kernel conv weights (extent <= 256), got {shape:?}"
                )
            }
        }
    }
}

impl Error for SparseFormatError {}

/// One structural-invariant violation found by a format `validate()`.
///
/// `code` is a stable diagnostic identifier from the RV0xx registry
/// (see DESIGN.md §9); the `rtoss-verify` crate wraps these into full
/// [`Diagnostic`]s with location context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatViolation {
    /// Stable diagnostic code (e.g. `"RV010"`).
    pub code: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl FormatViolation {
    fn new(code: &'static str, message: String) -> Self {
        FormatViolation { code, message }
    }
}

impl fmt::Display for FormatViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Bounds the findings one check reports per diagnostic code, so a
/// badly desynced multi-million-weight layer yields a screenful of
/// findings and a count instead of one formatted string per weight.
/// Shared with `rtoss-verify`'s per-weight model checks so both levels
/// cap the same way. Whether a code fired at all is never affected.
#[derive(Debug, Default)]
pub struct FindingCap {
    /// `(code, findings seen)`; a handful of codes, so a linear scan.
    seen: Vec<(&'static str, usize)>,
}

impl FindingCap {
    /// Findings reported in full per code (per layer).
    pub const LIMIT: usize = 16;

    /// Counts one finding under `code`; `true` while the code is still
    /// within [`FindingCap::LIMIT`] and the finding should be reported.
    pub fn admit(&mut self, code: &'static str) -> bool {
        let at = match self.seen.iter().position(|&(c, _)| c == code) {
            Some(at) => at,
            None => {
                self.seen.push((code, 0));
                self.seen.len() - 1
            }
        };
        self.seen[at].1 += 1;
        self.seen[at].1 <= Self::LIMIT
    }

    /// One `(code, "… and N more …")` closing message for every code
    /// that went over the limit, in first-seen order.
    pub fn withheld(&self) -> impl Iterator<Item = (&'static str, String)> + '_ {
        self.seen
            .iter()
            .filter(|&&(_, n)| n > Self::LIMIT)
            .map(|&(code, n)| {
                let more = n - Self::LIMIT;
                (
                    code,
                    format!("… and {more} more {code} finding(s) in this layer"),
                )
            })
    }
}

/// A `validate()` result under construction: capped per code, messages
/// formatted only for findings that are kept.
#[derive(Default)]
pub(crate) struct Violations {
    out: Vec<FormatViolation>,
    cap: FindingCap,
}

impl Violations {
    pub(crate) fn push(&mut self, code: &'static str, message: impl FnOnce() -> String) {
        if self.cap.admit(code) {
            self.out.push(FormatViolation::new(code, message()));
        }
    }

    pub(crate) fn finish(mut self) -> Vec<FormatViolation> {
        for (code, message) in self.cap.withheld() {
            self.out.push(FormatViolation::new(code, message));
        }
        self.out
    }
}

/// One group of kernels sharing the same non-zero pattern, as flat
/// arrays: kernel `i` is `coords[i]` and owns
/// `values[i * offsets.len()..][..offsets.len()]`. What
/// [`Pack::groups`] derives and [`PatternCompressedConv::from_parts`]
/// takes; no layer stores one.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternGroup {
    /// The shared non-zero cells as `(ky, kx)` offsets, row-major.
    pub offsets: Vec<(usize, usize)>,
    /// Member kernels as `(out_channel, in_channel)`.
    pub coords: Vec<(u32, u32)>,
    /// Kernel-major values, `offsets.len()` per kernel in `coords`
    /// order; within a kernel, value `j` belongs to `offsets[j]`.
    pub values: Vec<f32>,
}

impl PatternGroup {
    /// Builds a group from per-kernel `(out_channel, in_channel,
    /// values)` triples, concatenating the values as given — the
    /// literal-friendly constructor for tests and fixtures. Nothing is
    /// checked: a kernel with the wrong value count makes the group
    /// ragged, which `validate()` reports as RV011.
    pub fn from_kernels(offsets: Vec<(usize, usize)>, kernels: &[(usize, usize, &[f32])]) -> Self {
        PatternGroup {
            offsets,
            coords: kernels
                .iter()
                .map(|&(oc, ic, _)| (narrow(oc), narrow(ic)))
                .collect(),
            values: kernels
                .iter()
                .flat_map(|&(_, _, values)| values)
                .copied()
                .collect(),
        }
    }

    /// The member kernels as `(out_channel, in_channel, values)`.
    /// Total on a ragged group: kernels past the end of `values` yield
    /// short or empty slices.
    pub fn kernels(&self) -> impl Iterator<Item = (usize, usize, &[f32])> + '_ {
        let taps = self.offsets.len();
        self.coords.iter().enumerate().map(move |(i, &(oc, ic))| {
            let start = (i * taps).min(self.values.len());
            let end = (start + taps).min(self.values.len());
            (oc as usize, ic as usize, &self.values[start..end])
        })
    }
}

/// A pruned conv layer in the pattern view of its [`Pack`]: kernels
/// with the same non-zero pattern share one offset slice.
///
/// A typed view that owns nothing but the pack and dereferences to it:
/// geometry, `stored_weights()`, `compression_ratio()`, `to_dense()`,
/// and the derived `groups()` / `pattern_count()` are the pack's own.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternCompressedConv {
    pack: Pack,
}

impl PatternCompressedConv {
    /// Builds the compressed form from a (masked) dense weight
    /// `(O, I, k, k)` in one walk (see [`Pack`]). Zero cells are
    /// dropped, fully zero kernels skipped, and each distinct pattern's
    /// offsets stored once.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::BadShape`] if the weight is not
    /// rank 4 with square kernels of extent at most 256.
    pub fn from_dense(w: &Tensor, stride: usize, pad: usize) -> Result<Self, SparseFormatError> {
        let pack = Pack::from_dense(w, stride, pad, View::Pattern)?;
        Ok(PatternCompressedConv { pack })
    }

    /// Assembles a compressed layer directly from pattern groups
    /// *without* checking any invariant.
    ///
    /// This is the deserialization/testing escape hatch paired with
    /// [`PatternCompressedConv::validate`]: [`from_dense`] is valid by
    /// construction, but artifacts loaded from outside the process (or
    /// corruption fixtures in tests) are not. The groups are lowered
    /// into the pack with every defect they carry kept visible to
    /// `validate()`; always run it on a layer built this way before
    /// executing it.
    ///
    /// [`from_dense`]: PatternCompressedConv::from_dense
    pub fn from_parts(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: Vec<PatternGroup>,
    ) -> Self {
        let pack = Pack::from_groups(out_ch, in_ch, kernel, stride, pad, &groups);
        PatternCompressedConv { pack }
    }

    /// The pack: the layer's one stored form, and what executes.
    pub fn pack(&self) -> &Pack {
        &self.pack
    }

    /// Checks every structural invariant the sparse executor relies on
    /// — on the pack itself — returning one [`FormatViolation`] per
    /// breach (empty = valid), at most [`FindingCap::LIMIT`] per code
    /// plus one "… and N more".
    ///
    /// Invariants, with their RV0xx codes:
    /// - **RV010** — offset patterns are non-empty, strictly increasing
    ///   in row-major `(ky, kx)` order, in-bounds for the kernel
    ///   extent, and no two stored patterns are the same;
    /// - **RV011** — kernel coordinates `(oc, ic)` are in-bounds and
    ///   appear at most once, and every kernel holds exactly one value
    ///   per offset of its pattern (no ragged group);
    /// - **RV012** — no stored value is zero (zeros must be *dropped*,
    ///   or the compression ratio lies).
    pub fn validate(&self) -> Vec<FormatViolation> {
        self.pack.violations(View::Pattern)
    }
}

impl Deref for PatternCompressedConv {
    type Target = Pack;

    fn deref(&self) -> &Pack {
        &self.pack
    }
}

/// A pruned conv layer in the COO view of its [`Pack`]: every `(oc,
/// ic)` run owns its offsets — the *unstructured* storage the paper
/// contrasts against pattern grouping (fig6's baseline). It executes
/// through the same driver as the pattern view.
///
/// A typed view that owns nothing but the pack and dereferences to it,
/// like [`PatternCompressedConv`]; `entries()` derives the per-weight
/// tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct UnstructuredSparseConv {
    pack: Pack,
}

impl UnstructuredSparseConv {
    /// Builds the COO form from a (masked) dense weight `(O, I, k, k)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::BadShape`] if the weight is not
    /// rank 4 with square kernels of extent at most 256.
    pub fn from_dense(w: &Tensor, stride: usize, pad: usize) -> Result<Self, SparseFormatError> {
        let pack = Pack::from_dense(w, stride, pad, View::Coo)?;
        Ok(UnstructuredSparseConv { pack })
    }

    /// Assembles a COO layer directly from `(oc, ic, ky, kx, value)`
    /// entries *without* checking any invariant — the
    /// deserialization/testing escape hatch paired with
    /// [`UnstructuredSparseConv::validate`].
    pub fn from_entries(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        entries: Vec<(usize, usize, usize, usize, f32)>,
    ) -> Self {
        let pack = Pack::from_coo(out_ch, in_ch, kernel, stride, pad, &entries);
        UnstructuredSparseConv { pack }
    }

    pub(crate) fn from_pack(pack: Pack) -> Self {
        UnstructuredSparseConv { pack }
    }

    /// The pack: the layer's one stored form, and what executes.
    pub fn pack(&self) -> &Pack {
        &self.pack
    }

    /// Checks the COO invariants the unstructured executor relies on —
    /// on the pack itself — returning one [`FormatViolation`] per
    /// breach (empty = valid), at most [`FindingCap::LIMIT`] plus one
    /// "… and N more".
    ///
    /// All violations carry code **RV013**: entries must be in-bounds,
    /// strictly sorted in `(oc, ic, ky, kx)` lexicographic order (which
    /// also rules out duplicates), and must not store explicit zeros.
    pub fn validate(&self) -> Vec<FormatViolation> {
        self.pack.violations(View::Coo)
    }
}

impl Deref for UnstructuredSparseConv {
    type Target = Pack;

    fn deref(&self) -> &Pack {
        &self.pack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::pattern::canonical_set;
    use rtoss_core::prune3x3::prune_3x3_weights;
    use rtoss_tensor::init;

    fn pruned_weight(k_entries: usize, seed: u64) -> Tensor {
        let mut w = init::uniform(&mut init::rng(seed), &[8, 4, 3, 3], -1.0, 1.0);
        let set = canonical_set(k_entries).unwrap();
        prune_3x3_weights(&mut w, &set).unwrap();
        w
    }

    #[test]
    fn round_trip_to_dense() {
        let w = pruned_weight(3, 1);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        assert_eq!(pc.to_dense(), w);
    }

    #[test]
    fn compression_matches_entry_count() {
        let w = pruned_weight(2, 2);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        assert!((pc.compression_ratio() - 4.5).abs() < 1e-9);
        assert_eq!(pc.stored_weights(), 8 * 4 * 2);
    }

    #[test]
    fn pattern_count_bounded_by_working_set() {
        let w = pruned_weight(2, 3);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        // At most the 12 canonical 2EP patterns can appear.
        assert!(pc.pattern_count() <= 12, "{} patterns", pc.pattern_count());
        assert!(pc.pattern_count() >= 2);
    }

    #[test]
    fn fully_zero_kernels_are_dropped() {
        let mut w = pruned_weight(2, 4);
        // Zero out kernel (0, *) entirely.
        for ic in 0..4 {
            for c in 0..9 {
                let base = ic * 9;
                w.as_mut_slice()[base + c] = 0.0;
            }
        }
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        for g in pc.groups() {
            for (oc, ic, _) in g.kernels() {
                assert_ne!(oc, 0, "zeroed kernel (0, {ic}) still stored");
            }
        }
        assert_eq!(pc.to_dense(), w);
    }

    #[test]
    fn unstructured_preserves_every_nonzero() {
        let w = pruned_weight(3, 5);
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        assert_eq!(un.entries().len(), w.numel() - w.count_zeros());
        for (oc, ic, ky, kx, v) in un.entries() {
            assert_eq!(w.at(&[oc, ic, ky, kx]), v);
        }
    }

    #[test]
    fn bad_shapes_rejected() {
        let w = Tensor::zeros(&[2, 2, 3, 5]);
        assert!(PatternCompressedConv::from_dense(&w, 1, 1).is_err());
        assert!(UnstructuredSparseConv::from_dense(&w, 1, 1).is_err());
        let w = Tensor::zeros(&[2, 2, 3]);
        assert!(PatternCompressedConv::from_dense(&w, 1, 1).is_err());
    }

    #[test]
    fn kernels_wider_than_64_cells_round_trip() {
        // Cells 64 and 81 of a 9x9 kernel: a 64-bit mask key aliased
        // cell 64 onto cell 0 (one pattern, RV011, lossy round trip) or
        // overflowed its shift.
        let mut w = Tensor::zeros(&[1, 2, 9, 9]);
        w.as_mut_slice()[64] = 1.5;
        w.as_mut_slice()[81] = -2.5;
        let pc = PatternCompressedConv::from_dense(&w, 1, 4).unwrap();
        assert_eq!(pc.pattern_count(), 2);
        assert!(pc.validate().is_empty(), "{:?}", pc.validate());
        assert_eq!(pc.to_dense(), w);
        let un = UnstructuredSparseConv::from_dense(&w, 1, 4).unwrap();
        assert!(un.validate().is_empty(), "{:?}", un.validate());
        assert_eq!(un.to_dense(), w);
        // 256 is the widest extent a (u8, u8) tap addresses.
        let mut w = Tensor::zeros(&[1, 1, 256, 256]);
        *w.as_mut_slice().last_mut().unwrap() = 1.0;
        let pc = PatternCompressedConv::from_dense(&w, 1, 0).unwrap();
        assert!(pc.validate().is_empty());
        assert_eq!(pc.to_dense(), w);
        let w = Tensor::zeros(&[1, 1, 257, 257]);
        assert!(PatternCompressedConv::from_dense(&w, 1, 0).is_err());
        assert!(UnstructuredSparseConv::from_dense(&w, 1, 0).is_err());
    }

    #[test]
    fn to_dense_is_total_on_out_of_range_layers() {
        let codes = |vs: Vec<FormatViolation>| vs.iter().map(|v| v.code).collect::<Vec<_>>();
        // oc 7 and ic 5 do not exist in a 2x2 layer; (4, 4) is outside
        // a 3x3 kernel. Reconstruction keeps what fits and returns.
        let pc = PatternCompressedConv::from_parts(
            2,
            2,
            3,
            1,
            1,
            vec![PatternGroup::from_kernels(
                vec![(0, 0), (4, 4)],
                &[
                    (0, 0, &[1.0, 2.0]),
                    (7, 0, &[3.0, 4.0]),
                    (1, 5, &[5.0, 6.0]),
                ],
            )],
        );
        let dense = pc.to_dense();
        assert_eq!(dense.shape(), &[2, 2, 3, 3]);
        assert_eq!(dense.numel() - dense.count_zeros(), 1);
        assert!(codes(pc.validate()).contains(&"RV011"));

        let un = UnstructuredSparseConv::from_entries(
            2,
            2,
            3,
            1,
            1,
            vec![
                (0, 0, 0, 0, 1.0),
                (0, 5, 1, 1, 2.0),
                (1, 0, 4, 4, 3.0),
                (7, 0, 0, 0, 4.0),
            ],
        );
        let dense = un.to_dense();
        assert_eq!(dense.numel() - dense.count_zeros(), 1);
        assert!(codes(un.validate()).contains(&"RV013"));
    }

    #[test]
    fn coo_entries_out_of_channel_order_fire_rv013() {
        // Valid entries, but oc 1's come before oc 0's: nothing is
        // sorted behind the caller's back.
        let entries = vec![(1, 0, 0, 0, 1.0), (0, 0, 0, 0, 2.0)];
        let un = UnstructuredSparseConv::from_entries(2, 1, 3, 1, 1, entries);
        assert!(un.validate().iter().any(|v| v.code == "RV013"));
    }

    #[test]
    fn validate_passes_on_from_dense_output() {
        let w = pruned_weight(3, 7);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        assert!(pc.validate().is_empty());
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        assert!(un.validate().is_empty());
    }

    #[test]
    fn validate_catches_seeded_corruption() {
        let codes = |vs: &[FormatViolation]| {
            vs.iter()
                .map(|v| v.code)
                .collect::<std::collections::BTreeSet<_>>()
        };
        // Unsorted + out-of-bounds offsets (RV010), duplicate kernel and
        // value-count mismatch (RV011), stored zero (RV012).
        let bad = PatternCompressedConv::from_parts(
            2,
            1,
            3,
            1,
            1,
            vec![
                PatternGroup::from_kernels(
                    vec![(1, 1), (0, 0), (3, 0)],
                    &[(0, 0, &[1.0, 2.0, 3.0]), (0, 0, &[1.0, 0.0, 3.0])],
                ),
                PatternGroup::from_kernels(vec![(0, 1)], &[(5, 0, &[1.0, 2.0])]),
            ],
        );
        let vs = bad.validate();
        let cs = codes(&vs);
        assert!(cs.contains("RV010"), "{vs:?}");
        assert!(cs.contains("RV011"), "{vs:?}");
        assert!(cs.contains("RV012"), "{vs:?}");

        // COO: out-of-bounds, unsorted duplicate, explicit zero (RV013).
        let bad = UnstructuredSparseConv::from_entries(
            2,
            2,
            3,
            1,
            1,
            vec![(0, 0, 1, 1, 2.0), (0, 0, 1, 1, 0.0), (9, 0, 0, 0, 1.0)],
        );
        let vs = bad.validate();
        assert!(codes(&vs).contains("RV013"), "{vs:?}");
        assert!(vs.len() >= 3, "{vs:?}");
    }

    #[test]
    fn findings_are_capped_per_code_with_a_count() {
        // 100 copies of one kernel, each storing a zero: 99 duplicate
        // RV011s and 100 RV012s, reported as 16 + "… and N more" each.
        let copies: Vec<(usize, usize, &[f32])> = vec![(0, 0, &[1.0, 0.0]); 100];
        let bad = PatternCompressedConv::from_parts(
            1,
            1,
            3,
            1,
            1,
            vec![PatternGroup::from_kernels(vec![(0, 0), (0, 1)], &copies)],
        );
        let vs = bad.validate();
        for (code, total) in [("RV011", 99), ("RV012", 100)] {
            let of_code: Vec<_> = vs.iter().filter(|v| v.code == code).collect();
            assert_eq!(of_code.len(), FindingCap::LIMIT + 1, "{code}: {vs:?}");
            let more = format!("and {} more", total - FindingCap::LIMIT);
            assert!(of_code.last().unwrap().message.contains(&more), "{vs:?}");
        }

        let entries = vec![(0, 0, 0, 0, 1.0); 50];
        let vs = UnstructuredSparseConv::from_entries(1, 1, 3, 1, 1, entries).validate();
        assert_eq!(vs.len(), FindingCap::LIMIT + 1, "{vs:?}");
        assert!(vs.last().unwrap().message.contains("and 33 more"), "{vs:?}");
    }

    #[test]
    fn unstructured_to_dense_round_trips() {
        let w = pruned_weight(2, 8);
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        assert_eq!(un.to_dense(), w);
    }

    #[test]
    fn one_by_one_kernels_supported() {
        let mut w = init::uniform(&mut init::rng(6), &[6, 6, 1, 1], -1.0, 1.0);
        // Manually sparsify.
        for i in (0..36).step_by(3) {
            w.as_mut_slice()[i] = 0.0;
        }
        let pc = PatternCompressedConv::from_dense(&w, 1, 0).unwrap();
        assert_eq!(pc.to_dense(), w);
    }
}
