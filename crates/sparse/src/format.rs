//! Compressed storage formats for pruned convolution weights.

use crate::pack::Pack;
use rtoss_tensor::Tensor;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error produced when building a sparse format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseFormatError {
    /// The dense weight tensor has the wrong rank or spatial extent.
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
                    "expected rank-4 square-kernel conv weights, got {shape:?}"
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
struct Violations {
    out: Vec<FormatViolation>,
    cap: FindingCap,
}

impl Violations {
    fn push(&mut self, code: &'static str, message: impl FnOnce() -> String) {
        if self.cap.admit(code) {
            self.out.push(FormatViolation::new(code, message()));
        }
    }

    fn finish(mut self) -> Vec<FormatViolation> {
        for (code, message) in self.cap.withheld() {
            self.out.push(FormatViolation::new(code, message));
        }
        self.out
    }
}

/// One group of kernels sharing the same non-zero pattern, stored as
/// flat arrays: kernel `i` is `coords[i]` and owns
/// `values[i * offsets.len()..][..offsets.len()]`.
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
        let narrow = |c: usize| u32::try_from(c).unwrap_or(u32::MAX);
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

/// A pruned conv layer stored grouped by kernel pattern.
///
/// Kernels that are entirely zero are dropped (they cost nothing at
/// inference — the "skipping" the paper's §II.B describes).
#[derive(Debug, Clone, PartialEq)]
pub struct PatternCompressedConv {
    out_ch: usize,
    in_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    groups: Vec<PatternGroup>,
    dense_weights: usize,
    stored_weights: usize,
    /// Kernel-major execution layout, derived from `groups` at
    /// construction so no forward call pays the indexing cost.
    pack: Pack,
}

impl PatternCompressedConv {
    /// Builds the compressed form from a (masked) dense weight
    /// `(O, I, k, k)`. Zero cells are dropped; kernels are grouped by
    /// their surviving-cell pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::BadShape`] if the weight is not
    /// rank 4 with square kernels.
    pub fn from_dense(w: &Tensor, stride: usize, pad: usize) -> Result<Self, SparseFormatError> {
        let shape = w.shape();
        if shape.len() != 4 || shape[2] != shape[3] {
            return Err(SparseFormatError::BadShape {
                shape: shape.to_vec(),
            });
        }
        let (o, i, k) = (shape[0], shape[1], shape[2]);
        let kk = k * k;
        // Group kernels by their non-zero bitmask; ascending-mask group
        // order, row-major kernel order inside a group. (`max(1)`: an
        // empty weight has no chunks, whatever the chunk length.)
        let mut by_pattern: BTreeMap<u64, PatternGroup> = BTreeMap::new();
        for (oc, row) in w.as_slice().chunks_exact((i * kk).max(1)).enumerate() {
            for (ic, cells) in row.chunks_exact(kk.max(1)).enumerate() {
                let mut bits = 0u64;
                for (ci, &v) in cells.iter().enumerate() {
                    bits |= u64::from(v != 0.0) << ci;
                }
                if bits == 0 {
                    continue; // fully pruned kernel: skipped entirely
                }
                let group = by_pattern.entry(bits).or_insert_with(|| PatternGroup {
                    offsets: (0..kk)
                        .filter(|ci| bits & (1 << ci) != 0)
                        .map(|ci| (ci / k, ci % k))
                        .collect(),
                    coords: Vec::new(),
                    values: Vec::new(),
                });
                group.coords.push((oc as u32, ic as u32));
                group
                    .values
                    .extend(cells.iter().copied().filter(|&v| v != 0.0));
            }
        }
        let groups: Vec<PatternGroup> = by_pattern.into_values().collect();
        let stored = groups.iter().map(|g| g.values.len()).sum();
        let pack = Pack::from_groups(o, i, k, stride, pad, &groups);
        Ok(PatternCompressedConv {
            out_ch: o,
            in_ch: i,
            kernel: k,
            stride,
            pad,
            groups,
            dense_weights: o * i * kk,
            stored_weights: stored,
            pack,
        })
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Kernel extent.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding.
    pub fn padding(&self) -> usize {
        self.pad
    }

    /// The pattern groups.
    pub fn groups(&self) -> &[PatternGroup] {
        &self.groups
    }

    /// Number of distinct patterns in use.
    pub fn pattern_count(&self) -> usize {
        self.groups.len()
    }

    /// Stored (non-zero) weight count.
    pub fn stored_weights(&self) -> usize {
        self.stored_weights
    }

    /// Dense-to-stored weight ratio (the paper's compression metric).
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_weights == 0 {
            f64::INFINITY
        } else {
            self.dense_weights as f64 / self.stored_weights as f64
        }
    }

    /// Assembles a compressed layer directly from pattern groups
    /// *without* checking any invariant.
    ///
    /// This is the deserialization/testing escape hatch paired with
    /// [`PatternCompressedConv::validate`]: [`from_dense`] is valid by
    /// construction, but artifacts loaded from outside the process (or
    /// corruption fixtures in tests) are not. Always run `validate()`
    /// on a layer built this way before executing it.
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
        let stored = groups.iter().map(|g| g.values.len()).sum();
        let pack = Pack::from_groups(out_ch, in_ch, kernel, stride, pad, &groups);
        PatternCompressedConv {
            out_ch,
            in_ch,
            kernel,
            stride,
            pad,
            groups,
            dense_weights: out_ch * in_ch * kernel * kernel,
            stored_weights: stored,
            pack,
        }
    }

    /// The kernel-major execution pack derived from the groups at
    /// construction. RV090 proves it reconstructs `to_dense()`
    /// bit-exactly.
    pub fn pack(&self) -> &Pack {
        &self.pack
    }

    /// Checks every structural invariant the sparse executor relies on,
    /// returning one [`FormatViolation`] per breach (empty = valid), at
    /// most [`FindingCap::LIMIT`] per code plus one "… and N more".
    ///
    /// Invariants, with their RV0xx codes:
    /// - **RV010** — group offsets are non-empty, strictly increasing in
    ///   row-major `(ky, kx)` order, in-bounds for the kernel extent,
    ///   and no two groups share the same pattern;
    /// - **RV011** — each group holds exactly one value per offset per
    ///   kernel (`values.len() == coords.len() * offsets.len()`), and
    ///   kernel coordinates `(oc, ic)` are in-bounds and appear at most
    ///   once across all groups;
    /// - **RV012** — `stored_weights` equals the values actually held
    ///   and no stored value is zero (zeros must be *dropped*, or the
    ///   compression ratio lies).
    pub fn validate(&self) -> Vec<FormatViolation> {
        let mut out = Violations::default();
        let k = self.kernel;
        let mut seen_patterns = std::collections::BTreeSet::new();
        // One bit per (oc, ic) of the layer; out-of-range coordinates
        // are their own RV011 and never index it.
        let mut seen_kernels = vec![0u64; (self.out_ch * self.in_ch).div_ceil(64)];
        let mut stored = 0usize;
        for (gi, g) in self.groups.iter().enumerate() {
            if g.offsets.is_empty() {
                out.push("RV010", || format!("group {gi}: empty offset pattern"));
            }
            for w in g.offsets.windows(2) {
                let (a, b) = (w[0], w[1]);
                if a.0 * k + a.1 >= b.0 * k + b.1 {
                    out.push("RV010", || {
                        format!("group {gi}: offsets not strictly row-major sorted at {a:?},{b:?}")
                    });
                }
            }
            for &(ky, kx) in &g.offsets {
                if ky >= k || kx >= k {
                    out.push("RV010", || {
                        format!("group {gi}: offset ({ky},{kx}) out of bounds for kernel {k}")
                    });
                }
            }
            if !seen_patterns.insert(&g.offsets) {
                out.push("RV010", || {
                    format!("group {gi}: duplicate pattern {:?}", g.offsets)
                });
            }
            if g.values.len() != g.coords.len() * g.offsets.len() {
                out.push("RV011", || {
                    format!(
                        "group {gi}: {} values for {} kernels of {} offsets",
                        g.values.len(),
                        g.coords.len(),
                        g.offsets.len()
                    )
                });
            }
            for &(oc, ic) in &g.coords {
                let (oc, ic) = (oc as usize, ic as usize);
                if oc >= self.out_ch || ic >= self.in_ch {
                    out.push("RV011", || {
                        format!(
                            "group {gi}: kernel ({oc},{ic}) out of bounds for {}x{} layer",
                            self.out_ch, self.in_ch
                        )
                    });
                    continue;
                }
                let at = oc * self.in_ch + ic;
                let bit = 1u64 << (at % 64);
                if seen_kernels[at / 64] & bit != 0 {
                    out.push("RV011", || {
                        format!("kernel ({oc},{ic}) stored more than once")
                    });
                }
                seen_kernels[at / 64] |= bit;
            }
            if g.values.contains(&0.0) {
                for (oc, ic, values) in g.kernels() {
                    if values.contains(&0.0) {
                        out.push("RV012", || {
                            format!("group {gi}: kernel ({oc},{ic}) stores an explicit zero")
                        });
                    }
                }
            }
            stored += g.values.len();
        }
        if stored != self.stored_weights {
            out.push("RV012", || {
                format!(
                    "stored_weights bookkeeping says {} but {} values are held",
                    self.stored_weights, stored
                )
            });
        }
        if self.dense_weights != self.out_ch * self.in_ch * k * k {
            out.push("RV012", || {
                format!(
                    "dense_weights bookkeeping says {} for a {}x{}x{k}x{k} layer",
                    self.dense_weights, self.out_ch, self.in_ch
                )
            });
        }
        out.finish()
    }

    /// Reconstructs the dense weight tensor (for verification).
    pub fn to_dense(&self) -> Tensor {
        let k = self.kernel;
        let mut w = Tensor::zeros(&[self.out_ch, self.in_ch, k, k]);
        let wd = w.as_mut_slice();
        for g in &self.groups {
            for (oc, ic, values) in g.kernels() {
                let base = (oc * self.in_ch + ic) * k * k;
                for (&(ky, kx), &v) in g.offsets.iter().zip(values.iter()) {
                    wd[base + ky * k + kx] = v;
                }
            }
        }
        w
    }
}

/// A pruned conv layer stored as per-weight COO entries — the
/// *unstructured* storage the paper contrasts against pattern grouping
/// (fig6's baseline). It executes through the same [`Pack`] driver as
/// the pattern form; only the storage differs.
#[derive(Debug, Clone, PartialEq)]
pub struct UnstructuredSparseConv {
    out_ch: usize,
    in_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// `(oc, ic, ky, kx, value)` for every surviving weight.
    entries: Vec<(usize, usize, usize, usize, f32)>,
    dense_weights: usize,
    /// Per-output-channel run layout, derived from `entries` at
    /// construction (see [`Pack::from_coo`]).
    pack: Pack,
}

impl UnstructuredSparseConv {
    /// Builds the COO form from a (masked) dense weight `(O, I, k, k)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::BadShape`] if the weight is not
    /// rank 4 with square kernels.
    pub fn from_dense(w: &Tensor, stride: usize, pad: usize) -> Result<Self, SparseFormatError> {
        let shape = w.shape();
        if shape.len() != 4 || shape[2] != shape[3] {
            return Err(SparseFormatError::BadShape {
                shape: shape.to_vec(),
            });
        }
        let (o, i, k) = (shape[0], shape[1], shape[2]);
        let wd = w.as_slice();
        let mut entries = Vec::with_capacity(wd.len() - w.count_zeros());
        for (at, &v) in wd.iter().enumerate() {
            if v != 0.0 {
                let (kernel, cell) = (at / (k * k), at % (k * k));
                entries.push((kernel / i, kernel % i, cell / k, cell % k, v));
            }
        }
        let pack = Pack::from_coo(o, i, k, stride, pad, &entries);
        Ok(UnstructuredSparseConv {
            out_ch: o,
            in_ch: i,
            kernel: k,
            stride,
            pad,
            entries,
            dense_weights: o * i * k * k,
            pack,
        })
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Kernel extent.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding.
    pub fn padding(&self) -> usize {
        self.pad
    }

    /// The COO entries.
    pub fn entries(&self) -> &[(usize, usize, usize, usize, f32)] {
        &self.entries
    }

    /// Assembles a COO layer directly from entries *without* checking
    /// any invariant — the deserialization/testing escape hatch paired
    /// with [`UnstructuredSparseConv::validate`].
    pub fn from_entries(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        entries: Vec<(usize, usize, usize, usize, f32)>,
    ) -> Self {
        let pack = Pack::from_coo(out_ch, in_ch, kernel, stride, pad, &entries);
        UnstructuredSparseConv {
            out_ch,
            in_ch,
            kernel,
            stride,
            pad,
            entries,
            dense_weights: out_ch * in_ch * kernel * kernel,
            pack,
        }
    }

    /// The run-layout execution pack derived from the entries at
    /// construction. RV090 proves it reconstructs `to_dense()`
    /// bit-exactly.
    pub fn pack(&self) -> &Pack {
        &self.pack
    }

    /// Checks the COO invariants the unstructured executor relies on,
    /// returning one [`FormatViolation`] per breach (empty = valid), at
    /// most [`FindingCap::LIMIT`] plus one "… and N more".
    ///
    /// All violations carry code **RV013**: entries must be in-bounds,
    /// strictly sorted in `(oc, ic, ky, kx)` lexicographic order (which
    /// also rules out duplicates), and must not store explicit zeros.
    pub fn validate(&self) -> Vec<FormatViolation> {
        let mut out = Violations::default();
        let k = self.kernel;
        for &(oc, ic, ky, kx, v) in &self.entries {
            if oc >= self.out_ch || ic >= self.in_ch || ky >= k || kx >= k {
                out.push("RV013", || {
                    format!(
                        "entry ({oc},{ic},{ky},{kx}) out of bounds for {}x{}x{k}x{k} layer",
                        self.out_ch, self.in_ch
                    )
                });
            }
            if v == 0.0 {
                out.push("RV013", || {
                    format!("entry ({oc},{ic},{ky},{kx}) stores an explicit zero")
                });
            }
        }
        for w in self.entries.windows(2) {
            let a = (w[0].0, w[0].1, w[0].2, w[0].3);
            let b = (w[1].0, w[1].1, w[1].2, w[1].3);
            if a >= b {
                out.push("RV013", || {
                    format!("entries not strictly sorted at {a:?},{b:?}")
                });
            }
        }
        if self.dense_weights != self.out_ch * self.in_ch * k * k {
            out.push("RV013", || {
                format!(
                    "dense_weights bookkeeping says {} for a {}x{}x{k}x{k} layer",
                    self.dense_weights, self.out_ch, self.in_ch
                )
            });
        }
        out.finish()
    }

    /// Reconstructs the dense weight tensor (for verification).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds entries; run
    /// [`UnstructuredSparseConv::validate`] first on untrusted layers.
    pub fn to_dense(&self) -> Tensor {
        let k = self.kernel;
        let mut w = Tensor::zeros(&[self.out_ch, self.in_ch, k, k]);
        let wd = w.as_mut_slice();
        for &(oc, ic, ky, kx, v) in &self.entries {
            wd[((oc * self.in_ch + ic) * k + ky) * k + kx] = v;
        }
        w
    }

    /// Dense-to-stored weight ratio.
    pub fn compression_ratio(&self) -> f64 {
        if self.entries.is_empty() {
            f64::INFINITY
        } else {
            self.dense_weights as f64 / self.entries.len() as f64
        }
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
        for &(oc, ic, ky, kx, v) in un.entries() {
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
