//! The kernel-major pack: the one stored form of a sparse conv layer.
//!
//! A [`Pack`] holds a layer's surviving weights once, in flat contiguous
//! arrays: per output channel a half-open range of kernels, each
//! naming its input channel, its tap-offset slice, and its value slice.
//! It is both the storage and the execution layout — the tiled driver
//! ([`crate::exec::conv2d_packed_into`]) and the scalar oracle walk
//! these slices directly, and [`crate::PatternCompressedConv`] and
//! [`crate::UnstructuredSparseConv`] are typed views that own nothing
//! else. Pattern groups and COO tuples are derived from the pack on
//! demand ([`Pack::groups`], [`Pack::entries`]) for the checks, tests
//! and examples that want them.
//!
//! The two views differ in one thing, who owns a kernel's offsets. In
//! the pattern view every kernel with the same non-zero mask points at
//! one interned offset slice — R-TOSS's "kernels that share a pattern
//! share one offset list". In the COO view each `(oc, ic)` run owns its
//! offsets. Kernel order and value order are the same in both, so they
//! execute bit-identically. Which body the driver runs depends only on
//! what the pack *contains*: a uniform per-kernel tap count (every
//! legal R-TOSS layer, RV001; an unpruned 3×3 layer is uniform 9)
//! hoists the arity dispatch out of the tile walk, a mixed pack
//! dispatches per kernel. Measured (twin16 128×128, one thread) against an
//! arity-generic per-run loop, the hoisted body is worth 4–6% on a
//! whole forward and 0.5% on the heaviest 3×3 layer; which layers carry
//! the difference is unverified.
//!
//! The pack fixes the **canonical accumulation order** the driver and
//! the scalar reference both follow: per output element the chain is
//! `bias`, then taps in ascending `(ic, ky, kx)` order. Sharing one
//! order is what makes pack-vs-oracle bit-identity (RV092) achievable
//! at all — f32 addition does not commute in rounding.
//!
//! A dense weight is already in that order, so the views' `from_dense`
//! build the pack in one walk of it. The untrusted lowerings behind
//! [`PatternCompressedConv::from_parts`] and
//! [`UnstructuredSparseConv::from_entries`] are total and lose nothing
//! a check needs: a kernel that cannot be placed is kept behind the
//! last output channel's range, where nothing executes it and
//! `validate()` reports it; the driver additionally skips out-of-range
//! input channels and clips every tap, so even a corrupt pack cannot
//! index out of bounds.

use crate::format::{
    FormatViolation, PatternCompressedConv, PatternGroup, SparseFormatError,
    UnstructuredSparseConv, Violations,
};
use rtoss_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};

/// The surviving taps of one `(oc, ic)` kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Kernel {
    /// Input channel the kernel reads.
    ic: u32,
    /// Tap count (length of both slices below).
    taps: u32,
    /// Start of the tap offsets in `Pack::offsets`.
    off: u32,
    /// Start of the tap values in `Pack::values`.
    val: u32,
}

/// Which storage view a pack is built or checked as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum View {
    /// Kernels with the same non-zero mask share one offset slice.
    Pattern,
    /// Every `(oc, ic)` run owns its offsets.
    Coo,
}

impl View {
    /// The codes this view reports `(offset-slice, kernel, stored-zero)`
    /// defects under.
    fn codes(self) -> (&'static str, &'static str, &'static str) {
        match self {
            View::Pattern => ("RV010", "RV011", "RV012"),
            View::Coo => ("RV013", "RV013", "RV013"),
        }
    }
}

/// Flat kernel-major layout of one sparse conv layer, geometry
/// included — everything the driver needs, and the only copy of the
/// layer's weights.
///
/// Per output channel the kernels are in ascending input-channel order
/// (the canonical order); each owns a contiguous value slice and points
/// at an offset slice that pattern-view packs share across kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Pack {
    pub(crate) out_ch: usize,
    pub(crate) in_ch: usize,
    pub(crate) kernel: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
    /// Per output channel, the half-open `[start, end)` range into
    /// `kernels`. Kernels past the last range are ones an untrusted
    /// lowering could not place; nothing executes them.
    oc_ranges: Vec<(u32, u32)>,
    kernels: Vec<Kernel>,
    /// Concatenated tap offsets as `(ky, kx)`.
    offsets: Vec<(u8, u8)>,
    /// Kernel-major concatenated tap values.
    values: Vec<f32>,
    /// `Some(t)` iff every kernel has exactly `t` taps.
    uniform: Option<u32>,
}

/// Largest kernel extent whose offsets a `(u8, u8)` tap can address.
const MAX_KERNEL: usize = 256;

/// Offsets wider than `u8` are saturated: execution clips every tap
/// anyway, and `validate()` (RV010/RV013) rejects such layers before
/// they are ever run.
fn tap(ky: usize, kx: usize) -> (u8, u8) {
    (ky.min(255) as u8, kx.min(255) as u8)
}

/// A channel index as stored; one too wide for `u32` saturates, which
/// is out of range for any layer.
pub(crate) fn narrow(c: usize) -> u32 {
    u32::try_from(c).unwrap_or(u32::MAX)
}

/// `Some(t)` iff there is at least one kernel and all have `t` taps.
fn uniform_of(kernels: &[Kernel]) -> Option<u32> {
    let t = kernels.first()?.taps;
    kernels.iter().all(|k| k.taps == t).then_some(t)
}

impl Pack {
    fn empty(out_ch: usize, in_ch: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Pack {
            out_ch,
            in_ch,
            kernel,
            stride,
            pad,
            oc_ranges: Vec::new(),
            kernels: Vec::new(),
            offsets: Vec::new(),
            values: Vec::new(),
            uniform: None,
        }
    }

    /// Builds the pack from a (masked) dense weight `(O, I, k, k)` in
    /// one walk: the weight is already in canonical `(oc, ic, ky, kx)`
    /// order, so every non-empty kernel becomes the next entry and its
    /// non-zero cells the next values. The pattern view interns each
    /// distinct mask's offsets once, in first-seen order; the COO view
    /// gives every kernel its own. Zero cells are dropped and fully
    /// zero kernels skipped (they cost nothing at inference — the
    /// "skipping" the paper's §II.B describes).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::BadShape`] if the weight is not
    /// rank 4 with square kernels, or is wider than the pack can index
    /// (a kernel extent over 256, more than `u32::MAX` weights).
    pub(crate) fn from_dense(
        w: &Tensor,
        stride: usize,
        pad: usize,
        view: View,
    ) -> Result<Self, SparseFormatError> {
        let shape = w.shape();
        if shape.len() != 4
            || shape[2] != shape[3]
            || shape[2] > MAX_KERNEL
            || u32::try_from(w.numel()).is_err()
        {
            return Err(SparseFormatError::BadShape {
                shape: shape.to_vec(),
            });
        }
        let (o, i, k) = (shape[0], shape[1], shape[2]);
        let kk = k * k;
        let wd = w.as_slice();
        // Values are sized exactly (one spare slot for the compaction
        // below); kernels for the worst case, trimmed at the end.
        let stored = wd.len() - w.count_zeros();
        let mut pack = Pack {
            oc_ranges: Vec::with_capacity(o),
            kernels: Vec::with_capacity(o * i),
            offsets: Vec::with_capacity(if view == View::Coo { stored } else { 0 }),
            values: vec![0.0; stored + 1],
            ..Pack::empty(o, i, k, stride, pad)
        };
        let cell_taps: Vec<(u8, u8)> = (0..kk).map(|ci| tap(ci / k, ci % k)).collect();
        // Pattern view: where each distinct mask's offsets start.
        let mut interned: BTreeMap<Vec<(u8, u8)>, u32> = BTreeMap::new();
        let mut taps = vec![(0u8, 0u8); kk + 1];
        let mut held = 0usize;
        for oc in 0..o {
            let start = pack.kernels.len() as u32;
            let row = &wd[oc * i * kk..(oc + 1) * i * kk];
            // (`max(1)`: an empty row has no chunks, whatever the length.)
            for (ic, cells) in row.chunks_exact(kk.max(1)).enumerate() {
                // Compacts the non-zero cells without branching on the
                // weights (a pruned layer's zeros are unpredictable):
                // every cell is written, the cursors advance only past
                // the non-zero ones. Worth 15.5 -> 8 ms over yolov5s'
                // 3x3 layers at 3EP.
                let val = held as u32;
                let mut n = 0usize;
                for (&v, &at) in cells.iter().zip(&cell_taps) {
                    let keep = usize::from(v != 0.0);
                    taps[n] = at;
                    pack.values[held] = v;
                    n += keep;
                    held += keep;
                }
                if n == 0 {
                    continue; // fully pruned kernel: skipped entirely
                }
                let taps = &taps[..n];
                let shared = match view {
                    View::Pattern => interned.get(taps).copied(),
                    View::Coo => None,
                };
                let off = shared.unwrap_or_else(|| {
                    let off = pack.offsets.len() as u32;
                    pack.offsets.extend_from_slice(taps);
                    if view == View::Pattern {
                        interned.insert(taps.to_vec(), off);
                    }
                    off
                });
                pack.kernels.push(Kernel {
                    ic: ic as u32,
                    taps: n as u32,
                    off,
                    val,
                });
            }
            pack.oc_ranges.push((start, pack.kernels.len() as u32));
        }
        pack.values.truncate(stored);
        pack.kernels.shrink_to_fit();
        pack.uniform = uniform_of(&pack.kernels);
        Ok(pack)
    }

    /// The untrusted pattern lowering (behind
    /// [`PatternCompressedConv::from_parts`]): each group's offsets
    /// once, its kernels sorted — stably, so kernels that share an
    /// `(oc, ic)` keep group order, then kernel order — into canonical
    /// order. Total, and nothing is hidden from
    /// [`violations`](Self::violations): kernels of an out-of-range
    /// output channel sort behind the last range, an out-of-range input
    /// channel behind the valid ones of its row, and a ragged group
    /// leaves short kernels or unowned values.
    pub(crate) fn from_groups(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: &[PatternGroup],
    ) -> Self {
        let mut pack = Pack::empty(out_ch, in_ch, kernel, stride, pad);
        let mut members: Vec<(usize, usize, u32, &[f32])> = Vec::new();
        let mut unowned: Vec<f32> = Vec::new();
        for g in groups.iter().filter(|g| !g.coords.is_empty()) {
            let off = pack.offsets.len() as u32;
            pack.offsets
                .extend(g.offsets.iter().map(|&(ky, kx)| tap(ky, kx)));
            members.extend(g.kernels().map(|(oc, ic, values)| (oc, ic, off, values)));
            unowned.extend(g.values.iter().skip(g.coords.len() * g.offsets.len()));
        }
        members.sort_by_key(|&(oc, ic, ..)| (oc, ic));
        for (oc, ic, off, values) in members {
            pack.seal_below(oc.min(out_ch));
            pack.kernels.push(Kernel {
                ic: narrow(ic),
                taps: values.len() as u32,
                off,
                val: pack.values.len() as u32,
            });
            pack.values.extend_from_slice(values);
        }
        pack.values.extend(unowned);
        pack.sealed()
    }

    /// The untrusted COO lowering (behind
    /// [`UnstructuredSparseConv::from_entries`]): walks `(oc, ic, ky,
    /// kx, value)` entries in their stored order, cutting a run
    /// wherever the kernel changes. Nothing is sorted, so every
    /// disorder stays visible to [`violations`](Self::violations); an
    /// entry whose output channel is out of range or already closed is
    /// kept behind the last range.
    pub(crate) fn from_coo(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        coo: &[(usize, usize, usize, usize, f32)],
    ) -> Self {
        let mut pack = Pack {
            offsets: Vec::with_capacity(coo.len()),
            values: Vec::with_capacity(coo.len()),
            ..Pack::empty(out_ch, in_ch, kernel, stride, pad)
        };
        let mut unplaced = Vec::new();
        for entry in coo {
            if entry.0 >= out_ch || entry.0 < pack.oc_ranges.len() {
                unplaced.push(entry);
                continue;
            }
            pack.seal_below(entry.0);
            pack.push_tap(entry);
        }
        pack.seal_below(out_ch);
        for entry in unplaced {
            pack.push_tap(entry);
        }
        pack.sealed()
    }

    /// Ends the range of every output channel below `oc` at the current
    /// kernel count: the open channel's kernels are the ones pushed
    /// since the last seal, channels skipped over are empty.
    fn seal_below(&mut self, oc: usize) {
        let end = self.kernels.len() as u32;
        while self.oc_ranges.len() < oc {
            let start = self.oc_ranges.last().map_or(0, |r| r.1);
            self.oc_ranges.push((start, end));
        }
    }

    /// Appends one COO entry to the open channel, extending its last
    /// run if that reads the same input channel.
    fn push_tap(&mut self, &(_, ic, ky, kx, v): &(usize, usize, usize, usize, f32)) {
        let open = self.oc_ranges.last().map_or(0, |r| r.1 as usize);
        let at = self.values.len() as u32;
        match self.kernels[open..].last_mut() {
            Some(run) if run.ic == narrow(ic) => run.taps += 1,
            _ => self.kernels.push(Kernel {
                ic: narrow(ic),
                taps: 1,
                off: at,
                val: at,
            }),
        }
        self.offsets.push(tap(ky, kx));
        self.values.push(v);
    }

    /// Closes an untrusted lowering: every remaining channel sealed,
    /// arity taken over the kernels that execute.
    fn sealed(mut self) -> Self {
        self.seal_below(self.out_ch);
        self.uniform = uniform_of(&self.kernels[..self.kernel_count()]);
        self
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

    /// `Some(arity)` iff every kernel stores exactly `arity` taps (the
    /// RV001 uniform entry count); `None` for an empty or mixed-arity
    /// pack. Lets the driver hoist the arity dispatch out of the tile
    /// walk.
    #[inline]
    pub fn uniform_arity(&self) -> Option<usize> {
        self.uniform.map(|t| t as usize)
    }

    fn slices(&self, k: &Kernel) -> (&[(u8, u8)], &[f32]) {
        let taps = k.taps as usize;
        (
            &self.offsets[k.off as usize..k.off as usize + taps],
            &self.values[k.val as usize..k.val as usize + taps],
        )
    }

    /// Iterates one output channel's kernels in canonical order as
    /// `(ic, taps, vals)` slices. Out-of-range `oc` yields nothing.
    #[inline]
    pub fn oc_kernels(&self, oc: usize) -> impl Iterator<Item = (usize, &[(u8, u8)], &[f32])> + '_ {
        let (start, end) = self.oc_ranges.get(oc).copied().unwrap_or((0, 0));
        self.kernels[start as usize..end as usize].iter().map(|k| {
            let (taps, vals) = self.slices(k);
            (k.ic as usize, taps, vals)
        })
    }

    /// Packed `(oc, ic)` kernels — the ones the driver runs.
    pub fn kernel_count(&self) -> usize {
        self.oc_ranges.last().map_or(0, |r| r.1 as usize)
    }

    /// Stored weight count.
    pub fn stored_weights(&self) -> usize {
        self.values.len()
    }

    /// Weight count of the dense layer this pack stands for.
    pub fn dense_weights(&self) -> usize {
        self.out_ch * self.in_ch * self.kernel * self.kernel
    }

    /// Dense-to-stored weight ratio (the paper's compression metric).
    pub fn compression_ratio(&self) -> f64 {
        if self.values.is_empty() {
            f64::INFINITY
        } else {
            self.dense_weights() as f64 / self.values.len() as f64
        }
    }

    /// Number of distinct offset slices the kernels point at: the
    /// patterns in use in the pattern view.
    pub fn pattern_count(&self) -> usize {
        let mut seen = vec![false; self.offsets.len() + 1];
        self.kernels[..self.kernel_count()]
            .iter()
            .filter(|k| !std::mem::replace(&mut seen[k.off as usize], true))
            .count()
    }

    /// The pattern-group view, derived on demand: one group per
    /// distinct offset slice in first-use order, its kernels in pack
    /// order.
    pub fn groups(&self) -> Vec<PatternGroup> {
        let mut group_at = vec![usize::MAX; self.offsets.len() + 1];
        let mut groups: Vec<PatternGroup> = Vec::new();
        for (oc, &(start, end)) in self.oc_ranges.iter().enumerate() {
            for k in &self.kernels[start as usize..end as usize] {
                let (taps, vals) = self.slices(k);
                let gi = &mut group_at[k.off as usize];
                if *gi == usize::MAX {
                    *gi = groups.len();
                    groups.push(PatternGroup {
                        offsets: taps
                            .iter()
                            .map(|&(ky, kx)| (ky as usize, kx as usize))
                            .collect(),
                        coords: Vec::new(),
                        values: Vec::new(),
                    });
                }
                groups[*gi].coords.push((oc as u32, k.ic));
                groups[*gi].values.extend_from_slice(vals);
            }
        }
        groups
    }

    /// The COO view, derived on demand: `(oc, ic, ky, kx, value)` for
    /// every stored weight in pack order.
    pub fn entries(&self) -> Vec<(usize, usize, usize, usize, f32)> {
        let mut out = Vec::with_capacity(self.values.len());
        for oc in 0..self.out_ch {
            for (ic, taps, vals) in self.oc_kernels(oc) {
                out.extend(
                    taps.iter()
                        .zip(vals)
                        .map(|(&(ky, kx), &v)| (oc, ic, ky as usize, kx as usize, v)),
                );
            }
        }
        out
    }

    /// Reconstructs the dense weight tensor. Out-of-bounds coordinates
    /// are skipped (total on corrupt layers).
    pub fn to_dense(&self) -> Tensor {
        let (in_ch, kernel) = (self.in_ch, self.kernel);
        let mut w = Tensor::zeros(&[self.out_ch, in_ch, kernel, kernel]);
        let wd = w.as_mut_slice();
        for oc in 0..self.out_ch {
            for (ic, taps, vals) in self.oc_kernels(oc) {
                if ic >= in_ch {
                    continue;
                }
                for (&(ky, kx), &v) in taps.iter().zip(vals) {
                    let (ky, kx) = (ky as usize, kx as usize);
                    if ky < kernel && kx < kernel {
                        wd[((oc * in_ch + ic) * kernel + ky) * kernel + kx] = v;
                    }
                }
            }
        }
        w
    }

    /// Checks every structural invariant the executors rely on, on the
    /// arrays they read, reporting each defect class under `view`'s
    /// code (at most [`crate::FindingCap::LIMIT`] findings per code
    /// plus one "… and N more"):
    ///
    /// - *offset slices* (RV010 / RV013) are non-empty, strictly
    ///   increasing in row-major `(ky, kx)` order and in-bounds for the
    ///   kernel extent; in the pattern view no two hold the same
    ///   pattern;
    /// - *kernels* (RV011 / RV013) are in-bounds and strictly ascending
    ///   in `ic` within their output channel (so none is stored twice),
    ///   all placed in a channel's range, agree on the tap count of the
    ///   slice they share, and between them own every stored offset and
    ///   value;
    /// - *values* (RV012 / RV013) are never zero (zeros must be
    ///   *dropped*, or the compression ratio lies).
    pub(crate) fn violations(&self, view: View) -> Vec<FormatViolation> {
        let (offsets_code, kernel_code, zero_code) = view.codes();
        let mut out = Violations::default();
        let (k, in_ch) = (self.kernel, self.in_ch);
        if k > MAX_KERNEL {
            out.push(offsets_code, || {
                format!("kernel extent {k} exceeds the {MAX_KERNEL} a tap offset can address")
            });
        }
        // Tap count of the offset slice starting at each position; 0
        // until a kernel points there.
        let mut slice_taps = vec![0u32; self.offsets.len() + 1];
        let mut owned_offsets = 0usize;
        let mut patterns = BTreeSet::new();
        let stores_zero = self.values.contains(&0.0);
        for (oc, &(start, end)) in self.oc_ranges.iter().enumerate() {
            let mut last_ic = None;
            for kern in &self.kernels[start as usize..end as usize] {
                let ic = kern.ic as usize;
                if ic >= in_ch {
                    out.push(kernel_code, || {
                        format!(
                            "kernel ({oc},{ic}) out of bounds for {}x{in_ch} layer",
                            self.out_ch
                        )
                    });
                } else if last_ic.is_some_and(|last| last >= ic) {
                    out.push(kernel_code, || {
                        format!("kernel ({oc},{ic}) stored more than once or out of order")
                    });
                }
                last_ic = Some(ic);
                if stores_zero && self.slices(kern).1.contains(&0.0) {
                    out.push(zero_code, || {
                        format!("kernel ({oc},{ic}) stores an explicit zero")
                    });
                }
                let seen = &mut slice_taps[kern.off as usize];
                if kern.taps == 0 {
                    out.push(offsets_code, || {
                        format!("kernel ({oc},{ic}): empty offset pattern")
                    });
                } else if *seen == 0 {
                    *seen = kern.taps;
                    let taps = self.slices(kern).0;
                    owned_offsets += taps.len();
                    for pair in taps.windows(2) {
                        if pair[0] >= pair[1] {
                            out.push(offsets_code, || {
                                format!(
                                    "kernel ({oc},{ic}): offsets not strictly row-major \
                                     sorted at {:?},{:?}",
                                    pair[0], pair[1]
                                )
                            });
                        }
                    }
                    for &(ky, kx) in taps {
                        if ky as usize >= k || kx as usize >= k {
                            out.push(offsets_code, || {
                                format!(
                                    "kernel ({oc},{ic}): offset ({ky},{kx}) out of bounds \
                                     for kernel {k}"
                                )
                            });
                        }
                    }
                    if view == View::Pattern && !patterns.insert(taps) {
                        out.push(offsets_code, || {
                            format!("kernel ({oc},{ic}): duplicate pattern {taps:?}")
                        });
                    }
                } else if *seen != kern.taps {
                    out.push(kernel_code, || {
                        format!(
                            "kernel ({oc},{ic}) holds {} values for a pattern of {seen} offsets",
                            kern.taps
                        )
                    });
                }
            }
        }
        if owned_offsets != self.offsets.len() {
            out.push(kernel_code, || {
                format!(
                    "{} offsets are stored but the kernels' patterns cover {owned_offsets}",
                    self.offsets.len()
                )
            });
        }
        let owned_values: usize = self.kernels.iter().map(|k| k.taps as usize).sum();
        if owned_values != self.values.len() {
            out.push(kernel_code, || {
                format!(
                    "{} values are stored but the kernels hold {owned_values}",
                    self.values.len()
                )
            });
        }
        let unplaced = self.kernels.len() - self.kernel_count();
        if unplaced > 0 {
            out.push(kernel_code, || {
                format!(
                    "{unplaced} kernel(s) name an output channel out of bounds for the \
                     {}-channel layer, or one stored out of order",
                    self.out_ch
                )
            });
        }
        out.finish()
    }

    /// Mutable access to the packed values. Corruption-fixture hook:
    /// lets `rtoss-verify` seed a divergence on a *copy* of a layer's
    /// pack that RV090 and RV092 must catch. Never use outside
    /// tests/fixtures.
    #[doc(hidden)]
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }
}

/// Derives the COO form of a pattern-compressed layer — the
/// unstructured baseline on identical weights: the same kernels and
/// values in the same order, every run owning a copy of its offsets.
pub fn coo_from_pattern(layer: &PatternCompressedConv) -> UnstructuredSparseConv {
    let pack = layer.pack();
    let mut offsets = Vec::with_capacity(pack.values.len());
    let kernels = pack
        .kernels
        .iter()
        .map(|k| {
            let off = offsets.len() as u32;
            offsets.extend_from_slice(pack.slices(k).0);
            Kernel { off, ..*k }
        })
        .collect();
    UnstructuredSparseConv::from_pack(Pack {
        oc_ranges: pack.oc_ranges.clone(),
        kernels,
        offsets,
        values: pack.values.clone(),
        uniform: pack.uniform,
        ..Pack::empty(pack.out_ch, pack.in_ch, pack.kernel, pack.stride, pack.pad)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::pattern::canonical_set;
    use rtoss_core::prune3x3::prune_3x3_weights;
    use rtoss_tensor::init;

    fn pruned(k_entries: usize, seed: u64) -> Tensor {
        let mut w = init::uniform(&mut init::rng(seed), &[8, 4, 3, 3], -1.0, 1.0);
        let set = canonical_set(k_entries).unwrap();
        prune_3x3_weights(&mut w, &set).unwrap();
        w
    }

    #[test]
    fn pattern_view_reconstructs_dense_bitwise_with_uniform_arity() {
        for k_entries in [2usize, 3, 4] {
            let w = pruned(k_entries, 40 + k_entries as u64);
            let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
            assert_eq!(
                pc.pack().to_dense().as_slice(),
                w.as_slice(),
                "{k_entries}EP"
            );
            assert_eq!(pc.pack().uniform_arity(), Some(k_entries));
        }
        // An unpruned 3x3 layer is the uniform-9 pack.
        let w = init::uniform(&mut init::rng(44), &[3, 2, 3, 3], 0.1, 1.0);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        assert_eq!(pc.pack().uniform_arity(), Some(9));
    }

    #[test]
    fn pattern_view_is_ic_sorted_per_oc() {
        let w = pruned(3, 47);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        for oc in 0..8 {
            let ics: Vec<usize> = pc.pack().oc_kernels(oc).map(|(ic, _, _)| ic).collect();
            let mut sorted = ics.clone();
            sorted.sort_unstable();
            assert_eq!(ics, sorted, "oc {oc}");
        }
    }

    #[test]
    fn coo_view_reconstructs_dense_bitwise_and_runs_are_grouped() {
        let w = pruned(2, 48);
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        let pack = un.pack();
        assert_eq!(pack.to_dense().as_slice(), w.as_slice());
        assert_eq!(pack.stored_weights(), un.entries().len());
        for oc in 0..8 {
            let ics: Vec<usize> = pack.oc_kernels(oc).map(|(ic, _, _)| ic).collect();
            // Valid layers are (oc, ic, …)-sorted, so runs merge: each
            // ic appears in at most one run per oc.
            let mut dedup = ics.clone();
            dedup.dedup();
            assert_eq!(ics, dedup, "oc {oc}");
        }
    }

    #[test]
    fn coo_runs_do_not_merge_across_output_channels() {
        // oc 0 ends on ic 1 and oc 1 starts on ic 1: two runs, and the
        // differing run lengths make the pack mixed-arity.
        let coo = [(0, 1, 0, 0, 1.0), (1, 1, 0, 1, 2.0), (1, 1, 2, 2, 3.0)];
        let pack = Pack::from_coo(2, 2, 3, 1, 1, &coo);
        assert_eq!(pack.kernel_count(), 2);
        assert_eq!(pack.uniform_arity(), None);
        let run: Vec<_> = pack.oc_kernels(1).collect();
        assert_eq!(
            run,
            vec![(1, &[(0u8, 1u8), (2, 2)][..], &[2.0f32, 3.0][..])]
        );
    }

    #[test]
    fn lowerings_are_total_and_keep_corrupt_coordinates_visible() {
        let groups = vec![PatternGroup::from_kernels(
            vec![(9, 0), (300, 300)],
            &[(99, 7, &[1.0, 2.0]), (0, 99, &[3.0, 4.0])],
        )];
        let pack = Pack::from_groups(2, 1, 3, 1, 1, &groups);
        assert_eq!(pack.kernel_count(), 1); // oc 99 is not run…
        assert_eq!(pack.stored_weights(), 4); // …but not forgotten
        assert_eq!(pack.to_dense().count_zeros(), 18); // out-of-range ic/taps skipped
        assert!(pack.violations(View::Pattern).len() >= 3);
        let coo = Pack::from_coo(2, 1, 3, 1, 1, &[(5, 0, 0, 0, 1.0), (0, 9, 400, 0, 2.0)]);
        assert_eq!((coo.kernel_count(), coo.stored_weights()), (1, 2));
        assert_eq!(coo.to_dense().count_zeros(), 18);
        assert!(coo.violations(View::Coo).len() >= 3);
    }

    #[test]
    fn coo_from_pattern_is_valid_and_matches_dense() {
        let w = pruned(3, 49);
        let pc = PatternCompressedConv::from_dense(&w, 2, 1).unwrap();
        let un = coo_from_pattern(&pc);
        assert!(un.validate().is_empty());
        assert_eq!(un.to_dense().as_slice(), w.as_slice());
        assert_eq!(un, UnstructuredSparseConv::from_dense(&w, 2, 1).unwrap());
    }
}
