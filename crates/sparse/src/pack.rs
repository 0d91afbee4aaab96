//! The kernel-major pack: the one execution layout of a sparse conv.
//!
//! A [`Pack`] is a layer's surviving weights laid out once, at layer
//! construction (load/plan time), in flat contiguous arrays: per output
//! channel a half-open range of entries, each entry naming its input
//! channel, its tap-offset slice, and its value slice. The tiled driver
//! ([`crate::exec::conv2d_packed_into`]) and the scalar oracle just
//! walk slices — no per-call allocation, no pointer-chasing through
//! nested `Vec`s.
//!
//! The storage formats are *views* that build the same structure:
//! [`Pack::from_groups`] (pattern-compressed: every kernel of a group
//! points at the group's one shared offset slice) and
//! [`Pack::from_coo`] (unstructured: each `(oc, ic)` run owns its
//! offsets). Which body the driver runs depends only on what the pack
//! *contains*: a uniform per-entry tap count (every legal R-TOSS layer,
//! RV001; an unpruned 3×3 layer is uniform 9) hoists the arity dispatch
//! out of the tile walk, a mixed pack dispatches per entry. Measured
//! (twin16 128×128, one thread) against an arity-generic per-run loop,
//! the hoisted body is worth 4–6% on a whole forward and 0.5% on the
//! heaviest 3×3 layer; which layers carry the difference is
//! unverified.
//!
//! The pack fixes the **canonical accumulation order** the driver and
//! the scalar reference both follow: per output element the chain is
//! `bias`, then taps in ascending `(ic, ky, kx)` order. Sharing one
//! order is what makes pack-vs-oracle bit-identity (RV092) achievable
//! at all — f32 addition does not commute in rounding.
//!
//! Packs are *derived* data: bit-exact reconstruction against the
//! owning format's `to_dense()` is checked by RV090, and the builders
//! are total (out-of-range entries from corruption-fixture layers are
//! dropped, never panicked on — the driver additionally skips
//! out-of-range input channels and clips every tap, so even a corrupt
//! pack cannot index out of bounds).

use crate::format::{PatternCompressedConv, PatternGroup, UnstructuredSparseConv};
use rtoss_tensor::Tensor;

/// One pack entry: the surviving taps of one `(oc, ic)` kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    /// Input channel the kernel reads.
    ic: u32,
    /// Tap count (length of both slices below).
    taps: u32,
    /// Start of the tap offsets in `Pack::offsets`.
    off: u32,
    /// Start of the tap values in `Pack::values`.
    val: u32,
}

/// Flat kernel-major execution layout of one sparse conv layer,
/// geometry included — everything the driver needs.
///
/// Per output channel the entries are in ascending input-channel order
/// (the canonical order); each owns a contiguous value slice and points
/// at an offset slice that pattern-built packs share across a group.
#[derive(Debug, Clone, PartialEq)]
pub struct Pack {
    pub(crate) out_ch: usize,
    pub(crate) in_ch: usize,
    pub(crate) kernel: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
    /// Per output channel, the half-open `[start, end)` range into
    /// `entries`.
    oc_ranges: Vec<(u32, u32)>,
    entries: Vec<Entry>,
    /// Concatenated tap offsets as `(ky, kx)`.
    offsets: Vec<(u8, u8)>,
    /// Kernel-major concatenated tap values.
    values: Vec<f32>,
    /// `Some(t)` iff every entry has exactly `t` taps.
    uniform: Option<u32>,
}

/// Offsets wider than `u8` are saturated: execution clips every tap
/// anyway, and `validate()` (RV010/RV013) rejects such layers before
/// they are ever run.
fn tap(ky: usize, kx: usize) -> (u8, u8) {
    (ky.min(255) as u8, kx.min(255) as u8)
}

/// `Some(t)` iff there is at least one entry and all have `t` taps.
fn uniform_of(entries: &[Entry]) -> Option<u32> {
    let t = entries.first()?.taps;
    entries.iter().all(|e| e.taps == t).then_some(t)
}

/// Exclusive prefix sum in place: `counts[b]` becomes the number of
/// items in buckets before `b`. With one spare trailing bucket, the
/// last element ends up as the total.
fn exclusive_prefix_sum(counts: &mut [u32]) {
    let mut running = 0u32;
    for c in counts {
        running += std::mem::replace(c, running);
    }
}

/// A group's `(kernel index, (oc, ic))` pairs whose output channel is
/// in range — the kernels a pack keeps.
fn kept(g: &PatternGroup, out_ch: usize) -> impl Iterator<Item = (usize, (u32, u32))> + '_ {
    g.coords
        .iter()
        .copied()
        .enumerate()
        .filter(move |&(_, (oc, _))| (oc as usize) < out_ch)
}

impl Pack {
    /// The pattern view: builds the pack from pattern groups, storing
    /// each group's offsets once. Total: kernels whose output channel
    /// is out of range are dropped (corruption-fixture layers), and
    /// out-of-range input channels sort after every valid one.
    ///
    /// A counting sort on `(oc, ic)`: count the kernels per bucket,
    /// prefix-sum, deal them in group order (so kernels that share a
    /// bucket keep group order), then lay the values down once in the
    /// final entry order. Linear in kernels plus `out_ch × in_ch`, a
    /// fixed number of allocations.
    pub fn from_groups(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: &[PatternGroup],
    ) -> Self {
        // Bucket of a kernel: its oc's row of `in_ch + 1` slots, the
        // last one collecting out-of-range input channels.
        let row = in_ch + 1;
        let bucket = |oc: u32, ic: u32| oc as usize * row + (ic as usize).min(in_ch);

        // Pass 1: each group's offsets once; kernels counted per bucket.
        let mut offsets = Vec::with_capacity(groups.iter().map(|g| g.offsets.len()).sum());
        let mut cursor = vec![0u32; out_ch * row + 1];
        for g in groups {
            offsets.extend(g.offsets.iter().map(|&(ky, kx)| tap(ky, kx)));
            for (_, (oc, ic)) in kept(g, out_ch) {
                cursor[bucket(oc, ic)] += 1;
            }
        }
        exclusive_prefix_sum(&mut cursor);
        let total = cursor[out_ch * row] as usize;
        let oc_ranges = (0..out_ch)
            .map(|oc| (cursor[oc * row], cursor[(oc + 1) * row]))
            .collect();

        // Pass 2: deal every kernel to its final slot, remembering where
        // its values live (`val` holds the source start for now).
        let mut entries = vec![Entry::default(); total];
        let mut source = vec![0u32; total];
        let mut off = 0u32;
        for (gi, g) in groups.iter().enumerate() {
            let taps = g.offsets.len();
            for (ki, (oc, ic)) in kept(g, out_ch) {
                let start = (ki * taps).min(g.values.len());
                let slot = &mut cursor[bucket(oc, ic)];
                entries[*slot as usize] = Entry {
                    ic,
                    taps: taps.min(g.values.len() - start) as u32,
                    off,
                    val: start as u32,
                };
                source[*slot as usize] = gi as u32;
                *slot += 1;
            }
            off += taps as u32;
        }

        // Pass 3: values kernel-major in final order, exact capacity.
        let mut values = Vec::with_capacity(entries.iter().map(|e| e.taps as usize).sum());
        for (e, &gi) in entries.iter_mut().zip(&source) {
            let from = e.val as usize;
            e.val = values.len() as u32;
            values.extend_from_slice(&groups[gi as usize].values[from..from + e.taps as usize]);
        }
        Pack {
            out_ch,
            in_ch,
            kernel,
            stride,
            pad,
            uniform: uniform_of(&entries),
            oc_ranges,
            entries,
            offsets,
            values,
        }
    }

    /// The COO view: builds the pack from `(oc, ic, ky, kx, value)`
    /// entries in their stored order (the RV013 invariant makes that
    /// the canonical order for valid layers), merging consecutive
    /// entries of one `(oc, ic)` pair into a run that owns its offsets.
    /// Total: out-of-range output channels are dropped.
    ///
    /// A counting sort on `oc` (stable, so each output channel keeps
    /// its stored order), then one pass that cuts the runs.
    pub fn from_coo(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        coo: &[(usize, usize, usize, usize, f32)],
    ) -> Self {
        let kept = || coo.iter().filter(|e| e.0 < out_ch);
        let mut cursor = vec![0u32; out_ch + 1];
        for &(oc, ..) in kept() {
            cursor[oc] += 1;
        }
        exclusive_prefix_sum(&mut cursor);
        let total = cursor[out_ch] as usize;

        let mut ics = vec![0u32; total];
        let mut offsets = vec![(0u8, 0u8); total];
        let mut values = vec![0.0f32; total];
        for &(oc, ic, ky, kx, v) in kept() {
            let at = cursor[oc] as usize;
            cursor[oc] += 1;
            ics[at] = ic as u32;
            offsets[at] = tap(ky, kx);
            values[at] = v;
        }

        // After the deal `cursor[oc]` is the end of oc's weights, which
        // is where oc + 1's begin.
        let mut oc_ranges = Vec::with_capacity(out_ch);
        let mut entries: Vec<Entry> = Vec::new();
        let mut lo = 0u32;
        for &hi in &cursor[..out_ch] {
            let start = entries.len();
            for at in lo..hi {
                match entries[start..].last_mut() {
                    Some(run) if run.ic == ics[at as usize] => run.taps += 1,
                    _ => entries.push(Entry {
                        ic: ics[at as usize],
                        taps: 1,
                        off: at,
                        val: at,
                    }),
                }
            }
            oc_ranges.push((start as u32, entries.len() as u32));
            lo = hi;
        }
        Pack {
            out_ch,
            in_ch,
            kernel,
            stride,
            pad,
            uniform: uniform_of(&entries),
            oc_ranges,
            entries,
            offsets,
            values,
        }
    }

    /// `Some(arity)` iff every entry stores exactly `arity` taps (the
    /// RV001 uniform entry count); `None` for an empty or mixed-arity
    /// pack. Lets the driver hoist the arity dispatch out of the tile
    /// walk.
    #[inline]
    pub fn uniform_arity(&self) -> Option<usize> {
        self.uniform.map(|t| t as usize)
    }

    /// Iterates one output channel's kernels in canonical order as
    /// `(ic, taps, vals)` slices. Out-of-range `oc` yields nothing.
    #[inline]
    pub fn oc_kernels(&self, oc: usize) -> impl Iterator<Item = (usize, &[(u8, u8)], &[f32])> + '_ {
        let (start, end) = self.oc_ranges.get(oc).copied().unwrap_or((0, 0));
        self.entries[start as usize..end as usize].iter().map(|e| {
            let taps = e.taps as usize;
            (
                e.ic as usize,
                &self.offsets[e.off as usize..e.off as usize + taps],
                &self.values[e.val as usize..e.val as usize + taps],
            )
        })
    }

    /// Total packed `(oc, ic)` kernel count.
    pub fn kernel_count(&self) -> usize {
        self.entries.len()
    }

    /// Total packed value count.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Reconstructs the dense weight tensor from the pack alone —
    /// RV090 bit-compares this against the owning layer's
    /// `to_dense()`. Out-of-bounds coordinates are skipped (total on
    /// corrupt layers).
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

    /// Mutable access to the packed values. Corruption-fixture hook:
    /// lets `rtoss-verify` seed a pack/dense divergence on a *copy* of
    /// a layer's pack that RV090 and RV092 must catch. Never use
    /// outside tests/fixtures.
    #[doc(hidden)]
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }
}

/// Derives the COO form of a pattern-compressed layer in canonical
/// `(oc, ic, ky, kx)` order — the unstructured baseline on identical
/// weights.
pub fn coo_from_pattern(layer: &PatternCompressedConv) -> UnstructuredSparseConv {
    let mut entries = Vec::with_capacity(layer.stored_weights());
    for g in layer.groups() {
        for (oc, ic, values) in g.kernels() {
            for (&(ky, kx), &v) in g.offsets.iter().zip(values) {
                if v != 0.0 {
                    entries.push((oc, ic, ky, kx, v));
                }
            }
        }
    }
    entries.sort_by_key(|&(oc, ic, ky, kx, _)| (oc, ic, ky, kx));
    UnstructuredSparseConv::from_entries(
        layer.out_channels(),
        layer.in_channels(),
        layer.kernel_size(),
        layer.stride(),
        layer.padding(),
        entries,
    )
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
        assert_eq!(pack.value_count(), un.entries().len());
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
    fn builders_total_on_corrupt_coordinates() {
        let groups = vec![PatternGroup::from_kernels(
            vec![(9, 0), (300, 300)],
            &[(99, 7, &[1.0, 2.0]), (0, 99, &[3.0, 4.0])],
        )];
        let pack = Pack::from_groups(2, 1, 3, 1, 1, &groups);
        assert_eq!(pack.kernel_count(), 1); // oc 99 dropped
        let _ = pack.to_dense(); // out-of-range ic/taps skipped
        let coo = Pack::from_coo(2, 1, 3, 1, 1, &[(5, 0, 0, 0, 1.0), (0, 9, 400, 0, 2.0)]);
        assert_eq!(coo.value_count(), 1);
        let _ = coo.to_dense();
    }

    #[test]
    fn coo_from_pattern_is_valid_and_matches_dense() {
        let w = pruned(3, 49);
        let pc = PatternCompressedConv::from_dense(&w, 2, 1).unwrap();
        let un = coo_from_pattern(&pc);
        assert!(un.validate().is_empty());
        assert_eq!(un.to_dense().as_slice(), w.as_slice());
        assert_eq!(un.stride(), 2);
    }
}
