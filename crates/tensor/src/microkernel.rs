//! Register-tiled sparse-conv microkernels over padded input planes.
//!
//! The R-TOSS executor spends essentially all of its time accumulating
//! a handful of fixed kernel taps into output rows. This module is the
//! shared inner layer for every conv format the sparse crate knows
//! about: the input plane is first copied into an explicitly
//! zero-padded staging plane (see [`padded_plane_len`] /
//! [`pad_plane_into`] — one extra pass over the input, ~1/(2·out_ch)
//! of the conv's arithmetic), then the output plane is walked in
//! [`MR`]×[`NR`] tiles held in a stack accumulator block. Because the
//! padding is materialized, **every tap is unconditional**: no
//! per-tap column clip, no per-row bounds test, just a base offset and
//! `MR` rows of `NR`-wide multiply-adds with compile-time trip counts.
//!
//! At stride `s > 1` the staging pass also splits each padded row into
//! `s` phases (column `x` goes to phase `x % s`, index `x / s`; see
//! [`PhaseLayout`]), so the columns one tap reads for consecutive
//! outputs are adjacent floats: **every tap row is one contiguous
//! `NR`-wide load at every stride**, and one tap body serves them all.
//! At stride 1 the layout is the plain padded plane.
//!
//! That structure is what lets LLVM keep the whole accumulator block
//! in vector registers across the entire in-channel/tap chain (the
//! matrixmultiply-style microkernel contract): the block has *no
//! dynamically-indexed use* — full-width bias fill, unconditional
//! full-width accumulation, and a full-block scratch copy at
//! [`writeback`] whose *scratch* (not the accumulator) absorbs the
//! ragged-edge slicing and takes the fused epilogue. One dynamic index
//! anywhere on the block and SROA demotes it to the stack, at which
//! point every tap pays an accumulator load/store and the tiled walk
//! can only tie the scalar reference's read-modify-write sweep, never
//! beat it.
//!
//! Two properties are load-bearing for the rest of the workspace:
//!
//! - **Bit-identity.** For a given output element the accumulation
//!   chain is exactly `bias, tap0, tap1, …` in the order the caller
//!   supplies taps. Taps that land in the materialized zero padding
//!   contribute `val * 0.0 = ±0.0`; adding `±0.0` is bitwise inert for
//!   every accumulator value except exactly `-0.0`, which the chain
//!   can never produce (IEEE-754 round-to-nearest only yields `-0.0`
//!   from `(-0.0) + (-0.0)`, and the chain starts at the bias). So the
//!   padded chain is bit-identical to the clip-and-skip scalar
//!   reference — the same argument that covers explicitly stored zero
//!   taps. RV052/RV092 and the kernel proptests pin this.
//! - **Monomorphization.** [`accum_taps`] takes the tap arity as a
//!   const generic, so the 2/3/4-entry-pattern bodies (and the dense
//!   9-tap body) compile to fully unrolled straight-line code, the
//!   same match-dispatch-into-inlined-code trick that made the PR 5
//!   `EpilogueAct` epilogue beat fn-pointer dispatch. [`accum_kernel`]
//!   dispatches one kernel on its tap count, with an arity-generic
//!   loop for the counts that have no unrolled body.
//!
//! A tap's phase column is a table load.

use crate::exec::Epilogue;

/// Output-row-segment width of the register tile, in f32 elements.
///
/// Chosen with [`MR`] so the whole accumulator block fits the host
/// vector file with room for the tap broadcast and input loads
/// (`MR*NR = 64` floats = 8 AVX2 ymm, leaving 8 of 16 ymm free for
/// temporaries — a 128-float block spills), and so the 32/64-wide
/// feature maps the twins serve tile evenly.
pub const NR: usize = 16;

/// Output rows per register tile. Each tap issues `MR` unconditional
/// row accumulations from one base offset, so per-tap setup cost is
/// amortized over `MR * NR` output elements.
pub const MR: usize = 4;

/// Row geometry `(wq, pitch)` of a phase-split staging plane for a
/// `w`-wide input with `pad` columns of padding each side at stride
/// `s`: each padded row of `wp = w + 2*pad` columns is split into `s`
/// phase segments of `wq = ceil(wp / s)` floats, so a staged row is
/// `pitch = s * wq` floats. At stride 1, `pitch == wp`.
fn phase_row(w: usize, pad: usize, s: usize) -> (usize, usize) {
    let wq = (w + 2 * pad).div_ceil(s);
    (wq, s * wq)
}

/// Where one conv's taps read in its phase-split staging planes (see
/// [`pad_plane_into`]): padded cell `(y, x)` is staged at
/// `y*pitch + col(x)` with `col(x) = (x % stride)*wq + x / stride`.
/// Built once per conv call and shared by every [`Tile`].
#[derive(Debug)]
pub struct PhaseLayout {
    pitch: usize,
    stride: usize,
    /// `col(kx)` for every column a `u8` tap can name, so a tap costs a
    /// table load instead of a divide. (Per tap, a divide — or its
    /// multiply-shift form — made stride-1 1×1 layers 10–38 % slower.)
    cols: [usize; 256],
}

impl PhaseLayout {
    /// The layout of a `w`-wide input with `pad` columns of padding each
    /// side at `stride` (clamped to ≥ 1).
    pub fn new(w: usize, pad: usize, stride: usize) -> Self {
        let s = stride.max(1);
        let (wq, pitch) = phase_row(w, pad, s);
        let mut cols = [0; 256];
        let (mut phase, mut q) = (0, 0);
        for col in &mut cols {
            *col = phase * wq + q;
            phase += 1;
            if phase == s {
                phase = 0;
                q += 1;
            }
        }
        Self {
            pitch,
            stride: s,
            cols,
        }
    }
}

/// Length of one zero-padded staging plane for an `h`×`w` input with
/// `pad` rings of padding at `stride`, **including the dead-lane slack
/// tail**.
///
/// Tiles at the bottom/right plane edges still issue full `MR`×`NR`
/// accumulations; the lanes past the live output range read cells the
/// writeback discards. Dead rows reach at most `(MR-1)*stride` padded
/// rows below the last one, and in a row a dead lane reads at most
/// `NR-1` floats past the row's last cell (every live read stays inside
/// its row, see [`Tile`]), so the slack is `(MR-1)*stride` rows plus
/// `NR-1` floats, rounded up to whole `NR` floats so that every plane
/// of a staged batch starts at the same alignment to the `NR`-wide
/// loads. (Unrounded, consecutive 1×1 planes shift by one float and
/// split their loads across cache lines: 10 % slower.)
#[inline]
pub fn padded_plane_len(h: usize, w: usize, pad: usize, stride: usize) -> usize {
    let s = stride.max(1);
    let (_, pitch) = phase_row(w, pad, s);
    ((h + 2 * pad + (MR - 1) * s) * pitch + NR - 1).next_multiple_of(NR)
}

/// Copies one `h`×`w` input plane into the zero-padded, phase-split
/// staging layout described by [`padded_plane_len`]: padded cell
/// `(y, x)` lands at `y*pitch + (x % stride)*wq + x / stride` (see
/// [`PhaseLayout`]), so at stride 1 the layout is the plain padded
/// plane.
/// `dst` must be zero-filled (or a reused staging buffer from an
/// identical geometry — the border, the phase tails and the slack are
/// never written, so their zeros persist across reuse).
#[inline]
pub fn pad_plane_into(dst: &mut [f32], src: &[f32], h: usize, w: usize, pad: usize, stride: usize) {
    let s = stride.max(1);
    let (wq, pitch) = phase_row(w, pad, s);
    for iy in 0..h {
        let at = (iy + pad) * pitch;
        let (Some(row), Some(src_row)) = (dst.get_mut(at..at + pitch), src.get(iy * w..iy * w + w))
        else {
            return;
        };
        if s == 1 {
            // One phase, contiguous in the source: a plain copy. (The
            // gather below staged the short rows of 1×1 layers 50–70 %
            // slower.)
            if let Some(d) = row.get_mut(pad..pad + w) {
                d.copy_from_slice(src_row);
            }
            continue;
        }
        for p in 0..s {
            // First source column whose padded column `ix + pad` is in
            // phase `p`; the phase's cells are every `s`-th from there
            // and land contiguously in the phase's segment (the last at
            // `(w - 1 + pad) / s <= wq - 1`, inside it).
            let ix0 = (p + s - pad % s) % s;
            let (Some(seg), Some(cells)) =
                (row.get_mut(p * wq + (ix0 + pad) / s..), src_row.get(ix0..))
            else {
                continue;
            };
            for (d, chunk) in seg.iter_mut().zip(cells.chunks(s)) {
                if let Some(&v) = chunk.first() {
                    *d = v;
                }
            }
        }
    }
}

/// The accumulator block one tile accumulates into: `MR` rows of `NR`
/// f32 lanes, register-resident in the driver loop (see the module
/// docs for the no-dynamic-index contract that keeps it so).
pub type AccTile = [[f32; NR]; MR];

/// Geometry of one `MR`×`NR` output tile over a phase-split staging
/// plane: which rows/columns of the output plane the accumulator block
/// covers, plus the staged row geometry needed to map a tap to input
/// coordinates. Padding is baked into the staging layout, so no `pad`
/// field: output `(oy, ox)` with tap `(ky, kx)` reads padded cell
/// `(oy*stride + ky, ox*stride + kx)` unconditionally.
///
/// That cell sits in phase `kx % stride` at index `ox + kx / stride`
/// (see [`pad_plane_into`]), so for a fixed tap consecutive `ox` read
/// consecutive floats at every stride: each tap row is one contiguous
/// `NR`-wide load. A live lane reads exactly its padded cell, inside
/// its phase segment: `ox*stride + kx <= wp - 1` gives
/// `ox + kx / stride <= (wp - 1) / stride <= wq - 1`. Only dead lanes,
/// which [`writeback`] discards, read past a segment's end.
#[derive(Debug, Clone, Copy)]
pub struct Tile<'a> {
    /// Where the conv's taps read in its staging planes.
    pub layout: &'a PhaseLayout,
    /// First output row the tile covers.
    pub oy0: usize,
    /// Live rows (≤ [`MR`]; short at the plane's bottom edge — the
    /// remaining accumulator rows run over slack zeros and are
    /// discarded at writeback).
    pub mr: usize,
    /// First output column the tile covers.
    pub ox0: usize,
    /// Live lanes per row (≤ [`NR`]; short at the row's right edge).
    pub nr: usize,
}

/// Expands the body once per literal index — source-level unrolling.
/// Loops over the accumulator block, even with static trip counts, are
/// not reliably promoted: LLVM's SROA pass runs before full loop
/// unrolling, sees the induction-variable GEPs into the alloca as
/// dynamic, and pins the block to the stack for good (unrolling later
/// makes the offsets constant, but SROA never reruns). Macro expansion
/// gives every accumulator index a compile-time constant *at MIR
/// level*, which is the contract SROA needs.
macro_rules! unroll {
    ($i:ident in [$($n:literal)*] $b:block) => {
        $( { let $i: usize = $n; $b } )*
    };
}
/// [`unroll!`] over the `MR` row indices.
macro_rules! unroll_mr {
    ($i:ident $b:block) => {
        unroll!($i in [0 1 2 3] $b)
    };
}
/// [`unroll!`] over the `NR` lane indices.
macro_rules! unroll_nr {
    ($i:ident $b:block) => {
        unroll!($i in [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15] $b)
    };
}
// The unroll macros are hand-expanded to the tile geometry; keep them
// honest if MR/NR ever change.
const _: () = assert!(
    MR == 4 && NR == 16,
    "unroll_mr/unroll_nr match the tile consts"
);

impl Tile<'_> {
    /// Adds `val * padded[oy*stride + ky][ox*stride + kx]` into every
    /// accumulator lane — all `MR`×`NR` of them, unconditionally, as
    /// `MR` contiguous `NR`-wide row loads `stride * pitch` apart. `xp`
    /// must be the staged plane slice from the tile's in-channel origin
    /// through the slack tail.
    #[inline(always)]
    fn accum_tap(&self, acc: &mut AccTile, xp: &[f32], (ky, kx): (u8, u8), val: f32) {
        let PhaseLayout {
            pitch,
            stride,
            ref cols,
        } = *self.layout;
        let base = (self.oy0 * stride + usize::from(ky)) * pitch + cols[usize::from(kx)] + self.ox0;
        unroll_mr!(r {
            let off = base + r * stride * pitch;
            // Slack sizing makes this infallible; `if let` (not an
            // early return) keeps the failure edge from extending
            // the accumulator's live range into a cold path.
            if let Some(xs) = xp.get(off..off + NR) {
                // Infallible after the `get` above; the recovery form
                // only keeps a panic edge out of the hot loop (the crate
                // denies `clippy::unwrap_used`).
                let xs: &[f32; NR] = xs.try_into().unwrap_or(&[0.0; NR]);
                unroll_nr!(j {
                    acc[r][j] += val * xs[j];
                });
            }
        });
    }
}

/// Accumulates one kernel's `T` taps into the tile block, with `T`
/// monomorphized so the per-tap loop fully unrolls. `taps`/`vals` must
/// hold at least `T` entries; extras are ignored.
#[inline(always)]
pub fn accum_taps<const T: usize>(
    acc: &mut AccTile,
    xp: &[f32],
    tile: &Tile,
    taps: &[(u8, u8)],
    vals: &[f32],
) {
    debug_assert!(taps.len() >= T && vals.len() >= T);
    if taps.len() < T || vals.len() < T {
        return;
    }
    for t in 0..T {
        tile.accum_tap(acc, xp, taps[t], vals[t]);
    }
}

/// Arity-generic fallback for irregular tap counts (ragged COO runs,
/// odd kernel sizes). Same accumulation chain as [`accum_taps`], just
/// without the unroll.
#[inline(always)]
fn accum_taps_dyn(acc: &mut AccTile, xp: &[f32], tile: &Tile, taps: &[(u8, u8)], vals: &[f32]) {
    for (&tap, &val) in taps.iter().zip(vals) {
        tile.accum_tap(acc, xp, tap, val);
    }
}

/// Dispatches on the tap arity so the common pattern bodies (2EP/3EP/
/// 4EP plus the 1×1 single tap and the dense 3×3 9-tap) hit the
/// unrolled monomorphic instantiations.
#[inline(always)]
pub fn accum_kernel(acc: &mut AccTile, xp: &[f32], tile: &Tile, taps: &[(u8, u8)], vals: &[f32]) {
    match taps.len().min(vals.len()) {
        0 => {}
        1 => accum_taps::<1>(acc, xp, tile, taps, vals),
        2 => accum_taps::<2>(acc, xp, tile, taps, vals),
        3 => accum_taps::<3>(acc, xp, tile, taps, vals),
        4 => accum_taps::<4>(acc, xp, tile, taps, vals),
        9 => accum_taps::<9>(acc, xp, tile, taps, vals),
        _ => accum_taps_dyn(acc, xp, tile, taps, vals),
    }
}

/// Applies the fused epilogue to a finished tile's live lanes, in one
/// call, and writes them into the output plane.
///
/// The block is first copied whole into a scratch block (a static,
/// full-width read — the accumulator's only escape), and its live
/// `mr`×`nr` lanes are packed row after row into one contiguous run at
/// its start (a no-op for full-width rows). One `Epilogue::apply` call
/// runs over that run (a vectorized loop, out of line: inlined here, it
/// slowed the tap-heavy 2×2-map layers), then each row's segment is
/// copied out. Slicing the *scratch* is
/// what keeps the accumulator itself free of dynamically-indexed uses
/// and therefore register-promotable; packing first keeps the dead
/// lanes out of the epilogue, and they are most of a tile on maps
/// narrower than [`NR`] (a 2×2 map has 4 live lanes of 64).
/// `Epilogue::apply` is per-element with channel-constant parameters,
/// so applying it to the packed lanes is bit-identical to applying it
/// to the whole plane.
#[inline(always)]
pub fn writeback(
    out_plane: &mut [f32],
    ow: usize,
    tile: &Tile,
    acc: &AccTile,
    oc: usize,
    epilogue: &Epilogue<'_>,
) {
    let mut scratch: AccTile = *acc;
    let (mr, nr) = (tile.mr.min(MR), tile.nr.min(NR));
    let flat = scratch.as_flattened_mut();
    // Full-width rows are already contiguous; a ragged tile's rows move
    // left in place (row `r` lands at `r * nr <= r * NR`, past the
    // rows already moved).
    if nr < NR {
        for r in 1..mr {
            flat.copy_within(r * NR..r * NR + nr, r * nr);
        }
    }
    let live = &mut flat[..mr * nr];
    epilogue.apply(oc, live);
    for r in 0..mr {
        let at = (tile.oy0 + r) * ow + tile.ox0;
        if let (Some(dst), Some(src)) = (
            out_plane.get_mut(at..at + nr),
            live.get(r * nr..(r + 1) * nr),
        ) {
            dst.copy_from_slice(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Epilogue;

    #[test]
    fn padded_plane_round_trips_and_borders_zero() {
        // Strides 1-3 over even and odd padded widths (wp = 11, 8, 5),
        // one input narrower than its stride.
        for &(h, w, pad, stride) in &[
            (5usize, 7usize, 2usize, 1usize),
            (5, 7, 2, 2),
            (6, 9, 1, 2),
            (4, 6, 1, 3),
            (3, 5, 0, 3),
            (2, 1, 2, 3),
        ] {
            let src: Vec<f32> = (0..h * w).map(|i| i as f32 + 1.0).collect();
            let len = padded_plane_len(h, w, pad, stride);
            let mut dst = vec![0.0f32; len];
            pad_plane_into(&mut dst, &src, h, w, pad, stride);
            let (wp, hp) = (w + 2 * pad, h + 2 * pad);
            let wq = wp.div_ceil(stride);
            let pitch = stride * wq;
            assert!(
                len >= (hp + (MR - 1) * stride) * pitch + NR - 1,
                "slack for dead rows and lanes"
            );
            assert_eq!(len % NR, 0, "planes keep one load alignment");
            // Padded cell (y, x) sits at its phase position; everything
            // else (border, phase tails, slack) stays zero.
            let mut want = vec![0.0f32; len];
            for iy in 0..h {
                for ix in 0..w {
                    let (y, x) = (iy + pad, ix + pad);
                    want[y * pitch + (x % stride) * wq + x / stride] = src[iy * w + ix];
                }
            }
            assert_eq!(dst, want, "h{h}w{w}p{pad}s{stride}");
            if stride == 1 {
                assert_eq!(pitch, wp, "stride 1 stages the plain padded plane");
            }
        }
    }

    /// Scalar reference: one output element at a time, taps in order,
    /// out-of-bounds taps skipped (the clip-and-skip chain the padded
    /// path must match bitwise).
    #[allow(clippy::too_many_arguments)]
    fn reference_row(
        w_in: usize,
        h_in: usize,
        w_out: usize,
        oy: usize,
        stride: usize,
        pad: usize,
        x_plane: &[f32],
        taps: &[(u8, u8)],
        vals: &[f32],
        bias: f32,
    ) -> Vec<f32> {
        (0..w_out)
            .map(|ox| {
                let mut acc = bias;
                for (t, &(ky, kx)) in taps.iter().enumerate() {
                    let iy = (oy * stride + ky as usize) as isize - pad as isize;
                    let ix = (ox * stride + kx as usize) as isize - pad as isize;
                    if iy >= 0 && iy < h_in as isize && ix >= 0 && ix < w_in as isize {
                        acc += vals[t] * x_plane[iy as usize * w_in + ix as usize];
                    }
                }
                acc
            })
            .collect()
    }

    #[test]
    fn tile_accumulation_bit_identical_to_scalar_reference() {
        let mut state = 0xC0FFEEu32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for &(h_in, w_in, stride, pad, k) in &[
            (7usize, 9usize, 1usize, 1usize, 3usize),
            (6, 6, 2, 1, 3),
            (5, 17, 1, 0, 3),
            (4, 33, 2, 0, 1),
            (19, 40, 1, 1, 3),
            // Odd padded widths and stride 3, plus the 6×6 stride-2 stem.
            (7, 11, 3, 1, 3),
            (9, 13, 3, 2, 3),
            (8, 15, 2, 1, 3),
            (10, 13, 2, 2, 6),
        ] {
            let w_out = (w_in + 2 * pad - k) / stride + 1;
            let h_out = (h_in + 2 * pad - k) / stride + 1;
            let x: Vec<f32> = (0..h_in * w_in)
                .map(|_| (next() % 2000) as f32 / 100.0 - 10.0)
                .collect();
            let mut xp = vec![0.0f32; padded_plane_len(h_in, w_in, pad, stride)];
            pad_plane_into(&mut xp, &x, h_in, w_in, pad, stride);
            let layout = PhaseLayout::new(w_in, pad, stride);
            // Every prefix of the k×k window's taps, in row-major order.
            let all: Vec<(u8, u8)> = (0..k as u8)
                .flat_map(|ky| (0..k as u8).map(move |kx| (ky, kx)))
                .collect();
            for arity in 1..=all.len() {
                let taps: Vec<(u8, u8)> = all.iter().copied().take(arity).collect();
                let vals: Vec<f32> = (0..arity)
                    .map(|_| (next() % 1000) as f32 / 250.0 - 2.0)
                    .collect();
                let bias = (next() % 100) as f32 / 10.0;
                let want: Vec<Vec<f32>> = (0..h_out)
                    .map(|oy| {
                        reference_row(w_in, h_in, w_out, oy, stride, pad, &x, &taps, &vals, bias)
                    })
                    .collect();
                let mut got = vec![0.0f32; h_out * w_out];
                let mut oy0 = 0;
                while oy0 < h_out {
                    let mr = MR.min(h_out - oy0);
                    let mut ox0 = 0;
                    while ox0 < w_out {
                        let nr = NR.min(w_out - ox0);
                        let mut acc = [[bias; NR]; MR];
                        let tile = Tile {
                            layout: &layout,
                            oy0,
                            mr,
                            ox0,
                            nr,
                        };
                        accum_kernel(&mut acc, &xp, &tile, &taps, &vals);
                        writeback(
                            &mut got,
                            w_out,
                            &tile,
                            &acc,
                            0,
                            &Epilogue {
                                affine: None,
                                act: None,
                            },
                        );
                        ox0 += nr;
                    }
                    oy0 += mr;
                }
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        assert_eq!(
                            got[oy * w_out + ox].to_bits(),
                            want[oy][ox].to_bits(),
                            "h{h_in}w{w_in}s{stride}p{pad}k{k} arity={arity} oy={oy} ox={ox}"
                        );
                    }
                }
            }
        }
    }
}
