//! Sparse convolution execution: one tiled driver over one [`Pack`].
//!
//! Every convolution computes exactly the same result as
//! [`rtoss_tensor::ops::conv2d`] on the masked dense weights (up to
//! f32 summation order), through one of two bodies:
//!
//! - [`conv2d_packed_into`]: the register-tiled driver. Per [`NR`]-wide
//!   output-row segment a stack accumulator tile takes every packed
//!   kernel's taps through the [`rtoss_tensor::microkernel`] bodies,
//!   then the fused epilogue once over the tile's live lanes, and
//!   writes them back. Work ∝ surviving weights. A pack whose entries
//!   all store the same tap count (every legal R-TOSS layer; 9 for an
//!   unpruned 3×3 layer, 1 for a 1×1 layer) runs one
//!   arity-monomorphized body with no per-kernel
//!   dispatch; a mixed-arity pack (COO storage of irregular weights,
//!   corruption fixtures) dispatches per kernel inside the same walk.
//!   Measured against an arity-generic per-run loop, the hoisted body
//!   is worth 4–6% on a whole twin16 forward and 0.5% on its heaviest
//!   3×3 layer; which layers carry the difference is unverified.
//! - [`conv2d_pattern_scalar_into_with`]: the scalar reference — one
//!   row-sweep per tap, no tiling. The proptests and RV092 pin the
//!   driver bit-identical to this.
//!
//! [`conv2d_pattern_sparse_with`] and [`conv2d_unstructured_with`] are
//! the `Tensor`-returning entries for the two views of a pack; both
//! hand their layer's pack to the driver.
//!
//! # Canonical accumulation order
//!
//! Both bodies accumulate each output element as `bias`, then taps in
//! ascending `(ic, ky, kx)` order (the pack order). f32 addition does
//! not commute in rounding, so sharing one chain is what makes a
//! layer's pattern pack, its COO pack and the scalar reference agree
//! bit for bit. Explicitly stored zero taps add `0.0 * x`, which is
//! bitwise inert except when an output element is exactly `±0.0` *and*
//! the layer bias is `-0.0` — the executors' contract excludes
//! negative-zero biases.
//!
//! Both bodies are serial: the compiled plan runs independent steps of
//! one dependency level in parallel, never the planes of one conv.
//!
//! [`NR`]: rtoss_tensor::microkernel::NR

use crate::format::{PatternCompressedConv, UnstructuredSparseConv};
use crate::pack::Pack;
use rtoss_tensor::exec::{Epilogue, ExecConfig};
use rtoss_tensor::microkernel::{
    accum_kernel, accum_taps, pad_plane_into, padded_plane_len, writeback, PhaseLayout, Tile, MR,
    NR,
};
use rtoss_tensor::ops::out_extent;
use rtoss_tensor::{Tensor, TensorError};

fn check_input(
    shape: &[usize],
    in_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    op: &'static str,
) -> Result<(usize, usize, usize, usize, usize), TensorError> {
    if shape.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: shape.len(),
            op,
        });
    }
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    if c != in_ch {
        return Err(TensorError::Invalid {
            op,
            msg: format!("input has {c} channels, layer expects {in_ch}"),
        });
    }
    let oh = out_extent(h, kernel, stride, pad).ok_or_else(|| TensorError::Invalid {
        op,
        msg: "kernel does not fit input".into(),
    })?;
    let ow = out_extent(w, kernel, stride, pad).ok_or_else(|| TensorError::Invalid {
        op,
        msg: "kernel does not fit input".into(),
    })?;
    Ok((n, h, w, oh, ow))
}

/// Accumulates `val * x_row` into `out_row` for one (kernel-cell, output
/// row) pair. Padding bounds are hoisted out of the inner loop: the
/// valid `ox` range is computed once, and the stride-1 common case runs
/// a branch-free contiguous saxpy. The scalar-reference inner loop.
#[allow(clippy::too_many_arguments)]
#[inline]
fn accumulate_row(
    out_row: &mut [f32],
    x_plane: &[f32],
    w_in: usize,
    iy: isize,
    h_in: usize,
    kx: usize,
    stride: usize,
    pad: usize,
    val: f32,
) {
    if iy < 0 || iy >= h_in as isize {
        return;
    }
    let ow = out_row.len();
    // Valid ox satisfy 0 <= ox*stride + kx - pad < w_in.
    let ox_start = pad.saturating_sub(kx).div_ceil(stride).min(ow);
    let ox_end = ((w_in + pad).saturating_sub(kx).div_ceil(stride)).min(ow);
    if ox_start >= ox_end {
        return;
    }
    let x_row = &x_plane[iy as usize * w_in..(iy as usize + 1) * w_in];
    let ix_start = ox_start * stride + kx - pad;
    if stride == 1 {
        let len = ox_end - ox_start;
        let xs = &x_row[ix_start..ix_start + len];
        let os = &mut out_row[ox_start..ox_end];
        for (o, &xv) in os.iter_mut().zip(xs.iter()) {
            *o += val * xv;
        }
    } else {
        let mut ix = ix_start;
        for o in &mut out_row[ox_start..ox_end] {
            *o += val * x_row[ix];
            ix += stride;
        }
    }
}

/// Output shape `[n, out_ch, oh, ow]` of a sparse convolution over an
/// input of `x_shape`, validating geometry without executing anything.
/// The execution plan calls this once at plan time so per-call forwards
/// skip shape inference entirely.
///
/// # Errors
///
/// Returns an error if the input rank/channels do not match the layer
/// or the kernel does not fit.
#[allow(clippy::too_many_arguments)]
pub fn conv_output_shape(
    x_shape: &[usize],
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    op: &'static str,
) -> Result<[usize; 4], TensorError> {
    let (n, _h, _w, oh, ow) = check_input(x_shape, in_ch, kernel, stride, pad, op)?;
    Ok([n, out_ch, oh, ow])
}

/// Geometry both bodies share, resolved once by [`check_conv_into`].
#[derive(Debug, Clone, Copy)]
struct ConvGeom {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    pad: usize,
}

/// Validates the input geometry against the pack's plus the
/// bias/epilogue/output-buffer lengths.
fn check_conv_into(
    op: &'static str,
    x_shape: &[usize],
    pack: &Pack,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out_len: usize,
) -> Result<ConvGeom, TensorError> {
    let out_ch = pack.out_ch;
    let (n, h, w, oh, ow) =
        check_input(x_shape, pack.in_ch, pack.kernel, pack.stride, pack.pad, op)?;
    if let Some(b) = bias {
        if b.len() != out_ch {
            return Err(TensorError::Invalid {
                op,
                msg: format!("bias length {} != out channels {out_ch}", b.len()),
            });
        }
    }
    if let Some((scale, shift)) = epilogue.affine {
        if scale.len() != out_ch || shift.len() != out_ch {
            return Err(TensorError::Invalid {
                op,
                msg: format!(
                    "epilogue affine lengths {}/{} != out channels {out_ch}",
                    scale.len(),
                    shift.len()
                ),
            });
        }
    }
    let want_len = n * out_ch * oh * ow;
    if out_len != want_len {
        return Err(TensorError::Invalid {
            op,
            msg: format!("output buffer holds {out_len} elements, need {want_len}"),
        });
    }
    Ok(ConvGeom {
        n,
        c: pack.in_ch,
        h,
        w,
        o: out_ch,
        oh,
        ow,
        stride: pack.stride,
        pad: pack.pad,
    })
}

/// Shared `Tensor`-returning entry: zeroed buffer, run the driver over
/// `pack`, wrap the result.
fn conv_entry(x: &Tensor, pack: &Pack, bias: Option<&[f32]>) -> Result<Tensor, TensorError> {
    let shape = conv_output_shape(
        x.shape(),
        pack.in_ch,
        pack.out_ch,
        pack.kernel,
        pack.stride,
        pack.pad,
        "conv2d_packed",
    )?;
    let mut out = vec![0.0f32; shape.iter().product()];
    conv2d_packed_into(
        x.as_slice(),
        x.shape(),
        pack,
        bias,
        &Epilogue::NONE,
        &mut out,
    )?;
    Tensor::from_vec(out, &shape)
}

/// Register-tiled `(batch, out-channel)`-plane walk under
/// [`conv2d_packed_into`]. Stages the input into zero-padded,
/// phase-split planes (one pass — see the microkernel module docs, which
/// make every tap a contiguous load at any stride), then walks each output
/// plane in [`MR`]×[`NR`] tiles and hands each tile to
/// `tile_fn(oc, tile, x_batch, out_plane)`. Nested `ni → oc → row
/// block → row segment` loops visit the tiles, so the walk divides
/// nothing.
///
/// `tile_fn` owns the whole tile body: it creates the accumulator
/// block, runs the pack's canonical tap chain over it, and writes
/// back with the fused epilogue. That ownership is deliberate — the
/// block must live and die inside one function frame whose callees
/// are all `#[inline(always)]` (the epilogue, the one real call, sees
/// only a packed copy), so its address never crosses a real call
/// boundary and LLVM can promote it to vector registers (see the
/// microkernel module docs). Passing `&mut` accumulators *into* a
/// closure parameter defeats that: the closure is big enough that the
/// inliner may keep the call, and an escaped alloca is stack-bound.
///
/// `x_batch` is the staged batch slice; in-channel plane `ic` starts
/// at `ic * padded_plane_len(...)` within it (the tile closure
/// computes the same stride from the shared geometry).
fn run_tiled_conv(
    x: &[f32],
    g: ConvGeom,
    out: &mut [f32],
    tile_fn: impl Fn(usize, &Tile, &[f32], &mut [f32]),
) {
    let plane = g.oh * g.ow;
    let hw = g.h * g.w;
    let php = padded_plane_len(g.h, g.w, g.pad, g.stride);
    let layout = PhaseLayout::new(g.w, g.pad, g.stride);
    let mut staged = vec![0.0f32; g.n * g.c * php];
    for (p, dst) in staged.chunks_mut(php).enumerate() {
        pad_plane_into(dst, &x[p * hw..(p + 1) * hw], g.h, g.w, g.pad, g.stride);
    }
    // Output planes are `(ni, oc)` in row-major order.
    let mut out_planes = out.chunks_mut(plane);
    for ni in 0..g.n {
        // Each staged plane carries its own slack tail (included in
        // `php`), so ragged tiles stay within their plane's slice.
        let x_batch = &staged[ni * g.c * php..];
        for (oc, out_plane) in (0..g.o).zip(out_planes.by_ref()) {
            for oy0 in (0..g.oh).step_by(MR) {
                for ox0 in (0..g.ow).step_by(NR) {
                    let tile = Tile {
                        layout: &layout,
                        oy0,
                        mr: MR.min(g.oh - oy0),
                        ox0,
                        nr: NR.min(g.ow - ox0),
                    };
                    tile_fn(oc, &tile, x_batch, out_plane);
                }
            }
        }
    }
}

/// Executes a pattern-compressed convolution through the layer's pack:
/// `x (N,C,H,W) → (N,O,oh,ow)`. Serial; `_exec` is not read and stays
/// only because the `benchmark/` package calls this signature.
///
/// # Errors
///
/// Returns an error if the input rank/channels do not match the layer
/// or the kernel does not fit.
pub fn conv2d_pattern_sparse_with(
    x: &Tensor,
    layer: &PatternCompressedConv,
    bias: Option<&[f32]>,
    _exec: &ExecConfig,
) -> Result<Tensor, TensorError> {
    debug_validate(|| layer.validate());
    conv_entry(x, layer.pack(), bias)
}

/// Executes an unstructured (COO) sparse convolution through the
/// layer's pack — the same driver as [`conv2d_pattern_sparse_with`].
/// Serial; `_exec` is not read and stays only because the `benchmark/`
/// package calls this signature.
///
/// # Errors
///
/// Returns an error if the input rank/channels do not match the layer
/// or the kernel does not fit.
pub fn conv2d_unstructured_with(
    x: &Tensor,
    layer: &UnstructuredSparseConv,
    bias: Option<&[f32]>,
    _exec: &ExecConfig,
) -> Result<Tensor, TensorError> {
    debug_validate(|| layer.validate());
    conv_entry(x, layer.pack(), bias)
}

/// The one tiled conv driver: runs `pack` over the input, writing into
/// a caller-provided buffer with an [`Epilogue`] hook. This is the
/// compiled execution plan's conv step and the body under both
/// `Tensor`-returning entries.
///
/// `x`/`x_shape` describe the input (an arena slice — no `Tensor`
/// allocation on the hot path); the result is written into `out`, which
/// must hold exactly `n * out_channels * oh * ow` elements. Every
/// element of `out` is overwritten (bias or zero fill first), so a
/// reused arena buffer needs no clearing. The epilogue runs once per
/// finished tile at writeback, over the tile's packed live lanes,
/// before they are copied out.
///
/// Returns the output shape `[n, out_channels, oh, ow]`.
///
/// # Errors
///
/// Returns an error if the input rank/channels do not match the pack,
/// the kernel does not fit, or the bias, epilogue or output-buffer
/// lengths are wrong.
pub fn conv2d_packed_into(
    x: &[f32],
    x_shape: &[usize],
    pack: &Pack,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out: &mut [f32],
) -> Result<[usize; 4], TensorError> {
    let g = check_conv_into("conv2d_packed", x_shape, pack, bias, epilogue, out.len())?;
    // A uniform per-kernel tap count hoists the arity dispatch out of
    // the tile walk entirely: every tile runs one monomorphized
    // unrolled body with no per-kernel match.
    match pack.uniform_arity() {
        Some(1) => run_pack_arity::<1>(x, g, bias, epilogue, out, pack),
        Some(2) => run_pack_arity::<2>(x, g, bias, epilogue, out, pack),
        Some(3) => run_pack_arity::<3>(x, g, bias, epilogue, out, pack),
        Some(4) => run_pack_arity::<4>(x, g, bias, epilogue, out, pack),
        Some(5) => run_pack_arity::<5>(x, g, bias, epilogue, out, pack),
        Some(9) => run_pack_arity::<9>(x, g, bias, epilogue, out, pack),
        _ => run_pack_arity::<MIXED>(x, g, bias, epilogue, out, pack),
    }
    Ok([g.n, g.o, g.oh, g.ow])
}

/// `T` for [`run_pack_arity`] on a pack without a hoistable arity.
const MIXED: usize = 0;

/// The tile walk over `pack`, monomorphized on its uniform tap arity
/// `T`: the per-kernel loop body is a single unrolled `T`-tap
/// accumulation, no arity match inside the walk. `T ==` [`MIXED`]
/// instead dispatches each kernel on its own tap count. Same canonical
/// order (and therefore bitwise output) either way.
fn run_pack_arity<const T: usize>(
    x: &[f32],
    g: ConvGeom,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out: &mut [f32],
    pack: &Pack,
) {
    let php = padded_plane_len(g.h, g.w, g.pad, g.stride);
    let c = g.c;
    let ow = g.ow;
    run_tiled_conv(x, g, out, |oc, tile, x_batch, out_plane| {
        let mut acc = [[bias.map_or(0.0, |b| b[oc]); NR]; MR];
        for (ic, taps, vals) in pack.oc_kernels(oc) {
            if ic >= c {
                continue; // corrupt layer; RV011/RV013 reject pre-flight
            }
            if T == MIXED {
                accum_kernel(&mut acc, &x_batch[ic * php..], tile, taps, vals);
            } else {
                accum_taps::<T>(&mut acc, &x_batch[ic * php..], tile, taps, vals);
            }
        }
        writeback(out_plane, ow, tile, &acc, oc, epilogue);
    });
}

/// Scalar-reference twin of [`conv2d_packed_into`] on the layer's own
/// pack: same canonical accumulation order (pack order — `bias`, then
/// taps by ascending `(ic, ky, kx)`), but one whole-plane row sweep per
/// tap and a per-plane epilogue instead of register tiling. The driver
/// is pinned bit-identical to this by the kernel proptests and RV092.
///
/// # Errors
///
/// Same conditions as [`conv2d_packed_into`].
pub fn conv2d_pattern_scalar_into_with(
    x: &[f32],
    x_shape: &[usize],
    layer: &PatternCompressedConv,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out: &mut [f32],
) -> Result<[usize; 4], TensorError> {
    let pack = layer.pack();
    let g = check_conv_into(
        "conv2d_pattern_scalar",
        x_shape,
        pack,
        bias,
        epilogue,
        out.len(),
    )?;
    debug_validate(|| layer.validate());
    let plane = g.oh * g.ow;
    let hw = g.h * g.w;
    for (plane_ix, out_plane) in out.chunks_mut(plane).enumerate() {
        let (ni, oc) = (plane_ix / g.o, plane_ix % g.o);
        // The buffer may be a reused arena slot: fill unconditionally.
        out_plane.fill(bias.map_or(0.0, |b| b[oc]));
        for (ic, taps, vals) in pack.oc_kernels(oc) {
            if ic >= g.c {
                continue;
            }
            let x_plane = &x[(ni * g.c + ic) * hw..(ni * g.c + ic + 1) * hw];
            for (&(ky, kx), &val) in taps.iter().zip(vals) {
                for oy in 0..g.oh {
                    let iy = (oy * g.stride + ky as usize) as isize - g.pad as isize;
                    accumulate_row(
                        &mut out_plane[oy * g.ow..(oy + 1) * g.ow],
                        x_plane,
                        g.w,
                        iy,
                        g.h,
                        kx as usize,
                        g.stride,
                        g.pad,
                        val,
                    );
                }
            }
        }
        epilogue.apply(oc, out_plane);
    }
    Ok([g.n, g.o, g.oh, g.ow])
}

/// Debug-build checkpoint: a corrupt artifact (out-of-bounds channel
/// or offset) would otherwise surface as silently-wrong output in the
/// tiled driver. Release builds rely on the opt-in `rtoss-verify`
/// pre-flight pass instead of paying this on every forward.
pub(crate) fn debug_validate(violations: impl FnOnce() -> Vec<crate::FormatViolation>) {
    if cfg!(debug_assertions) {
        let violations = violations();
        assert!(
            violations.is_empty(),
            "conv executor on invalid layer: {violations:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::pattern::canonical_set;
    use rtoss_core::prune3x3::prune_3x3_weights;
    use rtoss_tensor::{init, ops};

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!((x - y).abs() < tol, "idx {i}: {x} vs {y}");
        }
    }

    fn pruned(k_entries: usize, o: usize, i: usize, seed: u64) -> Tensor {
        let mut w = init::uniform(&mut init::rng(seed), &[o, i, 3, 3], -1.0, 1.0);
        let set = canonical_set(k_entries).unwrap();
        prune_3x3_weights(&mut w, &set).unwrap();
        w
    }

    #[test]
    fn pattern_sparse_matches_dense() {
        for &(stride, pad) in &[(1usize, 1usize), (2, 1), (1, 0)] {
            let w = pruned(3, 6, 4, 11);
            let x = init::uniform(&mut init::rng(12), &[2, 4, 9, 9], -1.0, 1.0);
            let bias: Vec<f32> = (0..6).map(|v| v as f32 * 0.1).collect();
            let dense = ops::conv2d(&x, &w, Some(&bias), stride, pad).unwrap();
            let pc = PatternCompressedConv::from_dense(&w, stride, pad).unwrap();
            let sparse =
                conv2d_pattern_sparse_with(&x, &pc, Some(&bias), &ExecConfig::default()).unwrap();
            assert_close(&sparse, &dense, 1e-4);
        }
    }

    #[test]
    fn unstructured_matches_dense() {
        let w = pruned(2, 5, 3, 13);
        let x = init::uniform(&mut init::rng(14), &[1, 3, 7, 7], -1.0, 1.0);
        let dense = ops::conv2d(&x, &w, None, 1, 1).unwrap();
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        let sparse = conv2d_unstructured_with(&x, &un, None, &ExecConfig::default()).unwrap();
        assert_close(&sparse, &dense, 1e-4);
    }

    #[test]
    fn both_packs_bit_identical_to_scalar_on_same_weights() {
        for &(stride, pad, batch) in &[(1usize, 1usize, 2usize), (2, 1, 1), (1, 0, 1)] {
            let w = pruned(2, 8, 5, 15);
            let x = init::uniform(&mut init::rng(16), &[batch, 5, 12, 11], -1.0, 1.0);
            let bias: Vec<f32> = (0..8).map(|v| v as f32 * 0.1 - 0.3).collect();
            let pc = PatternCompressedConv::from_dense(&w, stride, pad).unwrap();
            let un = UnstructuredSparseConv::from_dense(&w, stride, pad).unwrap();
            let cfg = ExecConfig::serial();
            let a = conv2d_pattern_sparse_with(&x, &pc, Some(&bias), &cfg).unwrap();
            let b = conv2d_unstructured_with(&x, &un, Some(&bias), &cfg).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "pattern vs coo s{stride}p{pad}");
            let mut sc = vec![0.0f32; a.numel()];
            conv2d_pattern_scalar_into_with(
                x.as_slice(),
                x.shape(),
                &pc,
                Some(&bias),
                &Epilogue::NONE,
                &mut sc,
            )
            .unwrap();
            assert_eq!(a.as_slice(), &sc[..], "tiled vs scalar s{stride}p{pad}");
        }
    }

    #[test]
    fn one_by_one_sparse_conv() {
        let mut w = init::uniform(&mut init::rng(17), &[6, 4, 1, 1], -1.0, 1.0);
        for idx in [0usize, 5, 10, 15, 20] {
            w.as_mut_slice()[idx] = 0.0;
        }
        let x = init::uniform(&mut init::rng(18), &[1, 4, 6, 6], -1.0, 1.0);
        let dense = ops::conv2d(&x, &w, None, 1, 0).unwrap();
        let pc = PatternCompressedConv::from_dense(&w, 1, 0).unwrap();
        assert_close(
            &conv2d_pattern_sparse_with(&x, &pc, None, &ExecConfig::default()).unwrap(),
            &dense,
            1e-4,
        );
    }

    #[test]
    fn driver_with_fused_epilogue_matches_separate_passes() {
        let w = pruned(3, 6, 4, 31);
        let x = init::uniform(&mut init::rng(32), &[2, 4, 9, 9], -1.0, 1.0);
        let bias: Vec<f32> = (0..6).map(|v| v as f32 * 0.1 - 0.2).collect();
        let scale: Vec<f32> = (0..6).map(|v| 0.5 + v as f32 * 0.3).collect();
        let shift: Vec<f32> = (0..6).map(|v| v as f32 * -0.4).collect();
        let relu: fn(f32) -> f32 = |v| v.max(0.0);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        // Reference: unfused conv, then standalone affine + activation
        // passes in the order the epilogue uses. (All formats share the
        // canonical accumulation order, so one reference serves both.)
        let plane = 9 * 9;
        let unfused_then_epilogue = |conv: &Tensor| {
            let mut want = conv.as_slice().to_vec();
            for (tile, p) in want.chunks_mut(plane).enumerate() {
                let oc = tile % 6;
                for v in p.iter_mut() {
                    *v = relu(scale[oc] * *v + shift[oc]);
                }
            }
            want
        };
        let want = unfused_then_epilogue(
            &conv2d_pattern_sparse_with(&x, &pc, Some(&bias), &ExecConfig::default()).unwrap(),
        );
        let want_un = unfused_then_epilogue(
            &conv2d_unstructured_with(&x, &un, Some(&bias), &ExecConfig::default()).unwrap(),
        );
        assert_eq!(want, want_un, "formats share the canonical order");
        let epi = Epilogue {
            affine: Some((&scale, &shift)),
            act: Some(rtoss_tensor::EpilogueAct::Relu),
        };
        // Dirty buffers prove every element is overwritten.
        let mut got = vec![f32::NAN; 2 * 6 * plane];
        let shape = conv2d_packed_into(
            x.as_slice(),
            x.shape(),
            pc.pack(),
            Some(&bias),
            &epi,
            &mut got,
        )
        .unwrap();
        assert_eq!(shape, [2, 6, 9, 9]);
        assert_eq!(got, want, "pattern");
        let mut got_un = vec![f32::NAN; 2 * 6 * plane];
        conv2d_packed_into(
            x.as_slice(),
            x.shape(),
            un.pack(),
            Some(&bias),
            &epi,
            &mut got_un,
        )
        .unwrap();
        assert_eq!(got_un, want_un, "coo");
    }

    #[test]
    fn driver_rejects_bad_buffers_and_epilogues() {
        let w = pruned(3, 4, 2, 33);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        let x = init::uniform(&mut init::rng(34), &[1, 2, 5, 5], -1.0, 1.0);
        let mut short = vec![0.0f32; 3];
        assert!(conv2d_packed_into(
            x.as_slice(),
            x.shape(),
            pc.pack(),
            None,
            &Epilogue::NONE,
            &mut short,
        )
        .is_err());
        let bad_scale = [1.0f32; 3]; // layer has 4 out channels
        let bad_shift = [0.0f32; 3];
        let mut out = vec![0.0f32; 4 * 25];
        assert!(conv2d_packed_into(
            x.as_slice(),
            x.shape(),
            pc.pack(),
            None,
            &Epilogue {
                affine: Some((&bad_scale, &bad_shift)),
                act: None,
            },
            &mut out,
        )
        .is_err());
    }

    #[test]
    fn rejects_wrong_channels_and_bias() {
        let w = pruned(3, 4, 2, 19);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        let x = Tensor::zeros(&[1, 3, 6, 6]);
        assert!(conv2d_pattern_sparse_with(&x, &pc, None, &ExecConfig::default()).is_err());
        let x = Tensor::zeros(&[1, 2, 6, 6]);
        assert!(conv2d_pattern_sparse_with(&x, &pc, Some(&[0.0]), &ExecConfig::default()).is_err());
    }

    #[test]
    fn fully_pruned_layer_outputs_bias() {
        let w = Tensor::zeros(&[2, 2, 3, 3]);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        let x = init::uniform(&mut init::rng(20), &[1, 2, 4, 4], -1.0, 1.0);
        let y = conv2d_pattern_sparse_with(&x, &pc, Some(&[1.5, -0.5]), &ExecConfig::default())
            .unwrap();
        assert!(y.as_slice()[..16].iter().all(|&v| v == 1.5));
        assert!(y.as_slice()[16..].iter().all(|&v| v == -0.5));
    }
}
