//! 2-D convolution via im2col + matrix multiplication, with gradients.
//!
//! Layouts follow the paper's framing: activations `(N, C, H, W)`,
//! weights `(O, I, kH, kW)`. `conv2d` is the dense reference executor;
//! the `rtoss-sparse` crate provides the pattern-grouped sparse executor
//! that exploits R-TOSS masks.

use super::matmul::{matmul, matmul_transpose_a, matmul_transpose_b};
use crate::exec::ExecConfig;
use crate::{Tensor, TensorError};

/// Output spatial extent for one dimension: `(input + 2·pad − kernel) /
/// stride + 1`, or `None` when the kernel does not fit the padded input
/// or `stride` is zero. Public so shape inference (`rtoss-nn`) and the
/// static checks in `rtoss-verify` use the exact formula the executors
/// validate against, rather than a re-derivation of it.
pub fn out_extent(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    let padded = input + 2 * pad;
    if padded < kernel || stride == 0 {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

/// Validated conv geometry:
/// `(batch, in_ch, in_h, in_w, out_ch, kh, kw, out_h, out_w)`.
type ConvGeometry = (
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

fn check_conv_args(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<ConvGeometry, TensorError> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.rank(),
            op: "conv2d",
        });
    }
    if w.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: w.rank(),
            op: "conv2d",
        });
    }
    let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (o, ci, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    if c != ci {
        return Err(TensorError::ShapeMismatch {
            left: x.shape().to_vec(),
            right: w.shape().to_vec(),
            op: "conv2d",
        });
    }
    let oh = out_extent(h, kh, stride, pad).ok_or_else(|| TensorError::Invalid {
        op: "conv2d",
        msg: format!("kernel {kh} does not fit input height {h} with pad {pad} stride {stride}"),
    })?;
    let ow = out_extent(wd, kw, stride, pad).ok_or_else(|| TensorError::Invalid {
        op: "conv2d",
        msg: format!("kernel {kw} does not fit input width {wd} with pad {pad} stride {stride}"),
    })?;
    Ok((n, c, h, wd, o, kh, kw, oh, ow))
}

/// Unfolds one image `(C, H, W)` into a `(C*kh*kw, oh*ow)` column matrix.
///
/// # Errors
///
/// Returns an error if `x` is not rank 3 or the kernel does not fit.
pub fn im2col(
    x: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    if x.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: x.rank(),
            op: "im2col",
        });
    }
    let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let oh = out_extent(h, kh, stride, pad).ok_or_else(|| TensorError::Invalid {
        op: "im2col",
        msg: "kernel does not fit".into(),
    })?;
    let ow = out_extent(w, kw, stride, pad).ok_or_else(|| TensorError::Invalid {
        op: "im2col",
        msg: "kernel does not fit".into(),
    })?;
    let rows = c * kh * kw;
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    let xd = x.as_slice();
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let base = row * cols;
                for oy in 0..oh {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let xrow = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[base + oy * ow + ox] = xd[xrow + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols])
}

/// Folds a `(C*kh*kw, oh*ow)` column matrix back into `(C, H, W)`,
/// accumulating overlapping contributions (the adjoint of [`im2col`]).
///
/// # Errors
///
/// Returns an error if shapes are inconsistent.
#[allow(clippy::too_many_arguments)] // mirrors im2col's geometry args
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    let oh = out_extent(h, kh, stride, pad).ok_or_else(|| TensorError::Invalid {
        op: "col2im",
        msg: "kernel does not fit".into(),
    })?;
    let ow = out_extent(w, kw, stride, pad).ok_or_else(|| TensorError::Invalid {
        op: "col2im",
        msg: "kernel does not fit".into(),
    })?;
    if cols.shape() != [c * kh * kw, oh * ow] {
        return Err(TensorError::ShapeMismatch {
            left: cols.shape().to_vec(),
            right: vec![c * kh * kw, oh * ow],
            op: "col2im",
        });
    }
    let mut out = vec![0.0f32; c * h * w];
    let cd = cols.as_slice();
    let ncols = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let base = row * ncols;
                for oy in 0..oh {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let orow = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[orow + ix as usize] += cd[base + oy * ow + ox];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[c, h, w])
}

/// Dense 2-D convolution: `x (N,C,H,W) * w (O,C,kh,kw) → (N,O,oh,ow)`,
/// one im2col matmul per image on the calling thread.
///
/// # Errors
///
/// Returns an error if ranks are wrong, channel counts disagree, the
/// kernel does not fit the (padded) input, or the bias length differs
/// from the output-channel count.
pub fn conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    let (n, c, h, wd, o, kh, kw, oh, ow) = check_conv_args(x, w, stride, pad)?;
    let _span = rtoss_obs::span_lazy(|| {
        use rtoss_obs::ArgValue;
        (
            "conv2d",
            vec![
                ("n", ArgValue::U64(n as u64)),
                ("c", ArgValue::U64(c as u64)),
                ("oc", ArgValue::U64(o as u64)),
                ("k", ArgValue::U64(kh as u64)),
            ],
        )
    });
    if let Some(b) = bias {
        if b.len() != o {
            return Err(TensorError::Invalid {
                op: "conv2d",
                msg: format!("bias length {} != out channels {o}", b.len()),
            });
        }
    }
    let wmat = w.reshape(&[o, c * kh * kw])?;
    let mut out = vec![0.0f32; n * o * oh * ow];
    let img_elems = c * h * wd;
    let out_plane = oh * ow;
    for ni in 0..n {
        let img = Tensor::from_vec(
            x.as_slice()[ni * img_elems..(ni + 1) * img_elems].to_vec(),
            &[c, h, wd],
        )?;
        let cols = im2col(&img, kh, kw, stride, pad)?;
        let y = matmul(&wmat, &cols)?; // (O, oh*ow)
        let dst = &mut out[ni * o * out_plane..(ni + 1) * o * out_plane];
        dst.copy_from_slice(y.as_slice());
        if let Some(b) = bias {
            for (oc, &bo) in b.iter().enumerate() {
                for v in &mut dst[oc * out_plane..(oc + 1) * out_plane] {
                    *v += bo;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, o, oh, ow])
}

/// [`conv2d`] with an [`ExecConfig`] it does not read: the op is
/// serial. The argument stays only because the `benchmark/` package
/// calls this signature.
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_with(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    _exec: &ExecConfig,
) -> Result<Tensor, TensorError> {
    conv2d(x, w, bias, stride, pad)
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, shape `(N, C, H, W)`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weight, shape `(O, C, kH, kW)`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, length `O`.
    pub grad_bias: Vec<f32>,
}

/// Backward pass of [`conv2d`].
///
/// `grad_out` has shape `(N, O, oh, ow)`; `x` and `w` are the forward
/// inputs.
///
/// # Errors
///
/// Returns an error on any shape inconsistency with the forward pass.
pub fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<Conv2dGrads, TensorError> {
    let (n, c, h, wd, o, kh, kw, oh, ow) = check_conv_args(x, w, stride, pad)?;
    if grad_out.shape() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: grad_out.shape().to_vec(),
            right: vec![n, o, oh, ow],
            op: "conv2d_backward",
        });
    }
    let wmat = w.reshape(&[o, c * kh * kw])?;
    let img_elems = c * h * wd;
    let out_plane = oh * ow;
    let mut grad_input = vec![0.0f32; n * img_elems];
    let mut grad_weight = Tensor::zeros(&[o, c * kh * kw]);
    let mut grad_bias = vec![0.0f32; o];

    for ni in 0..n {
        let go = Tensor::from_vec(
            grad_out.as_slice()[ni * o * out_plane..(ni + 1) * o * out_plane].to_vec(),
            &[o, out_plane],
        )?;
        // Bias gradient: sum over spatial positions.
        for (oc, gb) in grad_bias.iter_mut().enumerate() {
            *gb += go.as_slice()[oc * out_plane..(oc + 1) * out_plane]
                .iter()
                .sum::<f32>();
        }
        let img = Tensor::from_vec(
            x.as_slice()[ni * img_elems..(ni + 1) * img_elems].to_vec(),
            &[c, h, wd],
        )?;
        let cols = im2col(&img, kh, kw, stride, pad)?;
        // dW = dY · colsᵀ
        let gw = matmul_transpose_b(&go, &cols)?;
        grad_weight.add_scaled_in_place(&gw, 1.0)?;
        // dcols = Wᵀ · dY, then fold back.
        let dcols = matmul_transpose_a(&wmat, &go)?;
        let gx = col2im(&dcols, c, h, wd, kh, kw, stride, pad)?;
        grad_input[ni * img_elems..(ni + 1) * img_elems].copy_from_slice(gx.as_slice());
    }

    Ok(Conv2dGrads {
        grad_input: Tensor::from_vec(grad_input, &[n, c, h, wd])?,
        grad_weight: grad_weight.reshape(&[o, c, kh, kw])?,
        grad_bias,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (quadruple-loop) convolution used as the ground truth.
    fn conv2d_naive(
        x: &Tensor,
        w: &Tensor,
        bias: Option<&[f32]>,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (o, _, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
        let oh = out_extent(h, kh, stride, pad).unwrap();
        let ow = out_extent(wd, kw, stride, pad).unwrap();
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        for ni in 0..n {
            for oc in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map_or(0.0, |b| b[oc]);
                        for ci in 0..c {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let iy = (oy * stride + ki) as isize - pad as isize;
                                    let ix = (ox * stride + kj) as isize - pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= wd as isize {
                                        continue;
                                    }
                                    acc += x.at(&[ni, ci, iy as usize, ix as usize])
                                        * w.at(&[oc, ci, ki, kj]);
                                }
                            }
                        }
                        out.set(&[ni, oc, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    fn rand_t(seed: u64, dims: &[usize]) -> Tensor {
        crate::init::uniform(&mut crate::init::rng(seed), dims, -1.0, 1.0)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
            assert!((x - y).abs() < tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_various_geometries() {
        for &(c, h, w, o, k, s, p) in &[
            (1usize, 5usize, 5usize, 1usize, 3usize, 1usize, 1usize),
            (3, 8, 8, 4, 3, 1, 1),
            (2, 7, 9, 3, 3, 2, 1),
            (4, 6, 6, 2, 1, 1, 0),
            (2, 9, 9, 2, 5, 2, 2),
        ] {
            let x = rand_t(11, &[2, c, h, w]);
            let wt = rand_t(13, &[o, c, k, k]);
            let b: Vec<f32> = (0..o).map(|i| i as f32 * 0.1).collect();
            let got = conv2d(&x, &wt, Some(&b), s, p).unwrap();
            let want = conv2d_naive(&x, &wt, Some(&b), s, p);
            assert_close(&got, &want, 1e-4);
        }
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 kernel of value 1 on single channel = identity.
        let x = rand_t(3, &[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, 1, 0).unwrap();
        assert_close(&y, &x, 1e-6);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random y: adjoint property.
        let x = rand_t(5, &[2, 6, 6]);
        let cols = im2col(&x, 3, 3, 1, 1).unwrap();
        let y = rand_t(6, &[cols.shape()[0], cols.shape()[1]]);
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        let folded = col2im(&y, 2, 6, 6, 3, 3, 1, 1).unwrap();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(folded.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let x = rand_t(21, &[1, 2, 5, 5]);
        let w = rand_t(22, &[3, 2, 3, 3]);
        let stride = 1;
        let pad = 1;
        let y = conv2d(&x, &w, None, stride, pad).unwrap();
        // Loss = sum(y); dL/dy = ones.
        let go = Tensor::ones(y.shape());
        let grads = conv2d_backward(&x, &w, &go, stride, pad).unwrap();

        let eps = 1e-3f32;
        // Check a scattering of weight coordinates.
        for &(a, b, ci, cj) in &[(0usize, 0usize, 0usize, 0usize), (1, 1, 1, 2), (2, 0, 2, 1)] {
            let mut wp = w.clone();
            wp.set(&[a, b, ci, cj], w.at(&[a, b, ci, cj]) + eps);
            let yp = conv2d(&x, &wp, None, stride, pad).unwrap();
            let mut wm = w.clone();
            wm.set(&[a, b, ci, cj], w.at(&[a, b, ci, cj]) - eps);
            let ym = conv2d(&x, &wm, None, stride, pad).unwrap();
            let num = (yp.sum() - ym.sum()) / (2.0 * eps);
            let ana = grads.grad_weight.at(&[a, b, ci, cj]);
            assert!(
                (num - ana).abs() < 2e-2,
                "dW[{a},{b},{ci},{cj}]: {num} vs {ana}"
            );
        }
        // And a scattering of input coordinates.
        for &(ci, iy, ix) in &[(0usize, 0usize, 0usize), (1, 2, 3), (0, 4, 4)] {
            let mut xp = x.clone();
            xp.set(&[0, ci, iy, ix], x.at(&[0, ci, iy, ix]) + eps);
            let yp = conv2d(&xp, &w, None, stride, pad).unwrap();
            let mut xm = x.clone();
            xm.set(&[0, ci, iy, ix], x.at(&[0, ci, iy, ix]) - eps);
            let ym = conv2d(&xm, &w, None, stride, pad).unwrap();
            let num = (yp.sum() - ym.sum()) / (2.0 * eps);
            let ana = grads.grad_input.at(&[0, ci, iy, ix]);
            assert!(
                (num - ana).abs() < 2e-2,
                "dX[{ci},{iy},{ix}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn bias_gradient_counts_positions() {
        let x = rand_t(31, &[2, 1, 4, 4]);
        let w = rand_t(32, &[2, 1, 3, 3]);
        let y = conv2d(&x, &w, None, 1, 1).unwrap();
        let go = Tensor::ones(y.shape());
        let g = conv2d_backward(&x, &w, &go, 1, 1).unwrap();
        // dL/db_o = number of (batch, spatial) positions = 2*4*4.
        for &gb in &g.grad_bias {
            assert!((gb - 32.0).abs() < 1e-4);
        }
    }

    #[test]
    fn rejects_channel_mismatch_and_bad_kernel() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[2, 2, 3, 3]);
        assert!(conv2d(&x, &w, None, 1, 1).is_err());
        let w2 = Tensor::zeros(&[2, 3, 7, 7]);
        assert!(conv2d(&x, &w2, None, 1, 0).is_err());
        let w3 = Tensor::zeros(&[2, 3, 3, 3]);
        assert!(conv2d(&x, &w3, Some(&[0.0]), 1, 1).is_err());
    }
}
