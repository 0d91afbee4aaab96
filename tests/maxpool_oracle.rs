//! The compiled plan's max-pool is bitwise the interpreter oracle's
//! (`rtoss_tensor::ops::maxpool2d`) on inputs built to break a max:
//! NaN, ±0.0, ±∞, windows that find nothing, and ±0 ties placed so that
//! a reduction visiting a window in any order but row-major keeps the
//! other zero. Planned-vs-oracle checks elsewhere only see uniform
//! random frames, where none of these occur.

use rtoss::nn::layers::MaxPool2d;
use rtoss::nn::Graph;
use rtoss::sparse::{ExecConfig, SparseModel};
use rtoss::tensor::ops::out_extent;
use rtoss::tensor::Tensor;

/// Channel 0: `-0.0` at (even y, odd x), `+0.0` at (odd y, even x),
/// `-1.0` elsewhere. A window whose first row and column are even meets
/// `-0.0` first in row-major order but `+0.0` first column by column.
/// Channel 1: a deterministic draw from a palette heavy in NaN, zeros
/// and infinities. Channel 2: only NaN and `-∞`, so no cell is ever
/// found and every window takes the all-padding rule.
fn hostile(n: usize, h: usize, w: usize, seed: u32) -> Tensor {
    const PALETTE: [f32; 9] = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0,
        -1.0,
        2.5,
        -3.0,
    ];
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state as usize
    };
    let mut data = Vec::with_capacity(n * 3 * h * w);
    for _ in 0..n {
        for y in 0..h {
            for x in 0..w {
                data.push(match (y % 2, x % 2) {
                    (0, 1) => -0.0,
                    (1, 0) => 0.0,
                    _ => -1.0,
                });
            }
        }
        data.extend((0..h * w).map(|_| PALETTE[next() % PALETTE.len()]));
        data.extend((0..h * w).map(|i| {
            if (i + next()) % 2 == 0 {
                f32::NAN
            } else {
                f32::NEG_INFINITY
            }
        }));
    }
    Tensor::from_vec(data, &[n, 3, h, w]).expect("shape matches data")
}

/// Column-major visiting order with the oracle's strict `>`: what a
/// pool that swept `kx` outside `ky` would compute for one cell.
fn column_first(x: &Tensor, k: usize, stride: usize, pad: usize, at: [usize; 4]) -> f32 {
    let [ni, ci, oy, ox] = at;
    let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
    let mut best = f32::NEG_INFINITY;
    for kx in 0..k {
        for ky in 0..k {
            let (Some(iy), Some(ix)) = (
                (oy * stride + ky).checked_sub(pad).filter(|&v| v < h),
                (ox * stride + kx).checked_sub(pad).filter(|&v| v < w),
            ) else {
                continue;
            };
            let v = x.as_slice()[((ni * c + ci) * h + iy) * w + ix];
            if v > best {
                best = v;
            }
        }
    }
    if best == f32::NEG_INFINITY {
        0.0
    } else {
        best
    }
}

#[test]
fn planned_maxpool_is_bitwise_the_oracle_on_hostile_inputs() {
    let exec = ExecConfig::serial();
    let mut cases = 0;
    let mut order_sensitive_cells = 0;
    for k in [2usize, 3, 5] {
        for stride in [1usize, 2] {
            for pad in 0..=2usize {
                for (h, w) in [(5usize, 7usize), (9, 5), (3, 3), (1, 6), (6, 1)] {
                    if out_extent(h, k, stride, pad).is_none()
                        || out_extent(w, k, stride, pad).is_none()
                    {
                        continue;
                    }
                    let mut g = Graph::new();
                    let input = g.add_input("x");
                    let pool = g
                        .add_layer("pool", Box::new(MaxPool2d::new(k, stride, pad)), input)
                        .expect("pool node");
                    g.set_outputs(vec![pool]).expect("output");
                    let engine = SparseModel::compile(&g).expect("compiles");
                    let x = hostile(2, h, w, (k * 100 + stride * 10 + pad) as u32);
                    let label = format!("k{k} s{stride} p{pad} {h}x{w}");

                    let planned = engine.forward_with(&x, &exec).expect("planned");
                    let oracle = engine.forward_interpreted_with(&x, &exec).expect("oracle");
                    let (got, want) = (&planned[0], &oracle[0]);
                    assert_eq!(got.shape(), want.shape(), "{label}");
                    let bits =
                        |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(want), "planned vs oracle, {label}");

                    let s = want.shape();
                    for (i, v) in want.as_slice().iter().enumerate() {
                        let at = [
                            i / (s[1] * s[2] * s[3]),
                            i / (s[2] * s[3]) % s[1],
                            i / s[3] % s[2],
                            i % s[3],
                        ];
                        if column_first(&x, k, stride, pad, at).to_bits() != v.to_bits() {
                            order_sensitive_cells += 1;
                        }
                        if at[1] == 2 {
                            assert_eq!(v.to_bits(), 0.0f32.to_bits(), "nothing found, {label}");
                        }
                    }
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 72, "geometries that fit");
    // The inputs can tell visiting orders apart: a column-first sweep
    // disagrees with the oracle somewhere.
    assert!(
        order_sensitive_cells > 0,
        "no cell depends on visiting order"
    );
}
