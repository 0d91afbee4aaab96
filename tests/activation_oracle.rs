//! The activation arithmetic is exact where it must be and identical on
//! every path that evaluates it.
//!
//! - `exp` (`rtoss_tensor::exec::exp`, the only exponential behind SiLU
//!   and Sigmoid) is within 1 ulp of the correctly rounded result over
//!   a strided sweep of every finite `f32` plus dense sweeps of both
//!   range edges, where overflow and subnormal results begin.
//! - Its special values are exact, and so are SiLU's and Sigmoid's.
//! - A hash of `exp` over 2^20 evenly spaced bit patterns is pinned, so
//!   a build at another `target-cpu` (CI's baseline `x86-64` job) must
//!   produce the same bits.
//! - For every activation kind, a fused Conv→BN→act step (whose
//!   epilogue runs once per register tile, on the tile's packed live
//!   lanes) and a standalone activation step give bitwise the
//!   interpreter oracle's output on ragged geometries and on NaN, ±∞
//!   and ±0 inputs.

use rtoss::nn::layers::{Activation, ActivationKind, BatchNorm2d, Conv2d};
use rtoss::nn::Graph;
use rtoss::sparse::{ExecConfig, SparseModel};
use rtoss::tensor::exec::{exp, EpilogueAct};
use rtoss::tensor::microkernel::{MR, NR};
use rtoss::tensor::Tensor;

/// Distance in representable values between two non-negative floats
/// (`+∞` is the value after `f32::MAX`).
fn ulps(a: f32, b: f32) -> u32 {
    a.to_bits().abs_diff(b.to_bits())
}

/// Checks `exp(x)` against the correctly rounded `e^x`.
fn check_exp(x: f32) {
    let want = (f64::from(x)).exp() as f32;
    let got = exp(x);
    assert!(
        got.is_sign_positive() && ulps(got, want) <= 1,
        "exp({x:e}) = {got:e}, correctly rounded {want:e}"
    );
}

#[test]
fn exp_is_within_one_ulp_of_the_correctly_rounded_result() {
    // Every finite f32 at an odd stride, so mantissa tails vary.
    let mut swept = 0usize;
    for bits in (0..=u32::MAX).step_by(4099) {
        let x = f32::from_bits(bits);
        if x.is_finite() {
            check_exp(x);
            swept += 1;
        }
    }
    assert!(swept > 1_000_000, "strided sweep too thin: {swept}");
    // Upper edge: every float from where e^x nears f32::MAX (k = 128,
    // one past the largest biased exponent) to past the overflow.
    let mut x = 88.0f32;
    while x <= 88.8 {
        check_exp(x);
        x = x.next_up();
    }
    // 88.72283 is the largest x whose e^x rounds to a finite f32.
    let last = 88.72283f32;
    assert!(exp(last).is_finite(), "largest finite result");
    assert_eq!(exp(last.next_up()), f32::INFINITY, "first overflow");
    // Lower edge: normal results end at -87.34, subnormal ones at
    // -103.97; every third float across both ends and the gap between.
    let mut x = -104.5f32;
    let mut subnormal = 0usize;
    while x <= -87.0 {
        check_exp(x);
        subnormal += usize::from(exp(x).is_subnormal());
        x = x.next_up().next_up().next_up();
    }
    assert!(subnormal > 100_000, "subnormal results swept: {subnormal}");
}

#[test]
fn exp_special_values_are_exact() {
    let bits = |v: f32| v.to_bits();
    assert!(exp(f32::NAN).is_nan());
    assert!(exp(-f32::NAN).is_nan());
    assert_eq!(bits(exp(f32::INFINITY)), bits(f32::INFINITY));
    assert_eq!(bits(exp(f32::NEG_INFINITY)), bits(0.0));
    for x in [88.8f32, 89.0, 100.0, 1e30, f32::MAX] {
        assert_eq!(bits(exp(x)), bits(f32::INFINITY), "overflow at {x}");
    }
    for x in [-104.0f32, -200.0, -1e30, f32::MIN] {
        assert_eq!(bits(exp(x)), bits(0.0), "underflow at {x}");
    }
    assert_eq!(bits(exp(0.0)), bits(1.0));
    assert_eq!(bits(exp(-0.0)), bits(1.0));
    // -103.97208 is the smallest x whose e^x rounds to a non-zero f32.
    let first = -103.97208f32;
    assert_eq!(bits(exp(first)), 1, "smallest subnormal");
    assert_eq!(bits(exp(first.next_down())), 0, "first underflow");

    // (input, Sigmoid, SiLU), compared bit for bit.
    let cases = [
        (0.0f32, 0.5f32, 0.0f32),
        (-0.0, 0.5, -0.0),
        (f32::INFINITY, 1.0, f32::INFINITY),
        (100.0, 1.0, 100.0),
        // e^100 overflows, so Sigmoid and SiLU underflow to zero.
        (-100.0, 0.0, -0.0),
    ];
    for (x, sigmoid, silu) in cases {
        let got = EpilogueAct::Sigmoid.eval(x);
        assert_eq!(bits(got), bits(sigmoid), "sigmoid({x}) = {got}");
        let got = EpilogueAct::Silu.eval(x);
        assert_eq!(bits(got), bits(silu), "silu({x}) = {got}");
    }
    assert_eq!(bits(EpilogueAct::Sigmoid.eval(f32::NEG_INFINITY)), 0);
    // SiLU(−∞) is `−∞ · 0`, NaN, as in `rtoss_nn`'s `Activation`.
    assert!(EpilogueAct::Silu.eval(f32::NEG_INFINITY).is_nan());
    assert!(EpilogueAct::Sigmoid.eval(f32::NAN).is_nan());
    assert!(EpilogueAct::Silu.eval(f32::NAN).is_nan());
}

#[test]
fn exp_bits_are_pinned() {
    // FNV-1a over exp at every 4096th bit pattern. NaN outputs hash as
    // one canonical NaN: Rust does not pin NaN payload or sign bits.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0u32..1 << 20 {
        let y = exp(f32::from_bits(i << 12));
        let y = if y.is_nan() { 0x7fc0_0000 } else { y.to_bits() };
        for b in y.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(hash, 0x0429_ad0f_48af_8bea, "exp bits moved: {hash:#018x}");
}

/// Frames mixing ordinary values wide enough to reach both ends of
/// `exp`'s range with a sprinkling of NaN, ±∞ and ±0.
fn hostile(n: usize, c: usize, h: usize, w: usize, seed: u32) -> Tensor {
    const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    let data = (0..n * c * h * w)
        .map(|_| {
            let r = next();
            if r % 32 == 0 {
                SPECIAL[(r / 32) as usize % SPECIAL.len()]
            } else {
                (r % 4001) as f32 / 20.0 - 100.0
            }
        })
        .collect();
    Tensor::from_vec(data, &[n, c, h, w]).expect("shape matches data")
}

#[test]
fn fused_and_standalone_activations_are_bitwise_the_oracle() {
    let exec = ExecConfig::serial();
    let kinds = [
        ActivationKind::Silu,
        ActivationKind::Relu,
        ActivationKind::LeakyRelu,
        ActivationKind::Sigmoid,
    ];
    // (h, w, kernel, stride, pad): oh % MR != 0 and ow % NR != 0 on
    // every row, ow < NR on the first two.
    let geometries = [
        (7usize, 9usize, 3usize, 1usize, 1usize),
        (9, 21, 3, 2, 1),
        (6, 19, 1, 1, 0),
        (11, 35, 3, 1, 1),
    ];
    let (c_in, c_out) = (3usize, 5usize);
    for (gi, &(h, w, k, stride, pad)) in geometries.iter().enumerate() {
        let (oh, ow) = (
            (h + 2 * pad - k) / stride + 1,
            (w + 2 * pad - k) / stride + 1,
        );
        assert!(oh % MR != 0 && ow % NR != 0, "geometry {gi} is ragged");
        for (ki, &kind) in kinds.iter().enumerate() {
            let label = format!("{kind:?} {h}x{w} k{k} s{stride} p{pad}");
            let mut bn = BatchNorm2d::new(c_out);
            let mean: Vec<f32> = (0..c_out).map(|c| c as f32 * 0.75 - 1.5).collect();
            let var: Vec<f32> = (0..c_out).map(|c| 0.5 + c as f32).collect();
            bn.set_running_stats(&mean, &var);
            for (c, g) in bn.gamma_mut().value.as_mut_slice().iter_mut().enumerate() {
                *g = if c % 2 == 0 { 1.5 } else { -0.5 };
            }
            let mut g = Graph::new();
            let x = g.add_input("x");
            let conv = Conv2d::new(c_in, c_out, k, stride, pad, (gi * 10 + ki) as u64);
            let conv = g.add_layer("conv", Box::new(conv), x).expect("conv");
            let bn = g.add_layer("bn", Box::new(bn), conv).expect("bn");
            let act = g
                .add_layer("act", Box::new(Activation::new(kind)), bn)
                .expect("act");
            // An activation with no conv to fuse into: a standalone step.
            let solo = g
                .add_layer("solo", Box::new(Activation::new(kind)), x)
                .expect("solo");
            g.set_outputs(vec![act, solo]).expect("outputs");
            let engine = SparseModel::compile(&g).expect("compiles");

            let summary = engine.plan_summary(&[2, c_in, h, w]).expect("plans");
            let fused: Vec<_> = summary.steps.iter().map(|s| s.fused).collect();
            assert_eq!(fused, ["affine+act", "none"], "plan shape, {label}");

            let input = hostile(2, c_in, h, w, (gi * 10 + ki + 1) as u32);
            let planned = engine.forward_with(&input, &exec).expect("planned");
            let oracle = engine
                .forward_interpreted_with(&input, &exec)
                .expect("oracle");
            assert_eq!(planned.len(), 2);
            for (out, (got, want)) in planned.iter().zip(&oracle).enumerate() {
                assert_eq!(got.shape(), want.shape(), "output {out}, {label}");
                let diff = got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .position(|(a, b)| a.to_bits() != b.to_bits());
                if let Some(i) = diff {
                    let (a, b) = (got.as_slice()[i], want.as_slice()[i]);
                    panic!("output {out}, {label}: element {i} planned {a:e}, oracle {b:e}");
                }
            }
            // The inputs reach the cases the test is about: non-finite
            // outputs beside ordinary ones.
            let y = planned[0].as_slice();
            assert_eq!(y.len(), 2 * c_out * oh * ow);
            assert!(y.iter().any(|v| !v.is_finite()), "no non-finite, {label}");
            assert!(y.iter().any(|v| v.is_finite() && *v != 0.0), "{label}");
        }
    }
}
