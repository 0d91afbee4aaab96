//! Execution configuration, the fused conv epilogue, and the one `exp`
//! every activation evaluates.
//!
//! Every op body in the workspace is serial. The one place work runs in
//! parallel is the compiled execution plan, which deals the independent
//! steps of a dependency level across the persistent
//! [`WorkerPool`](crate::pool::WorkerPool); [`ExecConfig::threads`] is
//! that deal's width and nothing else.
//!
//! # The `exp` contract
//!
//! [`exp`] is the only exponential behind [`EpilogueAct`], so the fused
//! plan and the interpreter oracle evaluate SiLU and Sigmoid through
//! the same arithmetic. Against the correctly rounded result it is
//! within **1 ulp** over every finite `f32` (subnormal results
//! included), and its special values are exact: `NaN → NaN`,
//! `+∞ → +∞`, `−∞ → +0`, `x > 88.72… → +∞`, `x < −103.97… → +0`.
//!
//! libm's `expf` is not used, for two reasons. It is an opaque call per
//! element, so a plane's activation pass cannot vectorize and costs
//! more than the multiply-adds of a pruned conv; [`exp`] is straight-line
//! safe Rust (a clamp, Cody–Waite range reduction, a degree-7
//! polynomial, an exponent-bit scale) that LLVM vectorizes at any
//! `target-cpu`. And libm's bits are the host's: a model served on two
//! hosts could round differently. [`exp`] uses no `mul_add` and no
//! `std::arch`, and rustc never contracts `f32` `mul`+`add` into FMA,
//! so it gives the same bits under `target-cpu=native` and the baseline
//! `x86-64` (`tests/activation_oracle.rs` pins a hash of it).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Environment variable overriding the default thread count.
pub const THREADS_ENV: &str = "RTOSS_THREADS";

/// Default worker-thread count: `RTOSS_THREADS` when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`]. Cached for
/// the process lifetime (CI sets the variable before launch).
pub fn default_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// A per-output-channel post-processing hook an executor applies to
/// its output while it is still in registers or cache, instead of as
/// separate full passes over the tensor afterwards.
///
/// The epilogue is the fusion half of the compile-before-run execution
/// plan: a `Conv → ChannelAffine → Activation` chain collapses into one
/// conv step whose epilogue carries the folded batch-norm scale/shift
/// and the activation function. The tiled conv walk applies it to each
/// finished register tile (see
/// [`microkernel::writeback`](crate::microkernel::writeback)); the
/// scalar reference and the standalone activation steps apply it to a
/// whole plane. It is elementwise with channel-constant parameters, so
/// every grouping gives the same bits as running the affine and the
/// activation as separate passes (`act(scale*v + shift)` performs the
/// exact same `f32` operations in the same order).
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-channel affine `v ← scale[c] * v + shift[c]` (folded BN).
    /// Both slices must be indexable by every output channel the
    /// executor touches.
    pub affine: Option<(&'a [f32], &'a [f32])>,
    /// Elementwise activation applied after the affine. An enum rather
    /// than a function pointer so the fused loop monomorphizes, inlines
    /// and vectorizes — an indirect call per element costs more than
    /// the fusion saves.
    pub act: Option<EpilogueAct>,
}

/// Elementwise activation an [`Epilogue`] can apply. The arithmetic
/// here is the single definition both the fused executors and the
/// graph interpreter evaluate, so the two paths stay bit-identical.
///
/// SiLU and Sigmoid take their exponential from [`exp`] (≤ 1 ulp, no
/// libm; see the module docs), so their bits do not depend on the
/// host. Their special values: `NaN → NaN`; Sigmoid gives `0.5` at
/// `±0`, `1` at `+∞` and `+0` at `−∞` (and wherever `exp(-x)`
/// overflows, `x < −88.72…`); SiLU keeps the sign of `±0`, gives `+∞`
/// at `+∞`, `−0` wherever Sigmoid is `0` for finite `x`, and NaN at
/// `−∞` (`−∞ · 0`), as `rtoss_nn`'s `Activation` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpilogueAct {
    /// `x * sigmoid(x)`.
    Silu,
    /// `max(x, 0)`.
    Relu,
    /// `x` for positive `x`, else `0.1 * x`.
    LeakyRelu,
    /// `1 / (1 + exp(-x))`.
    Sigmoid,
}

/// `e^x` in `f32`: within 1 ulp of the correctly rounded result over
/// every finite input, with exact special values (see the module docs
/// for the contract and why libm is not used).
///
/// Branch-free so that loops over it vectorize: `x` is clamped to
/// `[−104, 89]` (which keeps NaN, and outside which the result is `+0`
/// or `+∞` anyway), split as `x = k·ln 2 + r` with `|r| ≤ ln 2 / 2`
/// (Cody–Waite: `k·LN2_HI` is exact, so only the small `k·LN2_LO`
/// term rounds), `e^r` is `1 + r + r²·P(r)` with the Cephes degree-5
/// `P`, and `2^k` is applied as two exponent-bit factors `2^(k/2)`,
/// each a normal float for every `k ∈ [−150, 128]`, so results that
/// overflow or are subnormal round once, correctly, in the last
/// multiply.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // 0.693359375: 9 significant bits, so `k * LN2_HI` is exact for
    // every `|k| <= 150`, and `x - k * LN2_HI` is exact as well.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 * 2^23: adding and subtracting it rounds to the nearest integer.
    const ROUND: f32 = 12_582_912.0;
    const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        0.5,
    ];
    let x = x.clamp(-104.0, 89.0);
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let kf = t - ROUND;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let mut p = P[0];
    for c in &P[1..] {
        p = p * r + c;
    }
    let m = 1.0 + (r + r * r * p);
    // `t` is `ROUND + k` with `k` in [-150, 128], an integer in `t`'s
    // low mantissa bits. Reading it there instead of through `kf as
    // i32` keeps the loop vectorized: the saturating float-to-int cast
    // is scalarized. For NaN `x`, `k` is garbage, but wrapping and
    // `m` is NaN, so the product is too.
    let k = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let scale = |e: i32| f32::from_bits((e.wrapping_add(127) as u32) << 23);
    m * scale(k >> 1) * scale(k.wrapping_sub(k >> 1))
}

impl EpilogueAct {
    /// Evaluates the activation at `x`.
    #[inline(always)]
    pub fn eval(self, x: f32) -> f32 {
        let sigmoid = |v: f32| 1.0 / (1.0 + exp(-v));
        match self {
            EpilogueAct::Silu => x * sigmoid(x),
            EpilogueAct::Relu => x.max(0.0),
            EpilogueAct::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.1 * x
                }
            }
            EpilogueAct::Sigmoid => sigmoid(x),
        }
    }
}

impl Epilogue<'_> {
    /// The identity epilogue: the executor's plain, unfused behaviour.
    pub const NONE: Epilogue<'static> = Epilogue {
        affine: None,
        act: None,
    };

    /// True when applying this epilogue would change nothing.
    pub fn is_identity(&self) -> bool {
        self.affine.is_none() && self.act.is_none()
    }

    /// Applies the epilogue to one output-channel plane, or to any run
    /// of one channel's outputs (it is elementwise): the microkernel
    /// calls it once per tile on the tile's packed live lanes. One
    /// vectorized loop per activation. `#[inline(never)]`: inlined into
    /// the tile walk it slowed the tap-heavy layers on 2×2 maps by
    /// 5–10 % (DESIGN §16).
    #[inline(never)]
    pub fn apply(&self, ch: usize, plane: &mut [f32]) {
        // Monomorphized per activation so `f` inlines into the loop;
        // the arithmetic (`f(s * v + b)`) is identical across arms.
        #[inline(always)]
        fn fused(plane: &mut [f32], sb: Option<(f32, f32)>, f: impl Fn(f32) -> f32) {
            match sb {
                Some((s, b)) => {
                    for v in plane.iter_mut() {
                        *v = f(s * *v + b);
                    }
                }
                None => {
                    for v in plane.iter_mut() {
                        *v = f(*v);
                    }
                }
            }
        }
        match (self.affine, self.act) {
            (affine, Some(act)) => {
                let sb = affine.map(|(scale, shift)| (scale[ch], shift[ch]));
                match act {
                    EpilogueAct::Silu => fused(plane, sb, |x| EpilogueAct::Silu.eval(x)),
                    EpilogueAct::Relu => fused(plane, sb, |x| EpilogueAct::Relu.eval(x)),
                    EpilogueAct::LeakyRelu => fused(plane, sb, |x| EpilogueAct::LeakyRelu.eval(x)),
                    EpilogueAct::Sigmoid => fused(plane, sb, |x| EpilogueAct::Sigmoid.eval(x)),
                }
            }
            (Some((scale, shift)), None) => {
                let (s, b) = (scale[ch], shift[ch]);
                for v in plane.iter_mut() {
                    *v = s * *v + b;
                }
            }
            (None, None) => {}
        }
    }
}

/// How wide a compiled execution plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// The plan's graph-level width: how many independent steps of one
    /// dependency level may run at once on the worker pool (clamped to
    /// ≥ 1; `1` runs the steps in schedule order on the caller). Op
    /// bodies never read it.
    pub threads: usize,
}

impl ExecConfig {
    /// The serial configuration: width 1.
    pub fn serial() -> Self {
        ExecConfig { threads: 1 }
    }

    /// A configuration with an explicit thread count (min 1).
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
        }
    }

    /// The process default: `RTOSS_THREADS` or the machine's available
    /// parallelism (see [`default_threads`]).
    pub fn from_env() -> Self {
        ExecConfig {
            threads: default_threads(),
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epilogue_matches_separate_passes() {
        let scale = [2.0f32, -1.0];
        let shift = [0.5f32, 3.0];
        let relu: fn(f32) -> f32 = |v| v.max(0.0);
        for ch in 0..2 {
            let data = [-1.5f32, 0.0, 0.25, 7.0];
            // Reference: affine pass, then activation pass.
            let mut want = data;
            for v in want.iter_mut() {
                *v = scale[ch] * *v + shift[ch];
            }
            for v in want.iter_mut() {
                *v = relu(*v);
            }
            let mut got = data;
            let epi = Epilogue {
                affine: Some((&scale, &shift)),
                act: Some(EpilogueAct::Relu),
            };
            epi.apply(ch, &mut got);
            assert_eq!(got, want, "channel {ch}");
        }
        let mut unchanged = [1.0f32, -2.0];
        Epilogue::NONE.apply(0, &mut unchanged);
        assert!(Epilogue::NONE.is_identity());
        assert_eq!(unchanged, [1.0, -2.0]);
    }

    #[test]
    fn exec_config_clamps_to_one_thread() {
        assert_eq!(ExecConfig::with_threads(0).threads, 1);
        assert_eq!(ExecConfig::serial().threads, 1);
        assert!(ExecConfig::default().threads >= 1);
    }
}
