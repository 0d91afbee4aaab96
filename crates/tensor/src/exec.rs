//! Execution configuration and the fused conv epilogue.
//!
//! Every op body in the workspace is serial. The one place work runs in
//! parallel is the compiled execution plan, which deals the independent
//! steps of a dependency level across the persistent
//! [`WorkerPool`](crate::pool::WorkerPool); [`ExecConfig::threads`] is
//! that deal's width and nothing else.

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

/// A per-output-channel post-processing hook an executor applies to an
/// output plane while it is still hot in cache, instead of as separate
/// full passes over the tensor afterwards.
///
/// The epilogue is the fusion half of the compile-before-run execution
/// plan: a `Conv → ChannelAffine → Activation` chain collapses into one
/// conv step whose epilogue carries the folded batch-norm scale/shift
/// and the activation function. Applied per `(batch, out-channel)`
/// plane inside the tiled executors, after the plane's accumulation
/// finishes, so results are bit-identical to running the affine and
/// activation as standalone elementwise passes (`act(scale*v + shift)`
/// performs the exact same `f32` operations in the same order).
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-channel affine `v ← scale[c] * v + shift[c]` (folded BN).
    /// Both slices must be indexable by every output channel the
    /// executor touches.
    pub affine: Option<(&'a [f32], &'a [f32])>,
    /// Elementwise activation applied after the affine. An enum rather
    /// than a function pointer so the fused per-plane loop
    /// monomorphizes and inlines — an indirect call per element costs
    /// more than the fusion saves.
    pub act: Option<EpilogueAct>,
}

/// Elementwise activation an [`Epilogue`] can apply. The arithmetic
/// here is the single definition both the fused executors and the
/// graph interpreter evaluate, so the two paths stay bit-identical.
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

impl EpilogueAct {
    /// Evaluates the activation at `x`.
    #[inline(always)]
    pub fn eval(self, x: f32) -> f32 {
        let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
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

    /// Applies the epilogue to one output-channel plane.
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
