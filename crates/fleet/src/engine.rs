//! Tiered engine: one replica's dense→3EP→2EP variant stack with
//! atomic hot swap.
//!
//! A [`TieredEngine`] implements [`ServeModel`] so it drops straight
//! into the existing `rtoss-serve` worker pool. Each micro-batch
//! executes on the variant selected by the replica's degradation
//! controller at that moment (an atomic tier index — no lock on the
//! request path beyond one uncontended `RwLock` read to clone the
//! model `Arc`). Per-tier served counts feed the fleet's served-tier
//! mix and modelled-mAP reporting.
//!
//! **Hot swap**: [`TieredEngine::swap_model`] prewarms the incoming
//! model's per-shape artifacts *before* publishing it, then replaces
//! the `Arc` under a write lock held only for the pointer store — the
//! std-only equivalent of an atomic `Arc` swap (std has no `AtomicArc`;
//! an uncontended `RwLock` read is a single atomic acquire). In-flight
//! batches keep the old `Arc` alive until they finish.

use rtoss_serve::{ExecConfig, ServeModel};
use rtoss_tensor::Tensor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::tier::TierSpec;

/// One tier's slot: spec + hot-swappable model.
struct TierSlot {
    spec: TierSpec,
    model: RwLock<Arc<dyn ServeModel>>,
    batches: AtomicU64,
    frames: AtomicU64,
}

/// A replica's stack of accuracy-tier variants behind one [`ServeModel`]
/// front. Tier 0 is the densest; higher tiers are sparser and faster.
pub struct TieredEngine {
    tiers: Vec<TierSlot>,
    current: AtomicUsize,
}

impl std::fmt::Debug for TieredEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredEngine")
            .field("tiers", &self.tier_specs())
            .field("current", &self.current_tier())
            .finish()
    }
}

impl TieredEngine {
    /// Builds the engine from `(spec, model)` pairs, densest first.
    ///
    /// # Errors
    ///
    /// Returns an error when the tier list is empty or has duplicate
    /// names (the served-tier mix would be ambiguous).
    pub fn new(tiers: Vec<(TierSpec, Arc<dyn ServeModel>)>) -> Result<Self, String> {
        if tiers.is_empty() {
            return Err("a tiered engine needs at least one tier".into());
        }
        for (i, (a, _)) in tiers.iter().enumerate() {
            if tiers.iter().skip(i + 1).any(|(b, _)| b.name == a.name) {
                return Err(format!("duplicate tier name {:?}", a.name));
            }
        }
        Ok(TieredEngine {
            tiers: tiers
                .into_iter()
                .map(|(spec, model)| TierSlot {
                    spec,
                    model: RwLock::new(model),
                    batches: AtomicU64::new(0),
                    frames: AtomicU64::new(0),
                })
                .collect(),
            current: AtomicUsize::new(0),
        })
    }

    /// Number of tiers.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Tier specs in tier order (densest first).
    pub fn tier_specs(&self) -> Vec<TierSpec> {
        self.tiers.iter().map(|t| t.spec.clone()).collect()
    }

    /// Index of the tier new batches currently execute on.
    pub fn current_tier(&self) -> usize {
        // Acquire pairs with the Release in `set_tier`/`hot_swap` so a
        // reader acting on the published index also sees the tier state
        // written before it.
        self.current.load(Ordering::Acquire)
    }

    /// Sets the serving tier (clamped to the valid range). Batches
    /// already executing finish on their old tier.
    pub fn set_tier(&self, level: usize) {
        self.current
            .store(level.min(self.tiers.len() - 1), Ordering::Release);
    }

    /// `(name, mAP estimate, batches, frames)` served per tier so far.
    pub fn served(&self) -> Vec<(String, f64, u64, u64)> {
        self.tiers
            .iter()
            .map(|t| {
                (
                    t.spec.name.clone(),
                    t.spec.map_estimate,
                    t.batches.load(Ordering::Relaxed),
                    t.frames.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Hot-swaps tier `tier`'s model. The incoming model is prewarmed
    /// for every shape in `prewarm_shapes` *before* it becomes visible,
    /// so the first post-swap batch never compiles on the hot path.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range tier index.
    pub fn swap_model(
        &self,
        tier: usize,
        model: Arc<dyn ServeModel>,
        prewarm_shapes: &[Vec<usize>],
        exec: &ExecConfig,
    ) -> Result<(), String> {
        let slot = self
            .tiers
            .get(tier)
            .ok_or_else(|| format!("tier {tier} out of range (have {})", self.tiers.len()))?;
        for shape in prewarm_shapes {
            model.prewarm(shape, exec);
        }
        let mut guard = slot.model.write().unwrap_or_else(|e| e.into_inner());
        *guard = model;
        Ok(())
    }

    /// The model currently serving tier `tier` (cloned `Arc`).
    pub fn tier_model(&self, tier: usize) -> Option<Arc<dyn ServeModel>> {
        self.tiers
            .get(tier)
            .map(|s| s.model.read().unwrap_or_else(|e| e.into_inner()).clone())
    }
}

impl ServeModel for TieredEngine {
    fn run_batch(&self, batch: &Tensor, exec: &ExecConfig) -> Result<Vec<Tensor>, String> {
        let level = self.current_tier();
        let slot = &self.tiers[level];
        // Clone the Arc out of the lock so a concurrent hot swap never
        // blocks behind a running batch.
        let model = slot.model.read().unwrap_or_else(|e| e.into_inner()).clone();
        let out = model.run_batch(batch, exec)?;
        slot.batches.fetch_add(1, Ordering::Relaxed);
        slot.frames.fetch_add(
            batch.shape().first().copied().unwrap_or(0) as u64,
            Ordering::Relaxed,
        );
        Ok(out)
    }

    fn verify(&self) -> Vec<String> {
        self.tiers
            .iter()
            .flat_map(|t| {
                let model = t.model.read().unwrap_or_else(|e| e.into_inner()).clone();
                model
                    .verify()
                    .into_iter()
                    .map(move |msg| format!("tier {}: {msg}", t.spec.name))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn prewarm(&self, input_shape: &[usize], exec: &ExecConfig) {
        for t in &self.tiers {
            let model = t.model.read().unwrap_or_else(|e| e.into_inner()).clone();
            model.prewarm(input_shape, exec);
        }
    }

    fn peak_activation_bytes(&self) -> Option<u64> {
        self.tiers
            .iter()
            .filter_map(|t| {
                t.model
                    .read()
                    .unwrap_or_else(|e| e.into_inner())
                    .peak_activation_bytes()
            })
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test model answering with a constant so the tier that served a
    /// batch is observable in the output.
    struct Constant(f32);

    impl ServeModel for Constant {
        fn run_batch(&self, batch: &Tensor, _exec: &ExecConfig) -> Result<Vec<Tensor>, String> {
            Ok(vec![Tensor::full(batch.shape(), self.0)])
        }
    }

    fn engine() -> TieredEngine {
        TieredEngine::new(vec![
            (TierSpec::new("dense", 75.0), Arc::new(Constant(0.0)) as _),
            (TierSpec::new("3EP", 74.0), Arc::new(Constant(1.0)) as _),
            (TierSpec::new("2EP", 72.0), Arc::new(Constant(2.0)) as _),
        ])
        .unwrap()
    }

    #[test]
    fn batches_execute_on_the_current_tier() {
        let e = engine();
        let x = Tensor::zeros(&[2, 1, 2, 2]);
        let exec = ExecConfig::with_threads(1);
        assert_eq!(e.run_batch(&x, &exec).unwrap()[0].as_slice()[0], 0.0);
        e.set_tier(2);
        assert_eq!(e.run_batch(&x, &exec).unwrap()[0].as_slice()[0], 2.0);
        let served = e.served();
        assert_eq!(served[0].2, 1); // dense: 1 batch
        assert_eq!(served[2].2, 1); // 2EP: 1 batch
        assert_eq!(served[2].3, 2); // 2EP: 2 frames
        assert_eq!(served[1].2, 0);
    }

    #[test]
    fn set_tier_clamps_to_range() {
        let e = engine();
        e.set_tier(99);
        assert_eq!(e.current_tier(), 2);
    }

    #[test]
    fn hot_swap_replaces_a_tier_model() {
        let e = engine();
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let exec = ExecConfig::with_threads(1);
        e.swap_model(0, Arc::new(Constant(9.0)), &[vec![1, 1, 2, 2]], &exec)
            .unwrap();
        assert_eq!(e.run_batch(&x, &exec).unwrap()[0].as_slice()[0], 9.0);
        assert!(e
            .swap_model(7, Arc::new(Constant(0.0)), &[], &exec)
            .is_err());
    }

    #[test]
    fn rejects_empty_and_duplicate_tiers() {
        assert!(TieredEngine::new(vec![]).is_err());
        assert!(TieredEngine::new(vec![
            (TierSpec::new("a", 1.0), Arc::new(Constant(0.0)) as _),
            (TierSpec::new("a", 2.0), Arc::new(Constant(1.0)) as _),
        ])
        .is_err());
    }
}
