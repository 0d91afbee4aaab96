//! Tiered engine: one replica's dense→3EP→2EP variant stack.
//!
//! A [`TieredEngine`] implements [`ServeModel`] so it drops straight
//! into the existing `rtoss-serve` worker pool. Each micro-batch
//! executes on the variant selected by the replica's degradation
//! controller at that moment (an atomic tier index; the tier models
//! are fixed at construction, so the request path takes no lock).
//! Per-tier served counts feed the fleet's served-tier mix and
//! modelled-mAP reporting.

use rtoss_serve::{ExecConfig, ServeModel};
use rtoss_tensor::Tensor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::tier::TierSpec;

/// One tier's slot: spec, model and served tallies.
struct TierSlot {
    spec: TierSpec,
    model: Arc<dyn ServeModel>,
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
                    model,
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
        // Acquire pairs with the Release in `set_tier` so a reader acting
        // on the published index also sees the tier state written before
        // it.
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
}

impl ServeModel for TieredEngine {
    fn run_batch(&self, batch: &Tensor, exec: &ExecConfig) -> Result<Vec<Tensor>, String> {
        let level = self.current_tier();
        let slot = &self.tiers[level];
        let out = slot.model.run_batch(batch, exec)?;
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
                t.model
                    .verify()
                    .into_iter()
                    .map(move |msg| format!("tier {}: {msg}", t.spec.name))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn prewarm(&self, input_shape: &[usize]) {
        for t in &self.tiers {
            t.model.prewarm(input_shape);
        }
    }

    fn peak_activation_bytes(&self) -> Option<u64> {
        self.tiers
            .iter()
            .filter_map(|t| t.model.peak_activation_bytes())
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
    fn tier_switches_under_concurrent_batches_stay_whole_and_counted() {
        // Two workers run batches while a third thread flips the tier:
        // each batch must come from exactly one tier, and the per-tier
        // tallies must account for every frame run. The rendezvous
        // channel forces the interleaving: a worker cannot finish
        // handing off one batch until the flipper has flipped for its
        // previous one.
        let e = Arc::new(engine());
        let (batch_done, batches) = std::sync::mpsc::sync_channel::<()>(0);
        let flipper = {
            let e = e.clone();
            std::thread::spawn(move || {
                for (i, ()) in batches.iter().enumerate() {
                    e.set_tier((i + 1) % 3);
                }
            })
        };
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (e, batch_done) = (e.clone(), batch_done.clone());
                std::thread::spawn(move || {
                    let exec = ExecConfig::with_threads(1);
                    let mut frames = 0u64;
                    for i in 0..1_000 {
                        let n = 1 + (i + w) % 3;
                        let out = e.run_batch(&Tensor::zeros(&[n, 1, 2, 2]), &exec).unwrap();
                        let values = out[0].as_slice();
                        assert!(
                            [0.0, 1.0, 2.0].contains(&values[0]),
                            "not a tier's output: {}",
                            values[0]
                        );
                        assert!(values.iter().all(|&v| v == values[0]), "mixed tiers");
                        frames += n as u64;
                        batch_done.send(()).unwrap();
                    }
                    frames
                })
            })
            .collect();
        drop(batch_done);
        let frames_run: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
        flipper.join().unwrap();
        let served = e.served();
        assert_eq!(served.iter().map(|t| t.3).sum::<u64>(), frames_run);
        assert_eq!(served.iter().map(|t| t.2).sum::<u64>(), 2_000);
        assert!(
            served.iter().filter(|t| t.2 > 0).count() >= 2,
            "the tier never changed under load: {served:?}"
        );
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
