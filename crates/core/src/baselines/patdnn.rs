//! PATDNN baseline (Niu et al., ASPLOS'20): 4-entry kernel patterns on
//! 3×3 kernels **plus connectivity pruning** (whole-kernel removal).
//!
//! This is the prior-work design point R-TOSS improves on: 1×1 kernels
//! are left dense (PATDNN "focuses on kernels with sizes 3×3 and above",
//! §II.B), and the extra sparsity comes from cutting entire kernels —
//! the step the paper blames for accuracy loss.

use crate::pattern::canonical_set;
use crate::prune3x3::prune_3x3_weights;
use crate::report::{LayerSparsity, PruneReport};
use crate::{PruneError, Pruner};
use rtoss_nn::Graph;
use rtoss_tensor::Tensor;

/// The PATDNN pruner: 4EP pattern pruning + connectivity pruning.
#[derive(Debug, Clone)]
pub struct PatDnn {
    connectivity_ratio: f64,
}

impl PatDnn {
    /// Creates a PATDNN pruner that connectivity-prunes the given
    /// fraction of each 3×3 layer's kernels (lowest L2 first).
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::Config`] if the ratio is outside `[0, 1)`.
    pub fn new(connectivity_ratio: f64) -> Result<Self, PruneError> {
        if !(0.0..1.0).contains(&connectivity_ratio) {
            return Err(PruneError::Config {
                msg: format!("connectivity ratio {connectivity_ratio} outside [0, 1)"),
            });
        }
        Ok(PatDnn { connectivity_ratio })
    }

    /// Fraction of kernels removed by connectivity pruning.
    pub fn connectivity_ratio(&self) -> f64 {
        self.connectivity_ratio
    }
}

impl Default for PatDnn {
    /// PATDNN's typical operating point: 4-entry patterns with ~30% of
    /// kernels removed by connectivity pruning.
    fn default() -> Self {
        PatDnn {
            connectivity_ratio: 0.30,
        }
    }
}

impl Pruner for PatDnn {
    fn name(&self) -> String {
        "PD".to_string()
    }

    fn prune_graph(&self, graph: &mut Graph) -> Result<PruneReport, PruneError> {
        let patterns = canonical_set(4)?;
        let mut report = PruneReport::new(&self.name());
        for id in graph.conv_ids() {
            let name = graph.node(id).name.clone();
            let conv = graph.conv_mut(id).expect("conv id");
            let kernel = conv.kernel_size();
            let param = conv.weight_mut();
            if kernel == 3 {
                let mut w = param.value.clone();
                let out = prune_3x3_weights(&mut w, &patterns)?;
                let mut mask = out.mask;
                // Connectivity pruning: drop the lowest-L2 kernels
                // entirely ("prunes some of the kernels entirely", §II.B).
                let (o, i) = (w.shape()[0], w.shape()[1]);
                let n_kernels = o * i;
                let n_cut = ((n_kernels as f64) * self.connectivity_ratio).floor() as usize;
                if n_cut > 0 {
                    let mut l2: Vec<(usize, f32)> = (0..n_kernels)
                        .map(|ki| {
                            let s: f32 = w.as_slice()[ki * 9..(ki + 1) * 9]
                                .iter()
                                .map(|&v| v * v)
                                .sum();
                            (ki, s)
                        })
                        .collect();
                    l2.sort_by(|a, b| a.1.total_cmp(&b.1));
                    for &(ki, _) in l2.iter().take(n_cut) {
                        for c in 0..9 {
                            w.as_mut_slice()[ki * 9 + c] = 0.0;
                            mask.as_mut_slice()[ki * 9 + c] = 0.0;
                        }
                    }
                }
                param.value = w;
                param.set_mask(mask)?;
            } else if kernel == 1 && self.connectivity_ratio > 0.0 {
                // PATDNN applies connectivity pruning to kernels but has
                // no pattern story for 1×1; we cut the same fraction of
                // 1×1 kernels by magnitude (each 1×1 kernel is a single
                // weight), mirroring its kernel-level rule.
                let w = &param.value;
                let n = w.numel();
                let n_cut = ((n as f64) * self.connectivity_ratio).floor() as usize;
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| w.as_slice()[a].abs().total_cmp(&w.as_slice()[b].abs()));
                let mut mask = Tensor::ones(w.shape());
                for &i in idx.iter().take(n_cut) {
                    mask.as_mut_slice()[i] = 0.0;
                }
                param.set_mask(mask)?;
            }
            report.layers.push(LayerSparsity {
                name,
                kernel,
                total: param.value.numel(),
                zeros: param.value.count_zeros(),
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_tensor::init;

    #[test]
    fn three_by_three_sparsity_combines_pattern_and_connectivity() {
        let mut m = rtoss_models::yolov5s_twin(8, 3, 31).unwrap();
        let r = PatDnn::new(0.3).unwrap().prune_graph(&mut m.graph).unwrap();
        // Pattern alone: 5/9 ≈ 0.556. With 30% kernels cut:
        // sparsity = 0.3 + 0.7 * 5/9 ≈ 0.689.
        let s3 = r.sparsity_for_kernel(3);
        assert!(
            (s3 - (0.3 + 0.7 * 5.0 / 9.0)).abs() < 0.02,
            "3x3 sparsity {s3}"
        );
    }

    #[test]
    fn one_by_one_gets_only_connectivity_sparsity() {
        let mut m = rtoss_models::yolov5s_twin(8, 3, 32).unwrap();
        let r = PatDnn::new(0.3).unwrap().prune_graph(&mut m.graph).unwrap();
        let s1 = r.sparsity_for_kernel(1);
        assert!((s1 - 0.3).abs() < 0.02, "1x1 sparsity {s1}");
        // R-TOSS's point: PD leaves 1×1 far denser than its 3×3.
        assert!(r.sparsity_for_kernel(3) > s1 + 0.2);
    }

    #[test]
    fn zero_connectivity_is_pure_pattern_pruning() {
        let mut m = rtoss_models::yolov5s_twin(4, 2, 33).unwrap();
        let r = PatDnn::new(0.0).unwrap().prune_graph(&mut m.graph).unwrap();
        let s3 = r.sparsity_for_kernel(3);
        assert!((s3 - 5.0 / 9.0).abs() < 1e-6);
        assert_eq!(r.sparsity_for_kernel(1), 0.0);
    }

    #[test]
    fn connectivity_cuts_lowest_l2_kernels() {
        // Hand-built layer: kernel 0 tiny, kernel 1 large.
        let mut g = rtoss_nn::Graph::new();
        let x = g.add_input("x");
        let mut w = init::uniform(&mut init::rng(34), &[2, 1, 3, 3], 0.9, 1.0);
        for c in 0..9 {
            w.as_mut_slice()[c] = 0.01;
        }
        let conv = rtoss_nn::layers::Conv2d::from_weight(w, 1, 1);
        let c1 = g.add_layer("c1", Box::new(conv), x).unwrap();
        g.set_outputs(vec![c1]).unwrap();
        PatDnn::new(0.5).unwrap().prune_graph(&mut g).unwrap();
        let w = &g.conv(c1).unwrap().weight().value;
        assert!(
            w.as_slice()[..9].iter().all(|&v| v == 0.0),
            "small kernel cut"
        );
        assert!(
            w.as_slice()[9..].iter().any(|&v| v != 0.0),
            "large kernel kept"
        );
    }

    #[test]
    fn rejects_bad_ratio() {
        assert!(PatDnn::new(1.0).is_err());
        assert!(PatDnn::new(-0.2).is_err());
    }
}
