//! The R-TOSS pruner: orchestrates Algorithms 1–3 over a model graph.

use crate::dfs::group_layers;
use crate::pattern::{canonical_set, default_budget, select_patterns, PatternSet};
use crate::prune1x1::prune_1x1_weights;
use crate::prune3x3::prune_3x3_weights;
use crate::report::{LayerSparsity, PruneReport};
use crate::PruneError;
use rtoss_nn::{Graph, NodeId};

/// The entry-pattern variant: how many non-zero weights each kernel
/// pattern keeps. The paper proposes [`Two`](EntryPattern::Two) and
/// [`Three`](EntryPattern::Three); [`Four`](EntryPattern::Four) and
/// [`Five`](EntryPattern::Five) exist for the Table 3 sensitivity
/// analysis (and Four matches prior work PATDNN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryPattern {
    /// 2 non-zero weights per kernel (R-TOSS-2EP).
    Two,
    /// 3 non-zero weights per kernel (R-TOSS-3EP).
    Three,
    /// 4 non-zero weights per kernel (sensitivity variant / PATDNN).
    Four,
    /// 5 non-zero weights per kernel (sensitivity variant).
    Five,
}

impl EntryPattern {
    /// The numeric entry count `k`.
    pub fn k(self) -> usize {
        match self {
            EntryPattern::Two => 2,
            EntryPattern::Three => 3,
            EntryPattern::Four => 4,
            EntryPattern::Five => 5,
        }
    }

    /// All variants, in Table 3 order (5EP → 2EP).
    pub fn all() -> [EntryPattern; 4] {
        [
            EntryPattern::Five,
            EntryPattern::Four,
            EntryPattern::Three,
            EntryPattern::Two,
        ]
    }

    /// Display label matching the paper ("2EP", "3EP", ...).
    pub fn label(self) -> &'static str {
        match self {
            EntryPattern::Two => "2EP",
            EntryPattern::Three => "3EP",
            EntryPattern::Four => "4EP",
            EntryPattern::Five => "5EP",
        }
    }
}

impl std::fmt::Display for EntryPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A pruning method that can be applied to a model graph.
///
/// Implemented by [`RTossPruner`] and every baseline in
/// [`baselines`](crate::baselines); the Fig. 4–7 harnesses iterate over
/// `Box<dyn Pruner>`.
pub trait Pruner {
    /// The method name as printed in the paper's figures.
    fn name(&self) -> String;

    /// Prunes the graph's convolution weights in place (installing
    /// parameter masks) and reports per-layer sparsity.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError`] if the configuration is invalid or a
    /// weight tensor has an unexpected shape.
    fn prune_graph(&self, graph: &mut Graph) -> Result<PruneReport, PruneError>;
}

/// Configuration of the R-TOSS framework.
#[derive(Debug, Clone, PartialEq)]
pub struct RTossConfig {
    /// Entry-pattern variant.
    pub entry: EntryPattern,
    /// Apply the 1×1 transformation (Algorithm 3). Disabling it
    /// reproduces the prior-work behaviour the paper improves on.
    pub prune_1x1: bool,
    /// Use DFS layer grouping (Algorithm 1) to share pattern subsets
    /// from parents to children. Disabling it makes every layer select
    /// from the full pattern set independently (ablation).
    pub use_groups: bool,
    /// Pattern-selection budget override (`None` = paper defaults:
    /// 12 for 2EP, 9 for 3EP, 8 otherwise).
    pub pattern_budget: Option<usize>,
    /// Seed for the pattern-selection sampling.
    pub seed: u64,
    /// Node-name prefixes to leave dense (e.g. `"detect"` to protect
    /// head layers, guided by
    /// [`sensitivity`](crate::sensitivity) analysis).
    pub protected: Vec<String>,
}

impl RTossConfig {
    /// Paper-default configuration for an entry-pattern variant.
    pub fn new(entry: EntryPattern) -> Self {
        RTossConfig {
            entry,
            prune_1x1: true,
            use_groups: true,
            pattern_budget: None,
            seed: 0x5EED,
            protected: Vec::new(),
        }
    }
}

/// The R-TOSS pruning framework (Fig. 2 of the paper).
///
/// # Example
///
/// ```
/// use rtoss_core::{EntryPattern, RTossPruner, Pruner};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut model = rtoss_models::yolov5s_twin(8, 3, 1)?;
/// let report = RTossPruner::new(EntryPattern::Three).prune_graph(&mut model.graph)?;
/// assert!(report.overall_sparsity() > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RTossPruner {
    config: RTossConfig,
}

impl RTossPruner {
    /// Creates a pruner with the paper-default configuration for the
    /// given entry-pattern variant.
    pub fn new(entry: EntryPattern) -> Self {
        RTossPruner {
            config: RTossConfig::new(entry),
        }
    }

    /// Creates a pruner from an explicit configuration.
    pub fn with_config(config: RTossConfig) -> Self {
        RTossPruner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RTossConfig {
        &self.config
    }

    fn pattern_set(&self) -> Result<PatternSet, PruneError> {
        let k = self.config.entry.k();
        match self.config.pattern_budget {
            Some(budget) => select_patterns(k, budget, 20_000, self.config.seed),
            None => {
                if self.config.seed == 0x5EED {
                    canonical_set(k)
                } else {
                    select_patterns(k, default_budget(k), 20_000, self.config.seed)
                }
            }
        }
    }

    /// Prunes a single conv node with the appropriate algorithm,
    /// returning the pattern-index subset it used (3×3 layers only).
    fn prune_node(
        &self,
        graph: &mut Graph,
        id: NodeId,
        patterns: &PatternSet,
    ) -> Result<Option<Vec<usize>>, PruneError> {
        let name = graph.node(id).name.clone();
        if self.config.protected.iter().any(|p| name.starts_with(p)) {
            return Ok(None);
        }
        let conv = graph.conv_mut(id).expect("conv id");
        let kernel = conv.kernel_size();
        let param = conv.weight_mut();
        match kernel {
            3 => {
                let out = prune_3x3_weights(&mut param.value, patterns)?;
                let used = out.used_patterns();
                param.set_mask(out.mask)?;
                Ok(Some(used))
            }
            1 if self.config.prune_1x1 => {
                let out = prune_1x1_weights(&mut param.value, patterns)?;
                let used = out.used_patterns();
                param.set_mask(out.mask)?;
                // Layers too small to fill one 3×3 pool have no pattern
                // choices to share.
                Ok(if used.is_empty() { None } else { Some(used) })
            }
            // Other kernel sizes (stems: 6×6, 7×7; or 1×1 with the
            // transformation disabled) are left dense, as in the paper.
            _ => Ok(None),
        }
    }
}

impl Pruner for RTossPruner {
    fn name(&self) -> String {
        format!("R-TOSS ({})", self.config.entry.label())
    }

    fn prune_graph(&self, graph: &mut Graph) -> Result<PruneReport, PruneError> {
        let patterns = self.pattern_set()?;
        let mut report = PruneReport::new(&self.name());

        if self.config.use_groups {
            let groups = group_layers(graph);
            report.group_count = groups.len();
            for group in groups.groups() {
                // Parent selects from the full set; children share the
                // parent's used-pattern subset (§IV.C: kernels in a group
                // "share the same kernel patterns").
                let used = self.prune_node(graph, group.parent, &patterns)?;
                let child_set = match used {
                    Some(idx) if !idx.is_empty() => patterns.subset(&idx)?,
                    _ => patterns.clone(),
                };
                for &child in &group.children {
                    self.prune_node(graph, child, &child_set)?;
                }
            }
        } else {
            for id in graph.conv_ids() {
                self.prune_node(graph, id, &patterns)?;
            }
        }

        for id in graph.conv_ids() {
            let node_name = graph.node(id).name.clone();
            let conv = graph.conv(id).expect("conv id");
            let w = &conv.weight().value;
            report.layers.push(LayerSparsity {
                name: node_name,
                kernel: conv.kernel_size(),
                total: w.numel(),
                zeros: w.count_zeros(),
            });
        }
        Ok(report)
    }
}

/// Builds a [`PruneReport`] snapshot from a graph's current weights
/// without pruning anything (used for the unpruned Base Model rows).
pub fn snapshot_report(graph: &Graph, method: &str) -> PruneReport {
    let mut report = PruneReport::new(method);
    for id in graph.conv_ids() {
        let conv = graph.conv(id).expect("conv id");
        let w = &conv.weight().value;
        report.layers.push(LayerSparsity {
            name: graph.node(id).name.clone(),
            kernel: conv.kernel_size(),
            total: w.numel(),
            zeros: w.count_zeros(),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_models::yolov5s_twin;

    #[test]
    fn two_ep_prunes_harder_than_five_ep() {
        let mut ratios = Vec::new();
        for entry in EntryPattern::all() {
            let mut m = yolov5s_twin(8, 3, 9).unwrap();
            let r = RTossPruner::new(entry).prune_graph(&mut m.graph).unwrap();
            ratios.push(r.compression_ratio());
        }
        // Table 3 ordering: 5EP < 4EP < 3EP < 2EP.
        for w in ratios.windows(2) {
            assert!(w[1] > w[0], "ratios not increasing: {ratios:?}");
        }
    }

    #[test]
    fn sparsity_close_to_k_over_nine() {
        let mut m = yolov5s_twin(8, 3, 10).unwrap();
        let r = RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .unwrap();
        // 3×3 layers land exactly at 7/9; 1×1 layers slightly above
        // (tail pruning); whole model must be within a few points.
        let s3 = r.sparsity_for_kernel(3);
        assert!((s3 - 7.0 / 9.0).abs() < 1e-6, "3x3 sparsity {s3}");
        let s1 = r.sparsity_for_kernel(1);
        assert!(s1 >= 7.0 / 9.0 - 1e-6, "1x1 sparsity {s1}");
        assert!(r.overall_sparsity() > 0.7);
    }

    #[test]
    fn disabling_1x1_transformation_lowers_sparsity() {
        let run = |prune_1x1| {
            let mut m = yolov5s_twin(8, 3, 11).unwrap();
            let cfg = RTossConfig {
                prune_1x1,
                ..RTossConfig::new(EntryPattern::Two)
            };
            RTossPruner::with_config(cfg)
                .prune_graph(&mut m.graph)
                .unwrap()
                .overall_sparsity()
        };
        let with = run(true);
        let without = run(false);
        assert!(with > without + 0.2, "with {with} vs without {without}");
    }

    #[test]
    fn masks_are_installed() {
        let mut m = yolov5s_twin(4, 2, 12).unwrap();
        RTossPruner::new(EntryPattern::Three)
            .prune_graph(&mut m.graph)
            .unwrap();
        let mut masked = 0;
        for id in m.graph.conv_ids() {
            let conv = m.graph.conv(id).unwrap();
            if conv.weight().mask().is_some() {
                masked += 1;
                assert!(matches!(conv.kernel_size(), 1 | 3));
            }
        }
        assert!(masked > 10, "only {masked} layers masked");
    }

    #[test]
    fn one_by_one_groups_share_parent_subsets() {
        // A chain of 1×1 convs forms one group; children must be pruned
        // with the parent's used-pattern subset. Observable effect: the
        // pass still succeeds and sparsity matches the entry count.
        let mut g = rtoss_nn::Graph::new();
        let x = g.add_input("x");
        let p1 = g
            .add_layer(
                "p1",
                Box::new(rtoss_nn::layers::Conv2d::new(9, 18, 1, 1, 0, 1)),
                x,
            )
            .unwrap();
        let p2 = g
            .add_layer(
                "p2",
                Box::new(rtoss_nn::layers::Conv2d::new(18, 9, 1, 1, 0, 2)),
                p1,
            )
            .unwrap();
        g.set_outputs(vec![p2]).unwrap();
        let r = RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut g)
            .unwrap();
        assert_eq!(r.group_count, 1);
        assert!((r.overall_sparsity() - 7.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn grouping_reports_groups_and_preserves_sparsity() {
        let run = |use_groups| {
            let mut m = yolov5s_twin(8, 3, 13).unwrap();
            let cfg = RTossConfig {
                use_groups,
                ..RTossConfig::new(EntryPattern::Three)
            };
            RTossPruner::with_config(cfg)
                .prune_graph(&mut m.graph)
                .unwrap()
        };
        let grouped = run(true);
        let flat = run(false);
        assert!(grouped.group_count > 0);
        assert_eq!(flat.group_count, 0);
        // Same entry count → identical sparsity either way.
        assert!((grouped.overall_sparsity() - flat.overall_sparsity()).abs() < 1e-9);
    }

    #[test]
    fn snapshot_report_on_dense_model() {
        let m = yolov5s_twin(4, 2, 14).unwrap();
        let r = snapshot_report(&m.graph, "BM");
        assert_eq!(r.method, "BM");
        assert!(r.overall_sparsity() < 0.01);
        assert!((r.compression_ratio() - 1.0).abs() < 0.02);
    }

    #[test]
    fn entry_pattern_metadata() {
        assert_eq!(EntryPattern::Two.k(), 2);
        assert_eq!(EntryPattern::Five.label(), "5EP");
        assert_eq!(EntryPattern::all().len(), 4);
        assert_eq!(format!("{}", EntryPattern::Three), "3EP");
    }
}
