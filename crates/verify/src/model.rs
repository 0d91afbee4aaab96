//! Model/IR checks: pattern-mask legality, DFS-group consistency,
//! 1×1 round-trip residue, and whole-graph shape inference.
//!
//! These passes prove that a pruned [`Graph`] actually satisfies the
//! invariants the paper's three algorithms promise:
//!
//! - **Algorithm 2** (3×3 pattern pruning): every kernel's surviving
//!   mask is a legal pattern — 2 to 5 entries ([`RV001`]), 4-adjacent
//!   connected ([`RV002`]) — and entry counts are uniform per layer.
//! - **Algorithm 1** (DFS grouping): the layer groups partition the
//!   conv layers exactly ([`RV003`]) and every child's pattern set is a
//!   subset of its parent's ([`RV004`]).
//! - **Algorithm 3** (1×1 transform): the flattened 1×1 weight's tail
//!   (`numel % 9` trailing weights) is pruned to zero ([`RV005`]), and
//!   the full 9-chunks obey the 3×3 pattern rules.
//! - Shape inference over the whole graph succeeds ([`RV006`]), so
//!   every executor sees consistent activation shapes.
//! - Masks and weights agree: the mask has the weight's shape and no
//!   weight survives where its mask is zero ([`RV007`]).
//!
//! [`RV001`]: crate#registry
//! [`RV002`]: crate#registry
//! [`RV003`]: crate#registry
//! [`RV004`]: crate#registry
//! [`RV005`]: crate#registry
//! [`RV006`]: crate#registry
//! [`RV007`]: crate#registry

use crate::diag::{Diagnostic, Report};
use rtoss_core::dfs::group_layers;
use rtoss_core::pattern::Pattern;
use rtoss_nn::layers::Conv2d;
use rtoss_nn::{Graph, NodeId};
use rtoss_sparse::FindingCap;
use std::collections::{BTreeMap, BTreeSet};

/// Legal pattern entry counts: EntryPattern::{Two..Five}.
const MIN_ENTRIES: u32 = 2;
const MAX_ENTRIES: u32 = 5;

/// Converts one 9-element mask chunk to a `Pattern` bitmask
/// (bit `3*row + col`, matching `rtoss_core::pattern`).
pub(crate) fn chunk_bits(chunk: &[f32]) -> u16 {
    let mut bits = 0u16;
    for (i, &m) in chunk.iter().enumerate() {
        bits |= u16::from(m != 0.0) << i;
    }
    bits
}

/// The RV001/RV002 verdict on one 9-bit mask.
#[derive(Clone, Copy, PartialEq)]
enum Legality {
    /// 2..=5 entries, 4-adjacent connected.
    Legal,
    /// Entry count outside 2..=5 (RV001).
    BadCount,
    /// Legal count but not one connected component (RV002).
    Disconnected,
}

/// The verdict on every one of the 512 masks, so the per-chunk walk is
/// a table lookup.
fn legality_table() -> [Legality; 512] {
    let mut table = [Legality::BadCount; 512];
    for (bits, verdict) in table.iter_mut().enumerate() {
        let p = Pattern::from_bits(bits as u16).expect("bits < 512");
        if (MIN_ENTRIES..=MAX_ENTRIES).contains(&(p.weight_count() as u32)) {
            *verdict = if p.is_connected() {
                Legality::Legal
            } else {
                Legality::Disconnected
            };
        }
    }
    table
}

/// A set of 9-bit pattern masks as a 512-bit table.
#[derive(Clone, Copy, Default)]
struct MaskSet([u64; 8]);

impl MaskSet {
    fn insert(&mut self, bits: u16) {
        self.0[usize::from(bits) / 64] |= 1 << (bits % 64);
    }

    fn contains(&self, bits: u16) -> bool {
        self.0[usize::from(bits) / 64] & (1 << (bits % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.0 == [0; 8]
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        (0..512).filter(|&bits| self.contains(bits))
    }
}

/// One conv layer's findings: located, capped per code (a desynced
/// 7 M-weight model would otherwise format one string per weight), and
/// formatted only when kept.
struct LayerFindings<'a> {
    report: &'a mut Report,
    loc: String,
    cap: FindingCap,
}

impl LayerFindings<'_> {
    fn push(&mut self, code: &'static str, message: impl FnOnce() -> String) {
        if self.cap.admit(code) {
            self.report
                .push(Diagnostic::error(code, self.loc.clone(), message()));
        }
    }

    fn finish(self) {
        for (code, message) in self.cap.withheld() {
            self.report
                .push(Diagnostic::error(code, self.loc.clone(), message));
        }
    }
}

/// Checks one conv node in a single pass over its mask and weights:
/// mask/weight agreement (RV007), per-chunk pattern legality
/// (RV001/RV002) and the 1×1 tail (RV005). Returns the distinct pattern
/// masks the layer uses — kernels for 3×3 layers, Algorithm 3 chunks
/// for 1×1 layers — or `None` for unmasked, other-kernel or
/// mis-shaped layers.
fn check_conv_masks(
    name: &str,
    conv: &Conv2d,
    legality: &[Legality; 512],
    report: &mut Report,
) -> Option<MaskSet> {
    let param = conv.weight();
    // Dense layers (protected, stem, non-prunable kernel) have no mask.
    let mask = param.mask()?;
    let mut out = LayerFindings {
        report,
        loc: format!("conv {name}"),
        cap: FindingCap::default(),
    };
    if mask.shape() != param.value.shape() {
        out.push("RV007", || {
            format!(
                "mask shape {:?} does not match weight shape {:?}",
                mask.shape(),
                param.value.shape()
            )
        });
        return None; // chunk-level checks would misalign
    }
    let w = param.value.as_slice();
    let m = mask.as_slice();
    let desync = |out: &mut LayerFindings, at: usize| {
        if m[at] == 0.0 && w[at] != 0.0 {
            out.push("RV007", || {
                format!(
                    "weight {at} is {} but its mask entry is 0 (mask/weight desync)",
                    w[at]
                )
            });
        }
    };
    // 3×3: every kernel is a chunk. 1×1 (Algorithm 3): full 9-chunks
    // behave like 3×3 kernels; the tail must be pruned away. Other
    // kernel sizes have no pattern rules.
    let (unit, full) = match conv.kernel_size() {
        3 => ("kernel", m.len()),
        1 => ("chunk", m.len() / 9 * 9),
        _ => ("", 0),
    };
    let mut used = MaskSet::default();
    let mut counts = 0u16; // bit `n` set: some chunk keeps `n` weights
    let chunks = m[..full].chunks_exact(9).zip(w[..full].chunks_exact(9));
    for (idx, (chunk, weights)) in chunks.enumerate() {
        let stray = |(&mv, &wv): (&f32, &f32)| mv == 0.0 && wv != 0.0;
        if chunk.iter().zip(weights).any(stray) {
            for at in idx * 9..idx * 9 + 9 {
                desync(&mut out, at);
            }
        }
        let bits = chunk_bits(chunk);
        used.insert(bits);
        let entries = bits.count_ones();
        match legality[usize::from(bits)] {
            Legality::Legal => counts |= 1 << entries,
            Legality::BadCount => out.push("RV001", || {
                format!(
                    "{unit} {idx} keeps {entries} weights; patterns must keep \
                     {MIN_ENTRIES}..={MAX_ENTRIES}"
                )
            }),
            Legality::Disconnected => {
                counts |= 1 << entries;
                out.push("RV002", || {
                    format!("{unit} {idx} pattern {bits:#011b} is not 4-adjacent connected")
                });
            }
        }
    }
    if counts.count_ones() > 1 {
        let counts: BTreeSet<u32> = (0..16).filter(|n| counts & (1 << n) != 0).collect();
        out.push("RV001", || {
            format!(
                "mixed entry counts {counts:?} in one layer; a pattern set has a \
                 single entry count"
            )
        });
    }
    // Past the chunks: the Algorithm 3 tail of a 1×1 layer, or all of
    // a layer with no pattern rules.
    let is_tail = conv.kernel_size() == 1;
    for at in full..m.len() {
        desync(&mut out, at);
        if is_tail && (m[at] != 0.0 || w[at] != 0.0) {
            out.push("RV005", || {
                format!(
                    "1x1 tail weight {at} (mask {}, value {}) survives; \
                     Algorithm 3 prunes the {} trailing weights past the last \
                     full 9-chunk",
                    m[at],
                    w[at],
                    m.len() - full
                )
            });
        }
    }
    out.finish();
    matches!(conv.kernel_size(), 1 | 3).then_some(used)
}

/// Checks Algorithm 1's output: groups partition the convs (RV003) and
/// children use a subset of the parent's patterns (RV004). `patterns`
/// holds each masked 1×1/3×3 conv's pattern set, as
/// [`check_conv_masks`] read it.
fn check_groups(graph: &Graph, patterns: &BTreeMap<NodeId, MaskSet>, report: &mut Report) {
    let groups = group_layers(graph);
    let convs: BTreeSet<NodeId> = graph.conv_ids().into_iter().collect();
    let mut covered: BTreeSet<NodeId> = BTreeSet::new();
    for (gi, group) in groups.groups().iter().enumerate() {
        for id in group.members() {
            if !convs.contains(&id) {
                report.push(Diagnostic::error(
                    "RV003",
                    format!("group {gi}"),
                    format!("member node {id} is not a convolution"),
                ));
            }
            if !covered.insert(id) {
                report.push(Diagnostic::error(
                    "RV003",
                    format!("group {gi}"),
                    format!("node {id} appears in more than one group"),
                ));
            }
        }
    }
    for &id in convs.difference(&covered) {
        report.push(Diagnostic::error(
            "RV003",
            format!("node {id} ({})", graph.node(id).name),
            "prunable conv belongs to no layer group".to_string(),
        ));
    }

    for (gi, group) in groups.groups().iter().enumerate() {
        // A non-conv parent was already reported as RV003; a dense
        // parent's children select from the full set.
        let Some(parent_bits) = patterns.get(&group.parent) else {
            continue;
        };
        if parent_bits.is_empty() {
            // A 1×1 parent smaller than one 9-chunk has no pattern
            // choices to share; children fall back to the full set.
            continue;
        }
        for &child in &group.children {
            let Some(child_bits) = patterns.get(&child) else {
                continue;
            };
            for bits in child_bits.iter().filter(|&b| !parent_bits.contains(b)) {
                report.push(Diagnostic::error(
                    "RV004",
                    format!(
                        "group {gi}, child node {child} ({})",
                        graph.node(child).name
                    ),
                    format!(
                        "child uses pattern {bits:#011b} that its parent node {} never \
                         selected; Algorithm 1 children share the parent's patterns",
                        group.parent
                    ),
                ));
            }
        }
    }
}

/// Runs every model/IR pass over a pruned graph.
///
/// `input_shape` is the NCHW shape the model serves (e.g.
/// `[1, 3, 64, 64]` for the scaled twins); shape inference walks the
/// whole graph from it and any arity/shape conflict is RV006.
pub fn check_model(graph: &Graph, input_shape: &[usize]) -> Report {
    let mut report = Report::new();
    if let Err(e) = graph.infer_shapes(input_shape) {
        report.push(Diagnostic::error(
            "RV006",
            format!("graph (input {input_shape:?})"),
            format!("shape inference failed: {e}"),
        ));
    }
    let legality = legality_table();
    let mut patterns = BTreeMap::new();
    for id in graph.conv_ids() {
        if let Some(conv) = graph.conv(id) {
            let used = check_conv_masks(&graph.node(id).name, conv, &legality, &mut report);
            if let Some(used) = used {
                patterns.insert(id, used);
            }
        }
    }
    check_groups(graph, &patterns, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::{EntryPattern, Pruner, RTossPruner};

    #[test]
    fn clean_pruned_twin_has_no_findings() {
        let mut m = rtoss_models::yolov5s_twin(8, 2, 7).unwrap();
        RTossPruner::new(EntryPattern::Three)
            .prune_graph(&mut m.graph)
            .unwrap();
        let report = check_model(&m.graph, &[1, 3, 64, 64]);
        assert!(
            !report.has_errors(),
            "expected clean report, got:\n{}",
            report.render()
        );
    }

    #[test]
    fn desynced_weight_is_rv007() {
        let mut m = rtoss_models::yolov5s_twin(4, 2, 9).unwrap();
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .unwrap();
        // Resurrect one pruned weight without touching its mask.
        let id = *m
            .graph
            .conv_ids()
            .iter()
            .find(|&&id| {
                m.graph
                    .conv(id)
                    .is_some_and(|c| c.kernel_size() == 3 && c.weight().mask().is_some())
            })
            .unwrap();
        let conv = m.graph.conv_mut(id).unwrap();
        let zero_at = conv
            .weight()
            .mask()
            .unwrap()
            .as_slice()
            .iter()
            .position(|&v| v == 0.0)
            .unwrap();
        conv.weight_mut().value.as_mut_slice()[zero_at] = 0.5;
        let report = check_model(&m.graph, &[1, 3, 64, 64]);
        assert!(report.has_code("RV007"), "{}", report.render());
    }

    #[test]
    fn a_fully_desynced_layer_reports_a_screenful_not_a_string_per_weight() {
        let mut m = rtoss_models::yolov5s_twin(4, 2, 9).unwrap();
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .unwrap();
        // Resurrect every pruned weight of every masked layer and blank
        // every mask: RV007 per weight, RV001 (0 entries) per chunk.
        let mut layers = 0;
        for id in m.graph.conv_ids() {
            let param = m.graph.conv_mut(id).unwrap().weight_mut();
            let Some(mask) = param.mask() else { continue };
            let blank = rtoss_tensor::Tensor::zeros(mask.shape());
            param.set_mask(blank).unwrap();
            param.value.fill(0.5);
            layers += 1;
        }
        let report = check_model(&m.graph, &[1, 3, 64, 64]);
        assert!(report.has_code("RV007") && report.has_code("RV001"));
        for code in ["RV007", "RV001", "RV005"] {
            let n = report.diagnostics.iter().filter(|d| d.code == code).count();
            assert!(
                n <= layers * (FindingCap::LIMIT + 2),
                "{n} {code} findings over {layers} layers"
            );
        }
        let more = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "RV007" && d.message.contains("more RV007"))
            .count();
        assert!(more > 0, "{}", report.render());
    }

    #[test]
    fn bad_input_shape_is_rv006() {
        let mut m = rtoss_models::yolov5s_twin(4, 2, 9).unwrap();
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .unwrap();
        let report = check_model(&m.graph, &[1, 4, 64, 64]);
        assert!(report.has_code("RV006"), "{}", report.render());
    }
}
