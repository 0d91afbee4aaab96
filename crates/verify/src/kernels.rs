//! Pack checks: reconstruction and pack-vs-oracle bit-identity
//! (RV090/RV092).
//!
//! Every conv runs through one tiled driver over one
//! [`rtoss_sparse::Pack`], the only copy of the layer's weights;
//! `PatternCompressedConv` and `UnstructuredSparseConv` are typed views
//! of one. Two things can silently go wrong on the way from the pruned
//! graph to an output:
//!
//! - **RV090 — pack reconstruction.** If building the pack drops,
//!   duplicates, or misplaces a tap, the driver computes a wrong
//!   convolution while the pack still validates structurally.
//!   [`check_pack`] reconstructs a dense weight tensor from the pack
//!   alone and requires it bitwise equal to the source it was built
//!   from — for an engine, the graph's masked conv weight.
//! - **RV092 — pack-vs-oracle bit-identity.** The driver and the scalar
//!   reference share one canonical accumulation order (bias first, then
//!   taps in ascending `(ic, ky, kx)`), so a layer's pattern pack and
//!   its COO pack through the driver must each reproduce the scalar
//!   reference **bit-for-bit**. Closeness is not the contract:
//!   serving-layer dedup compares outputs exactly. (Plan ≡ interpreter
//!   at every width is RV05x.)
//!
//! The `kernel-pack` / `kernel-equiv` fixtures prove each check can
//! fire.

use crate::diag::{Diagnostic, Report};
use rtoss_nn::{Graph, NodeOp};
use rtoss_sparse::exec::{conv2d_packed_into, conv2d_pattern_scalar_into_with};
use rtoss_sparse::{coo_from_pattern, Pack, PatternCompressedConv, SparseModel};
use rtoss_tensor::exec::Epilogue;
use rtoss_tensor::Tensor;

/// Checks pack reconstruction (RV090): `pack` (the `kind` view of some
/// layer) must rebuild exactly `direct`, the dense weight tensor it was
/// compiled from.
pub fn check_pack(location: &str, kind: &str, pack: &Pack, direct: &Tensor) -> Vec<Diagnostic> {
    let packed = pack.to_dense();
    let mut out = Vec::new();
    if packed.shape() != direct.shape() {
        out.push(Diagnostic::error(
            "RV090",
            location,
            format!(
                "{kind} pack reconstructs shape {:?} but its source weight is {:?}",
                packed.shape(),
                direct.shape()
            ),
        ));
        return out;
    }
    let diffs = packed
        .as_slice()
        .iter()
        .zip(direct.as_slice())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    if diffs > 0 {
        let first = packed
            .as_slice()
            .iter()
            .zip(direct.as_slice())
            .position(|(a, b)| a.to_bits() != b.to_bits())
            .unwrap_or(0);
        out.push(Diagnostic::error(
            "RV090",
            location,
            format!(
                "{kind} pack does not reconstruct its source weight: {diffs} of {} \
                 elements differ (first at flat index {first}) — the driver reading \
                 it computes a wrong convolution",
                direct.as_slice().len()
            ),
        ));
    }
    out
}

/// Checks pack-vs-oracle bit-identity (RV092): runs each of `packs`
/// through the tiled driver on a deterministic probe of `x_shape` and
/// requires it bitwise equal to the scalar reference executor on
/// `layer`.
pub fn check_packs_match_scalar(
    location: &str,
    layer: &PatternCompressedConv,
    packs: &[(&str, &Pack)],
    x_shape: &[usize],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let x: Vec<f32> = (0..x_shape.iter().product::<usize>())
        .map(|i| ((i % 23) as f32) * 0.125 - 1.375)
        .collect();
    let bias = vec![0.25f32; layer.out_channels()];
    let out_len = match rtoss_sparse::exec::conv_output_shape(
        x_shape,
        layer.in_channels(),
        layer.out_channels(),
        layer.kernel_size(),
        layer.stride(),
        layer.padding(),
        "rv092",
    ) {
        Ok(s) => s.iter().product::<usize>(),
        Err(e) => {
            out.push(Diagnostic::error(
                "RV092",
                location,
                format!("layer does not accept input shape {x_shape:?}: {e}"),
            ));
            return out;
        }
    };
    let mut reference = vec![0.0f32; out_len];
    if let Err(e) = conv2d_pattern_scalar_into_with(
        &x,
        x_shape,
        layer,
        Some(&bias),
        &Epilogue::NONE,
        &mut reference,
    ) {
        out.push(Diagnostic::error(
            "RV092",
            location,
            format!("scalar reference executor failed: {e}"),
        ));
        return out;
    }
    let mut got = vec![0.0f32; out_len];
    for &(label, pack) in packs {
        match conv2d_packed_into(&x, x_shape, pack, Some(&bias), &Epilogue::NONE, &mut got) {
            Ok(_) => {
                let diffs = got
                    .iter()
                    .zip(&reference)
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count();
                if diffs > 0 {
                    out.push(Diagnostic::error(
                        "RV092",
                        location,
                        format!(
                            "{label} pack through the tiled driver differs from the scalar \
                             reference in {diffs} of {out_len} elements on input {x_shape:?} \
                             — both must follow the canonical accumulation order"
                        ),
                    ));
                }
            }
            Err(e) => out.push(Diagnostic::error(
                "RV092",
                location,
                format!("{label} pack: tiled driver failed: {e}"),
            )),
        }
    }
    out
}

/// Runs RV090 and RV092 over every conv layer of an engine, on both
/// views: the layer's own pattern pack and the COO pack of its derived
/// unstructured twin. RV090 compares each against the masked conv
/// weight of `graph`, the graph the engine was compiled from; the RV092
/// probe is a 10×10 plane (ragged in both tile axes) with the layer's
/// input channels.
pub fn check_model_kernels(model: &SparseModel, graph: &Graph) -> Report {
    let mut report = Report::new();
    for (node, layer) in model.conv_layers() {
        let loc = format!("node {node}");
        let coo = coo_from_pattern(layer);
        let source = graph.nodes().get(node).and_then(|n| match &n.op {
            NodeOp::Layer(l) => l.as_conv2d(),
            _ => None,
        });
        match source {
            Some(conv) => {
                let w = &conv.weight().value;
                report.extend(check_pack(&loc, "pattern", layer.pack(), w));
                report.extend(check_pack(&loc, "coo", coo.pack(), w));
            }
            None => report.push(Diagnostic::error(
                "RV090",
                loc.as_str(),
                "the graph has no conv at this engine conv node: not the graph the \
                 engine was compiled from",
            )),
        }
        report.extend(check_packs_match_scalar(
            &loc,
            layer,
            &[("pattern", layer.pack()), ("coo", coo.pack())],
            &[1, layer.in_channels(), 10, 10],
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::{EntryPattern, Pruner, RTossPruner};

    fn engine() -> (SparseModel, Graph) {
        let mut m = rtoss_models::yolov5s_twin(4, 2, 0x90).expect("twin builds");
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .expect("prunes");
        (SparseModel::compile(&m.graph).expect("compiles"), m.graph)
    }

    #[test]
    fn clean_engine_passes_all_kernel_checks() {
        let (engine, graph) = engine();
        let report = check_model_kernels(&engine, &graph);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn a_graph_edited_after_compile_fires_rv090_on_both_views() {
        let (engine, mut graph) = engine();
        let (node, _) = engine.conv_layers()[0];
        let w = &mut graph.conv_mut(node).expect("conv").weight_mut().value;
        let kept = w
            .as_slice()
            .iter()
            .position(|&v| v != 0.0)
            .expect("a kept weight");
        w.as_mut_slice()[kept] += 1.0;
        let report = check_model_kernels(&engine, &graph);
        let fired = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "RV090")
            .count();
        assert_eq!(fired, 2, "{}", report.render());
    }

    #[test]
    fn corrupted_pack_fires_rv090_and_rv092_on_either_view() {
        let (engine, _) = engine();
        let (_, layer) = engine.conv_layers()[0];
        let coo = coo_from_pattern(layer);
        for (kind, pack) in [("pattern", layer.pack()), ("coo", coo.pack())] {
            let mut bad = pack.clone();
            bad.values_mut()[0] += 1.0;
            let diags = check_pack("corrupt", kind, &bad, &layer.to_dense());
            assert!(diags.iter().any(|d| d.code == "RV090"), "{kind}: {diags:?}");
            let shape = [1, layer.in_channels(), 10, 10];
            let diags = check_packs_match_scalar("corrupt", layer, &[(kind, &bad)], &shape);
            assert!(diags.iter().any(|d| d.code == "RV092"), "{kind}: {diags:?}");
        }
    }
}
