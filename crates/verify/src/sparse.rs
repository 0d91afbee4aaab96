//! Sparse-format checks over compiled artifacts (RV010–RV014).
//!
//! The cheap O(nnz) structural rules live next to the formats
//! themselves ([`PatternCompressedConv::validate`],
//! [`UnstructuredSparseConv::validate`]) so the executors can assert
//! them in debug builds; this module lifts those findings into
//! [`Diagnostic`]s and adds the expensive cross-checks a pre-flight
//! pass can afford: reconstructing the dense tensor and proving the
//! stored-weight bookkeeping against it (RV012/RV014).

use crate::diag::{Diagnostic, Report};
use rtoss_sparse::{PatternCompressedConv, SparseModel, UnstructuredSparseConv};

/// Wraps a format-level violation into a diagnostic.
fn lift(location: &str, v: &rtoss_sparse::FormatViolation) -> Diagnostic {
    Diagnostic::error(v.code, location, v.message.clone())
}

/// Checks one pattern-compressed layer: structural rules, then — if
/// those pass — dense reconstruction against the nnz bookkeeping.
pub fn check_pattern_layer(location: &str, layer: &PatternCompressedConv) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = layer.validate().iter().map(|v| lift(location, v)).collect();
    if !out.is_empty() {
        // Reconstruction on a structurally broken layer could index out
        // of bounds; the structural findings already block execution.
        return out;
    }
    let dense = layer.to_dense();
    let nnz = dense.as_slice().iter().filter(|&&v| v != 0.0).count();
    if nnz != layer.stored_weights() {
        out.push(Diagnostic::error(
            "RV014",
            location,
            format!(
                "dense reconstruction has {nnz} non-zeros but the layer claims to \
                 store {} weights",
                layer.stored_weights()
            ),
        ));
    }
    let expected = layer.out_channels() * layer.in_channels() * layer.kernel_size().pow(2);
    if dense.numel() != expected {
        out.push(Diagnostic::error(
            "RV014",
            location,
            format!(
                "dense reconstruction has {} elements, geometry implies {expected}",
                dense.numel()
            ),
        ));
    }
    out
}

/// Checks one unstructured (COO) layer the same way.
pub fn check_unstructured_layer(location: &str, layer: &UnstructuredSparseConv) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = layer.validate().iter().map(|v| lift(location, v)).collect();
    if !out.is_empty() {
        return out;
    }
    let dense = layer.to_dense();
    let nnz = dense.as_slice().iter().filter(|&&v| v != 0.0).count();
    if nnz != layer.entries().len() {
        out.push(Diagnostic::error(
            "RV014",
            location,
            format!(
                "dense reconstruction has {nnz} non-zeros but the COO layer stores \
                 {} entries",
                layer.entries().len()
            ),
        ));
    }
    out
}

/// Runs the sparse checks over every conv layer of a compiled engine,
/// including the engine-level stored-weight roll-up.
pub fn check_sparse_model(model: &SparseModel) -> Report {
    let mut report = Report::new();
    // Engine-level pass (cheap structural rules + nnz roll-up).
    report.extend(model.verify().iter().map(|v| lift("sparse engine", v)));
    // Deep per-layer reconstruction.
    for (node, layer) in model.conv_layers() {
        let loc = format!("sparse conv node {node}");
        for d in check_pattern_layer(&loc, layer) {
            if d.code == "RV014" {
                // Structural findings were already lifted by verify();
                // only the reconstruction findings are new here.
                report.push(d);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::pattern::canonical_set;
    use rtoss_core::prune3x3::prune_3x3_weights;
    use rtoss_tensor::{init, Tensor};

    fn pruned_weight() -> Tensor {
        let mut w = init::uniform(&mut init::rng(3), &[4, 4, 3, 3], -1.0, 1.0);
        let set = canonical_set(3).unwrap();
        prune_3x3_weights(&mut w, &set).unwrap();
        w
    }

    #[test]
    fn clean_layers_produce_no_findings() {
        let w = pruned_weight();
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        assert!(check_pattern_layer("l0", &pc).is_empty());
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        assert!(check_unstructured_layer("l0", &un).is_empty());
    }

    #[test]
    fn compiled_twin_engine_is_clean() {
        let mut m = rtoss_models::yolov5s_twin(4, 2, 11).unwrap();
        rtoss_core::Pruner::prune_graph(
            &rtoss_core::RTossPruner::new(rtoss_core::EntryPattern::Two),
            &mut m.graph,
        )
        .unwrap();
        let engine = SparseModel::compile(&m.graph).unwrap();
        let report = check_sparse_model(&engine);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn corrupted_offsets_surface_as_rv010() {
        let pc = PatternCompressedConv::from_parts(
            2,
            2,
            3,
            1,
            1,
            vec![rtoss_sparse::PatternGroup::from_kernels(
                vec![(1, 1), (0, 0)], // unsorted
                &[(0, 0, &[1.0, 2.0])],
            )],
        );
        let ds = check_pattern_layer("bad", &pc);
        assert!(ds.iter().any(|d| d.code == "RV010"), "{ds:?}");
    }
}
