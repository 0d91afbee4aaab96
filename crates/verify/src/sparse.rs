//! Sparse-format checks over compiled artifacts (RV010–RV014).
//!
//! The cheap O(nnz) structural rules live next to the pack they check
//! ([`PatternCompressedConv::validate`],
//! [`UnstructuredSparseConv::validate`]) so the executors can assert
//! them in debug builds; this module lifts those findings into
//! [`Diagnostic`]s and adds the cross-check a pre-flight pass can
//! afford: reconstructing the dense tensor and counting what survives
//! (RV014).

use crate::diag::{Diagnostic, Report};
use rtoss_sparse::{
    FormatViolation, Pack, PatternCompressedConv, SparseModel, UnstructuredSparseConv,
};

/// Wraps a format-level violation into a diagnostic.
fn lift(location: &str, v: &FormatViolation) -> Diagnostic {
    Diagnostic::error(v.code, location, v.message.clone())
}

/// RV014: every stored weight must survive dense reconstruction. A
/// duplicated kernel, an out-of-range coordinate or a stored zero (each
/// already its own RV01x finding) loses weights on the way; this says
/// how many.
fn check_reconstruction(location: &str, pack: &Pack) -> Option<Diagnostic> {
    let dense = pack.to_dense();
    let nnz = dense.as_slice().iter().filter(|&&v| v != 0.0).count();
    (nnz != pack.stored_weights()).then(|| {
        Diagnostic::error(
            "RV014",
            location,
            format!(
                "dense reconstruction has {nnz} non-zeros but the layer stores {} weights",
                pack.stored_weights()
            ),
        )
    })
}

/// One layer's findings: its view's structural rules, lifted, then
/// dense reconstruction against the stored-weight count.
fn check_layer(location: &str, violations: &[FormatViolation], pack: &Pack) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = violations.iter().map(|v| lift(location, v)).collect();
    out.extend(check_reconstruction(location, pack));
    out
}

/// Checks one pattern-compressed layer (RV010–RV012, RV014).
pub fn check_pattern_layer(location: &str, layer: &PatternCompressedConv) -> Vec<Diagnostic> {
    check_layer(location, &layer.validate(), layer.pack())
}

/// Checks one unstructured (COO) layer the same way (RV013, RV014).
pub fn check_unstructured_layer(location: &str, layer: &UnstructuredSparseConv) -> Vec<Diagnostic> {
    check_layer(location, &layer.validate(), layer.pack())
}

/// Runs the sparse checks over every conv layer of a compiled engine.
pub fn check_sparse_model(model: &SparseModel) -> Report {
    let mut report = Report::new();
    // Engine-level pass (cheap structural rules).
    report.extend(model.verify().iter().map(|v| lift("sparse engine", v)));
    // Deep per-layer reconstruction.
    for (node, layer) in model.conv_layers() {
        let loc = format!("sparse conv node {node}");
        report.extend(check_reconstruction(&loc, layer.pack()));
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

    #[test]
    fn weights_lost_in_reconstruction_surface_as_rv014() {
        // The same kernel twice: one copy overwrites the other.
        let pc = PatternCompressedConv::from_parts(
            1,
            1,
            3,
            1,
            1,
            vec![rtoss_sparse::PatternGroup::from_kernels(
                vec![(0, 0), (0, 1)],
                &[(0, 0, &[1.0, 2.0]), (0, 0, &[3.0, 4.0])],
            )],
        );
        let ds = check_pattern_layer("dup", &pc);
        assert!(ds.iter().any(|d| d.code == "RV011"), "{ds:?}");
        assert!(ds.iter().any(|d| d.code == "RV014"), "{ds:?}");
        let un = UnstructuredSparseConv::from_entries(
            1,
            1,
            3,
            1,
            1,
            vec![(0, 0, 0, 0, 1.0), (4, 0, 0, 0, 2.0)],
        );
        let ds = check_unstructured_layer("stray", &un);
        assert!(ds.iter().any(|d| d.code == "RV013"), "{ds:?}");
        assert!(ds.iter().any(|d| d.code == "RV014"), "{ds:?}");
    }
}
