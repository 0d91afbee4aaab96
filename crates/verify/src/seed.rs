//! The seed pass: every artifact check over the seed pruned models,
//! their compiled engines and the seed fleet configurations.
//!
//! [`check_seed_artifacts`] is what `verify` runs by default and what a
//! tier-1 test asserts clean, so the artifact families (model, sparse,
//! plan, kernel, histogram, fleet) are proved on every `cargo test`.

use crate::diag::Report;
use rtoss_core::{EntryPattern, Pruner, RTossPruner};
use rtoss_models::{DetectorModel, ModelsError};
use rtoss_sparse::SparseModel;

/// NCHW input shape both scaled twins serve.
const INPUT: [usize; 4] = [1, 3, 64, 64];

/// A seed twin builder: `(base width, classes, seed)` to a model.
type Build = fn(usize, usize, u64) -> Result<DetectorModel, ModelsError>;

/// Every pruned seed configuration: the YOLOv5s twin at 2, 3 and 4
/// entries per pattern, the RetinaNet twin at 2 and 3.
const SEED_CONFIGS: [(&str, Build, &[EntryPattern]); 2] = {
    use EntryPattern::{Four, Three, Two};
    [
        (
            "yolov5s_twin",
            rtoss_models::yolov5s_twin,
            &[Two, Three, Four],
        ),
        (
            "retinanet_twin",
            rtoss_models::retinanet_twin,
            &[Two, Three],
        ),
    ]
};

/// Runs every artifact check over the seed configurations: per pruned
/// twin, the model (RV001–RV007), its engine's sparse formats
/// (RV010–RV014), the compiled plan (RV020, RV050–RV054, RV070) with
/// planned ≡ interpreted on a seeded probe, and the packs (RV090,
/// RV092); then the serving histogram (RV021), routing rings of 1, 2, 4
/// and 8 replicas (RV060), the default tier controller over 2 and 3
/// tiers (RV061), and the ledger and replica state of a live two-replica
/// micro-fleet (RV062, RV063). Findings are located by configuration.
///
/// # Errors
///
/// A seed artifact that cannot be built — a twin that fails to
/// construct, prune or compile, or a fleet that fails to start or serve
/// — is an error, not a finding.
pub fn check_seed_artifacts() -> Result<Report, String> {
    let mut report = Report::new();
    let probe = rtoss_tensor::init::uniform(&mut rtoss_tensor::init::rng(0x5EED), &INPUT, 0.0, 1.0);
    for (label, build, entries) in SEED_CONFIGS {
        for &entry in entries {
            let at = format!("{label}/{}", entry.label());
            let mut model = build(8, 2, 0x5EED).map_err(|e| format!("{at}: build failed: {e}"))?;
            RTossPruner::new(entry)
                .prune_graph(&mut model.graph)
                .map_err(|e| format!("{at}: pruning failed: {e}"))?;
            extend_at(&mut report, &at, crate::check_model(&model.graph, &INPUT));
            let engine = SparseModel::compile(&model.graph)
                .map_err(|e| format!("{at}: sparse compile failed: {e}"))?;
            extend_at(&mut report, &at, crate::check_sparse_model(&engine));
            let plan = crate::check_execution_plan(&engine, &probe, &[1, 4]);
            extend_at(&mut report, &at, plan);
            let kernels = crate::check_model_kernels(&engine, &model.graph);
            extend_at(&mut report, &at, kernels);
        }
    }
    report.extend(crate::check_histogram_buckets().diagnostics);
    for replicas in [1, 2, 4, 8] {
        let ring = rtoss_fleet::HashRing::new(replicas, 32);
        extend_at(
            &mut report,
            &format!("ring({replicas}x32)"),
            crate::check_hash_ring(&ring, 2000),
        );
    }
    for num_tiers in [2, 3] {
        let cfg = rtoss_fleet::TierControllerConfig::default();
        extend_at(
            &mut report,
            &format!("controller({num_tiers} tiers)"),
            crate::check_tier_controller(cfg, num_tiers),
        );
    }
    let snapshot = fleet_exercise()?;
    report.extend(crate::check_fleet_ledger(&snapshot).diagnostics);
    report.extend(crate::check_fleet_replicas(&snapshot).diagnostics);
    Ok(report)
}

/// Appends `from`'s findings to `report`, each location prefixed with
/// `at`.
fn extend_at(report: &mut Report, at: &str, from: Report) {
    report.extend(from.diagnostics.into_iter().map(|mut d| {
        d.location = format!("{at}: {}", d.location);
        d
    }));
}

/// Runs a small two-replica, two-tier fleet against a handful of
/// requests and returns its terminal snapshot for the RV062/RV063
/// conservation checks.
fn fleet_exercise() -> Result<rtoss_fleet::FleetSnapshot, String> {
    use rtoss_fleet::{Fleet, FleetConfig, SloClass, TenantSpec, TierSpec};
    use std::sync::Arc;

    struct Identity;
    impl rtoss_serve::ServeModel for Identity {
        fn run_batch(
            &self,
            batch: &rtoss_tensor::Tensor,
            _exec: &rtoss_tensor::ExecConfig,
        ) -> Result<Vec<rtoss_tensor::Tensor>, String> {
            Ok(vec![batch.clone()])
        }
    }

    let fleet = Fleet::start(
        vec![
            (TierSpec::new("dense", 75.0), Arc::new(Identity) as _),
            (TierSpec::new("3EP", 73.5), Arc::new(Identity) as _),
        ],
        FleetConfig {
            replicas: 2,
            tenants: vec![
                TenantSpec::new("gold", SloClass::Gold, 1e6, 1e6),
                TenantSpec::new("bulk", SloClass::Bulk, 1e6, 1e6),
            ],
            ..FleetConfig::default()
        },
    )
    .map_err(|e| format!("fleet start: {e}"))?;
    let mut tickets = Vec::new();
    for i in 0..24 {
        let tenant = if i % 2 == 0 { "gold" } else { "bulk" };
        let key = format!("{tenant}/stream-{}", i % 4);
        let input = rtoss_tensor::Tensor::zeros(&[1, 1, 4, 4]);
        let ticket = fleet
            .submit(tenant, &key, input, None)
            .map_err(|e| format!("fleet submit {i}: {e}"))?;
        tickets.push(ticket);
    }
    for t in tickets {
        t.wait().map_err(|e| format!("fleet wait: {e}"))?;
    }
    Ok(fleet.shutdown())
}
