//! The models under test and the one way every tier is built:
//! seeded dense graph → R-TOSS prune → static checks → sparse compile →
//! plan → format checks, each step a call into one crate's public
//! function with a benchmark span around it.

use crate::trace::{Tracer, NO_OP};
use rtoss_core::{EntryPattern, PruneReport, Pruner, RTossPruner};
use rtoss_hw::{SparsityStructure, Workload};
use rtoss_models::{DetectorModel, HeadInfo};
use rtoss_sparse::SparseModel;
use rtoss_tensor::{init, ExecConfig, Tensor};
use std::sync::Arc;

/// Frames in the pre-generated input pool of every workload.
pub const POOL_FRAMES: usize = 16;

/// The two fixed model/input-size pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `yolov5s_twin(16, 2, seed)` at 1×3×128×128: cache-resident.
    Twin16,
    /// `yolov5s(8, seed)` at 1×3×64×64: 7 M parameters, ~28 MB of dense
    /// weights that stream from memory.
    Full,
}

impl ModelKind {
    /// Builds the dense detector from `seed`.
    pub fn build(self, seed: u64) -> Result<DetectorModel, String> {
        match self {
            ModelKind::Twin16 => rtoss_models::yolov5s_twin(16, 2, seed),
            ModelKind::Full => rtoss_models::yolov5s(8, seed),
        }
        .map_err(|e| format!("model build failed: {e}"))
    }

    /// Shape of one input frame.
    pub fn frame_shape(self) -> [usize; 4] {
        match self {
            ModelKind::Twin16 => [1, 3, 128, 128],
            ModelKind::Full => [1, 3, 64, 64],
        }
    }

    /// The seeded input pool: same seed, same frames.
    pub fn frame_pool(self, seed: u64) -> Vec<Tensor> {
        (0..POOL_FRAMES as u64)
            .map(|i| {
                init::uniform(
                    &mut init::rng(seed ^ (0xF4A3_0000 + i)),
                    &self.frame_shape(),
                    0.0,
                    1.0,
                )
            })
            .collect()
    }
}

/// One accuracy tier: its name, the modelled mAP served at it (the
/// values `fleet_bench` uses), and the entry pattern that prunes to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierDef {
    /// `dense`, `3EP` or `2EP`.
    pub name: &'static str,
    /// Modelled mAP of this tier.
    pub map: f64,
    /// `None` leaves the graph dense.
    pub entry: Option<EntryPattern>,
}

/// Index of the dense tier in [`TIERS`].
pub const DENSE: usize = 0;
/// Index of the 3EP tier in [`TIERS`].
pub const EP3: usize = 1;
/// Index of the 2EP tier in [`TIERS`].
pub const EP2: usize = 2;

/// The tier stack, densest first, from identical seeded weights.
pub const TIERS: [TierDef; 3] = [
    TierDef {
        name: "dense",
        map: 75.0,
        entry: None,
    },
    TierDef {
        name: "3EP",
        map: 73.9,
        entry: Some(EntryPattern::Three),
    },
    TierDef {
        name: "2EP",
        map: 72.6,
        entry: Some(EntryPattern::Two),
    },
];

/// Seconds each step of one tier build took.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// `rtoss_models` graph construction.
    pub build_s: f64,
    /// `RTossPruner::prune_graph` (0 for the dense tier).
    pub prune_s: f64,
    /// `rtoss_verify::check_model` (0 for the dense tier).
    pub check_s: f64,
    /// `SparseModel::compile`.
    pub compile_s: f64,
    /// First `plan_for` at the single-frame shape.
    pub plan_s: f64,
    /// `SparseModel::verify`.
    pub verify_s: f64,
}

impl BuildTimes {
    /// Dense graph to verified engine.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.prune_s + self.check_s + self.compile_s + self.plan_s + self.verify_s
    }
}

/// A built tier.
#[derive(Debug)]
pub struct Tier {
    /// Which tier this is.
    pub def: TierDef,
    /// The planned sparse engine.
    pub engine: Arc<SparseModel>,
    /// The pruner's report (`None` for the dense tier).
    pub report: Option<PruneReport>,
    /// Device-model workload of one frame at this tier.
    pub workload: Workload,
    /// Detection heads of the model (identical across tiers).
    pub heads: Vec<HeadInfo>,
    /// Object classes of the model.
    pub num_classes: usize,
    /// Step timings of this build.
    pub times: BuildTimes,
}

/// Bytes per surviving weight the pattern format adds on top of the
/// four data bytes (one pattern id per kernel, amortised) — the figure
/// `rtoss-bench` feeds the device model.
const PATTERN_INDEX_BYTES: f64 = 0.25;

fn device_workload(model: &DetectorModel, report: Option<&PruneReport>) -> Workload {
    let dense_macs = model.spec.total_macs();
    match report {
        None => Workload {
            dense_macs,
            effective_macs: dense_macs,
            weight_bytes: model.spec.total_weight_bytes(),
            structure: SparsityStructure::Dense,
        },
        Some(r) => {
            let surviving = (r.total_weights() - r.total_zeros()) as f64;
            Workload {
                dense_macs,
                effective_macs: model.effective_macs(),
                weight_bytes: (surviving * (4.0 + PATTERN_INDEX_BYTES)
                    + model.spec.extra_params as f64 * 4.0) as u64,
                structure: SparsityStructure::SemiStructured,
            }
        }
    }
}

/// Whether two output sets agree in shape and in every bit.
pub fn same_bits(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Builds one tier of `kind` from `seed` and runs the correctness gate
/// on it: `check_model` clean on the pruned graph, `SparseModel::verify`
/// empty, and the planned forward bit-identical to the interpreter on
/// every frame of `gate_frames`. Any violation is the error.
pub fn build_tier(
    kind: ModelKind,
    seed: u64,
    def: TierDef,
    gate_frames: &[Tensor],
    tr: &mut Tracer,
) -> Result<Tier, String> {
    let mut times = BuildTimes::default();
    let shape = kind.frame_shape();
    let (model, s) = tr.time("models.build", NO_OP, || kind.build(seed));
    times.build_s = s;
    let mut model = model?;

    let mut report = None;
    if let Some(entry) = def.entry {
        let (r, s) = tr.time("core.prune", NO_OP, || {
            RTossPruner::new(entry).prune_graph(&mut model.graph)
        });
        times.prune_s = s;
        report = Some(r.map_err(|e| format!("{} prune failed: {e}", def.name))?);
        let (check, s) = tr.time("verify.check_model", NO_OP, || {
            rtoss_verify::check_model(&model.graph, &shape)
        });
        times.check_s = s;
        if check.has_errors() {
            return Err(format!(
                "{} pruned graph fails check_model:\n{}",
                def.name,
                check.render()
            ));
        }
    }

    let (engine, s) = tr.time("sparse.compile", NO_OP, || {
        SparseModel::compile(&model.graph)
    });
    times.compile_s = s;
    let engine = engine
        .map_err(|e| format!("{} compile failed: {e}", def.name))?
        .with_planning(true);
    let (plan, s) = tr.time("sparse.plan", NO_OP, || engine.plan_for(&shape).map(|_| ()));
    times.plan_s = s;
    plan.map_err(|e| format!("{} plan failed: {e}", def.name))?;
    let (violations, s) = tr.time("sparse.verify", NO_OP, || engine.verify());
    times.verify_s = s;
    if let Some(v) = violations.first() {
        return Err(format!(
            "{} engine fails verify(): {v} ({} violation(s))",
            def.name,
            violations.len()
        ));
    }

    let exec = ExecConfig::with_threads(1);
    for (i, frame) in gate_frames.iter().enumerate() {
        let ((planned, interpreted), _) = tr.time("sparse.identity_gate", NO_OP, || {
            (
                engine.forward_with(frame, &exec),
                engine.forward_interpreted_with(frame, &exec),
            )
        });
        let planned = planned.map_err(|e| format!("{} forward failed: {e}", def.name))?;
        let interpreted =
            interpreted.map_err(|e| format!("{} interpreter failed: {e}", def.name))?;
        if !same_bits(&planned, &interpreted) {
            return Err(format!(
                "{} planned output differs from forward_interpreted on gate frame {i}",
                def.name
            ));
        }
    }

    Ok(Tier {
        def,
        workload: device_workload(&model, report.as_ref()),
        engine: Arc::new(engine),
        report,
        heads: model.heads,
        num_classes: model.num_classes,
        times,
    })
}

/// The interpreter's outputs of `tier` on every pool frame: the oracle
/// served and planned outputs are compared against, bit for bit.
pub fn oracle_outputs(tier: &Tier, pool: &[Tensor]) -> Result<Vec<Vec<Tensor>>, String> {
    let exec = ExecConfig::with_threads(1);
    pool.iter()
        .map(|frame| {
            tier.engine
                .forward_interpreted_with(frame, &exec)
                .map_err(|e| format!("{} oracle forward failed: {e}", tier.def.name))
        })
        .collect()
}
