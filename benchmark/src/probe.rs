//! The probe: single-thread timings of the workload's own model, taken
//! in short blocks before and after the main phase.
//!
//! Within a block the tiers are visited round-robin so drift on the
//! host hits every tier alike, and the block's value is the median of
//! its samples. The run reports the fastest block and prints the lower
//! quartile and the median over all of them beside it (see `run.rs` for
//! why these five metrics are not taken over all samples).
//! Every forward's output is compared with the interpreter's oracle; a
//! mismatch is a failed operation.

use crate::engines::{build_tier, same_bits, DENSE, EP2, EP3, TIERS};
use crate::stats::median;
use crate::trace::{Tracer, NO_OP};
use crate::workloads::Rig;
use rtoss_tensor::{ExecConfig, Tensor};
use std::time::{Duration, Instant};

/// Frames in the micro-batch `batch4_ms_p50_3ep` times.
const BATCH: usize = 4;

/// What the probe measured: one value per block, each the median of
/// the block's samples.
#[derive(Debug, Default)]
pub struct ProbeStats {
    /// Planned single-frame forward per tier (dense, 3EP, 2EP), ms.
    pub frame_ms: [Vec<f64>; 3],
    /// `forward_batch` of four frames on the 3EP tier, ms.
    pub batch4_ms: Vec<f64>,
    /// Fresh dense graph → 2EP prune → compile → plan → verify, s.
    pub prune_to_engine_s: Vec<f64>,
    /// Timed calls made.
    pub attempted: u64,
    /// Calls that failed or returned a wrong output.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl ProbeStats {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// Runs one probe block of `span`, adding one value per metric to `st`:
/// the first half times prune-to-engine cycles, the second half
/// forwards (kept apart so a cycle's working set does not evict the
/// weights a forward is about to read). At least one cycle and one
/// round of forwards run however short the span.
pub fn run_probe_block(
    rig: &Rig,
    seed: u64,
    pool: &[Tensor],
    oracle: &[Vec<Vec<Tensor>>],
    span: Duration,
    tr: &mut Tracer,
    st: &mut ProbeStats,
) {
    let exec = ExecConfig::with_threads(1);
    let start = Instant::now();
    let mut cycles = Vec::new();
    while start.elapsed() < span / 2 || cycles.is_empty() {
        st.attempted += 1;
        tr.begin("prune_to_engine", NO_OP);
        let built = build_tier(rig.def.model, seed, TIERS[EP2], &[], tr);
        tr.end();
        match built {
            Ok(tier) => cycles.push(tier.times.total_s()),
            Err(e) => {
                st.fail(format!("prune-to-engine cycle failed: {e}"));
                break;
            }
        }
    }
    let mut frame_ms: [Vec<f64>; 3] = Default::default();
    let mut batch4_ms = Vec::new();
    let mut round = 0usize;
    while start.elapsed() < span || round == 0 {
        // Blocks start at different pool frames so every frame is seen.
        let frame = (st.batch4_ms.len() * 5 + round) % pool.len();
        for tier in [DENSE, EP3, EP2] {
            st.attempted += 1;
            let (out, secs) = tr.time("sparse.forward", NO_OP, || {
                rig.tiers[tier].engine.forward_with(&pool[frame], &exec)
            });
            match out {
                Ok(o) if same_bits(&o, &oracle[tier][frame]) => frame_ms[tier].push(secs * 1e3),
                Ok(_) => st.fail(format!(
                    "{} planned output differs from the interpreter on pool frame {frame}",
                    TIERS[tier].name
                )),
                Err(e) => st.fail(format!("{} forward failed: {e}", TIERS[tier].name)),
            }
        }
        let frames: Vec<usize> = (0..BATCH).map(|i| (frame + i) % pool.len()).collect();
        let inputs: Vec<&Tensor> = frames.iter().map(|&f| &pool[f]).collect();
        st.attempted += 1;
        let (out, secs) = tr.time("sparse.forward_batch", NO_OP, || {
            rig.tiers[EP3].engine.forward_batch_with(&inputs, &exec)
        });
        match out {
            Ok(per_frame)
                if per_frame.len() == BATCH
                    && per_frame
                        .iter()
                        .zip(&frames)
                        .all(|(o, &f)| same_bits(o, &oracle[EP3][f])) =>
            {
                batch4_ms.push(secs * 1e3)
            }
            Ok(_) => st.fail(format!(
                "3EP forward_batch differs from per-frame interpreter outputs at frame {frame}"
            )),
            Err(e) => st.fail(format!("3EP forward_batch failed: {e}")),
        }
        round += 1;
    }
    // A block that failed throughout files nothing rather than a zero.
    let file = |into: &mut Vec<f64>, samples: &[f64]| {
        if !samples.is_empty() {
            into.push(median(samples));
        }
    };
    file(&mut st.prune_to_engine_s, &cycles);
    for (into, samples) in st.frame_ms.iter_mut().zip(&frame_ms) {
        file(into, samples);
    }
    file(&mut st.batch4_ms, &batch4_ms);
}
