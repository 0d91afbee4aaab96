//! Compile-before-run execution plans for the sparse engine.
//!
//! [`SparseModel::forward_with`] used to be a per-call graph
//! interpreter: every request re-walked the node list, re-validated
//! shapes, heap-allocated a fresh tensor per node, kept every
//! activation alive until the pass ended, and applied batch-norm
//! affines and activations as separate full passes over memory. Mobile
//! pattern-pruning deployments (PatDNN-style compiler stacks) get their
//! speedups from doing all of that work *ahead of time* — and that is
//! what an [`ExecutionPlan`] is:
//!
//! 1. **Shape inference & validation once.** Compiling a plan for an
//!    input shape runs the whole symbolic forward pass; per-call
//!    execution does no shape checks.
//! 2. **Liveness analysis + buffer arena.** The plan computes each
//!    value's last consumer and assigns outputs to reusable arena slots
//!    (best-fit from a free list). A slot is recycled as soon as its
//!    tenant's last consumer has run, so peak activation memory is the
//!    liveness peak, not the sum over all nodes. The plan reports
//!    [`arena_bytes`](ExecutionPlan::arena_bytes) (what a run actually
//!    allocates), [`peak_live_bytes`](ExecutionPlan::peak_live_bytes)
//!    (the liveness-simulation peak), and
//!    [`retained_bytes`](ExecutionPlan::retained_bytes) (what the old
//!    keep-everything interpreter held).
//! 3. **Conv → ChannelAffine → Activation fusion.** A conv whose sole
//!    consumer is a channel affine (folded BN), optionally followed by
//!    a sole-consumer activation, collapses into one conv step with an
//!    [`Epilogue`]: the affine and activation run per output plane
//!    while it is hot in cache, inside the tiled executor, instead of
//!    as two extra passes over the whole tensor.
//! 4. **Graph-level parallelism.** The compiler groups steps into
//!    dependency levels (every operand of a step lives in a strictly
//!    earlier level), so steps sharing a level are mutually
//!    independent — the YOLOv5s PANet and RetinaNet FPN twins have
//!    genuinely parallel branches. [`run`](ExecutionPlan::run)
//!    executes the levels in order and fans a level's steps out across
//!    the persistent [`WorkerPool`] (`exec.threads` caps the width,
//!    the caller always works too). This deal is the workspace's only
//!    concurrency: every op body, convs included, runs serially on
//!    whichever lane the deal gave its step (RV020 proves the deal
//!    partitions each level). The arena planner cooperates: a slot may
//!    be reused only by a step in a strictly later level than every
//!    consumer of the slot's previous tenant, so steps that can be
//!    concurrently live never alias a slot (checked by RV054).
//!
//! Every transformation is bit-exact: the fused epilogue performs the
//! same `f32` operations in the same order as the standalone passes,
//! the pool and upsample bodies mirror `rtoss_tensor::ops` exactly, and
//! level parallelism only changes *which step runs when*, never the
//! arithmetic inside a step — so planned outputs are **bit-identical**
//! to the serial plan and to the interpreter oracle
//! (`SparseModel::forward_interpreted_with`) at every width.
//! `rtoss-verify`'s RV05x family checks the schedule, the arena
//! assignment, the level structure, and that equivalence on seeded
//! engines.

use crate::exec::{conv2d_packed_into, conv_output_shape, debug_validate};
use crate::model::{activation, epilogue_act, SparseModel, SparseModelError, SparseNode, SparseOp};
use rtoss_nn::layers::ActivationKind;
use rtoss_tensor::exec::{Epilogue, ExecConfig};
use rtoss_tensor::ops::out_extent;
use rtoss_tensor::pool::{PoolTask, WorkerPool};
use rtoss_tensor::{Tensor, TensorError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};

/// Arenas kept for reuse across runs; above this the extras are freed.
/// Matches the serving layer's typical worker count so concurrent
/// micro-batch workers each find a warm arena.
const POOL_CAP: usize = 8;

/// Activation buffers of one in-flight run, one per arena slot. Slots
/// are individually `RwLock`ed so the steps of one dependency level can
/// concurrently write their own slots while reading earlier levels'
/// outputs; the level schedule and the arena's level-disjoint slot
/// assignment guarantee no lock is ever contended for writing, so the
/// locks cost an uncontended atomic each and exist to keep the crate
/// free of `unsafe`.
type Arena = Vec<RwLock<Vec<f32>>>;

/// Where a plan step reads one of its operands from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepSource {
    /// The caller's input tensor (an `Input` graph node).
    Extern,
    /// The output of an earlier plan step.
    Step(usize),
}

/// One scheduled operation of a compiled plan.
#[derive(Debug)]
struct PlanStep {
    /// Model node this step computes (the conv node for fused chains).
    node: usize,
    /// Model node of a `ChannelAffine` fused into this conv's epilogue.
    fused_affine: Option<usize>,
    /// Activation fused into this conv's epilogue.
    fused_act: Option<ActivationKind>,
    /// Operand sources, in the node's input order.
    inputs: Vec<StepSource>,
    /// Arena slot holding this step's output.
    out_slot: usize,
    /// Output shape, inferred at plan time.
    out_shape: Vec<usize>,
    /// Output element count (`out_shape` product).
    out_len: usize,
    /// Step index of the last consumer; `usize::MAX` marks a retained
    /// output whose slot is never recycled; a step's own index marks a
    /// dead value freed immediately.
    last_use: usize,
    /// Dependency level: strictly greater than every step operand's
    /// level; extern-only steps sit at level 0. Steps sharing a level
    /// are mutually independent and may execute concurrently.
    level: usize,
    /// [`StepSummary::format`]: `pattern` for a conv step, `-` else.
    format: &'static str,
}

impl PlanStep {
    fn fused_label(&self) -> &'static str {
        match (self.fused_affine, self.fused_act) {
            (Some(_), Some(_)) => "affine+act",
            (Some(_), None) => "affine",
            (None, Some(_)) => "act",
            (None, None) => "none",
        }
    }
}

/// Summary of one plan step, for verification and reporting. All
/// fields are public so `rtoss-verify` fixtures can construct corrupted
/// summaries that prove the RV05x checks fire.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSummary {
    /// Model node index this step computes.
    pub node: usize,
    /// Source graph node name.
    pub name: String,
    /// Operation kind (`conv`, `maxpool`, …).
    pub kind: &'static str,
    /// Epilogue fusion applied: `none`, `affine`, `act`, `affine+act`.
    pub fused: &'static str,
    /// Producing step index per operand; `None` = the extern input.
    pub inputs: Vec<Option<usize>>,
    /// Arena slot holding the output.
    pub out_slot: usize,
    /// Output element count.
    pub out_len: usize,
    /// Last consuming step index (`usize::MAX` = retained output).
    pub last_use: usize,
    /// Dependency level (see [`PlanSummary::steps`]): strictly greater
    /// than every step operand's level, so the levelled schedule the
    /// parallel runner executes respects all data dependencies (RV054).
    pub level: usize,
    /// `pattern` for a conv step (its layer's pack through the one
    /// tiled driver), `-` for every other step.
    pub format: &'static str,
}

/// Summary of a compiled plan: the schedule, arena assignment, and
/// memory accounting `rtoss-verify`'s RV05x checks inspect.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// Input shape the plan was compiled for.
    pub input_shape: Vec<usize>,
    /// Scheduled steps in execution order.
    pub steps: Vec<StepSummary>,
    /// Producing step per declared output; `None` = the extern input.
    pub outputs: Vec<Option<usize>>,
    /// Element capacity of each arena slot.
    pub slot_caps: Vec<usize>,
    /// Bytes a run allocates for the arena (Σ slot capacities × 4).
    pub arena_bytes: u64,
    /// Peak bytes simultaneously live during the liveness simulation.
    pub peak_live_bytes: u64,
    /// Bytes the keep-everything interpreter would retain (Σ step
    /// outputs) — the pre-plan baseline.
    pub retained_bytes: u64,
}

/// One dependency level's lane assignment at a given width; produced
/// by [`PlanSummary::level_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelDeal {
    /// Steps the caller lane runs in order: the extern-reading steps
    /// that must stay on the caller (the input tensor is borrowed),
    /// then the caller's own chunk of pooled steps.
    pub caller: Vec<usize>,
    /// Chunks handed to pool workers; each inner vec is one task whose
    /// steps run sequentially on whichever worker claims it.
    pub pooled: Vec<Vec<usize>>,
}

/// The caller/worker lane structure [`ExecutionPlan::run_with_pool`]
/// executes at a given width, reconstructed from a [`PlanSummary`].
/// Lanes of one level are mutually unordered (they run concurrently);
/// consecutive levels are separated by a full barrier. This is the
/// happens-before skeleton `rtoss-verify`'s RV070 race analysis checks
/// conflicting arena-slot accesses against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSchedule {
    /// Execution width the dealing was computed for.
    pub width: usize,
    /// Per dependency level, in barrier order.
    pub levels: Vec<LevelDeal>,
}

/// Deals one dependency level across execution lanes exactly as
/// [`ExecutionPlan::run_with_pool`] does: steps reading the borrowed
/// extern input stay on the caller, the rest ("pooled") are dealt
/// round-robin into at most `width` chunks of which chunk 0 also runs
/// on the caller. Levels too small to fan out run entirely on the
/// caller. Returns `(caller_steps, worker_chunks)`; both the runner
/// and [`PlanSummary::level_schedule`] call this, so the analysed and
/// the executed lane structure cannot drift.
fn deal_level(level: &[usize], is_pooled: &dyn Fn(usize) -> bool, width: usize) -> LevelDeal {
    let pooled: Vec<usize> = level.iter().copied().filter(|&si| is_pooled(si)).collect();
    if width < 2 || level.len() < 2 || pooled.len() < 2 {
        // Nothing to fan out (or only one off-caller step):
        // synchronisation would cost more than it buys.
        return LevelDeal {
            caller: level.to_vec(),
            pooled: Vec::new(),
        };
    }
    let n_chunks = width.min(pooled.len());
    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); n_chunks];
    for (k, &si) in pooled.iter().enumerate() {
        chunks[k % n_chunks].push(si);
    }
    let mut caller: Vec<usize> = level
        .iter()
        .copied()
        .filter(|si| !pooled.contains(si))
        .collect();
    caller.extend(chunks.remove(0));
    LevelDeal {
        caller,
        pooled: chunks,
    }
}

impl PlanSummary {
    /// Step indices grouped by dependency level, each group in schedule
    /// order — the barrier structure the level-parallel runner walks.
    /// Groups are keyed by the *distinct* level values present, so a
    /// corrupted summary with gapped levels still yields a finite,
    /// ordered grouping.
    pub fn level_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.steps.iter().enumerate() {
            groups.entry(s.level).or_default().push(i);
        }
        groups.into_values().collect()
    }

    /// The exact lane assignment [`ExecutionPlan::run_with_pool`]
    /// executes at `width` (clamped to ≥ 1): shares the dealing logic
    /// with the runner itself. Width 1 puts every level entirely on
    /// the caller, matching the runner's serial path.
    pub fn level_schedule(&self, width: usize) -> LevelSchedule {
        let width = width.max(1);
        let is_pooled = |si: usize| self.steps[si].inputs.iter().all(|src| src.is_some());
        let levels = self
            .level_groups()
            .iter()
            .map(|level| deal_level(level, &is_pooled, width))
            .collect();
        LevelSchedule { width, levels }
    }
}

/// A [`SparseModel`] compiled for one input shape: validated schedule,
/// fused conv epilogues, and arena slot assignment. Compile once (per
/// shape), run many times.
#[derive(Debug)]
pub struct ExecutionPlan {
    input_shape: Vec<usize>,
    /// Node count of the model this plan was compiled from; guards
    /// against running a plan against a different engine.
    n_nodes: usize,
    /// `Arc`ed so level-parallel runs can hand `'static` tasks to the
    /// persistent worker pool without copying the schedule.
    steps: Arc<Vec<PlanStep>>,
    /// Step indices grouped by dependency level, in execution order;
    /// level `L` may start only after level `L-1` finished.
    levels: Vec<Vec<usize>>,
    outputs: Vec<StepSource>,
    slot_caps: Vec<usize>,
    peak_live_bytes: u64,
    retained_bytes: u64,
    /// Recycled arenas (one per concurrent runner), so steady-state
    /// runs allocate only the retained-output buffers.
    arenas: Mutex<Vec<Arc<Arena>>>,
}

/// Fused chain recorded per conv node: the absorbed `ChannelAffine`
/// node (if any), the absorbed activation kind (if any), and the chain
/// tail node whose output the conv step now produces.
type FusedChain = (Option<usize>, Option<ActivationKind>, usize);

fn plan_err(msg: String) -> SparseModelError {
    SparseModelError::Tensor(TensorError::Invalid {
        op: "execution_plan",
        msg,
    })
}

impl ExecutionPlan {
    /// Compiles `model` for `input_shape`: infers and validates every
    /// shape, fuses conv→affine→activation chains, computes liveness,
    /// and assigns arena slots.
    ///
    /// # Errors
    ///
    /// Returns an error when any node's shape constraints fail for this
    /// input shape — the same conditions the interpreter would hit per
    /// call, surfaced once at plan time.
    pub fn compile(model: &SparseModel, input_shape: &[usize]) -> Result<Self, SparseModelError> {
        let nodes = &model.nodes;
        let n = nodes.len();
        let shapes = infer_shapes(nodes, input_shape)?;

        // Sole-consumer map for fusion legality: a node is absorbable
        // when exactly one edge consumes it and it is not an output.
        let mut is_output = vec![false; n];
        for &o in &model.outputs {
            if let Some(f) = is_output.get_mut(o) {
                *f = true;
            }
        }
        let mut consumer_of: Vec<Option<usize>> = vec![None; n];
        for (i, node) in nodes.iter().enumerate() {
            for &j in &node.inputs {
                if let Some(c) = consumer_of.get_mut(j) {
                    *c = Some(i);
                }
            }
        }
        let sole_consumer = |i: usize| -> Option<usize> {
            if model.uses.get(i) == Some(&1) && !is_output[i] {
                consumer_of[i]
            } else {
                None
            }
        };

        // Fusion pass: for each conv, greedily absorb a sole-consumer
        // ChannelAffine, then a sole-consumer Activation, into the
        // conv's epilogue. Absorbed nodes get no step of their own.
        let mut fused_into_conv = vec![false; n];
        let mut fusion: Vec<Option<FusedChain>> = vec![None; n];
        for (i, node) in nodes.iter().enumerate() {
            if !matches!(node.op, SparseOp::Conv { .. }) {
                continue;
            }
            let mut tail = i;
            let mut affine = None;
            let mut act = None;
            if let Some(j) = sole_consumer(tail) {
                if matches!(nodes[j].op, SparseOp::ChannelAffine { .. }) {
                    affine = Some(j);
                    tail = j;
                }
            }
            if let Some(j) = sole_consumer(tail) {
                if let SparseOp::Activation(kind) = nodes[j].op {
                    act = Some(kind);
                    tail = j;
                }
            }
            if let Some(j) = affine {
                fused_into_conv[j] = true;
            }
            if act.is_some() {
                fused_into_conv[tail] = true;
            }
            fusion[i] = Some((affine, act, tail));
        }

        // Scheduling: one step per non-input, non-absorbed node, in
        // node order (already topological — the graph builder only
        // wires existing nodes).
        let mut node_to_step: Vec<Option<usize>> = vec![None; n];
        let mut steps: Vec<PlanStep> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            if matches!(node.op, SparseOp::Input) || fused_into_conv[i] {
                continue;
            }
            let mut inputs = Vec::with_capacity(node.inputs.len());
            for &j in &node.inputs {
                if j >= i {
                    return Err(plan_err(format!(
                        "node {i} reads node {j}: not topological"
                    )));
                }
                if matches!(nodes[j].op, SparseOp::Input) {
                    inputs.push(StepSource::Extern);
                } else {
                    let s = node_to_step[j]
                        .ok_or_else(|| plan_err(format!("node {i} reads unscheduled node {j}")))?;
                    inputs.push(StepSource::Step(s));
                }
            }
            let (fused_affine, fused_act, tail) = match fusion[i] {
                Some((a, k, t)) => (a, k, t),
                None => (None, None, i),
            };
            let out_shape = shapes[tail].clone();
            let out_len = out_shape.iter().product();
            let s = steps.len();
            let format = match node.op {
                SparseOp::Conv { .. } => "pattern",
                _ => "-",
            };
            steps.push(PlanStep {
                node: i,
                fused_affine,
                fused_act,
                inputs,
                out_slot: usize::MAX,
                out_shape,
                out_len,
                last_use: s,
                level: 0,
                format,
            });
            node_to_step[i] = Some(s);
            // Consumers of an absorbed chain's tail read the conv step.
            node_to_step[tail] = Some(s);
            if let Some(j) = fused_affine {
                node_to_step[j] = Some(s);
            }
        }

        // Liveness: last consuming step per step; retained outputs
        // never die.
        for s in 0..steps.len() {
            let sources = steps[s].inputs.clone();
            for src in sources {
                if let StepSource::Step(i) = src {
                    steps[i].last_use = steps[i].last_use.max(s);
                }
            }
        }
        let mut outputs = Vec::with_capacity(model.outputs.len());
        for &o in &model.outputs {
            if matches!(nodes.get(o).map(|n| &n.op), Some(SparseOp::Input)) {
                outputs.push(StepSource::Extern);
                continue;
            }
            let s = node_to_step
                .get(o)
                .copied()
                .flatten()
                .ok_or_else(|| plan_err(format!("output node {o} was not scheduled")))?;
            steps[s].last_use = usize::MAX;
            outputs.push(StepSource::Step(s));
        }

        // Dependency levels: a step reading only the extern input is
        // level 0, otherwise one more than its deepest operand. The
        // schedule is in step order, so operands always precede their
        // consumers and one forward pass suffices.
        for s in 0..steps.len() {
            let lv = steps[s]
                .inputs
                .iter()
                .filter_map(|src| match src {
                    StepSource::Step(i) => Some(steps[*i].level + 1),
                    StepSource::Extern => None,
                })
                .max()
                .unwrap_or(0);
            steps[s].level = lv;
        }
        let n_levels = steps.iter().map(|st| st.level + 1).max().unwrap_or(0);
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); n_levels];
        for (s, st) in steps.iter().enumerate() {
            levels[st.level].push(s);
        }
        // Deepest consuming *level* per step. Note this is a max over
        // ALL consumers, not the level of the last-indexed one — a
        // smaller-indexed consumer can sit in a deeper level. Retained
        // outputs stay live forever.
        let mut last_level: Vec<usize> = steps.iter().map(|st| st.level).collect();
        for st in &steps {
            for src in &st.inputs {
                if let StepSource::Step(i) = src {
                    last_level[*i] = last_level[*i].max(st.level);
                }
            }
        }
        for (s, st) in steps.iter().enumerate() {
            if st.last_use == usize::MAX {
                last_level[s] = usize::MAX;
            }
        }

        // Arena assignment: best-fit from the free list. The output
        // slot is chosen while the step's inputs are still allocated,
        // so an output never aliases a dying input; dying inputs are
        // then freed for the *next* step. Each freed slot remembers the
        // deepest level that still reads its old tenant, and only steps
        // in strictly later levels may reuse it — so two steps that can
        // execute concurrently (same level, or a consumer racing a
        // later level's writer) never share a slot (RV054). Because the
        // walk stays in schedule order, the serial index rule (RV051)
        // holds automatically.
        let mut slot_caps: Vec<usize> = Vec::new();
        let mut free: Vec<(usize, usize)> = Vec::new(); // (slot, freed-at level)
        let mut live_bytes: u64 = 0;
        let mut peak_live: u64 = 0;
        let mut retained: u64 = 0;
        for s in 0..steps.len() {
            let len = steps[s].out_len;
            retained += 4 * len as u64;
            let slot = match best_fit(&free, &slot_caps, len, steps[s].level) {
                Some(pos) => {
                    let (slot, _) = free.swap_remove(pos);
                    slot_caps[slot] = slot_caps[slot].max(len);
                    slot
                }
                None => {
                    slot_caps.push(len);
                    slot_caps.len() - 1
                }
            };
            steps[s].out_slot = slot;
            live_bytes += 4 * len as u64;
            peak_live = peak_live.max(live_bytes);
            let mut dying: Vec<usize> = steps[s]
                .inputs
                .iter()
                .filter_map(|src| match src {
                    StepSource::Step(i) if steps[*i].last_use == s => Some(*i),
                    _ => None,
                })
                .collect();
            dying.sort_unstable();
            dying.dedup();
            for i in dying {
                free.push((steps[i].out_slot, last_level[i]));
                live_bytes = live_bytes.saturating_sub(4 * steps[i].out_len as u64);
            }
            if steps[s].last_use == s {
                // Dead value (no consumer, not an output): recycle now.
                free.push((slot, last_level[s]));
                live_bytes = live_bytes.saturating_sub(4 * len as u64);
            }
        }

        Ok(ExecutionPlan {
            input_shape: input_shape.to_vec(),
            n_nodes: n,
            steps: Arc::new(steps),
            levels,
            outputs,
            slot_caps,
            peak_live_bytes: peak_live,
            retained_bytes: retained,
            arenas: Mutex::new(Vec::new()),
        })
    }

    /// The input shape this plan was compiled for.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Scheduled step count (fused chains count once).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Bytes a run allocates for the activation arena (Σ slot
    /// capacities × 4). This is the plan's measured peak activation
    /// footprint — what the serving metrics export as
    /// `peak_activation_bytes`.
    pub fn arena_bytes(&self) -> u64 {
        4 * self.slot_caps.iter().map(|&c| c as u64).sum::<u64>()
    }

    /// Peak bytes simultaneously live during the liveness simulation
    /// (≤ [`arena_bytes`](Self::arena_bytes), which also pays slot
    /// capacity growth from reuse across different-sized values).
    pub fn peak_live_bytes(&self) -> u64 {
        self.peak_live_bytes
    }

    /// Bytes the keep-everything interpreter would have retained at the
    /// end of a pass (Σ all step outputs) — the pre-plan baseline the
    /// arena numbers are compared against.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes
    }

    /// The plan's schedule, arena assignment, and memory accounting.
    pub fn summary(&self) -> PlanSummary {
        PlanSummary {
            input_shape: self.input_shape.clone(),
            steps: self
                .steps
                .iter()
                .map(|s| StepSummary {
                    node: s.node,
                    name: String::new(),
                    kind: "",
                    fused: s.fused_label(),
                    inputs: s
                        .inputs
                        .iter()
                        .map(|src| match src {
                            StepSource::Extern => None,
                            StepSource::Step(i) => Some(*i),
                        })
                        .collect(),
                    out_slot: s.out_slot,
                    out_len: s.out_len,
                    last_use: s.last_use,
                    level: s.level,
                    format: s.format,
                })
                .collect(),
            outputs: self
                .outputs
                .iter()
                .map(|src| match src {
                    StepSource::Extern => None,
                    StepSource::Step(i) => Some(*i),
                })
                .collect(),
            slot_caps: self.slot_caps.clone(),
            arena_bytes: self.arena_bytes(),
            peak_live_bytes: self.peak_live_bytes,
            retained_bytes: self.retained_bytes,
        }
    }

    /// Like [`summary`](Self::summary) but with step names and kinds
    /// resolved from the model the plan was compiled from.
    pub fn summary_for(&self, model: &SparseModel) -> PlanSummary {
        let mut s = self.summary();
        for step in &mut s.steps {
            if let Some(node) = model.nodes.get(step.node) {
                step.name = node.name.clone();
                step.kind = node.kind();
            }
        }
        s
    }

    /// Executes the plan. `model` must be the engine this plan was
    /// compiled from (checked cheaply by node count).
    ///
    /// `exec.threads` is the *graph-level* width: how many independent
    /// steps of one dependency level may run concurrently on the
    /// process-global [`WorkerPool`]. Each step's own arithmetic is
    /// always serial, so outputs are bit-identical for every width.
    ///
    /// # Errors
    ///
    /// Returns an error if `model` or the input shape does not match
    /// the compiled plan. Per-node shape errors cannot occur here —
    /// they were ruled out at plan time.
    pub fn run(
        &self,
        model: &SparseModel,
        input: &Tensor,
        exec: &ExecConfig,
    ) -> Result<Vec<Tensor>, SparseModelError> {
        self.run_with_pool(model, input, exec, WorkerPool::global())
    }

    /// [`run`](Self::run) against an explicit worker pool (the public
    /// entry uses the process-global one; tests and verification force
    /// a sized pool to exercise the parallel path on any host).
    ///
    /// Width = `min(exec.threads, pool workers + 1)` — the caller
    /// always works too. Width 1 (always the case when the pool has no
    /// workers, e.g. on a single-core host) takes the plain serial
    /// schedule with zero synchronisation; wider runs execute level by
    /// level, dealing each level's steps into at most `width` chunks:
    /// chunk 0 plus every step that reads the borrowed extern input
    /// stay on the caller, the rest go to the pool, and the caller
    /// steals queued chunks back while waiting so no width is ever
    /// slower than serial by more than the level-barrier handshake.
    pub fn run_with_pool(
        &self,
        model: &SparseModel,
        input: &Tensor,
        exec: &ExecConfig,
        pool: &WorkerPool,
    ) -> Result<Vec<Tensor>, SparseModelError> {
        if model.nodes.len() != self.n_nodes {
            return Err(plan_err(format!(
                "plan was compiled for a {}-node engine, got {}",
                self.n_nodes,
                model.nodes.len()
            )));
        }
        if input.shape() != self.input_shape {
            return Err(plan_err(format!(
                "plan was compiled for input shape {:?}, got {:?}",
                self.input_shape,
                input.shape()
            )));
        }
        let width = exec.threads.max(1).min(pool.workers() + 1);
        if rtoss_obs::recording() {
            rtoss_obs::emit_instant(
                "plan",
                vec![
                    ("steps", rtoss_obs::ArgValue::U64(self.steps.len() as u64)),
                    ("levels", rtoss_obs::ArgValue::U64(self.levels.len() as u64)),
                    ("width", rtoss_obs::ArgValue::U64(width as u64)),
                    ("arena_bytes", rtoss_obs::ArgValue::U64(self.arena_bytes())),
                    (
                        "peak_live_bytes",
                        rtoss_obs::ArgValue::U64(self.peak_live_bytes),
                    ),
                ],
            );
        }
        let arena: Arc<Arena> = {
            let mut arenas = self.arenas.lock().unwrap_or_else(PoisonError::into_inner);
            arenas.pop()
        }
        .filter(|a| a.len() == self.slot_caps.len())
        .unwrap_or_else(|| {
            Arc::new(
                self.slot_caps
                    .iter()
                    .map(|_| RwLock::new(Vec::new()))
                    .collect(),
            )
        });
        for (slot, &cap) in arena.iter().zip(&self.slot_caps) {
            let mut buf = slot.write().unwrap_or_else(PoisonError::into_inner);
            if buf.len() < cap {
                // Fresh capacity; every op fully overwrites its output
                // prefix, so no clearing between runs is needed.
                *buf = vec![0.0; cap];
            }
        }

        if width <= 1 {
            for si in 0..self.steps.len() {
                exec_step(&self.steps, &model.nodes, si, Some(input), &arena, 1)?;
            }
        } else {
            self.run_levels(model, input, &arena, pool, width)?;
        }

        let mut outs = Vec::with_capacity(self.outputs.len());
        for (k, src) in self.outputs.iter().enumerate() {
            let t = match src {
                StepSource::Extern => input.clone(),
                StepSource::Step(i) => {
                    let step = &self.steps[*i];
                    let slot = arena
                        .get(step.out_slot)
                        .ok_or_else(|| plan_err(format!("output step {i} missing")))?;
                    if self.outputs[k + 1..].contains(src) {
                        // Another declared output reads the same step:
                        // copy now, move on the final occurrence.
                        let guard = slot.read().unwrap_or_else(PoisonError::into_inner);
                        let data = guard
                            .get(..step.out_len)
                            .ok_or_else(|| plan_err(format!("output step {i} missing")))?;
                        Tensor::from_vec(data.to_vec(), &step.out_shape)?
                    } else {
                        let mut buf = std::mem::take(
                            &mut *slot.write().unwrap_or_else(PoisonError::into_inner),
                        );
                        if buf.len() < step.out_len {
                            return Err(plan_err(format!("output step {i} missing")));
                        }
                        buf.truncate(step.out_len);
                        Tensor::from_vec(buf, &step.out_shape)?
                    }
                }
            };
            outs.push(t);
        }
        let mut arenas = self.arenas.lock().unwrap_or_else(PoisonError::into_inner);
        if arenas.len() < POOL_CAP {
            arenas.push(arena);
        }
        Ok(outs)
    }

    /// Level-parallel execution: levels run in order, the steps of one
    /// level fan out across the pool. Steps that read the extern input
    /// stay on the caller (the input tensor is borrowed; pool tasks
    /// are `'static`), as does chunk 0 — the caller is one of the
    /// `width` workers, not a coordinator.
    fn run_levels(
        &self,
        model: &SparseModel,
        input: &Tensor,
        arena: &Arc<Arena>,
        pool: &WorkerPool,
        width: usize,
    ) -> Result<(), SparseModelError> {
        for level in &self.levels {
            let is_pooled = |si: usize| {
                self.steps[si]
                    .inputs
                    .iter()
                    .all(|src| !matches!(src, StepSource::Extern))
            };
            let deal = deal_level(level, &is_pooled, width);
            // Lanes this level actually runs on: the caller plus one per
            // pooled chunk.
            let lanes = 1 + deal.pooled.len();
            if lanes == 1 {
                for &si in &deal.caller {
                    exec_step(&self.steps, &model.nodes, si, Some(input), arena, lanes)?;
                }
                continue;
            }
            let first_err: Arc<Mutex<Option<SparseModelError>>> = Arc::new(Mutex::new(None));
            let tasks: Vec<PoolTask> = deal
                .pooled
                .into_iter()
                .map(|chunk| {
                    let steps = Arc::clone(&self.steps);
                    let nodes = Arc::clone(&model.nodes);
                    let arena = Arc::clone(arena);
                    let first_err = Arc::clone(&first_err);
                    Box::new(move || {
                        for si in chunk {
                            if let Err(e) = exec_step(&steps, &nodes, si, None, &arena, lanes) {
                                let mut slot =
                                    first_err.lock().unwrap_or_else(PoisonError::into_inner);
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                                break;
                            }
                        }
                    }) as PoolTask
                })
                .collect();
            let batch = pool.submit(tasks);
            let mut caller_err: Option<SparseModelError> = None;
            for &si in &deal.caller {
                if let Err(e) = exec_step(&self.steps, &model.nodes, si, Some(input), arena, lanes)
                {
                    caller_err = Some(e);
                    break;
                }
            }
            pool.help();
            batch.wait();
            if let Some(e) = caller_err {
                return Err(e);
            }
            let mut slot = first_err.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(e) = slot.take() {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// Executes one plan step: write-locks the step's output slot,
/// read-locks its operand slots, then runs the node's arithmetic
/// exactly as the interpreter would. Safe to call concurrently for
/// steps of one dependency level — the arena planner guarantees
/// concurrently-live steps never share a slot (and an explicit aliasing
/// check below turns any violation into an error instead of a
/// deadlock). `input` is `None` on pool workers; the level runner keeps
/// extern-reading steps on the caller. `width` is the lane count of the
/// step's level, recorded on its trace span.
fn exec_step(
    steps: &[PlanStep],
    nodes: &[SparseNode],
    si: usize,
    input: Option<&Tensor>,
    arena: &Arena,
    width: usize,
) -> Result<(), SparseModelError> {
    let step = steps
        .get(si)
        .ok_or_else(|| plan_err(format!("step {si} missing from schedule")))?;
    let node = nodes
        .get(step.node)
        .ok_or_else(|| plan_err(format!("step {si}: node {} missing", step.node)))?;
    let _span = step_span(step, node, width);
    let mut out_guard = arena
        .get(step.out_slot)
        .ok_or_else(|| plan_err(format!("step {si}: slot {} missing", step.out_slot)))?
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    let out = out_guard
        .get_mut(..step.out_len)
        .ok_or_else(|| plan_err(format!("slot {} under-allocated", step.out_slot)))?;

    // Resolve operand read guards up front so their borrows span the
    // arithmetic below. Reading a slot twice (e.g. `add(b, b)`) is
    // fine — no writer can be queued on an operand slot while its
    // value is live.
    enum Operand<'a> {
        Extern,
        Arena(RwLockReadGuard<'a, Vec<f32>>, &'a PlanStep),
    }
    let mut operands = Vec::with_capacity(step.inputs.len());
    for (k, srcref) in step.inputs.iter().enumerate() {
        match srcref {
            StepSource::Extern => operands.push(Operand::Extern),
            StepSource::Step(i) => {
                let st = steps
                    .get(*i)
                    .ok_or_else(|| plan_err(format!("operand step {i} missing")))?;
                if st.out_slot == step.out_slot {
                    return Err(plan_err(format!(
                        "step {si} operand {k} aliases its output slot {}",
                        step.out_slot
                    )));
                }
                let guard = arena
                    .get(st.out_slot)
                    .ok_or_else(|| plan_err(format!("operand slot {} missing", st.out_slot)))?
                    .read()
                    .unwrap_or_else(PoisonError::into_inner);
                operands.push(Operand::Arena(guard, st));
            }
        }
    }
    let src = |k: usize| -> Result<(&[f32], &[usize]), SparseModelError> {
        match operands.get(k) {
            Some(Operand::Extern) => {
                let x = input.ok_or_else(|| {
                    plan_err(format!("step {si} reads the extern input off the caller"))
                })?;
                Ok((x.as_slice(), x.shape()))
            }
            Some(Operand::Arena(guard, st)) => {
                let buf = guard
                    .get(..st.out_len)
                    .ok_or_else(|| plan_err(format!("operand slot {} missing", st.out_slot)))?;
                Ok((buf, st.out_shape.as_slice()))
            }
            None => Err(plan_err(format!(
                "step for node {} lacks operand {k}",
                step.node
            ))),
        }
    };
    match &node.op {
        SparseOp::Conv { layer, bias } => {
            let affine = match step.fused_affine {
                Some(j) => match nodes.get(j).map(|n| &n.op) {
                    Some(SparseOp::ChannelAffine { scale, shift }) => {
                        Some((scale.as_slice(), shift.as_slice()))
                    }
                    _ => {
                        return Err(plan_err(format!(
                            "fused affine node {j} is not a channel affine"
                        )))
                    }
                },
                None => None,
            };
            let (x, xs) = src(0)?;
            let epi = Epilogue {
                affine,
                act: step.fused_act.and_then(epilogue_act),
            };
            debug_validate(|| layer.validate());
            conv2d_packed_into(x, xs, layer.pack(), Some(bias), &epi, out)?;
        }
        SparseOp::ChannelAffine { scale, shift } => {
            let (x, xs) = src(0)?;
            channel_affine_into(x, xs, scale, shift, out);
        }
        SparseOp::Activation(kind) => {
            let (x, _) = src(0)?;
            let x = x
                .get(..out.len())
                .ok_or_else(|| plan_err(format!("activation input shorter than step {si}")))?;
            out.copy_from_slice(x);
            activation(*kind).apply(0, out);
        }
        SparseOp::MaxPool { k, stride, pad } => {
            let (x, xs) = src(0)?;
            maxpool2d_into(x, xs, *k, *stride, *pad, &step.out_shape, out);
        }
        SparseOp::Upsample2x => {
            let (x, xs) = src(0)?;
            upsample_nearest2x_into(x, xs, out);
        }
        SparseOp::Add => {
            let (a, _) = src(0)?;
            let (b, _) = src(1)?;
            for ((o, &av), &bv) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
                *o = av + bv;
            }
        }
        SparseOp::Concat => {
            let mut parts = Vec::with_capacity(step.inputs.len());
            for k in 0..step.inputs.len() {
                parts.push(src(k)?);
            }
            concat_channels_into(&parts, &step.out_shape, out);
        }
        SparseOp::Input => {
            return Err(plan_err("input node scheduled as a step".into()));
        }
    }
    Ok(())
}

/// Best-fit free-slot lookup among slots whose previous tenant's last
/// consumer sits in a level strictly below `level` (so a
/// concurrently-live step can never claim the slot): index into `free`
/// of the smallest eligible slot with capacity ≥ `len`, else the
/// largest eligible slot (grown by the caller), else `None`.
fn best_fit(free: &[(usize, usize)], caps: &[usize], len: usize, level: usize) -> Option<usize> {
    let mut fit: Option<(usize, usize)> = None; // (pos, cap)
    let mut largest: Option<(usize, usize)> = None;
    for (pos, &(slot, freed_level)) in free.iter().enumerate() {
        if freed_level >= level {
            continue;
        }
        let cap = caps[slot];
        if cap >= len && fit.is_none_or(|(_, c)| cap < c) {
            fit = Some((pos, cap));
        }
        if largest.is_none_or(|(_, c)| cap > c) {
            largest = Some((pos, cap));
        }
    }
    fit.or(largest).map(|(pos, _)| pos)
}

/// Plan-time shape inference over the compiled node list — the one
/// place shapes are validated; per-call execution trusts these.
pub(crate) fn infer_shapes(
    nodes: &[SparseNode],
    input_shape: &[usize],
) -> Result<Vec<Vec<usize>>, SparseModelError> {
    let mut shapes: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        let in0 = || -> Result<&Vec<usize>, SparseModelError> {
            node.inputs
                .first()
                .and_then(|&j| shapes.get(j))
                .filter(|s| !s.is_empty())
                .ok_or_else(|| plan_err(format!("node {i} has no resolvable input")))
        };
        let rank4 = |s: &[usize]| -> Result<(usize, usize, usize, usize), SparseModelError> {
            if s.len() != 4 {
                return Err(plan_err(format!("node {i} expects rank 4, got {s:?}")));
            }
            Ok((s[0], s[1], s[2], s[3]))
        };
        let shape = match &node.op {
            SparseOp::Input => input_shape.to_vec(),
            SparseOp::Conv { layer, bias } => {
                if bias.len() != layer.out_channels() {
                    return Err(plan_err(format!(
                        "node {i}: bias length {} != out channels {}",
                        bias.len(),
                        layer.out_channels()
                    )));
                }
                conv_output_shape(
                    in0()?,
                    layer.in_channels(),
                    layer.out_channels(),
                    layer.kernel_size(),
                    layer.stride(),
                    layer.padding(),
                    "execution_plan",
                )?
                .to_vec()
            }
            SparseOp::ChannelAffine { scale, shift } => {
                let s = in0()?.clone();
                let (_, c, _, _) = rank4(&s)?;
                if scale.len() != c || shift.len() != c {
                    return Err(plan_err(format!(
                        "node {i}: affine over {c} channels has {}/{} params",
                        scale.len(),
                        shift.len()
                    )));
                }
                s
            }
            SparseOp::Activation(_) => in0()?.clone(),
            SparseOp::MaxPool { k, stride, pad } => {
                let s = in0()?.clone();
                let (n, c, h, w) = rank4(&s)?;
                let oh = out_extent(h, *k, *stride, *pad)
                    .ok_or_else(|| plan_err(format!("node {i}: pool window does not fit")))?;
                let ow = out_extent(w, *k, *stride, *pad)
                    .ok_or_else(|| plan_err(format!("node {i}: pool window does not fit")))?;
                vec![n, c, oh, ow]
            }
            SparseOp::Upsample2x => {
                let s = in0()?.clone();
                let (n, c, h, w) = rank4(&s)?;
                vec![n, c, 2 * h, 2 * w]
            }
            SparseOp::Add => {
                let a = in0()?.clone();
                let b = node
                    .inputs
                    .get(1)
                    .and_then(|&j| shapes.get(j))
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| plan_err(format!("node {i}: add lacks a second operand")))?;
                if &a != b {
                    return Err(plan_err(format!("node {i}: add of {a:?} vs {b:?}")));
                }
                a
            }
            SparseOp::Concat => {
                let mut it = node.inputs.iter();
                let first = it
                    .next()
                    .and_then(|&j| shapes.get(j))
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| plan_err(format!("node {i}: empty concat")))?;
                let (n, mut c, h, w) = rank4(first)?;
                for &j in it {
                    let s = shapes
                        .get(j)
                        .filter(|s| !s.is_empty())
                        .ok_or_else(|| plan_err(format!("node {i}: unresolved operand {j}")))?;
                    let (nj, cj, hj, wj) = rank4(s)?;
                    if (nj, hj, wj) != (n, h, w) {
                        return Err(plan_err(format!(
                            "node {i}: concat of {s:?} onto (n={n},h={h},w={w})"
                        )));
                    }
                    c += cj;
                }
                vec![n, c, h, w]
            }
        };
        shapes[i] = shape;
    }
    Ok(shapes)
}

/// Per-channel affine `s * v + b` of an NCHW slice into `out` — the one
/// body both the plan and the interpreter oracle run.
pub(crate) fn channel_affine_into(
    x: &[f32],
    x_shape: &[usize],
    scale: &[f32],
    shift: &[f32],
    out: &mut [f32],
) {
    let (n, c, h, w) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let plane = h * w;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * plane;
            let (s, b) = (scale[ci], shift[ci]);
            for (o, &v) in out[base..base + plane]
                .iter_mut()
                .zip(&x[base..base + plane])
            {
                *o = s * v + b;
            }
        }
    }
}

/// Max pooling into an arena slice, bitwise equal to
/// [`rtoss_tensor::ops::maxpool2d`]: every output cell sees the same
/// compares in the same row-major `(ky, kx)` order, strict `>` keeping
/// the first maximum, so ±0.0 ties and NaNs resolve as they do there.
///
/// Padding is skipped by range, not by branch: per plane, each in-range
/// `(ky, kx)` sweeps its valid output rows and columns with a select
/// that lowers to `maxps`. A cell starts at −∞, and one still at −∞
/// found nothing (anything found is > −∞), so it writes 0 — the
/// oracle's all-padding rule.
fn maxpool2d_into(
    x: &[f32],
    x_shape: &[usize],
    k: usize,
    stride: usize,
    pad: usize,
    out_shape: &[usize],
    out: &mut [f32],
) {
    let (h, w) = (x_shape[2], x_shape[3]);
    let (oh, ow) = (out_shape[2], out_shape[3]);
    if h * w == 0 || oh * ow == 0 {
        return;
    }
    // Outputs `o` whose input `o*stride + t - pad` lies in `0..len`.
    let valid = |t: usize, len: usize, olen: usize| {
        let lo = pad.saturating_sub(t).div_ceil(stride).min(olen);
        lo..(len + pad)
            .saturating_sub(t)
            .div_ceil(stride)
            .clamp(lo, olen)
    };
    for (plane, out_plane) in x.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        out_plane.fill(f32::NEG_INFINITY);
        for ky in 0..k {
            let rows = valid(ky, h, oh);
            for kx in 0..k {
                let cols = valid(kx, w, ow);
                for oy in rows.clone() {
                    // In range by `rows` / `cols`; `get` only keeps a
                    // panic edge out of the sweep.
                    let iy = oy * stride + ky - pad;
                    let ix = (cols.start * stride + kx).saturating_sub(pad);
                    let (Some(os), Some(xs)) = (
                        out_plane.get_mut(oy * ow + cols.start..oy * ow + cols.end),
                        plane.get(iy * w + ix..(iy + 1) * w),
                    ) else {
                        continue;
                    };
                    // `chunks` (not `step_by`) keeps the stride-1 sweep
                    // vectorized.
                    for (o, chunk) in os.iter_mut().zip(xs.chunks(stride)) {
                        if let Some(&v) = chunk.first() {
                            *o = if v > *o { v } else { *o };
                        }
                    }
                }
            }
        }
        for o in out_plane.iter_mut() {
            *o = if *o == f32::NEG_INFINITY { 0.0 } else { *o };
        }
    }
}

/// Nearest-neighbour 2× upsampling into an arena slice, the same copy
/// as [`rtoss_tensor::ops::upsample_nearest2x`]: source row `r` (over
/// all planes) becomes output rows `2r` and `2r + 1`, each element
/// written twice.
fn upsample_nearest2x_into(x: &[f32], x_shape: &[usize], out: &mut [f32]) {
    let w = x_shape[3];
    if w == 0 {
        return;
    }
    for (src, dst) in x.chunks_exact(w).zip(out.chunks_exact_mut(4 * w)) {
        let (top, bottom) = dst.split_at_mut(2 * w);
        for (pair, &v) in top.chunks_exact_mut(2).zip(src) {
            pair.fill(v);
        }
        bottom.copy_from_slice(top);
    }
}

/// Channel concatenation of NCHW slices into `out` — the one body both
/// the plan and the interpreter oracle run.
pub(crate) fn concat_channels_into(
    parts: &[(&[f32], &[usize])],
    out_shape: &[usize],
    out: &mut [f32],
) {
    let (n, total_c, h, w) = (out_shape[0], out_shape[1], out_shape[2], out_shape[3]);
    let plane = h * w;
    for ni in 0..n {
        let mut c_off = 0;
        for &(x, xs) in parts {
            let c = xs[1];
            let src = &x[ni * c * plane..(ni + 1) * c * plane];
            let dst = (ni * total_c + c_off) * plane;
            out[dst..dst + c * plane].copy_from_slice(src);
            c_off += c;
        }
    }
}

/// Opens the `layer:<name>` trace span for a plan step: node, kind,
/// the lane count its level ran on, the plan metadata (fused epilogue
/// kind, arena slot), and the conv geometry for conv steps. Name and
/// args are built lazily — nothing allocates unless the span is
/// actually recorded.
fn step_span(step: &PlanStep, node: &SparseNode, width: usize) -> rtoss_obs::SpanGuard {
    rtoss_obs::span_lazy(|| {
        use rtoss_obs::ArgValue;
        let mut args = vec![
            ("node", ArgValue::U64(step.node as u64)),
            ("kind", ArgValue::Static(node.kind())),
            ("width", ArgValue::U64(width as u64)),
            ("fused", ArgValue::Static(step.fused_label())),
            ("slot", ArgValue::U64(step.out_slot as u64)),
        ];
        if let SparseOp::Conv { layer, .. } = &node.op {
            args.push(("oc", ArgValue::U64(layer.out_channels() as u64)));
            args.push(("ic", ArgValue::U64(layer.in_channels() as u64)));
            args.push(("k", ArgValue::U64(layer.kernel_size() as u64)));
            args.push(("format", ArgValue::Static(step.format)));
            args.push(("nnz", ArgValue::U64(layer.stored_weights() as u64)));
        }
        (format!("layer:{}", node.name), args)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::{EntryPattern, Pruner, RTossPruner};
    use rtoss_models::yolov5s_twin;
    use rtoss_nn::layers::{Activation, BatchNorm2d, Conv2d};
    use rtoss_nn::Graph;
    use rtoss_tensor::init;

    /// input → a → {b, c} → add → out: the smallest graph where slot
    /// recycling kicks in.
    fn diamond_engine() -> SparseModel {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let a = g
            .add_layer("a", Box::new(Conv2d::new(3, 4, 3, 1, 1, 10)), x)
            .unwrap();
        let b = g
            .add_layer("b", Box::new(Conv2d::new(4, 4, 3, 1, 1, 11)), a)
            .unwrap();
        let c = g
            .add_layer("c", Box::new(Conv2d::new(4, 4, 3, 1, 1, 12)), a)
            .unwrap();
        let d = g.add_add("d", b, c).unwrap();
        g.set_outputs(vec![d]).unwrap();
        SparseModel::compile(&g).unwrap()
    }

    #[test]
    fn diamond_graph_recycles_slots() {
        let engine = diamond_engine();
        let plan = ExecutionPlan::compile(&engine, &[1, 3, 8, 8]).unwrap();
        let s = plan.summary_for(&engine);
        // Four steps (a, b, c, add) over fewer arena slots than steps:
        // `a` dies when `c` reads it, so `add` reuses its slot.
        assert_eq!(s.steps.len(), 4);
        assert!(s.slot_caps.len() < s.steps.len(), "no slot reuse: {s:#?}");
        assert!(plan.arena_bytes() < plan.retained_bytes());
        assert!(plan.peak_live_bytes() <= plan.arena_bytes());
        // Slot lifetimes must be disjoint: recompute from the summary.
        for slot in 0..s.slot_caps.len() {
            let mut tenants: Vec<&StepSummary> = s
                .steps
                .iter()
                .enumerate()
                .filter(|(_, st)| st.out_slot == slot)
                .map(|(_, st)| st)
                .collect();
            tenants.sort_by_key(|st| st.node);
            for pair in tenants.windows(2) {
                let (prev, next) = (&pair[0], &pair[1]);
                let next_idx = s.steps.iter().position(|st| st.node == next.node).unwrap();
                assert!(
                    prev.last_use < next_idx,
                    "slot {slot}: {} still live when {} claims it",
                    prev.name,
                    next.name
                );
            }
        }
    }

    #[test]
    fn concat_graph_plans_channel_sum() {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let a = g
            .add_layer("a", Box::new(Conv2d::new(3, 4, 3, 1, 1, 20)), x)
            .unwrap();
        let b = g
            .add_layer("b", Box::new(Conv2d::new(3, 6, 3, 1, 1, 21)), x)
            .unwrap();
        let c = g.add_concat("c", vec![a, b]).unwrap();
        g.set_outputs(vec![c]).unwrap();
        let engine = SparseModel::compile(&g).unwrap();
        let plan = ExecutionPlan::compile(&engine, &[2, 3, 8, 8]).unwrap();
        let s = plan.summary_for(&engine);
        let concat = s.steps.iter().find(|st| st.kind == "concat").unwrap();
        assert_eq!(concat.out_len, 2 * 10 * 8 * 8);
        assert_eq!(concat.last_use, usize::MAX, "output slot is retained");
        // `a` and `b` are both live until the concat runs, and the
        // concat's (larger) output is assigned before they die — three
        // distinct slots, no reuse possible.
        assert_eq!(s.slot_caps.len(), 3);
        let out = engine.forward(&Tensor::ones(&[2, 3, 8, 8])).unwrap();
        assert_eq!(out[0].shape(), &[2, 10, 8, 8]);
    }

    #[test]
    fn conv_bn_act_chain_fuses_into_one_step() {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let a = g
            .add_layer("conv", Box::new(Conv2d::new(3, 4, 3, 1, 1, 30)), x)
            .unwrap();
        let bn = g.add_layer("bn", Box::new(BatchNorm2d::new(4)), a).unwrap();
        let act = g
            .add_layer("act", Box::new(Activation::new(ActivationKind::Silu)), bn)
            .unwrap();
        g.set_outputs(vec![act]).unwrap();
        let engine = SparseModel::compile(&g).unwrap();
        let plan = ExecutionPlan::compile(&engine, &[1, 3, 8, 8]).unwrap();
        assert_eq!(
            plan.num_steps(),
            1,
            "chain should collapse to one conv step"
        );
        let s = plan.summary_for(&engine);
        assert_eq!(s.steps[0].fused, "affine+act");
        assert_eq!(s.steps[0].kind, "conv");
        assert_eq!(s.steps[0].format, "pattern");
        // Fused output is bit-identical to the unfused interpreter.
        let probe = init::uniform(&mut init::rng(31), &[1, 3, 8, 8], -1.0, 1.0);
        let planned = engine.forward(&probe).unwrap();
        let interp = engine
            .forward_interpreted_with(&probe, &ExecConfig::serial())
            .unwrap();
        assert_eq!(planned[0].as_slice(), interp[0].as_slice());
    }

    #[test]
    fn bn_not_after_conv_is_not_fused() {
        // maxpool → bn: the affine has no conv producer to fuse into.
        let mut g = Graph::new();
        let x = g.add_input("x");
        let a = g
            .add_layer("conv", Box::new(Conv2d::new(3, 4, 3, 2, 1, 40)), x)
            .unwrap();
        let p = g
            .add_layer(
                "pool",
                Box::new(rtoss_nn::layers::MaxPool2d::new(2, 2, 0)),
                a,
            )
            .unwrap();
        let bn = g.add_layer("bn", Box::new(BatchNorm2d::new(4)), p).unwrap();
        g.set_outputs(vec![bn]).unwrap();
        let engine = SparseModel::compile(&g).unwrap();
        let plan = ExecutionPlan::compile(&engine, &[1, 3, 16, 16]).unwrap();
        let s = plan.summary_for(&engine);
        assert_eq!(plan.num_steps(), 3);
        assert!(s.steps.iter().all(|st| st.fused == "none"));
        let formats: Vec<&str> = s.steps.iter().map(|st| st.format).collect();
        assert_eq!(formats, ["pattern", "-", "-"]);
        let probe = init::uniform(&mut init::rng(41), &[1, 3, 16, 16], -1.0, 1.0);
        let planned = engine.forward(&probe).unwrap();
        let interp = engine
            .forward_interpreted_with(&probe, &ExecConfig::serial())
            .unwrap();
        assert_eq!(planned[0].as_slice(), interp[0].as_slice());
    }

    #[test]
    fn tapped_intermediate_output_is_retained() {
        // `b` is both consumed by `d` and a declared output: its slot
        // must never be recycled, and the tensor must surface intact.
        let mut g = Graph::new();
        let x = g.add_input("x");
        let a = g
            .add_layer("a", Box::new(Conv2d::new(3, 4, 3, 1, 1, 50)), x)
            .unwrap();
        let b = g
            .add_layer("b", Box::new(Conv2d::new(4, 4, 3, 1, 1, 51)), a)
            .unwrap();
        let c = g
            .add_layer("c", Box::new(Conv2d::new(4, 4, 3, 1, 1, 52)), b)
            .unwrap();
        let d = g.add_add("d", b, c).unwrap();
        g.set_outputs(vec![b, d]).unwrap();
        let engine = SparseModel::compile(&g).unwrap();
        let probe = init::uniform(&mut init::rng(53), &[1, 3, 8, 8], -1.0, 1.0);
        let planned = engine.forward(&probe).unwrap();
        let interp = engine
            .forward_interpreted_with(&probe, &ExecConfig::serial())
            .unwrap();
        assert_eq!(planned.len(), 2);
        for (p, i) in planned.iter().zip(&interp) {
            assert_eq!(p.as_slice(), i.as_slice());
        }
    }

    #[test]
    fn plan_cache_reuses_compiled_plans_per_shape() {
        let engine = diamond_engine();
        let p1 = engine.plan_for(&[1, 3, 8, 8]).unwrap();
        let p2 = engine.plan_for(&[1, 3, 8, 8]).unwrap();
        assert!(std::sync::Arc::ptr_eq(&p1, &p2), "same shape, same plan");
        let p3 = engine.plan_for(&[2, 3, 8, 8]).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&p1, &p3));
        assert_eq!(
            engine.peak_activation_bytes(),
            Some(p1.arena_bytes().max(p3.arena_bytes()))
        );
    }

    #[test]
    fn plan_rejects_mismatched_input_shape() {
        let engine = diamond_engine();
        let plan = engine.plan_for(&[1, 3, 8, 8]).unwrap();
        let wrong = Tensor::ones(&[1, 3, 16, 16]);
        assert!(plan.run(&engine, &wrong, &ExecConfig::serial()).is_err());
        // Shape errors surface at plan time, not mid-run.
        assert!(engine.plan_for(&[1, 5, 8, 8]).is_err());
    }

    #[test]
    fn planned_twin_beats_interpreter_on_memory() {
        let mut m = yolov5s_twin(4, 2, 60).unwrap();
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .unwrap();
        let engine = SparseModel::compile(&m.graph).unwrap();
        let plan = engine.plan_for(&[1, 3, 32, 32]).unwrap();
        assert!(
            plan.arena_bytes() < plan.retained_bytes(),
            "arena {} vs retained {}",
            plan.arena_bytes(),
            plan.retained_bytes()
        );
        let s = plan.summary_for(&engine);
        assert!(
            s.steps.iter().any(|st| st.fused == "affine+act"),
            "twin should have fusable conv→bn→act chains"
        );
        assert!(s.steps.len() < engine.conv_layers().len() * 3);
    }

    #[test]
    fn interpreter_frees_activations_without_changing_outputs() {
        // The interpreter drops each activation after its last
        // consumer; repeated calls must agree exactly with each other
        // and with the planned forward (no freed buffer is ever read).
        let mut m = yolov5s_twin(4, 2, 61).unwrap();
        RTossPruner::new(EntryPattern::Three)
            .prune_graph(&mut m.graph)
            .unwrap();
        let engine = SparseModel::compile(&m.graph).unwrap();
        let probe = init::uniform(&mut init::rng(62), &[1, 3, 32, 32], 0.0, 1.0);
        let serial = ExecConfig::serial();
        let one = engine.forward_interpreted_with(&probe, &serial).unwrap();
        let two = engine.forward_interpreted_with(&probe, &serial).unwrap();
        let planned = engine.forward(&probe).unwrap();
        assert!(!one.is_empty());
        assert_eq!(one.len(), two.len());
        assert_eq!(one.len(), planned.len());
        for ((a, b), p) in one.iter().zip(&two).zip(&planned) {
            assert_eq!(a.as_slice(), b.as_slice());
            assert_eq!(a.as_slice(), p.as_slice());
        }
    }

    #[test]
    fn input_passthrough_output_is_cloned() {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let a = g
            .add_layer("a", Box::new(Conv2d::new(3, 4, 3, 1, 1, 70)), x)
            .unwrap();
        g.set_outputs(vec![x, a]).unwrap();
        let engine = SparseModel::compile(&g).unwrap();
        let probe = init::uniform(&mut init::rng(71), &[1, 3, 8, 8], -1.0, 1.0);
        let planned = engine.forward(&probe).unwrap();
        let interp = engine
            .forward_interpreted_with(&probe, &ExecConfig::serial())
            .unwrap();
        assert_eq!(planned[0].as_slice(), probe.as_slice());
        for (p, i) in planned.iter().zip(&interp) {
            assert_eq!(p.as_slice(), i.as_slice());
        }
    }

    #[test]
    fn levels_respect_data_dependencies_and_slot_disjointness() {
        let mut m = yolov5s_twin(4, 2, 80).unwrap();
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .unwrap();
        let engine = SparseModel::compile(&m.graph).unwrap();
        let plan = engine.plan_for(&[1, 3, 32, 32]).unwrap();
        let s = plan.summary_for(&engine);
        // The PANet twin has independent branches: at least one level
        // must hold ≥ 2 steps, or "graph-level parallelism" is vacuous.
        let max_width = s
            .steps
            .iter()
            .map(|st| s.steps.iter().filter(|o| o.level == st.level).count())
            .max()
            .unwrap();
        assert!(max_width >= 2, "no level with independent steps");
        for (i, st) in s.steps.iter().enumerate() {
            // Every operand lives in a strictly earlier level.
            for src in st.inputs.iter().flatten() {
                assert!(
                    s.steps[*src].level < st.level,
                    "step {i} (level {}) reads step {src} (level {})",
                    st.level,
                    s.steps[*src].level
                );
            }
        }
        // Slot tenancy windows, in step order: a later tenant's level
        // must be strictly greater than the deepest consuming level of
        // the previous tenant (so they can never be concurrently live).
        for slot in 0..s.slot_caps.len() {
            let tenants: Vec<usize> = (0..s.steps.len())
                .filter(|&i| s.steps[i].out_slot == slot)
                .collect();
            for pair in tenants.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert_ne!(s.steps[a].last_use, usize::MAX, "retained slot reused");
                let mut end_level = s.steps[a].level;
                for st in &s.steps {
                    if st.inputs.iter().flatten().any(|src| *src == a) {
                        end_level = end_level.max(st.level);
                    }
                }
                assert!(
                    end_level < s.steps[b].level,
                    "slot {slot}: step {b} (level {}) claims it while step {a} \
                     is still consumed at level {end_level}",
                    s.steps[b].level
                );
            }
        }
    }

    #[test]
    fn parallel_plan_is_bit_identical_to_serial_plan() {
        // Force a real multi-worker pool so the level-parallel path is
        // exercised even on a single-core host, then require bitwise
        // equality against the serial schedule and the interpreter.
        let pool = WorkerPool::new(3);
        let mut m = yolov5s_twin(4, 2, 81).unwrap();
        RTossPruner::new(EntryPattern::Three)
            .prune_graph(&mut m.graph)
            .unwrap();
        let engine = SparseModel::compile(&m.graph).unwrap();
        let plan = engine.plan_for(&[1, 3, 32, 32]).unwrap();
        let probe = init::uniform(&mut init::rng(82), &[1, 3, 32, 32], -1.0, 1.0);
        let serial = plan
            .run_with_pool(&engine, &probe, &ExecConfig::serial(), &pool)
            .unwrap();
        let interp = engine
            .forward_interpreted_with(&probe, &ExecConfig::serial())
            .unwrap();
        for threads in [2, 4, 8] {
            for _rep in 0..3 {
                let par = plan
                    .run_with_pool(&engine, &probe, &ExecConfig::with_threads(threads), &pool)
                    .unwrap();
                assert_eq!(par.len(), serial.len());
                for ((p, s), i) in par.iter().zip(&serial).zip(&interp) {
                    assert_eq!(p.shape(), s.shape());
                    let pb: Vec<u32> = p.as_slice().iter().map(|v| v.to_bits()).collect();
                    let sb: Vec<u32> = s.as_slice().iter().map(|v| v.to_bits()).collect();
                    let ib: Vec<u32> = i.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(pb, sb, "parallel ({threads} threads) != serial plan");
                    assert_eq!(pb, ib, "parallel ({threads} threads) != interpreter");
                }
            }
        }
    }

    #[test]
    fn parallel_plan_handles_tapped_outputs_and_concat() {
        // Branchy graph with a retained intermediate output, executed
        // wide: exercises extern-reading steps on the caller, pooled
        // chunks, and the read-locked shared-output copy path.
        let pool = WorkerPool::new(2);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let a = g
            .add_layer("a", Box::new(Conv2d::new(3, 4, 3, 1, 1, 90)), x)
            .unwrap();
        let b = g
            .add_layer("b", Box::new(Conv2d::new(3, 6, 3, 1, 1, 91)), x)
            .unwrap();
        let c = g.add_concat("c", vec![a, b]).unwrap();
        let d = g
            .add_layer("d", Box::new(Conv2d::new(10, 4, 3, 1, 1, 92)), c)
            .unwrap();
        g.set_outputs(vec![a, d, a]).unwrap();
        let engine = SparseModel::compile(&g).unwrap();
        let plan = engine.plan_for(&[1, 3, 8, 8]).unwrap();
        let probe = init::uniform(&mut init::rng(93), &[1, 3, 8, 8], -1.0, 1.0);
        let serial = plan
            .run_with_pool(&engine, &probe, &ExecConfig::serial(), &pool)
            .unwrap();
        let par = plan
            .run_with_pool(&engine, &probe, &ExecConfig::with_threads(4), &pool)
            .unwrap();
        assert_eq!(serial.len(), 3);
        for (p, s) in par.iter().zip(&serial) {
            assert_eq!(p.as_slice(), s.as_slice());
        }
    }
}
