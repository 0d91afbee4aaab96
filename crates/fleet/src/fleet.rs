//! The fleet: N tiered replicas behind a consistent-hash router with
//! tenant admission and a background degradation controller.
//!
//! Request path (all synchronous, no async runtime):
//!
//! 1. **Quota** — the tenant's token bucket; an empty bucket throttles.
//! 2. **Route** — consistent hash on the stream key for cache affinity;
//!    if the affine replica's queue is above the spill threshold, fall
//!    back to the least-outstanding replica.
//! 3. **Class admission** — the chosen replica's queue-depth fraction
//!    must be below the tenant class's admission bound (Bulk sheds
//!    first, Gold last).
//! 4. **Enqueue** — the replica's own bounded queue applies its
//!    backpressure policy; queue-level refusals also count as fleet
//!    sheds so the tenant ledger stays conserved (RV062).
//!
//! A control thread samples every replica each `control_interval`:
//! queue-depth fraction and the deadline-miss rate since the last tick
//! drive that replica's [`TierController`], and tier changes flip the
//! replica's [`TieredEngine`] atomically. With `controller: None` the
//! fleet serves pinned at tier 0 — the no-degradation baseline the
//! degradation controller must beat under overload (root test
//! `tests/fleet_overload.rs`).

use rtoss_obs as obs;
use rtoss_serve::{
    QueueDepthHandle, RequestError, ServeConfig, ServeModel, Server, ServerMetrics, Ticket,
};
use rtoss_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::TieredEngine;
use crate::metrics::{
    FleetMetrics, FleetSnapshot, ReplicaSnapshot, TenantCounters, TenantSnapshot,
    TierServedSnapshot,
};
use crate::ring::HashRing;
use crate::telemetry::{AdmissionOutcome, FleetTelemetry, ReplicaObservation, TelemetryConfig};
use crate::tenant::{SloClass, TenantSpec, TokenBucket};
use crate::tier::{TierController, TierControllerConfig, TierSpec};

/// Why the fleet refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// The tenant id is not registered with the fleet.
    UnknownTenant(String),
    /// The tenant's token bucket is empty.
    Throttled,
    /// Pressure admission refused the request (class gate, or the
    /// replica queue itself). Carries the queue error when the refusal
    /// came from the queue.
    Shed(Option<RequestError>),
    /// The fleet is shutting down.
    ShutDown,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownTenant(id) => write!(f, "unknown tenant {id:?}"),
            FleetError::Throttled => write!(f, "tenant quota exhausted: request throttled"),
            FleetError::Shed(Some(e)) => write!(f, "shed at admission: {e}"),
            FleetError::Shed(None) => write!(f, "shed at admission: replica over pressure bound"),
            FleetError::ShutDown => write!(f, "fleet shut down"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Fleet construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of replicas.
    pub replicas: usize,
    /// Virtual nodes per replica on the routing ring.
    pub vnodes: usize,
    /// Queue-depth fraction of the hash-affine replica above which the
    /// router spills to the least-outstanding replica.
    pub spill_threshold: f64,
    /// Per-replica server template (workers, queue, batching, exec).
    pub serve: ServeConfig,
    /// Degradation controller tuning; `None` pins every replica at
    /// tier 0 (no degradation — the baseline configuration).
    pub controller: Option<TierControllerConfig>,
    /// Control-loop sampling period.
    pub control_interval: Duration,
    /// Registered tenants.
    pub tenants: Vec<TenantSpec>,
    /// SLO telemetry (windowed series, burn-rate alerts, flight
    /// recorder); `None` disables the telemetry plane entirely. Even
    /// when configured, recording is inert until
    /// `rtoss_obs::set_series_enabled` (or `RTOSS_SERIES=1`).
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 2,
            vnodes: 32,
            spill_threshold: 0.75,
            serve: ServeConfig::default(),
            controller: Some(TierControllerConfig::default()),
            control_interval: Duration::from_millis(5),
            tenants: vec![TenantSpec::new("default", SloClass::Silver, 1e6, 1e6)],
            telemetry: None,
        }
    }
}

struct TenantState {
    spec: TenantSpec,
    bucket: Mutex<TokenBucket>,
}

struct Replica {
    server: Server,
    engine: Arc<TieredEngine>,
    depth: QueueDepthHandle,
    capacity: usize,
}

/// A running fleet of tiered replicas.
pub struct Fleet {
    replicas: Vec<Replica>,
    ring: HashRing,
    spill_threshold: f64,
    tenants: BTreeMap<String, TenantState>,
    metrics: Arc<FleetMetrics>,
    tier_specs: Vec<TierSpec>,
    serve: ServeConfig,
    stop: Arc<AtomicBool>,
    controller: Option<JoinHandle<()>>,
    telemetry: Option<Arc<FleetTelemetry>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("replicas", &self.replicas.len())
            .field("tiers", &self.tier_specs)
            .field("tenants", &self.tenants.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Fleet {
    /// Starts `config.replicas` replicas, each holding every tier of
    /// `tiers` (densest first; the `Arc`s are shared across replicas —
    /// weights are immutable) behind its own bounded queue and
    /// panic-isolated worker pool.
    ///
    /// `serve.exec.threads` is passed through unchanged to every
    /// replica: for sparse engines it is the graph-level width of the
    /// levelled plan scheduler (bit-identical at every width), the
    /// only parallelism an engine has — every op body is serial.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration is structurally invalid
    /// (no replicas, empty/duplicate tiers, duplicate tenants, or an
    /// invalid controller config).
    pub fn start(
        tiers: Vec<(TierSpec, Arc<dyn ServeModel>)>,
        config: FleetConfig,
    ) -> Result<Self, String> {
        if config.replicas == 0 {
            return Err("fleet needs at least one replica".into());
        }
        if config.vnodes == 0 {
            return Err("fleet needs at least one vnode per replica".into());
        }
        if let Some(cc) = &config.controller {
            let problems = cc.validate();
            if !problems.is_empty() {
                return Err(format!(
                    "invalid controller config: {}",
                    problems.join("; ")
                ));
            }
        }
        let serve = config.serve.clone();
        let tier_specs: Vec<TierSpec> = tiers.iter().map(|(s, _)| s.clone()).collect();
        let mut replicas = Vec::with_capacity(config.replicas);
        for _ in 0..config.replicas {
            let engine = Arc::new(TieredEngine::new(tiers.clone())?);
            let server = Server::start(engine.clone(), serve.clone());
            let depth = server.queue_depth_handle();
            replicas.push(Replica {
                server,
                engine,
                depth,
                capacity: serve.queue_capacity.max(1),
            });
        }
        let (mut metrics, _) =
            FleetMetrics::new(config.tenants.iter().map(|t| (t.id.clone(), t.class)));
        if metrics.tenants.len() != config.tenants.len() {
            return Err("duplicate tenant ids".into());
        }
        // Ensure every tenant has a ledger even if FleetMetrics::new
        // deduplicated differently-cased ids in the future.
        for t in &config.tenants {
            metrics
                .tenants
                .entry(t.id.clone())
                .or_insert_with(TenantCounters::default);
        }
        let metrics = Arc::new(metrics);
        let now = Instant::now();
        let tenants: BTreeMap<String, TenantState> = config
            .tenants
            .iter()
            .map(|spec| {
                (
                    spec.id.clone(),
                    TenantState {
                        spec: spec.clone(),
                        bucket: Mutex::new(TokenBucket::new(spec.quota_rps, spec.burst, now)),
                    },
                )
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let telemetry = config
            .telemetry
            .map(|tc| FleetTelemetry::new(tc, &config.tenants, config.replicas))
            .transpose()?
            .map(Arc::new);
        let controller = if config.controller.is_some() || telemetry.is_some() {
            Some(spawn_control_loop(
                config.controller,
                telemetry.clone(),
                config.control_interval,
                replicas
                    .iter()
                    .map(|r| ControllerProbe {
                        engine: r.engine.clone(),
                        metrics: r.server.metrics(),
                        depth: r.depth.clone(),
                        capacity: r.capacity,
                    })
                    .collect(),
                metrics.clone(),
                stop.clone(),
            ))
        } else {
            None
        };
        Ok(Fleet {
            replicas,
            ring: HashRing::new(config.replicas, config.vnodes),
            spill_threshold: config.spill_threshold.clamp(0.0, 1.0),
            tenants,
            metrics,
            tier_specs,
            serve,
            stop,
            controller,
            telemetry,
        })
    }

    /// The telemetry plane, when configured. The `Arc` stays valid
    /// past [`shutdown`](Self::shutdown) — clone it first to read the
    /// settled series afterwards.
    pub fn telemetry(&self) -> Option<Arc<FleetTelemetry>> {
        self.telemetry.clone()
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Tier specs shared by every replica, densest first.
    pub fn tier_specs(&self) -> &[TierSpec] {
        &self.tier_specs
    }

    /// The routing ring (for verification and tests).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Execution threads each replica runs with — for sparse engines,
    /// the graph-level width of the plan scheduler. Always the
    /// configured value; the fleet no longer clamps it.
    pub fn exec_threads(&self) -> usize {
        self.serve.exec.threads
    }

    /// Submits one request on behalf of `tenant`, routed by
    /// `stream_key`. `deadline` overrides the tenant's default budget.
    ///
    /// # Errors
    ///
    /// [`FleetError::Throttled`] when the quota is exhausted,
    /// [`FleetError::Shed`] when pressure admission or the replica
    /// queue refuses, [`FleetError::UnknownTenant`] for an unregistered
    /// id. Every outcome is tallied in the tenant's ledger.
    pub fn submit(
        &self,
        tenant: &str,
        stream_key: &str,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket, FleetError> {
        let state = self
            .tenants
            .get(tenant)
            .ok_or_else(|| FleetError::UnknownTenant(tenant.to_string()))?;
        let ledger = &self.metrics.tenants[tenant];
        ledger.offered.incr();

        let now = Instant::now();
        let admitted_by_quota = {
            let mut bucket = state.bucket.lock().unwrap_or_else(|e| e.into_inner());
            bucket.try_take(now)
        };
        if !admitted_by_quota {
            ledger.throttled.incr();
            self.record_admission(tenant, now, AdmissionOutcome::Throttled);
            obs::emit_instant_lazy(|| {
                (
                    "fleet_throttle",
                    vec![("tenant", obs::ArgValue::Str(tenant.to_string()))],
                )
            });
            return Err(FleetError::Throttled);
        }

        // Route: hash affinity, spilling off an overloaded replica. A
        // ring with no routable vnode degrades to least-outstanding
        // rather than panicking mid-request.
        let affine = match self.ring.route(stream_key) {
            Some(replica) => replica,
            None => self.least_outstanding(),
        };
        let affine_frac = self.depth_frac(affine);
        let (replica, spilled) = if affine_frac >= self.spill_threshold {
            let least = self.least_outstanding();
            (least, least != affine)
        } else {
            (affine, false)
        };

        // Class-pressure admission against the chosen replica.
        let class = state.spec.class;
        if self.depth_frac(replica) >= class.admit_depth_frac() {
            ledger.shed.incr();
            self.record_admission(tenant, now, AdmissionOutcome::Shed);
            obs::emit_instant_lazy(|| {
                (
                    "fleet_shed",
                    vec![
                        ("tenant", obs::ArgValue::Str(tenant.to_string())),
                        ("replica", obs::ArgValue::U64(replica as u64)),
                    ],
                )
            });
            return Err(FleetError::Shed(None));
        }

        let deadline = deadline.or(state.spec.deadline);
        match self.replicas[replica].server.submit(input, deadline) {
            Ok(ticket) => {
                ledger.admitted.incr();
                self.record_admission(tenant, now, AdmissionOutcome::Admitted);
                if spilled {
                    self.metrics.routed_spill.incr();
                } else {
                    self.metrics.routed_affinity.incr();
                }
                obs::emit_instant_lazy(|| {
                    (
                        "fleet_route",
                        vec![
                            ("tenant", obs::ArgValue::Str(tenant.to_string())),
                            ("replica", obs::ArgValue::U64(replica as u64)),
                            ("spill", obs::ArgValue::U64(spilled as u64)),
                        ],
                    )
                });
                Ok(ticket)
            }
            Err(RequestError::ShutDown) => {
                // Shutdown refusals are not pressure sheds; keep the
                // ledger conserved by folding them into `shed` anyway
                // (the request was offered and not admitted), but
                // surface the distinct error.
                ledger.shed.incr();
                self.record_admission(tenant, now, AdmissionOutcome::Shed);
                Err(FleetError::ShutDown)
            }
            Err(e) => {
                ledger.shed.incr();
                self.record_admission(tenant, now, AdmissionOutcome::Shed);
                Err(FleetError::Shed(Some(e)))
            }
        }
    }

    /// Mirrors one ledger outcome into the telemetry series (same
    /// `Instant`, so every lane of a request lands in the same
    /// window).
    fn record_admission(&self, tenant: &str, at: Instant, outcome: AdmissionOutcome) {
        if let Some(tel) = &self.telemetry {
            tel.record_admission(tenant, obs::ts_ns(at), outcome);
        }
    }

    /// Hot-swaps the model serving tier `tier` on **every** replica.
    /// Each incoming model is prewarmed for all micro-batch sizes
    /// before it becomes visible (same shapes `Server::start` prewarms).
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range tier.
    pub fn swap_tier_model(&self, tier: usize, model: Arc<dyn ServeModel>) -> Result<(), String> {
        let shapes = prewarm_shapes(&self.serve);
        for r in &self.replicas {
            r.engine
                .swap_model(tier, model.clone(), &shapes, &self.serve.exec)?;
        }
        self.metrics.hot_swaps.incr();
        obs::emit_instant_lazy(|| {
            (
                "fleet_hot_swap",
                vec![("tier", obs::ArgValue::U64(tier as u64))],
            )
        });
        Ok(())
    }

    /// Point-in-time fleet snapshot (tenant ledgers, per-replica server
    /// metrics, served-tier mix, routing/controller tallies).
    pub fn snapshot(&self) -> FleetSnapshot {
        let tenants = self
            .tenants
            .iter()
            .map(|(id, state)| {
                let c = &self.metrics.tenants[id];
                TenantSnapshot {
                    id: id.clone(),
                    class: state.spec.class.label().to_string(),
                    offered: c.offered.get(),
                    admitted: c.admitted.get(),
                    throttled: c.throttled.get(),
                    shed: c.shed.get(),
                }
            })
            .collect();
        let replicas = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| ReplicaSnapshot {
                replica: i,
                current_tier: r.engine.current_tier(),
                queue_depth: r.depth.len(),
                tiers: r
                    .engine
                    .served()
                    .into_iter()
                    .map(|(tier, map_estimate, batches, frames)| TierServedSnapshot {
                        tier,
                        map_estimate,
                        batches,
                        frames,
                    })
                    .collect(),
                server: r.server.metrics().snapshot(),
            })
            .collect();
        FleetSnapshot {
            tenants,
            replicas,
            routed_affinity: self.metrics.routed_affinity.get(),
            routed_spill: self.metrics.routed_spill.get(),
            tier_upgrades: self.metrics.tier_upgrades.get(),
            tier_downgrades: self.metrics.tier_downgrades.get(),
            hot_swaps: self.metrics.hot_swaps.get(),
        }
    }

    /// Stops the controller, drains and joins every replica, and
    /// returns the final snapshot (taken *after* every ticket has
    /// resolved, so the terminal counters are settled).
    pub fn shutdown(mut self) -> FleetSnapshot {
        self.stop_controller();
        // Keep the engine/metrics handles alive past the servers so the
        // final snapshot sees fully-settled counters.
        let kept: Vec<(Arc<TieredEngine>, Arc<ServerMetrics>)> = self
            .replicas
            .iter()
            .map(|r| (r.engine.clone(), r.server.metrics()))
            .collect();
        for r in self.replicas.drain(..) {
            r.server.shutdown();
        }
        let tenants = self
            .tenants
            .iter()
            .map(|(id, state)| {
                let c = &self.metrics.tenants[id];
                TenantSnapshot {
                    id: id.clone(),
                    class: state.spec.class.label().to_string(),
                    offered: c.offered.get(),
                    admitted: c.admitted.get(),
                    throttled: c.throttled.get(),
                    shed: c.shed.get(),
                }
            })
            .collect();
        let replicas = kept
            .into_iter()
            .enumerate()
            .map(|(i, (engine, metrics))| ReplicaSnapshot {
                replica: i,
                current_tier: engine.current_tier(),
                queue_depth: 0,
                tiers: engine
                    .served()
                    .into_iter()
                    .map(|(tier, map_estimate, batches, frames)| TierServedSnapshot {
                        tier,
                        map_estimate,
                        batches,
                        frames,
                    })
                    .collect(),
                server: metrics.snapshot(),
            })
            .collect();
        FleetSnapshot {
            tenants,
            replicas,
            routed_affinity: self.metrics.routed_affinity.get(),
            routed_spill: self.metrics.routed_spill.get(),
            tier_upgrades: self.metrics.tier_upgrades.get(),
            tier_downgrades: self.metrics.tier_downgrades.get(),
            hot_swaps: self.metrics.hot_swaps.get(),
        }
    }

    fn stop_controller(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.controller.take() {
            let _ = h.join();
        }
    }

    fn depth_frac(&self, replica: usize) -> f64 {
        let r = &self.replicas[replica];
        r.depth.len() as f64 / r.capacity as f64
    }

    fn least_outstanding(&self) -> usize {
        self.replicas
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.depth.len())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Prewarm shapes matching `Server::start`'s policy: every micro-batch
/// size `1..=max_batch` of the configured single-frame shape.
fn prewarm_shapes(serve: &ServeConfig) -> Vec<Vec<usize>> {
    let Some(frame) = &serve.prewarm else {
        return Vec::new();
    };
    let Some((&frames, rest)) = frame.split_first() else {
        return Vec::new();
    };
    (1..=serve.max_batch.max(1))
        .map(|b| {
            let mut shape = Vec::with_capacity(frame.len());
            shape.push(frames.max(1) * b);
            shape.extend_from_slice(rest);
            shape
        })
        .collect()
}

struct ControllerProbe {
    engine: Arc<TieredEngine>,
    metrics: Arc<ServerMetrics>,
    depth: QueueDepthHandle,
    capacity: usize,
}

fn spawn_control_loop(
    cfg: Option<TierControllerConfig>,
    telemetry: Option<Arc<FleetTelemetry>>,
    interval: Duration,
    probes: Vec<ControllerProbe>,
    fleet_metrics: Arc<FleetMetrics>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut controllers: Option<Vec<TierController>> = cfg.map(|cc| {
            probes
                .iter()
                .map(|p| TierController::new(cc, p.engine.num_tiers()))
                .collect()
        });
        // Per-replica (completed, deadline_missed) at the previous tick.
        let mut last: Vec<(u64, u64)> = probes.iter().map(|_| (0, 0)).collect();
        while !stop.load(Ordering::Acquire) {
            std::thread::sleep(interval);
            let now = Instant::now();
            let ts = obs::ts_ns(now);
            if let Some(controllers) = controllers.as_mut() {
                for (i, probe) in probes.iter().enumerate() {
                    let completed = probe.metrics.completed.get();
                    let missed = probe.metrics.deadline_missed.get();
                    let (c0, m0) = last[i];
                    let dc = completed.saturating_sub(c0);
                    let dm = missed.saturating_sub(m0);
                    last[i] = (completed, missed);
                    let miss_sample = if dc == 0 { 0.0 } else { dm as f64 / dc as f64 };
                    let queue_frac = probe.depth.len() as f64 / probe.capacity as f64;
                    let before = controllers[i].level();
                    let after = controllers[i].observe(queue_frac, miss_sample, now);
                    if after != before {
                        if after > before {
                            fleet_metrics.tier_downgrades.incr();
                        } else {
                            fleet_metrics.tier_upgrades.incr();
                        }
                        probe.engine.set_tier(after);
                        if let Some(tel) = &telemetry {
                            tel.record_tier_change(ts, i, before, after);
                        }
                        obs::emit_instant_lazy(|| {
                            (
                                "tier_change",
                                vec![
                                    ("replica", obs::ArgValue::U64(i as u64)),
                                    ("from", obs::ArgValue::U64(before as u64)),
                                    ("to", obs::ArgValue::U64(after as u64)),
                                ],
                            )
                        });
                    }
                }
            }
            if let Some(tel) = &telemetry {
                let observations: Vec<ReplicaObservation> = probes
                    .iter()
                    .map(|p| ReplicaObservation {
                        queue_frac: p.depth.len() as f64 / p.capacity as f64,
                        tier: p.engine.current_tier(),
                        metrics: &p.metrics,
                    })
                    .collect();
                tel.tick(ts, &observations);
            }
        }
    })
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop_controller();
        for r in self.replicas.drain(..) {
            r.server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_serve::BackpressurePolicy;
    use rtoss_tensor::ExecConfig;

    struct Echo {
        delay: Duration,
    }

    impl ServeModel for Echo {
        fn run_batch(&self, batch: &Tensor, _exec: &ExecConfig) -> Result<Vec<Tensor>, String> {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            Ok(vec![batch.clone()])
        }
    }

    fn echo(delay: Duration) -> Arc<dyn ServeModel> {
        Arc::new(Echo { delay })
    }

    fn tiers(delay: Duration) -> Vec<(TierSpec, Arc<dyn ServeModel>)> {
        vec![
            (TierSpec::new("dense", 75.0), echo(delay)),
            (TierSpec::new("3EP", 74.0), echo(delay / 2)),
            (TierSpec::new("2EP", 72.0), echo(delay / 4)),
        ]
    }

    #[test]
    fn serves_tenants_and_conserves_the_ledger() {
        let fleet = Fleet::start(
            tiers(Duration::ZERO),
            FleetConfig {
                replicas: 2,
                tenants: vec![
                    TenantSpec::new("gold", SloClass::Gold, 1e6, 1e6),
                    TenantSpec::new("bulk", SloClass::Bulk, 1e6, 1e6),
                ],
                controller: None,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let mut tickets = Vec::new();
        for i in 0..40 {
            let tenant = if i % 2 == 0 { "gold" } else { "bulk" };
            let key = format!("{tenant}/stream-{}", i % 4);
            tickets.push(
                fleet
                    .submit(tenant, &key, Tensor::zeros(&[1, 1, 4, 4]), None)
                    .unwrap(),
            );
        }
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        assert!(matches!(
            fleet.submit("nobody", "k", Tensor::zeros(&[1, 1, 4, 4]), None),
            Err(FleetError::UnknownTenant(_))
        ));
        let snap = fleet.shutdown();
        for t in &snap.tenants {
            assert_eq!(t.offered, t.accounted(), "ledger leak for {}", t.id);
            assert_eq!(t.offered, 20);
            assert_eq!(t.admitted, 20);
        }
        assert_eq!(snap.routed_affinity + snap.routed_spill, 40);
        // Pinned fleet: everything served on tier 0.
        assert_eq!(snap.tier_mix()["dense"], 40);
        assert_eq!(snap.tier_mix()["3EP"], 0);
        assert!((snap.served_map_mean().unwrap() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn quota_throttles_and_stays_conserved() {
        let fleet = Fleet::start(
            tiers(Duration::ZERO),
            FleetConfig {
                replicas: 1,
                // 2-token burst, negligible refill: 3rd request throttles.
                tenants: vec![TenantSpec::new("t", SloClass::Silver, 1e-6, 2.0)],
                controller: None,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let a = fleet.submit("t", "k", Tensor::zeros(&[1, 1, 4, 4]), None);
        let b = fleet.submit("t", "k", Tensor::zeros(&[1, 1, 4, 4]), None);
        let c = fleet.submit("t", "k", Tensor::zeros(&[1, 1, 4, 4]), None);
        assert!(a.is_ok() && b.is_ok());
        assert!(matches!(c, Err(FleetError::Throttled)));
        a.unwrap().wait().unwrap();
        b.unwrap().wait().unwrap();
        let snap = fleet.shutdown();
        let t = &snap.tenants[0];
        assert_eq!((t.offered, t.admitted, t.throttled, t.shed), (3, 2, 1, 0));
    }

    #[test]
    fn overload_degrades_tiers_and_recovery_upgrades() {
        let fleet = Fleet::start(
            tiers(Duration::from_millis(4)),
            FleetConfig {
                replicas: 1,
                serve: ServeConfig {
                    workers: 1,
                    queue_capacity: 8,
                    max_batch: 1,
                    batch_timeout: Duration::ZERO,
                    policy: BackpressurePolicy::ShedExpired,
                    ..ServeConfig::default()
                },
                controller: Some(TierControllerConfig {
                    dwell: Duration::from_millis(2),
                    ..TierControllerConfig::default()
                }),
                control_interval: Duration::from_millis(1),
                tenants: vec![TenantSpec::new("cam", SloClass::Gold, 1e6, 1e6)],
                ..FleetConfig::default()
            },
        )
        .unwrap();
        // Flood far beyond the replica's capacity with tight deadlines.
        let mut tickets = Vec::new();
        for i in 0..300 {
            if let Ok(t) = fleet.submit(
                "cam",
                &format!("cam/{}", i % 3),
                Tensor::zeros(&[1, 1, 4, 4]),
                Some(Duration::from_millis(8)),
            ) {
                tickets.push(t);
            }
        }
        for t in tickets {
            let _ = t.wait();
        }
        // Give the controller time to observe the now-idle fleet.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = fleet.snapshot();
            if (snap.tier_downgrades >= 1 && snap.replicas[0].current_tier == 0)
                || Instant::now() > deadline
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = fleet.shutdown();
        assert!(
            snap.tier_downgrades >= 1,
            "sustained overload never degraded: {snap:?}"
        );
        assert!(
            snap.tier_upgrades >= 1,
            "pressure cleared but the fleet never upgraded: {snap:?}"
        );
        assert_eq!(snap.replicas[0].current_tier, 0, "did not recover to dense");
        // Some work was actually served on a sparser tier.
        let mix = snap.tier_mix();
        assert!(mix["3EP"] + mix["2EP"] > 0, "no degraded serving: {mix:?}");
    }

    #[test]
    fn replicas_keep_configured_threads() {
        // The configured width reaches every replica unchanged: the
        // fleet must not clamp the plan scheduler's graph-level width.
        for (threads, tiers) in [
            (
                8,
                vec![(TierSpec::new("dense", 75.0), echo(Duration::ZERO))],
            ),
            (4, tiers(Duration::ZERO)),
        ] {
            let fleet = Fleet::start(
                tiers,
                FleetConfig {
                    replicas: 1,
                    serve: ServeConfig {
                        exec: ExecConfig::with_threads(threads),
                        ..ServeConfig::default()
                    },
                    controller: None,
                    ..FleetConfig::default()
                },
            )
            .unwrap();
            assert_eq!(fleet.exec_threads(), threads);
        }
    }

    #[test]
    fn hot_swap_reaches_every_replica() {
        let fleet = Fleet::start(
            tiers(Duration::ZERO),
            FleetConfig {
                replicas: 3,
                controller: None,
                tenants: vec![TenantSpec::new("t", SloClass::Gold, 1e6, 1e6)],
                ..FleetConfig::default()
            },
        )
        .unwrap();
        fleet.swap_tier_model(0, echo(Duration::ZERO)).unwrap();
        assert!(fleet.swap_tier_model(9, echo(Duration::ZERO)).is_err());
        let snap = fleet.shutdown();
        assert_eq!(snap.hot_swaps, 1);
    }

    #[test]
    fn structurally_invalid_configs_are_refused() {
        assert!(Fleet::start(
            tiers(Duration::ZERO),
            FleetConfig {
                replicas: 0,
                ..FleetConfig::default()
            }
        )
        .is_err());
        assert!(Fleet::start(
            tiers(Duration::ZERO),
            FleetConfig {
                controller: Some(TierControllerConfig {
                    upgrade_below: 0.9,
                    downgrade_above: 0.2,
                    ..TierControllerConfig::default()
                }),
                ..FleetConfig::default()
            }
        )
        .is_err());
        assert!(Fleet::start(Vec::new(), FleetConfig::default()).is_err());
    }
}
