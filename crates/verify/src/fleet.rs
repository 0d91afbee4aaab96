//! RV060–RV063: fleet-layer invariants.
//!
//! - **RV060** — routing ring soundness: every replica is reachable
//!   (non-zero vnodes, non-starved coverage), ring points are sorted,
//!   and routing is deterministic.
//! - **RV061** — degradation controller: the hysteresis band is
//!   well-formed, and the tier response is *monotone in sustained
//!   pressure* — holding a higher pressure never yields a denser
//!   (lower) final tier than holding a lower one, saturating pressure
//!   reaches the sparsest tier, and cleared pressure recovers to dense.
//! - **RV062** — tenant ledger conservation: every offered request is
//!   accounted exactly once (`offered == admitted + throttled + shed`
//!   per tenant), and routing tallies cover exactly the admitted
//!   requests.
//! - **RV063** — replica serving-state consistency: the current tier
//!   is in range, per-tier mAP estimates are non-increasing from the
//!   densest tier, served frames imply served batches, and each
//!   replica's terminal counters partition its submissions.
//!
//! RV061 runs on the pure [`TierController`] state machine with
//! synthetic time, so the property is checked exhaustively without a
//! running fleet.

use crate::diag::{Diagnostic, Report};
use rtoss_fleet::{FleetSnapshot, HashRing, TierController, TierControllerConfig};
use std::time::{Duration, Instant};

/// RV060: ring coverage and determinism.
///
/// `samples` synthetic keys are routed twice; every replica must
/// receive at least `1 / (8 * replicas)` of them (a ring with healthy
/// vnode counts spreads far better — the floor only catches starved or
/// unreachable replicas).
pub fn check_hash_ring(ring: &HashRing, samples: usize) -> Report {
    let mut report = Report::new();
    let replicas = ring.replicas();
    if replicas == 0 {
        report.push(Diagnostic::error("RV060", "ring", "ring has no replicas"));
        return report;
    }
    for (r, &n) in ring.vnode_counts().iter().enumerate() {
        if n == 0 {
            report.push(Diagnostic::error(
                "RV060",
                format!("replica {r}"),
                "zero virtual nodes: replica is unreachable by routing",
            ));
        }
    }
    if !ring.points().windows(2).all(|w| w[0] < w[1]) {
        report.push(Diagnostic::error(
            "RV060",
            "ring",
            "ring points not strictly sorted: routing would be ambiguous",
        ));
    }
    let cov = ring.coverage(samples.max(1));
    let floor = 1.0 / (8.0 * replicas as f64);
    for (r, &frac) in cov.iter().enumerate() {
        // Only flag starvation for replicas that *should* be reachable;
        // zero-vnode replicas are already reported above.
        if ring.vnode_counts()[r] > 0 && frac < floor {
            report.push(Diagnostic::error(
                "RV060",
                format!("replica {r}"),
                format!(
                    "starved: receives {:.2}% of keys (floor {:.2}%)",
                    frac * 100.0,
                    floor * 100.0
                ),
            ));
        }
    }
    for i in 0..64.min(samples) {
        let key = format!("determinism-key-{i}");
        if ring.route(&key) != ring.route(&key) {
            report.push(Diagnostic::error(
                "RV060",
                format!("key {key:?}"),
                "routing is not deterministic",
            ));
        }
    }
    report
}

/// Final tier after holding `pressure` for `ticks` control periods
/// (synthetic time, one period per dwell so dwell never gates).
fn settle(cfg: TierControllerConfig, num_tiers: usize, pressure: f64, ticks: usize) -> usize {
    let mut c = TierController::new(cfg, num_tiers);
    let t0 = Instant::now();
    let step = cfg.dwell.max(Duration::from_millis(1));
    let mut level = 0;
    for i in 0..ticks {
        level = c.observe(pressure, pressure, t0 + step * (i as u32 + 1));
    }
    level
}

/// RV061: controller config validity and monotone pressure response.
pub fn check_tier_controller(cfg: TierControllerConfig, num_tiers: usize) -> Report {
    let mut report = Report::new();
    for problem in cfg.validate() {
        report.push(Diagnostic::error("RV061", "controller config", problem));
    }
    if num_tiers == 0 {
        report.push(Diagnostic::error(
            "RV061",
            "controller",
            "zero tiers: nothing to serve",
        ));
    }
    if report.has_errors() {
        // The simulation below assumes a well-formed band.
        return report;
    }
    // Sustained-pressure sweep: the settled tier must be monotone
    // non-decreasing in pressure.
    let ticks = 4 * num_tiers.max(1);
    let mut prev = 0usize;
    for step in 0..=10 {
        let pressure = step as f64 / 10.0;
        let level = settle(cfg, num_tiers, pressure, ticks);
        if level < prev {
            report.push(Diagnostic::error(
                "RV061",
                format!("pressure {pressure:.1}"),
                format!(
                    "tier response not monotone: sustained pressure {pressure:.1} \
                     settles at tier {level}, below tier {prev} at lower pressure"
                ),
            ));
        }
        prev = prev.max(level);
    }
    if settle(cfg, num_tiers, 1.0, ticks) + 1 != num_tiers {
        report.push(Diagnostic::error(
            "RV061",
            "pressure 1.0",
            "saturating pressure does not reach the sparsest tier",
        ));
    }
    // Recovery: drive to the sparsest tier, then hold zero pressure.
    {
        let mut c = TierController::new(cfg, num_tiers);
        let t0 = Instant::now();
        let step = cfg.dwell.max(Duration::from_millis(1));
        let mut t = t0;
        for _ in 0..ticks {
            t += step;
            c.observe(1.0, 1.0, t);
        }
        // The miss EWMA decays geometrically; give it time to clear.
        let mut level = c.level();
        for _ in 0..200 {
            t += step;
            level = c.observe(0.0, 0.0, t);
        }
        if level != 0 {
            report.push(Diagnostic::error(
                "RV061",
                "recovery",
                format!("pressure cleared but the controller settled at tier {level}, not 0"),
            ));
        }
    }
    report
}

/// RV062: per-tenant ledger conservation over a fleet snapshot.
pub fn check_fleet_ledger(snapshot: &FleetSnapshot) -> Report {
    let mut report = Report::new();
    let mut admitted_total = 0u64;
    for t in &snapshot.tenants {
        admitted_total += t.admitted;
        if t.offered != t.accounted() {
            report.push(Diagnostic::error(
                "RV062",
                format!("tenant {}", t.id),
                format!(
                    "ledger not conserved: offered {} != admitted {} + throttled {} + shed {}",
                    t.offered, t.admitted, t.throttled, t.shed
                ),
            ));
        }
    }
    let routed = snapshot.routed_affinity + snapshot.routed_spill;
    if routed != admitted_total {
        report.push(Diagnostic::error(
            "RV062",
            "router",
            format!(
                "routing tallies ({} affine + {} spill) do not cover the {} admitted requests",
                snapshot.routed_affinity, snapshot.routed_spill, admitted_total
            ),
        ));
    }
    report
}

/// RV063: per-replica serving-state consistency.
pub fn check_fleet_replicas(snapshot: &FleetSnapshot) -> Report {
    let mut report = Report::new();
    for r in &snapshot.replicas {
        let loc = format!("replica {}", r.replica);
        if r.tiers.is_empty() {
            report.push(Diagnostic::error("RV063", loc, "replica has no tiers"));
            continue;
        }
        if r.current_tier >= r.tiers.len() {
            report.push(Diagnostic::error(
                "RV063",
                loc.clone(),
                format!(
                    "current tier {} out of range (have {})",
                    r.current_tier,
                    r.tiers.len()
                ),
            ));
        }
        for w in r.tiers.windows(2) {
            if w[1].map_estimate > w[0].map_estimate {
                report.push(Diagnostic::error(
                    "RV063",
                    format!("{loc}, tier {}", w[1].tier),
                    format!(
                        "mAP estimate {} exceeds denser tier {}'s {}: tiers must be \
                         ordered densest-first",
                        w[1].map_estimate, w[0].tier, w[0].map_estimate
                    ),
                ));
            }
        }
        for t in &r.tiers {
            if t.frames > 0 && t.batches == 0 {
                report.push(Diagnostic::error(
                    "RV063",
                    format!("{loc}, tier {}", t.tier),
                    format!("{} frames served by zero batches", t.frames),
                ));
            }
            if t.frames < t.batches {
                report.push(Diagnostic::error(
                    "RV063",
                    format!("{loc}, tier {}", t.tier),
                    format!(
                        "{} batches served only {} frames (every batch carries at least one)",
                        t.batches, t.frames
                    ),
                ));
            }
        }
        let s = &r.server;
        let accounted = s.completed + s.rejected + s.shed + s.failed + s.shut_down;
        if s.submitted != accounted {
            report.push(Diagnostic::error(
                "RV063",
                loc,
                format!(
                    "server counters do not partition submissions: submitted {} != \
                     completed {} + rejected {} + shed {} + failed {} + shut_down {}",
                    s.submitted, s.completed, s.rejected, s.shed, s.failed, s.shut_down
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_fleet::{ReplicaSnapshot, TenantSnapshot, TierServedSnapshot};
    use rtoss_serve::ServerMetrics;

    #[test]
    fn healthy_ring_passes_and_starved_ring_fails() {
        assert!(!check_hash_ring(&HashRing::new(4, 32), 2000).has_errors());
        let starved = HashRing::with_vnode_counts(&[32, 0, 32]);
        let report = check_hash_ring(&starved, 2000);
        assert!(report.has_errors());
        assert!(report.diagnostics.iter().any(|d| d.code == "RV060"));
    }

    #[test]
    fn default_controller_passes_and_inverted_band_fails() {
        assert!(!check_tier_controller(TierControllerConfig::default(), 3).has_errors());
        let inverted = TierControllerConfig {
            upgrade_below: 0.9,
            downgrade_above: 0.2,
            ..TierControllerConfig::default()
        };
        let report = check_tier_controller(inverted, 3);
        assert!(report.diagnostics.iter().any(|d| d.code == "RV061"));
    }

    fn snapshot() -> FleetSnapshot {
        FleetSnapshot {
            tenants: vec![TenantSnapshot {
                id: "t".into(),
                class: "gold".into(),
                offered: 10,
                admitted: 7,
                throttled: 2,
                shed: 1,
            }],
            replicas: vec![ReplicaSnapshot {
                replica: 0,
                current_tier: 0,
                queue_depth: 0,
                tiers: vec![
                    TierServedSnapshot {
                        tier: "dense".into(),
                        map_estimate: 75.0,
                        batches: 3,
                        frames: 7,
                    },
                    TierServedSnapshot {
                        tier: "2EP".into(),
                        map_estimate: 72.0,
                        batches: 0,
                        frames: 0,
                    },
                ],
                server: {
                    let m = ServerMetrics::new();
                    m.submitted.add(7);
                    m.completed.add(7);
                    m.snapshot()
                },
            }],
            routed_affinity: 6,
            routed_spill: 1,
            tier_upgrades: 0,
            tier_downgrades: 0,
        }
    }

    #[test]
    fn conserved_ledger_passes_and_leak_fails() {
        assert!(!check_fleet_ledger(&snapshot()).has_errors());
        let mut bad = snapshot();
        bad.tenants[0].admitted = 5; // two requests vanish
        let report = check_fleet_ledger(&bad);
        assert!(report.diagnostics.iter().any(|d| d.code == "RV062"));
    }

    #[test]
    fn replica_state_checks_fire_on_corruption() {
        assert!(!check_fleet_replicas(&snapshot()).has_errors());
        let mut bad = snapshot();
        bad.replicas[0].tiers[1].map_estimate = 80.0; // sparser yet "better"
        assert!(check_fleet_replicas(&bad)
            .diagnostics
            .iter()
            .any(|d| d.code == "RV063"));
        let mut bad = snapshot();
        bad.replicas[0].server.completed = 3; // partition broken
        assert!(check_fleet_replicas(&bad).has_errors());
    }
}
