//! Fleet-level metrics: per-tenant admission ledgers, per-replica and
//! per-tier serving state, and a serializable snapshot with Prometheus
//! exposition (labelled series — tenant, class, replica, tier).

use rtoss_obs::metrics::StripedCounter;
use rtoss_serve::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Admission ledger for one tenant. Every offered request lands in
/// exactly one of `admitted`, `throttled`, or `shed` — the conservation
/// law RV062 checks.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Requests the tenant offered to the fleet.
    pub offered: StripedCounter,
    /// Requests that entered a replica queue.
    pub admitted: StripedCounter,
    /// Requests refused by the tenant's token bucket.
    pub throttled: StripedCounter,
    /// Requests refused by pressure admission (class gate or replica
    /// queue) — shed at the fleet boundary rather than queued.
    pub shed: StripedCounter,
}

/// Live fleet counters (tenant ledgers plus routing/controller tallies).
#[derive(Debug, Default)]
pub struct FleetMetrics {
    /// Per-tenant ledgers, keyed by tenant id.
    pub tenants: BTreeMap<String, TenantCounters>,
    /// Requests routed to their hash-affine replica.
    pub routed_affinity: StripedCounter,
    /// Requests spilled to the least-outstanding replica instead.
    pub routed_spill: StripedCounter,
    /// Controller moves toward denser tiers.
    pub tier_upgrades: StripedCounter,
    /// Controller moves toward sparser tiers.
    pub tier_downgrades: StripedCounter,
}

/// Snapshot of one tenant's ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// Tenant id.
    pub id: String,
    /// SLO class label (`gold` / `silver` / `bulk`).
    pub class: String,
    /// Requests offered.
    pub offered: u64,
    /// Requests admitted into a replica queue.
    pub admitted: u64,
    /// Requests throttled by quota.
    pub throttled: u64,
    /// Requests shed at admission.
    pub shed: u64,
}

impl TenantSnapshot {
    /// `admitted + throttled + shed` — must equal `offered` (RV062).
    pub fn accounted(&self) -> u64 {
        self.admitted + self.throttled + self.shed
    }
}

/// Per-tier serving tallies of one replica.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierServedSnapshot {
    /// Tier name (`dense`, `3EP`, `2EP`, ...).
    pub tier: String,
    /// Modelled mAP of the tier's variant.
    pub map_estimate: f64,
    /// Micro-batches executed on this tier.
    pub batches: u64,
    /// Frames executed on this tier.
    pub frames: u64,
}

/// One replica's state in a fleet snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// Replica index.
    pub replica: usize,
    /// Tier index the replica was serving when snapshotted.
    pub current_tier: usize,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Served-tier tallies, densest first.
    pub tiers: Vec<TierServedSnapshot>,
    /// The replica server's own metrics.
    pub server: MetricsSnapshot,
}

/// Point-in-time view of a whole fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Per-tenant ledgers, in tenant-id order.
    pub tenants: Vec<TenantSnapshot>,
    /// Per-replica state.
    pub replicas: Vec<ReplicaSnapshot>,
    /// Requests routed to the hash-affine replica.
    pub routed_affinity: u64,
    /// Requests spilled to the least-outstanding replica.
    pub routed_spill: u64,
    /// Controller upgrades (toward dense).
    pub tier_upgrades: u64,
    /// Controller downgrades (toward sparse).
    pub tier_downgrades: u64,
}

impl FleetSnapshot {
    /// Frame-weighted mean modelled mAP over everything the fleet
    /// served (`None` before any frame completes). The gap to tier 0's
    /// mAP is the accuracy cost of degradation.
    pub fn served_map_mean(&self) -> Option<f64> {
        let (mut frames, mut weighted) = (0u64, 0.0f64);
        for r in &self.replicas {
            for t in &r.tiers {
                frames += t.frames;
                weighted += t.frames as f64 * t.map_estimate;
            }
        }
        (frames > 0).then(|| weighted / frames as f64)
    }

    /// Served frames per tier name, summed across replicas.
    pub fn tier_mix(&self) -> BTreeMap<String, u64> {
        let mut mix = BTreeMap::new();
        for r in &self.replicas {
            for t in &r.tiers {
                *mix.entry(t.tier.clone()).or_insert(0) += t.frames;
            }
        }
        mix
    }

    /// Renders the fleet snapshot in Prometheus text exposition format
    /// with labelled series: tenant ledgers (`tenant`, `class`), routing
    /// and controller counters, each replica's tier, and per-replica
    /// per-tier served frames (`replica`, `tier`). This is the only
    /// writer of the ledger and tier families; telemetry adds its burn,
    /// firing and queue-fraction gauges beside them.
    pub fn to_prometheus(&self) -> String {
        use rtoss_obs::prom::{render, PromMetric};
        let mut metrics = Vec::new();
        for t in &self.tenants {
            for (name, help, v) in [
                ("offered", "Requests offered by the tenant", t.offered),
                (
                    "admitted",
                    "Requests admitted into a replica queue",
                    t.admitted,
                ),
                (
                    "throttled",
                    "Requests refused by the tenant quota",
                    t.throttled,
                ),
                ("shed", "Requests shed by pressure admission", t.shed),
            ] {
                metrics.push(
                    PromMetric::counter(format!("rtoss_fleet_{name}_total"), help, v as f64)
                        .with_label("tenant", t.id.clone())
                        .with_label("class", t.class.clone()),
                );
            }
        }
        for (name, help, v) in [
            (
                "routed_affinity",
                "Requests routed to their hash-affine replica",
                self.routed_affinity,
            ),
            (
                "routed_spill",
                "Requests spilled to the least-outstanding replica",
                self.routed_spill,
            ),
            (
                "tier_upgrades",
                "Degradation-controller moves toward denser tiers",
                self.tier_upgrades,
            ),
            (
                "tier_downgrades",
                "Degradation-controller moves toward sparser tiers",
                self.tier_downgrades,
            ),
        ] {
            metrics.push(PromMetric::counter(
                format!("rtoss_fleet_{name}_total"),
                help,
                v as f64,
            ));
        }
        for r in &self.replicas {
            let replica = r.replica.to_string();
            metrics.push(
                PromMetric::gauge(
                    "rtoss_fleet_replica_tier",
                    "Tier index the replica is serving (0 = densest)",
                    r.current_tier as f64,
                )
                .with_label("replica", replica.clone()),
            );
            for t in &r.tiers {
                metrics.push(
                    PromMetric::counter(
                        "rtoss_fleet_served_frames_total",
                        "Frames served per replica and accuracy tier",
                        t.frames as f64,
                    )
                    .with_label("replica", replica.clone())
                    .with_label("tier", t.tier.clone()),
                );
            }
        }
        if let Some(map) = self.served_map_mean() {
            metrics.push(PromMetric::gauge(
                "rtoss_fleet_served_map_mean",
                "Frame-weighted modelled mAP of everything served",
                map,
            ));
        }
        render(&metrics)
    }
}

impl FleetMetrics {
    /// Creates one ledger per distinct tenant id.
    pub fn new(tenant_ids: impl IntoIterator<Item = String>) -> Self {
        FleetMetrics {
            tenants: tenant_ids
                .into_iter()
                .map(|id| (id, TenantCounters::default()))
                .collect(),
            ..FleetMetrics::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> FleetSnapshot {
        FleetSnapshot {
            tenants: vec![TenantSnapshot {
                id: "t0".into(),
                class: "gold".into(),
                offered: 10,
                admitted: 7,
                throttled: 2,
                shed: 1,
            }],
            replicas: vec![ReplicaSnapshot {
                replica: 0,
                current_tier: 1,
                queue_depth: 3,
                tiers: vec![
                    TierServedSnapshot {
                        tier: "dense".into(),
                        map_estimate: 80.0,
                        batches: 1,
                        frames: 3,
                    },
                    TierServedSnapshot {
                        tier: "2EP".into(),
                        map_estimate: 70.0,
                        batches: 1,
                        frames: 1,
                    },
                ],
                server: rtoss_serve::ServerMetrics::new().snapshot(),
            }],
            routed_affinity: 6,
            routed_spill: 1,
            tier_upgrades: 0,
            tier_downgrades: 1,
        }
    }

    #[test]
    fn served_map_mean_is_frame_weighted() {
        let s = snap();
        let map = s.served_map_mean().unwrap();
        assert!((map - (3.0 * 80.0 + 1.0 * 70.0) / 4.0).abs() < 1e-9);
        assert_eq!(s.tier_mix()["dense"], 3);
    }

    #[test]
    fn snapshot_round_trips_and_exposes_prometheus() {
        let s = snap();
        let json = serde_json::to_string(&s).unwrap();
        let back: FleetSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let prom = s.to_prometheus();
        assert!(prom.contains("rtoss_fleet_offered_total{tenant=\"t0\",class=\"gold\"} 10"));
        assert!(prom.contains("rtoss_fleet_served_frames_total{replica=\"0\",tier=\"2EP\"} 1"));
        // The exposition must parse with the shared lint.
        rtoss_obs::prom::parse(&prom).expect("fleet exposition parses");
    }
}
