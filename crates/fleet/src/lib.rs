//! Sharded multi-replica serving with tenant SLO classes and
//! accuracy-tier overload degradation.
//!
//! `rtoss-serve` gives one model one queue and one worker pool. This
//! crate scales that out and adds the R-TOSS-specific overload story:
//! when a replica can't keep its deadlines, it doesn't just shed —
//! it *degrades*, swapping the serving engine to a sparser R-TOSS
//! variant (3EP, then 2EP) that runs faster at a small, *modelled* mAP
//! cost, and swaps back when pressure clears.
//!
//! Pieces (each its own module, composable and separately testable):
//!
//! - [`ring`] — consistent-hash router (FNV-1a, virtual nodes) keyed on
//!   a stream/tenant key for plan-cache affinity, with
//!   least-outstanding spill when the affine replica is saturated;
//! - [`tenant`] — SLO classes (Gold/Silver/Bulk), token-bucket quotas,
//!   and class-ordered pressure admission;
//! - [`tier`] — the hysteresis degradation controller: pressure =
//!   max(queue-depth fraction, deadline-miss EWMA), dwell-limited
//!   transitions, a pure state machine checkable by `rtoss-verify`
//!   (RV061);
//! - [`engine`] — [`TieredEngine`]: one replica's dense→3EP→2EP variant
//!   stack behind a single [`ServeModel`](rtoss_serve::ServeModel)
//!   front, with prewarmed atomic hot swap;
//! - [`fleet`] — the orchestrator tying it together, with a
//!   conservation-accounted tenant ledger
//!   (`offered == admitted + throttled + shed`, RV062);
//! - [`metrics`] — per-tenant / per-tier snapshots with Prometheus
//!   exposition;
//! - [`telemetry`] — the SLO telemetry plane: per-tenant windowed
//!   admission series, per-replica queue/tier gauges, multi-window
//!   burn-rate monitors with firing/resolved alerts, and a black-box
//!   flight recorder dumping post-mortem JSON on breach (RV080–RV083).
//!
//! # Example
//!
//! ```
//! use rtoss_fleet::{Fleet, FleetConfig, SloClass, TenantSpec, TierSpec};
//! use rtoss_serve::{ServeConfig, ServeModel};
//! use rtoss_tensor::{ExecConfig, Tensor};
//! use std::sync::Arc;
//!
//! struct Echo;
//! impl ServeModel for Echo {
//!     fn run_batch(&self, batch: &Tensor, _exec: &ExecConfig)
//!         -> Result<Vec<Tensor>, String> {
//!         Ok(vec![batch.clone()])
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fleet = Fleet::start(
//!     vec![
//!         (TierSpec::new("dense", 75.0), Arc::new(Echo) as _),
//!         (TierSpec::new("2EP", 72.0), Arc::new(Echo) as _),
//!     ],
//!     FleetConfig {
//!         replicas: 2,
//!         tenants: vec![TenantSpec::new("cam", SloClass::Gold, 1e6, 1e6)],
//!         ..FleetConfig::default()
//!     },
//! )?;
//! let ticket = fleet.submit("cam", "cam/stream-0", Tensor::zeros(&[1, 1, 4, 4]), None)?;
//! assert!(ticket.wait().is_ok());
//! let snapshot = fleet.shutdown();
//! assert_eq!(snapshot.tenants[0].offered, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod engine;
pub mod fleet;
pub mod metrics;
pub mod ring;
pub mod telemetry;
pub mod tenant;
pub mod tier;

pub use engine::TieredEngine;
pub use fleet::{Fleet, FleetConfig, FleetError};
pub use metrics::{
    FleetMetrics, FleetSnapshot, ReplicaSnapshot, TenantCounters, TenantSnapshot,
    TierServedSnapshot,
};
pub use ring::HashRing;
pub use telemetry::{
    AdmissionOutcome, AdmissionTotals, AdmissionWindow, AlertRecord, BurnPoint, FleetTelemetry,
    FlightDump, GaugeWindow, PolicySnapshot, ReplicaObservation, ReplicaTelemetrySnapshot,
    TelemetryConfig, TelemetrySnapshot, TenantTelemetrySnapshot,
};
pub use tenant::{SloClass, TenantSpec, TokenBucket};
pub use tier::{TierController, TierControllerConfig, TierSpec};
