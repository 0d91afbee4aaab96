//! Multi-window burn-rate SLO evaluation with firing/resolved
//! hysteresis.
//!
//! An SLO is an objective on a good/total ratio — "99% of completed
//! requests hit their deadline", "95% of offered requests are
//! admitted". The **burn rate** over a time range is the observed bad
//! fraction divided by the error budget (`1 - objective`): burn 1.0
//! consumes the budget exactly at the sustainable rate; burn 10 burns
//! a month of budget in three days.
//!
//! Following the SRE multi-window pattern, a [`SloMonitor`] evaluates
//! the burn over a **short** and a **long** trailing range (e.g. 5 s /
//! 60 s — both computed at query time from stored windows, so the
//! storage resolution is independent of the alert ranges: range sums
//! over a [`crate::timeseries::WindowedSet`], or differences of
//! cumulative counter readings kept one per window):
//!
//! - **fire** when *both* ranges burn at ≥ `fire_burn` — the long
//!   range proves the problem is sustained, the short range proves it
//!   is still happening;
//! - **resolve** only when the short-range burn falls to
//!   ≤ `resolve_burn`, which must sit *below* `fire_burn` — the
//!   hysteresis gap that keeps a boundary-riding signal from flapping.
//!
//! Transitions come out as structured [`AlertEvent`]s carrying the
//! measured burns, so `rtoss-verify` can replay a run's alert log
//! against the policy and reject illegal sequences (RV082).

/// Burn-rate alerting policy for one SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRatePolicy {
    /// Target good/total ratio in `(0, 1)`; error budget is `1 -
    /// objective`.
    pub objective: f64,
    /// Short trailing range, nanoseconds (the "is it still happening"
    /// window).
    pub short_range_ns: u64,
    /// Long trailing range, nanoseconds (the "is it sustained"
    /// window). Must be ≥ `short_range_ns`.
    pub long_range_ns: u64,
    /// Fire when both ranges burn at or above this rate (> 0).
    pub fire_burn: f64,
    /// Resolve when the short range burns at or below this rate; must
    /// be strictly below `fire_burn` (hysteresis).
    pub resolve_burn: f64,
    /// Ranges with fewer than this many total events evaluate to burn
    /// 0 (too little signal to alert on).
    pub min_total: u64,
}

impl BurnRatePolicy {
    /// A sane default: 95% objective, 1 s / 5 s ranges, fire at 2×
    /// budget burn, resolve below 0.5×, need 5 events.
    pub fn new(objective: f64) -> Self {
        BurnRatePolicy {
            objective,
            short_range_ns: 1_000_000_000,
            long_range_ns: 5_000_000_000,
            fire_burn: 2.0,
            resolve_burn: 0.5,
            min_total: 5,
        }
    }

    /// Structural problems with the policy, empty when valid.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if !(self.objective > 0.0 && self.objective < 1.0) {
            problems.push(format!(
                "objective must be in (0, 1), got {}",
                self.objective
            ));
        }
        if self.short_range_ns == 0 {
            problems.push("short_range_ns must be > 0".into());
        }
        if self.long_range_ns < self.short_range_ns {
            problems.push(format!(
                "long_range_ns ({}) must be >= short_range_ns ({})",
                self.long_range_ns, self.short_range_ns
            ));
        }
        if self.fire_burn.is_nan() || self.fire_burn <= 0.0 {
            problems.push(format!("fire_burn must be > 0, got {}", self.fire_burn));
        }
        let gap_ok =
            self.resolve_burn.partial_cmp(&self.fire_burn) == Some(std::cmp::Ordering::Less);
        if !gap_ok {
            problems.push(format!(
                "resolve_burn ({}) must be strictly below fire_burn ({}) — no hysteresis gap",
                self.resolve_burn, self.fire_burn
            ));
        }
        problems
    }

    /// Burn rate for `bad` failures out of `total` events: bad
    /// fraction over error budget; 0 when `total < min_total`.
    pub fn burn_rate(&self, bad: u64, total: u64) -> f64 {
        if total < self.min_total.max(1) {
            return 0.0;
        }
        let budget = (1.0 - self.objective).max(f64::EPSILON);
        (bad as f64 / total as f64) / budget
    }
}

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Within budget (or recovered).
    Ok,
    /// Burn exceeded the policy on both ranges and has not resolved.
    Firing,
}

/// What an [`AlertEvent`] announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The monitor entered [`AlertState::Firing`].
    Firing,
    /// The monitor returned to [`AlertState::Ok`].
    Resolved,
}

impl AlertKind {
    /// Stable lowercase label (`"firing"` / `"resolved"`).
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::Firing => "firing",
            AlertKind::Resolved => "resolved",
        }
    }
}

/// One state transition of a monitor, with the evidence that caused
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Rule name, e.g. `"admission"` or `"deadline"`.
    pub rule: String,
    /// Monitored subject, e.g. a tenant id or `"replica/0"`.
    pub subject: String,
    /// Firing or resolved.
    pub kind: AlertKind,
    /// Evaluation time, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Short-range burn at evaluation time.
    pub burn_short: f64,
    /// Long-range burn at evaluation time.
    pub burn_long: f64,
}

/// The state machine for one (rule, subject) pair.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    /// Rule name carried into every event.
    pub rule: String,
    /// Subject carried into every event.
    pub subject: String,
    policy: BurnRatePolicy,
    state: AlertState,
    last_burn_short: f64,
    last_burn_long: f64,
}

impl SloMonitor {
    /// A monitor starting in [`AlertState::Ok`].
    pub fn new(
        rule: impl Into<String>,
        subject: impl Into<String>,
        policy: BurnRatePolicy,
    ) -> Self {
        SloMonitor {
            rule: rule.into(),
            subject: subject.into(),
            policy,
            state: AlertState::Ok,
            last_burn_short: 0.0,
            last_burn_long: 0.0,
        }
    }

    /// The governing policy.
    pub fn policy(&self) -> &BurnRatePolicy {
        &self.policy
    }

    /// Current state.
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// Burns measured at the latest evaluation `(short, long)`.
    pub fn last_burns(&self) -> (f64, f64) {
        (self.last_burn_short, self.last_burn_long)
    }

    /// Feeds one evaluation tick: `(bad, total)` summed over the short
    /// and long trailing ranges. Returns the transition this tick
    /// caused, if any.
    pub fn evaluate(
        &mut self,
        ts_ns: u64,
        short: (u64, u64),
        long: (u64, u64),
    ) -> Option<AlertEvent> {
        let burn_short = self.policy.burn_rate(short.0, short.1);
        let burn_long = self.policy.burn_rate(long.0, long.1);
        self.last_burn_short = burn_short;
        self.last_burn_long = burn_long;
        let event = |kind| AlertEvent {
            rule: self.rule.clone(),
            subject: self.subject.clone(),
            kind,
            ts_ns,
            burn_short,
            burn_long,
        };
        match self.state {
            AlertState::Ok
                if burn_short >= self.policy.fire_burn && burn_long >= self.policy.fire_burn =>
            {
                self.state = AlertState::Firing;
                Some(event(AlertKind::Firing))
            }
            AlertState::Firing if burn_short <= self.policy.resolve_burn => {
                self.state = AlertState::Ok;
                Some(event(AlertKind::Resolved))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BurnRatePolicy {
        BurnRatePolicy {
            objective: 0.9,
            short_range_ns: 1_000,
            long_range_ns: 5_000,
            fire_burn: 2.0,
            resolve_burn: 0.5,
            min_total: 1,
        }
    }

    #[test]
    fn validate_rejects_inverted_hysteresis() {
        assert!(policy().validate().is_empty());
        let mut p = policy();
        p.resolve_burn = 2.0; // == fire_burn: no gap
        assert!(!p.validate().is_empty());
        p = policy();
        p.long_range_ns = 10; // < short
        assert!(!p.validate().is_empty());
        p = policy();
        p.objective = 1.0;
        assert!(!p.validate().is_empty());
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let p = policy(); // budget 0.1
        assert!((p.burn_rate(10, 100) - 1.0).abs() < 1e-12);
        assert!((p.burn_rate(30, 100) - 3.0).abs() < 1e-12);
        assert_eq!(p.burn_rate(0, 100), 0.0);
        assert_eq!(p.burn_rate(5, 0), 0.0, "no signal, no burn");
    }

    #[test]
    fn fires_only_when_both_ranges_burn_and_resolves_with_hysteresis() {
        let mut m = SloMonitor::new("admission", "bulk", policy());
        // Short spike only: long range still calm — no alert.
        assert!(m.evaluate(1, (50, 100), (5, 500)).is_none());
        assert_eq!(m.state(), AlertState::Ok);
        // Sustained: both ranges over fire_burn → firing.
        let fired = m.evaluate(2, (50, 100), (200, 500)).unwrap();
        assert_eq!(fired.kind, AlertKind::Firing);
        assert!(fired.burn_short >= 2.0 && fired.burn_long >= 2.0);
        // Improved but above resolve_burn: still firing (hysteresis).
        assert!(m.evaluate(3, (10, 100), (200, 500)).is_none());
        assert_eq!(m.state(), AlertState::Firing);
        // Short range calm → resolved.
        let resolved = m.evaluate(4, (2, 100), (200, 500)).unwrap();
        assert_eq!(resolved.kind, AlertKind::Resolved);
        assert!(resolved.burn_short <= 0.5);
        assert_eq!(m.state(), AlertState::Ok);
        // Re-fires on the next sustained breach.
        assert!(m.evaluate(5, (60, 100), (300, 500)).is_some());
    }

    #[test]
    fn min_total_suppresses_thin_signals() {
        let mut p = policy();
        p.min_total = 50;
        let mut m = SloMonitor::new("deadline", "replica/0", p);
        // 100% bad but only 10 events: burn evaluates to 0.
        assert!(m.evaluate(1, (10, 10), (10, 10)).is_none());
        assert_eq!(m.last_burns(), (0.0, 0.0));
    }
}
