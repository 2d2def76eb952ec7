//! The health model: snapshot + windows + watchdog → one verdict.
//!
//! A mediator bridges two live systems; "is the bridge healthy right
//! now" must be answerable by a script (load balancer, cron probe,
//! `starlink health`) without a human reading counters. This module
//! reduces the operations plane's inputs — windowed rates from
//! [`crate::WindowAggregator`], saturation gauges from the lifetime
//! [`crate::Snapshot`], and the stall watchdog's count — to a
//! three-valued [`HealthStatus`] with per-check reasons for the
//! merged-automaton pair a host serves.
//!
//! The verdict leaves the process only as snapshot gauges
//! ([`PairHealth::families`]), merged into the `stats` snapshot, so
//! scrapers and `starlink health` read the same numbers.

use crate::snapshot::{MetricFamily, MetricKind, Sample};
use crate::window::WindowCounts;
use std::fmt;

/// The three-valued health verdict. Ordered: `Healthy < Degraded <
/// Unhealthy`, so roll-ups are `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// All checks within thresholds.
    Healthy,
    /// Service continues but an operator should look: some check crossed
    /// its warning threshold.
    Degraded,
    /// The bridge is effectively down or failing most traffic.
    Unhealthy,
}

impl HealthStatus {
    /// Stable lowercase label (`"healthy"` / `"degraded"` /
    /// `"unhealthy"`), used in human-readable output.
    pub fn label(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }

    /// Scripting-friendly process exit code: 0 healthy, 1 degraded, 2
    /// unhealthy (the `starlink health` contract).
    pub fn exit_code(self) -> u8 {
        match self {
            HealthStatus::Healthy => 0,
            HealthStatus::Degraded => 1,
            HealthStatus::Unhealthy => 2,
        }
    }

    /// Gauge value used in metric exposition (same ordering as
    /// [`HealthStatus::exit_code`]).
    pub fn gauge_value(self) -> u64 {
        self.exit_code() as u64
    }
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One named check's verdict and its human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthCheck {
    /// Stable check name (kebab-case: `"failure-rate"`,
    /// `"accept-errors"`, `"queue-depth"`, `"stalled-sessions"`).
    pub name: String,
    /// This check's verdict.
    pub status: HealthStatus,
    /// One line naming the check's state (never a live count; never
    /// contains a newline).
    pub reason: String,
}

/// The health of one deployed merged-automaton pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairHealth {
    /// The merged-automaton pair label (the deployed merge's name).
    pub pair: String,
    /// Worst check status for this pair.
    pub status: HealthStatus,
    /// The individual checks, in evaluation order.
    pub checks: Vec<HealthCheck>,
}

/// Warning/critical thresholds the health checks compare against.
///
/// Ratios are fractions (`0.05` = 5%); a value at or above the
/// `degraded` threshold degrades, at or above `unhealthy` is unhealthy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthThresholds {
    /// Windowed failed / (finished + failed) ratio that degrades the
    /// pair.
    pub failure_ratio_degraded: f64,
    /// Windowed failed / (finished + failed) ratio that makes the pair
    /// unhealthy.
    pub failure_ratio_unhealthy: f64,
    /// Windowed accept-error count that degrades the pair.
    pub accept_errors_degraded: u64,
    /// Windowed accept-error count that makes the pair unhealthy.
    pub accept_errors_unhealthy: u64,
    /// Queue depth / capacity ratio that degrades the pair.
    pub queue_saturation_degraded: f64,
    /// Queue depth / capacity ratio that makes the pair unhealthy.
    pub queue_saturation_unhealthy: f64,
    /// Stalled-session count that degrades the pair.
    pub stalled_degraded: u64,
    /// Stalled-session count that makes the pair unhealthy.
    pub stalled_unhealthy: u64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            failure_ratio_degraded: 0.05,
            failure_ratio_unhealthy: 0.5,
            accept_errors_degraded: 3,
            accept_errors_unhealthy: 25,
            queue_saturation_degraded: 0.8,
            queue_saturation_unhealthy: 1.0,
            stalled_degraded: 1,
            stalled_unhealthy: 8,
        }
    }
}

/// Everything a [`PairHealth`] evaluation consumes, gathered by the host.
#[derive(Debug, Clone, Default)]
pub struct HealthInputs {
    /// The merged-automaton pair label.
    pub pair: String,
    /// Windowed lifecycle counts (when the ops plane is enabled) or
    /// lifetime counters recast as a window of `window_secs == 0`.
    pub window: WindowCounts,
    /// Current worker-queue depth (multiplexed host; 0 for threaded).
    pub queue_depth: u64,
    /// Worker-queue capacity (0 when there is no bounded queue — the
    /// queue-depth check then reports healthy with an explanatory
    /// reason).
    pub queue_capacity: u64,
    /// Sessions currently flagged stalled by the watchdog.
    pub stalled_now: u64,
}

/// Grades `value` against its thresholds. The reason names only what is
/// measured and where it stands, never a live count, so the
/// `starlink_health_check` label set stays fixed while counts move (the
/// counts ride in their own families).
fn check(name: &str, measure: &str, value: f64, degraded: f64, unhealthy: f64) -> HealthCheck {
    let (status, standing) = if value >= unhealthy {
        (HealthStatus::Unhealthy, "at or above unhealthy threshold")
    } else if value >= degraded {
        (HealthStatus::Degraded, "at or above degraded threshold")
    } else {
        (HealthStatus::Healthy, "below degraded threshold")
    };
    HealthCheck {
        name: name.to_owned(),
        status,
        reason: format!("{measure} {standing}"),
    }
}

/// Evaluates one pair's health from its inputs against thresholds.
pub fn evaluate_pair(inputs: &HealthInputs, t: &HealthThresholds) -> PairHealth {
    let w = &inputs.window;
    // Failure rate: failed vs ended traversals in the window (abandoned
    // ones — a client hanging up between calls — are neither). A window
    // with no traffic is healthy by definition.
    let ended = w.finished + w.failed;
    let ratio = if ended == 0 {
        0.0
    } else {
        w.failed as f64 / ended as f64
    };
    let queue = if inputs.queue_capacity == 0 {
        HealthCheck {
            name: "queue-depth".to_owned(),
            status: HealthStatus::Healthy,
            reason: "no bounded queue (threaded host)".to_owned(),
        }
    } else {
        check(
            "queue-depth",
            "queue saturation",
            inputs.queue_depth as f64 / inputs.queue_capacity as f64,
            t.queue_saturation_degraded,
            t.queue_saturation_unhealthy,
        )
    };
    let checks = vec![
        check(
            "failure-rate",
            "failure ratio",
            ratio,
            t.failure_ratio_degraded,
            t.failure_ratio_unhealthy,
        ),
        check(
            "accept-errors",
            "accept errors",
            w.accept_errors as f64,
            t.accept_errors_degraded as f64,
            t.accept_errors_unhealthy as f64,
        ),
        queue,
        check(
            "stalled-sessions",
            "stalled sessions",
            inputs.stalled_now as f64,
            t.stalled_degraded as f64,
            t.stalled_unhealthy as f64,
        ),
    ];
    let status = checks
        .iter()
        .map(|c| c.status)
        .max()
        .unwrap_or(HealthStatus::Healthy);
    PairHealth {
        pair: inputs.pair.clone(),
        status,
        checks,
    }
}

impl PairHealth {
    /// The verdict as gauge families for the stats snapshot:
    /// `starlink_health_status{pair}` and
    /// `starlink_health_check{pair,check,reason}` with values 0/1/2
    /// (healthy/degraded/unhealthy). The snapshot exposition escapes
    /// label text, so any reason survives the round trip.
    pub fn families(&self) -> Vec<MetricFamily> {
        let check_samples: Vec<Sample> = self
            .checks
            .iter()
            .map(|check| Sample {
                labels: vec![
                    ("pair".to_owned(), self.pair.clone()),
                    ("check".to_owned(), check.name.clone()),
                    ("reason".to_owned(), check.reason.clone()),
                ],
                value: check.status.gauge_value(),
            })
            .collect();
        let mut families = vec![MetricFamily::simple(
            "starlink_health_status",
            MetricKind::Gauge,
            vec![Sample::labelled(
                "pair",
                &self.pair,
                self.status.gauge_value(),
            )],
        )];
        if !check_samples.is_empty() {
            families.push(MetricFamily::simple(
                "starlink_health_check",
                MetricKind::Gauge,
                check_samples,
            ));
        }
        families
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> HealthInputs {
        HealthInputs {
            pair: "Add~Plus".to_owned(),
            window: WindowCounts {
                window_secs: 60,
                started: 100,
                finished: 98,
                ..WindowCounts::default()
            },
            queue_depth: 1,
            queue_capacity: 8,
            stalled_now: 0,
        }
    }

    #[test]
    fn quiet_bridge_is_healthy() {
        let pair = evaluate_pair(&inputs(), &HealthThresholds::default());
        assert_eq!(pair.status, HealthStatus::Healthy);
        assert_eq!(pair.checks.len(), 4);
        assert!(pair
            .checks
            .iter()
            .all(|c| c.status == HealthStatus::Healthy));
    }

    #[test]
    fn empty_window_is_healthy() {
        let quiet = HealthInputs {
            pair: "Add~Plus".to_owned(),
            ..HealthInputs::default()
        };
        let pair = evaluate_pair(&quiet, &HealthThresholds::default());
        assert_eq!(pair.status, HealthStatus::Healthy);
    }

    #[test]
    fn failure_ratio_grades_degraded_then_unhealthy() {
        let mut i = inputs();
        i.window.failed = 10; // 10 of 108 ended: 9%
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        assert_eq!(pair.status, HealthStatus::Degraded);
        i.window.failed = 150; // 150 of 248 ended: 60%
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        assert_eq!(pair.status, HealthStatus::Unhealthy);
    }

    #[test]
    fn all_failures_with_no_starts_is_unhealthy() {
        // Sessions can fail before SessionStarted (e.g. accept-time
        // errors): failed > started must still register.
        let mut i = inputs();
        i.window.started = 0;
        i.window.finished = 0;
        i.window.failed = 5;
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        assert_eq!(pair.status, HealthStatus::Unhealthy);
    }

    #[test]
    fn abandoned_traversals_do_not_dilute_the_failure_ratio() {
        // 32 of 64 ended traversals failed: unhealthy, however many more
        // were started and abandoned.
        let mut i = inputs();
        (i.window.started, i.window.finished) = (96, 32);
        (i.window.failed, i.window.abandoned) = (32, 32);
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        assert_eq!(pair.checks[0].status, HealthStatus::Unhealthy);
    }

    #[test]
    fn equal_statuses_give_identical_check_labels() {
        let labels = |i: &HealthInputs| {
            let families = evaluate_pair(i, &HealthThresholds::default()).families();
            let checks = families
                .into_iter()
                .find(|f| f.name == "starlink_health_check");
            checks.unwrap().samples
        };
        let mut busy = inputs();
        (busy.window.started, busy.window.finished) = (5_000, 4_990);
        (busy.window.failed, busy.window.accept_errors) = (2, 1);
        (busy.window.stalled, busy.queue_depth) = (3, 3);
        // Different counts, same statuses: the same series.
        assert_eq!(labels(&inputs()), labels(&busy));
        busy.stalled_now = 1;
        assert_ne!(labels(&inputs()), labels(&busy), "a status change shows");
    }

    #[test]
    fn stalled_sessions_degrade() {
        let mut i = inputs();
        i.stalled_now = 1;
        i.window.stalled = 1;
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        assert_eq!(pair.status, HealthStatus::Degraded);
        let stall = pair
            .checks
            .iter()
            .find(|c| c.name == "stalled-sessions")
            .unwrap();
        assert_eq!(stall.status, HealthStatus::Degraded);
        i.stalled_now = 8;
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        assert_eq!(pair.status, HealthStatus::Unhealthy);
    }

    #[test]
    fn queue_saturation_degrades() {
        let mut i = inputs();
        i.queue_depth = 7; // 87%
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        assert_eq!(pair.status, HealthStatus::Degraded);
        i.queue_depth = 8;
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        assert_eq!(pair.status, HealthStatus::Unhealthy);
    }

    #[test]
    fn threaded_host_skips_queue_check() {
        let mut i = inputs();
        i.queue_capacity = 0;
        i.queue_depth = 0;
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        let queue = pair
            .checks
            .iter()
            .find(|c| c.name == "queue-depth")
            .unwrap();
        assert_eq!(queue.status, HealthStatus::Healthy);
        assert!(queue.reason.contains("threaded"));
    }

    #[test]
    fn exit_codes_follow_the_contract() {
        assert_eq!(HealthStatus::Healthy.exit_code(), 0);
        assert_eq!(HealthStatus::Degraded.exit_code(), 1);
        assert_eq!(HealthStatus::Unhealthy.exit_code(), 2);
    }

    #[test]
    fn families_expose_statuses_as_gauges() {
        let mut i = inputs();
        i.stalled_now = 1;
        i.window.failures_by_stage = vec![("mdl \"quoted\" \\ stage".to_owned(), 1)];
        let pair = evaluate_pair(&i, &HealthThresholds::default());
        let snap = crate::Snapshot {
            families: pair.families(),
        };
        let back = crate::Snapshot::parse_text(&snap.render_text()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(
            back.value("starlink_health_status", &[("pair", "Add~Plus")]),
            Some(1)
        );
        for check in &pair.checks {
            assert_eq!(
                back.value(
                    "starlink_health_check",
                    &[
                        ("pair", "Add~Plus"),
                        ("check", &check.name),
                        ("reason", &check.reason)
                    ]
                ),
                Some(check.status.gauge_value()),
                "{}",
                check.name
            );
        }
    }
}
