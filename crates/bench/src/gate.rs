//! The performance gate: compare a bench run's JSON summary against a
//! committed baseline and fail on regression.
//!
//! CI's `bench-gate` job runs the gated experiments at quick scale, captures
//! each binary's single-line JSON summary (`BENCH_<bench>.json`), and hands
//! them to the `gate` binary, which compares every entry of the summary's
//! `metrics` object against `bench/baselines/<bench>_<scale>.json`. The
//! compared quantities are **virtual-time** scalars (makespans, accuracies,
//! MSEs) — deterministic per seed, so any drift is a behavioral change, not
//! runner noise — but the gate still tolerates a configurable margin
//! (default 10%) so intentional small reshapings don't demand a re-bless.
//! Intended changes are blessed with `--bless-baseline`, which rewrites the
//! committed baseline from the current run.
//!
//! Direction is keyed by name: metrics whose key starts with `acc` or
//! `throughput` are higher-is-better; everything else (makespans, MSEs) is
//! lower-is-better.
//!
//! The gate is two-sided about *coverage*, not just values: a metric in the
//! baseline but absent from the run fails (a deleted metric would hide its
//! regressions forever), and a metric in the run but absent from the
//! baseline fails too (an ungated metric is a regression channel nobody
//! watches) — the fix for the latter is an explicit `--bless-baseline`.

use serde_json::Value;

/// A parsed bench summary: identity plus the gate-comparable metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Experiment name (`table3`, `fig5`, …).
    pub bench: String,
    /// Run scale (`quick` / `full`).
    pub scale: String,
    /// The `metrics` object, in emission order.
    pub metrics: Vec<(String, f64)>,
}

impl Summary {
    /// File stem the committed baseline for this summary lives under
    /// (`<bench>_<scale>.json`).
    pub fn baseline_stem(&self) -> String {
        format!("{}_{}", self.bench, self.scale)
    }
}

/// Parse one single-line JSON summary as emitted by
/// [`crate::summary_line`].
pub fn parse_summary(json: &str) -> Result<Summary, String> {
    let value: Value =
        serde_json::from_str(json.trim()).map_err(|e| format!("summary is not JSON: {e:?}"))?;
    let entries = value.as_map().ok_or("summary must be a JSON object")?;
    let field = |key: &str| -> Result<String, String> {
        Value::map_get(entries, key)
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("summary is missing the string field `{key}`"))
    };
    let mut metrics = Vec::new();
    if let Some(map) = Value::map_get(entries, "metrics").as_map() {
        for (key, v) in map {
            let num = v
                .as_num()
                .ok_or_else(|| format!("metric `{key}` is not a number"))?;
            metrics.push((key.clone(), num));
        }
    }
    Ok(Summary {
        bench: field("bench")?,
        scale: field("scale")?,
        metrics,
    })
}

/// Whether a higher value of `key` is an improvement (accuracies,
/// throughputs) or a regression (makespans, MSEs, and everything else).
pub fn higher_is_better(key: &str) -> bool {
    key.starts_with("acc") || key.starts_with("throughput")
}

/// The tolerance actually applied to `key`, given the gate-wide `tolerance`.
///
/// Virtual-time metrics are deterministic per seed, so the configured margin
/// applies as-is. `throughput`-prefixed metrics are **wall-clock** rates —
/// they move with the runner's load and CPU, and the committed baseline may
/// come from a faster machine than the CI runner — so the gate widens their
/// margin to 7.5x (capped below 1.0): at the default 10% tolerance a
/// throughput may drop 75% before failing, which still catches the 4x-plus
/// collapse of a genuinely broken loop without flaking on machine skew.
pub fn tolerance_for(key: &str, tolerance: f64) -> f64 {
    if key.starts_with("throughput") {
        (tolerance * 7.5).min(0.95)
    } else {
        tolerance
    }
}

/// Whether the override `pattern` matches the metric `key`. A pattern is
/// either an exact key or carries a single `*` wildcard matching any
/// (possibly empty) run of characters: `*_p99` matches every p99 metric,
/// `recovery_*` every recovery metric, `adm_wait_p99` exactly one.
pub fn pattern_matches(pattern: &str, key: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == key,
        Some((prefix, suffix)) => {
            key.len() >= prefix.len() + suffix.len()
                && key.starts_with(prefix)
                && key.ends_with(suffix)
        }
    }
}

/// [`tolerance_for`] with per-metric overrides, the hook that lets tail
/// percentiles (`*_p99`, `*_max`) carry wider bands than means without
/// loosening the whole gate. Precedence, most to least specific:
///
/// 1. an exact-key override,
/// 2. the *most specific* matching wildcard override (most literal, i.e.
///    non-`*`, characters; first listed wins ties),
/// 3. the built-in `throughput` widening,
/// 4. the gate-wide default.
pub fn tolerance_with_overrides(key: &str, tolerance: f64, overrides: &[(String, f64)]) -> f64 {
    if let Some((_, t)) = overrides.iter().find(|(p, _)| p == key) {
        return *t;
    }
    let mut best: Option<(usize, f64)> = None;
    for (pattern, t) in overrides {
        if pattern.contains('*') && pattern_matches(pattern, key) {
            let literal = pattern.len() - 1;
            if best.is_none_or(|(l, _)| literal > l) {
                best = Some((literal, *t));
            }
        }
    }
    match best {
        Some((_, t)) => t,
        None => tolerance_for(key, tolerance),
    }
}

/// One metric that moved past the tolerance in the regressing direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric key.
    pub key: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The current run's value.
    pub current: f64,
}

impl Regression {
    /// Relative change of the current value against the baseline, signed so
    /// that positive means "worse" regardless of the metric's direction —
    /// or `None` for a near-zero baseline, where no finite ratio exists
    /// (report the absolute delta instead).
    pub fn severity(&self) -> Option<f64> {
        if !self.baseline.is_finite() || !self.current.is_finite() || self.baseline.abs() < 1e-9 {
            return None;
        }
        let relative = (self.current - self.baseline) / self.baseline.abs();
        Some(if higher_is_better(&self.key) {
            -relative
        } else {
            relative
        })
    }

    /// One human-readable line for the gate report.
    pub fn describe(&self) -> String {
        match self.severity() {
            Some(severity) => format!(
                "REGRESSION {}: baseline {:.4} -> current {:.4} ({:+.1}%)",
                self.key,
                self.baseline,
                self.current,
                severity * 100.0
            ),
            None => format!(
                "REGRESSION {}: baseline {:.4} -> current {:.4} ({:+.4} absolute)",
                self.key,
                self.baseline,
                self.current,
                self.current - self.baseline
            ),
        }
    }
}

/// Outcome of one gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Metrics that regressed past the tolerance (empty = gate passes).
    pub regressions: Vec<Regression>,
    /// Metrics present in the baseline but absent from the current run —
    /// a coverage loss the gate also refuses (a deleted metric would
    /// otherwise make its regressions invisible forever).
    pub missing: Vec<String>,
    /// Metrics present in the current run but not in the baseline — also a
    /// failure: an ungated metric could regress forever without anyone
    /// noticing. Adding a metric demands an explicit `--bless-baseline`.
    pub unbaselined: Vec<String>,
    /// Metrics compared and found within tolerance.
    pub passed: usize,
}

impl GateOutcome {
    /// Whether the gate passes: no regressions, no coverage loss, and no
    /// metric running ungated.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty() && self.unbaselined.is_empty()
    }
}

/// Compare `current` against `baseline` with a relative `tolerance`
/// (`0.10` = a metric may be up to 10% worse before the gate fails).
/// Wall-clock throughput metrics apply a widened per-key margin — see
/// [`tolerance_for`].
///
/// Near-zero baselines (|v| < 1e-9) are compared absolutely against the
/// tolerance instead of relatively, so a 0.0-baseline metric cannot divide
/// by zero or fail on femtosecond noise. Non-finite values (NaN, ±inf) on
/// either side always fail: they can never attest health, and NaN would
/// otherwise pass every directional check by comparing false.
///
/// `overrides` are per-metric tolerances `(pattern, tolerance)` — see
/// [`tolerance_with_overrides`] for the pattern language and precedence.
pub fn compare_with_overrides(
    current: &Summary,
    baseline: &Summary,
    tolerance: f64,
    overrides: &[(String, f64)],
) -> Result<GateOutcome, String> {
    if current.bench != baseline.bench || current.scale != baseline.scale {
        return Err(format!(
            "summary mismatch: current is {}/{}, baseline is {}/{}",
            current.bench, current.scale, baseline.bench, baseline.scale
        ));
    }
    let mut outcome = GateOutcome {
        regressions: Vec::new(),
        missing: Vec::new(),
        unbaselined: Vec::new(),
        passed: 0,
    };
    for (key, base) in &baseline.metrics {
        let (key, base) = (key.clone(), *base);
        let Some(&(_, now)) = current.metrics.iter().find(|(k, _)| *k == key) else {
            outcome.missing.push(key);
            continue;
        };
        let tolerance = tolerance_with_overrides(&key, tolerance, overrides);
        let regressed = if !now.is_finite() || !base.is_finite() {
            // NaN compares false against every threshold, so without this
            // arm a metric that collapsed to NaN (or a poisoned baseline)
            // would sail through both the relative and the absolute check.
            // A non-finite value on either side can never attest health.
            true
        } else if base.abs() < 1e-9 {
            // Absolute comparison around a zero baseline.
            if higher_is_better(&key) {
                now < base - tolerance
            } else {
                now > base + tolerance
            }
        } else if higher_is_better(&key) {
            now < base * (1.0 - tolerance)
        } else {
            now > base * (1.0 + tolerance)
        };
        if regressed {
            outcome.regressions.push(Regression {
                key,
                baseline: base,
                current: now,
            });
        } else {
            outcome.passed += 1;
        }
    }
    for (key, _) in &current.metrics {
        if !baseline.metrics.iter().any(|(k, _)| k == key) {
            outcome.unbaselined.push(key.clone());
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(metrics: &[(&str, f64)]) -> Summary {
        Summary {
            bench: "fig5".into(),
            scale: "quick".into(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn parses_the_emitted_summary_shape() {
        let line = r#"{"bench":"fig5","scale":"quick","elapsed_s":57.2,"metrics":{"makespan_a":123.5,"acc_b":0.8},"status":"ok"}"#;
        let s = parse_summary(line).expect("parse");
        assert_eq!(s.bench, "fig5");
        assert_eq!(s.scale, "quick");
        assert_eq!(s.baseline_stem(), "fig5_quick");
        assert_eq!(
            s.metrics,
            vec![
                ("makespan_a".to_string(), 123.5),
                ("acc_b".to_string(), 0.8)
            ]
        );
        assert!(parse_summary("not json").is_err());
        assert!(
            parse_summary(r#"{"scale":"quick"}"#).is_err(),
            "bench required"
        );
    }

    #[test]
    fn summaries_without_metrics_parse_to_an_empty_set() {
        let line = r#"{"bench":"table1","scale":"quick","elapsed_s":1.0,"status":"ok"}"#;
        assert!(parse_summary(line).expect("parse").metrics.is_empty());
    }

    #[test]
    fn within_tolerance_passes() {
        let base = summary(&[("makespan_a", 100.0), ("acc_b", 0.80)]);
        let now = summary(&[("makespan_a", 109.0), ("acc_b", 0.73)]);
        let outcome = compare_with_overrides(&now, &base, 0.10, &[]).expect("comparable");
        assert!(outcome.ok(), "{outcome:?}");
        assert_eq!(outcome.passed, 2);
    }

    #[test]
    fn a_makespan_regression_beyond_tolerance_fails() {
        let base = summary(&[("makespan_a", 100.0)]);
        let now = summary(&[("makespan_a", 111.0)]);
        let outcome = compare_with_overrides(&now, &base, 0.10, &[]).expect("comparable");
        assert!(!outcome.ok());
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].severity().expect("nonzero baseline") > 0.10);
    }

    #[test]
    fn an_improvement_never_fails_even_when_large() {
        let base = summary(&[("makespan_a", 100.0), ("acc_b", 0.5)]);
        let now = summary(&[("makespan_a", 10.0), ("acc_b", 0.99)]);
        assert!(compare_with_overrides(&now, &base, 0.10, &[])
            .expect("comparable")
            .ok());
    }

    #[test]
    fn accuracy_direction_is_inverted() {
        let base = summary(&[("acc_b", 0.80)]);
        let now = summary(&[("acc_b", 0.70)]);
        let outcome = compare_with_overrides(&now, &base, 0.10, &[]).expect("comparable");
        assert!(!outcome.ok(), "a >10% accuracy drop must fail");
    }

    #[test]
    fn missing_and_unbaselined_metrics_both_fail() {
        let base = summary(&[("makespan_a", 100.0)]);
        let now = summary(&[("makespan_b", 50.0)]);
        let outcome = compare_with_overrides(&now, &base, 0.10, &[]).expect("comparable");
        assert!(!outcome.ok());
        assert_eq!(outcome.missing, vec!["makespan_a".to_string()]);
        assert_eq!(outcome.unbaselined, vec!["makespan_b".to_string()]);
    }

    #[test]
    fn an_unbaselined_metric_alone_fails_the_gate() {
        // Every baselined metric is within tolerance, yet a new metric with
        // no baseline must still fail: it would otherwise run ungated until
        // someone happened to bless.
        let base = summary(&[("makespan_a", 100.0)]);
        let now = summary(&[("makespan_a", 100.0), ("recovered_chaos", 3.0)]);
        let outcome = compare_with_overrides(&now, &base, 0.10, &[]).expect("comparable");
        assert!(outcome.regressions.is_empty() && outcome.missing.is_empty());
        assert_eq!(outcome.unbaselined, vec!["recovered_chaos".to_string()]);
        assert!(!outcome.ok(), "unbaselined metrics must fail the gate");
    }

    #[test]
    fn throughput_direction_is_higher_is_better_with_a_widened_margin() {
        assert!(higher_is_better("throughput_decisions_per_sec"));
        assert_eq!(
            tolerance_for("throughput_greedy_decisions_per_sec", 0.10),
            0.75
        );
        assert_eq!(tolerance_for("makespan_a", 0.10), 0.10);
        let base = summary(&[("throughput_decisions_per_sec", 1000.0)]);
        // Wall-clock rates breathe with the runner: even a halving stays
        // inside the widened (7.5x) margin...
        let noisy = summary(&[("throughput_decisions_per_sec", 500.0)]);
        assert!(compare_with_overrides(&noisy, &base, 0.10, &[])
            .expect("comparable")
            .ok());
        // ...but a collapse past it still fails, in the inverted direction.
        let collapsed = summary(&[("throughput_decisions_per_sec", 100.0)]);
        assert!(
            !compare_with_overrides(&collapsed, &base, 0.10, &[])
                .expect("comparable")
                .ok(),
            "a throughput collapse must fail"
        );
        let faster = summary(&[("throughput_decisions_per_sec", 2000.0)]);
        assert!(
            compare_with_overrides(&faster, &base, 0.10, &[])
                .expect("comparable")
                .ok(),
            "a throughput gain never fails"
        );
    }

    #[test]
    fn override_patterns_match_exact_prefix_suffix_and_infix() {
        assert!(pattern_matches("adm_wait_p99", "adm_wait_p99"));
        assert!(!pattern_matches("adm_wait_p99", "adm_wait_p50"));
        assert!(pattern_matches("*_p99", "wire_transit_p99"));
        assert!(pattern_matches("recovery_*", "recovery_latency_max"));
        assert!(pattern_matches("adm_*_p50", "adm_wait_p50"));
        assert!(pattern_matches("*", "anything"));
        // The wildcard may match empty, but prefix and suffix must not
        // overlap inside the key.
        assert!(pattern_matches("ab*", "ab"));
        assert!(!pattern_matches("abc*bcd", "abcd"));
    }

    #[test]
    fn tolerance_override_precedence_is_exact_then_most_literal_wildcard() {
        let overrides = vec![
            ("*_p99".to_string(), 0.25),
            ("adm_wait_*".to_string(), 0.40),
            ("adm_wait_p99".to_string(), 0.15),
        ];
        // An exact key beats every wildcard, regardless of listing order.
        assert_eq!(
            tolerance_with_overrides("adm_wait_p99", 0.10, &overrides),
            0.15
        );
        // Among wildcards the most literal characters win: `adm_wait_*`
        // (9 literals) is more specific than `*_p99` (4).
        assert_eq!(
            tolerance_with_overrides("adm_wait_p50", 0.10, &overrides),
            0.40
        );
        assert_eq!(
            tolerance_with_overrides("wire_transit_p99", 0.10, &overrides),
            0.25
        );
        // Equally-literal patterns: the first listed wins.
        let tied = vec![("a_*".to_string(), 0.3), ("*_b".to_string(), 0.4)];
        assert_eq!(tolerance_with_overrides("a_b", 0.10, &tied), 0.3);
        // No override: the built-in behavior is untouched.
        assert_eq!(
            tolerance_with_overrides("makespan_a", 0.10, &overrides),
            0.10
        );
        assert_eq!(
            tolerance_with_overrides("throughput_x", 0.10, &overrides),
            0.75,
            "builtin throughput widening still applies when nothing matches"
        );
        // ...but an override on a throughput metric beats the widening.
        let tight = vec![("throughput_*".to_string(), 0.20)];
        assert_eq!(tolerance_with_overrides("throughput_x", 0.10, &tight), 0.20);
    }

    #[test]
    fn overrides_widen_only_the_matching_metrics_in_compare() {
        let base = summary(&[("adm_wait_p99", 1.0), ("makespan_a", 100.0)]);
        let now = summary(&[("adm_wait_p99", 1.2), ("makespan_a", 112.0)]);
        // Both moved +12%: without overrides both fail at 10%...
        assert_eq!(
            compare_with_overrides(&now, &base, 0.10, &[])
                .expect("comparable")
                .regressions
                .len(),
            2
        );
        // ...with a `*_p99` band of 25% only the makespan still fails.
        let overrides = vec![("*_p99".to_string(), 0.25)];
        let outcome = compare_with_overrides(&now, &base, 0.10, &overrides).expect("comparable");
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].key, "makespan_a");
    }

    #[test]
    fn zero_baselines_compare_absolutely() {
        let base = summary(&[("makespan_a", 0.0)]);
        let ok = summary(&[("makespan_a", 0.05)]);
        assert!(compare_with_overrides(&ok, &base, 0.10, &[])
            .expect("comparable")
            .ok());
        let bad = summary(&[("makespan_a", 0.2)]);
        let outcome = compare_with_overrides(&bad, &base, 0.10, &[]).expect("comparable");
        assert!(!outcome.ok());
        // No finite ratio exists against a zero baseline: the report falls
        // back to the absolute delta instead of printing inf/NaN percent.
        let r = &outcome.regressions[0];
        assert_eq!(r.severity(), None);
        assert!(
            r.describe().contains("+0.2000 absolute"),
            "{}",
            r.describe()
        );
    }

    #[test]
    fn non_finite_values_always_fail() {
        let base = summary(&[("makespan_a", 100.0), ("acc_b", 0.8)]);
        // NaN compares false in every direction; without the explicit arm it
        // would pass both the relative and the absolute check.
        let nan_now = summary(&[("makespan_a", f64::NAN), ("acc_b", 0.8)]);
        let outcome = compare_with_overrides(&nan_now, &base, 0.10, &[]).expect("comparable");
        assert!(!outcome.ok(), "a NaN metric must fail the gate");
        assert_eq!(outcome.regressions[0].severity(), None);
        let inf_now = summary(&[("makespan_a", f64::INFINITY), ("acc_b", 0.8)]);
        assert!(!compare_with_overrides(&inf_now, &base, 0.10, &[])
            .expect("comparable")
            .ok());
        // A poisoned baseline demands a re-bless, not a silent pass.
        let nan_base = summary(&[("makespan_a", f64::NAN), ("acc_b", 0.8)]);
        let healthy = summary(&[("makespan_a", 100.0), ("acc_b", 0.8)]);
        assert!(!compare_with_overrides(&healthy, &nan_base, 0.10, &[])
            .expect("comparable")
            .ok());
    }

    #[test]
    fn severity_sign_means_worse_regardless_of_direction() {
        let sev = |key: &str, baseline: f64, current: f64| {
            Regression {
                key: key.into(),
                baseline,
                current,
            }
            .severity()
            .expect("finite nonzero baseline")
        };
        // Lower-is-better: growth is worse, shrinkage is better.
        assert!(sev("makespan_a", 100.0, 120.0) > 0.0);
        assert!(sev("makespan_a", 100.0, 80.0) < 0.0);
        // Higher-is-better: the sign flips with the direction key.
        assert!(sev("acc_b", 0.8, 0.6) > 0.0);
        assert!(sev("throughput_x", 1000.0, 1500.0) < 0.0);
        // A negative baseline must not flip the sign: the relative change
        // is taken against |baseline|.
        assert!(sev("makespan_a", -100.0, -80.0) > 0.0);
    }

    #[test]
    fn mismatched_identities_refuse_to_compare() {
        let base = Summary {
            bench: "table3".into(),
            ..summary(&[])
        };
        let now = summary(&[]);
        assert!(compare_with_overrides(&now, &base, 0.10, &[]).is_err());
    }
}
