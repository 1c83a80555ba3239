//! Process-level bench plumbing: the codecs and merging logic behind the
//! `bench_process` orchestrator and its `wire_client` workers.
//!
//! The orchestrator spawns one release-built `bq-serve` plus N
//! `wire_client` processes; each client prints one single-line JSON
//! summary carrying its scalar metrics and its latency histograms, and the
//! orchestrator reconstructs the histograms bit-exactly and merges them
//! with [`Histogram::merge`] into fleet-wide percentiles. Everything here
//! is pure data transformation, unit-tested without spawning anything —
//! the bins only add `std::process` glue.
//!
//! # Why histograms travel as strings
//!
//! The vendored JSON layer stores every number as an `f64`, which cannot
//! represent all `u64` bit patterns (anything above 2^53 rounds). A
//! histogram's `min`/`max`/`sum` travel as the decimal text of their
//! IEEE-754 bit patterns, and bucket indices/counts as decimal text too,
//! so a merged histogram is *bit-identical* to one observed in a single
//! process.

use crate::{metric_slug, BenchReport};
use bq_obs::Histogram;
use serde_json::Value;

/// Serialize a histogram into the JSON value a client summary carries
/// (see the module docs for the string encoding).
pub fn histogram_to_value(h: &Histogram) -> Value {
    let buckets = h
        .nonzero_buckets()
        .into_iter()
        .map(|(index, n)| {
            Value::Seq(vec![
                Value::Str(index.to_string()),
                Value::Str(n.to_string()),
            ])
        })
        .collect();
    Value::Map(vec![
        ("count".to_string(), Value::Str(h.count().to_string())),
        (
            "min_bits".to_string(),
            Value::Str(h.min().to_bits().to_string()),
        ),
        (
            "max_bits".to_string(),
            Value::Str(h.max().to_bits().to_string()),
        ),
        (
            "sum_bits".to_string(),
            Value::Str(h.sum().to_bits().to_string()),
        ),
        ("buckets".to_string(), Value::Seq(buckets)),
    ])
}

fn str_u64(entries: &[(String, Value)], key: &str) -> Result<u64, String> {
    Value::map_get(entries, key)
        .as_str()
        .ok_or_else(|| format!("histogram field {key} missing or not a string"))?
        .parse()
        .map_err(|e| format!("histogram field {key}: {e}"))
}

/// Reconstruct a histogram from [`histogram_to_value`]'s encoding,
/// bit-exactly.
pub fn histogram_from_value(value: &Value) -> Result<Histogram, String> {
    let entries = value
        .as_map()
        .ok_or_else(|| "histogram is not an object".to_string())?;
    let count = str_u64(entries, "count")?;
    if count == 0 {
        return Ok(Histogram::new());
    }
    let min_bits = str_u64(entries, "min_bits")?;
    let max_bits = str_u64(entries, "max_bits")?;
    let sum_bits = str_u64(entries, "sum_bits")?;
    let mut buckets = Vec::new();
    for bucket in Value::map_get(entries, "buckets")
        .as_seq()
        .ok_or_else(|| "histogram buckets missing".to_string())?
    {
        let pair = bucket
            .as_seq()
            .ok_or_else(|| "bucket is not a pair".to_string())?;
        let [index, n] = pair else {
            return Err(format!("bucket pair has {} elements", pair.len()));
        };
        let index: usize = index
            .as_str()
            .ok_or_else(|| "bucket index is not a string".to_string())?
            .parse()
            .map_err(|e| format!("bucket index: {e}"))?;
        let n: u64 = n
            .as_str()
            .ok_or_else(|| "bucket count is not a string".to_string())?
            .parse()
            .map_err(|e| format!("bucket count: {e}"))?;
        buckets.push((index, n));
    }
    Histogram::from_parts(count, min_bits, max_bits, sum_bits, &buckets)
}

/// One `wire_client` run, as parsed back from its JSON summary line.
#[derive(Debug)]
pub struct ClientSummary {
    /// The session round / engine seed the client ran.
    pub round: u64,
    /// The modeled transit latency its transport preamble declared.
    pub transit: f64,
    /// Gate-comparable scalars (`makespan`, `wire_exchanges`, ...).
    pub metrics: Vec<(String, f64)>,
    /// Named latency histograms, bit-exact.
    pub histograms: Vec<(String, Histogram)>,
}

/// Build the single-line JSON summary a `wire_client` prints (the inverse
/// of [`parse_client_summary`]).
pub fn client_summary_line(
    round: u64,
    transit: f64,
    metrics: &[(String, f64)],
    histograms: &[(String, Histogram)],
) -> String {
    let entries = vec![
        ("bench".to_string(), Value::Str("wire_client".to_string())),
        ("round".to_string(), Value::Num(round as f64)),
        ("transit".to_string(), Value::Num(transit)),
        (
            "metrics".to_string(),
            Value::Map(
                metrics
                    .iter()
                    .filter(|(_, v)| v.is_finite())
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "histograms".to_string(),
            Value::Map(
                histograms
                    .iter()
                    .map(|(name, h)| (name.clone(), histogram_to_value(h)))
                    .collect(),
            ),
        ),
        ("status".to_string(), Value::Str("ok".to_string())),
    ];
    serde_json::to_string(&Value::Map(entries)).unwrap_or_else(|e| {
        // Unreachable in practice: every value above is finite by
        // construction.
        format!("{{\"bench\":\"wire_client\",\"status\":\"error: {e}\"}}")
    })
}

/// Parse one `wire_client` summary line.
pub fn parse_client_summary(line: &str) -> Result<ClientSummary, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("client summary: {e}"))?;
    let entries = value
        .as_map()
        .ok_or_else(|| "client summary is not an object".to_string())?;
    let bench = Value::map_get(entries, "bench").as_str().unwrap_or("");
    if bench != "wire_client" {
        return Err(format!("unexpected bench {bench:?} in client summary"));
    }
    let status = Value::map_get(entries, "status").as_str().unwrap_or("");
    if status != "ok" {
        return Err(format!("client reported status {status:?}"));
    }
    let round = Value::map_get(entries, "round")
        .as_num()
        .ok_or_else(|| "round missing".to_string())? as u64;
    let transit = Value::map_get(entries, "transit")
        .as_num()
        .ok_or_else(|| "transit missing".to_string())?;
    let mut metrics = Vec::new();
    if let Some(map) = Value::map_get(entries, "metrics").as_map() {
        for (key, value) in map {
            let value = value
                .as_num()
                .ok_or_else(|| format!("metric {key} is not a number"))?;
            metrics.push((key.clone(), value));
        }
    }
    let mut histograms = Vec::new();
    if let Some(map) = Value::map_get(entries, "histograms").as_map() {
        for (name, value) in map {
            let histogram =
                histogram_from_value(value).map_err(|e| format!("histogram {name}: {e}"))?;
            histograms.push((name.clone(), histogram));
        }
    }
    Ok(ClientSummary {
        round,
        transit,
        metrics,
        histograms,
    })
}

/// Merge the named histogram across every client (clients without it
/// contribute nothing).
pub fn merge_across_clients(summaries: &[ClientSummary], name: &str) -> Histogram {
    let mut merged = Histogram::new();
    for summary in summaries {
        for (key, histogram) in &summary.histograms {
            if key == name {
                merged.merge(histogram);
            }
        }
    }
    merged
}

/// Fold the client fleet into the orchestrator's fig5(f)-style report: one
/// modeled-makespan metric per distinct transit latency, fleet-wide modeled
/// transit percentiles, the deterministic exchange count, and — when the
/// clients timed their round-trips against a wall clock — real kernel RTT
/// percentiles, emitted as `throughput_`-prefixed inverse rates so the gate
/// applies its widened higher-is-better wall-clock tolerance.
pub fn merge_report(summaries: &[ClientSummary]) -> BenchReport {
    let mut out = String::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    out.push_str(
        "Process-level fig5(f): modeled wire transit vs real kernel round-trips \
         (1 bq-serve + N wire_client processes)\n",
    );
    out.push_str(&format!(
        "{:<28} {:>10} {:>15}\n",
        "cell", "clients", "makespan"
    ));
    // One makespan metric per distinct modeled latency, in first-seen order
    // (client launch order, which the orchestrator fixes).
    let mut latencies: Vec<f64> = Vec::new();
    for summary in summaries {
        if !latencies.contains(&summary.transit) {
            latencies.push(summary.transit);
        }
    }
    for &latency in &latencies {
        let cell: Vec<f64> = summaries
            .iter()
            .filter(|s| s.transit == latency)
            .flat_map(|s| {
                s.metrics
                    .iter()
                    .filter(|(k, _)| k == "makespan")
                    .map(|(_, v)| *v)
            })
            .collect();
        let mean = cell.iter().sum::<f64>() / cell.len().max(1) as f64;
        metrics.push((
            format!("makespan_wire_{}", metric_slug(&latency.to_string())),
            mean,
        ));
        out.push_str(&format!(
            "{:<28} {:>10} {:>15.2}\n",
            format!("tpcds X wire={latency}s"),
            cell.len(),
            mean,
        ));
    }
    let exchanges: f64 = summaries
        .iter()
        .flat_map(|s| {
            s.metrics
                .iter()
                .filter(|(k, _)| k == "wire_exchanges")
                .map(|(_, v)| *v)
        })
        .sum();
    metrics.push(("wire_exchanges".to_string(), exchanges));

    let transit = merge_across_clients(summaries, "wire_transit");
    metrics.push(("wire_transit_p50".to_string(), transit.p50()));
    metrics.push(("wire_transit_p99".to_string(), transit.p99()));
    out.push_str(&format!(
        "{:<28} {:>15.4}  {:>15.4}\n",
        "modeled transit p50 / p99",
        transit.p50(),
        transit.p99(),
    ));

    let rtt = merge_across_clients(summaries, "wire_rtt_wall");
    if rtt.count() > 0 {
        out.push_str(&format!(
            "{:<28} {:>15.6}  {:>15.6}  (wall clock, {} exchanges)\n",
            "kernel RTT p50 / p99 (s)",
            rtt.p50(),
            rtt.p99(),
            rtt.count(),
        ));
        // Wall-clock figures are gated as inverse rates: `throughput_`
        // keys are higher-is-better with the gate's built-in wall-clock
        // widening, so only an order-of-magnitude collapse fails CI.
        if rtt.p50() > 0.0 {
            metrics.push(("throughput_rtt_p50_per_sec".to_string(), 1.0 / rtt.p50()));
        }
        if rtt.p99() > 0.0 {
            metrics.push(("throughput_rtt_p99_per_sec".to_string(), 1.0 / rtt.p99()));
        }
    }
    BenchReport { text: out, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Histogram {
        let mut h = Histogram::new();
        for i in 0..100 {
            h.observe(1e-5 * (i as f64 + 1.0));
        }
        h
    }

    #[test]
    fn histograms_round_trip_through_json_bit_exactly() {
        let h = sample();
        let line = serde_json::to_string(&histogram_to_value(&h)).expect("serialize");
        let back =
            histogram_from_value(&serde_json::from_str(&line).expect("parse")).expect("rebuild");
        assert_eq!(back.count(), h.count());
        assert_eq!(back.min().to_bits(), h.min().to_bits());
        assert_eq!(back.max().to_bits(), h.max().to_bits());
        assert_eq!(back.sum().to_bits(), h.sum().to_bits());
        assert_eq!(back.nonzero_buckets(), h.nonzero_buckets());
        // Empty histograms survive too.
        let empty = histogram_from_value(&histogram_to_value(&Histogram::new())).expect("empty");
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn client_summaries_round_trip() {
        let line = client_summary_line(
            3,
            0.05,
            &[
                ("makespan".to_string(), 12.5),
                ("nan".to_string(), f64::NAN),
            ],
            &[("wire_transit".to_string(), sample())],
        );
        let summary = parse_client_summary(&line).expect("parse");
        assert_eq!(summary.round, 3);
        assert_eq!(summary.transit, 0.05);
        assert_eq!(summary.metrics, vec![("makespan".to_string(), 12.5)]);
        assert_eq!(summary.histograms.len(), 1);
        assert_eq!(summary.histograms[0].1.count(), 100);
        assert!(parse_client_summary("{\"bench\":\"other\"}").is_err());
    }

    #[test]
    fn merged_report_folds_the_fleet() {
        let mk = |round: u64, transit: f64, makespan: f64| ClientSummary {
            round,
            transit,
            metrics: vec![
                ("makespan".to_string(), makespan),
                ("wire_exchanges".to_string(), 10.0),
            ],
            histograms: vec![
                ("wire_transit".to_string(), sample()),
                ("wire_rtt_wall".to_string(), sample()),
            ],
        };
        let report = merge_report(&[
            mk(0, 0.0, 10.0),
            mk(0, 0.05, 12.0),
            mk(0, 0.5, 20.0),
            mk(0, 0.0, 10.0),
        ]);
        let get = |key: &str| -> f64 {
            report
                .metrics
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN)
        };
        assert_eq!(get("makespan_wire_0"), 10.0);
        assert_eq!(get("makespan_wire_0_05"), 12.0);
        assert_eq!(get("makespan_wire_0_5"), 20.0);
        assert_eq!(get("wire_exchanges"), 40.0);
        let transit = merge_across_clients(&[mk(0, 0.0, 1.0), mk(1, 0.0, 1.0)], "wire_transit");
        assert_eq!(transit.count(), 200, "fleet-wide merge sums counts");
        assert!(get("wire_transit_p50") > 0.0);
        assert!(
            get("throughput_rtt_p50_per_sec") > 0.0,
            "wall RTTs gate as inverse rates"
        );
    }
}
