//! The metrics registry: counters and fixed-bucket log-scale
//! latency histograms over **virtual time**.
//!
//! Everything here is deterministic: bucket boundaries are a fixed
//! geometric ladder computed by exact f64 doubling, bucket selection is a
//! binary search over those boundaries (no `log2`, whose last bit can vary
//! across libm builds), and the exact extrema/sum are carried as IEEE-754
//! bit patterns so a serialized summary round-trips the observed values
//! exactly. Registration order is insertion order, so two identical
//! episodes serialize identical summaries byte for byte.

/// Number of finite log-scale buckets; one overflow bucket rides on top.
const BUCKETS: usize = 48;
/// Upper bound of the first bucket (values in `[0, FIRST_BOUND)`), in
/// virtual seconds. Each following bucket doubles the bound, so the ladder
/// spans `1e-6 .. ~1.4e8` virtual seconds before the overflow bucket.
const FIRST_BOUND: f64 = 1e-6;

/// The fixed bucket boundaries shared by every histogram. Doubling is exact
/// in binary floating point, so the ladder is bit-identical everywhere.
fn bucket_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(BUCKETS);
    let mut bound = FIRST_BOUND;
    for _ in 0..BUCKETS {
        bounds.push(bound);
        bound *= 2.0;
    }
    bounds
}

/// A fixed-bucket log-scale latency histogram over virtual time, with the
/// exact minimum, maximum and sum carried alongside the bucket counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `counts[i]` for `i < BUCKETS` counts values in
    /// `[bounds[i-1], bounds[i])` (bucket 0 starts at zero); the final
    /// entry is the overflow bucket for values `>= bounds[BUCKETS-1]`.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram on the standard bucket ladder.
    pub fn new() -> Self {
        Self {
            bounds: bucket_bounds(),
            counts: vec![0; BUCKETS + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. Negative values clamp to zero (latencies
    /// cannot be negative; tiny negative dust from float subtraction must
    /// not poison the extrema); non-finite values are ignored entirely so
    /// a NaN can never leak into a summary.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let value = value.max(0.0);
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let idx = self.bounds.partition_point(|b| *b <= value);
        self.counts[idx] += 1;
    }

    /// Reconstruct a histogram from its serialized parts — the inverse of
    /// what [`Histogram::to_json`] emits (`count`, the `*_bits` IEEE-754
    /// bit patterns, and the non-empty `[index, count]` bucket pairs).
    /// This is how a process-based bench merges histograms across OS
    /// processes: each client serializes its registry, the orchestrator
    /// rebuilds each histogram bit-exactly and folds them with
    /// [`Histogram::merge`].
    ///
    /// A zero `count` returns the empty histogram regardless of the other
    /// parts (an empty histogram serializes its extrema as `0.0`, not as
    /// the `±inf` sentinels it carries in memory). Bucket indices beyond
    /// the ladder and bucket totals disagreeing with `count` are rejected
    /// as `Err` — a summary that fails this round trip is corrupt, and a
    /// silently mis-bucketed merge would skew every percentile downstream.
    pub fn from_parts(
        count: u64,
        min_bits: u64,
        max_bits: u64,
        sum_bits: u64,
        buckets: &[(usize, u64)],
    ) -> Result<Self, String> {
        if count == 0 {
            return Ok(Self::new());
        }
        let mut h = Self::new();
        let mut total = 0u64;
        for &(index, n) in buckets {
            if index > BUCKETS {
                return Err(format!(
                    "bucket index {index} beyond the ladder ({} buckets + overflow)",
                    BUCKETS
                ));
            }
            h.counts[index] += n;
            total += n;
        }
        if total != count {
            return Err(format!(
                "bucket totals sum to {total} but count says {count}"
            ));
        }
        h.count = count;
        h.min = f64::from_bits(min_bits);
        h.max = f64::from_bits(max_bits);
        h.sum = f64::from_bits(sum_bits);
        if !h.min.is_finite() || !h.max.is_finite() || !h.sum.is_finite() {
            return Err("non-finite extrema in a non-empty histogram".to_string());
        }
        Ok(h)
    }

    /// The non-empty buckets as `(index, count)` pairs — the bucket shape
    /// [`Histogram::to_json`] serializes and [`Histogram::from_parts`]
    /// accepts back.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }

    /// Fold `other` into `self` — the per-shard / per-connection merge.
    /// Both sides share the standard ladder, so the merge is exact.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histograms share one ladder");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the observations (0 when empty).
    pub fn sum(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0 when empty, so nothing downstream divides by a
    /// zero count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the bucket
    /// holding the rank-`ceil(q * count)` observation, clamped into the
    /// exact observed `[min, max]` range. Deterministic by construction;
    /// 0 when empty (never NaN). `q = 1` returns the exact maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                let upper = if i < BUCKETS {
                    self.bounds[i]
                } else {
                    self.max
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolved).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket-resolved).
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket-resolved).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Serialize as one JSON object. The extrema and sum are emitted as
    /// IEEE-754 bit patterns (`*_bits`) so the exact f64s survive the text
    /// round trip; the percentiles ride alongside as plain numbers for
    /// human readers. Only non-empty buckets are listed, as
    /// `[index, count]` pairs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"count\":{},\"min_bits\":{},\"max_bits\":{},\"sum_bits\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"buckets\":[",
            self.count,
            self.min().to_bits(),
            self.max().to_bits(),
            self.sum().to_bits(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max(),
        );
        let mut first = true;
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{i},{n}]");
            }
        }
        out.push_str("]}");
        out
    }
}

/// A metric identity: a static name plus an optional index for per-shard /
/// per-connection instances (`shard_advance` × shard id, say).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricKey {
    /// Stable metric name.
    pub name: &'static str,
    /// Instance index (shard, connection) or `None` for a scalar metric.
    pub index: Option<usize>,
}

impl MetricKey {
    fn render(&self) -> String {
        match self.index {
            Some(i) => format!("{}_{i}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// The registry: insertion-ordered counters and histograms. All
/// lookups are linear scans over small vectors — deterministic, no hashing
/// anywhere (`bq-lint` forbids `HashMap` iteration order on principle).
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: Vec<(MetricKey, u64)>,
    histograms: Vec<(MetricKey, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn counter_slot(&mut self, key: MetricKey) -> &mut u64 {
        if let Some(pos) = self.counters.iter().position(|(k, _)| *k == key) {
            return &mut self.counters[pos].1;
        }
        self.counters.push((key, 0));
        &mut self.counters.last_mut().expect("just pushed").1
    }

    fn histogram_slot(&mut self, key: MetricKey) -> &mut Histogram {
        if let Some(pos) = self.histograms.iter().position(|(k, _)| *k == key) {
            return &mut self.histograms[pos].1;
        }
        self.histograms.push((key, Histogram::new()));
        &mut self.histograms.last_mut().expect("just pushed").1
    }

    /// Add `n` to a counter, creating it at zero on first touch.
    pub fn inc_by(&mut self, key: MetricKey, n: u64) {
        *self.counter_slot(key) += n;
    }

    /// Record one histogram observation, creating the histogram on first
    /// touch.
    pub fn observe(&mut self, key: MetricKey, value: f64) {
        self.histogram_slot(key).observe(value);
    }

    /// Pre-register a counter so later increments never allocate — the
    /// steady-state contract the session allocation test pins.
    pub fn ensure_counter(&mut self, key: MetricKey) {
        let _ = self.counter_slot(key);
    }

    /// Pre-register a histogram (see [`MetricsRegistry::ensure_counter`]).
    pub fn ensure_histogram(&mut self, key: MetricKey) {
        let _ = self.histogram_slot(key);
    }

    /// Current counter value (0 when never touched).
    pub fn counter(&self, key: MetricKey) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// Borrow a histogram by key.
    pub fn histogram(&self, key: MetricKey) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| h)
    }

    /// Merge every histogram registered under `name` — scalar and all
    /// indexed instances — into one combined histogram (empty when none
    /// exist). This is how per-shard distributions roll up.
    pub fn merged_histogram(&self, name: &str) -> Histogram {
        let mut merged = Histogram::new();
        for (key, h) in &self.histograms {
            if key.name == name {
                merged.merge(h);
            }
        }
        merged
    }

    /// Serialize the whole registry as one single-line JSON object in the
    /// repo-standard summary shape: `{"counters":{...},"histograms":{...}}`,
    /// both in insertion order.
    pub fn summary_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        for (i, (key, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", key.render());
        }
        out.push_str("},\"histograms\":{");
        for (i, (key, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", key.render(), h.to_json());
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &'static str) -> MetricKey {
        MetricKey { name, index: None }
    }

    #[test]
    fn empty_histogram_is_all_zeros_and_never_nan() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
    }

    #[test]
    fn observations_land_in_log_buckets_with_exact_extrema() {
        let mut h = Histogram::new();
        for v in [0.0, 5e-7, 1e-6, 0.5, 0.5, 0.7, 3.0, 1e12] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e12, "overflow values keep the exact max");
        assert!((h.sum() - (5e-7 + 1e-6 + 0.5 + 0.5 + 0.7 + 3.0 + 1e12)).abs() < 1e-3);
        // Non-finite and negative inputs cannot poison the histogram.
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 8);
        h.observe(-1e-12);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds_clamped_to_observed_range() {
        let mut h = Histogram::new();
        for _ in 0..98 {
            h.observe(0.010); // bucket with bound 0.016384
        }
        h.observe(10.0);
        h.observe(20.0);
        let bulk_bound = 1e-6 * 2f64.powi(14); // 0.016384
        assert_eq!(h.p50(), bulk_bound);
        assert_eq!(h.p90(), bulk_bound);
        assert!(h.p99() > 8.0, "p99 must land in the tail: {}", h.p99());
        assert_eq!(h.quantile(1.0), 20.0, "q=1 is the exact max");
        // A single observation: every quantile collapses to it (clamped).
        let mut one = Histogram::new();
        one.observe(0.25);
        assert_eq!(one.p50(), 0.25);
        assert_eq!(one.p99(), 0.25);
    }

    #[test]
    fn from_parts_round_trips_a_histogram_bit_exactly() {
        let mut h = Histogram::new();
        for v in [0.1 + 0.2, 1.0 / 3.0, 7e-5, 0.0, 1e12] {
            h.observe(v);
        }
        let rebuilt = Histogram::from_parts(
            h.count(),
            h.min().to_bits(),
            h.max().to_bits(),
            h.sum().to_bits(),
            &h.nonzero_buckets(),
        )
        .expect("round trip");
        assert_eq!(rebuilt, h);
        // Merging rebuilt halves equals merging the originals.
        let mut doubled = h.clone();
        doubled.merge(&rebuilt);
        assert_eq!(doubled.count(), 10);
        assert_eq!(doubled.min(), h.min());
        assert_eq!(doubled.max(), h.max());
        // Empty round trip: the parts of an empty summary rebuild empty.
        let empty = Histogram::from_parts(0, 0, 0, 0, &[]).expect("empty");
        assert_eq!(empty, Histogram::new());
        assert_eq!(empty.quantile(0.99), 0.0);
    }

    #[test]
    fn from_parts_rejects_corrupt_summaries() {
        assert!(
            Histogram::from_parts(1, 0, 0, 0, &[(99, 1)]).is_err(),
            "bucket index beyond the ladder"
        );
        assert!(
            Histogram::from_parts(3, 0, 0, 0, &[(0, 1)]).is_err(),
            "bucket totals disagree with count"
        );
        assert!(
            Histogram::from_parts(1, f64::NAN.to_bits(), 0, 0, &[(0, 1)]).is_err(),
            "non-finite extrema"
        );
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0.1, 0.2, 0.3] {
            a.observe(v);
        }
        for v in [1.0, 2.0] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 5);
        assert_eq!(ab.min(), 0.1);
        assert_eq!(ab.max(), 2.0);
        assert!((ab.sum() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn summary_bits_round_trip_the_exact_values() {
        let mut h = Histogram::new();
        for v in [0.1 + 0.2, 1.0 / 3.0, 7e-5] {
            h.observe(v);
        }
        let json = h.to_json();
        // Pull the bits back out of the serialized text and reconstruct.
        let field = |name: &str| -> u64 {
            let tag = format!("\"{name}\":");
            let start = json.find(&tag).expect("field present") + tag.len();
            json[start..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("u64 bits")
        };
        assert_eq!(f64::from_bits(field("min_bits")), h.min());
        assert_eq!(f64::from_bits(field("max_bits")), h.max());
        assert_eq!(f64::from_bits(field("sum_bits")), h.sum());
        assert!(!json.contains('\n'), "summary must be single-line");
    }

    #[test]
    fn registry_counters_and_merge_roll_up() {
        let mut r = MetricsRegistry::new();
        r.inc_by(key("decisions"), 3);
        r.inc_by(key("decisions"), 2);
        assert_eq!(r.counter(key("decisions")), 5);
        assert_eq!(r.counter(key("untouched")), 0);
        for shard in 0..3usize {
            let k = MetricKey {
                name: "advance_latency",
                index: Some(shard),
            };
            r.observe(k, 0.1 * (shard + 1) as f64);
        }
        let merged = r.merged_histogram("advance_latency");
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), 0.30000000000000004);
        let json = r.summary_json();
        assert!(json.contains("\"decisions\":5"));
        assert!(json.contains("\"advance_latency_0\""));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn registry_serialization_is_insertion_ordered_and_deterministic() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.inc_by(key("b"), 1);
            r.inc_by(key("a"), 2);
            r.observe(key("h"), 0.5);
            r
        };
        assert_eq!(build().summary_json(), build().summary_json());
        let json = build().summary_json();
        assert!(
            json.find("\"b\":").expect("b") < json.find("\"a\":").expect("a"),
            "insertion order, not name order: {json}"
        );
    }
}
