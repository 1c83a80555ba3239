//! Span aggregation: per-layer self times, call counts, latency quantiles
//! and the reconciliation of layer self times against traced wall time.

use crate::probe::Span;

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Duration of each span, seconds.
    pub durations: Vec<f64>,
    /// Sum of durations, seconds.
    pub total: f64,
    /// Sum of self times (duration minus child spans), seconds.
    pub self_total: f64,
    /// Spans recorded in the counted operations (see [`Aggregate::new`]).
    pub counted: u64,
}

/// Every traced span, grouped by name.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    names: Vec<(&'static str, NameStats)>,
    /// Sum of the durations of spans without a parent: the traced time the
    /// layers account for.
    pub covered: f64,
}

impl Aggregate {
    /// Group `spans`; spans of operations `< counted_ops` also count towards
    /// [`NameStats::counted`], which keeps call counts independent of how
    /// many operations fit in the run.
    pub fn new(spans: &[Span], counted_ops: u64) -> Self {
        let mut child_time = vec![0.0; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        let mut agg = Aggregate::default();
        for (span, children) in spans.iter().zip(&child_time) {
            if span.parent.is_none() {
                agg.covered += span.duration();
            }
            let stats = match agg.names.iter().position(|(n, _)| *n == span.name) {
                Some(i) => &mut agg.names[i].1,
                None => {
                    agg.names.push((span.name, NameStats::default()));
                    &mut agg.names.last_mut().expect("just pushed").1
                }
            };
            stats.durations.push(span.duration());
            stats.total += span.duration();
            stats.self_total += span.duration() - children;
            if span.op < counted_ops {
                stats.counted += 1;
            }
        }
        agg
    }

    /// Stats of spans named `name` (empty when none were recorded).
    pub fn get(&self, name: &str) -> NameStats {
        self.names
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    }

    /// Sum of self times over every span whose name starts with `prefix`.
    pub fn self_with_prefix(&self, prefix: &str) -> f64 {
        self.names
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s.self_total)
            .sum()
    }

    /// Durations of every span whose name starts with `prefix` and is not
    /// `except`.
    pub fn durations_with_prefix(&self, prefix: &str, except: &str) -> Vec<f64> {
        self.names
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && *n != except)
            .flat_map(|(_, s)| s.durations.iter().copied())
            .collect()
    }

    /// Counted spans over every name starting with `prefix`, except `except`.
    pub fn counted_with_prefix(&self, prefix: &str, except: &str) -> u64 {
        self.names
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && *n != except)
            .map(|(_, s)| s.counted)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_roots_cover_the_tree() {
        let spans = [
            span("episode", 0.0, 10.0, None, 0),
            span("bqsched.select", 1.0, 4.0, Some(0), 0),
            span("dbms.poll_event", 5.0, 6.0, Some(0), 0),
            span("episode", 20.0, 22.0, None, 1),
        ];
        let agg = Aggregate::new(&spans, 1);
        assert_eq!(agg.covered, 12.0);
        let episode = agg.get("episode");
        assert_eq!(episode.total, 12.0);
        assert_eq!(episode.self_total, 8.0);
        assert_eq!(episode.counted, 1);
        assert_eq!(agg.self_with_prefix("dbms."), 1.0);
        assert_eq!(agg.get("missing").counted, 0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }
}
