//! Execution logs.
//!
//! Logs are the fuel of almost every component of BQSched: MCF reads per-query
//! average costs from them, adaptive masking reads per-configuration speedups,
//! the scheduling-gain clustering reads concurrency overlaps and accelerations,
//! the IQ-PPO auxiliary task reads individual query completion signals, and
//! the incremental simulator is (pre-)trained on them.

use bq_dbms::FaultEvent;
use bq_dbms::{DbmsKind, QueryCompletion, RunParams};
use bq_plan::{QueryId, Workload};
use serde::{Deserialize, Serialize, Value};

/// One executed query inside one scheduling round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRecord {
    /// The query.
    pub query: QueryId,
    /// Benchmark template the query came from.
    pub template: usize,
    /// Query name (e.g. `tpcds_q14`).
    pub name: String,
    /// Running parameters it executed with.
    pub params: RunParams,
    /// Connection it ran on.
    pub connection: usize,
    /// Virtual submission time.
    pub started_at: f64,
    /// Virtual completion time.
    pub finished_at: f64,
}

impl QueryRecord {
    /// Execution duration.
    pub fn duration(&self) -> f64 {
        self.finished_at - self.started_at
    }

    /// Overlap in time with another record (0 if they never ran concurrently).
    pub fn overlap_with(&self, other: &QueryRecord) -> f64 {
        let start = self.started_at.max(other.started_at);
        let end = self.finished_at.min(other.finished_at);
        (end - start).max(0.0)
    }
}

/// One fault or recovery event observed during a round, in log form: a flat
/// record with a `kind` tag plus the fields that apply to that kind (the
/// others stay `None`). Kept separate from [`FaultEvent`] so the log format
/// is a plain serializable struct independent of the in-memory enum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Event kind tag: `transport_retransmit`, `shard_stalled`,
    /// `shard_resumed`, `shard_died`, `query_lost` or `query_resubmitted`.
    pub kind: String,
    /// Virtual instant of the event.
    pub at: f64,
    /// Shard involved (shard events only).
    pub shard: Option<usize>,
    /// Query involved (query events only).
    pub query: Option<usize>,
    /// Connection involved (`query_lost` only).
    pub connection: Option<usize>,
    /// Retry attempt number (retransmit/resubmit events only).
    pub attempt: Option<u32>,
    /// Scheduled resume instant (`shard_stalled` only).
    pub resume_at: Option<f64>,
}

impl FaultRecord {
    /// Flatten a [`FaultEvent`] into its log form.
    pub fn from_event(event: &FaultEvent) -> Self {
        let mut r = FaultRecord {
            kind: String::new(),
            at: event.at(),
            shard: None,
            query: None,
            connection: None,
            attempt: None,
            resume_at: None,
        };
        match *event {
            FaultEvent::TransportRetransmit { attempt, .. } => {
                r.kind = "transport_retransmit".into();
                r.attempt = Some(attempt);
            }
            FaultEvent::ShardStalled {
                shard, resume_at, ..
            } => {
                r.kind = "shard_stalled".into();
                r.shard = Some(shard);
                r.resume_at = Some(resume_at);
            }
            FaultEvent::ShardResumed { shard, .. } => {
                r.kind = "shard_resumed".into();
                r.shard = Some(shard);
            }
            FaultEvent::ShardDied { shard, .. } => {
                r.kind = "shard_died".into();
                r.shard = Some(shard);
            }
            FaultEvent::QueryLost {
                query, connection, ..
            } => {
                r.kind = "query_lost".into();
                r.query = Some(query.0);
                r.connection = Some(connection);
            }
            FaultEvent::QueryResubmitted { query, attempt, .. } => {
                r.kind = "query_resubmitted".into();
                r.query = Some(query.0);
                r.attempt = Some(attempt);
            }
        }
        r
    }
}

/// The complete log of one scheduling round (one episode).
///
/// Serialization note: the `faults` key is written only when at least one
/// fault was recorded, so fault-free episode logs are byte-identical to the
/// pre-chaos format (pinned by the golden artifacts); absent keys
/// deserialize to an empty fault list.
#[derive(Debug, Clone)]
pub struct EpisodeLog {
    /// Which DBMS the round ran on.
    pub dbms: DbmsKind,
    /// Name of the scheduling strategy that produced the round.
    pub strategy: String,
    /// Round index (seed) within its evaluation.
    pub round: u64,
    /// Per-query execution records, in completion order.
    pub records: Vec<QueryRecord>,
    /// Fault and recovery events, in observation order (empty when the
    /// round ran on a healthy substrate).
    pub faults: Vec<FaultRecord>,
}

impl Serialize for EpisodeLog {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("dbms".to_string(), self.dbms.to_value()),
            ("strategy".to_string(), self.strategy.to_value()),
            ("round".to_string(), self.round.to_value()),
            ("records".to_string(), self.records.to_value()),
        ];
        if !self.faults.is_empty() {
            entries.push(("faults".to_string(), self.faults.to_value()));
        }
        Value::Map(entries)
    }
}

impl Deserialize for EpisodeLog {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("EpisodeLog: expected a map"))?;
        Ok(Self {
            dbms: Deserialize::from_value(Value::map_get(m, "dbms"))?,
            strategy: Deserialize::from_value(Value::map_get(m, "strategy"))?,
            round: Deserialize::from_value(Value::map_get(m, "round"))?,
            records: Deserialize::from_value(Value::map_get(m, "records"))?,
            faults: match Value::map_get(m, "faults") {
                Value::Null => Vec::new(),
                v => Deserialize::from_value(v)?,
            },
        })
    }
}

impl EpisodeLog {
    /// Create an empty log.
    pub fn new(dbms: DbmsKind, strategy: impl Into<String>, round: u64) -> Self {
        Self {
            dbms,
            strategy: strategy.into(),
            round,
            records: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Append a fault or recovery event observed from the backend (or
    /// emitted by the session's own recovery layer).
    pub fn push_fault(&mut self, event: &FaultEvent) {
        self.faults.push(FaultRecord::from_event(event));
    }

    /// Number of fault events of a given kind tag.
    pub fn fault_count(&self, kind: &str) -> usize {
        self.faults.iter().filter(|f| f.kind == kind).count()
    }

    /// How many submissions the recovery layer successfully re-entered
    /// (`query_resubmitted` events).
    pub fn recovered_submissions(&self) -> usize {
        self.fault_count("query_resubmitted")
    }

    /// How many in-flight queries were lost to faults (`query_lost` events).
    pub fn lost_queries(&self) -> usize {
        self.fault_count("query_lost")
    }

    /// Append a completion observed from the executor.
    pub fn push_completion(&mut self, workload: &Workload, completion: &QueryCompletion) {
        let q = workload.query(completion.query);
        self.records.push(QueryRecord {
            query: completion.query,
            template: q.plan.template,
            name: q.plan.name.clone(),
            params: completion.params,
            connection: completion.connection,
            started_at: completion.started_at,
            finished_at: completion.finished_at,
        });
    }

    /// Overall makespan `t_ov` of the round: the latest finish time.
    pub fn makespan(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.finished_at)
            .fold(0.0, f64::max)
    }

    /// Number of executed queries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record of a specific query, if it has finished.
    pub fn record_for(&self, query: QueryId) -> Option<&QueryRecord> {
        self.records.iter().find(|r| r.query == query)
    }

    /// Serialize to JSON (the on-disk log format).
    pub fn to_json(&self) -> String {
        // bq-lint: allow(panic-surface): serializing a fully-owned in-memory struct is infallible
        serde_json::to_string(self).expect("episode log serialization cannot fail")
    }

    /// Restore from [`EpisodeLog::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// A collection of episode logs: the "offline logs produced by historical
/// executions" plus the "online logs generated by more recent executions".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExecutionHistory {
    episodes: Vec<EpisodeLog>,
}

impl ExecutionHistory {
    /// Create an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one finished round.
    pub fn push(&mut self, episode: EpisodeLog) {
        self.episodes.push(episode);
    }

    /// All recorded rounds.
    pub fn episodes(&self) -> &[EpisodeLog] {
        &self.episodes
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.episodes.len()
    }

    /// Whether no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Average execution time of a query across all rounds (regardless of the
    /// configuration it ran with). Returns `None` if the query never appears.
    pub fn avg_exec_time(&self, query: QueryId) -> Option<f64> {
        let durations: Vec<f64> = self
            .episodes
            .iter()
            .filter_map(|e| e.record_for(query).map(QueryRecord::duration))
            .collect();
        if durations.is_empty() {
            None
        } else {
            Some(durations.iter().sum::<f64>() / durations.len() as f64)
        }
    }

    /// Average execution time of a query under a specific parameter
    /// configuration (`t̄_i|R_i` in the paper).
    pub fn avg_exec_time_with_params(&self, query: QueryId, params: RunParams) -> Option<f64> {
        let durations: Vec<f64> = self
            .episodes
            .iter()
            .filter_map(|e| e.record_for(query))
            .filter(|r| r.params == params)
            .map(QueryRecord::duration)
            .collect();
        if durations.is_empty() {
            None
        } else {
            Some(durations.iter().sum::<f64>() / durations.len() as f64)
        }
    }

    /// All pairs `(record_i, record_j)` from the same round whose executions
    /// overlapped in time, across the whole history. Used by the
    /// scheduling-gain computation.
    pub fn concurrent_pairs(&self) -> Vec<(&QueryRecord, &QueryRecord)> {
        let mut out = Vec::new();
        for e in &self.episodes {
            for i in 0..e.records.len() {
                for j in (i + 1)..e.records.len() {
                    let a = &e.records[i];
                    let b = &e.records[j];
                    if a.overlap_with(b) > 0.0 {
                        out.push((a, b));
                    }
                }
            }
        }
        out
    }

    /// Mean makespan across all recorded rounds.
    pub fn mean_makespan(&self) -> f64 {
        if self.episodes.is_empty() {
            return 0.0;
        }
        self.episodes.iter().map(EpisodeLog::makespan).sum::<f64>() / self.episodes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_dbms::MemoryGrant;

    fn record(query: usize, start: f64, end: f64) -> QueryRecord {
        QueryRecord {
            query: QueryId(query),
            template: query + 1,
            name: format!("q{query}"),
            params: RunParams {
                workers: 1,
                memory: MemoryGrant::Low,
            },
            connection: query % 4,
            started_at: start,
            finished_at: end,
        }
    }

    fn episode(records: Vec<QueryRecord>) -> EpisodeLog {
        let mut e = EpisodeLog::new(DbmsKind::X, "test", 0);
        e.records = records;
        e
    }

    #[test]
    fn makespan_is_latest_finish() {
        let e = episode(vec![
            record(0, 0.0, 5.0),
            record(1, 2.0, 9.0),
            record(2, 1.0, 4.0),
        ]);
        assert_eq!(e.makespan(), 9.0);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn empty_log_has_zero_makespan() {
        let e = EpisodeLog::new(DbmsKind::Y, "t", 1);
        assert_eq!(e.makespan(), 0.0);
        assert!(e.is_empty());
    }

    #[test]
    fn overlap_computation() {
        let a = record(0, 0.0, 5.0);
        let b = record(1, 3.0, 8.0);
        let c = record(2, 6.0, 7.0);
        assert_eq!(a.overlap_with(&b), 2.0);
        assert_eq!(b.overlap_with(&a), 2.0);
        assert_eq!(a.overlap_with(&c), 0.0);
        assert_eq!(b.overlap_with(&c), 1.0);
    }

    #[test]
    fn history_averages_durations() {
        let mut h = ExecutionHistory::new();
        h.push(episode(vec![record(0, 0.0, 4.0)]));
        h.push(episode(vec![record(0, 0.0, 6.0)]));
        assert_eq!(h.avg_exec_time(QueryId(0)), Some(5.0));
        assert_eq!(h.avg_exec_time(QueryId(9)), None);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn history_averages_per_configuration() {
        let mut h = ExecutionHistory::new();
        let mut r1 = record(0, 0.0, 4.0);
        r1.params = RunParams {
            workers: 4,
            memory: MemoryGrant::High,
        };
        let r2 = record(0, 0.0, 8.0); // default params
        h.push(episode(vec![r1]));
        h.push(episode(vec![r2]));
        assert_eq!(
            h.avg_exec_time_with_params(
                QueryId(0),
                RunParams {
                    workers: 4,
                    memory: MemoryGrant::High
                }
            ),
            Some(4.0)
        );
        assert_eq!(
            h.avg_exec_time_with_params(
                QueryId(0),
                RunParams {
                    workers: 1,
                    memory: MemoryGrant::Low
                }
            ),
            Some(8.0)
        );
        assert_eq!(
            h.avg_exec_time_with_params(
                QueryId(0),
                RunParams {
                    workers: 2,
                    memory: MemoryGrant::Low
                }
            ),
            None
        );
    }

    #[test]
    fn concurrent_pairs_only_within_round() {
        let mut h = ExecutionHistory::new();
        h.push(episode(vec![record(0, 0.0, 5.0), record(1, 3.0, 8.0)]));
        h.push(episode(vec![record(2, 0.0, 5.0)]));
        let pairs = h.concurrent_pairs();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.query, QueryId(0));
        assert_eq!(pairs[0].1.query, QueryId(1));
    }

    #[test]
    fn json_roundtrip() {
        let e = episode(vec![record(0, 0.0, 5.0)]);
        let back = EpisodeLog::from_json(&e.to_json()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.makespan(), 5.0);
        assert_eq!(back.strategy, "test");
    }

    #[test]
    fn fault_free_logs_serialize_without_a_faults_key() {
        // The pre-chaos on-disk format must survive unchanged (the golden
        // artifacts pin it byte-for-byte): no `faults` key unless faults
        // were recorded.
        let e = episode(vec![record(0, 0.0, 5.0)]);
        assert!(!e.to_json().contains("faults"));
    }

    #[test]
    fn faults_roundtrip_and_count() {
        let mut e = episode(vec![record(0, 0.0, 5.0)]);
        e.push_fault(&FaultEvent::ShardDied { shard: 1, at: 2.0 });
        e.push_fault(&FaultEvent::QueryLost {
            query: QueryId(0),
            connection: 3,
            at: 2.0,
        });
        e.push_fault(&FaultEvent::QueryResubmitted {
            query: QueryId(0),
            attempt: 1,
            at: 2.1,
        });
        assert_eq!(e.lost_queries(), 1);
        assert_eq!(e.recovered_submissions(), 1);
        assert_eq!(e.fault_count("shard_died"), 1);

        let json = e.to_json();
        assert!(json.contains("faults"));
        let back = EpisodeLog::from_json(&json).unwrap();
        assert_eq!(back.faults, e.faults);
        assert_eq!(back.faults[0].shard, Some(1));
        assert_eq!(back.faults[1].connection, Some(3));
        assert_eq!(back.faults[2].attempt, Some(1));
    }

    #[test]
    fn absent_faults_key_deserializes_to_an_empty_list() {
        let e = episode(vec![record(0, 0.0, 5.0)]);
        let back = EpisodeLog::from_json(&e.to_json()).unwrap();
        assert!(back.faults.is_empty());
    }
}
