//! Execution logs.
//!
//! Logs are the fuel of almost every component of BQSched: MCF reads per-query
//! average costs from them, adaptive masking reads per-configuration speedups,
//! the scheduling-gain clustering reads concurrency overlaps and accelerations,
//! the IQ-PPO auxiliary task reads individual query completion signals, and
//! the incremental simulator is (pre-)trained on them.

use bq_dbms::{DbmsKind, FaultEvent, MemoryGrant, QueryCompletion, RunParams};
use bq_plan::{QueryId, Workload};
use serde_json::Value;

/// One executed query inside one scheduling round.
#[derive(Debug, Clone)]
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

/// The complete log of one scheduling round (one episode).
///
/// Serialization note: the `faults` key is written only when at least one
/// fault was recorded, so fault-free episode logs are byte-identical to the
/// pre-chaos format (pinned by the golden artifacts).
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
    pub faults: Vec<FaultEvent>,
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
        self.faults.push(*event);
    }

    /// Number of fault events of a given kind tag ([`FaultEvent::kind`]).
    pub fn fault_count(&self, kind: &str) -> usize {
        self.faults.iter().filter(|f| f.kind() == kind).count()
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

    /// Serialize to JSON (the on-disk log format): one object with `dbms`,
    /// `strategy`, `round`, `records` and, when any fault was recorded,
    /// `faults`.
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            ("dbms", Value::Str(dbms_tag(self.dbms).into())),
            ("strategy", Value::Str(self.strategy.clone())),
            ("round", Value::Num(self.round as f64)),
            (
                "records",
                Value::Seq(self.records.iter().map(record_value).collect()),
            ),
        ];
        if !self.faults.is_empty() {
            entries.push((
                "faults",
                Value::Seq(self.faults.iter().map(fault_value).collect()),
            ));
        }
        // bq-lint: allow(panic-surface): the writer fails only on a non-finite number, and every virtual instant is finite
        serde_json::to_string(&object(entries)).expect("episode log serialization cannot fail")
    }
}

/// A JSON object with `entries` in order.
fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The log's tag for a DBMS: its variant name.
fn dbms_tag(dbms: DbmsKind) -> &'static str {
    match dbms {
        DbmsKind::X => "X",
        DbmsKind::Y => "Y",
        DbmsKind::Z => "Z",
    }
}

/// The log form of one record: its fields in declaration order, `params`
/// as an object.
fn record_value(r: &QueryRecord) -> Value {
    let memory = match r.params.memory {
        MemoryGrant::Low => "Low",
        MemoryGrant::High => "High",
    };
    object(vec![
        ("query", Value::Num(r.query.0 as f64)),
        ("template", Value::Num(r.template as f64)),
        ("name", Value::Str(r.name.clone())),
        (
            "params",
            object(vec![
                ("workers", Value::Num(f64::from(r.params.workers))),
                ("memory", Value::Str(memory.into())),
            ]),
        ),
        ("connection", Value::Num(r.connection as f64)),
        ("started_at", Value::Num(r.started_at)),
        ("finished_at", Value::Num(r.finished_at)),
    ])
}

/// The log form of one fault event: a flat object with the kind tag, the
/// instant, then `shard`, `query`, `connection`, `attempt` and `resume_at`,
/// each `null` where the kind carries no such field.
fn fault_value(event: &FaultEvent) -> Value {
    let [mut shard, mut query, mut connection, mut attempt, mut resume_at] = [None; 5];
    match *event {
        FaultEvent::TransportRetransmit { attempt: a, .. } => attempt = Some(f64::from(a)),
        FaultEvent::ShardStalled {
            shard: s,
            resume_at: r,
            ..
        } => {
            shard = Some(s as f64);
            resume_at = Some(r);
        }
        FaultEvent::ShardResumed { shard: s, .. } | FaultEvent::ShardDied { shard: s, .. } => {
            shard = Some(s as f64);
        }
        FaultEvent::QueryLost {
            query: q,
            connection: c,
            ..
        } => {
            query = Some(q.0 as f64);
            connection = Some(c as f64);
        }
        FaultEvent::QueryResubmitted {
            query: q,
            attempt: a,
            ..
        } => {
            query = Some(q.0 as f64);
            attempt = Some(f64::from(a));
        }
    }
    let num = |n: Option<f64>| n.map_or(Value::Null, Value::Num);
    object(vec![
        ("kind", Value::Str(event.kind().into())),
        ("at", Value::Num(event.at())),
        ("shard", num(shard)),
        ("query", num(query)),
        ("connection", num(connection)),
        ("attempt", num(attempt)),
        ("resume_at", num(resume_at)),
    ])
}

/// A collection of episode logs: the "offline logs produced by historical
/// executions" plus the "online logs generated by more recent executions".
#[derive(Debug, Clone, Default)]
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
    fn fault_free_logs_serialize_without_a_faults_key() {
        // The pre-chaos on-disk format must survive unchanged (the golden
        // artifacts pin it byte-for-byte): no `faults` key unless faults
        // were recorded.
        let e = episode(vec![record(0, 0.0, 5.0)]);
        assert!(!e.to_json().contains("faults"));
    }

    #[test]
    fn faults_are_counted_by_kind() {
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
    }

    #[test]
    fn to_json_writes_the_pinned_bytes() {
        let mut e = EpisodeLog::new(DbmsKind::Z, "BQSched", 7);
        e.records = vec![
            QueryRecord {
                params: RunParams::default(),
                ..record(3, 0.0, 2.3331295756409567)
            },
            QueryRecord {
                params: RunParams {
                    workers: 4,
                    memory: MemoryGrant::High,
                },
                ..record(12, 0.25, 9007199254740992.0)
            },
        ];
        for event in [
            FaultEvent::TransportRetransmit {
                at: 0.5,
                attempt: 2,
            },
            FaultEvent::ShardStalled {
                shard: 1,
                at: 0.75,
                resume_at: 1.0,
            },
            FaultEvent::ShardResumed { shard: 1, at: 1.0 },
            FaultEvent::ShardDied { shard: 0, at: 1.5 },
            FaultEvent::QueryLost {
                query: QueryId(12),
                connection: 6,
                at: 0.1 + 0.2,
            },
            FaultEvent::QueryResubmitted {
                query: QueryId(12),
                attempt: 1,
                at: 2.0,
            },
        ] {
            e.push_fault(&event);
        }
        assert_eq!(
            e.to_json(),
            concat!(
                r#"{"dbms":"Z","strategy":"BQSched","round":7,"records":["#,
                r#"{"query":3,"template":4,"name":"q3","params":{"workers":1,"memory":"Low"},"#,
                r#""connection":3,"started_at":0,"finished_at":2.3331295756409567},"#,
                r#"{"query":12,"template":13,"name":"q12","params":{"workers":4,"memory":"High"},"#,
                r#""connection":0,"started_at":0.25,"finished_at":9007199254740992}],"faults":["#,
                r#"{"kind":"transport_retransmit","at":0.5,"shard":null,"query":null,"#,
                r#""connection":null,"attempt":2,"resume_at":null},"#,
                r#"{"kind":"shard_stalled","at":0.75,"shard":1,"query":null,"#,
                r#""connection":null,"attempt":null,"resume_at":1},"#,
                r#"{"kind":"shard_resumed","at":1,"shard":1,"query":null,"#,
                r#""connection":null,"attempt":null,"resume_at":null},"#,
                r#"{"kind":"shard_died","at":1.5,"shard":0,"query":null,"#,
                r#""connection":null,"attempt":null,"resume_at":null},"#,
                r#"{"kind":"query_lost","at":0.30000000000000004,"shard":null,"query":12,"#,
                r#""connection":6,"attempt":null,"resume_at":null},"#,
                r#"{"kind":"query_resubmitted","at":2,"shard":null,"query":12,"#,
                r#""connection":null,"attempt":1,"resume_at":null}]}"#,
            )
        );
    }
}
