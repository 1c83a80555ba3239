//! Gantt-chart extraction for scheduling plans (Figure 9 of the paper).
//!
//! The case study visualises a learned TPC-DS scheduling plan as horizontal
//! bars per connection. This module extracts that structure from an
//! [`EpisodeLog`] and renders a plain-text version suitable for terminals and
//! experiment reports.

use crate::log::EpisodeLog;

/// One bar of the Gantt chart: a query execution on a connection.
#[derive(Debug, Clone)]
pub struct GanttBar {
    /// Connection (row) the query ran on.
    pub connection: usize,
    /// Query template number (the label used in the paper's figure).
    pub template: usize,
    /// Query name.
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// A per-connection view of one scheduling round.
#[derive(Debug, Clone)]
pub struct GanttChart {
    /// Bars grouped by connection, each sorted by start time.
    pub rows: Vec<Vec<GanttBar>>,
    /// Overall makespan.
    pub makespan: f64,
}

impl GanttChart {
    /// Build the chart from an episode log.
    pub fn from_log(log: &EpisodeLog) -> Self {
        let max_conn = log
            .records
            .iter()
            .map(|r| r.connection)
            .max()
            .map_or(0, |c| c + 1);
        let mut rows: Vec<Vec<GanttBar>> = vec![Vec::new(); max_conn];
        for r in &log.records {
            rows[r.connection].push(GanttBar {
                connection: r.connection,
                template: r.template,
                name: r.name.clone(),
                start: r.started_at,
                end: r.finished_at,
            });
        }
        for row in &mut rows {
            row.sort_by(|a, b| a.start.total_cmp(&b.start));
        }
        Self {
            rows,
            makespan: log.makespan(),
        }
    }

    /// Number of connections with at least one bar.
    pub fn used_connections(&self) -> usize {
        self.rows.iter().filter(|r| !r.is_empty()).count()
    }

    /// Fraction of the total `connections × makespan` area covered by bars —
    /// a rough utilisation measure of the scheduling plan.
    pub fn utilisation(&self) -> f64 {
        if self.makespan <= 0.0 || self.rows.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.rows.iter().flatten().map(|b| b.end - b.start).sum();
        busy / (self.makespan * self.rows.len() as f64)
    }

    /// Render the chart as ASCII art, `width` characters wide.
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(20);
        let mut out = String::new();
        out.push_str(&format!(
            "Gantt chart — {} connections, makespan {:.2}s\n",
            self.rows.len(),
            self.makespan
        ));
        for (conn, row) in self.rows.iter().enumerate() {
            let mut line = vec![' '; width];
            for bar in row {
                let s = ((bar.start / self.makespan) * (width as f64 - 1.0)).round() as usize;
                let e = ((bar.end / self.makespan) * (width as f64 - 1.0)).round() as usize;
                let e = e.max(s).min(width - 1);
                let label: Vec<char> = bar.template.to_string().chars().collect();
                for (k, pos) in (s..=e).enumerate() {
                    line[pos] = if k < label.len() { label[k] } else { '=' };
                }
                if e < width - 1 {
                    line[e] = '|';
                }
            }
            out.push_str(&format!("C{conn:<3}{}\n", line.iter().collect::<String>()));
        }
        out
    }

    /// Bars that finish in the last `fraction` of the makespan — the
    /// "long-tail" queries the paper tries to schedule early.
    pub fn tail_queries(&self, fraction: f64) -> Vec<&GanttBar> {
        let threshold = self.makespan * (1.0 - fraction.clamp(0.0, 1.0));
        self.rows
            .iter()
            .flatten()
            .filter(|b| b.end >= threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::QueryRecord;
    use bq_dbms::{DbmsKind, RunParams};
    use bq_plan::QueryId;

    fn make_log() -> EpisodeLog {
        let mut log = EpisodeLog::new(DbmsKind::X, "test", 0);
        let mk = |q: usize, conn: usize, s: f64, e: f64| QueryRecord {
            query: QueryId(q),
            template: q + 1,
            name: format!("q{q}"),
            params: RunParams::default_config(),
            connection: conn,
            started_at: s,
            finished_at: e,
        };
        log.records = vec![mk(0, 0, 0.0, 4.0), mk(1, 1, 0.0, 10.0), mk(2, 0, 4.0, 9.0)];
        log
    }

    #[test]
    fn chart_groups_by_connection() {
        let chart = GanttChart::from_log(&make_log());
        assert_eq!(chart.rows.len(), 2);
        assert_eq!(chart.rows[0].len(), 2);
        assert_eq!(chart.rows[1].len(), 1);
        assert_eq!(chart.makespan, 10.0);
        assert_eq!(chart.used_connections(), 2);
        // Row 0 sorted by start time.
        assert!(chart.rows[0][0].start <= chart.rows[0][1].start);
    }

    #[test]
    fn utilisation_is_in_unit_range() {
        let chart = GanttChart::from_log(&make_log());
        let u = chart.utilisation();
        assert!(u > 0.0 && u <= 1.0, "utilisation {u}");
        // busy = 4 + 5 + 10 = 19; area = 2 * 10 = 20.
        assert!((u - 0.95).abs() < 1e-9);
    }

    #[test]
    fn ascii_render_has_one_line_per_connection() {
        let chart = GanttChart::from_log(&make_log());
        let text = chart.render_ascii(60);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 connections
        assert!(lines[0].contains("makespan"));
        assert!(lines[1].starts_with("C0"));
    }

    #[test]
    fn tail_queries_are_late_finishers() {
        let chart = GanttChart::from_log(&make_log());
        // Last 5% of the makespan (threshold 9.5): only the bar ending at 10.
        let tail = chart.tail_queries(0.05);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].template, 2);
        // Last 20% (threshold 8.0): the bars ending at 10 and 9.
        assert_eq!(chart.tail_queries(0.2).len(), 2);
    }

    #[test]
    fn empty_log_produces_empty_chart() {
        let log = EpisodeLog::new(DbmsKind::Z, "t", 0);
        let chart = GanttChart::from_log(&log);
        assert!(chart.rows.is_empty());
        assert_eq!(chart.utilisation(), 0.0);
    }
}
