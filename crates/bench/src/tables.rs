//! Plain-text table rendering for the figure harnesses, plus the small
//! numeric summaries (medians, leader-serial fractions) they report.

use galois_core::{RoundLog, RoundRecord};
use std::collections::BTreeMap;

/// A simple left-aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$}  ", c, w = width[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with sensible precision for tables.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Fraction of a bulk-synchronous execution's work that is inherently
/// serial leader work: the rounds' [`RoundRecord::unplaced_ns`] (the
/// leader tail less its placement) summed, divided by the rounds' total
/// [`RoundRecord::work_ns`].
///
/// This is the Amdahl term the epoch-tagged turnaround attacks — the
/// higher it is, the sooner adding threads stops helping the deterministic
/// variant. Returns `0.0` for an empty or zero-work trace.
pub fn serial_fraction(rounds: &[RoundRecord]) -> f64 {
    let serial: f64 = rounds.iter().map(RoundRecord::unplaced_ns).sum();
    let total: f64 = rounds.iter().map(RoundRecord::work_ns).sum();
    if total > 0.0 {
        serial / total
    } else {
        0.0
    }
}

/// Renders a [`RoundLog`] as a per-round table: window, attempts, commit
/// ratio, the hottest conflicting abstract location, and the measured phase
/// times. This is the human-readable counterpart of the JSONL emitters
/// ([`RoundLog::canonical_jsonl`] / [`RoundLog::jsonl_with_timing`]).
pub fn round_log_table(log: &RoundLog) -> Table {
    let mut t = Table::new(&[
        "round",
        "window",
        "attempted",
        "committed",
        "failed",
        "commit%",
        "top-conflict",
        "inspect-us",
        "commit-us",
        "serial-us",
    ]);
    for r in log.records() {
        let top = match r.conflicts.first() {
            Some((loc, n)) => format!("{loc} x{n}"),
            None => "-".into(),
        };
        t.row(vec![
            r.round.to_string(),
            r.window.to_string(),
            r.attempted.to_string(),
            r.committed.to_string(),
            r.failed.to_string(),
            f(100.0 * r.commit_ratio()),
            top,
            f(r.inspect_ns / 1e3),
            f(r.commit_ns / 1e3),
            f(r.serial_ns / 1e3),
        ]);
    }
    t
}

/// Canonical `BENCH_rounds.json` entry name for a per-round metric.
///
/// Every producer (the `bench_all` rounds suite) and consumer (fig7, the
/// CI perf smoke) goes through this helper, so a rename shows up as a
/// compile-time conflict or an explicit "missing entry" report — never as
/// a silently skipped row. Metrics: `round_wall_ns`, `barriers_per_round`,
/// `allocs_per_round`.
pub fn rounds_metric_name(app: &str, threads: usize, metric: &str) -> String {
    format!("rounds/{app}_t{threads}_{metric}")
}

/// Loads a criterion-shim JSONL bench file (`BENCH_*.json`) into a
/// `name → median` map.
///
/// Each line has the shape
/// `{"name":"...","median_ns":X,"mean_ns":Y,"samples":N}`; for count-based
/// rounds metrics the `_ns` fields carry plain counts (see the
/// `BENCH_rounds.json` legend in the README). Returns an error naming the
/// path when the file is missing or a line does not parse, so callers can
/// report instead of skip.
pub fn load_bench_jsonl(path: &std::path::Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut map = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let field = |key: &str| -> Option<&str> {
            let tag = format!("\"{key}\":");
            let rest = &line[line.find(&tag)? + tag.len()..];
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim())
        };
        let name = field("name")
            .and_then(|v| v.strip_prefix('"'))
            .and_then(|v| v.strip_suffix('"'));
        let median = field("median_ns").and_then(|v| v.parse::<f64>().ok());
        match (name, median) {
            (Some(n), Some(m)) => {
                map.insert(n.to_string(), m);
            }
            _ => {
                return Err(format!(
                    "{}:{}: not a bench record: {line}",
                    path.display(),
                    lineno + 1
                ))
            }
        }
    }
    Ok(map)
}

/// Median of a sample (NaNs excluded).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["app", "value"]);
        t.row(vec!["bfs".into(), "1.23".into()]);
        t.row(vec!["dmr-long-name".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("app"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn median_cases() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[f64::NAN, 5.0]), 5.0);
    }

    #[test]
    fn serial_fraction_aggregates_over_rounds() {
        let round = |work: f64, serial: f64| RoundRecord {
            inspect_ns: work / 2.0,
            commit_ns: work / 2.0,
            serial_ns: serial,
            ..RoundRecord::default()
        };
        // 10 serial out of (90 + 10) total.
        assert_eq!(serial_fraction(&[round(60.0, 5.0), round(30.0, 5.0)]), 0.1);
        // A placement is work, but not serial work.
        let placed = RoundRecord {
            place_ns: 5.0,
            ..round(90.0, 10.0)
        };
        assert_eq!(serial_fraction(&[placed]), 0.05);
        assert_eq!(serial_fraction(&[]), 0.0);
        assert_eq!(serial_fraction(&[round(0.0, 0.0)]), 0.0);
    }

    #[test]
    fn round_log_table_renders_records() {
        use galois_core::Probe;
        let mut log = RoundLog::new();
        log.on_round(RoundRecord {
            round: 0,
            window: 8,
            attempted: 8,
            committed: 6,
            failed: 2,
            conflicts: vec![(3, 2)],
            inspect_ns: 1000.0,
            commit_ns: 2000.0,
            serial_ns: 500.0,
            ..Default::default()
        });
        log.on_round(RoundRecord {
            round: 1,
            window: 12,
            attempted: 4,
            committed: 4,
            failed: 0,
            conflicts: vec![],
            ..Default::default()
        });
        let s = round_log_table(&log).render();
        assert_eq!(s.lines().count(), 4, "header + rule + 2 rows:\n{s}");
        assert!(s.contains("3 x2"), "top conflict rendered:\n{s}");
        assert!(s.lines().nth(3).unwrap().contains('-'), "no-conflict dash");
    }

    #[test]
    fn rounds_names_are_canonical() {
        assert_eq!(
            rounds_metric_name("bfs", 4, "barriers_per_round"),
            "rounds/bfs_t4_barriers_per_round"
        );
        assert_eq!(
            rounds_metric_name("mis", 1, "round_wall_ns"),
            "rounds/mis_t1_round_wall_ns"
        );
    }

    #[test]
    fn jsonl_loader_reads_shim_records_and_reports_errors() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("galois-tables-test-{}.json", std::process::id()));
        std::fs::write(
            &path,
            "{\"name\":\"rounds/bfs_t2_allocs_per_round\",\"median_ns\":0.0,\"mean_ns\":0.1,\"samples\":9}\n\
             {\"name\":\"gen/x\",\"median_ns\":1234.5,\"mean_ns\":1300.0,\"samples\":3}\n",
        )
        .unwrap();
        let map = load_bench_jsonl(&path).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map["rounds/bfs_t2_allocs_per_round"], 0.0);
        assert_eq!(map["gen/x"], 1234.5);
        std::fs::write(&path, "not a record\n").unwrap();
        let err = load_bench_jsonl(&path).unwrap_err();
        assert!(err.contains("not a bench record"), "{err}");
        std::fs::remove_file(&path).unwrap();
        let err = load_bench_jsonl(&path).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.6234), "0.6234");
        assert_eq!(f(2.4), "2.40");
        assert_eq!(f(250.0), "250");
    }
}
