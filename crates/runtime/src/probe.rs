//! Round-level observability: the [`Probe`] trait and the [`RoundLog`]
//! recorder.
//!
//! The paper's entire evaluation (§4, Figures 4–10) is built from
//! *per-round* quantities — commit ratio per round, adaptive window size,
//! inspect/commit phase costs, serial leader fraction — and deterministic
//! execution's headline payoff is that this schedule is worth observing: it
//! is the same schedule on every machine. A [`Probe`] receives one
//! [`RoundRecord`] per deterministic round and may do anything with it;
//! [`RoundLog`] is the standard implementation that stores records and
//! serializes them. The speculative scheduler has no rounds: a probe
//! attached there sees only [`Probe::on_finish`].
//!
//! # Zero cost when off
//!
//! Executors carry an `Option<&mut dyn Probe>`. When it is `None` and the
//! run records no trace:
//!
//! - no `RoundRecord` is built and no probe method is called;
//! - no conflict locations are collected (collection is gated on
//!   [`Probe::wants_conflicts`], which is only consulted when a probe is
//!   attached; a trace alone never wants them);
//! - no extra timers run and — the tested invariant — **no atomic
//!   operations are added to the hot path**: a run with no probe reports
//!   the same `atomic_updates` count as one that predates this layer.
//!
//! # Pay for what is read
//!
//! When something is attached, each field costs only for the readers that
//! read it. Conflict attribution is collected only for an attached probe
//! that [wants](Probe::wants_conflicts) it; the executor's own round log
//! (which the harness fingerprints) and the virtual-time trace get records
//! without it. Phases are timed once per lane walk; the finer blocks behind
//! the per-task maxima ([`RoundRecord::inspect_max_ns`]) run only for a
//! trace, whose model is their one reader.
//!
//! # The round log as a portability oracle
//!
//! Every schedule-derived field of a [`RoundRecord`] (round index, window
//! size, attempted/committed/failed counts, conflict attribution) is a pure
//! function of committed-task history under deterministic scheduling, so the
//! **canonical serialization** ([`RoundLog::canonical_jsonl`]) is
//! byte-identical for every thread count. Two runs that should agree can be
//! compared log line by log line: the first differing line names the exact
//! round — and the exact abstract locations — where they diverged. Timing
//! fields are wall-clock and therefore excluded from the canonical form;
//! [`RoundLog::jsonl_with_timing`] includes them for profiling.
//!
//! # Abort attribution
//!
//! During the deterministic inspect phase, every `writeMarkMax` that loses
//! to (or displaces) another task pinpoints one abstract location on an
//! interference-graph edge. For `k` round-mates touching a location, exactly
//! `k - 1` such events occur regardless of interleaving, so per-location
//! conflict counts are schedule-deterministic. The top-K locations by count
//! are recorded per round — the abstract locations that serialized the
//! round — with truncation at a count-class boundary (see
//! [`attribute_conflicts`]) so the reported set stays deterministic even
//! when location ids themselves are allocation-ordered arena names.

use crate::stats::ExecStats;

/// Default number of top conflicting locations attributed per round.
pub const DEFAULT_CONFLICT_TOP_K: usize = 8;

/// One bulk-synchronous round: what the round log, `/run`, the manifest's
/// round hashes and the virtual-time model ([`crate::simtime`]) all read.
///
/// Two producers fill it. The DIG executor emits one per round to its
/// probes, and into the trace when it records one. The handwritten PBBS
/// loops push one per round into their trace: for them `window` and
/// `attempted` are the round's prefix (bfs: its frontier), `conflicts` is
/// empty, and the phase times are wall-clock time for the whole phase.
///
/// Schedule-derived fields (everything except the `*_ns` timings) are
/// deterministic under DIG scheduling: identical for every thread count and
/// machine. [`canonical_json`](Self::canonical_json) holds all of them but
/// `barriers`, a function of the window size that adds nothing to the
/// portability oracle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundRecord {
    /// Round index within the run.
    pub round: u64,
    /// Adaptive window size when the round was carved (may exceed
    /// `attempted` when the pending sequence ran short).
    pub window: u64,
    /// Tasks inspected/attempted in the round.
    pub attempted: u64,
    /// Tasks that belonged to the deterministic independent set and
    /// committed.
    pub committed: u64,
    /// Tasks deferred to a later round (DIG: `attempted - committed`).
    pub failed: u64,
    /// Top-K `(location, conflict count)` pairs, ordered by count
    /// descending then location ascending — the abort attribution. DIG:
    /// filled only in the records an attached probe that
    /// [wants](Probe::wants_conflicts) them receives; empty elsewhere.
    pub conflicts: Vec<(u32, u64)>,
    /// Inspect-phase work (0 when timing is off). DIG: summed over
    /// threads. PBBS: the phase's wall-clock time, which equals the thread
    /// sum only at one thread — the thread count the figures record at.
    pub inspect_ns: f64,
    /// Commit-phase work, summed like `inspect_ns` (0 when timing is off).
    pub commit_ns: f64,
    /// Largest per-task inspect cost, the phase's critical-path floor in the
    /// model. DIG: the largest per-task mean of any timed block. Under
    /// `record_trace` a block is up to 8 consecutive tasks of one thread;
    /// otherwise it is a thread's whole share of the round, so this is the
    /// largest per-thread mean. PBBS: `inspect_ns / attempted`.
    pub inspect_max_ns: f64,
    /// Largest per-committed-task commit cost. DIG: the largest
    /// per-commit mean of any timed block with a commit — blocks of up to
    /// 64 tasks under `record_trace`, a thread's whole share otherwise.
    /// PBBS: `commit_ns / committed` (at least one).
    pub commit_max_ns: f64,
    /// Leader-serial time closing this round (0 when timing is off). DIG:
    /// the whole tail of the fused crossing — output merge, failed-task
    /// write-back, any pass-boundary placement, window carve. PBBS: the
    /// serial flattening of the next round's worklist.
    pub serial_ns: f64,
    /// The share of `serial_ns` that a production runtime parallelises,
    /// which the model replays as `/p` work. DIG: the pass-boundary
    /// placement (0 in a round that closes no pass). PBBS: all of
    /// `serial_ns`.
    pub place_ns: f64,
    /// Barrier crossings the round paid. DIG: 0 for a window of at most 16
    /// tasks, which the leader runs inline, else 2 — a function of the
    /// window alone, so identical at every thread count. PBBS: 2.
    pub barriers: u32,
}

impl RoundRecord {
    /// A PBBS-style round: a prefix of `attempted` tasks reserved in one
    /// parallel phase and committed in another, then a serial flattening
    /// of `serial_ns` that a production runtime parallelises (see the
    /// field docs).
    pub fn bulk(
        round: u64,
        attempted: u64,
        committed: u64,
        failed: u64,
        [inspect_ns, commit_ns, serial_ns]: [f64; 3],
    ) -> RoundRecord {
        RoundRecord {
            round,
            window: attempted,
            attempted,
            committed,
            failed,
            conflicts: Vec::new(),
            inspect_ns,
            commit_ns,
            inspect_max_ns: inspect_ns / attempted.max(1) as f64,
            commit_max_ns: commit_ns / committed.max(1) as f64,
            serial_ns,
            place_ns: serial_ns,
            barriers: 2,
        }
    }

    /// The part of `serial_ns` no worker count parallelises.
    pub fn unplaced_ns(&self) -> f64 {
        (self.serial_ns - self.place_ns).max(0.0)
    }

    /// Total work in the round: both phases and the leader-serial tail.
    pub fn work_ns(&self) -> f64 {
        self.inspect_ns + self.commit_ns + self.serial_ns
    }

    /// Commit ratio of the round (1.0 for an empty round).
    pub fn commit_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.committed as f64 / self.attempted as f64
        }
    }

    /// Canonical JSON object: schedule-derived fields only, fixed key
    /// order, no whitespace — byte-identical across thread counts for
    /// deterministic runs.
    pub fn canonical_json(&self) -> String {
        let mut s = format!(
            "{{\"round\":{},\"window\":{},\"attempted\":{},\"committed\":{},\"failed\":{},\"conflicts\":[",
            self.round, self.window, self.attempted, self.committed, self.failed
        );
        for (i, (loc, n)) in self.conflicts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{loc},{n}]"));
        }
        s.push_str("]}");
        s
    }

    /// JSON object including wall-clock timing fields (not canonical: the
    /// timings differ run to run).
    pub fn json_with_timing(&self) -> String {
        let canon = self.canonical_json();
        let body = &canon[..canon.len() - 1]; // strip the closing brace
        format!(
            "{body},\"inspect_ns\":{:.0},\"commit_ns\":{:.0},\"serial_ns\":{:.0}}}",
            self.inspect_ns, self.commit_ns, self.serial_ns
        )
    }
}

/// Observer of per-round scheduler behavior.
///
/// Implementations receive one [`RoundRecord`] per deterministic round (in
/// round order, from the leader thread between barriers), then one
/// [`on_finish`](Probe::on_finish) call per run under any scheduler. All
/// methods have defaults so a probe can implement only what it needs.
pub trait Probe: Send {
    /// Whether the executor should collect per-conflict abstract locations
    /// (one `Vec` push per losing mark write, plus a sort on the leader's
    /// serial tail every round). Return `false` to skip attribution and
    /// keep only the counts. Asked of the attached probe alone: the
    /// executor's own round log and the trace never collect conflicts.
    fn wants_conflicts(&self) -> bool {
        true
    }

    /// Whether the executor should run per-phase wall-clock timers: two
    /// clock reads per thread per phase walk, plus the leader's serial
    /// tail. The per-task maxima are lane means unless the run also
    /// records its trace (see [`RoundRecord::inspect_max_ns`]).
    fn wants_timing(&self) -> bool {
        true
    }

    /// How many top conflicting locations to attribute per round.
    fn conflict_top_k(&self) -> usize {
        DEFAULT_CONFLICT_TOP_K
    }

    /// Called once per completed deterministic round, in order.
    fn on_round(&mut self, record: RoundRecord);

    /// Called once when the run finishes, with the aggregated stats.
    fn on_finish(&mut self, _stats: &ExecStats) {}
}

/// The standard probe: records every round into memory.
///
/// Serialize with [`RoundLog::canonical_jsonl`] (the portability oracle) or
/// [`RoundLog::jsonl_with_timing`] (profiling).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundLog {
    records: Vec<RoundRecord>,
    final_stats: Option<ExecStats>,
}

impl RoundLog {
    /// An empty log.
    pub fn new() -> Self {
        RoundLog::default()
    }

    /// The recorded rounds, in round order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Consumes the log, yielding the recorded rounds (for merging logs
    /// from multi-pass runs into one).
    pub fn into_records(self) -> Vec<RoundRecord> {
        self.records
    }

    /// Joins the logs of a multi-pass run (pfp runs one pass per bout) into
    /// one log whose rounds are renumbered into a single monotone sequence.
    pub fn concat(logs: impl IntoIterator<Item = RoundLog>) -> RoundLog {
        let mut records: Vec<RoundRecord> = Vec::new();
        for log in logs {
            for mut rec in log.records {
                rec.round = records.len() as u64;
                records.push(rec);
            }
        }
        RoundLog {
            records,
            final_stats: None,
        }
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Aggregated run stats, when the run has finished.
    pub fn final_stats(&self) -> Option<&ExecStats> {
        self.final_stats.as_ref()
    }

    /// Clears the log for reuse across runs.
    pub fn clear(&mut self) {
        self.records.clear();
        self.final_stats = None;
    }

    /// One canonical JSON line per round (schedule-derived fields only):
    /// byte-identical across thread counts for deterministic runs.
    pub fn canonical_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.canonical_json());
            out.push('\n');
        }
        out
    }

    /// One JSON line per round including wall-clock timings.
    pub fn jsonl_with_timing(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.json_with_timing());
            out.push('\n');
        }
        out
    }
}

impl Probe for RoundLog {
    fn on_round(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    fn on_finish(&mut self, stats: &ExecStats) {
        self.final_stats = Some(stats.clone());
    }
}

/// Folds a flat list of conflict locations into the deterministic top-K
/// `(location, count)` attribution: counts per location, ordered by count
/// descending then location ascending, truncated to at most `k`.
///
/// The input order is irrelevant (counts are order-insensitive), which is
/// what keeps the attribution thread-count independent. Sorts `locs` in
/// place as scratch.
///
/// Truncation happens at a *count-class boundary*: when more than `k`
/// locations conflicted, every location tied with the first excluded one is
/// excluded too. Cutting mid-tie would have to pick survivors by location
/// id — and applications whose locations are arena slots (dmr, dt) assign
/// those ids by allocation order, so a mid-tie cut would make the reported
/// set depend on the thread count. Class-boundary truncation keeps the
/// attribution a pure function of the per-location counts, invariant under
/// any renaming of the location space.
pub fn attribute_conflicts(locs: &mut [u32], k: usize) -> Vec<(u32, u64)> {
    if locs.is_empty() || k == 0 {
        return Vec::new();
    }
    locs.sort_unstable();
    let mut counts: Vec<(u32, u64)> = Vec::new();
    for &loc in locs.iter() {
        match counts.last_mut() {
            Some((l, n)) if *l == loc => *n += 1,
            _ => counts.push((loc, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    if counts.len() > k {
        let cutoff = counts[k].1;
        counts.retain(|&(_, n)| n > cutoff);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RoundRecord {
        RoundRecord {
            round: 3,
            window: 32,
            attempted: 32,
            committed: 30,
            failed: 2,
            conflicts: vec![(7, 4), (2, 1)],
            inspect_ns: 1234.5,
            commit_ns: 2345.5,
            serial_ns: 99.9,
            ..Default::default()
        }
    }

    #[test]
    fn concat_renumbers_passes_into_one_sequence() {
        let pass = |rounds: u64| {
            let mut log = RoundLog::new();
            for _ in 0..rounds {
                log.on_round(record());
            }
            log
        };
        let joined = RoundLog::concat([pass(2), RoundLog::new(), pass(3)]);
        let rounds: Vec<u64> = joined.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn canonical_json_is_fixed_order_and_timing_free() {
        let j = record().canonical_json();
        assert_eq!(
            j,
            "{\"round\":3,\"window\":32,\"attempted\":32,\"committed\":30,\
             \"failed\":2,\"conflicts\":[[7,4],[2,1]]}"
                .replace(" ", "")
        );
        assert!(!j.contains("ns"));
        assert!(crate::json::parse(&j).is_ok(), "not strict JSON: {j}");
    }

    #[test]
    fn timing_json_extends_canonical() {
        let r = record();
        let j = r.json_with_timing();
        assert!(j.starts_with(&r.canonical_json()[..r.canonical_json().len() - 1]));
        assert!(j.contains("\"commit_ns\":2346"));
        assert!(j.contains("\"serial_ns\":100"));
        assert!(crate::json::parse(&j).is_ok(), "not strict JSON: {j}");
    }

    #[test]
    fn commit_ratio_edges() {
        assert_eq!(RoundRecord::default().commit_ratio(), 1.0);
        let r = record();
        assert!((r.commit_ratio() - 30.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn round_log_records_in_order() {
        let mut log = RoundLog::new();
        assert!(log.is_empty());
        for i in 0..3 {
            log.on_round(RoundRecord {
                round: i,
                ..Default::default()
            });
        }
        log.on_finish(&ExecStats::default());
        assert_eq!(log.len(), 3);
        assert!(log.final_stats().is_some());
        let jsonl = log.canonical_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("{\"round\":2,"));
        log.clear();
        assert!(log.is_empty() && log.final_stats().is_none());
    }

    #[test]
    fn attribution_counts_sorts_and_truncates() {
        let mut locs = vec![5u32, 1, 5, 9, 1, 5, 9, 2];
        let top = attribute_conflicts(&mut locs, 3);
        assert_eq!(top, vec![(5, 3), (1, 2), (9, 2)]);
        let mut empty = Vec::new();
        assert!(attribute_conflicts(&mut empty, 3).is_empty());
        let mut some = vec![1u32];
        assert!(attribute_conflicts(&mut some, 0).is_empty());
    }

    #[test]
    fn attribution_is_order_insensitive() {
        let mut a = vec![3u32, 1, 3, 2, 1, 3];
        let mut b = vec![1u32, 3, 2, 3, 1, 3];
        assert_eq!(
            attribute_conflicts(&mut a, 8),
            attribute_conflicts(&mut b, 8)
        );
    }

    #[test]
    fn tie_break_is_by_location_id() {
        let mut locs = vec![9u32, 4, 9, 4];
        assert_eq!(attribute_conflicts(&mut locs, 2), vec![(4, 2), (9, 2)]);
    }

    #[test]
    fn truncation_drops_partial_count_classes() {
        // counts: 7 -> 3, then four locations tied at count 1; k = 2 would
        // cut the count-1 class mid-tie, so the whole class is dropped.
        let mut locs = vec![7u32, 7, 7, 1, 2, 3, 4];
        assert_eq!(attribute_conflicts(&mut locs, 2), vec![(7, 3)]);
        // A clean class boundary at k keeps exactly k.
        let mut locs = vec![7u32, 7, 7, 5, 5, 1];
        assert_eq!(attribute_conflicts(&mut locs, 2), vec![(7, 3), (5, 2)]);
    }
}
