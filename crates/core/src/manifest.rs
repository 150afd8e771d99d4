//! Run manifests: record a deterministic run once, replay it anywhere.
//!
//! Determinism makes a run a pure function of `(program, input, executor
//! configuration)` — none of which is the thread count. A [`RunManifest`]
//! captures that function's identity plus its *expected answer*: the
//! canonical per-round hash chain and the final run fingerprint (both from
//! [`galois_runtime::fingerprint`]). Replaying the manifest on any machine,
//! at any thread count, must reproduce every hash bit for bit; the first
//! mismatch is reported as a structured [`ReplayDivergence`] naming the
//! exact round. This is the record/replay + lockstep-replication design of
//! Aviram & Ford ("Efficient System-Enforced Deterministic Parallelism"):
//! deterministic execution turns replica fault detection into hash compare.
//!
//! The pieces:
//!
//! - [`ExecConfig`] — the serializable snapshot of an [`Executor`]. Note
//!   what is *not* here: the adaptive window constants. They are fixed by
//!   design (the paper's "parameterless" claim), so a manifest never has to
//!   carry tuning state to be portable.
//! - [`ManifestRecorder`] — a [`Probe`] attached via [`LoopSpec::record`]
//!   that folds every round into a [`RoundChain`] and snapshots the
//!   executor configuration. In *replay* mode it carries the expected
//!   hashes instead and flags the first divergent round as it streams past.
//! - [`RunManifest`] — the on-disk artifact: versioned, checksummed,
//!   fixed-order single-line JSON, written by `format!` and read back
//!   through the workspace's one strict codec ([`galois_runtime::json`]:
//!   checksum envelope first, then an ordered field cursor), so any
//!   corruption, unknown field or reordering is rejected.
//!
//! [`LoopSpec::record`]: crate::LoopSpec::record
//! [`Executor`]: crate::Executor
//! [`LoopSpec`]: crate::LoopSpec

use crate::executor::{Executor, Schedule, WorklistPolicy};
use crate::window::WindowPolicy;
use crate::DetOptions;
use galois_runtime::fingerprint::{run_fingerprint, RoundChain};
use galois_runtime::json::{self, escape, Fields, Value};
use galois_runtime::probe::{Probe, RoundRecord};
use galois_runtime::stats::ExecStats;
use std::fmt;
use std::path::Path;

/// Manifest format version this build writes and accepts.
pub const MANIFEST_VERSION: u64 = 1;

/// The scheduler selected by a recorded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Single-threaded reference execution.
    Serial,
    /// The non-deterministic speculative scheduler.
    Speculative,
    /// The deterministic DIG scheduler — the only kind worth replaying.
    Deterministic,
}

impl ScheduleKind {
    fn name(self) -> &'static str {
        match self {
            ScheduleKind::Serial => "serial",
            ScheduleKind::Speculative => "speculative",
            ScheduleKind::Deterministic => "deterministic",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "serial" => Some(ScheduleKind::Serial),
            "speculative" => Some(ScheduleKind::Speculative),
            "deterministic" => Some(ScheduleKind::Deterministic),
            _ => None,
        }
    }
}

/// Serializable snapshot of an [`Executor`]: everything a replica needs to
/// re-create the run's schedule-relevant configuration.
///
/// The thread count is recorded for provenance but is explicitly **not**
/// schedule-relevant under deterministic execution — replay overrides it
/// freely (that is the portability claim being verified). The adaptive
/// window policy is not recorded: it is parameterless by design, so every
/// build agrees on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads the recorded run used (informational; replay may
    /// override).
    pub threads: usize,
    /// Which scheduler ran.
    pub schedule: ScheduleKind,
    /// Deterministic option: continuation optimization (§3.3).
    pub continuation: bool,
    /// Deterministic option: locality spreading factor (§3.3).
    pub locality_spread: usize,
    /// Speculative worklist order (recorded for fidelity; ignored by the
    /// deterministic scheduler).
    pub worklist: WorklistPolicy,
    /// Chaos seed, when the recorded run had a chaos policy installed.
    pub chaos_seed: Option<u64>,
    /// Whether the chaos policy had panic injection armed.
    pub chaos_panics: bool,
    /// Speculative stall threshold in rounds.
    pub max_stalled_rounds: u64,
}

impl ExecConfig {
    /// Snapshots `exec`'s schedule-relevant configuration.
    pub fn from_executor(exec: &Executor) -> Self {
        let (schedule, continuation, locality_spread) = match &exec.schedule {
            Schedule::Serial => (ScheduleKind::Serial, true, 1),
            Schedule::Speculative => (ScheduleKind::Speculative, true, 1),
            Schedule::Deterministic(opts) => (
                ScheduleKind::Deterministic,
                opts.continuation,
                opts.locality_spread,
            ),
        };
        ExecConfig {
            threads: exec.threads,
            schedule,
            continuation,
            locality_spread,
            worklist: exec.worklist,
            chaos_seed: exec.chaos.as_ref().map(|c| c.seed()),
            chaos_panics: exec.chaos.as_ref().is_some_and(|c| c.panics_enabled()),
            max_stalled_rounds: exec.max_stalled_rounds,
        }
    }

    /// Rebuilds an [`Executor`] from this snapshot, with `threads`
    /// overriding the recorded thread count (pass the recorded
    /// [`ExecConfig::threads`] to reproduce it exactly).
    pub fn to_executor(&self, threads: usize) -> Executor {
        let schedule = match self.schedule {
            ScheduleKind::Serial => Schedule::Serial,
            ScheduleKind::Speculative => Schedule::Speculative,
            ScheduleKind::Deterministic => Schedule::Deterministic(DetOptions {
                continuation: self.continuation,
                locality_spread: self.locality_spread,
                window: WindowPolicy::default(),
            }),
        };
        let mut exec = Executor::new()
            .threads(threads)
            .schedule(schedule)
            .worklist(self.worklist)
            .max_stalled_rounds(self.max_stalled_rounds);
        if let Some(seed) = self.chaos_seed {
            exec = if self.chaos_panics {
                exec.chaos_panics(seed)
            } else {
                exec.chaos(seed)
            };
        }
        exec
    }
}

/// A replayed round hashed differently than the manifest promised.
///
/// `round` is the chain sequence index (monotone across multi-pass runs);
/// `expected` is the manifest's prefix hash for that round, `actual` the
/// replay's. A `0` on either side means that side had no such round at all
/// (the runs disagreed on round *count* after agreeing on every common
/// round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// First divergent round (chain sequence index).
    pub round: u64,
    /// The recorded prefix hash (0 = the recording ended before this round).
    pub expected: u64,
    /// The replayed prefix hash (0 = the replay ended before this round).
    pub actual: u64,
}

impl fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay diverged at round {}: expected {:016x}, got {:016x}",
            self.round, self.expected, self.actual
        )
    }
}

impl std::error::Error for ReplayDivergence {}

/// Why a manifest file was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The file is not the strict fixed-order JSON this build writes.
    Parse(String),
    /// The file's format version is not [`MANIFEST_VERSION`].
    Version(u64),
    /// The body bytes do not hash to the trailing checksum: corruption.
    Checksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum of the file's actual body bytes.
        actual: u64,
    },
    /// The file could not be read or written.
    Io(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Parse(msg) => write!(f, "manifest parse error: {msg}"),
            ManifestError::Version(v) => write!(
                f,
                "manifest version {v} is not supported (this build reads version {MANIFEST_VERSION})"
            ),
            ManifestError::Checksum { stored, actual } => write!(
                f,
                "manifest checksum mismatch: stored {stored:016x}, body hashes to {actual:016x} \
                 (corrupt file)"
            ),
            ManifestError::Io(msg) => write!(f, "manifest I/O error: {msg}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<json::Error> for ManifestError {
    fn from(e: json::Error) -> Self {
        match e {
            json::Error::Parse(msg) => ManifestError::Parse(msg),
            json::Error::Checksum { stored, actual } => ManifestError::Checksum { stored, actual },
        }
    }
}

/// A recorded deterministic run: identity, configuration, and the expected
/// canonical hashes. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Format version ([`MANIFEST_VERSION`]).
    pub version: u64,
    /// Application name (e.g. `"bfs"`).
    pub app: String,
    /// Input identity key (generator + parameters + seed), e.g.
    /// `"uniform-n2000-d5-s42"` — the same key the input cache uses.
    pub input_key: String,
    /// Input generator seed.
    pub input_seed: u64,
    /// Input size parameter (0 = the app's default corpus size).
    pub size: u64,
    /// Executor configuration of the recorded run.
    pub exec: ExecConfig,
    /// Canonical per-round prefix hashes (the [`RoundChain`] snapshots).
    pub round_hashes: Vec<u64>,
    /// The final run fingerprint
    /// ([`galois_runtime::fingerprint::run_fingerprint`]).
    pub final_fingerprint: u64,
}

impl RunManifest {
    /// Serializes to the versioned, checksummed single-line JSON format.
    pub fn to_json(&self) -> String {
        let chaos = match self.exec.chaos_seed {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        };
        let hashes: Vec<String> = self
            .round_hashes
            .iter()
            .map(|h| format!("\"{h:016x}\""))
            .collect();
        let body = format!(
            "{{\"version\":{},\"app\":\"{}\",\"input_key\":\"{}\",\"input_seed\":{},\
             \"size\":{},\"threads\":{},\"schedule\":\"{}\",\"continuation\":{},\
             \"locality_spread\":{},\"worklist\":\"{}\",\"chaos_seed\":{},\
             \"chaos_panics\":{},\"max_stalled_rounds\":{},\"round_hashes\":[{}],\
             \"final_fingerprint\":\"{:016x}\"}}",
            self.version,
            escape(&self.app),
            escape(&self.input_key),
            self.input_seed,
            self.size,
            self.exec.threads,
            self.exec.schedule.name(),
            self.exec.continuation,
            self.exec.locality_spread,
            match self.exec.worklist {
                WorklistPolicy::Lifo => "lifo",
                WorklistPolicy::Fifo => "fifo",
            },
            chaos,
            self.exec.chaos_panics,
            self.exec.max_stalled_rounds,
            hashes.join(","),
            self.final_fingerprint,
        );
        json::seal(&body)
    }

    /// Parses the format written by [`RunManifest::to_json`], rejecting
    /// version mismatches, any corruption (checksum failure, truncation,
    /// unknown or reordered fields) and a zero `threads` or
    /// `max_stalled_rounds`, which no [`Executor`] accepts.
    pub fn from_json(text: &str) -> Result<RunManifest, ManifestError> {
        let mut f = json::unseal(text)?;
        let version = f.u64("version")?;
        if version != MANIFEST_VERSION {
            return Err(ManifestError::Version(version));
        }
        let app = f.string("app")?;
        let input_key = f.string("input_key")?;
        let input_seed = f.u64("input_seed")?;
        let size = f.u64("size")?;
        let threads = f.u64("threads")? as usize;
        if threads == 0 {
            return Err(ManifestError::Parse("threads must be positive".into()));
        }
        let schedule = ScheduleKind::from_name(&f.string("schedule")?)
            .ok_or_else(|| ManifestError::Parse("unknown schedule kind".into()))?;
        let continuation = f.bool("continuation")?;
        let locality_spread = f.u64("locality_spread")? as usize;
        let worklist = match f.string("worklist")?.as_str() {
            "lifo" => WorklistPolicy::Lifo,
            "fifo" => WorklistPolicy::Fifo,
            _ => return Err(ManifestError::Parse("unknown worklist policy".into())),
        };
        let chaos_seed = f.opt_u64("chaos_seed")?;
        let chaos_panics = f.bool("chaos_panics")?;
        let max_stalled_rounds = f.u64("max_stalled_rounds")?;
        if max_stalled_rounds == 0 {
            return Err(ManifestError::Parse(
                "max_stalled_rounds must be positive".into(),
            ));
        }
        let round_hashes = f.array_of("round_hashes", "hex hashes", Value::as_hex)?;
        let final_fingerprint = f.hex("final_fingerprint")?;
        f.end()?;

        Ok(RunManifest {
            version,
            app,
            input_key,
            input_seed,
            size,
            exec: ExecConfig {
                threads,
                schedule,
                continuation,
                locality_spread,
                worklist,
                chaos_seed,
                chaos_panics,
                max_stalled_rounds,
            },
            round_hashes,
            final_fingerprint,
        })
    }

    /// Writes the manifest to `path`.
    pub fn save(&self, path: &Path) -> Result<(), ManifestError> {
        std::fs::write(path, self.to_json())
            .map_err(|e| ManifestError::Io(format!("{}: {e}", path.display())))
    }

    /// Loads and validates a manifest from `path`.
    pub fn load(path: &Path) -> Result<RunManifest, ManifestError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ManifestError::Io(format!("{}: {e}", path.display())))?;
        RunManifest::from_json(&text)
    }

    /// Compares a replay's hash chain against this manifest's, returning
    /// the first divergent round (`Err`) or `Ok` when every prefix hash and
    /// the round count agree.
    pub fn verify_chain(&self, actual: &[u64]) -> Result<(), ReplayDivergence> {
        for (i, (&e, &a)) in self.round_hashes.iter().zip(actual).enumerate() {
            if e != a {
                return Err(ReplayDivergence {
                    round: i as u64,
                    expected: e,
                    actual: a,
                });
            }
        }
        if self.round_hashes.len() != actual.len() {
            let round = self.round_hashes.len().min(actual.len()) as u64;
            return Err(ReplayDivergence {
                round,
                expected: self.round_hashes.get(round as usize).copied().unwrap_or(0),
                actual: actual.get(round as usize).copied().unwrap_or(0),
            });
        }
        Ok(())
    }
}

/// A [`Probe`] that records (or verifies) a run's canonical hash chain and
/// executor configuration. Attach with [`LoopSpec::record`]; multi-pass
/// runs (pfp bouts) reuse one recorder across every pass, chaining the
/// rounds into one monotone sequence.
///
/// Two modes:
///
/// - **Record** ([`ManifestRecorder::new`]): accumulate hashes, then
///   [`finish`](Self::finish) into a [`RunManifest`].
/// - **Replay** ([`ManifestRecorder::replaying`]): carry the expected chain
///   and flag the first divergent round *as it streams past* (fail fast);
///   [`verify`](Self::verify) renders the verdict.
///
/// The recorder asks for no conflict attribution and no timing
/// ([`Probe::wants_conflicts`]/[`Probe::wants_timing`] are `false`), so
/// recording adds no observable cost beyond the round-record fan-out.
///
/// [`LoopSpec::record`]: crate::LoopSpec::record
pub struct ManifestRecorder {
    exec: Option<ExecConfig>,
    chain: RoundChain,
    committed: u64,
    aborted: u64,
    expected: Option<Vec<u64>>,
    divergence: Option<ReplayDivergence>,
    on_round_hash: Option<Box<dyn FnMut(u64, u64) + Send>>,
}

impl fmt::Debug for ManifestRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManifestRecorder")
            .field("rounds", &self.chain.rounds())
            .field("replay", &self.expected.is_some())
            .field("divergence", &self.divergence)
            .finish()
    }
}

impl Default for ManifestRecorder {
    fn default() -> Self {
        ManifestRecorder {
            exec: None,
            chain: RoundChain::new(),
            committed: 0,
            aborted: 0,
            expected: None,
            divergence: None,
            on_round_hash: None,
        }
    }
}

impl ManifestRecorder {
    /// A recorder in record mode.
    pub fn new() -> Self {
        ManifestRecorder::default()
    }

    /// A recorder in replay mode, verifying against `manifest`'s chain.
    pub fn replaying(manifest: &RunManifest) -> Self {
        ManifestRecorder {
            expected: Some(manifest.round_hashes.clone()),
            ..ManifestRecorder::default()
        }
    }

    /// Installs a hook called with `(sequence index, prefix hash)` for
    /// every round — the lockstep replication cross-check seam.
    pub fn on_round_hash(mut self, hook: impl FnMut(u64, u64) + Send + 'static) -> Self {
        self.on_round_hash = Some(Box::new(hook));
        self
    }

    /// Whether this recorder verifies a replay (vs. records a fresh run).
    pub fn is_replay(&self) -> bool {
        self.expected.is_some()
    }

    /// Snapshots the executor configuration. Called by
    /// [`LoopSpec::record`](crate::LoopSpec::record); the first pass of a
    /// multi-pass run wins (every pass runs the same executor).
    pub fn capture(&mut self, exec: &Executor) {
        if self.exec.is_none() {
            self.exec = Some(ExecConfig::from_executor(exec));
        }
    }

    /// The canonical per-round prefix hashes accumulated so far.
    pub fn round_hashes(&self) -> &[u64] {
        self.chain.hashes()
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u64 {
        self.chain.rounds()
    }

    /// The first divergence flagged while streaming (replay mode only).
    pub fn divergence(&self) -> Option<ReplayDivergence> {
        self.divergence
    }

    /// The final run fingerprint for output hash `output_hash`, folding the
    /// chain and the accumulated commit/abort counters.
    pub fn fingerprint(&self, output_hash: u64) -> u64 {
        run_fingerprint(
            output_hash,
            self.chain.log_hash(),
            self.chain.rounds(),
            self.committed,
            self.aborted,
        )
    }

    /// Finishes a **record**-mode run into a manifest.
    ///
    /// `app`, `input_key`, `input_seed` and `size` identify the run;
    /// `output_hash` is the application-level output hash (the manifest's
    /// final fingerprint folds it in).
    ///
    /// # Panics
    ///
    /// Panics if no run was recorded (no [`capture`](Self::capture) call).
    pub fn finish(
        self,
        app: &str,
        input_key: &str,
        input_seed: u64,
        size: u64,
        output_hash: u64,
    ) -> RunManifest {
        let final_fingerprint = self.fingerprint(output_hash);
        RunManifest {
            version: MANIFEST_VERSION,
            app: app.to_string(),
            input_key: input_key.to_string(),
            input_seed,
            size,
            exec: self.exec.expect("no run recorded: capture() never ran"),
            round_hashes: self.chain.into_hashes(),
            final_fingerprint,
        }
    }

    /// Renders a **replay**-mode verdict against `manifest`: the streamed
    /// chain must match every recorded prefix hash, agree on the round
    /// count, and reproduce the final fingerprint given `output_hash`.
    pub fn verify(&self, manifest: &RunManifest, output_hash: u64) -> Result<(), ReplayDivergence> {
        if let Some(d) = self.divergence {
            return Err(d);
        }
        manifest.verify_chain(self.chain.hashes())?;
        let actual = self.fingerprint(output_hash);
        if actual != manifest.final_fingerprint {
            // Every round hash agreed but the folded fingerprint did not:
            // the output (or a counter) diverged after the last barrier.
            return Err(ReplayDivergence {
                round: self.chain.rounds(),
                expected: manifest.final_fingerprint,
                actual,
            });
        }
        Ok(())
    }
}

impl Probe for ManifestRecorder {
    fn wants_conflicts(&self) -> bool {
        false
    }

    fn wants_timing(&self) -> bool {
        false
    }

    fn conflict_top_k(&self) -> usize {
        0
    }

    fn on_round(&mut self, record: RoundRecord) {
        let seq = self.chain.rounds();
        let hash = self.chain.push(&record);
        if self.divergence.is_none() {
            if let Some(expected) = &self.expected {
                let want = expected.get(seq as usize).copied().unwrap_or(0);
                if want != hash {
                    self.divergence = Some(ReplayDivergence {
                        round: seq,
                        expected: want,
                        actual: hash,
                    });
                }
            }
        }
        if let Some(hook) = &mut self.on_round_hash {
            hook(seq, hash);
        }
    }

    fn on_finish(&mut self, stats: &ExecStats) {
        // Multi-pass runs finish once per pass; counters accumulate.
        self.committed += stats.committed;
        self.aborted += stats.aborted;
    }
}

/// Lockstep report format version this build writes and accepts.
pub const LOCKSTEP_REPORT_VERSION: u64 = 1;

/// How a distributed lockstep run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockstepOutcome {
    /// Every surviving replica reproduced the reference chain and agreed on
    /// the final fingerprint.
    Agreed,
    /// At least one replica diverged and was evicted, but a quorum of
    /// survivors matching the reference chain completed the run.
    Diverged,
    /// The coordinator refused to emit a result: quorum was lost, or a
    /// majority of replicas contradicted the recorded reference chain.
    NoQuorum,
}

impl LockstepOutcome {
    /// The stable wire/report spelling of this outcome.
    pub fn name(self) -> &'static str {
        match self {
            LockstepOutcome::Agreed => "agreed",
            LockstepOutcome::Diverged => "diverged",
            LockstepOutcome::NoQuorum => "no_quorum",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "agreed" => Some(LockstepOutcome::Agreed),
            "diverged" => Some(LockstepOutcome::Diverged),
            "no_quorum" => Some(LockstepOutcome::NoQuorum),
            _ => None,
        }
    }
}

/// What a [`LockstepEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockstepEventKind {
    /// A replica's prefix hash contradicted the settled majority chain.
    Divergence,
    /// A minority replica was removed from the vote after diverging.
    Eviction,
    /// A replica's connection dropped (process death, socket close).
    Death,
    /// A replica went silent past the coordinator's timeout.
    Timeout,
    /// A replica reported a structured execution fault instead of finishing.
    Fault,
    /// The coordinator refused to settle: no trustworthy majority remained.
    Refusal,
}

impl LockstepEventKind {
    /// The stable wire/report spelling of this event kind.
    pub fn name(self) -> &'static str {
        match self {
            LockstepEventKind::Divergence => "divergence",
            LockstepEventKind::Eviction => "eviction",
            LockstepEventKind::Death => "death",
            LockstepEventKind::Timeout => "timeout",
            LockstepEventKind::Fault => "fault",
            LockstepEventKind::Refusal => "refusal",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "divergence" => Some(LockstepEventKind::Divergence),
            "eviction" => Some(LockstepEventKind::Eviction),
            "death" => Some(LockstepEventKind::Death),
            "timeout" => Some(LockstepEventKind::Timeout),
            "fault" => Some(LockstepEventKind::Fault),
            "refusal" => Some(LockstepEventKind::Refusal),
            _ => None,
        }
    }
}

/// One structured entry in a lockstep run's event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockstepEvent {
    /// Chain sequence index the event is anchored to (0 when the event is
    /// not about a specific round, e.g. a pre-run death).
    pub round: u64,
    /// Replica the event concerns; `None` for coordinator-level events.
    pub replica: Option<u64>,
    /// Event classification.
    pub kind: LockstepEventKind,
    /// Reference prefix hash at `round` (0 when not applicable).
    pub expected: u64,
    /// The offending replica's prefix hash (0 when not applicable).
    pub actual: u64,
    /// Human-readable detail.
    pub detail: String,
}

/// The coordinator's structured account of one distributed lockstep run:
/// identity, quorum geometry, the event log (divergences, evictions,
/// deaths), and the agreed result hashes. Same on-disk discipline as
/// [`RunManifest`]: versioned, checksummed, fixed-order single-line JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockstepReport {
    /// Format version ([`LOCKSTEP_REPORT_VERSION`]).
    pub version: u64,
    /// Application name of the replicated run.
    pub app: String,
    /// Input identity key of the replicated run.
    pub input_key: String,
    /// Replicas that joined at the start.
    pub replicas: u64,
    /// Round-count comparison window (coordinator buffer bound).
    pub window: u64,
    /// Rounds settled against the reference chain.
    pub rounds: u64,
    /// How the run ended.
    pub outcome: LockstepOutcome,
    /// Replica ids still in the vote at the end.
    pub survivors: Vec<u64>,
    /// High-water mark of any replica's buffered (unsettled) hash count —
    /// bounded by `window` by construction.
    pub max_buffered: u64,
    /// Agreed application output hash (0 when the run was refused).
    pub output_hash: u64,
    /// Agreed final run fingerprint (0 when the run was refused).
    pub final_fingerprint: u64,
    /// Structured event log, in detection order.
    pub events: Vec<LockstepEvent>,
}

impl LockstepReport {
    /// Serializes to the versioned, checksummed single-line JSON format.
    pub fn to_json(&self) -> String {
        let survivors: Vec<String> = self.survivors.iter().map(|r| r.to_string()).collect();
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                let replica = match e.replica {
                    Some(r) => r.to_string(),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"round\":{},\"replica\":{},\"kind\":\"{}\",\"expected\":\"{:016x}\",\
                     \"actual\":\"{:016x}\",\"detail\":\"{}\"}}",
                    e.round,
                    replica,
                    e.kind.name(),
                    e.expected,
                    e.actual,
                    escape(&e.detail),
                )
            })
            .collect();
        let body = format!(
            "{{\"version\":{},\"app\":\"{}\",\"input_key\":\"{}\",\"replicas\":{},\
             \"window\":{},\"rounds\":{},\"outcome\":\"{}\",\"survivors\":[{}],\
             \"max_buffered\":{},\"output_hash\":\"{:016x}\",\
             \"final_fingerprint\":\"{:016x}\",\"events\":[{}]}}",
            self.version,
            escape(&self.app),
            escape(&self.input_key),
            self.replicas,
            self.window,
            self.rounds,
            self.outcome.name(),
            survivors.join(","),
            self.max_buffered,
            self.output_hash,
            self.final_fingerprint,
            events.join(","),
        );
        json::seal(&body)
    }

    /// Parses the format written by [`LockstepReport::to_json`], rejecting
    /// version mismatches and any corruption.
    pub fn from_json(text: &str) -> Result<LockstepReport, ManifestError> {
        let mut f = json::unseal(text)?;
        let version = f.u64("version")?;
        if version != LOCKSTEP_REPORT_VERSION {
            return Err(ManifestError::Version(version));
        }
        let app = f.string("app")?;
        let input_key = f.string("input_key")?;
        let replicas = f.u64("replicas")?;
        let window = f.u64("window")?;
        let rounds = f.u64("rounds")?;
        let outcome = LockstepOutcome::from_name(&f.string("outcome")?)
            .ok_or_else(|| ManifestError::Parse("unknown lockstep outcome".into()))?;
        let survivors = f.array_of("survivors", "integers", Value::as_u64)?;
        let max_buffered = f.u64("max_buffered")?;
        let output_hash = f.hex("output_hash")?;
        let final_fingerprint = f.hex("final_fingerprint")?;
        let mut events = Vec::new();
        for event in f.array("events")? {
            let mut e = Fields::new(event)?;
            events.push(LockstepEvent {
                round: e.u64("round")?,
                replica: e.opt_u64("replica")?,
                kind: LockstepEventKind::from_name(&e.string("kind")?)
                    .ok_or_else(|| ManifestError::Parse("unknown event kind".into()))?,
                expected: e.hex("expected")?,
                actual: e.hex("actual")?,
                detail: e.string("detail")?,
            });
            e.end()?;
        }
        f.end()?;

        Ok(LockstepReport {
            version,
            app,
            input_key,
            replicas,
            window,
            rounds,
            outcome,
            survivors,
            max_buffered,
            output_hash,
            final_fingerprint,
            events,
        })
    }

    /// Writes the report to `path`.
    pub fn save(&self, path: &Path) -> Result<(), ManifestError> {
        std::fs::write(path, self.to_json())
            .map_err(|e| ManifestError::Io(format!("{}: {e}", path.display())))
    }

    /// Loads and validates a report from `path`.
    pub fn load(path: &Path) -> Result<LockstepReport, ManifestError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ManifestError::Io(format!("{}: {e}", path.display())))?;
        LockstepReport::from_json(&text)
    }

    /// Events of one kind, in detection order.
    pub fn events_of(&self, kind: LockstepEventKind) -> Vec<&LockstepEvent> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        RunManifest {
            version: MANIFEST_VERSION,
            app: "bfs".into(),
            input_key: "uniform-n2000-d5-s42".into(),
            input_seed: 42,
            size: 0,
            exec: ExecConfig {
                threads: 2,
                schedule: ScheduleKind::Deterministic,
                continuation: true,
                locality_spread: 1,
                worklist: WorklistPolicy::Fifo,
                chaos_seed: None,
                chaos_panics: false,
                max_stalled_rounds: 4096,
            },
            round_hashes: vec![0xdead_beef, 0xcafe_f00d, 17],
            final_fingerprint: 0x0123_4567_89ab_cdef,
        }
    }

    #[test]
    fn json_round_trips() {
        let m = manifest();
        let text = m.to_json();
        assert!(text.ends_with("\"}\n"));
        let back = RunManifest::from_json(&text).unwrap();
        assert_eq!(back, m);
        // Chaos seed present round-trips too.
        let mut m2 = manifest();
        m2.exec.chaos_seed = Some(7);
        m2.exec.chaos_panics = true;
        assert_eq!(RunManifest::from_json(&m2.to_json()).unwrap(), m2);
        // Empty hash chain round-trips.
        let mut m3 = manifest();
        m3.round_hashes.clear();
        assert_eq!(RunManifest::from_json(&m3.to_json()).unwrap(), m3);
    }

    #[test]
    fn corruption_is_rejected() {
        let m = manifest();
        let text = m.to_json();

        // Single-byte flip in the body: checksum mismatch.
        let flipped = text.replacen("n2000", "n2001", 1);
        assert!(matches!(
            RunManifest::from_json(&flipped),
            Err(ManifestError::Checksum { .. })
        ));

        // Truncation: missing checksum marker entirely.
        let truncated = &text[..text.len() / 2];
        assert!(matches!(
            RunManifest::from_json(truncated),
            Err(ManifestError::Parse(_))
        ));

        // Tampered checksum digits: mismatch against the intact body.
        let at = text.rfind(":\"").unwrap() + 2;
        let mut bytes = text.clone().into_bytes();
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            RunManifest::from_json(&tampered),
            Err(ManifestError::Checksum { .. })
        ));

        // Garbage: parse error, not a panic.
        assert!(RunManifest::from_json("not json").is_err());
        assert!(RunManifest::from_json("").is_err());
    }

    #[test]
    fn version_mismatch_is_rejected_with_intact_checksum() {
        // Re-serialize with a bumped version and a *correct* checksum: the
        // rejection must be about the version, not the checksum.
        let mut m = manifest();
        m.version = MANIFEST_VERSION + 1;
        assert_eq!(
            RunManifest::from_json(&m.to_json()),
            Err(ManifestError::Version(MANIFEST_VERSION + 1))
        );
    }

    #[test]
    fn resigned_field_edits_are_parse_errors() {
        // An intact checksum gets a document past the envelope; the field
        // cursor must still refuse anything but the exact field sequence.
        let text = manifest().to_json();
        let body = format!("{}}}", &text[..text.rfind(",\"checksum").unwrap()]);
        for (what, edited) in [
            (
                "reordered",
                body.replacen(
                    "\"input_seed\":42,\"size\":0",
                    "\"size\":0,\"input_seed\":42",
                    1,
                ),
            ),
            (
                "unknown",
                body.replacen("\"size\":0", "\"size\":0,\"extra\":1", 1),
            ),
            (
                "duplicate",
                body.replacen("\"size\":0", "\"size\":0,\"size\":0", 1),
            ),
            ("missing", body.replacen("\"size\":0,", "", 1)),
            ("retyped", body.replacen("\"size\":0", "\"size\":\"0\"", 1)),
            // Zeros the executor builder would assert on.
            (
                "zero threads",
                body.replacen("\"threads\":2", "\"threads\":0", 1),
            ),
            (
                "zero stall bound",
                body.replacen("\"max_stalled_rounds\":4096", "\"max_stalled_rounds\":0", 1),
            ),
            (
                "short hex",
                body.replacen("\"00000000deadbeef\"", "\"deadbeef\"", 1),
            ),
        ] {
            assert_ne!(edited, body, "{what}: the edit did not apply");
            let result = RunManifest::from_json(&json::seal(&edited));
            assert!(
                matches!(result, Err(ManifestError::Parse(_))),
                "{what}: {result:?}"
            );
        }
    }

    #[test]
    fn exec_config_round_trips_through_executor() {
        let exec = Executor::new()
            .threads(5)
            .schedule(Schedule::Deterministic(DetOptions {
                locality_spread: 16,
                ..Default::default()
            }))
            .worklist(WorklistPolicy::Fifo)
            .max_stalled_rounds(99)
            .chaos(1234);
        let cfg = ExecConfig::from_executor(&exec);
        assert_eq!(cfg.threads, 5);
        assert_eq!(cfg.schedule, ScheduleKind::Deterministic);
        assert_eq!(cfg.locality_spread, 16);
        assert_eq!(cfg.chaos_seed, Some(1234));
        assert!(!cfg.chaos_panics);
        // Rebuild at a different thread count: identical but for threads.
        let rebuilt = cfg.to_executor(8);
        assert_eq!(ExecConfig::from_executor(&rebuilt).threads, 8);
        assert_eq!(
            ExecConfig {
                threads: 5,
                ..ExecConfig::from_executor(&rebuilt)
            },
            cfg
        );
    }

    #[test]
    fn verify_chain_pinpoints_first_divergence() {
        let mut m = manifest();
        m.round_hashes = vec![10, 20, 30];
        assert!(m.verify_chain(&[10, 20, 30]).is_ok());
        assert_eq!(
            m.verify_chain(&[10, 99, 30]),
            Err(ReplayDivergence {
                round: 1,
                expected: 20,
                actual: 99
            })
        );
        // Count mismatch after an agreeing prefix.
        assert_eq!(
            m.verify_chain(&[10, 20]),
            Err(ReplayDivergence {
                round: 2,
                expected: 30,
                actual: 0
            })
        );
        assert_eq!(
            m.verify_chain(&[10, 20, 30, 40]),
            Err(ReplayDivergence {
                round: 3,
                expected: 0,
                actual: 40
            })
        );
    }

    #[test]
    fn recorder_streams_divergence_fail_fast() {
        let mut m = manifest();
        // Expected chain for rounds of (window=8, attempted=8, committed=8).
        let mut chain = RoundChain::new();
        let good = RoundRecord {
            window: 8,
            attempted: 8,
            committed: 8,
            ..Default::default()
        };
        m.round_hashes = vec![chain.push(&good), chain.push(&good)];

        let mut rec = ManifestRecorder::replaying(&m);
        assert!(rec.is_replay());
        rec.on_round(good.clone());
        assert!(rec.divergence().is_none());
        let bad = RoundRecord {
            window: 8,
            attempted: 8,
            committed: 7,
            failed: 1,
            ..Default::default()
        };
        rec.on_round(bad);
        let d = rec
            .divergence()
            .expect("divergence flagged while streaming");
        assert_eq!(d.round, 1);
        assert_eq!(d.expected, m.round_hashes[1]);
    }

    fn report() -> LockstepReport {
        LockstepReport {
            version: LOCKSTEP_REPORT_VERSION,
            app: "bfs".into(),
            input_key: "uniform-n2000-d5-s42".into(),
            replicas: 3,
            window: 64,
            rounds: 17,
            outcome: LockstepOutcome::Diverged,
            survivors: vec![0, 2],
            max_buffered: 5,
            output_hash: 0xfeed_face,
            final_fingerprint: 0x0123_4567_89ab_cdef,
            events: vec![
                LockstepEvent {
                    round: 9,
                    replica: Some(1),
                    kind: LockstepEventKind::Divergence,
                    expected: 0xaaaa,
                    actual: 0xbbbb,
                    detail: "replica 1 contradicted the reference at round 9".into(),
                },
                LockstepEvent {
                    round: 9,
                    replica: Some(1),
                    kind: LockstepEventKind::Eviction,
                    expected: 0,
                    actual: 0,
                    detail: "minority of 1 evicted".into(),
                },
            ],
        }
    }

    #[test]
    fn lockstep_report_round_trips() {
        let r = report();
        let text = r.to_json();
        assert!(text.ends_with("\"}\n"));
        assert_eq!(LockstepReport::from_json(&text).unwrap(), r);
        // Empty survivors/events and a null replica round-trip too.
        let mut r2 = report();
        r2.survivors.clear();
        r2.events = vec![LockstepEvent {
            round: 0,
            replica: None,
            kind: LockstepEventKind::Refusal,
            expected: 0,
            actual: 0,
            detail: "no strict majority".into(),
        }];
        r2.outcome = LockstepOutcome::NoQuorum;
        assert_eq!(LockstepReport::from_json(&r2.to_json()).unwrap(), r2);
    }

    #[test]
    fn lockstep_report_rejects_corruption_and_versions() {
        let r = report();
        let text = r.to_json();
        let flipped = text.replacen("\"replicas\":3", "\"replicas\":4", 1);
        assert!(matches!(
            LockstepReport::from_json(&flipped),
            Err(ManifestError::Checksum { .. })
        ));
        assert!(matches!(
            LockstepReport::from_json(&text[..text.len() / 2]),
            Err(ManifestError::Parse(_))
        ));
        let mut bumped = report();
        bumped.version = LOCKSTEP_REPORT_VERSION + 1;
        assert_eq!(
            LockstepReport::from_json(&bumped.to_json()),
            Err(ManifestError::Version(LOCKSTEP_REPORT_VERSION + 1))
        );
        assert!(LockstepReport::from_json("not json").is_err());
        assert!(LockstepReport::from_json("").is_err());
    }

    #[test]
    fn lockstep_detail_round_trips_exactly() {
        let mut r = report();
        r.events[0].detail = "quote \" backslash \\ newline \n nul \u{0} é ✓ done".into();
        assert_eq!(LockstepReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn recorder_hook_sees_every_round() {
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut rec = ManifestRecorder::new()
            .on_round_hash(move |seq, h| sink.lock().unwrap().push((seq, h)));
        let r = RoundRecord {
            window: 4,
            attempted: 4,
            committed: 4,
            ..Default::default()
        };
        rec.on_round(r.clone());
        rec.on_round(r);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[1].0, 1);
        assert_eq!(&[seen[0].1, seen[1].1], rec.round_hashes());
    }
}
