//! What a run is configured by — seed, thread count, frozen sizes — and the
//! host stamp printed with every output.

use galois_harness::App;
use std::process::Command;

/// Input sizes (nodes / points per app). Frozen: changing one changes what
/// every recorded number means, so it is a benchmark change of its own.
#[derive(Debug)]
pub struct Sizes {
    pub label: &'static str,
    /// Executor workloads, indexed like [`crate::names::EXEC_APPS`].
    pub exec: [(App, usize); 5],
    /// `serve-replay` requests (`serve-warm` uses the corpus defaults).
    pub replay: [(App, usize); 6],
    /// The mis run that `lockstep` records and replicates.
    pub lockstep_mis: usize,
    /// Repetitions of each direct-call layer probe.
    pub probe_reps: usize,
    /// Fewest set-ups per run; `setup_s` is the median of those made.
    pub setup_reps: usize,
    /// Set-ups are repeated beyond `setup_reps` (up to 25) until they have
    /// taken this long in all: a 30 ms set-up needs more repetitions than a
    /// 700 ms one for its median to hold still.
    pub setup_budget_s: f64,
}

/// The sizes every recorded number refers to. bfs/mis are sized for ~60
/// fat rounds of tens of thousands of tasks; mm/dt/dmr for 10^2..10^3 thin
/// ones; dmr cannot go lower (refining to 30 degrees commits ~45k tasks
/// whatever the point count).
pub const FULL: Sizes = Sizes {
    label: "full",
    exec: [
        (App::Bfs, 50_000),
        (App::Mis, 50_000),
        (App::Mm, 3_000),
        (App::Dt, 1_500),
        (App::Dmr, 1_000),
    ],
    replay: [
        (App::Bfs, 20_000),
        (App::Mis, 20_000),
        (App::Mm, 3_000),
        (App::Dt, 1_500),
        (App::Dmr, 1_000),
        (App::Pfp, 1_000),
    ],
    lockstep_mis: 20_000,
    probe_reps: 3,
    setup_reps: 5,
    setup_budget_s: 1.0,
};

/// `--quick`: same code paths and metric names, sizes too small to mean
/// anything.
pub const QUICK: Sizes = Sizes {
    label: "quick",
    exec: [
        (App::Bfs, 2_000),
        (App::Mis, 1_500),
        (App::Mm, 300),
        (App::Dt, 100),
        (App::Dmr, 20),
    ],
    replay: [
        (App::Bfs, 1_000),
        (App::Mis, 800),
        (App::Mm, 200),
        (App::Dt, 80),
        (App::Dmr, 20),
        (App::Pfp, 96),
    ],
    lockstep_mis: 1_000,
    probe_reps: 1,
    setup_reps: 1,
    setup_budget_s: 0.0,
};

#[derive(Debug, Clone)]
pub struct Config {
    /// Feeds generator seeds and the request rotation, nothing else: the
    /// program sees only the generated inputs.
    pub seed: u64,
    /// Cores this process may use (`available_parallelism`).
    pub cores: usize,
    /// Busy threads / clients / replicas per workload; `cores` unless
    /// overridden with `--threads`.
    pub threads: usize,
    pub sizes: &'static Sizes,
}

/// Generator seed of the one dmr mesh every run refines. dmr's work is not
/// fixed by its point count: 40 seeds at 1 000 points commit 36k to 50k
/// tasks, and run time and peak RSS follow, so a mesh drawn from `--seed`
/// spreads the numbers of `exec-rounds`, `exec-spec` and `serve-replay` by
/// +-12 % for a reason that is no property of the program. This mesh commits
/// 44 236 tasks in 982 rounds, the middle of that range. `--seed` draws
/// every other input.
pub const DMR_MESH_SEED: u64 = 2014;

/// Seed recorded as the default; the driver passes its own.
pub const DEFAULT_SEED: u64 = 20140301;

impl Config {
    pub fn new(seed: u64, threads: Option<usize>, quick: bool) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Config {
            seed,
            cores,
            threads: threads.unwrap_or(cores),
            sizes: if quick { &QUICK } else { &FULL },
        }
    }

    /// More busy threads than cores: wall-clock numbers then measure the
    /// scheduler, and no scaling figure may be read from them.
    pub fn oversubscribed(&self) -> bool {
        self.threads > self.cores
    }

    /// The generator seed for input stream `stream` (SplitMix64 of the
    /// pair), kept below 2^40 so it survives JSON and file names unchanged.
    pub fn input_seed(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & ((1 << 40) - 1)
    }

    fn sizes_json(list: &[(App, usize)]) -> String {
        let fields: Vec<String> = list
            .iter()
            .map(|(app, n)| format!("\"{}\":{n}", app.name()))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// One JSON object naming the host and configuration a number came
    /// from; printed first by every mode and heading every trace file.
    pub fn stamp(&self) -> String {
        let run = |program: &str, args: &[&str]| -> Option<String> {
            let out = Command::new(program).args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        // A checkout without .git (the driver's) has no revision to name.
        let rev = run("git", &["rev-parse", "--short=12", "HEAD"]);
        let dirty = rev
            .as_ref()
            .and_then(|_| run("git", &["status", "--porcelain"]))
            .map(|s| !s.is_empty());
        format!(
            "{{\"cores\":{},\"threads\":{},\"oversubscribed\":{},\"git_rev\":\"{}\",\
             \"git_dirty\":{},\"rustc\":\"{}\",\"seed\":{},\"sizes\":\"{}\",\
             \"exec_sizes\":{},\"replay_sizes\":{},\"lockstep_mis\":{},\"dmr_mesh_seed\":{}}}",
            self.cores,
            self.threads,
            self.oversubscribed(),
            rev.as_deref().unwrap_or("unknown"),
            dirty.map_or("null".to_string(), |d| d.to_string()),
            run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            self.seed,
            self.sizes.label,
            Self::sizes_json(&self.sizes.exec),
            Self::sizes_json(&self.sizes.replay),
            self.sizes.lockstep_mis,
            DMR_MESH_SEED,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_seeds_repeat_and_differ_by_stream() {
        let a = Config::new(7, None, true);
        let b = Config::new(7, None, true);
        assert_eq!(a.input_seed(3), b.input_seed(3));
        assert_ne!(a.input_seed(3), a.input_seed(4));
        assert_ne!(a.input_seed(3), Config::new(8, None, true).input_seed(3));
        assert!(a.input_seed(3) < 1 << 40);
    }

    #[test]
    fn stamp_flags_oversubscription() {
        let mut cfg = Config::new(1, None, true);
        assert!(!cfg.oversubscribed());
        cfg.threads = cfg.cores + 1;
        assert!(cfg.oversubscribed());
        assert!(cfg.stamp().contains("\"oversubscribed\":true"));
    }
}
