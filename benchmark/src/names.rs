//! Every name the benchmark prints: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` is generated from
//! these tables (`--print-benchmark-json`) and a test holds the two equal.

/// Apps the executor workloads run; `<a>` in per-layer metric names.
pub const EXEC_APPS: [&str; 5] = ["bfs", "mis", "mm", "dt", "dmr"];
/// Apps the serve workloads request; `<s>` in per-layer metric names.
pub const SERVE_APPS: [&str; 6] = ["bfs", "mis", "mm", "dt", "dmr", "pfp"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadName {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadName; 6] = [
    WorkloadName {
        name: "exec-bulk",
        why: "bfs+mis g-d pass: few fat rounds, so per-task inspect/commit, mark write-max and CSR traversal do the work and barriers almost none",
    },
    WorkloadName {
        name: "exec-rounds",
        why: "mm+dt+dmr g-d pass: thousands of thin rounds, so barrier crossings, the leader-serial tail and the window policy dominate",
    },
    WorkloadName {
        name: "exec-spec",
        why: "the same five inputs under g-n: the on-demand baseline the determinism overhead is a ratio to, and the guard for the shared mark table and worklist",
    },
    WorkloadName {
        name: "serve-warm",
        why: "thin POST /run on resident inputs: compute is ~1 ms, so socket, http, json, queueing and the store lookup are the whole op",
    },
    WorkloadName {
        name: "serve-replay",
        why: "fat /run with round log + manifest, then /replay, with cold loads beside warm hits: large bodies, manifest codec and the store lock",
    },
    WorkloadName {
        name: "lockstep",
        why: "one wire session per op: coordinator plus nproc replicas replaying a recorded mis run over loopback frames",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every bound is the driver's ceiling. Two sets of runs of one build on the
/// 2-core bench host (`--aa`) spread by up to 12 % of the median on
/// `op_p50_ms` / `ops_per_s` and 17 % on `op_p90_ms`, and their medians
/// drift by up to 11 % between sets (28 % on a 0.2 s `setup_s`); a bound is
/// three times the worst spread seen, capped at 0.25.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat bit for bit between runs of one seed.
    pub exact: bool,
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
        exact: false,
    }
}

fn exact(name: impl Into<String>, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        exact: true,
        ..layer(name, unit, better)
    }
}

/// Per-layer metrics of the workload a traced run names; the probes give
/// all the others.
pub const PER_WORKLOAD_LAYERS: [&str; 3] = [
    "process.cpu_s_per_op",
    "process.peak_rss_mb",
    "trace.overhead_share",
];

/// The per-layer metrics, in the order they are printed.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut m = Vec::new();
    for a in EXEC_APPS {
        m.push(layer(format!("apps.{a}.run_ms_p50"), "ms", Lower));
        m.push(layer(format!("apps.{a}.verify_ms_p50"), "ms", Lower));
    }
    for a in EXEC_APPS {
        m.push(exact(format!("core.det.{a}.rounds"), "count", Lower));
        m.push(exact(format!("core.det.{a}.commit_ratio"), "ratio", Higher));
        m.push(layer(format!("core.det.{a}.round_us_p50"), "us", Lower));
        // Shares of threads x wall. Inspect and commit are the operator's
        // own work, serial and wait are what scheduling adds to it.
        m.push(layer(
            format!("core.det.{a}.inspect_share"),
            "ratio",
            Higher,
        ));
        m.push(layer(format!("core.det.{a}.commit_share"), "ratio", Higher));
        m.push(layer(format!("core.det.{a}.serial_share"), "ratio", Lower));
        m.push(layer(format!("core.det.{a}.wait_share"), "ratio", Lower));
    }
    m.push(layer("core.det.scale_eff", "ratio", Higher));
    for a in EXEC_APPS {
        m.push(layer(format!("core.spec.{a}.abort_ratio"), "ratio", Lower));
    }
    m.push(layer("core.marks.write_max_ns", "ns", Lower));
    m.push(layer("core.marks.epoch_bump_ns", "ns", Lower));
    m.push(layer("core.marks.acquire_release_ns", "ns", Lower));
    m.push(layer("core.manifest.to_json_us", "us", Lower));
    m.push(layer("core.manifest.from_json_us", "us", Lower));
    m.push(exact("core.manifest.bytes", "B", Lower));
    m.push(layer("runtime.barrier.cross_ns_p50", "ns", Lower));
    m.push(layer("runtime.pool.spawn_us_p50", "us", Lower));
    m.push(layer("runtime.worklist.push_pop_ns", "ns", Lower));
    m.push(layer("runtime.fingerprint.hash_mb_s", "MB/s", Higher));
    m.push(layer("graph.gen.edges_ms", "ms", Lower));
    m.push(layer("graph.csr.build_ms", "ms", Lower));
    m.push(layer("graph.full_build_ms", "ms", Lower));
    m.push(layer("graph.cache.store_ms", "ms", Lower));
    m.push(layer("graph.cache.load_ms", "ms", Lower));
    m.push(layer("graph.cache.load_over_build", "ratio", Lower));
    m.push(layer("graph.flow.build_ms", "ms", Lower));
    m.push(layer("geometry.points_ms", "ms", Lower));
    m.push(layer("mesh.dmr_input_ms", "ms", Lower));
    m.push(layer("harness.store.warm_get_us_p50", "us", Lower));
    m.push(layer("harness.store.cold_get_ms_p50", "ms", Lower));
    m.push(layer("harness.run_resident.overhead_ms_p50", "ms", Lower));
    m.push(layer("harness.record_ms_p50", "ms", Lower));
    m.push(layer("harness.replay_ms_p50", "ms", Lower));
    m.push(layer("harness.replay_over_run", "ratio", Lower));
    m.push(layer("serve.server_ms_p50", "ms", Lower));
    m.push(layer("serve.residue_ms_p50", "ms", Lower));
    m.push(layer("serve.residue_share", "ratio", Lower));
    m.push(layer("serve.healthz_rtt_us_p50", "us", Lower));
    m.push(layer("serve.json.parse_us", "us", Lower));
    m.push(exact("serve.req_bytes_p50", "B", Lower));
    m.push(exact("serve.body_bytes_p50", "B", Lower));
    m.push(layer("serve.warm_ms_p50", "ms", Lower));
    m.push(layer("serve.cold_ms_p50", "ms", Lower));
    m.push(layer("serve.replay_ms_p50", "ms", Lower));
    m.push(layer("serve.stall_ms_max", "ms", Lower));
    m.push(exact("serve.store.cold_loads", "count", Lower));
    m.push(exact("serve.store.warm_hits", "count", Higher));
    m.push(exact("serve.store.rebuilds", "count", Lower));
    for s in SERVE_APPS {
        m.push(layer(format!("serve.{s}.client_ms_p50"), "ms", Lower));
    }
    m.push(layer("serve.wire.encode_ns", "ns", Lower));
    m.push(layer("serve.wire.frame_rtt_us_p50", "us", Lower));
    m.push(layer("serve.lockstep.join_ms_p50", "ms", Lower));
    m.push(layer("serve.lockstep.rounds_per_s", "1/s", Higher));
    m.push(layer("serve.lockstep.over_replay", "ratio", Lower));
    m.push(exact("serve.lockstep.max_buffered", "count", Lower));
    m.push(exact("serve.lockstep.evictions", "count", Lower));
    // Of the workload the traced run names, from its window with spans off.
    m.push(layer("process.cpu_s_per_op", "s", Lower));
    m.push(layer("process.peak_rss_mb", "MB", Lower));
    m.push(layer("trace.overhead_share", "ratio", Lower));
    m
}

/// What one run measures for, in seconds; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` is a legal metric or workload name: starts with a letter
    /// or digit, then at most 64 letters, digits, `_`, `.` and `-` in all.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`, `%`,
    /// `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_grammar() {
        for ok in [
            "op_p50_ms",
            "core.det.bfs.rounds",
            "exec-bulk",
            "9lives",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "a/b",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "MB/s", "%", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "seventeen_letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn tables_are_legal_and_complete() {
        let layers = per_layer();
        assert_eq!(layers.len(), 106);
        assert!((1..=128).contains(&layers.len()));
        let mut seen = BTreeSet::new();
        for (name, unit) in WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), "count"))
            .chain(END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)))
            .chain(layers.iter().map(|m| (m.name.clone(), m.unit)))
        {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- \
             --print-benchmark-json > BENCHMARK.json"
        );
    }
}
