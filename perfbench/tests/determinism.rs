//! Self-tests of the benchmark at small sizes: traced counts repeat
//! exactly for one seed, and another seed yields the same metric names
//! with every reply verified correct.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the suite's largest compiles are slow in debug builds).

use perfbench::run::{run, Config, Workload};
use perfbench::Outcome;

/// Metrics of the traced run that are counts, not times.
const COUNTS: &[&str] = &[
    "server.reply_bytes",
    "mylite.plancache.hit_ratio",
    "mylite.plancache.hits",
    "mylite.plancache.misses",
    "mylite.plancache.invalidations",
    "mylite.cold_compiles",
    "mylite.sort_nodes",
    "bridge.md_requests",
    "bridge.md_misses",
    "bridge.routed_ratio",
    "orcalite.plans_costed",
    "orcalite.groups",
    "orcalite.splits_explored",
    "orcalite.rules_applied",
    "executor.work_units",
    "executor.critical_work_units",
    "executor.rows_out",
];

fn small(workload: Workload, seed: u64, trace: bool) -> Config {
    let mut cfg = Config::new(workload, seed, 0.3, trace);
    cfg.hot_scale = 0.2;
    cfg.suite_scale = 0.05;
    cfg.setup_reps = 1;
    cfg.trace_statements = 400;
    cfg.trace_statements_writes = 200;
    cfg.trace_passes = 1;
    cfg
}

fn go(cfg: &Config) -> Outcome {
    let out = run(cfg).unwrap_or_else(|e| panic!("{:?} run failed: {e}", cfg.workload));
    assert_eq!(out.failed, 0, "{:?} (trace {}) had failed replies", cfg.workload, cfg.trace);
    assert!(out.attempted > 0);
    out
}

fn names(out: &Outcome) -> Vec<&str> {
    out.metrics.iter().map(|m| m.name.as_str()).collect()
}

fn counts(out: &Outcome) -> Vec<(&'static str, f64)> {
    COUNTS
        .iter()
        .map(|&n| (n, out.metric(n).unwrap_or_else(|| panic!("traced run lacks {n}"))))
        .collect()
}

#[test]
fn traced_counts_repeat_for_one_seed() {
    for w in Workload::ALL {
        let a = go(&small(w, 7, true));
        let b = go(&small(w, 7, true));
        assert_eq!(counts(&a), counts(&b), "{} counts differ between same-seed runs", w.name());
        assert!(a.metric("mylite.plancache.hits").unwrap() > 0.0, "{} never hit", w.name());
        assert!(a.metric("executor.rows_out").unwrap() > 0.0, "{} returned nothing", w.name());
    }
}

#[test]
fn another_seed_has_the_same_metrics_and_no_errors() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = go(&small(w, 7, trace));
            let b = go(&small(w, 8, trace));
            assert_eq!(names(&a), names(&b), "{} metric names depend on the seed", w.name());
            assert_eq!(b.error_rate(), 0.0);
        }
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let expected = ["setup_s", "stmt_p50_ms", "throughput_sps", "cpu_ms_per_stmt", "peak_rss_mb"];
    for w in Workload::ALL {
        let out = go(&small(w, 3, false));
        assert_eq!(names(&out), expected, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value > 0.0, "{} {} is {}", w.name(), m.name, m.value);
        }
    }
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

#[test]
fn benchmark_json_names_match_the_printed_metrics() {
    let untraced = go(&small(Workload::SuiteCold, 1, false));
    let traced = go(&small(Workload::ServeHot, 1, true));
    assert_eq!(names(&untraced), listed("end_to_end"));
    assert_eq!(names(&traced), listed("per_layer"));
    assert_eq!(listed("workloads"), Workload::ALL.map(|w| w.name()));
}
