//! The untraced runs: every end-to-end metric comes from here, measured
//! over the wire against the in-process servers.

use crate::check::{self, exact_hash, Digests, Template, REFERENCE_SCALE};
use crate::mix::{Domains, Kind, Stmt, Stream, SHAPES};
use crate::report::{geomean, median, ms, quantile, Metric, Outcome};
use crate::sys;
use crate::system::{self, build_catalogs, Served};
use mylite::{Engine, MySqlOptimizer, PlanCacheStats};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    WriteMix,
    SuiteCold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ServeHot, Workload::WriteMix, Workload::SuiteCold];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::WriteMix => "write-mix",
            Workload::SuiteCold => "suite-cold",
        }
    }
}

/// A p99 is reported only when at least this many samples back it.
pub const P99_MIN_SAMPLES: usize = 1000;
/// The plan cache's capacity (`mylite::plancache::DEFAULT_CAPACITY`).
pub const PLAN_CACHE_CAPACITY: usize = mylite::plancache::DEFAULT_CAPACITY;
/// `suite-cold` always times at least this many passes.
pub const MIN_SUITE_PASSES: usize = 3;

/// One invocation's settings. [`Config::new`] gives the benchmark's own
/// sizes; the self-tests shrink them.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scale of both schemas for `serve-hot` and `write-mix`.
    pub hot_scale: f64,
    /// Scale of both schemas for `suite-cold`.
    pub suite_scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Statements the traced run replays after the warm-up pass, for
    /// `serve-hot` and for `write-mix` (whose inserts cost milliseconds).
    pub trace_statements: usize,
    pub trace_statements_writes: usize,
    /// Suite passes the traced run replays after the warm-up pass.
    pub trace_passes: usize,
    /// Usable CPUs before pinning, and the CPU the process was pinned to.
    pub nproc: usize,
    pub pinned_cpu: Option<usize>,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            hot_scale: 4.0,
            suite_scale: 1.0,
            setup_reps: 5,
            trace_statements: 6000,
            trace_statements_writes: 1500,
            trace_passes: 2,
            nproc: sys::nproc(),
            pinned_cpu: None,
        }
    }

    pub fn scale(&self) -> f64 {
        match self.workload {
            Workload::SuiteCold => self.suite_scale,
            _ => self.hot_scale,
        }
    }

    /// Provenance shared by every output.
    pub fn provenance(&self) -> Vec<(String, String)> {
        let (seed, shapes) = match self.workload {
            Workload::SuiteCold => {
                (format!("{} (unused: the suite is fixed)", self.seed), "121 templates".to_string())
            }
            _ => (self.seed.to_string(), format!("{} shapes", SHAPES.len())),
        };
        vec![
            ("nproc".into(), self.nproc.to_string()),
            (
                "cpu_pinning".into(),
                self.pinned_cpu.map_or("none".to_string(), |c| format!("cpu {c}")),
            ),
            ("scale".into(), self.scale().to_string()),
            ("seed".into(), seed),
            ("commit".into(), commit()),
            ("traced".into(), self.trace.to_string()),
            ("setup_reps".into(), self.setup_reps.to_string()),
            ("shapes_vs_plan_cache_capacity".into(), format!("{shapes} / {PLAN_CACHE_CAPACITY}")),
        ]
    }
}

/// The checked-out commit: `PERFBENCH_COMMIT` if set, else `.git/HEAD`
/// resolved by hand, else unknown (benchmark checkouts carry no `.git`).
fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (no .git in this checkout)".into(),
    }
}

/// Run one invocation.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match (cfg.trace, cfg.workload) {
        (true, _) => crate::trace::run(cfg),
        (false, Workload::SuiteCold) => suite(cfg),
        (false, _) => hot(cfg),
    }
}

fn io(e: std::io::Error) -> String {
    format!("server set-up failed: {e}")
}

fn cache_delta(a: PlanCacheStats, b: PlanCacheStats) -> PlanCacheStats {
    PlanCacheStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        invalidations: b.invalidations - a.invalidations,
        insertions: b.insertions - a.insertions,
        evictions: b.evictions - a.evictions,
        reoptimizations: b.reoptimizations - a.reoptimizations,
    }
}

/// Domains of the served catalogs.
pub fn domains(engines: &[std::sync::Arc<Engine>; 2]) -> Domains {
    let (h, ds) = (engines[0].catalog(), engines[1].catalog());
    Domains::read(&h, &ds)
}

/// `serve-hot` and `write-mix`: a warm-up pass, then the timed closed loop.
fn hot(cfg: &Config) -> Result<Outcome, String> {
    let writes = cfg.workload == Workload::WriteMix;
    let (mut served, setup) = system::setup(cfg.hot_scale, cfg.setup_reps).map_err(io)?;
    let dom = domains(&served.engines.engines);
    let mut stream = Stream::new(cfg.seed, dom, writes);
    let send = |served: &mut Served, s: &Stmt| {
        served.clients[s.schema.index()].query(&s.sql).ok().map(|r| exact_hash(&r.rows))
    };
    let mut replies: Vec<Option<u64>> = Vec::new();
    for s in stream.by_ref().take(Stream::warmup_len()) {
        replies.push(send(&mut served, &s));
    }

    let cache0 = served.engines.cache_stats();
    let (mut read_ms, mut write_ms) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(cfg.seconds);
    let cpu0 = sys::cpu_ms();
    let t0 = Instant::now();
    for s in stream.by_ref() {
        let t = Instant::now();
        let reply = served.clients[s.schema.index()].query(&s.sql);
        let now = Instant::now();
        let dt = ms((now - t).as_nanos() as u64);
        match s.kind {
            Kind::Read => read_ms.push(dt),
            Kind::Insert { .. } => write_ms.push(dt),
        }
        replies.push(reply.ok().map(|r| exact_hash(&r.rows)));
        if now - t0 >= budget {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = sys::cpu_ms() - cpu0;
    let rss = sys::peak_rss_mb();
    let cache = cache_delta(cache0, served.engines.cache_stats());
    drop(served.stop());

    let failed = verify_stream(cfg, dom, writes, &replies);
    let timed = (read_ms.len() + write_ms.len()) as f64;
    let mut out = Outcome {
        attempted: replies.len() as u64,
        failed,
        provenance: cfg.provenance(),
        ..Outcome::default()
    };
    out.metrics = vec![
        Metric::new("setup_s", setup.as_secs_f64(), "s"),
        Metric::new("stmt_p50_ms", median(&read_ms), "ms"),
        Metric::new("throughput_sps", timed / wall, "1/s"),
        Metric::new("cpu_ms_per_stmt", cpu / timed.max(1.0), "ms"),
        Metric::new("peak_rss_mb", rss, "MiB"),
    ];
    if read_ms.len() >= P99_MIN_SAMPLES {
        out.report.push(Metric::new("stmt_p99_ms", quantile(&read_ms, 0.99), "ms"));
    }
    if writes {
        out.report.push(Metric::new("write_p50_ms", median(&write_ms), "ms"));
        if write_ms.len() >= P99_MIN_SAMPLES {
            out.report.push(Metric::new("write_p99_ms", quantile(&write_ms, 0.99), "ms"));
        }
    }
    let lookups = (cache.hits + cache.misses + cache.invalidations).max(1) as f64;
    out.report.extend([
        Metric::new("timed_wall_s", wall, "s"),
        Metric::new("plancache.hit_ratio", cache.hits as f64 / lookups, "ratio"),
        Metric::new("plancache.hits", cache.hits as f64, "count"),
        Metric::new("plancache.misses", cache.misses as f64, "count"),
        Metric::new("plancache.invalidations", cache.invalidations as f64, "count"),
    ]);
    out.provenance.extend([
        ("statements.warmup".into(), Stream::warmup_len().to_string()),
        ("statements.read".into(), read_ms.len().to_string()),
        ("statements.insert".into(), write_ms.len().to_string()),
        ("p99_samples".into(), read_ms.len().to_string()),
        ("reference".into(), "twin engines planned by MySqlOptimizer, exact rows".into()),
    ]);
    Ok(out)
}

/// Replay the seeded stream on twin engines planned by the native
/// optimizer and count replies that differ (or failed). Reads are memoized
/// per (statement, inserts so far on its schema).
fn verify_stream(cfg: &Config, dom: Domains, writes: bool, replies: &[Option<u64>]) -> u64 {
    let [h, ds] = build_catalogs(cfg.hot_scale);
    let twin = [Engine::new(h), Engine::new(ds)];
    let mut epoch = [0u64; 2];
    let mut memo: HashMap<(String, u64), Option<u64>> = HashMap::new();
    let mut failed = 0;
    for (s, got) in Stream::new(cfg.seed, dom, writes).zip(replies) {
        let i = s.schema.index();
        let expected = match s.kind {
            Kind::Insert { .. } => {
                epoch[i] += 1;
                twin[i].execute_sql_shared(&s.sql).ok().map(|o| exact_hash(&o.rows))
            }
            Kind::Read => *memo.entry((s.sql.clone(), epoch[i])).or_insert_with(|| {
                twin[i].query_with(&s.sql, &MySqlOptimizer).ok().map(|o| exact_hash(&o.rows))
            }),
        };
        if got.is_none() || *got != expected {
            failed += 1;
        }
    }
    failed
}

/// One timed suite pass.
struct Pass {
    compile_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    analyze_ms: f64,
    cold: usize,
    statements: u64,
    failed: u64,
}

/// `ANALYZE` both schemas over the wire, then `EXPLAIN` and run every
/// template, checking each result against its reference digest.
fn suite_pass(served: &mut Served, templates: &[Template], expected: &Digests) -> Pass {
    let mut p = Pass {
        compile_ms: Vec::with_capacity(templates.len()),
        exec_ms: Vec::with_capacity(templates.len()),
        analyze_ms: 0.0,
        cold: 0,
        statements: 0,
        failed: 0,
    };
    for c in &mut served.clients {
        let t = Instant::now();
        let ok = c.analyze().is_ok();
        p.analyze_ms += ms(t.elapsed().as_nanos() as u64);
        p.statements += 1;
        p.failed += u64::from(!ok);
    }
    for (t, want) in templates.iter().zip(expected) {
        let client = &mut served.clients[t.schema.index()];
        let start = Instant::now();
        let explained = client.explain(&t.sql);
        p.compile_ms.push(ms(start.elapsed().as_nanos() as u64));
        let start = Instant::now();
        let reply = client.query(&t.sql);
        p.exec_ms.push(ms(start.elapsed().as_nanos() as u64));
        p.statements += 2;
        match explained {
            Ok(text) => {
                let banner = text.lines().next().unwrap_or("");
                if banner.contains("[plan cache: miss]") || banner.contains("[plan cache: invalid")
                {
                    p.cold += 1;
                }
            }
            Err(_) => p.failed += 1,
        }
        match reply {
            Ok(r) if check::canonical_digest(&r.rows) == *want => {}
            _ => p.failed += 1,
        }
    }
    p
}

/// Reference digests for the suite at `scale`: the committed ones at the
/// reference scale, otherwise computed now by the native optimizer.
pub fn suite_reference(templates: &[Template], scale: f64) -> Result<Digests, String> {
    if scale == REFERENCE_SCALE {
        return check::committed_digests(templates);
    }
    let [h, ds] = build_catalogs(scale);
    check::native_digests(templates, &[Engine::new(h), Engine::new(ds)])
        .map_err(|e| format!("native reference failed: {e}"))
}

/// `suite-cold`: a warm-up pass, then timed passes until the budget is
/// spent (at least [`MIN_SUITE_PASSES`]). Throughput and CPU per statement
/// cover the whole timed window; the per-template figures are medians over
/// passes.
fn suite(cfg: &Config) -> Result<Outcome, String> {
    let templates = check::templates();
    let expected = suite_reference(&templates, cfg.suite_scale)?;
    let (mut served, setup) = system::setup(cfg.suite_scale, cfg.setup_reps).map_err(io)?;
    let warm = suite_pass(&mut served, &templates, &expected);
    let (mut attempted, mut failed) = (warm.statements, warm.failed);

    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut passes = Vec::new();
    let cpu0 = sys::cpu_ms();
    let t0 = Instant::now();
    while passes.len() < MIN_SUITE_PASSES || t0.elapsed() < budget {
        passes.push(suite_pass(&mut served, &templates, &expected));
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = sys::cpu_ms() - cpu0;
    let rss = sys::peak_rss_mb();
    drop(served.stop());

    let statements: u64 = passes.iter().map(|p| p.statements).sum();
    attempted += statements;
    failed += passes.iter().map(|p| p.failed).sum::<u64>();
    let exec_all: Vec<f64> = passes.iter().flat_map(|p| p.exec_ms.iter().copied()).collect();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let per_template = |f: &dyn Fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        (0..templates.len())
            .map(|i| median(&passes.iter().map(|p| f(p)[i]).collect::<Vec<_>>()))
            .collect()
    };
    let compile_t = per_template(&|p| &p.compile_ms);
    let exec_t = per_template(&|p| &p.exec_ms);
    let named =
        |v: &[f64], name: &str| templates.iter().position(|t| t.name == name).map_or(0.0, |i| v[i]);

    let mut out = Outcome { attempted, failed, provenance: cfg.provenance(), ..Outcome::default() };
    out.metrics = vec![
        Metric::new("setup_s", setup.as_secs_f64(), "s"),
        Metric::new("stmt_p50_ms", median(&exec_all), "ms"),
        Metric::new("throughput_sps", statements as f64 / wall, "1/s"),
        Metric::new("cpu_ms_per_stmt", cpu / statements.max(1) as f64, "ms"),
        Metric::new("peak_rss_mb", rss, "MiB"),
    ];
    out.report = vec![
        Metric::new("compile_total_ms", per_pass(&|p| p.compile_ms.iter().sum()), "ms"),
        Metric::new("compile_geomean_ms", geomean(&compile_t), "ms"),
        Metric::new("exec_total_ms", per_pass(&|p| p.exec_ms.iter().sum()), "ms"),
        Metric::new("exec_geomean_ms", geomean(&exec_t), "ms"),
        Metric::new("analyze_ms", per_pass(&|p| p.analyze_ms), "ms"),
        Metric::new("cold_compiles_per_pass", per_pass(&|p| p.cold as f64), "count"),
        Metric::new("compile_ms.tpcds_q64", named(&compile_t, "tpcds_q64"), "ms"),
        Metric::new("compile_ms.tpcds_q14", named(&compile_t, "tpcds_q14"), "ms"),
        Metric::new("exec_ms.tpch_q19", named(&exec_t, "tpch_q19"), "ms"),
        Metric::new("timed_wall_s", wall, "s"),
    ];
    let reference = if cfg.suite_scale == REFERENCE_SCALE {
        "committed native-optimizer digests (reference/suite_scale1.tsv)"
    } else {
        "native-optimizer digests computed at this scale"
    };
    out.provenance.extend([
        ("passes".into(), passes.len().to_string()),
        ("templates".into(), templates.len().to_string()),
        ("statements.analyze".into(), (2 * passes.len()).to_string()),
        ("statements.explain".into(), (templates.len() * passes.len()).to_string()),
        ("statements.query".into(), (templates.len() * passes.len()).to_string()),
        ("reference".into(), reference.into()),
    ]);
    Ok(out)
}
