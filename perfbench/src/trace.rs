//! The traced run: the same seeded stream replayed in-process, with the
//! calls into each crate's public functions timed as spans.
//!
//! Every statement is served for real through a `taurus_server::Session`
//! (the server's own dispatch, minus the socket), with the frame codec
//! called around it. The layers inside the engine are then timed by
//! calling the same public functions on the same statement, right after
//! the real serve: the token digest, `parse` + `rewrite_set_ops`,
//! `resolve_union_branches`, the native optimizer or
//! `OrcaOptimizer::optimize` (decomposed once more into `convert_block`,
//! `optimize_block_cached` and `to_skeleton` + `validate_skeleton`),
//! `refine_statement_orders` and `exec::execute`. Compile layers are timed
//! only for statements whose real serve compiled; execution only for
//! queries. Inserts are applied by calling `Catalog::insert` and
//! `Catalog::build_indexes` under the catalog write lock, as the engine
//! does. Counts come from the same call sites, so they repeat exactly.
//!
//! Spans are kept in memory and written as TSV at the end. End-to-end
//! numbers never come from here; the run reports its own overhead as the
//! traced replay's wall time against an untraced replay of the same
//! statements on identically built engines.

use crate::check::{self, Template};
use crate::mix::{Kind, Schema, Stream};
use crate::report::{median, ms, us, Metric, Outcome};
use crate::run::{domains, suite_reference, Config, Workload};
use crate::system::{build_catalogs, threshold, Engines};
use mylite::optimizer::{derived_output_rows_fb, optimize_statement};
use mylite::orders::count_sorts;
use mylite::refine::refine_statement_orders;
use mylite::resolve::resolve_union_branches;
use mylite::{BoundQuery, BoundStatement, CostBasedOptimizer, SessionOpts, Skeleton, TableSource};
use orcalite::{optimize_block_cached, MdCache, OrcaConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write as _;
use std::time::Instant;
use taurus_bridge::plan_converter::to_skeleton;
use taurus_bridge::tree_converter::{convert_block, InnerEstimates};
use taurus_bridge::{validate_skeleton, MySqlMdProvider, OrcaOptimizer};
use taurus_catalog::{AnalyzeOptions, Catalog};
use taurus_common::error::{Error, Result};
use taurus_common::{Row, Value};
use taurus_executor::{execute, ExecContext, ParallelOpts};
use taurus_server::protocol::{decode_reply, decode_request, encode_reply, encode_request};
use taurus_server::{Client, Server};
use taurus_server::{Reply, Request, ServeOutcome, Session};
use taurus_sql::fingerprint::token_digest;
use taurus_sql::rewrite::rewrite_set_ops;
use taurus_sql::{parse, Statement};

/// Where the span files go: `out/` in this package's directory.
pub const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// Most queries replayed to measure the wire's share of a round trip.
const WIRE_SAMPLES: usize = 2000;

// ------------------------------------------------------------------ spans

const NO_PARENT: usize = usize::MAX;

struct Span {
    parent: usize,
    stmt: usize,
    name: &'static str,
    start: u64,
    end: u64,
}

/// In-memory span store. Span ids are indices.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: usize, stmt: usize) -> usize {
        let start = self.now();
        self.spans.push(Span { parent, stmt, name, start, end: start });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration in nanoseconds.
    fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        let s = &mut self.spans[id];
        s.end = end;
        end - s.start
    }

    /// Self time per span name: duration minus the time its children cover.
    fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(child[i]);
        }
        out
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(SPAN_DIR)?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tstmt\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.stmt, s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

// --------------------------------------------------------------- requests

/// One replayed statement.
struct Req {
    schema: Schema,
    request: Request,
    /// Values of an insert, applied through the catalog directly.
    insert: Option<(&'static str, Row)>,
    /// Suite template index, if any.
    template: Option<usize>,
    /// 0 for the warm-up pass; counted passes start at 1.
    pass: usize,
}

fn query(sql: &str) -> Request {
    Request::Query { opts: SessionOpts::default(), sql: sql.to_string() }
}

/// The replayed statements: the seeded stream (warm-up plus
/// `trace_statements`), or the suite (warm-up plus `trace_passes` passes).
fn requests(cfg: &Config, engines: &Engines, templates: &[Template]) -> Vec<Req> {
    match cfg.workload {
        Workload::SuiteCold => {
            let mut v = Vec::new();
            for pass in 0..=cfg.trace_passes {
                for schema in [Schema::Tpch, Schema::Tpcds] {
                    let request = Request::Analyze;
                    v.push(Req { schema, request, insert: None, template: None, pass });
                }
                for (i, t) in templates.iter().enumerate() {
                    let opts = SessionOpts::default();
                    let explain = Request::Explain { opts, sql: t.sql.clone() };
                    for request in [explain, query(&t.sql)] {
                        let schema = t.schema;
                        v.push(Req { schema, request, insert: None, template: Some(i), pass });
                    }
                }
            }
            v
        }
        _ => {
            let writes = cfg.workload == Workload::WriteMix;
            let n = Stream::warmup_len()
                + if writes { cfg.trace_statements_writes } else { cfg.trace_statements };
            Stream::new(cfg.seed, domains(&engines.engines), writes)
                .take(n)
                .enumerate()
                .map(|(i, s)| Req {
                    schema: s.schema,
                    request: query(&s.sql),
                    insert: match s.kind {
                        Kind::Insert { table, row } => Some((table, row)),
                        Kind::Read => None,
                    },
                    template: None,
                    pass: usize::from(i >= Stream::warmup_len()),
                })
                .collect()
        }
    }
}

fn sessions(engines: &Engines) -> [Session; 2] {
    let session = |s: Schema| Session::new(1, engines.engine(s).clone(), engines.router(s));
    [session(Schema::Tpch), session(Schema::Tpcds)]
}

// ------------------------------------------------------------- accounting

/// Per-layer samples (medians) and counts (sums), keyed by metric name.
#[derive(Default)]
struct Acc {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    per_template: BTreeMap<(usize, &'static str), Vec<f64>>,
}

impl Acc {
    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    fn med(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// The traced serve of one statement plus its layer spans.
struct Traced<'a> {
    tr: &'a mut Tracer,
    acc: &'a mut Acc,
    /// Accumulate into `acc` (false for the suite's warm-up pass).
    counted: bool,
}

impl Traced<'_> {
    fn sample(&mut self, name: &'static str, v: f64) {
        if self.counted {
            self.acc.sample(name, v);
        }
    }

    fn add(&mut self, name: &'static str, v: f64) {
        if self.counted {
            self.acc.add(name, v);
        }
    }

    /// Time `f` as a span named `name`; returns its result and nanoseconds.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        stmt: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.tr.open(name, parent, stmt);
        let r = f();
        (r, self.tr.close(id))
    }
}

fn outcome_of(reply: &Reply) -> Option<ServeOutcome> {
    match reply {
        Reply::Rows { outcome, .. } => Some(*outcome),
        Reply::Text(t) => {
            let banner = t.lines().next().unwrap_or("");
            Some(if banner.contains("[plan cache: hit]") {
                ServeOutcome::Hit
            } else if banner.contains("[plan cache: miss]") {
                ServeOutcome::Miss
            } else {
                ServeOutcome::Invalidated
            })
        }
        _ => None,
    }
}

/// Apply an insert as the engine does: catalog write lock, append, rebuild
/// every index of the table (which bumps the catalog version).
fn traced_insert(
    t: &mut Traced<'_>,
    engines: &Engines,
    schema: Schema,
    (table, row): &(&'static str, Row),
    parent: usize,
    sid: usize,
) -> Reply {
    let result = engines.engine(schema).with_catalog_mut(|cat| -> Result<usize> {
        let id = cat.table_by_name(table)?.id;
        let (r, ns) = t.span("catalog.insert", parent, sid, || cat.insert(id, [row.clone()]));
        r?;
        t.sample("catalog.insert_us", us(ns));
        let (r, ns) = t.span("catalog.index_build", parent, sid, || cat.build_indexes(id));
        r?;
        t.sample("catalog.insert_index_build_us", us(ns));
        Ok(cat.table(id)?.num_rows())
    });
    match result {
        Ok(rows) => {
            t.add("catalog.rows_reindexed", rows as f64);
            t.add("catalog.rows_inserted", 1.0);
            Reply::Rows {
                outcome: ServeOutcome::Uncached,
                columns: vec!["rows_inserted".into()],
                rows: vec![vec![Value::Int(1)]],
            }
        }
        Err(e) => Reply::Err(e),
    }
}

/// The Orca detour once more, block by block, timing the bridge's tree
/// conversion, the memo search and the plan conversion plus validation.
/// Mirrors the router's bottom-up recursion over derived tables.
#[allow(clippy::too_many_arguments)]
fn decompose(
    t: &mut Traced<'_>,
    bound: &BoundStatement,
    block: &BoundQuery,
    provider: &MySqlMdProvider<'_>,
    md: &MdCache<'_>,
    outer: &BTreeSet<usize>,
    parent: usize,
    sid: usize,
) -> Result<Skeleton> {
    let mut estimates = InnerEstimates::new();
    let mut inner: HashMap<usize, Skeleton> = HashMap::new();
    let mut inner_outer = outer.clone();
    inner_outer.extend(block.member_qts());
    for m in &block.members {
        if let TableSource::Derived { query, .. } = &bound.table(m.qt).source {
            let sk = decompose(t, bound, query, provider, md, &inner_outer, parent, sid)?;
            let rows = derived_output_rows_fb(query, sk.root.rows(), None);
            estimates.insert(m.qt, (rows, sk.root.cost()));
            inner.insert(m.qt, sk);
        }
    }
    let (desc, ns) = t.span("bridge.convert", parent, sid, || {
        convert_block(bound, block, provider, &estimates, outer)
    });
    t.sample("bridge.convert_us", us(ns));
    let (desc, _) = desc?;
    let cfg = OrcaConfig::default();
    let (plan, ns) =
        t.span("orcalite.search", parent, sid, || optimize_block_cached(&desc, md, &cfg));
    t.add("orcalite.search_ns", ns as f64);
    let plan = plan?;
    let (sk, ns) = t.span("bridge.plan_convert", parent, sid, || {
        let sk = to_skeleton(&plan, block, &inner)?;
        validate_skeleton(&sk, block, bound)?;
        Ok::<_, Error>(sk)
    });
    t.sample("bridge.convert_us", us(ns));
    sk
}

/// Parse, resolve, optimize and refine one statement through the public
/// functions, as the engine's compile path does. Returns the nanoseconds
/// of those calls and the search time the decomposition measured.
fn shadow_compile(
    t: &mut Traced<'_>,
    cat: &Catalog,
    sql: &str,
    schema: Schema,
    shadow: &OrcaOptimizer,
    parent: usize,
    sid: usize,
) -> Result<(u64, u64)> {
    let mut covered = 0;
    let (stmt, ns) = t.span("sql.parse", parent, sid, || match parse(sql)? {
        Statement::Select(s) => rewrite_set_ops(s),
        other => Err(Error::semantic(format!("expected SELECT, got {other:?}"))),
    });
    t.sample("sql.parse_us", us(ns));
    covered += ns;
    let stmt = stmt?;
    let (branches, ns) =
        t.span("mylite.resolve", parent, sid, || resolve_union_branches(cat, &stmt));
    t.sample("mylite.resolve_us", us(ns));
    covered += ns;
    let mut searched = 0;
    for (bound, _) in branches? {
        let skeleton = if bound.num_tables() < threshold(schema) {
            let (sk, ns) =
                t.span("mylite.native_opt", parent, sid, || optimize_statement(cat, &bound));
            t.sample("mylite.native_opt_us", us(ns));
            covered += ns;
            sk?
        } else {
            let before = shadow.stats().search;
            let (sk, ns) = t.span("bridge.route", parent, sid, || shadow.optimize(cat, &bound));
            t.add("bridge.route_ns", ns as f64);
            covered += ns;
            let after = shadow.stats().search;
            let (round_trips, hits) = shadow.last_md_traffic();
            t.add("bridge.md_requests", (round_trips + hits) as f64);
            t.add("bridge.md_misses", round_trips as f64);
            t.add("orcalite.plans_costed", (after.plans_costed - before.plans_costed) as f64);
            t.add("orcalite.groups", (after.groups - before.groups) as f64);
            t.add(
                "orcalite.splits_explored",
                (after.splits_explored - before.splits_explored) as f64,
            );
            t.add("orcalite.rules_applied", (after.rules_applied - before.rules_applied) as f64);
            let provider = MySqlMdProvider::new(cat);
            let md = MdCache::new(&provider);
            let root = t.tr.open("bridge.decompose", NO_PARENT, sid);
            // A detour the router abandoned fails here too; the route
            // above already fell back, so only the timing is lost.
            let _ = decompose(t, &bound, &bound.root, &provider, &md, &BTreeSet::new(), root, sid);
            t.tr.close(root);
            searched += t.tr.spans[root..]
                .iter()
                .filter(|s| s.name == "orcalite.search")
                .map(|s| s.end - s.start)
                .sum::<u64>();
            sk?
        };
        let (plan, ns) = t.span("mylite.refine", parent, sid, || {
            refine_statement_orders(cat, &bound, &skeleton, &ParallelOpts::default(), None, true)
        });
        t.sample("mylite.refine_us", us(ns));
        covered += ns;
        t.add("mylite.sort_nodes", count_sorts(&plan?) as f64);
    }
    Ok((covered, searched))
}

/// Execute the statement's cached plan branch by branch through
/// `exec::execute`. Returns the execution nanoseconds.
fn shadow_exec(
    t: &mut Traced<'_>,
    engines: &Engines,
    schema: Schema,
    sql: &str,
    parent: usize,
    sid: usize,
) -> Result<u64> {
    let engine = engines.engine(schema);
    let router = engines.router(schema);
    let (planned, _) = engine.plan_cached_opts(sql, router.as_ref(), &SessionOpts::default())?;
    let cat = engine.catalog();
    let mut total = 0;
    for b in &planned.branches {
        let mut plan = b.plan.clone();
        let slots = plan.assign_cache_slots();
        let ctx = ExecContext::new(&cat, b.bound.num_tables(), slots);
        let (rows, ns) = t.span("executor.exec", parent, sid, || execute(&plan, &ctx));
        total += ns;
        t.add("executor.rows_out", rows?.len() as f64);
        t.add("executor.work_units", ctx.stats.work_units() as f64);
        t.add("executor.critical_work_units", ctx.stats.critical_path_work() as f64);
    }
    t.add("executor.exec_ns", total as f64);
    Ok(total)
}

/// Everything the traced replay measured.
struct Replay {
    acc: Acc,
    failed: u64,
    statements: u64,
    /// Statements in counted passes.
    counted: u64,
    wall_s: f64,
    /// In-process serve time (codec + dispatch) summed over counted
    /// statements, and the part the layer spans account for.
    serve_ns: u64,
    covered_ns: u64,
}

fn replay_traced(
    tr: &mut Tracer,
    engines: &Engines,
    reqs: &[Req],
    templates: &[Template],
) -> Replay {
    let mut acc = Acc::default();
    let mut sessions = sessions(engines);
    let shadows = [
        OrcaOptimizer::new(OrcaConfig::default(), threshold(Schema::Tpch)),
        OrcaOptimizer::new(OrcaConfig::default(), threshold(Schema::Tpcds)),
    ];
    let (mut failed, mut counted, mut serve_ns, mut covered_ns) = (0, 0, 0, 0);
    let t0 = Instant::now();
    for (sid, req) in reqs.iter().enumerate() {
        // Everything counts except the suite's warm-up pass.
        let is_counted = req.pass > 0 || templates.is_empty();
        let mut t = Traced { tr: &mut *tr, acc: &mut acc, counted: is_counted };
        let i = req.schema.index();
        let engine = engines.engine(req.schema);
        let cache0 = engine.plan_cache_stats();

        let root = t.tr.open("stmt", NO_PARENT, sid);
        let (decoded, codec_in) =
            t.span("server.codec", root, sid, || decode_request(&encode_request(&req.request)));
        let (reply, serve) = match (&req.insert, decoded) {
            (Some(ins), Ok(_)) => {
                let id = t.tr.open("mylite.serve", root, sid);
                let reply = traced_insert(&mut t, engines, req.schema, ins, id, sid);
                (reply, t.tr.close(id))
            }
            (None, Ok(request)) => t.span("mylite.serve", root, sid, || {
                sessions[i].dispatch(request).unwrap_or(Reply::Unit)
            }),
            (_, Err(e)) => (Reply::Err(e), 0),
        };
        let ((bytes, decoded), codec_out) = t.span("server.codec", root, sid, || {
            let frame = encode_reply(&reply);
            (frame.len(), decode_reply(&frame))
        });
        let stmt_ns = t.tr.close(root);
        if matches!(reply, Reply::Err(_)) || decoded.is_err() {
            failed += 1;
        }
        let cache = engine.plan_cache_stats();
        let compiled = cache.misses + cache.invalidations > cache0.misses + cache0.invalidations;
        let outcome = outcome_of(&reply);
        t.sample("server.frame_codec_us", us(codec_in + codec_out));
        t.add("server.reply_bytes", bytes as f64);
        t.add("mylite.plancache.hits", (cache.hits - cache0.hits) as f64);
        t.add("mylite.plancache.misses", (cache.misses - cache0.misses) as f64);
        t.add(
            "mylite.plancache.invalidations",
            (cache.invalidations - cache0.invalidations) as f64,
        );
        t.add("mylite.cold_compiles", f64::from(u8::from(compiled)));
        t.add("statements", 1.0);

        // Layer spans for the work this serve did.
        let mut covered = codec_in + codec_out;
        if req.insert.is_some() {
            covered += serve;
        }
        let sql = match &req.request {
            Request::Query { sql, .. } | Request::Explain { sql, .. } => Some(sql.as_str()),
            _ => None,
        };
        if let (Some(sql), None) = (sql, &req.insert) {
            let shadow = t.tr.open("shadow", NO_PARENT, sid);
            let (_, ns) = t.span("sql.digest", shadow, sid, || token_digest(sql));
            t.sample("sql.digest_us", us(ns));
            covered += ns;
            if compiled {
                let cat = engine.catalog();
                let compiled =
                    shadow_compile(&mut t, &cat, sql, req.schema, &shadows[i], shadow, sid);
                drop(cat);
                if let Ok((ns, searched)) = compiled {
                    covered += ns;
                    if let (Some(tpl), true) = (req.template, t.counted) {
                        t.acc.per_template.entry((tpl, "search")).or_default().push(ms(searched));
                    }
                }
            }
            if matches!(req.request, Request::Query { .. }) {
                if let Ok(ns) = shadow_exec(&mut t, engines, req.schema, sql, shadow, sid) {
                    covered += ns;
                    if outcome == Some(ServeOutcome::Hit) {
                        t.sample("executor.hot_exec_us", us(ns));
                        t.sample("mylite.plancache.hit_serve_us", us(serve) - us(ns));
                    }
                    if let (Some(tpl), true) = (req.template, t.counted) {
                        t.acc.per_template.entry((tpl, "exec")).or_default().push(ms(ns));
                    }
                }
            }
            t.tr.close(shadow);
        }
        if is_counted {
            counted += 1;
            serve_ns += stmt_ns;
            covered_ns += covered;
        }
    }
    Replay {
        acc,
        failed,
        statements: reqs.len() as u64,
        counted,
        wall_s: t0.elapsed().as_secs_f64(),
        serve_ns,
        covered_ns,
    }
}

/// The same statements through the same in-process path, without spans or
/// layer calls. Returns the wall time in seconds.
fn replay_untraced(engines: &Engines, reqs: &[Req]) -> f64 {
    let mut sessions = sessions(engines);
    let t0 = Instant::now();
    for req in reqs {
        if let Ok(request) = decode_request(&encode_request(&req.request)) {
            let reply = sessions[req.schema.index()].dispatch(request).unwrap_or(Reply::Unit);
            let _ = decode_reply(&encode_reply(&reply));
        }
    }
    t0.elapsed().as_secs_f64()
}

/// The wire's share of a round trip, in microseconds: the median over the
/// replay's queries of (wire round trip − in-process dispatch), each query
/// timed both ways back to back so execution-time drift cancels.
fn wire_share(engines: &Engines, reqs: &[Req]) -> Result<f64> {
    let queries: Vec<&Req> = reqs
        .iter()
        .filter(|r| r.insert.is_none() && matches!(r.request, Request::Query { .. }))
        .take(WIRE_SAMPLES)
        .collect();
    let io = |e: std::io::Error| Error::internal(format!("wire replay: {e}"));
    let start = |s: Schema| Server::start(engines.engine(s).clone(), engines.router(s));
    let handles = [start(Schema::Tpch).map_err(io)?, start(Schema::Tpcds).map_err(io)?];
    let mut clients = [
        Client::connect(handles[0].addr()).map_err(io)?,
        Client::connect(handles[1].addr()).map_err(io)?,
    ];
    let mut sessions = sessions(engines);
    let mut diffs = Vec::with_capacity(queries.len());
    for r in &queries {
        if let Request::Query { sql, .. } = &r.request {
            let t = Instant::now();
            let wired = clients[r.schema.index()].query(sql);
            let wire = us(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            let _ = sessions[r.schema.index()].dispatch(r.request.clone());
            diffs.push(wire - us(t.elapsed().as_nanos() as u64));
            wired?;
        }
    }
    for c in clients {
        c.quit();
    }
    for h in handles {
        h.stop();
    }
    Ok(median(&diffs))
}

/// Set-up with its layers timed: datagen, one rebuild of every index and
/// one `ANALYZE` per schema.
fn traced_setup(cfg: &Config, tr: &mut Tracer, acc: &mut Acc) -> [Catalog; 2] {
    let root = tr.open("setup", NO_PARENT, 0);
    let t = Instant::now();
    let mut cats = build_catalogs(cfg.scale());
    let built = t.elapsed().as_secs_f64();
    let mut analyze_s = 0.0;
    for cat in &mut cats {
        let ids: Vec<_> = cat.tables().iter().map(|t| t.id).collect();
        for id in ids {
            let s = tr.open("catalog.index_build", root, 0);
            let ok = cat.build_indexes(id).is_ok();
            let ns = tr.close(s);
            if ok {
                acc.sample("catalog.index_build_us", us(ns));
            }
        }
        let s = tr.open("catalog.analyze", root, 0);
        cat.analyze_all(&AnalyzeOptions::default());
        analyze_s += tr.close(s) as f64 / 1e9;
    }
    tr.close(root);
    acc.add("catalog.analyze_ms", analyze_s * 1e3);
    // `build_catalog` ends with one ANALYZE per schema, timed again above.
    acc.add("workloads.datagen_s", (built - analyze_s).max(0.0));
    cats
}

/// Replayed statements by kind, e.g. `query 5400, insert 600`.
fn by_kind(reqs: &[Req]) -> String {
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for r in reqs {
        let kind = match (&r.request, &r.insert) {
            (_, Some(_)) => "insert",
            (Request::Query { .. }, None) => "query",
            (Request::Explain { .. }, None) => "explain",
            (Request::Analyze, None) => "analyze",
            _ => "other",
        };
        *kinds.entry(kind).or_default() += 1;
    }
    kinds.iter().map(|(k, n)| format!("{k} {n}")).collect::<Vec<_>>().join(", ")
}

/// The traced run of one workload.
pub fn run(cfg: &Config) -> std::result::Result<Outcome, String> {
    let templates = match cfg.workload {
        Workload::SuiteCold => check::templates(),
        _ => Vec::new(),
    };
    let expected = match cfg.workload {
        Workload::SuiteCold => Some(suite_reference(&templates, cfg.suite_scale)?),
        _ => None,
    };

    // Untraced replay first, on its own engines.
    let untraced_engines = Engines::new(build_catalogs(cfg.scale()));
    let reqs = requests(cfg, &untraced_engines, &templates);
    let untraced_s = replay_untraced(&untraced_engines, &reqs);
    drop(untraced_engines);

    let mut tr = Tracer::new();
    let mut setup_acc = Acc::default();
    let engines = Engines::new(traced_setup(cfg, &mut tr, &mut setup_acc));
    let (routed0, fallbacks0) = engines.routed_and_fallbacks();
    let mut r = replay_traced(&mut tr, &engines, &reqs, &templates);
    let (routed1, fallbacks1) = engines.routed_and_fallbacks();
    let wire_us = wire_share(&engines, &reqs).map_err(|e| format!("wire replay failed: {e}"))?;

    // Suite results against the reference, replayed once more untimed.
    if let Some(expected) = &expected {
        let mut sessions = sessions(&engines);
        for (t, want) in templates.iter().zip(expected) {
            let reply = sessions[t.schema.index()].dispatch(query(&t.sql));
            match reply {
                Some(Reply::Rows { rows, .. }) if check::canonical_digest(&rows) == *want => {}
                _ => r.failed += 1,
            }
            r.statements += 1;
        }
    }
    let file = format!("spans-{}-seed{}.tsv", cfg.workload.name(), cfg.seed);
    let path = format!("{SPAN_DIR}/{file}");
    tr.write(&path).map_err(|e| format!("writing {path}: {e}"))?;

    let passes = match cfg.workload {
        Workload::SuiteCold => cfg.trace_passes.max(1) as f64,
        _ => 1.0,
    };
    let a = &r.acc;
    let per_pass = |name: &str| a.count(name) / passes;
    let stmts = a.count("statements").max(1.0);
    let lookups = (a.count("mylite.plancache.hits")
        + a.count("mylite.plancache.misses")
        + a.count("mylite.plancache.invalidations"))
    .max(1.0);
    let (routed, fallbacks) = (routed1 - routed0, fallbacks1 - fallbacks0);
    let mut out = Outcome {
        attempted: r.statements,
        failed: r.failed,
        provenance: cfg.provenance(),
        ..Outcome::default()
    };
    out.metrics = vec![
        Metric::new("server.frame_codec_us", a.med("server.frame_codec_us"), "us"),
        Metric::new("server.wire_us", wire_us, "us"),
        Metric::new("server.reply_bytes", a.count("server.reply_bytes") / stmts, "bytes"),
        Metric::new("sql.digest_us", a.med("sql.digest_us"), "us"),
        Metric::new("sql.parse_us", a.med("sql.parse_us"), "us"),
        Metric::new(
            "mylite.plancache.hit_ratio",
            a.count("mylite.plancache.hits") / lookups,
            "ratio",
        ),
        Metric::new("mylite.plancache.hits", per_pass("mylite.plancache.hits"), "count"),
        Metric::new("mylite.plancache.misses", per_pass("mylite.plancache.misses"), "count"),
        Metric::new(
            "mylite.plancache.invalidations",
            a.count("mylite.plancache.invalidations") * 1000.0 / stmts,
            "per_1000",
        ),
        Metric::new("mylite.cold_compiles", per_pass("mylite.cold_compiles"), "count"),
        Metric::new("mylite.plancache.hit_serve_us", a.med("mylite.plancache.hit_serve_us"), "us"),
        Metric::new("mylite.resolve_us", a.med("mylite.resolve_us"), "us"),
        Metric::new("mylite.native_opt_us", a.med("mylite.native_opt_us"), "us"),
        Metric::new("mylite.refine_us", a.med("mylite.refine_us"), "us"),
        Metric::new("mylite.sort_nodes", per_pass("mylite.sort_nodes"), "count"),
        Metric::new("bridge.route_ms", per_pass("bridge.route_ns") / 1e6, "ms"),
        Metric::new("bridge.convert_us", a.med("bridge.convert_us"), "us"),
        Metric::new("bridge.md_requests", per_pass("bridge.md_requests"), "count"),
        Metric::new("bridge.md_misses", per_pass("bridge.md_misses"), "count"),
        Metric::new(
            "bridge.routed_ratio",
            routed as f64 / (routed + fallbacks).max(1) as f64,
            "ratio",
        ),
        Metric::new("orcalite.search_ms", per_pass("orcalite.search_ns") / 1e6, "ms"),
        Metric::new("orcalite.plans_costed", per_pass("orcalite.plans_costed"), "count"),
        Metric::new("orcalite.groups", per_pass("orcalite.groups"), "count"),
        Metric::new("orcalite.splits_explored", per_pass("orcalite.splits_explored"), "count"),
        Metric::new("orcalite.rules_applied", per_pass("orcalite.rules_applied"), "count"),
        Metric::new("executor.exec_ms", per_pass("executor.exec_ns") / 1e6, "ms"),
        Metric::new("executor.work_units", per_pass("executor.work_units"), "count"),
        Metric::new(
            "executor.critical_work_units",
            per_pass("executor.critical_work_units"),
            "count",
        ),
        Metric::new("executor.rows_out", per_pass("executor.rows_out"), "count"),
        Metric::new("executor.hot_exec_us", a.med("executor.hot_exec_us"), "us"),
        Metric::new("catalog.analyze_ms", setup_acc.count("catalog.analyze_ms"), "ms"),
        Metric::new("catalog.index_build_us", setup_acc.med("catalog.index_build_us"), "us"),
        Metric::new("workloads.datagen_s", setup_acc.count("workloads.datagen_s"), "s"),
        Metric::new("trace.coverage", r.covered_ns as f64 / r.serve_ns.max(1) as f64, "ratio"),
        Metric::new("trace.overhead_pct", 100.0 * (r.wall_s - untraced_s) / untraced_s, "%"),
    ];

    // Workload-specific figures.
    let tpl = |name: &str, kind: &'static str| {
        let i = templates.iter().position(|t| t.name == name)?;
        a.per_template.get(&(i, kind)).map(|v| median(v))
    };
    for (name, tname, kind) in [
        ("orcalite.search_ms.tpcds_q64", "tpcds_q64", "search"),
        ("orcalite.search_ms.tpcds_q14", "tpcds_q14", "search"),
        ("executor.exec_ms.tpch_q19", "tpch_q19", "exec"),
        ("executor.exec_ms.tpch_q20", "tpch_q20", "exec"),
        ("executor.exec_ms.tpch_q22", "tpch_q22", "exec"),
    ] {
        if let Some(v) = tpl(tname, kind) {
            out.report.push(Metric::new(name, v, "ms"));
        }
    }
    if a.count("catalog.rows_inserted") > 0.0 {
        out.report.extend([
            Metric::new("catalog.insert_us", a.med("catalog.insert_us"), "us"),
            Metric::new(
                "catalog.insert_index_build_us",
                a.med("catalog.insert_index_build_us"),
                "us",
            ),
            Metric::new(
                "catalog.index_rows_per_insert",
                a.count("catalog.rows_reindexed") / a.count("catalog.rows_inserted"),
                "rows",
            ),
        ]);
    }
    for (name, ns) in tr.self_ns() {
        out.report.push(Metric::new(format!("self_ms.{name}"), ms(ns), "ms"));
    }
    out.report.extend([
        Metric::new("traced_wall_s", r.wall_s, "s"),
        Metric::new("untraced_wall_s", untraced_s, "s"),
    ]);
    out.provenance.extend([
        ("statements.replayed".into(), r.statements.to_string()),
        ("statements.by_kind".into(), by_kind(&reqs)),
        ("statements.counted".into(), r.counted.to_string()),
        ("passes_counted".into(), passes.to_string()),
        ("spans".into(), format!("{} in perfbench/out/{file}", tr.spans.len())),
    ]);
    Ok(out)
}
