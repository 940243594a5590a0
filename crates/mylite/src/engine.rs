//! The session facade: parse → resolve/prepare → optimize → refine →
//! execute, with a pluggable cost-based-optimizer backend.
//!
//! The backend hook is the integration point of the whole paper: the bridge
//! crate implements [`CostBasedOptimizer`] with the Orca detour (convert →
//! optimize in Orca → convert back to a skeleton), and everything else —
//! parsing, preparation, refinement, execution — is shared, exactly as in
//! Fig 3.
//!
//! # Concurrency model
//!
//! One `Engine` is shared by every session (`Engine` is `Send + Sync`);
//! the server front end hands each connection an `Arc<Engine>` plus a
//! [`SessionOpts`] of per-session knob overrides. The shared state is
//! layered so sessions don't convoy:
//!
//! * **Catalog** — behind a `RwLock`. Every serve takes one read guard up
//!   front and keeps it for the duration: the catalog version it snapshots
//!   is therefore the version of the catalog it *executes against*, which
//!   is what makes plan-cache invalidation sound under races (see
//!   [`crate::plancache`]). DDL (`analyze_shared`, inserts) takes the
//!   write lock and naturally drains in-flight serves first.
//! * **Plan cache** — sharded; cached serves take a shard read lock on the
//!   hot path and execute under the entry's own lock.
//! * **Admission** — an atomic counter fast path; only queued waiters touch
//!   the condvar, and a waiting session's deadline bounds its queue time.
//! * **In-flight registry** — sharded by query id.
//!
//! All locks are poison-recovering ([`crate::sync`]): one panicked query
//! under `catch_unwind` isolation cannot brick later sessions.

use crate::bound::BoundStatement;
use crate::explain::{annotate, explain_plan, explain_plan_analyzed, NodeAnnotation};
use crate::feedback::{count_nodes, fold_plan, worst_q, ObservationStore};
use crate::optimizer::{optimize_statement, optimize_statement_feedback};
use crate::plancache::{CacheKey, CacheOutcome, Lookup, PlanCache, PlanCacheStats};
use crate::refine::refine_statement_orders;
use crate::resolve::resolve_union_branches;
use crate::skeleton::Skeleton;
use crate::sync::{lock, rlock, wlock};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};
use taurus_catalog::feedback::CardOverrides;
use taurus_catalog::stats::AnalyzeOptions;
use taurus_catalog::Catalog;
use taurus_common::error::{Error, Result};
use taurus_common::expr::EvalCtx;
use taurus_common::{Layout, Row, Value};
use taurus_executor::{
    execute, ExecContext, GovernorSpec, ObserverIndex, ParallelOpts, Plan, QueryGovernor,
    DEFAULT_MORSEL_ROWS,
};
use taurus_sql::fingerprint::{parameterize, token_digest};
use taurus_sql::rewrite::rewrite_set_ops;
use taurus_sql::{parse, SelectStmt, Statement};

/// Runtime-governance fault overrides an optimizer backend's fault injector
/// wants applied to the engine's execution of its plans (chaos testing).
/// The engine layers them on top of the session knobs when building each
/// query's [`QueryGovernor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecFaults {
    /// Trip the cancel token at the N-th governor check.
    pub cancel_after: Option<u64>,
    /// Clamp the query's memory budget to at most this many bytes.
    pub memory_clamp: Option<u64>,
}

/// A runtime-governance outcome the engine reports back to the optimizer
/// that planned the statement, so routers can count cancellations and
/// resource-limit failures alongside their fallback taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernedOutcome {
    /// The query was cancelled mid-execution.
    Cancelled,
    /// The query ran past its wall-clock deadline.
    DeadlineExceeded,
    /// The query exceeded its memory budget and the serial retry (if any)
    /// did too — the error surfaced to the caller.
    MemoryExceeded,
    /// The query exceeded its memory budget at full dop but succeeded on
    /// the degraded serial retry; the caller saw a normal answer.
    MemoryDegraded,
}

/// A pluggable cost-based optimizer (the orange box in paper Fig 2).
pub trait CostBasedOptimizer {
    /// Short name for EXPLAIN banners and logs.
    fn name(&self) -> &'static str;
    /// Produce a skeleton plan for a prepared statement.
    fn optimize(&self, catalog: &Catalog, bound: &BoundStatement) -> Result<Skeleton>;
    /// Runtime-governance faults to inject into this optimizer's
    /// executions. The default backend injects none.
    fn exec_faults(&self) -> Option<ExecFaults> {
        None
    }
    /// Observe a runtime-governance outcome for one of this optimizer's
    /// statements. The default backend ignores them.
    fn note_governed(&self, _outcome: GovernedOutcome) {}
    /// Re-optimize a prepared statement with observed cardinalities from a
    /// previous execution injected into the estimation path. Backends that
    /// cannot consume feedback just optimize statically.
    fn optimize_with_feedback(
        &self,
        catalog: &Catalog,
        bound: &BoundStatement,
        _fb: &CardOverrides,
    ) -> Result<Skeleton> {
        self.optimize(catalog, bound)
    }
    /// Observe that the engine re-optimized one of this backend's cached
    /// statements from runtime feedback. The default backend ignores it.
    fn note_reoptimized(&self) {}
}

/// MySQL's native greedy optimizer.
#[derive(Debug, Default, Clone, Copy)]
pub struct MySqlOptimizer;

impl CostBasedOptimizer for MySqlOptimizer {
    fn name(&self) -> &'static str {
        "mysql"
    }

    fn optimize(&self, catalog: &Catalog, bound: &BoundStatement) -> Result<Skeleton> {
        optimize_statement(catalog, bound)
    }

    fn optimize_with_feedback(
        &self,
        catalog: &Catalog,
        bound: &BoundStatement,
        fb: &CardOverrides,
    ) -> Result<Skeleton> {
        optimize_statement_feedback(catalog, bound, fb)
    }
}

/// One fully planned union branch.
#[derive(Debug, Clone)]
pub struct PlannedBranch {
    pub bound: BoundStatement,
    pub skeleton: Skeleton,
    pub plan: Plan,
    /// UNION ALL with respect to the previous branch.
    pub all: bool,
}

/// A fully planned statement (one or more union branches).
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    pub branches: Vec<PlannedBranch>,
    pub columns: Vec<String>,
}

impl PlannedQuery {
    /// The primary branch (non-union statements have exactly one).
    pub fn primary(&self) -> &PlannedBranch {
        &self.branches[0]
    }
}

/// Query results plus the executor's work-unit accounting.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Machine-independent work measure (see `ExecStats::work_units`).
    pub work_units: u64,
    /// Work on the critical path: parallel fragments count only their
    /// slowest worker, so `work_units / critical_work_units` is the
    /// machine-independent parallel speedup.
    pub critical_work_units: u64,
}

/// What `EXPLAIN ANALYZE` returns: the query's results (so callers can
/// verify instrumentation didn't perturb them), the annotated plan text,
/// and the raw per-operator annotations for programmatic q-error checks
/// (pre-order per branch, branches concatenated).
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    pub output: QueryOutput,
    pub text: String,
    pub nodes: Vec<NodeAnnotation>,
}

/// Per-session overrides layered over the engine-wide knob defaults. A
/// `None` field inherits the engine knob; `Some` pins the session's value
/// (including "explicitly off": `Some(0)` for the deadline/budget fields
/// and a non-positive threshold for `reopt_q_threshold`). The server's
/// session state holds one of these per connection, and per-statement
/// options override it once more.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionOpts {
    /// Degree of parallelism (plan-shaping: part of the plan-cache key).
    pub dop: Option<usize>,
    /// Morsel size for parallel scans (execution-only).
    pub morsel_rows: Option<usize>,
    /// Vectorized columnar batch execution (execution-only: plans are
    /// unaffected, only the executor's inner loops change).
    pub vectorized: Option<bool>,
    /// Minimum driving-table rows before an exchange is placed
    /// (plan-shaping: part of the plan-cache key).
    pub parallel_threshold: Option<usize>,
    /// Drop Sort enforcers whose input already delivers the requested
    /// order (plan-shaping: part of the plan-cache key).
    pub order_opt: Option<bool>,
    /// Wall-clock budget per query in ms; `Some(0)` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Tracked-memory budget per query in bytes; `Some(0)` = unlimited.
    pub memory_budget: Option<u64>,
    /// Worst-q-error threshold for feedback re-optimization; non-positive
    /// or non-finite values disable the loop for this session.
    pub reopt_q_threshold: Option<f64>,
}

/// The fully resolved knob set one statement runs under: session overrides
/// layered over engine defaults, captured once per serve.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    dop: usize,
    morsel_rows: usize,
    vectorized: bool,
    parallel_threshold: usize,
    order_opt: bool,
    deadline_ms: u64,
    memory_budget: u64,
    cancel_after: u64,
    reopt_q_threshold: Option<f64>,
}

/// A read-locked view of the engine's catalog. Dereferences to
/// [`Catalog`]; drop it before calling anything that mutates the catalog
/// (`analyze_shared`, `with_catalog_mut`, INSERT) or issuing statements —
/// holding it across an engine call can deadlock against a queued writer.
pub struct CatalogRef<'a>(RwLockReadGuard<'a, Catalog>);

impl Deref for CatalogRef<'_> {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.0
    }
}

/// Number of independently locked in-flight registry shards (query-id
/// keyed; registration/finish touch one shard each).
const IN_FLIGHT_SHARDS: usize = 8;

/// The engine: a catalog plus the machinery to run SQL against it.
///
/// `Engine` is `Send + Sync`: the catalog sits behind a `RwLock`, the plan
/// cache is sharded with interior locking, the knobs are atomics, and the
/// admission gate and in-flight registry are atomic/sharded — so thousands
/// of sessions can share one engine across threads while the
/// single-threaded API stays unchanged.
pub struct Engine {
    /// The catalog. Serves hold a read guard for their whole duration (the
    /// version snapshot *is* the executed-against version); DDL takes the
    /// write lock and therefore drains in-flight serves first.
    catalog: RwLock<Catalog>,
    /// Sharded fingerprint-keyed plan cache for the `*_cached` entry
    /// points (interior locking; see [`crate::plancache`]).
    plan_cache: PlanCache,
    /// Engine-default degree of parallelism (1 = serial).
    dop: AtomicUsize,
    /// Runtime morsel size for parallel scans (rows per morsel).
    morsel_rows: AtomicUsize,
    /// Engine-default vectorized batch execution (off by default).
    vectorized: AtomicBool,
    /// Minimum driving-table rows before an exchange is worth placing.
    parallel_threshold: AtomicUsize,
    /// Engine-default interesting-order optimization: drop Sort enforcers
    /// whose input already delivers the requested order (on by default).
    order_opt: AtomicBool,
    /// Admission gate, fast path: executing entry points CAS `admitted`
    /// below `admission_limit` before doing any work, so at most `limit`
    /// callers contend for the morsel pool at once.
    admitted: AtomicUsize,
    admission_limit: AtomicUsize,
    /// Queued-waiter count; a releasing permit only touches the condvar
    /// mutex when somebody is actually waiting.
    admission_waiters: AtomicUsize,
    /// Slow path: waiters park here. The mutex guards nothing but the
    /// wait itself (the gate state is the atomics above).
    admission_mu: Mutex<()>,
    admission_cv: Condvar,
    /// Engine-default wall-clock budget per query, in ms (0 = none).
    deadline_ms: AtomicU64,
    /// Engine-default memory budget per query, in bytes (0 = unlimited).
    memory_budget: AtomicU64,
    /// Chaos knob: cancel each query at its N-th governor check (0 = off).
    cancel_after: AtomicU64,
    /// Query-id allocator for [`Engine::cancel`].
    next_query_id: AtomicU64,
    /// Governors of currently executing queries, sharded by query id.
    in_flight: Vec<Mutex<HashMap<u64, Arc<QueryGovernor>>>>,
    /// Peak tracked memory of the most recently finished governed query.
    last_peak: AtomicU64,
    /// Observed per-operator cardinalities of instrumented cached serves,
    /// keyed by statement fingerprint (the feedback loop's memory).
    feedback: ObservationStore,
    /// Worst observed q-error above which the next instrumented cached
    /// serve re-optimizes with feedback (f64 bits; 0.0 = loop disabled).
    reopt_q_threshold: AtomicU64,
}

/// Default q-error threshold for feedback-driven re-optimization.
pub const DEFAULT_REOPT_Q_THRESHOLD: f64 = 10.0;

impl Engine {
    pub fn new(catalog: Catalog) -> Engine {
        Engine {
            catalog: RwLock::new(catalog),
            plan_cache: PlanCache::default(),
            dop: AtomicUsize::new(1),
            morsel_rows: AtomicUsize::new(DEFAULT_MORSEL_ROWS),
            vectorized: AtomicBool::new(false),
            parallel_threshold: AtomicUsize::new(DEFAULT_MORSEL_ROWS),
            order_opt: AtomicBool::new(true),
            admitted: AtomicUsize::new(0),
            admission_limit: AtomicUsize::new(usize::MAX),
            admission_waiters: AtomicUsize::new(0),
            admission_mu: Mutex::new(()),
            admission_cv: Condvar::new(),
            deadline_ms: AtomicU64::new(0),
            memory_budget: AtomicU64::new(0),
            cancel_after: AtomicU64::new(0),
            next_query_id: AtomicU64::new(1),
            in_flight: (0..IN_FLIGHT_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            last_peak: AtomicU64::new(0),
            feedback: ObservationStore::new(),
            reopt_q_threshold: AtomicU64::new(DEFAULT_REOPT_Q_THRESHOLD.to_bits()),
        }
    }

    // ------------------------------------------------------- parallelism

    /// Set the engine-default degree of parallelism. Plans depend on it
    /// (exchange placement), so cached plans are dropped wholesale; a
    /// session-level override needs no clearing — the knobs are part of
    /// the plan-cache key.
    pub fn set_dop(&self, dop: usize) {
        self.dop.store(dop.max(1), Ordering::Relaxed);
        self.plan_cache.clear();
    }

    /// Set the dop from the machine's available parallelism.
    pub fn set_auto_dop(&self) {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.set_dop(n);
    }

    pub fn dop(&self) -> usize {
        self.dop.load(Ordering::Relaxed).max(1)
    }

    /// Runtime morsel size for parallel scans. Purely an execution knob —
    /// plans are unaffected, so the cache survives.
    pub fn set_morsel_rows(&self, rows: usize) {
        self.morsel_rows.store(rows.max(1), Ordering::Relaxed);
    }

    /// Route execution through the vectorized columnar batch engine.
    /// Purely an execution knob — same plans, same output bytes, different
    /// inner loops — so the plan cache survives, exactly as for
    /// [`Engine::set_morsel_rows`].
    pub fn set_vectorized(&self, on: bool) {
        self.vectorized.store(on, Ordering::Relaxed);
    }

    pub fn vectorized(&self) -> bool {
        self.vectorized.load(Ordering::Relaxed)
    }

    /// Minimum driving-table rows before refinement places an exchange.
    /// Affects plans, so cached plans are dropped.
    pub fn set_parallel_threshold(&self, rows: usize) {
        self.parallel_threshold.store(rows, Ordering::Relaxed);
        self.plan_cache.clear();
    }

    /// Enable/disable interesting-order optimization: when on (the
    /// default), refinement drops Sort enforcers whose input already
    /// delivers the requested order. Off keeps every enforcer — the
    /// always-enforce baseline the byte-identity oracles compare against.
    /// Affects plans, so cached plans are dropped.
    pub fn set_order_opt(&self, on: bool) {
        self.order_opt.store(on, Ordering::Relaxed);
        self.plan_cache.clear();
    }

    pub fn order_opt(&self) -> bool {
        self.order_opt.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------- feedback

    /// Worst-q-error threshold above which an instrumented cached serve
    /// ([`Engine::analyze_cached`]) re-optimizes the statement with its
    /// observed cardinalities injected. `None` disables the loop; the
    /// default is [`DEFAULT_REOPT_Q_THRESHOLD`]. Strictly-above semantics:
    /// a run whose worst q-error equals the threshold does not re-optimize.
    pub fn set_reopt_q_threshold(&self, threshold: Option<f64>) {
        let t = threshold.filter(|t| t.is_finite() && *t > 0.0).unwrap_or(0.0);
        self.reopt_q_threshold.store(t.to_bits(), Ordering::Relaxed);
    }

    pub fn reopt_q_threshold(&self) -> Option<f64> {
        let t = f64::from_bits(self.reopt_q_threshold.load(Ordering::Relaxed));
        (t > 0.0).then_some(t)
    }

    /// The engine's observation store (for tests and reports).
    pub fn feedback(&self) -> &ObservationStore {
        &self.feedback
    }

    // ------------------------------------------------------- knobs

    /// Resolve one statement's effective knob set: session overrides where
    /// present, engine defaults otherwise.
    fn knobs(&self, session: &SessionOpts) -> Knobs {
        Knobs {
            dop: session.dop.map(|d| d.max(1)).unwrap_or_else(|| self.dop()),
            morsel_rows: session
                .morsel_rows
                .map(|m| m.max(1))
                .unwrap_or_else(|| self.morsel_rows.load(Ordering::Relaxed)),
            vectorized: session
                .vectorized
                .unwrap_or_else(|| self.vectorized.load(Ordering::Relaxed)),
            parallel_threshold: session
                .parallel_threshold
                .unwrap_or_else(|| self.parallel_threshold.load(Ordering::Relaxed)),
            order_opt: session.order_opt.unwrap_or_else(|| self.order_opt.load(Ordering::Relaxed)),
            deadline_ms: session
                .deadline_ms
                .unwrap_or_else(|| self.deadline_ms.load(Ordering::Relaxed)),
            memory_budget: session
                .memory_budget
                .unwrap_or_else(|| self.memory_budget.load(Ordering::Relaxed)),
            cancel_after: self.cancel_after.load(Ordering::Relaxed),
            reopt_q_threshold: match session.reopt_q_threshold {
                Some(t) if t.is_finite() && t > 0.0 => Some(t),
                Some(_) => None,
                None => self.reopt_q_threshold(),
            },
        }
    }

    // ------------------------------------------------------- governance

    /// Cap concurrent executions. Callers over the limit block until a slot
    /// frees (or their deadline expires); planning-only entry points
    /// (`plan`, `explain`) are not gated.
    pub fn set_admission_limit(&self, limit: usize) {
        self.admission_limit.store(limit.max(1), Ordering::SeqCst);
        // Take the waiter mutex so the notify cannot slip between a
        // waiter's re-check and its park.
        let _g = lock(&self.admission_mu);
        self.admission_cv.notify_all();
    }

    /// Per-query wall-clock budget for executing entry points. `None`
    /// removes the deadline.
    pub fn set_deadline(&self, budget: Option<Duration>) {
        let ms = budget.map(|d| (d.as_millis() as u64).max(1)).unwrap_or(0);
        self.deadline_ms.store(ms, Ordering::Relaxed);
    }

    /// Per-query budget for tracked operator memory (hash builds, sort
    /// buffers, materializations). `None` removes the budget.
    pub fn set_memory_budget(&self, bytes: Option<u64>) {
        self.memory_budget.store(bytes.map(|b| b.max(1)).unwrap_or(0), Ordering::Relaxed);
    }

    /// Chaos knob: cancel every subsequent query at its N-th governor
    /// check (deterministic mid-query cancel points for fuzzing). `None`
    /// disables it.
    pub fn set_cancel_after(&self, checks: Option<u64>) {
        self.cancel_after.store(checks.map(|c| c.max(1)).unwrap_or(0), Ordering::Relaxed);
    }

    fn in_flight_shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<QueryGovernor>>> {
        &self.in_flight[(id as usize) % IN_FLIGHT_SHARDS]
    }

    /// Cancel a running query by id. Returns whether the id was in flight;
    /// the query itself unwinds with `Error::Cancelled` at its next batch
    /// or morsel boundary.
    pub fn cancel(&self, query_id: u64) -> bool {
        match lock(self.in_flight_shard(query_id)).get(&query_id) {
            Some(g) => {
                g.cancel();
                true
            }
            None => false,
        }
    }

    /// Ids of currently executing queries (for `Engine::cancel` callers on
    /// other threads).
    pub fn in_flight_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .in_flight
            .iter()
            .flat_map(|s| lock(s).keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Peak tracked memory (bytes) of the most recently finished governed
    /// query — what the governance harness gates against the budget.
    pub fn last_peak_bytes(&self) -> u64 {
        self.last_peak.load(Ordering::Relaxed)
    }

    /// One CAS attempt at the admission fast path.
    fn try_admit(&self) -> bool {
        self.admitted
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                (c < self.admission_limit.load(Ordering::SeqCst)).then(|| c + 1)
            })
            .is_ok()
    }

    /// Take an admission slot. The uncontended path is a single CAS; a
    /// caller over the limit parks on the condvar — bounded by its
    /// effective deadline, so a queued query returns `DeadlineExceeded`
    /// instead of sitting past its budget (it never started executing, so
    /// nothing needs unwinding).
    fn admit(&self, knobs: &Knobs) -> Result<AdmissionPermit<'_>> {
        if self.try_admit() {
            return Ok(AdmissionPermit { engine: self });
        }
        let deadline = (knobs.deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(knobs.deadline_ms));
        let mut parked = lock(&self.admission_mu);
        self.admission_waiters.fetch_add(1, Ordering::SeqCst);
        let admitted = loop {
            // Re-check under the mutex: a permit released after our fast
            // path failed notifies under this same mutex, so the slot
            // cannot vanish between this check and the park below.
            if self.try_admit() {
                break Ok(());
            }
            match deadline {
                None => {
                    parked = self.admission_cv.wait(parked).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break Err(Error::DeadlineExceeded { budget_ms: knobs.deadline_ms });
                    }
                    parked = self
                        .admission_cv
                        .wait_timeout(parked, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        };
        self.admission_waiters.fetch_sub(1, Ordering::SeqCst);
        drop(parked);
        admitted.map(|()| AdmissionPermit { engine: self })
    }

    /// Build the governor for one execution from the resolved knobs plus
    /// any chaos overrides the optimizer's fault injector supplies.
    fn new_governor(&self, opt: &dyn CostBasedOptimizer, knobs: &Knobs) -> Arc<QueryGovernor> {
        let faults = opt.exec_faults().unwrap_or_default();
        let mut budget = knobs.memory_budget;
        if let Some(clamp) = faults.memory_clamp {
            budget = if budget == 0 { clamp } else { budget.min(clamp) };
        }
        let cancel = match faults.cancel_after {
            Some(c) => c.max(1),
            None => knobs.cancel_after,
        };
        Arc::new(QueryGovernor::from_spec(GovernorSpec {
            deadline_ms: knobs.deadline_ms,
            memory_budget: budget,
            cancel_after: cancel,
        }))
    }

    fn register(&self, governor: &Arc<QueryGovernor>) -> u64 {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        lock(self.in_flight_shard(id)).insert(id, governor.clone());
        id
    }

    fn finish(&self, id: u64, governor: &Arc<QueryGovernor>) {
        lock(self.in_flight_shard(id)).remove(&id);
        self.last_peak.store(governor.peak_bytes(), Ordering::Relaxed);
    }

    /// Execute a planned query under a fresh governor, with the memory
    /// degradation rung: a `MemoryExceeded` first attempt is retried once
    /// on a serialized copy of the plan (exchanges forced to dop=1, so the
    /// repartition/broadcast buffers never materialize) under a fresh
    /// governor with the same limits. Governance outcomes are reported to
    /// the optimizer either way.
    fn governed_execute(
        &self,
        cat: &Catalog,
        planned: &PlannedQuery,
        opt: &dyn CostBasedOptimizer,
        knobs: &Knobs,
    ) -> Result<QueryOutput> {
        let governor = self.new_governor(opt, knobs);
        let id = self.register(&governor);
        let first = self.execute_branches(
            cat,
            planned,
            Some(&governor),
            knobs.morsel_rows,
            knobs.vectorized,
        );
        self.finish(id, &governor);
        match first {
            Err(Error::MemoryExceeded { .. }) => {
                // The degradation rung is serial *row* execution: exchanges
                // forced to dop=1 and the batch path disabled, so neither
                // repartition buffers nor batch buffers materialize.
                let serial = degrade_serial(planned);
                let governor = self.new_governor(opt, knobs);
                let id = self.register(&governor);
                let retry =
                    self.execute_branches(cat, &serial, Some(&governor), knobs.morsel_rows, false);
                self.finish(id, &governor);
                match retry {
                    Ok(out) => {
                        opt.note_governed(GovernedOutcome::MemoryDegraded);
                        Ok(out)
                    }
                    Err(e) => {
                        note_governed_error(opt, &e);
                        Err(e)
                    }
                }
            }
            Err(e) => {
                note_governed_error(opt, &e);
                Err(e)
            }
            ok => ok,
        }
    }

    // ------------------------------------------------------- catalog

    /// A read-locked view of the catalog. See [`CatalogRef`] for the
    /// holding discipline.
    pub fn catalog(&self) -> CatalogRef<'_> {
        CatalogRef(rlock(&self.catalog))
    }

    /// Exclusive catalog access through `&mut self` (setup code that owns
    /// the engine; no locking).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        self.catalog.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Run a closure with exclusive catalog access from a shared engine —
    /// the DDL path for concurrent sessions. Takes the write lock, so it
    /// drains in-flight serves first and every later serve snapshots the
    /// bumped version.
    pub fn with_catalog_mut<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        f(&mut wlock(&self.catalog))
    }

    /// Run ANALYZE on every table with default options.
    pub fn analyze(&mut self) {
        self.catalog_mut().analyze_all(&AnalyzeOptions::default());
    }

    /// [`Engine::analyze`] from a shared reference — ANALYZE issued by one
    /// session of many (bumps the catalog version; cached plans compiled
    /// under the old statistics invalidate on their next lookup).
    pub fn analyze_shared(&self) {
        self.with_catalog_mut(|c| c.analyze_all(&AnalyzeOptions::default()));
    }

    // ------------------------------------------------------- entry points

    /// Execute any statement with the native MySQL optimizer.
    pub fn execute_sql(&mut self, sql: &str) -> Result<QueryOutput> {
        self.execute_sql_shared(sql)
    }

    /// Execute any statement with the native MySQL optimizer from a shared
    /// reference (INSERT takes the catalog write lock).
    pub fn execute_sql_shared(&self, sql: &str) -> Result<QueryOutput> {
        match parse(sql)? {
            Statement::Insert { table, rows } => self.execute_insert(&table, rows),
            Statement::Select(stmt) => self.run_select(&stmt, &MySqlOptimizer),
        }
    }

    /// Run a SELECT with the native optimizer.
    pub fn query(&self, sql: &str) -> Result<QueryOutput> {
        self.query_with(sql, &MySqlOptimizer)
    }

    /// Run a SELECT with a specific optimizer backend.
    pub fn query_with(&self, sql: &str, opt: &dyn CostBasedOptimizer) -> Result<QueryOutput> {
        let stmt = parse_select_text(sql)?;
        self.run_select(&stmt, opt)
    }

    /// Plan a SELECT without executing (what `EXPLAIN` does; used by the
    /// compile-time experiment, Table 1).
    pub fn plan(&self, sql: &str, opt: &dyn CostBasedOptimizer) -> Result<PlannedQuery> {
        let stmt = parse_select_text(sql)?;
        self.plan_select(&stmt, opt)
    }

    /// EXPLAIN output for a SELECT under a given optimizer.
    pub fn explain(&self, sql: &str, opt: &dyn CostBasedOptimizer) -> Result<String> {
        let stmt = parse_select_text(sql)?;
        let knobs = self.knobs(&SessionOpts::default());
        let cat = rlock(&self.catalog);
        let planned = self.plan_select_knobs(&cat, &stmt, opt, None, &knobs)?;
        let mut out = String::new();
        for (i, b) in planned.branches.iter().enumerate() {
            if i > 0 {
                out.push_str(&format!("UNION {}\n", if b.all { "ALL" } else { "DISTINCT" }));
            }
            out.push_str(&explain_plan(&b.plan, &b.bound, &cat, &b.skeleton));
        }
        Ok(out)
    }

    // ------------------------------------------------------- plan cache

    /// Serve a statement through the fingerprint-keyed plan cache without
    /// copying the plan. The serve path is the token digest
    /// ([`token_digest`]): one pass over the source bytes yields the
    /// fingerprint and the literal binds — no parse tree. On a hit, the
    /// cached plan's parameters are re-bound *in place* and `f` runs
    /// against the shared plan (under the entry's own lock — sessions
    /// serving other statements are untouched), so a hit costs one
    /// lex-level scan, one shard-read lookup and a rebind; never a parse
    /// or a plan deep-copy.
    ///
    /// On a miss (or invalidation) the statement is parsed and
    /// parameterized — planning still sees the peeked literal values —
    /// served to `f`, and moved into the cache keyed by the digest
    /// fingerprint. The digest extracts binds in token order while
    /// [`parameterize`] numbers parameters in AST order; the two agree for
    /// this grammar, and the insert verifies it per shape — a statement
    /// whose orders diverge is simply never cached (compiled every time,
    /// correct either way).
    pub fn serve_cached<R>(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        f: impl FnOnce(&PlannedQuery) -> Result<R>,
    ) -> Result<(R, CacheOutcome)> {
        let knobs = self.knobs(&SessionOpts::default());
        let cat = rlock(&self.catalog);
        self.serve_cached_knobs(&cat, sql, opt, &knobs, |_, planned| f(planned))?.select()
    }

    /// The serve path proper, against a catalog snapshot the caller holds.
    /// The read guard spans the whole serve, so `version` is the version
    /// of the catalog `f` executes against: an entry validated against it
    /// cannot be stale for *this* execution no matter how DDL races — the
    /// write lock serializes after us, and the next serve's snapshot sees
    /// the bump and invalidates.
    ///
    /// An INSERT never enters the cache: its digest skips the lookup, and
    /// the miss path's parse hands it back as [`Served::Insert`] for the
    /// caller to run once it has released its catalog read guard.
    fn serve_cached_knobs<R>(
        &self,
        cat: &Catalog,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        knobs: &Knobs,
        f: impl FnOnce(&Catalog, &PlannedQuery) -> Result<R>,
    ) -> Result<Served<R>> {
        let digest = token_digest(sql).filter(|d| d.leading_keyword != Some("INSERT"));
        let version = cat.version();
        let mut outcome = CacheOutcome::Miss;
        if let Some(d) = &digest {
            let key = CacheKey {
                fingerprint: d.fingerprint,
                dop: knobs.dop,
                parallel_threshold: knobs.parallel_threshold,
                order_opt: knobs.order_opt,
            };
            match self.plan_cache.lookup(&key, version) {
                Lookup::Hit(entry) => {
                    // A rebind refusal (slot count or type-class mismatch
                    // with the peeked values) means the cached plan cannot
                    // serve these binds: discard it and recompile below,
                    // exactly as for any other invalidation. Serving the
                    // stale plan — or failing the query — would turn a
                    // cache artifact into a user-visible behaviour change.
                    let mut planned = entry.planned();
                    if rebind_planned(&mut planned, &d.binds).is_ok() {
                        let r = f(cat, &planned)?;
                        return Ok(Served::Select(r, CacheOutcome::Hit));
                    }
                    drop(planned);
                    self.plan_cache.discard(&key);
                    outcome = CacheOutcome::Invalidated;
                }
                Lookup::Invalidated => outcome = CacheOutcome::Invalidated,
                Lookup::Miss => {}
            }
        }
        // Miss, invalidation, INSERT, or unlexable input (the parser
        // produces the real error for the latter).
        let stmt = match parse(sql)? {
            Statement::Select(s) => s,
            Statement::Insert { table, rows } => return Ok(Served::Insert { table, rows }),
        };
        let p = parameterize(&stmt);
        let planned = self.plan_select_knobs(cat, &p.stmt, opt, None, knobs)?;
        let r = f(cat, &planned)?;
        if let Some(d) = digest {
            if d.binds == p.binds {
                let key = CacheKey {
                    fingerprint: d.fingerprint,
                    dop: knobs.dop,
                    parallel_threshold: knobs.parallel_threshold,
                    order_opt: knobs.order_opt,
                };
                // This compile ran without any cache lock; a concurrent
                // serve may have re-optimized the same statement meanwhile.
                // Never clobber that entry with a static plan — the
                // feedback store's applied snapshot would then suppress a
                // second re-optimization and pin the misestimate.
                if !self.plan_cache.has_reopt_entry(&key, version) {
                    self.plan_cache.insert(&key, version, opt.name(), planned);
                }
            }
        }
        Ok(Served::Select(r, outcome))
    }

    /// Plan through the plan cache, returning an owned copy of the plan.
    /// Returns the outcome for banners/reports.
    pub fn plan_cached(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
    ) -> Result<(PlannedQuery, CacheOutcome)> {
        self.serve_cached(sql, opt, |planned| Ok(planned.clone()))
    }

    /// [`Engine::plan_cached`] under per-session knob overrides.
    pub fn plan_cached_opts(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        session: &SessionOpts,
    ) -> Result<(PlannedQuery, CacheOutcome)> {
        let knobs = self.knobs(session);
        let cat = rlock(&self.catalog);
        self.serve_cached_knobs(&cat, sql, opt, &knobs, |_, planned| Ok(planned.clone()))?.select()
    }

    /// Run a SELECT through the plan cache (executes straight off the
    /// shared cached plan).
    pub fn query_cached(&self, sql: &str, opt: &dyn CostBasedOptimizer) -> Result<QueryOutput> {
        self.query_cached_opts(sql, opt, &SessionOpts::default()).map(|(out, _)| out)
    }

    /// [`Engine::query_cached`] under per-session knob overrides, returning
    /// the cache outcome alongside the results (the server reports it to
    /// clients). An INSERT runs too, uncached ([`CacheOutcome::Uncached`]).
    pub fn query_cached_opts(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        session: &SessionOpts,
    ) -> Result<(QueryOutput, CacheOutcome)> {
        let knobs = self.knobs(session);
        // The admission slot is taken before any lock: a caller queued at
        // the gate must hold neither the catalog nor the cache hostage.
        let _permit = self.admit(&knobs)?;
        let cat = rlock(&self.catalog);
        let served = self.serve_cached_knobs(&cat, sql, opt, &knobs, |cat, planned| {
            self.governed_execute(cat, planned, opt, &knobs)
        })?;
        drop(cat);
        match served {
            Served::Select(out, outcome) => Ok((out, outcome)),
            Served::Insert { table, rows } => {
                Ok((self.execute_insert(&table, rows)?, CacheOutcome::Uncached))
            }
        }
    }

    /// EXPLAIN through the plan cache: the banner's first line gains a
    /// `[plan cache: hit|miss|invalidated]` suffix.
    pub fn explain_cached(&self, sql: &str, opt: &dyn CostBasedOptimizer) -> Result<String> {
        self.explain_cached_opts(sql, opt, &SessionOpts::default())
    }

    /// [`Engine::explain_cached`] under per-session knob overrides.
    pub fn explain_cached_opts(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        session: &SessionOpts,
    ) -> Result<String> {
        let knobs = self.knobs(session);
        let cat = rlock(&self.catalog);
        let served = self.serve_cached_knobs(&cat, sql, opt, &knobs, |cat, planned| {
            let mut out = String::new();
            for (i, b) in planned.branches.iter().enumerate() {
                if i > 0 {
                    out.push_str(&format!("UNION {}\n", if b.all { "ALL" } else { "DISTINCT" }));
                }
                out.push_str(&explain_plan(&b.plan, &b.bound, cat, &b.skeleton));
            }
            Ok(out)
        })?;
        let (text, outcome) = served.select()?;
        // Suffix the banner line (first line) with the cache state.
        Ok(match text.split_once('\n') {
            Some((banner, rest)) => {
                format!("{banner} [plan cache: {}]\n{rest}", outcome.label())
            }
            None => text,
        })
    }

    /// Plan-cache counters for reports.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Number of currently cached statements.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Drop every cached plan (counters survive).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Plan a parsed SELECT.
    pub fn plan_select(
        &self,
        stmt: &SelectStmt,
        opt: &dyn CostBasedOptimizer,
    ) -> Result<PlannedQuery> {
        let knobs = self.knobs(&SessionOpts::default());
        let cat = rlock(&self.catalog);
        self.plan_select_knobs(&cat, stmt, opt, None, &knobs)
    }

    /// Plan a parsed SELECT against a catalog snapshot, optionally
    /// injecting observed cardinalities (one [`CardOverrides`] per union
    /// branch — branches have separate query-table spaces) into the
    /// optimizer and refinement estimates.
    fn plan_select_knobs(
        &self,
        cat: &Catalog,
        stmt: &SelectStmt,
        opt: &dyn CostBasedOptimizer,
        fb: Option<&[CardOverrides]>,
        knobs: &Knobs,
    ) -> Result<PlannedQuery> {
        // MySQL does not support INTERSECT/EXCEPT; the paper rewrote the
        // affected queries (§6.2). We apply the mechanical rewrite here.
        let stmt = rewrite_set_ops(stmt.clone())?;
        let branches = resolve_union_branches(cat, &stmt)?;
        if branches.is_empty() {
            return Err(Error::internal("statement resolved to no branches"));
        }
        let mut planned = Vec::with_capacity(branches.len());
        let mut columns: Option<Vec<String>> = None;
        let session_dop = knobs.dop;
        for (i, (bound, all)) in branches.into_iter().enumerate() {
            let bfb = fb.and_then(|f| f.get(i)).filter(|o| !o.is_empty());
            let mut skeleton = match bfb {
                Some(o) => opt.optimize_with_feedback(cat, &bound, o)?,
                None => opt.optimize(cat, &bound)?,
            };
            if let Some(o) = bfb {
                skeleton.reopt = Some(format!("{} observed cardinalities injected", o.len()));
            }
            // The optimizer's dop choice wins when present, clamped to the
            // session knob; otherwise the session knob applies directly.
            let dop = skeleton.dop.unwrap_or(session_dop).min(session_dop).max(1);
            let opts = ParallelOpts { dop, min_driver_rows: knobs.parallel_threshold };
            let plan =
                refine_statement_orders(cat, &bound, &skeleton, &opts, bfb, knobs.order_opt)?;
            let cols: Vec<String> = bound.root.select.iter().map(|o| o.name.clone()).collect();
            match &columns {
                None => columns = Some(cols),
                Some(c) => {
                    if c.len() != cols.len() {
                        return Err(Error::semantic("UNION branches have different arity"));
                    }
                }
            }
            planned.push(PlannedBranch { bound, skeleton, plan, all });
        }
        Ok(PlannedQuery { branches: planned, columns: columns.expect("at least one branch") })
    }

    /// Execute a previously planned query (ungoverned: no deadline, budget,
    /// or cancel token — the governed entry points are `query*`).
    pub fn execute_planned(&self, planned: &PlannedQuery) -> Result<QueryOutput> {
        let cat = rlock(&self.catalog);
        self.execute_branches(
            &cat,
            planned,
            None,
            self.morsel_rows.load(Ordering::Relaxed),
            self.vectorized.load(Ordering::Relaxed),
        )
    }

    fn execute_branches(
        &self,
        cat: &Catalog,
        planned: &PlannedQuery,
        governor: Option<&Arc<QueryGovernor>>,
        morsel_rows: usize,
        vectorized: bool,
    ) -> Result<QueryOutput> {
        let mut rows: Vec<Row> = Vec::new();
        let mut work = 0u64;
        let mut critical = 0u64;
        for (i, b) in planned.branches.iter().enumerate() {
            let mut plan = b.plan.clone();
            let slots = plan.assign_cache_slots();
            let mut ctx = ExecContext::new(cat, b.bound.num_tables(), slots);
            ctx.set_morsel_rows(morsel_rows);
            ctx.set_vectorized(vectorized);
            if let Some(g) = governor {
                ctx.set_governor(g.clone());
            }
            let branch_rows = execute(&plan, &ctx)?;
            work += ctx.stats.work_units();
            critical += ctx.stats.critical_path_work();
            if i == 0 {
                rows = branch_rows;
            } else {
                rows.extend(branch_rows);
                if !b.all {
                    let mut seen = std::collections::HashSet::new();
                    rows.retain(|r| seen.insert(r.clone()));
                }
            }
        }
        Ok(QueryOutput {
            columns: planned.columns.clone(),
            rows,
            work_units: work,
            critical_work_units: critical,
        })
    }

    /// EXPLAIN ANALYZE: plan, execute with per-operator observation
    /// enabled, and render the plan tree annotated with actual rows, loop
    /// counts, and q-errors.
    pub fn explain_analyze(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
    ) -> Result<AnalyzedQuery> {
        let stmt = parse_select_text(sql)?;
        let knobs = self.knobs(&SessionOpts::default());
        let _permit = self.admit(&knobs)?;
        let cat = rlock(&self.catalog);
        let planned = self.plan_select_knobs(&cat, &stmt, opt, None, &knobs)?;
        self.analyze_governed(&cat, &planned, opt, &knobs)
    }

    /// Instrumented execution under a fresh governor (the body of
    /// `EXPLAIN ANALYZE` once a plan exists). Governance outcomes are
    /// reported to the optimizer like any governed execution.
    fn analyze_governed(
        &self,
        cat: &Catalog,
        planned: &PlannedQuery,
        opt: &dyn CostBasedOptimizer,
        knobs: &Knobs,
    ) -> Result<AnalyzedQuery> {
        let governor = self.new_governor(opt, knobs);
        let id = self.register(&governor);
        let out = self.analyze_branches(cat, planned, Some(&governor), knobs.morsel_rows);
        self.finish(id, &governor);
        if let Err(e) = &out {
            note_governed_error(opt, e);
        }
        out
    }

    /// EXPLAIN ANALYZE through the plan cache — the entry point of the
    /// feedback-driven re-optimization loop. Every instrumented serve
    /// folds its observed per-operator cardinalities into the engine's
    /// [`ObservationStore`]. On a hit whose recorded worst q-error is
    /// strictly above the session threshold (and whose observations differ
    /// from what the cached plan was compiled with), the entry is evicted
    /// and the statement recompiled with the observations injected into
    /// the optimizer's estimation path; the outcome reports
    /// [`CacheOutcome::Reoptimized`] and the new plan replaces the old
    /// entry.
    ///
    /// Concurrency: hit-path execution happens under the cache entry's own
    /// lock, so a re-optimizing eviction can never race a concurrent serve
    /// of the same statement mid-execution (eviction only detaches the
    /// entry from the cache; the serve holds its own `Arc`). Lock order is
    /// catalog-read → cache shard → entry → feedback; the feedback store
    /// never takes a cache or catalog lock.
    pub fn analyze_cached(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
    ) -> Result<(AnalyzedQuery, CacheOutcome)> {
        self.analyze_cached_opts(sql, opt, &SessionOpts::default())
    }

    /// [`Engine::analyze_cached`] under per-session knob overrides.
    pub fn analyze_cached_opts(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        session: &SessionOpts,
    ) -> Result<(AnalyzedQuery, CacheOutcome)> {
        let knobs = self.knobs(session);
        let _permit = self.admit(&knobs)?;
        let cat = rlock(&self.catalog);
        let digest = token_digest(sql);
        let version = cat.version();
        let mut outcome = CacheOutcome::Miss;
        let mut reopt: Option<Vec<CardOverrides>> = None;
        if let Some(d) = &digest {
            let key = CacheKey {
                fingerprint: d.fingerprint,
                dop: knobs.dop,
                parallel_threshold: knobs.parallel_threshold,
                order_opt: knobs.order_opt,
            };
            match self.plan_cache.lookup(&key, version) {
                Lookup::Hit(entry) => {
                    let reopt_now = knobs
                        .reopt_q_threshold
                        .is_some_and(|t| self.feedback.should_reopt(d.fingerprint, t));
                    if reopt_now {
                        self.plan_cache.discard_reopt(&key);
                        reopt = self.feedback.begin_reopt(d.fingerprint);
                        outcome = CacheOutcome::Reoptimized;
                    } else {
                        let mut planned = entry.planned();
                        if rebind_planned(&mut planned, &d.binds).is_ok() {
                            let analyzed = self.analyze_governed(&cat, &planned, opt, &knobs)?;
                            self.fold_observations(d.fingerprint, &planned, &analyzed);
                            return Ok((analyzed, CacheOutcome::Hit));
                        }
                        drop(planned);
                        self.plan_cache.discard(&key);
                        outcome = CacheOutcome::Invalidated;
                    }
                }
                Lookup::Invalidated => outcome = CacheOutcome::Invalidated,
                Lookup::Miss => {}
            }
        }
        let stmt = parse_select_text(sql)?;
        let p = parameterize(&stmt);
        let planned = self.plan_select_knobs(&cat, &p.stmt, opt, reopt.as_deref(), &knobs)?;
        if reopt.is_some() {
            opt.note_reoptimized();
        }
        let analyzed = self.analyze_governed(&cat, &planned, opt, &knobs)?;
        if let Some(d) = digest {
            self.fold_observations(d.fingerprint, &planned, &analyzed);
            if d.binds == p.binds {
                let key = CacheKey {
                    fingerprint: d.fingerprint,
                    dop: knobs.dop,
                    parallel_threshold: knobs.parallel_threshold,
                    order_opt: knobs.order_opt,
                };
                // A static compile that ran lock-free must not clobber a
                // concurrently re-optimized entry (see
                // `PlanCache::has_reopt_entry`); a re-optimized compile
                // always wins.
                if reopt.is_some() || !self.plan_cache.has_reopt_entry(&key, version) {
                    self.plan_cache.insert(&key, version, opt.name(), planned);
                }
            }
        }
        Ok((analyzed, outcome))
    }

    /// Fold one instrumented execution into the feedback store, slicing the
    /// concatenated annotations back into per-branch runs (each branch's
    /// annotation count equals its plan's pre-order node count — `annotate`
    /// walks the same order, and the executed clone shares the cached
    /// plan's structure).
    fn fold_observations(
        &self,
        fingerprint: u64,
        planned: &PlannedQuery,
        analyzed: &AnalyzedQuery,
    ) {
        let mut folds = Vec::with_capacity(planned.branches.len());
        let mut off = 0usize;
        for b in &planned.branches {
            let n = count_nodes(&b.plan);
            let slice = analyzed.nodes.get(off..off + n).unwrap_or(&[]);
            folds.push(fold_plan(&b.plan, slice));
            off += n;
        }
        self.feedback.record(fingerprint, folds, worst_q(&analyzed.nodes));
    }

    /// Execute a planned query with observation enabled and render the
    /// annotated EXPLAIN ANALYZE tree. Mirrors [`Engine::execute_planned`]
    /// — same execution path, plus an [`ObserverIndex`] installed over each
    /// branch's plan instance — so results are identical to an
    /// uninstrumented run.
    pub fn analyze_planned(&self, planned: &PlannedQuery) -> Result<AnalyzedQuery> {
        let cat = rlock(&self.catalog);
        self.analyze_branches(&cat, planned, None, self.morsel_rows.load(Ordering::Relaxed))
    }

    fn analyze_branches(
        &self,
        cat: &Catalog,
        planned: &PlannedQuery,
        governor: Option<&Arc<QueryGovernor>>,
        morsel_rows: usize,
    ) -> Result<AnalyzedQuery> {
        let mut rows: Vec<Row> = Vec::new();
        let mut work = 0u64;
        let mut critical = 0u64;
        let mut text = String::new();
        let mut nodes: Vec<NodeAnnotation> = Vec::new();
        for (i, b) in planned.branches.iter().enumerate() {
            let mut plan = b.plan.clone();
            let slots = plan.assign_cache_slots();
            // The index keys nodes by address, so it must be built over the
            // exact tree we execute (`plan` is not moved afterwards).
            let index = Arc::new(ObserverIndex::new(&plan));
            let mut ctx = ExecContext::new(cat, b.bound.num_tables(), slots);
            ctx.set_morsel_rows(morsel_rows);
            ctx.set_observer(Arc::clone(&index));
            if let Some(g) = governor {
                ctx.set_governor(g.clone());
            }
            let branch_rows = execute(&plan, &ctx)?;
            work += ctx.stats.work_units();
            critical += ctx.stats.critical_path_work();
            let observed = ctx.stats.nodes.borrow();
            let ann = annotate(&plan, &index, &observed);
            if i > 0 {
                text.push_str(&format!("UNION {}\n", if b.all { "ALL" } else { "DISTINCT" }));
            }
            text.push_str(&explain_plan_analyzed(&plan, &b.bound, cat, &b.skeleton, &ann));
            nodes.extend(ann);
            if i == 0 {
                rows = branch_rows;
            } else {
                rows.extend(branch_rows);
                if !b.all {
                    let mut seen = std::collections::HashSet::new();
                    rows.retain(|r| seen.insert(r.clone()));
                }
            }
        }
        Ok(AnalyzedQuery {
            output: QueryOutput {
                columns: planned.columns.clone(),
                rows,
                work_units: work,
                critical_work_units: critical,
            },
            text,
            nodes,
        })
    }

    fn run_select(&self, stmt: &SelectStmt, opt: &dyn CostBasedOptimizer) -> Result<QueryOutput> {
        let knobs = self.knobs(&SessionOpts::default());
        let _permit = self.admit(&knobs)?;
        let cat = rlock(&self.catalog);
        let planned = self.plan_select_knobs(&cat, stmt, opt, None, &knobs)?;
        self.governed_execute(&cat, &planned, opt, &knobs)
    }

    /// `INSERT ... VALUES`: evaluate the rows, then append them under the
    /// catalog write lock. [`Catalog::insert`] takes all rows or none,
    /// maintains the indexes in place and keeps the catalog version, so
    /// cached plans stay valid (unless the append triggers an automatic
    /// re-ANALYZE).
    fn execute_insert(
        &self,
        table: &str,
        rows: Vec<Vec<taurus_sql::AstExpr>>,
    ) -> Result<QueryOutput> {
        let layout = Layout::empty(0);
        let mut materialized: Vec<Row> = Vec::with_capacity(rows.len());
        for row in rows {
            let mut out = Vec::with_capacity(row.len());
            for e in row {
                // INSERT values are constant expressions.
                let bound = ast_const_to_value(&e, &layout)?;
                out.push(bound);
            }
            materialized.push(out);
        }
        let n = materialized.len();
        // Values materialized; the write lock drains in-flight serves, so
        // no serve sees a half-applied statement.
        self.with_catalog_mut(|cat| -> Result<()> {
            let id = cat.table_by_name(table)?.id;
            cat.insert(id, materialized)
        })?;
        Ok(QueryOutput {
            columns: vec!["rows_inserted".into()],
            rows: vec![vec![Value::Int(n as i64)]],
            work_units: n as u64,
            critical_work_units: n as u64,
        })
    }
}

/// RAII admission slot: releasing it wakes one queued caller.
struct AdmissionPermit<'a> {
    engine: &'a Engine,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.engine.admitted.fetch_sub(1, Ordering::SeqCst);
        if self.engine.admission_waiters.load(Ordering::SeqCst) > 0 {
            // Lock the waiter mutex so the notify cannot land between a
            // waiter's failed re-check and its park (the classic lost
            // wake-up); see `Engine::admit`.
            let _parked = lock(&self.engine.admission_mu);
            self.engine.admission_cv.notify_one();
        }
    }
}

/// The memory degradation rung: a copy of the plan with every exchange
/// forced to dop=1, so it executes serially (no repartition phase buffers,
/// no worker fan-out). Rewriting the *executed* plan — rather than
/// re-refining from the bound statement — keeps any in-place parameter
/// rebinds a cached serve applied.
fn degrade_serial(planned: &PlannedQuery) -> PlannedQuery {
    fn force_serial(plan: &mut Plan) {
        if let Plan::Exchange { dop, .. } = plan {
            *dop = 1;
        }
        for child in plan.children_mut() {
            force_serial(child);
        }
    }
    let mut serial = planned.clone();
    for b in &mut serial.branches {
        force_serial(&mut b.plan);
    }
    serial
}

/// Report a governance failure to the optimizer that planned the statement.
/// Non-governance errors are the statement's own business and stay unnoted.
fn note_governed_error(opt: &dyn CostBasedOptimizer, e: &Error) {
    let outcome = match e {
        Error::Cancelled => GovernedOutcome::Cancelled,
        Error::DeadlineExceeded { .. } => GovernedOutcome::DeadlineExceeded,
        Error::MemoryExceeded { .. } => GovernedOutcome::MemoryExceeded,
        _ => return,
    };
    opt.note_governed(outcome);
}

/// Re-bind a cached plan's parameters to a new statement's literal values.
/// Only the executable plans need it — `bound`/`skeleton` are kept for
/// EXPLAIN, where the `$n` markers render instead of stale values.
fn rebind_planned(planned: &mut PlannedQuery, binds: &[Value]) -> Result<()> {
    let mut err: Option<Error> = None;
    for b in &mut planned.branches {
        b.plan.for_each_expr_mut(&mut |e| {
            if err.is_none() {
                if let Err(x) = e.rebind_params(binds) {
                    err = Some(x);
                }
            }
        });
    }
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// What [`Engine::serve_cached_knobs`] did with a statement.
enum Served<R> {
    /// A SELECT, served to the caller's closure.
    Select(R, CacheOutcome),
    /// An INSERT, parsed but not run: it needs the catalog write lock.
    Insert { table: String, rows: Vec<Vec<taurus_sql::AstExpr>> },
}

impl<R> Served<R> {
    /// The SELECT result, for entry points that serve nothing else.
    fn select(self) -> Result<(R, CacheOutcome)> {
        match self {
            Served::Select(r, outcome) => Ok((r, outcome)),
            Served::Insert { .. } => Err(Error::semantic("expected SELECT, got INSERT")),
        }
    }
}

fn parse_select_text(sql: &str) -> Result<SelectStmt> {
    match parse(sql)? {
        Statement::Select(s) => Ok(s),
        other => Err(Error::semantic(format!("expected SELECT, got {other:?}"))),
    }
}

/// Evaluate a constant INSERT expression.
fn ast_const_to_value(e: &taurus_sql::AstExpr, layout: &Layout) -> Result<Value> {
    use taurus_sql::AstExpr as A;
    let expr = match e {
        A::Lit(v) => taurus_common::Expr::Literal(v.clone()),
        A::Neg(inner) => return ast_const_to_value(inner, layout)?.neg(),
        other => {
            return Err(Error::semantic(format!("INSERT values must be literals, got {other:?}")))
        }
    };
    expr.eval(EvalCtx::new(&[], layout))
}
#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{Column, DataType, Schema};

    fn engine() -> Engine {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(
                "emp",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::nullable("dept", DataType::Int),
                    Column::new("salary", DataType::Int),
                ]),
            )
            .unwrap();
        cat.insert(
            t,
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(2), Value::Int(10), Value::Int(200)],
                vec![Value::Int(3), Value::Int(20), Value::Int(300)],
                vec![Value::Int(4), Value::Null, Value::Int(50)],
            ],
        )
        .unwrap();
        cat.create_index(t, "emp_pk", vec![0], true).unwrap();
        let d = cat
            .create_table(
                "dept",
                Schema::new(vec![
                    Column::new("did", DataType::Int),
                    Column::new("dname", DataType::Str),
                ]),
            )
            .unwrap();
        cat.insert(
            d,
            vec![vec![Value::Int(10), Value::str("eng")], vec![Value::Int(20), Value::str("ops")]],
        )
        .unwrap();
        cat.create_index(d, "dept_pk", vec![0], true).unwrap();
        let mut e = Engine::new(cat);
        e.analyze();
        e
    }

    fn ints(out: &QueryOutput, col: usize) -> Vec<i64> {
        out.rows.iter().map(|r| r[col].as_i64().unwrap()).collect()
    }

    #[test]
    fn select_filter_order_limit() {
        let e = engine();
        let out = e
            .query("SELECT id, salary FROM emp WHERE salary > 60 ORDER BY salary DESC LIMIT 2")
            .unwrap();
        assert_eq!(out.columns, vec!["id", "salary"]);
        assert_eq!(ints(&out, 1), vec![300, 200]);
        assert!(out.work_units > 0);
    }

    #[test]
    fn join_query() {
        let e = engine();
        let out = e.query("SELECT id, dname FROM emp, dept WHERE dept = did ORDER BY id").unwrap();
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.rows[0][1], Value::str("eng"));
    }

    #[test]
    fn group_by_having() {
        let e = engine();
        let out = e
            .query(
                "SELECT dept, COUNT(*) AS n, SUM(salary) AS total FROM emp \
                 GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(ints(&out, 1), vec![2]);
        assert_eq!(ints(&out, 2), vec![300]);
    }

    #[test]
    fn scalar_aggregate() {
        let e = engine();
        let out = e.query("SELECT COUNT(*), AVG(salary) FROM emp").unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::Int(4));
    }

    #[test]
    fn exists_semi_join() {
        let e = engine();
        let out = e
            .query(
                "SELECT dname FROM dept WHERE EXISTS \
                 (SELECT * FROM emp WHERE dept = did AND salary > 250) ORDER BY dname",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::str("ops"));
    }

    #[test]
    fn not_in_anti_join_null_semantics() {
        let e = engine();
        // dept values include NULL -> NOT IN filters everything when the
        // subquery contains no NULLs but the probe is NULL.
        let out = e
            .query("SELECT id FROM emp WHERE dept NOT IN (SELECT did FROM dept) ORDER BY id")
            .unwrap();
        // emp 4's NULL dept: membership UNKNOWN -> excluded.
        assert_eq!(out.rows.len(), 0);
    }

    #[test]
    fn scalar_subquery_correlated() {
        let e = engine();
        // Employees earning above their department average.
        let out = e
            .query(
                "SELECT id FROM emp e1 WHERE salary > \
                 (SELECT AVG(salary) FROM emp e2 WHERE e2.dept = e1.dept) ORDER BY id",
            )
            .unwrap();
        assert_eq!(ints(&out, 0), vec![2]);
    }

    #[test]
    fn left_join_preserved_and_where_filter() {
        let e = engine();
        let out =
            e.query("SELECT id, dname FROM emp LEFT JOIN dept ON dept = did ORDER BY id").unwrap();
        assert_eq!(out.rows.len(), 4);
        assert!(out.rows[3][1].is_null());
    }

    #[test]
    fn distinct_and_union() {
        let e = engine();
        let out = e.query("SELECT DISTINCT dept FROM emp ORDER BY dept").unwrap();
        assert_eq!(out.rows.len(), 3); // NULL, 10, 20
        let out = e
            .query("SELECT id FROM emp WHERE id < 2 UNION ALL SELECT id FROM emp WHERE id < 3")
            .unwrap();
        assert_eq!(out.rows.len(), 3);
        let out = e
            .query("SELECT id FROM emp WHERE id < 2 UNION SELECT id FROM emp WHERE id < 3")
            .unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn intersect_auto_rewrites() {
        let e = engine();
        let out = e
            .query("SELECT dept FROM emp WHERE salary > 150 INTERSECT SELECT dept FROM emp")
            .unwrap();
        // depts with salary > 150: {10, 20}; intersect with all: {10, 20}.
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn insert_and_query() {
        let mut e = engine();
        let out = e.execute_sql("INSERT INTO dept VALUES (30, 'hr')").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(1));
        let q = e.query("SELECT dname FROM dept WHERE did = 30").unwrap();
        assert_eq!(q.rows[0][0], Value::str("hr"));
    }

    #[test]
    fn failed_multi_row_insert_changes_nothing() {
        let e = engine();
        let version = e.catalog().version();
        let err = e.execute_sql_shared("INSERT INTO dept VALUES (30, 'hr'), ('x', 'y')");
        assert!(matches!(err, Err(Error::Semantic(_))), "{err:?}");
        let count = e.query("SELECT COUNT(*) FROM dept").unwrap();
        assert_eq!(count.rows, vec![vec![Value::Int(2)]], "the valid prefix is not kept");
        assert!(e.query("SELECT dname FROM dept WHERE did = 30").unwrap().rows.is_empty());
        assert_eq!(e.catalog().version(), version);
        // The same statement, corrected, lands in the heap and the index.
        e.execute_sql_shared("INSERT INTO dept VALUES (30, 'hr'), (40, 'it')").unwrap();
        let q = e.query("SELECT dname FROM dept WHERE did = 30").unwrap();
        assert_eq!(q.rows, vec![vec![Value::str("hr")]]);
        // Two rows onto two drift the statistics past 10%: one re-ANALYZE.
        let cat = e.catalog();
        assert_eq!(cat.version(), version + 1);
        assert_eq!(cat.table_by_name("dept").unwrap().stats.as_ref().unwrap().row_count, 4);
    }

    #[test]
    fn insert_enforces_unique_indexes() {
        let e = engine();
        match e.execute_sql_shared("INSERT INTO dept VALUES (10, 'dup')") {
            Err(Error::Semantic(msg)) => {
                assert!(msg.contains("dept_pk") && msg.contains("(10)"), "{msg}")
            }
            other => panic!("expected a unique-key error, got {other:?}"),
        }
        // A duplicate within one statement conflicts as well.
        assert!(e.execute_sql_shared("INSERT INTO dept VALUES (50, 'a'), (50, 'b')").is_err());
        let q = e.query("SELECT dname FROM dept WHERE did = 10").unwrap();
        assert_eq!(q.rows, vec![vec![Value::str("eng")]]);
        assert!(e.query("SELECT did FROM dept WHERE did = 50").unwrap().rows.is_empty());
        // Non-unique columns take duplicates and NULLs.
        e.execute_sql_shared("INSERT INTO emp VALUES (5, 10, 100), (6, NULL, 100)").unwrap();
        let q = e.query("SELECT COUNT(*) FROM emp WHERE salary = 100").unwrap();
        assert_eq!(q.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn explain_shows_banner_and_tree() {
        let e = engine();
        let text =
            e.explain("SELECT id, dname FROM emp, dept WHERE dept = did", &MySqlOptimizer).unwrap();
        assert!(text.starts_with("EXPLAIN\n"), "{text}");
        assert!(text.contains("join"), "{text}");
        assert!(text.contains("emp"), "{text}");
    }

    #[test]
    fn case_expression_query() {
        let e = engine();
        let out = e
            .query(
                "SELECT id, CASE WHEN salary >= 200 THEN 'high' ELSE 'low' END AS band \
                 FROM emp ORDER BY id",
            )
            .unwrap();
        assert_eq!(out.rows[0][1], Value::str("low"));
        assert_eq!(out.rows[1][1], Value::str("high"));
    }

    #[test]
    fn order_by_hidden_column() {
        let e = engine();
        let out = e.query("SELECT id FROM emp ORDER BY salary DESC").unwrap();
        assert_eq!(ints(&out, 0), vec![3, 2, 1, 4]);
        assert_eq!(out.rows[0].len(), 1, "hidden sort column trimmed");
    }

    #[test]
    fn derived_table_query() {
        let e = engine();
        let out = e
            .query(
                "SELECT d, total FROM (SELECT dept AS d, SUM(salary) AS total FROM emp \
                 WHERE dept IS NOT NULL GROUP BY dept) t WHERE total > 250 ORDER BY d",
            )
            .unwrap();
        assert_eq!(ints(&out, 0), vec![10, 20]);
    }

    #[test]
    fn index_scan_supplies_order_and_skips_sort() {
        // §2.2/§7 item 4: ORDER BY on an indexed column uses the ordered
        // index scan and elides the sort.
        let e = engine();
        let text =
            e.explain("SELECT id, salary FROM emp ORDER BY id LIMIT 3", &MySqlOptimizer).unwrap();
        assert!(text.contains("Index scan on emp"), "{text}");
        assert!(!text.contains("Sort:"), "{text}");
        let out = e.query("SELECT id, salary FROM emp ORDER BY id LIMIT 3").unwrap();
        assert_eq!(ints(&out, 0), vec![1, 2, 3]);
        // An unindexed ORDER BY column still sorts.
        let text = e.explain("SELECT id FROM emp ORDER BY salary", &MySqlOptimizer).unwrap();
        assert!(text.contains("Sort:"), "{text}");
        // Descending order cannot come from the index either.
        let text = e.explain("SELECT id FROM emp ORDER BY id DESC", &MySqlOptimizer).unwrap();
        assert!(text.contains("Sort:"), "{text}");
    }

    #[test]
    fn aggregate_in_order_by() {
        let e = engine();
        let out = e
            .query(
                "SELECT dept FROM emp WHERE dept IS NOT NULL GROUP BY dept \
                 ORDER BY SUM(salary) DESC",
            )
            .unwrap();
        assert_eq!(ints(&out, 0), vec![10, 20]);
    }

    #[test]
    fn plan_cache_hit_rebinds_new_literals() {
        let e = engine();
        let sql_a = "SELECT id FROM emp WHERE salary > 60 ORDER BY id";
        let sql_b = "SELECT id FROM emp WHERE salary > 250 ORDER BY id";
        let (_, out) = e.plan_cached(sql_a, &MySqlOptimizer).unwrap();
        assert_eq!(out, CacheOutcome::Miss);
        let a = e.query_cached(sql_a, &MySqlOptimizer).unwrap();
        assert_eq!(ints(&a, 0), vec![1, 2, 3]);
        // Same fingerprint, different literal: served from cache, re-bound.
        let (_, out) = e.plan_cached(sql_b, &MySqlOptimizer).unwrap();
        assert_eq!(out, CacheOutcome::Hit);
        let b = e.query_cached(sql_b, &MySqlOptimizer).unwrap();
        assert_eq!(ints(&b, 0), vec![3]);
        assert_eq!(e.plan_cache_len(), 1, "one entry serves both literals");
        // The cached results match a cold compile of the same statements.
        assert_eq!(b.rows, e.query(sql_b).unwrap().rows);
        let s = e.plan_cache_stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (3, 1, 0));
    }

    #[test]
    fn plan_cache_rebinds_index_range_bounds() {
        // The pk index range is driven by the literal: rebinding must reach
        // the IndexRange lo/hi, not just Filter predicates.
        let e = engine();
        let a = e.query_cached("SELECT salary FROM emp WHERE id = 1", &MySqlOptimizer).unwrap();
        assert_eq!(ints(&a, 0), vec![100]);
        let b = e.query_cached("SELECT salary FROM emp WHERE id = 3", &MySqlOptimizer).unwrap();
        assert_eq!(ints(&b, 0), vec![300]);
        assert_eq!(e.plan_cache_stats().hits, 1);
    }

    #[test]
    fn rebind_type_mismatch_discards_and_recompiles() {
        // Differently-typed literals hash to different fingerprints, so a
        // cached plan should never legitimately see binds of another type
        // class. If one ever does (here: an entry planted under the wrong
        // shape's fingerprint), the rebind must refuse and the serve path
        // must recompile — not serve the stale plan, not fail the query.
        let e = engine();
        let sql_int = "SELECT salary FROM emp WHERE id = 2";
        let sql_str = "SELECT salary FROM emp WHERE id = 'two'";
        let (planned, _) = e.plan_cached(sql_int, &MySqlOptimizer).unwrap();
        let poisoned_fp = token_digest(sql_str).unwrap().fingerprint;
        let poisoned_key = CacheKey {
            fingerprint: poisoned_fp,
            dop: e.dop(),
            parallel_threshold: e.parallel_threshold.load(Ordering::Relaxed),
            order_opt: true,
        };
        e.plan_cache.insert(&poisoned_key, e.catalog().version(), "mysql", planned);
        let before = e.plan_cache_stats();
        // The Str-literal query hits the poisoned Int-peeked entry; the
        // type-class check rejects the rebind and a fresh compile serves.
        let out = e.query_cached(sql_str, &MySqlOptimizer).unwrap();
        assert_eq!(out.rows.len(), 0, "recompiled plan answers the actual query");
        let after = e.plan_cache_stats();
        assert_eq!(after.invalidations, before.invalidations + 1, "hit reclassified");
        assert_eq!(after.hits, before.hits, "a refused rebind is not a serve");
        // The poisoned entry is gone: the shape recompiled and re-cached.
        let (_, outcome) = e.plan_cached(sql_str, &MySqlOptimizer).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit, "fresh entry serves the shape now");
    }

    #[test]
    fn ddl_invalidates_cached_plans() {
        let mut e = engine();
        let sql = "SELECT id FROM emp WHERE salary > 60";
        e.query_cached(sql, &MySqlOptimizer).unwrap();
        let (_, out) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
        assert_eq!(out, CacheOutcome::Hit);
        // ANALYZE publishes new statistics -> version bump -> stale entry.
        e.analyze();
        let (_, out) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
        assert_eq!(out, CacheOutcome::Invalidated);
        let (_, out) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
        assert_eq!(out, CacheOutcome::Hit, "re-inserted under the new version");
        let s = e.plan_cache_stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (2, 1, 1));
    }

    #[test]
    fn explain_cached_banner_shows_outcome() {
        let e = engine();
        let sql = "SELECT id, dname FROM emp, dept WHERE dept = did";
        let text = e.explain_cached(sql, &MySqlOptimizer).unwrap();
        assert!(text.starts_with("EXPLAIN [plan cache: miss]\n"), "{text}");
        let text = e.explain_cached(sql, &MySqlOptimizer).unwrap();
        assert!(text.starts_with("EXPLAIN [plan cache: hit]\n"), "{text}");
        assert!(text.contains("join"), "{text}");
    }

    // The whole point of the Mutex/atomic migration: one engine, many
    // session threads.
    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    };

    /// A wider emp table so the parallel threshold can be crossed.
    fn big_engine(rows: i64) -> Engine {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(
                "emp",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("dept", DataType::Int),
                    Column::new("salary", DataType::Int),
                ]),
            )
            .unwrap();
        cat.insert(
            t,
            (0..rows)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Int(i * 13 % 1000)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut e = Engine::new(cat);
        e.analyze();
        e
    }

    #[test]
    fn parallel_query_matches_serial_and_shortens_critical_path() {
        let e = big_engine(5000);
        let sql = "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp \
                   WHERE salary < 900 GROUP BY dept ORDER BY dept";
        let serial = e.query(sql).unwrap();
        e.set_dop(4);
        e.set_morsel_rows(512);
        let parallel = e.query(sql).unwrap();
        assert_eq!(serial.rows, parallel.rows, "parallel results must be identical");
        assert!(
            parallel.critical_work_units < serial.work_units,
            "critical path {} should shrink below serial work {}",
            parallel.critical_work_units,
            serial.work_units
        );
        assert_eq!(serial.critical_work_units, serial.work_units, "serial has no parallelism");
    }

    #[test]
    fn explain_shows_exchange_and_dop_only_when_parallel() {
        let e = big_engine(3000);
        let sql = "SELECT id FROM emp WHERE salary > 500";
        let text = e.explain(sql, &MySqlOptimizer).unwrap();
        assert!(!text.contains("dop="), "serial EXPLAIN unchanged: {text}");
        e.set_dop(4);
        let text = e.explain(sql, &MySqlOptimizer).unwrap();
        assert!(text.contains("Exchange (gather, dop=4)"), "{text}");
        assert!(text.contains("dop=4)"), "{text}");
    }

    #[test]
    fn small_tables_stay_serial_under_dop() {
        let e = engine();
        e.set_dop(8);
        let text = e.explain("SELECT id FROM emp", &MySqlOptimizer).unwrap();
        assert!(!text.contains("Exchange"), "4-row table below threshold: {text}");
        let out = e.query("SELECT id FROM emp ORDER BY id").unwrap();
        assert_eq!(ints(&out, 0), vec![1, 2, 3, 4]);
    }

    #[test]
    fn set_dop_invalidates_cached_plans() {
        let e = big_engine(3000);
        let sql = "SELECT id FROM emp WHERE salary > 500";
        e.query_cached(sql, &MySqlOptimizer).unwrap();
        assert_eq!(e.plan_cache_len(), 1);
        e.set_dop(4);
        assert_eq!(e.plan_cache_len(), 0, "dop change drops serial plans");
        let (planned, _) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
        let has_exchange = format!("{:?}", planned.primary().plan).contains("Exchange");
        assert!(has_exchange, "recompiled plan is parallel");
    }

    #[test]
    fn concurrent_sessions_share_engine_and_plan_cache() {
        let e = std::sync::Arc::new(big_engine(3000));
        e.set_dop(2);
        // Prime the cache so every session thread hits the shared entry.
        let expected = e
            .query_cached(
                "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept",
                &MySqlOptimizer,
            )
            .unwrap()
            .rows;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let e = e.clone();
                let expected = expected.clone();
                s.spawn(move || {
                    for _ in 0..5 {
                        let out = e
                            .query_cached(
                                "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept",
                                &MySqlOptimizer,
                            )
                            .unwrap();
                        assert_eq!(out.rows, expected);
                    }
                });
            }
        });
        let s = e.plan_cache_stats();
        assert_eq!(s.hits, 20, "every threaded run hits the primed entry: {s:?}");
        assert_eq!(e.plan_cache_len(), 1);
    }

    #[test]
    fn structurally_different_statements_do_not_collide() {
        let e = engine();
        e.query_cached("SELECT id FROM emp WHERE salary > 60", &MySqlOptimizer).unwrap();
        e.query_cached("SELECT id FROM emp WHERE salary > 60 AND dept = 10", &MySqlOptimizer)
            .unwrap();
        e.query_cached("SELECT dept FROM emp WHERE salary > 60", &MySqlOptimizer).unwrap();
        assert_eq!(e.plan_cache_len(), 3);
        assert_eq!(e.plan_cache_stats().hits, 0);
    }

    #[test]
    fn explain_analyze_annotates_every_operator() {
        let e = engine();
        let sql = "SELECT id, salary FROM emp WHERE salary > 60 ORDER BY salary DESC LIMIT 2";
        let plain = e.query(sql).unwrap();
        let analyzed = e.explain_analyze(sql, &MySqlOptimizer).unwrap();
        assert_eq!(analyzed.output.rows, plain.rows, "observation must not change results");
        assert!(analyzed.text.starts_with("EXPLAIN ANALYZE\n"), "{}", analyzed.text);
        // Every operator line carries actuals (or a never-executed marker).
        for line in analyzed.text.lines().skip(1) {
            assert!(
                line.contains("actual rows=") || line.contains("(never executed)"),
                "unannotated line: {line}"
            );
        }
        assert!(analyzed.text.contains("q-error="), "{}", analyzed.text);
        // Limit 2 over 3 qualifying rows: the root actually returns 2.
        assert_eq!(analyzed.nodes[0].actual_rows, 2);
        assert!(!analyzed.nodes.is_empty());
        for n in &analyzed.nodes {
            if n.loops > 0 {
                assert!(n.q_error.unwrap() >= 1.0);
            }
        }
    }

    #[test]
    fn explain_analyze_normalizes_lookup_rows_per_probe() {
        let e = engine();
        // emp ⋈ dept via index lookup: the lookup runs once per outer row.
        let sql = "SELECT id, dname FROM emp, dept WHERE dept = did ORDER BY id";
        let analyzed = e.explain_analyze(sql, &MySqlOptimizer).unwrap();
        assert_eq!(analyzed.output.rows.len(), 3);
        if let Some(line) = analyzed.text.lines().find(|l| l.contains("Index lookup on dept")) {
            // 4 probes (one NULL misses): loops=4 and the per-probe actual
            // is under 1, so the est=1 lookup stays well-calibrated.
            assert!(line.contains("loops=4"), "{line}");
        }
        let lookup_q = analyzed
            .nodes
            .iter()
            .filter(|n| n.loops > 1)
            .map(|n| n.q_error.unwrap())
            .fold(1.0f64, f64::max);
        assert!(lookup_q < 5.0, "per-probe normalization keeps q-error small: {lookup_q}");
    }

    #[test]
    fn explain_analyze_parallel_matches_serial_results() {
        let e = big_engine(5000);
        let sql = "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp \
                   WHERE salary < 900 GROUP BY dept ORDER BY dept";
        let serial = e.query(sql).unwrap();
        e.set_dop(4);
        e.set_morsel_rows(512);
        let analyzed = e.explain_analyze(sql, &MySqlOptimizer).unwrap();
        assert_eq!(analyzed.output.rows, serial.rows, "analyze at dop=4 must not perturb results");
        // The aggregate shape parallelizes through a repartition exchange;
        // its actuals must be attributed exactly once despite dop workers.
        let exchange = analyzed
            .text
            .lines()
            .find(|l| l.contains("Exchange (") && l.contains("dop=4"))
            .expect("exchange line");
        assert!(exchange.contains("actual rows="), "{exchange}");
    }

    #[test]
    fn cancel_after_unwinds_cleanly_and_engine_stays_serviceable() {
        let e = engine();
        let sql = "SELECT id, salary FROM emp WHERE salary > 60 ORDER BY salary DESC";
        let expected = e.query(sql).unwrap().rows;
        // Trip the cancel token at the very first governor check.
        e.set_cancel_after(Some(1));
        assert_eq!(e.query(sql).unwrap_err(), Error::Cancelled);
        // The same engine answers the same query once the knob is cleared —
        // no poisoned cache, no stuck state.
        e.set_cancel_after(None);
        assert_eq!(e.query(sql).unwrap().rows, expected);
        assert!(e.in_flight_ids().is_empty(), "no governor left registered");
    }

    #[test]
    fn cancelled_cached_serve_keeps_the_entry_for_the_next_caller() {
        let e = engine();
        let sql = "SELECT id FROM emp WHERE salary > 60 ORDER BY id";
        e.query_cached(sql, &MySqlOptimizer).unwrap();
        assert_eq!(e.plan_cache_len(), 1);
        e.set_cancel_after(Some(1));
        assert_eq!(e.query_cached(sql, &MySqlOptimizer).unwrap_err(), Error::Cancelled);
        e.set_cancel_after(None);
        // The failed serve neither evicted nor corrupted the entry.
        assert_eq!(e.plan_cache_len(), 1);
        let out = e.query_cached(sql, &MySqlOptimizer).unwrap();
        assert_eq!(ints(&out, 0), vec![1, 2, 3]);
    }

    #[test]
    fn deadline_converts_to_typed_error() {
        // The query must both outlive its 1ms budget and pass governor
        // checks while doing so: a correlated subquery re-opens its subtree
        // per outer row, so checks are sprinkled across the whole run.
        let e = big_engine(2000);
        e.set_deadline(Some(Duration::from_millis(1)));
        let slow = "SELECT COUNT(*) FROM emp a WHERE salary > \
                    (SELECT AVG(salary) FROM emp b WHERE b.dept = a.dept)";
        match e.query(slow) {
            Err(Error::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 1),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        e.set_deadline(None);
        assert_eq!(e.query("SELECT COUNT(*) FROM emp").unwrap().rows[0][0], Value::Int(2000));
    }

    #[test]
    fn memory_budget_bounds_peak_and_surfaces_typed_error() {
        let e = engine();
        let sql = "SELECT dept, SUM(salary) FROM emp GROUP BY dept ORDER BY dept";
        e.query(sql).unwrap();
        let unbounded_peak = e.last_peak_bytes();
        assert!(unbounded_peak > 0, "hash aggregate + sort charge memory");
        // A 1-byte budget fails the first charge (serial retry included).
        e.set_memory_budget(Some(1));
        match e.query(sql) {
            Err(Error::MemoryExceeded { used, budget }) => {
                assert_eq!(budget, 1);
                assert!(used > 1);
            }
            other => panic!("expected MemoryExceeded, got {other:?}"),
        }
        assert!(e.last_peak_bytes() <= 1, "peak never exceeds the budget");
        // A generous budget admits the query and tracks the same peak.
        e.set_memory_budget(Some(unbounded_peak * 2));
        assert_eq!(e.query(sql).unwrap().rows.len(), 3);
        assert!(e.last_peak_bytes() <= unbounded_peak * 2);
        e.set_memory_budget(None);
    }

    #[test]
    fn cancel_by_id_stops_a_running_query() {
        let e = std::sync::Arc::new(big_engine(30_000));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            // A canceller thread that spins until it sees the query in
            // flight, then kills it by id.
            let canceller = {
                let e = e.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for id in e.in_flight_ids() {
                            if e.cancel(id) {
                                return;
                            }
                        }
                        std::thread::yield_now();
                    }
                })
            };
            // A correlated self-join: quadratic enough that the canceller
            // always finds it in flight.
            let r =
                e.query("SELECT a.id FROM emp a, emp b WHERE a.salary = b.salary AND a.id < b.id");
            stop.store(true, Ordering::Relaxed);
            canceller.join().unwrap();
            if let Err(e) = &r {
                assert_eq!(*e, Error::Cancelled);
            }
        });
        // Either way the engine survived; a fresh query still answers.
        assert_eq!(e.query("SELECT COUNT(*) FROM emp").unwrap().rows[0][0], Value::Int(30_000));
        assert!(e.in_flight_ids().is_empty());
    }

    #[test]
    fn admission_gate_bounds_concurrent_executions() {
        let e = std::sync::Arc::new(big_engine(5000));
        e.set_admission_limit(2);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..3 {
                        let out = e
                            .query("SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept")
                            .unwrap();
                        assert_eq!(out.rows.len(), 7);
                        // The registry only ever holds admitted queries, so
                        // a sample mid-storm can never exceed the limit.
                        assert!(e.in_flight_ids().len() <= 2, "admission limit violated");
                    }
                });
            }
        });
        // Nothing deadlocked, every caller answered, and the gate drained.
        assert!(e.in_flight_ids().is_empty());
        e.set_admission_limit(usize::MAX);
    }

    #[test]
    fn memory_degradation_rung_retries_parallel_plans_serially() {
        struct CountingOpt(std::sync::atomic::AtomicUsize);
        impl CostBasedOptimizer for CountingOpt {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn optimize(&self, catalog: &Catalog, bound: &BoundStatement) -> Result<Skeleton> {
                optimize_statement(catalog, bound)
            }
            fn note_governed(&self, outcome: GovernedOutcome) {
                if outcome == GovernedOutcome::MemoryDegraded {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let e = big_engine(5000);
        e.set_dop(4);
        e.set_morsel_rows(256);
        // A grouped aggregate: at dop=4 the repartition exchange buffers
        // every partition while phase 2 runs, charging memory the serial
        // plan never holds at once.
        let sql = "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp \
                   WHERE salary < 900 GROUP BY dept ORDER BY dept";
        let opt = CountingOpt(std::sync::atomic::AtomicUsize::new(0));
        let expected = e.query_with(sql, &opt).unwrap().rows;
        let parallel_peak = e.last_peak_bytes();
        e.set_dop(1);
        e.query_with(sql, &opt).unwrap();
        let serial_peak = e.last_peak_bytes();
        e.set_dop(4);
        assert!(
            serial_peak < parallel_peak,
            "premise: the parallel sort-merge buffers charge more \
             (serial {serial_peak} vs parallel {parallel_peak})"
        );
        // A budget between the two peaks: the dop=4 attempt must exceed it
        // and the serial retry must fit — the caller sees a normal answer.
        e.set_memory_budget(Some((serial_peak + parallel_peak) / 2));
        let out = e.query_with(sql, &opt).unwrap();
        assert_eq!(out.rows, expected, "degraded retry answers identically");
        assert_eq!(opt.0.load(Ordering::Relaxed), 1, "one degraded outcome noted");
        e.set_memory_budget(None);
    }

    #[test]
    fn explain_analyze_union_annotates_all_branches() {
        let e = engine();
        let analyzed = e
            .explain_analyze(
                "SELECT id FROM emp WHERE salary > 250 UNION SELECT did FROM dept",
                &MySqlOptimizer,
            )
            .unwrap();
        assert_eq!(analyzed.output.rows.len(), 3, "{:?}", analyzed.output.rows);
        assert!(analyzed.text.contains("UNION DISTINCT\n"), "{}", analyzed.text);
        let banners = analyzed.text.lines().filter(|l| l.starts_with("EXPLAIN ANALYZE")).count();
        assert_eq!(banners, 2, "one banner per branch: {}", analyzed.text);
    }

    #[test]
    fn queued_admission_respects_the_deadline() {
        let e = engine();
        e.set_admission_limit(1);
        // Occupy the only slot directly, then watch a deadline-bounded
        // caller time out in the queue instead of parking forever.
        let slot = e.admit(&e.knobs(&SessionOpts::default())).unwrap();
        let session = SessionOpts { deadline_ms: Some(30), ..SessionOpts::default() };
        let t0 = Instant::now();
        match e.query_cached_opts("SELECT id FROM emp", &MySqlOptimizer, &session) {
            Err(Error::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 30),
            other => panic!("expected DeadlineExceeded from the admission queue, got {other:?}"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(30), "waited out the budget");
        drop(slot);
        // With the slot free the same session admits and answers.
        let (out, _) =
            e.query_cached_opts("SELECT id FROM emp", &MySqlOptimizer, &session).unwrap();
        assert_eq!(out.rows.len(), 4);
        e.set_admission_limit(usize::MAX);
    }

    #[test]
    fn per_session_knobs_layer_over_engine_defaults() {
        let e = big_engine(3000);
        let sql = "SELECT id FROM emp WHERE salary > 500";
        // Engine default dop=1: the session override plans a parallel copy
        // without touching the engine knob or other sessions' entries.
        let (serial, _) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
        assert!(!format!("{:?}", serial.primary().plan).contains("Exchange"));
        let session = SessionOpts { dop: Some(4), ..SessionOpts::default() };
        let (parallel, out) = e.plan_cached_opts(sql, &MySqlOptimizer, &session).unwrap();
        assert_eq!(out, CacheOutcome::Miss, "session knobs are part of the cache key");
        assert!(format!("{:?}", parallel.primary().plan).contains("Exchange"));
        assert_eq!(e.plan_cache_len(), 2, "both knob variants coexist");
        // Each variant hits its own entry on the next serve.
        assert_eq!(e.plan_cached(sql, &MySqlOptimizer).unwrap().1, CacheOutcome::Hit);
        assert_eq!(
            e.plan_cached_opts(sql, &MySqlOptimizer, &session).unwrap().1,
            CacheOutcome::Hit
        );
        // And results agree regardless of the session's dop.
        let ordered = "SELECT id FROM emp WHERE salary > 500 ORDER BY id";
        let (a, _) = e.query_cached_opts(ordered, &MySqlOptimizer, &session).unwrap();
        assert_eq!(a.rows, e.query_cached(ordered, &MySqlOptimizer).unwrap().rows);
    }

    #[test]
    fn session_zero_deadline_disables_the_engine_default() {
        let e = big_engine(2000);
        e.set_deadline(Some(Duration::from_millis(1)));
        let slow = "SELECT COUNT(*) FROM emp a WHERE salary > \
                    (SELECT AVG(salary) FROM emp b WHERE b.dept = a.dept)";
        assert!(matches!(e.query(slow), Err(Error::DeadlineExceeded { .. })));
        // Some(0) means "explicitly no deadline", overriding the default.
        let session = SessionOpts { deadline_ms: Some(0), ..SessionOpts::default() };
        let (out, _) = e.query_cached_opts(slow, &MySqlOptimizer, &session).unwrap();
        assert_eq!(out.rows.len(), 1);
        e.set_deadline(None);
    }
}
