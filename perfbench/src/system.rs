//! The system under test: a TPC-H engine and a TPC-DS engine, each behind
//! its own in-process `taurus-server` with the paper's router, plus one
//! client connection per schema.

use crate::mix::Schema;
use mylite::{CostBasedOptimizer, Engine, PlanCacheStats, SessionOpts};
use orcalite::OrcaConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taurus_bridge::OrcaOptimizer;
use taurus_catalog::Catalog;
use taurus_server::{Client, Server, ServerHandle};
use taurus_workloads::{tpcds, tpch, Scale};

/// The paper's complex-query thresholds (§4.1): Orca takes statements with
/// at least this many table references.
pub const TPCH_THRESHOLD: usize = 3;
pub const TPCDS_THRESHOLD: usize = 2;

/// Threshold of a schema's router.
pub fn threshold(schema: Schema) -> usize {
    match schema {
        Schema::Tpch => TPCH_THRESHOLD,
        Schema::Tpcds => TPCDS_THRESHOLD,
    }
}

/// Both catalogs, generated deterministically at one scale.
pub fn build_catalogs(scale: f64) -> [Catalog; 2] {
    [tpch::build_catalog(Scale(scale)), tpcds::build_catalog(Scale(scale))]
}

/// Both engines with their routers (index = [`Schema::index`]).
pub struct Engines {
    pub engines: [Arc<Engine>; 2],
    pub routers: [Arc<OrcaOptimizer>; 2],
}

impl Engines {
    pub fn new([h, ds]: [Catalog; 2]) -> Engines {
        Engines {
            engines: [Arc::new(Engine::new(h)), Arc::new(Engine::new(ds))],
            routers: [
                Arc::new(OrcaOptimizer::new(OrcaConfig::default(), TPCH_THRESHOLD)),
                Arc::new(OrcaOptimizer::new(OrcaConfig::default(), TPCDS_THRESHOLD)),
            ],
        }
    }

    pub fn engine(&self, schema: Schema) -> &Arc<Engine> {
        &self.engines[schema.index()]
    }

    pub fn router(&self, schema: Schema) -> Arc<dyn CostBasedOptimizer + Send + Sync> {
        self.routers[schema.index()].clone()
    }

    /// Plan-cache counters summed over both engines.
    pub fn cache_stats(&self) -> PlanCacheStats {
        let [a, b] = [self.engines[0].plan_cache_stats(), self.engines[1].plan_cache_stats()];
        PlanCacheStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            invalidations: a.invalidations + b.invalidations,
            insertions: a.insertions + b.insertions,
            evictions: a.evictions + b.evictions,
            reoptimizations: a.reoptimizations + b.reoptimizations,
        }
    }

    /// Statements routed to Orca and Orca fallbacks, summed over both routers.
    pub fn routed_and_fallbacks(&self) -> (u64, u64) {
        let [a, b] = [self.routers[0].stats(), self.routers[1].stats()];
        (a.routed + b.routed, a.fallbacks + b.fallbacks)
    }
}

/// The served system: engines, two servers and one client per schema.
pub struct Served {
    pub engines: Engines,
    pub clients: [Client; 2],
    handles: [ServerHandle; 2],
}

impl Served {
    /// Start one server per engine and connect one client to each. Returns
    /// once both sessions have answered a request, i.e. once the first
    /// connection was accepted and is being served.
    pub fn start(engines: Engines) -> std::io::Result<Served> {
        let start = |s: Schema| Server::start(engines.engine(s).clone(), engines.router(s));
        let handles = [start(Schema::Tpch)?, start(Schema::Tpcds)?];
        let mut clients =
            [Client::connect(handles[0].addr())?, Client::connect(handles[1].addr())?];
        for c in &mut clients {
            // An empty option set: the session answers without changing a knob.
            c.set(&SessionOpts::default()).map_err(std::io::Error::other)?;
        }
        Ok(Served { engines, clients, handles })
    }

    /// Hang up, stop both servers (joining their threads) and hand back the
    /// engines.
    pub fn stop(self) -> Engines {
        let Served { engines, clients, handles } = self;
        for c in clients {
            c.quit();
        }
        for h in handles {
            h.stop();
        }
        engines
    }
}

/// Set up the served system `reps` times (each from scratch, the previous
/// one torn down first) and keep the last. Returns it with the median
/// set-up time: datagen, index builds, `ANALYZE`, server start and the
/// first served connection.
pub fn setup(scale: f64, reps: usize) -> std::io::Result<(Served, Duration)> {
    let mut times = Vec::with_capacity(reps.max(1));
    let mut served: Option<Served> = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = served.take() {
            drop(old.stop());
        }
        let t = Instant::now();
        let s = Served::start(Engines::new(build_catalogs(scale)))?;
        times.push(t.elapsed());
        served = Some(s);
    }
    times.sort();
    let served = served.expect("at least one set-up ran");
    Ok((served, times[times.len() / 2]))
}
