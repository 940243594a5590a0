//! Per-session state and request dispatch.
//!
//! A session is one connection's view of the shared engine: a session id
//! and a [`SessionOpts`] accumulated from `SET` requests. Statements run
//! with their own options layered over the session state, which is itself
//! layered over the engine defaults — the engine resolves the final knob
//! set per statement, so nothing here touches engine-global knobs and
//! sessions cannot perturb each other.

use crate::protocol::{Reply, Request};
use mylite::{CostBasedOptimizer, Engine, SessionOpts};
use std::sync::Arc;
use taurus_common::error::Result;

/// Field-wise layering: `over`'s present fields win, `base` fills the rest.
pub fn layer_opts(base: &SessionOpts, over: &SessionOpts) -> SessionOpts {
    SessionOpts {
        dop: over.dop.or(base.dop),
        morsel_rows: over.morsel_rows.or(base.morsel_rows),
        vectorized: over.vectorized.or(base.vectorized),
        parallel_threshold: over.parallel_threshold.or(base.parallel_threshold),
        order_opt: over.order_opt.or(base.order_opt),
        deadline_ms: over.deadline_ms.or(base.deadline_ms),
        memory_budget: over.memory_budget.or(base.memory_budget),
        reopt_q_threshold: over.reopt_q_threshold.or(base.reopt_q_threshold),
    }
}

/// One connection's session against the shared engine.
pub struct Session {
    id: u64,
    engine: Arc<Engine>,
    optimizer: Arc<dyn CostBasedOptimizer + Send + Sync>,
    opts: SessionOpts,
}

impl Session {
    pub fn new(
        id: u64,
        engine: Arc<Engine>,
        optimizer: Arc<dyn CostBasedOptimizer + Send + Sync>,
    ) -> Session {
        Session { id, engine, optimizer, opts: SessionOpts::default() }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's accumulated `SET` state.
    pub fn opts(&self) -> &SessionOpts {
        &self.opts
    }

    /// Handle one request. `None` means the session asked to close.
    pub fn dispatch(&mut self, req: Request) -> Option<Reply> {
        let reply = match req {
            Request::Query { opts, sql } => self.run_statement(&opts, &sql),
            Request::Explain { opts, sql } => {
                let effective = layer_opts(&self.opts, &opts);
                self.engine
                    .explain_cached_opts(&sql, self.optimizer.as_ref(), &effective)
                    .map(Reply::Text)
            }
            Request::Set { opts } => {
                self.opts = layer_opts(&self.opts, &opts);
                Ok(Reply::Unit)
            }
            Request::Analyze => {
                self.engine.analyze_shared();
                Ok(Reply::Unit)
            }
            Request::Quit => return None,
        };
        Some(reply.unwrap_or_else(Reply::Err))
    }

    fn run_statement(&self, opts: &SessionOpts, sql: &str) -> Result<Reply> {
        let effective = layer_opts(&self.opts, opts);
        // One entry point for both statement kinds: a SELECT is served
        // through the plan cache; an INSERT is recognised by the parse on
        // the cache's miss path and runs uncached under the catalog write
        // lock, leaving the cached SELECTs valid.
        let (out, outcome) =
            self.engine.query_cached_opts(sql, self.optimizer.as_ref(), &effective)?;
        Ok(Reply::Rows { outcome: outcome.into(), columns: out.columns, rows: out.rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layering_prefers_the_override_field_wise() {
        let base = SessionOpts { dop: Some(2), deadline_ms: Some(100), ..SessionOpts::default() };
        let over =
            SessionOpts { deadline_ms: Some(5), memory_budget: Some(64), ..SessionOpts::default() };
        let merged = layer_opts(&base, &over);
        assert_eq!(merged.dop, Some(2), "inherited from the session");
        assert_eq!(merged.deadline_ms, Some(5), "statement override wins");
        assert_eq!(merged.memory_budget, Some(64));
        assert_eq!(merged.parallel_threshold, None, "absent everywhere stays engine-default");
    }
}
