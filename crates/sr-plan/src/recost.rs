//! Serving `greedy`: one plan per view.
//!
//! A [`Recoster`] answers a served `greedy` request with `genPlan`'s own
//! recommendation for the view, planned once from the server's estimates
//! and memoized under the view's key. Later requests for the key take the
//! memoized spec, so a warm `greedy` request renders no SQL and costs no
//! estimate. A miss plans through the server's named statements like every
//! other [`gen_plan`] call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sr_engine::{lock_recover, EngineError, Lru, Server};
use sr_sqlgen::{PlanSpec, QueryStyle};
use sr_viewtree::ViewTree;

use crate::greedy::gen_plan;
use crate::oracle::{CostParams, Oracle};

/// How a [`Recoster`] plans.
#[derive(Debug, Clone, Copy)]
pub struct RecostConfig {
    /// Cost-model parameters handed to every `genPlan` run.
    pub params: CostParams,
    /// Apply view-tree reduction when planning.
    pub reduce: bool,
}

impl Default for RecostConfig {
    fn default() -> Self {
        RecostConfig {
            params: CostParams::default(),
            reduce: true,
        }
    }
}

/// The server's `greedy` plans, memoized per view. Thread-safe; one
/// instance is shared across connections. Peers name the views (an XPath
/// or an inline RXL source is part of the key), so at most
/// [`Recoster::CAP`] views keep a plan, least recently used evicted first.
pub struct Recoster {
    cfg: RecostConfig,
    views: Mutex<Lru<PlanSpec>>,
    evictions: AtomicU64,
}

impl Recoster {
    /// Most views a recoster keeps a plan for.
    pub const CAP: usize = 256;

    /// A recoster with no plans yet.
    pub fn new(cfg: RecostConfig) -> Recoster {
        Recoster {
            cfg,
            views: Mutex::new(Lru::new(Self::CAP)),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of views with a memoized plan.
    pub fn view_count(&self) -> usize {
        lock_recover(&self.views).len()
    }

    /// Views evicted so far to stay within [`Recoster::CAP`].
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The plan for view `name`: the memoized spec, or on first use
    /// `genPlan`'s recommendation for `tree`.
    pub fn plan(
        &self,
        name: &str,
        tree: &ViewTree,
        server: &Server,
    ) -> Result<PlanSpec, EngineError> {
        if let Some(spec) = lock_recover(&self.views).get(name).copied() {
            return Ok(spec);
        }
        // Plan outside the lock: genPlan asks the server for estimates.
        let oracle = Oracle::new(server, self.cfg.params);
        let greedy = gen_plan(tree, server.database(), &oracle, self.cfg.reduce)?;
        let spec = PlanSpec {
            edges: greedy.recommended(),
            reduce: self.cfg.reduce,
            style: QueryStyle::OuterJoin,
        };
        let evicted = lock_recover(&self.views).insert(name.to_string(), spec);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_tpch::{generate, Scale};
    use sr_viewtree::build;
    use std::sync::Arc;

    #[test]
    fn plan_is_memoized_per_view() {
        let db = generate(Scale::mb(0.05)).unwrap();
        let q = sr_rxl::parse(
            "from Supplier $s construct <supplier>\
               <name>$s.name</name>\
               { from PartSupp $ps where $s.suppkey = $ps.suppkey \
                 construct <part>$ps.partkey</part> }\
             </supplier>",
        )
        .unwrap();
        let tree = build(&q, &db).unwrap();
        let server = Server::new(Arc::new(db));
        let rc = Recoster::new(RecostConfig::default());
        let s1 = rc.plan("v", &tree, &server).unwrap();
        let oracle = Oracle::new(&server, CostParams::default());
        let own = gen_plan(&tree, server.database(), &oracle, true).unwrap();
        assert_eq!(s1.edges, own.recommended(), "genPlan's own pick");
        let evaluations = server.metrics().counter("oracle.evaluations").get();
        let s2 = rc.plan("v", &tree, &server).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(
            server.metrics().counter("oracle.evaluations").get(),
            evaluations,
            "second call served from the memo"
        );
        assert_eq!(rc.view_count(), 1);
    }
}
