//! Learned re-costing: re-run `genPlan` when the estimates it planned on
//! turn out to be wrong.
//!
//! PR 3 built the measurement half of the feedback loop
//! ([`Oracle::record_actual`], the `oracle.qerror` histogram); this module
//! closes it. A [`Recoster`] owns the shared [`ActualStore`] plus per-view
//! plan state: each view remembers the component-query cardinalities its
//! current plan was costed with, accumulates `log2(q_error)` as actuals
//! arrive, and re-plans — this time through an actuals-blended oracle —
//! once the accumulated error crosses a threshold. Repeated
//! materializations can therefore *switch plan partitions* as the learned
//! cardinalities diverge from the catalog's static stats (§5: the greedy
//! planner is only as good as its estimates).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sr_engine::{lock_recover, EngineError, Lru, Server};
use sr_sqlgen::{generate_queries, PlanSpec, QueryStyle};
use sr_viewtree::ViewTree;

use crate::greedy::gen_plan;
use crate::oracle::{ActualStore, CostParams, Oracle};

/// Tuning for a [`Recoster`].
#[derive(Debug, Clone, Copy)]
pub struct RecostConfig {
    /// Cost-model parameters handed to every `genPlan` run.
    pub params: CostParams,
    /// Accumulated `log2(q_error)` across a view's component queries that
    /// triggers a re-plan. The default (2.0) re-plans once observations
    /// amount to one component being off by 4×, or two by 2× each.
    pub threshold: f64,
    /// Apply view-tree reduction when planning.
    pub reduce: bool,
}

impl Default for RecostConfig {
    fn default() -> Self {
        RecostConfig {
            params: CostParams::default(),
            threshold: 2.0,
            reduce: true,
        }
    }
}

/// Per-view feedback state.
#[derive(Debug)]
struct ViewState {
    /// The spec the view currently runs under.
    spec: PlanSpec,
    /// Blended cardinality per (normalized) component SQL at plan time.
    planned_est: HashMap<String, f64>,
    /// Accumulated `log2(q_error)` since the last plan.
    accum: f64,
    /// Times this view has been (re-)planned.
    plans: u64,
}

/// The server-side re-costing driver: hand out a plan per view, feed back
/// actuals, re-plan when the accumulated error says the plan was built on
/// fiction. Thread-safe; one instance is shared across connections. Peers
/// name the views (an XPath or an inline RXL source is part of the key),
/// so at most [`Recoster::CAP`] views keep state, least recently used
/// evicted first, beside an [`ActualStore`] bounded the same way.
pub struct Recoster {
    cfg: RecostConfig,
    actuals: ActualStore,
    views: Mutex<Lru<ViewState>>,
    evictions: AtomicU64,
}

impl Recoster {
    /// Most views a recoster keeps plan state for.
    pub const CAP: usize = 256;

    /// A recoster with its own empty [`ActualStore`].
    pub fn new(cfg: RecostConfig) -> Recoster {
        Recoster {
            cfg,
            actuals: ActualStore::new(),
            views: Mutex::new(Lru::new(Self::CAP)),
            evictions: AtomicU64::new(0),
        }
    }

    /// The shared learned-actuals store.
    pub fn actuals(&self) -> &ActualStore {
        &self.actuals
    }

    /// Times `name` has been planned (1 = initial plan only).
    pub fn plan_count(&self, name: &str) -> u64 {
        lock_recover(&self.views).get(name).map_or(0, |v| v.plans)
    }

    /// Number of views with plan state.
    pub fn view_count(&self) -> usize {
        lock_recover(&self.views).len()
    }

    /// Views and learned actuals evicted so far to stay within their caps.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Forget all learned state (the database changed under us).
    pub fn reset(&self) {
        self.actuals.clear();
        lock_recover(&self.views).clear();
    }

    /// The plan for view `name`: the cached spec while its estimates hold,
    /// a fresh `genPlan` run — through an actuals-blended oracle — on first
    /// use or once accumulated Q-error crosses the threshold. Re-plans bump
    /// the server registry's `oracle.recost` counter.
    pub fn plan(
        &self,
        name: &str,
        tree: &ViewTree,
        server: &Server,
    ) -> Result<PlanSpec, EngineError> {
        if let Some(state) = lock_recover(&self.views).get(name) {
            if state.accum < self.cfg.threshold {
                return Ok(state.spec);
            }
        }
        // Plan outside the lock: genPlan runs estimate queries.
        let db = server.database();
        let oracle = Oracle::new(server, self.cfg.params).with_actuals(self.actuals.clone());
        let greedy = gen_plan(tree, db, &oracle, self.cfg.reduce)?;
        let spec = PlanSpec {
            edges: greedy.recommended(),
            reduce: self.cfg.reduce,
            style: QueryStyle::OuterJoin,
        };
        // Remember what the chosen plan's component queries were costed at,
        // so observe() can measure drift against *these* numbers.
        let mut planned_est = HashMap::new();
        for q in generate_queries(tree, db, spec)? {
            let est = oracle.estimate_sql(&q.sql)?;
            planned_est.insert(ActualStore::normalize(&q.sql), est.cardinality);
        }
        let mut views = lock_recover(&self.views);
        let plans = views.get(name).map_or(0, |v| v.plans);
        if plans > 0 {
            server.metrics().counter("oracle.recost").inc();
        }
        let state = ViewState {
            spec,
            planned_est,
            accum: 0.0,
            plans: plans + 1,
        };
        let evicted = views.insert(name.to_string(), state);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(spec)
    }

    /// Feed back the actual row count of one component query of `name`.
    /// Records it into the shared store and, when the SQL is one the
    /// current plan was costed on, accumulates its `log2(q_error)` toward
    /// the re-plan threshold. Returns the accumulated error.
    pub fn observe(&self, name: &str, sql: &str, actual_rows: u64) -> f64 {
        let evicted = self.actuals.record(sql, actual_rows);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        let mut views = lock_recover(&self.views);
        let Some(state) = views.get(name) else {
            return 0.0;
        };
        if let Some(&est) = state.planned_est.get(&ActualStore::normalize(sql)) {
            let q = sr_engine::q_error(est, actual_rows as f64);
            state.accum += q.log2();
        }
        state.accum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_tpch::{generate, Scale};
    use sr_viewtree::build;
    use std::sync::Arc;

    fn setup() -> (ViewTree, Server) {
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
        (tree, Server::new(Arc::new(db)))
    }

    #[test]
    fn plan_is_cached_until_threshold() {
        let (tree, server) = setup();
        let rc = Recoster::new(RecostConfig::default());
        let s1 = rc.plan("v", &tree, &server).unwrap();
        let s2 = rc.plan("v", &tree, &server).unwrap();
        assert_eq!(s1.edges, s2.edges);
        assert_eq!(rc.plan_count("v"), 1, "second call served from cache");
        assert_eq!(server.metrics().counter("oracle.recost").get(), 0);
    }

    #[test]
    fn accumulated_qerror_triggers_a_replan() {
        let (tree, server) = setup();
        let rc = Recoster::new(RecostConfig::default());
        let spec = rc.plan("v", &tree, &server).unwrap();
        let db = server.database();
        let queries = generate_queries(&tree, db, spec).unwrap();
        // Report every component wildly off (64× its planned estimate):
        // log2(64) = 6 per component clears the 2.0 threshold at once.
        for q in &queries {
            let est = Oracle::new(&server, CostParams::default())
                .estimate_sql(&q.sql)
                .unwrap();
            let accum = rc.observe("v", &q.sql, (est.cardinality * 64.0).ceil() as u64);
            assert!(accum > 0.0);
        }
        let hits_before = server.metrics().counter("oracle.actual_hits").get();
        rc.plan("v", &tree, &server).unwrap();
        assert_eq!(rc.plan_count("v"), 2, "threshold crossed → re-planned");
        assert_eq!(server.metrics().counter("oracle.recost").get(), 1);
        assert!(
            server.metrics().counter("oracle.actual_hits").get() > hits_before,
            "the re-plan never consulted a recorded actual"
        );
        // The re-plan resets the accumulator: planning again is a no-op.
        rc.plan("v", &tree, &server).unwrap();
        assert_eq!(rc.plan_count("v"), 2);
        assert_eq!(server.metrics().counter("oracle.recost").get(), 1);
    }

    #[test]
    fn genplan_switches_partition_after_learned_actuals() {
        // The re-costing acceptance case: with static stats the recommended
        // plan includes the 1-labeled <name> edge; after learning that the
        // combined component returns vastly more rows than estimated, the
        // greedy planner backs off to a more partitioned plan. Asserted via
        // the plan fingerprint (edge bits), not timing.
        let (tree, server) = setup();
        let rc = Recoster::new(RecostConfig {
            // Paper-default thresholds, a tiny re-plan trigger.
            threshold: 0.5,
            ..RecostConfig::default()
        });
        let before = rc.plan("v", &tree, &server).unwrap();
        assert!(
            !before.edges.is_empty(),
            "static stats merge at least one edge: {}",
            before.edges.bits()
        );
        // Poison every merged component's estimate: claim each returned
        // ~100000× its planned cardinality. Blended costing now prices the
        // merged queries out of the t2 band.
        let db = server.database();
        for q in generate_queries(&tree, db, before).unwrap() {
            rc.observe("v", &q.sql, 50_000_000);
        }
        let after = rc.plan("v", &tree, &server).unwrap();
        assert_eq!(rc.plan_count("v"), 2);
        assert_ne!(
            after.edges.bits(),
            before.edges.bits(),
            "learned actuals must flip the plan partition"
        );
        let dropped = before.edges.iter().any(|e| !after.edges.contains(e));
        assert!(
            dropped,
            "a poisoned merge must be dropped: {} -> {}",
            before.edges, after.edges
        );
    }

    #[test]
    fn reset_forgets_learned_state() {
        let (tree, server) = setup();
        let rc = Recoster::new(RecostConfig::default());
        rc.plan("v", &tree, &server).unwrap();
        rc.observe("v", "SELECT 1", 10);
        rc.reset();
        assert!(rc.actuals().is_empty());
        assert_eq!(rc.plan_count("v"), 0);
    }
}
