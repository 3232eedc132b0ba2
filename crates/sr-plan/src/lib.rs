#![warn(missing_docs)]
//! # sr-plan
//!
//! Plan selection for SilkRoute-style XML view materialization ("Efficient
//! Evaluation of XML Middle-ware Queries", SIGMOD 2001, §5):
//!
//! * [`oracle`] — the RDBMS-backed cost oracle with the paper's linear
//!   model `cost(q, a, b) = a·evaluation_cost(q) + b·data_size(q)`,
//!   caching and counting estimate requests;
//! * [`enumerate`] — exhaustive ranking of all `2^|E|` plans by estimated
//!   cost;
//! * [`greedy`] — the `genPlan` algorithm (Fig. 17) producing mandatory and
//!   optional edge sets;
//! * [`capabilities`] — permissible-plan filtering for engines lacking
//!   outer joins or unions (§3.4);
//! * [`recost`] — the server's `greedy` plans: one memoized `genPlan`
//!   pick per view.

pub mod capabilities;
pub mod enumerate;
pub mod greedy;
pub mod oracle;
pub mod recost;

pub use capabilities::{
    permissible, permissible_plans, required_features, Capabilities, RequiredFeatures,
};
pub use enumerate::{estimated_best, rank_all_plans, RankedPlan};
pub use greedy::{gen_plan, gen_plan_capable, EdgeChoice, GreedyResult};
pub use oracle::{CostParams, Oracle};
pub use recost::{RecostConfig, Recoster};
