#![warn(missing_docs)]
//! # sr-engine
//!
//! The in-memory relational engine that stands in for the paper's target
//! RDBMS ("Efficient Evaluation of XML Middle-ware Queries", SIGMOD 2001).
//!
//! The paper's middle-ware interacts with the database exclusively through
//! two channels, and this crate provides exactly those:
//!
//! * **SQL execution** — [`Server::execute_sql`] parses a SQL string
//!   (the subset the paper's generated queries need: comma inner joins,
//!   `LEFT OUTER JOIN … ON`, derived tables, `UNION ALL`, `ORDER BY`,
//!   `CAST(NULL AS t)`), plans it with predicate push-down, sort elision
//!   and column pruning, executes it, and returns a wire-encoded, sorted
//!   [`TupleStream`].
//! * **Cost estimation** — [`Server::estimate_sql`] answers the
//!   greedy planner's oracle requests (`evaluation_cost`, `cardinality`)
//!   from catalog statistics, System-R style.
//!
//! [`Server`] runs every execution through one body (module `run`), over
//! an immutable database snapshot; [`TupleStream`] is the client side.
//!
//! The executable algebra ([`plan::Plan`]) is also public so the SQL
//! generator can build plans directly and print them ([`sql::to_sql`]).

pub mod analyze;
pub mod cancel;
pub mod cost;
pub mod error;
pub mod exec;
pub mod expr;
pub mod faults;
mod fragment;
pub mod lru;
pub mod optimize;
pub mod ordering;
pub mod plan;
#[cfg(test)]
mod reference;
mod run;
pub mod server;
pub mod sql;
mod stream;
pub mod vexec;
pub mod wire;

pub use analyze::{q_error, AnalyzedNode, ExplainAnalysis};
pub use cancel::CancelToken;
pub use cost::{estimate, estimate_with_nodes, ColInfo, Estimate};
pub use error::EngineError;
pub use exec::{
    execute, execute_analyzed, execute_profiled, execute_profiled_with, ExecProfile, NodeStat,
    OpStat, PlanProfile, ResultSet,
};
pub use expr::{CmpOp, Expr, Predicate};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultSite, FaultTrigger};
pub use fragment::FragmentCacheInfo;
pub use lru::Lru;
pub use optimize::push_filters;
pub use ordering::{elide_sorts, order_info, OrderInfo};
pub use plan::{JoinKind, Plan};
pub use server::{NamedEstimate, Server};
pub use sr_obs::lock_recover;
pub use stream::TupleStream;
pub use vexec::VecResultSet;
