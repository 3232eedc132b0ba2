#![warn(missing_docs)]
//! # sr-sqlgen
//!
//! SQL generation from partitioned view trees ("Efficient Evaluation of XML
//! Middle-ware Queries", SIGMOD 2001, §3.2/§3.4): each connected component
//! of a chosen edge subset becomes one SQL query producing a sorted
//! *partitioned relation* whose schema is `L1…Lmax` level labels plus the
//! component's Skolem-term variables, laid out in global sort order.
//!
//! Two query structures are provided:
//!
//! * [`outer_join::outer_join_plan`] — SilkRoute's default
//!   `R ⟕ (S ∪ T)` plans;
//! * [`outer_union::outer_union_plan`] — the sorted outer-union
//!   `(R ⟕ S) ∪ (R ⟕ T)` of Shanmugasundaram et al. \[9\].
//!
//! [`generate_queries`] drives the whole translation for a [`PlanSpec`].

pub mod body;
pub mod genplan;
pub mod outer_join;
pub mod outer_union;
pub mod relation;

pub use body::body_plan;
pub use genplan::{
    generate_queries, generate_queries_filtered, GeneratedQuery, PlanSpec, QueryStyle,
};
pub use outer_join::outer_join_plan;
pub use outer_union::outer_union_plan;
pub use relation::{component_columns, global_columns, var_dtype, ColumnSpec};
