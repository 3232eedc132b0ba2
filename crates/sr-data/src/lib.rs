#![warn(missing_docs)]
//! # sr-data
//!
//! Data-model substrate for **silkroute-rs**: typed values, rows, schemas,
//! in-memory tables, a catalog with key / foreign-key / dependency metadata,
//! and table statistics.
//!
//! The paper ("Efficient Evaluation of XML Middle-ware Queries", SIGMOD 2001)
//! treats the relational database as a remote black box. This crate is the
//! shared vocabulary between the pieces that stand in for that black box
//! (`sr-engine`, `sr-tpch`) and the middle-ware layers that only *reason*
//! about relational data (`sr-viewtree`, `sr-plan`, `sr-sqlgen`).
//!
//! Highlights:
//!
//! * [`Value`] — nullable, totally ordered scalar values (`NULL` sorts first,
//!   matching the sort-key conventions of the paper's §3.2).
//! * [`Schema`] / [`Column`] — positional schemas with unique column names.
//! * [`Table`] — a schema plus rows (stored as column batches), keys checked.
//! * [`Database`] — named tables plus declared [`constraints`] (keys, foreign
//!   keys, functional and inclusion dependencies) used by view-tree labeling.
//! * [`TableStats`] — row counts, per-column distinct counts and widths,
//!   feeding the engine's cost estimator (the paper's "RDBMS oracle").

pub mod catalog;
pub mod column;
pub mod constraints;
pub mod error;
pub mod row;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use catalog::Database;
pub use column::{ColumnBatch, ColumnTable, BATCH_ROWS};
pub use constraints::{ForeignKey, FunctionalDependency, InclusionDependency, TableConstraints};
pub use error::DataError;
pub use row::Row;
pub use schema::{Column, Schema};
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
pub use value::{DataType, Value};
