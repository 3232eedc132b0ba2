#![warn(missing_docs)]
//! # silkroute
//!
//! A from-scratch reproduction of **SilkRoute**'s view materialization
//! pipeline from "Efficient Evaluation of XML Middle-ware Queries"
//! (Fernández, Morishima, Suciu — SIGMOD 2001): declarative RXL views over
//! a relational database, decomposed into one or more SQL queries whose
//! sorted tuple streams are merged and tagged into a large XML document in
//! constant space.
//!
//! ```
//! use silkroute::{materialize_to_string, PlanSpec, Server};
//! use std::sync::Arc;
//!
//! // A deterministic TPC-H fragment (the paper's Fig. 1 schema).
//! let db = sr_tpch::generate(sr_tpch::Scale::mb(0.05)).unwrap();
//! let server = Server::new(Arc::new(db));
//!
//! // An RXL view (paper §2) and its view tree (paper §3.1).
//! let view = sr_rxl::parse(
//!     "from Supplier $s construct <supplier><name>$s.name</name>\
//!      { from PartSupp $ps where $s.suppkey = $ps.suppkey \
//!        construct <part>$ps.partkey</part> }</supplier>").unwrap();
//! let tree = sr_viewtree::build(&view, server.database()).unwrap();
//!
//! // Materialize under any of the 2^|E| plans; here the unified plan.
//! let (info, xml) =
//!     materialize_to_string(&tree, &server, PlanSpec::unified(&tree)).unwrap();
//! assert_eq!(info.streams, 1);
//! assert!(xml.starts_with("<supplier>"));
//! ```
//!
//! The sub-crates are re-exported under their pipeline roles: [`rxl`],
//! [`viewtree`], [`sqlgen`], [`tagger`], [`plan`], [`engine`], [`tpch`].

pub mod config;
pub mod experiment;
pub mod materialize;
pub mod queries;
pub mod query;
pub mod report;

pub use config::{calibrated_params, Config};
pub use experiment::{
    bucket_by_streams, measure, run_plan, run_plan_buffered, sweep_all_plans, Measurement,
};
pub use materialize::{
    materialize, materialize_buffered, materialize_fragment, materialize_pretty,
    materialize_to_string, Materialization,
};
pub use queries::{query1, query1_tree, query2, query2_tree, QUERY1_RXL, QUERY2_RXL};
pub use query::{query_view, query_view_to_string, QueryOutcome};
pub use report::{MaterializeReport, StreamReport};

pub use sr_data as data;
pub use sr_engine as engine;
pub use sr_obs as obs;
pub use sr_plan as plan;
pub use sr_rxl as rxl;
pub use sr_sqlgen as sqlgen;
pub use sr_tagger as tagger;
pub use sr_tpch as tpch;
pub use sr_viewtree as viewtree;
pub use sr_xpath as xpath;

pub use sr_engine::Server;
pub use sr_plan::{gen_plan, CostParams, Oracle};
pub use sr_serve::pipeline::QueryError;
pub use sr_sqlgen::{PlanSpec, QueryStyle};
pub use sr_viewtree::EdgeSet;
