#![warn(missing_docs)]
//! # sr-tagger
//!
//! The XML tagger of SilkRoute ("Efficient Evaluation of XML Middle-ware
//! Queries", SIGMOD 2001, §3.3): merges the sorted tuple streams of a
//! partitioned plan into one stream, re-nests the tuples, and emits the
//! tagged XML document — in memory bounded by the view-tree size, never by
//! the database size.
//!
//! Entry point: [`tag_streams`]. Inputs pair each stream's rows and schema
//! with the `ReducedComponent` metadata produced by `sr-sqlgen`, so the
//! tagger can map `L{p}` / `v{p}_{q}` columns back to elements and text.

mod program;
pub mod tagger;
pub mod xml;

pub use tagger::{
    tag_streams, tag_streams_traced, RowSource, StreamInput, StreamTagStats, TagError, TagStats,
};
pub use xml::{XmlError, XmlWriter};
