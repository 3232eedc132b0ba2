//! Ad-hoc XPath queries over the **virtual** XML view (paper §7): compose
//! the path with the view definition, prune the view tree to what the path
//! touches, push predicates into the rule bodies, and run the ordinary
//! materialization pipeline over the pruned tree — so a selective query
//! ships a few small SQL queries instead of materializing the world.

use std::io::Write;

use sr_engine::Server;
use sr_serve::pipeline::{compose_xpath, QueryError, XPathResolution};
use sr_sqlgen::PlanSpec;
use sr_tagger::TagError;
use sr_viewtree::ViewTree;

use crate::materialize::{materialize, Materialization};

/// Outcome of a virtual-view query.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The pruned-tree materialization; `None` when the path statically
    /// matches nothing (the document is empty, no SQL ran).
    pub materialization: Option<Materialization>,
    /// View-tree nodes pruned away by the path.
    pub pruned_nodes: usize,
    /// View-tree nodes retained (the pruned tree's size).
    pub retained_nodes: usize,
}

/// Run `xpath` against the virtual view defined by `tree`, writing the
/// result document (the matched subtrees in their ancestor context) to
/// `out`. `plan` picks the execution plan *for the pruned tree* — e.g.
/// `PlanSpec::unified` or `|_| PlanSpec::fully_partitioned()`.
///
/// A path that composes (statically empty included) bumps
/// `query.view_hits` and `query.pruned_nodes` on the server's metrics
/// registry, exactly as the same path over the wire does.
pub fn query_view<W: Write>(
    tree: &ViewTree,
    server: &Server,
    xpath: &str,
    plan: impl FnOnce(&ViewTree) -> PlanSpec,
    out: W,
) -> Result<(QueryOutcome, W), QueryError> {
    let resolution = compose_xpath(tree, xpath)?;
    resolution.count(server.metrics());
    // From here on `tree` is the pruned tree.
    let XPathResolution::Pruned { tree, pruned_nodes } = resolution else {
        // Statically empty result: a valid query whose document filter
        // keeps nothing. No SQL runs.
        let outcome = QueryOutcome {
            materialization: None,
            pruned_nodes: tree.nodes.len(),
            retained_nodes: 0,
        };
        return Ok((outcome, out));
    };
    let (m, out) = materialize(&tree, server, plan(&tree), out)?;
    let outcome = QueryOutcome {
        materialization: Some(m),
        pruned_nodes,
        retained_nodes: tree.nodes.len(),
    };
    Ok((outcome, out))
}

/// [`query_view`] into a `String` (convenience for tests and the CLI).
pub fn query_view_to_string(
    tree: &ViewTree,
    server: &Server,
    xpath: &str,
    plan: impl FnOnce(&ViewTree) -> PlanSpec,
) -> Result<(QueryOutcome, String), QueryError> {
    let (o, bytes) = query_view(tree, server, xpath, plan, Vec::new())?;
    let s = String::from_utf8(bytes)
        .map_err(|e| QueryError::Tag(TagError::Structure(format!("non-utf8 output: {e}"))))?;
    Ok((o, s))
}
