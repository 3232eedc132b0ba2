//! Virtual-view queries end to end: an XPath over the XML view must produce
//! exactly the **document filter** of the full materialization — matched
//! subtrees in their ancestor context — while executing only the pruned
//! tree's component queries.
//!
//! The reference oracle here parses the full golden document (our own
//! writer's output format) into a DOM, applies the XPath filter semantics
//! instance-by-instance, and re-serializes; the composed/pruned execution
//! must be byte-identical to it under every executor and plan.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use silkroute::xpath::{Axis, Literal, Pred, PredPath, XPath};
use silkroute::{
    materialize_to_string, query1_tree, query2_tree, query_view_to_string, PlanSpec, QueryError,
    Server,
};
use sr_rxl::RxlCmp;
use sr_tpch::{generate, Scale};

// ---------------------------------------------------------------- oracle --

/// A parsed element or raw (still-escaped) text run.
#[derive(Debug, Clone, PartialEq)]
enum XNode {
    El(String, Vec<XNode>),
    Text(String),
}

fn el_tag(n: &XNode) -> Option<&str> {
    match n {
        XNode::El(t, _) => Some(t),
        XNode::Text(_) => None,
    }
}

/// Parse our writer's compact output (tags + escaped text, no attributes).
fn parse_forest(s: &str) -> Vec<XNode> {
    let b = s.as_bytes();
    let mut pos = 0;
    let mut roots = Vec::new();
    while pos < b.len() {
        roots.push(parse_el(b, &mut pos));
    }
    roots
}

fn parse_el(b: &[u8], pos: &mut usize) -> XNode {
    assert_eq!(b[*pos], b'<', "expected element at byte {pos:?}");
    *pos += 1;
    let start = *pos;
    while b[*pos] != b'>' {
        *pos += 1;
    }
    let tag = String::from_utf8(b[start..*pos].to_vec()).unwrap();
    *pos += 1;
    let mut children = Vec::new();
    loop {
        if b[*pos] == b'<' {
            if b[*pos + 1] == b'/' {
                *pos += 2;
                let cstart = *pos;
                while b[*pos] != b'>' {
                    *pos += 1;
                }
                assert_eq!(&b[cstart..*pos], tag.as_bytes(), "mismatched close");
                *pos += 1;
                return XNode::El(tag, children);
            }
            children.push(parse_el(b, pos));
        } else {
            let tstart = *pos;
            while b[*pos] != b'<' {
                *pos += 1;
            }
            children.push(XNode::Text(
                String::from_utf8(b[tstart..*pos].to_vec()).unwrap(),
            ));
        }
    }
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&#13;", "\r")
        .replace("&amp;", "&")
}

/// Identity of an element instance: child indices from the forest root.
type IPath = Vec<usize>;

fn get<'a>(forest: &'a [XNode], p: &[usize]) -> &'a XNode {
    let mut n = &forest[p[0]];
    for &i in &p[1..] {
        let XNode::El(_, ch) = n else { unreachable!() };
        n = &ch[i];
    }
    n
}

fn element_children(forest: &[XNode], p: &IPath) -> Vec<IPath> {
    let XNode::El(_, ch) = get(forest, p) else {
        return Vec::new();
    };
    ch.iter()
        .enumerate()
        .filter(|(_, c)| el_tag(c).is_some())
        .map(|(i, _)| {
            let mut q = p.clone();
            q.push(i);
            q
        })
        .collect()
}

fn descendants(forest: &[XNode], p: &IPath, out: &mut Vec<IPath>) {
    for c in element_children(forest, p) {
        out.push(c.clone());
        descendants(forest, &c, out);
    }
}

fn all_elements(forest: &[XNode]) -> Vec<IPath> {
    let mut out = Vec::new();
    for i in 0..forest.len() {
        let p = vec![i];
        out.push(p.clone());
        descendants(forest, &p, &mut out);
    }
    out
}

fn direct_text(forest: &[XNode], p: &IPath) -> String {
    let XNode::El(_, ch) = get(forest, p) else {
        return String::new();
    };
    let mut s = String::new();
    for c in ch {
        if let XNode::Text(t) = c {
            s.push_str(t);
        }
    }
    unescape(&s)
}

fn cmp_holds(o: Ordering, op: RxlCmp) -> bool {
    match op {
        RxlCmp::Eq => o == Ordering::Equal,
        RxlCmp::Ne => o != Ordering::Equal,
        RxlCmp::Lt => o == Ordering::Less,
        RxlCmp::Le => o != Ordering::Greater,
        RxlCmp::Gt => o == Ordering::Greater,
        RxlCmp::Ge => o != Ordering::Less,
    }
}

fn eval_pred(forest: &[XNode], p: &IPath, pred: &Pred) -> bool {
    let mut cur = p.clone();
    if let PredPath::Children(names) = &pred.path {
        for name in names {
            let hits: Vec<IPath> = element_children(forest, &cur)
                .into_iter()
                .filter(|c| el_tag(get(forest, c)) == Some(name.as_str()))
                .collect();
            // The composer guarantees uniqueness (1-labeled edges); an
            // absent child is a non-match.
            match hits.len() {
                1 => cur = hits.into_iter().next().unwrap(),
                _ => return false,
            }
        }
    }
    // A predicate compares an element's *direct* text; an element with no
    // text content never matches (the composer's `Absent` resolution).
    let XNode::El(_, ch) = get(forest, &cur) else {
        return false;
    };
    if !ch.iter().any(|c| matches!(c, XNode::Text(_))) {
        return false;
    }
    let text = direct_text(forest, &cur);
    // Mirror the engine's total Value order: numeric text compares
    // numerically against Int/Float literals, while Str values sort
    // strictly above all numbers (see sr-engine's `Value` Ord).
    match &pred.value {
        Literal::Str(s) => cmp_holds(text.as_str().cmp(s.as_str()), pred.op),
        Literal::Int(i) => {
            let o = text.parse::<i64>().map_or(Ordering::Greater, |t| t.cmp(i));
            cmp_holds(o, pred.op)
        }
        Literal::Float(x) => {
            let o = text
                .parse::<f64>()
                .map_or(Ordering::Greater, |t| t.total_cmp(x));
            cmp_holds(o, pred.op)
        }
    }
}

/// Apply the XPath document-filter to the DOM and re-serialize.
fn filter_reference(full: &str, path: &XPath) -> String {
    let forest = parse_forest(full);
    let mut matched: Vec<BTreeSet<IPath>> = Vec::new();
    for (si, step) in path.steps.iter().enumerate() {
        let cands: Vec<IPath> = if si == 0 {
            match step.axis {
                Axis::Child => (0..forest.len()).map(|i| vec![i]).collect(),
                Axis::Descendant => all_elements(&forest),
            }
        } else {
            let mut v = Vec::new();
            for m in &matched[si - 1] {
                match step.axis {
                    Axis::Child => v.extend(element_children(&forest, m)),
                    Axis::Descendant => descendants(&forest, m, &mut v),
                }
            }
            v
        };
        let set: BTreeSet<IPath> = cands
            .into_iter()
            .filter(|p| step.test.accepts(el_tag(get(&forest, p)).unwrap()))
            .filter(|p| step.preds.iter().all(|pr| eval_pred(&forest, p, pr)))
            .collect();
        matched.push(set);
    }
    let finals = matched.last().cloned().unwrap_or_default();
    let mut ancestors: BTreeSet<IPath> = BTreeSet::new();
    for f in &finals {
        for k in 1..f.len() {
            ancestors.insert(f[..k].to_vec());
        }
    }
    let mut out = String::new();
    serialize_filtered(&Vec::new(), &forest, &finals, &ancestors, &mut out);
    out
}

fn serialize_filtered(
    base: &IPath,
    nodes: &[XNode],
    finals: &BTreeSet<IPath>,
    ancestors: &BTreeSet<IPath>,
    out: &mut String,
) {
    for (i, n) in nodes.iter().enumerate() {
        let mut p = base.clone();
        p.push(i);
        match n {
            // Direct text of a kept ancestor is structural context.
            XNode::Text(t) => out.push_str(t),
            XNode::El(tag, ch) => {
                if finals.contains(&p) {
                    serialize_whole(n, out);
                } else if ancestors.contains(&p) {
                    out.push('<');
                    out.push_str(tag);
                    out.push('>');
                    serialize_filtered(&p, ch, finals, ancestors, out);
                    out.push_str("</");
                    out.push_str(tag);
                    out.push('>');
                }
            }
        }
    }
}

fn serialize_whole(n: &XNode, out: &mut String) {
    match n {
        XNode::Text(t) => out.push_str(t),
        XNode::El(tag, ch) => {
            out.push('<');
            out.push_str(tag);
            out.push('>');
            for c in ch {
                serialize_whole(c, out);
            }
            out.push_str("</");
            out.push_str(tag);
            out.push('>');
        }
    }
}

// -------------------------------------------------------------- fixtures --

fn db() -> Arc<sr_data::Database> {
    static DB: OnceLock<Arc<sr_data::Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(generate(Scale::mb(0.05)).unwrap()))
        .clone()
}

fn full_doc_q1() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let server = Server::new(db());
        let tree = query1_tree(server.database());
        materialize_to_string(&tree, &server, PlanSpec::unified(&tree))
            .unwrap()
            .1
    })
}

fn full_doc_q2() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let server = Server::new(db());
        let tree = query2_tree(server.database());
        materialize_to_string(&tree, &server, PlanSpec::unified(&tree))
            .unwrap()
            .1
    })
}

/// Run `xpath` under both plan shapes and return the (asserted-identical)
/// document, or `None` when the path is unsupported over the view.
fn run_both_plans(server: &Server, q2: bool, xpath: &str) -> Option<String> {
    let tree = if q2 {
        query2_tree(server.database())
    } else {
        query1_tree(server.database())
    };
    let unified = match query_view_to_string(&tree, server, xpath, PlanSpec::unified) {
        Ok((_, xml)) => xml,
        Err(QueryError::Compose(_)) => return None,
        Err(e) => panic!("{xpath}: {e}"),
    };
    let (_, partitioned) =
        query_view_to_string(&tree, server, xpath, |_| PlanSpec::fully_partitioned()).unwrap();
    assert_eq!(unified, partitioned, "plans diverge for {xpath}");
    Some(unified)
}

// ----------------------------------------------------------------- tests --

#[test]
fn root_path_reproduces_full_document() {
    let server = Server::new(db());
    for (q2, full, path) in [
        (false, full_doc_q1(), "/supplier"),
        (false, full_doc_q1(), "//supplier"),
        (true, full_doc_q2(), "/supplier"),
    ] {
        let got = run_both_plans(&server, q2, path).unwrap();
        assert_eq!(got, full, "{path} must reproduce the full document");
    }
}

#[test]
fn pruned_paths_match_reference_filter() {
    let server = Server::new(db());
    for path in [
        "/supplier/part",
        "/supplier/name",
        "//part/name",
        "//order",
        "//name",
        "/supplier/*",
        "//orderkey",
        "/supplier/part/order/customer",
    ] {
        let parsed = silkroute::xpath::parse(path).unwrap();
        let want = filter_reference(full_doc_q1(), &parsed);
        let got = run_both_plans(&server, false, path).unwrap();
        assert_eq!(got, want, "reference filter mismatch for {path}");
    }
}

#[test]
fn predicates_filter_instances_and_ancestors() {
    let server = Server::new(db());
    for path in [
        // Predicate through a 1-edge at the root step.
        "/supplier[name = \"Supplier#000000003\"]",
        // Selective root + pruned branch: the acceptance shape.
        "/supplier[name = \"Supplier#000000001\"]/part",
        // Predicate below a *-edge: ancestor filtering crosses the fanout
        // (EXISTS via join + tagger dedup) — the hard case for plan
        // equivalence.
        "/supplier/part[name != \"x\"]/order",
        "//order[orderkey < 400]",
        "/supplier[name != \"Supplier#000000002\"]/nation",
        // Self-text predicates.
        "/supplier/nation[. != \"zzz\"]",
        "//customer[. = \"Customer#000000005\"]",
    ] {
        let parsed = silkroute::xpath::parse(path).unwrap();
        let want = filter_reference(full_doc_q1(), &parsed);
        let got = run_both_plans(&server, false, path).unwrap();
        assert_eq!(got, want, "reference filter mismatch for {path}");
    }
}

#[test]
fn query2_paths_match_reference_filter() {
    let server = Server::new(db());
    for path in [
        "/supplier/order",
        "//part",
        "/supplier/order[orderkey >= 100]",
    ] {
        let parsed = silkroute::xpath::parse(path).unwrap();
        let want = filter_reference(full_doc_q2(), &parsed);
        let got = run_both_plans(&server, true, path).unwrap();
        assert_eq!(got, want, "reference filter mismatch for {path}");
    }
}

#[test]
fn unsupported_and_empty_paths_are_typed() {
    let server = Server::new(db());
    let tree = query1_tree(server.database());
    // Statically empty: a valid query, an empty document, zero SQL.
    let (o, xml) = query_view_to_string(&tree, &server, "/widget", PlanSpec::unified).unwrap();
    assert_eq!(xml, "");
    assert!(o.materialization.is_none());
    assert_eq!(o.pruned_nodes, tree.nodes.len());
    // Predicate across a non-1 edge is rejected, not silently wrong.
    let err = query_view_to_string(&tree, &server, "/supplier[part = \"x\"]", PlanSpec::unified)
        .unwrap_err();
    assert!(matches!(err, QueryError::Compose(_)), "{err}");
    // Parse errors are typed too.
    let err = query_view_to_string(&tree, &server, "supplier", PlanSpec::unified).unwrap_err();
    assert!(matches!(err, QueryError::Parse(_)), "{err}");
}

/// The acceptance criterion: a selective XPath executes strictly fewer
/// component queries than full materialization and ships ≥5× fewer bytes
/// of SQL results, with output byte-identical to the reference filter.
#[test]
fn selective_xpath_beats_full_materialization() {
    let server = Server::new(db());
    let tree = query1_tree(server.database());
    let (full, _) = materialize_to_string(&tree, &server, PlanSpec::fully_partitioned()).unwrap();
    let full_bytes: u64 = full.report.streams.iter().map(|s| s.bytes).sum();

    // Select the orders for ONE part (of 10): the order subtree dominates
    // the document's bytes, so this prunes both width (supplier branches)
    // and depth (nine-tenths of the lineitem fan-out).
    let pname = {
        let forest = parse_forest(full_doc_q1());
        let part = all_elements(&forest)
            .into_iter()
            .find(|p| el_tag(get(&forest, p)) == Some("part"))
            .expect("a part exists");
        let name = element_children(&forest, &part)
            .into_iter()
            .find(|c| el_tag(get(&forest, c)) == Some("name"))
            .unwrap();
        direct_text(&forest, &name)
    };
    let xpath = format!("/supplier/part[name = \"{pname}\"]/order");
    let (o, xml) =
        query_view_to_string(&tree, &server, &xpath, |_| PlanSpec::fully_partitioned()).unwrap();
    let m = o.materialization.expect("selective query ran");
    assert!(
        m.streams < full.streams,
        "strictly fewer component queries: {} vs {}",
        m.streams,
        full.streams
    );
    assert!(o.pruned_nodes > 0);
    assert!(m.streams <= o.retained_nodes);
    let sel_bytes: u64 = m.report.streams.iter().map(|s| s.bytes).sum();
    assert!(
        full_bytes >= 5 * sel_bytes,
        "≥5× fewer SQL result bytes: full={full_bytes} selective={sel_bytes}"
    );
    let parsed = silkroute::xpath::parse(&xpath).unwrap();
    assert_eq!(xml, filter_reference(full_doc_q1(), &parsed));
}

/// Pruning only ever shrinks the plan: a narrow branch and a predicate
/// below a `//` step each prune view nodes, run at most one component
/// query per retained node and no more than full materialization, and
/// ship no more SQL result bytes. At 0.2 MB `orderkey < 100` is
/// selective; at 0.05 MB it keeps every order, and the pruned plan then
/// ships each ancestor row once per matching order — more bytes than the
/// full plan.
#[test]
fn pruned_paths_never_exceed_full_materialization() {
    let server = Server::new(Arc::new(generate(Scale::mb(0.2)).unwrap()));
    let tree = query1_tree(server.database());
    let (full, _) = materialize_to_string(&tree, &server, PlanSpec::fully_partitioned()).unwrap();
    let full_bytes: u64 = full.report.streams.iter().map(|s| s.bytes).sum();
    for xpath in ["/supplier/name", "//order[orderkey < 100]"] {
        let (o, _) =
            query_view_to_string(&tree, &server, xpath, |_| PlanSpec::fully_partitioned()).unwrap();
        let m = o.materialization.expect("path selects something");
        assert!(o.pruned_nodes > 0 && o.retained_nodes >= 1, "{xpath}");
        assert!(m.streams <= full.streams, "{xpath}: more streams than full");
        assert!(
            m.streams <= o.retained_nodes,
            "{xpath}: more streams than nodes"
        );
        let bytes: u64 = m.report.streams.iter().map(|s| s.bytes).sum();
        assert!(bytes <= full_bytes, "{xpath}: more SQL bytes than full");
    }
}

// ------------------------------------------------------ property testing --

fn arb_xpath() -> impl Strategy<Value = String> {
    let tag = proptest::sample::select(vec![
        "supplier", "name", "nation", "region", "part", "order", "orderkey", "customer", "widget",
        "*",
    ]);
    let axis = proptest::sample::select(vec!["/", "//"]);
    let pred = proptest::sample::select(vec![
        "",
        "",
        "",
        "[. = \"Supplier#000000002\"]",
        "[name = \"Supplier#000000003\"]",
        "[. != \"EUROPE\"]",
        "[orderkey < 400]",
        "[. >= 200]",
        "[name = \"missing\"]",
    ]);
    (proptest::collection::vec((axis, tag), 1..4), pred).prop_map(|(steps, pred)| {
        let mut s = String::new();
        for (a, t) in &steps {
            s.push_str(a);
            s.push_str(t);
        }
        s.push_str(pred);
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random paths over the golden query1 view: the pruned execution must
    /// equal the reference filter under both plan shapes.
    #[test]
    fn xpath_equals_reference_filter_across_configs(src in arb_xpath()) {
        let parsed = match silkroute::xpath::parse(&src) {
            Ok(p) => p,
            Err(_) => return, // e.g. a bare-`*` pool artifact
        };
        let want = filter_reference(full_doc_q1(), &parsed);
        if let Some(got) = run_both_plans(&Server::new(db()), false, &src) {
            prop_assert_eq!(&got, &want, "mismatch for {}", src);
        }
    }
}
