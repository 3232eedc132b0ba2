//! Property-based tests over the whole pipeline: for *arbitrary* small
//! databases (including orphan children, empty tables, duplicate values),
//! every partition of the view tree must produce the same XML document as
//! the unified plan, under both query styles and with or without
//! reduction.

use std::sync::Arc;

use proptest::prelude::*;

use silkroute::{materialize_to_string, PlanSpec, QueryStyle, Server};
use sr_data::{row, DataType, Database, Schema, Table};
use sr_viewtree::{all_edge_sets, build, ViewTree};

/// Catalog: Parent(pid, pval), ChildA(aid, pid, aval), Grand(gid, aid,
/// gval), ChildB(bid, pid, bval). FKs from ChildA/ChildB/Grand are *not*
/// declared, so the child edges label `*` and orphan rows are legal (they
/// simply never appear in the document).
fn make_db(
    parents: &[(i64, String)],
    childa: &[(i64, i64, String)],
    grand: &[(i64, i64, i64)],
    childb: &[(i64, i64, i64)],
) -> Database {
    let mut db = Database::new();
    let mut p = Table::new(
        "Parent",
        Schema::of(&[("pid", DataType::Int), ("pval", DataType::Str)]),
    );
    for (pid, pval) in parents {
        p.insert(row![*pid, pval.as_str()]).unwrap();
    }
    let mut a = Table::new(
        "ChildA",
        Schema::of(&[
            ("aid", DataType::Int),
            ("pid", DataType::Int),
            ("aval", DataType::Str),
        ]),
    );
    for (aid, pid, aval) in childa {
        a.insert(row![*aid, *pid, aval.as_str()]).unwrap();
    }
    let mut g = Table::new(
        "Grand",
        Schema::of(&[
            ("gid", DataType::Int),
            ("aid", DataType::Int),
            ("gval", DataType::Int),
        ]),
    );
    for (gid, aid, gval) in grand {
        g.insert(row![*gid, *aid, *gval]).unwrap();
    }
    let mut b = Table::new(
        "ChildB",
        Schema::of(&[
            ("bid", DataType::Int),
            ("pid", DataType::Int),
            ("bval", DataType::Int),
        ]),
    );
    for (bid, pid, bval) in childb {
        b.insert(row![*bid, *pid, *bval]).unwrap();
    }
    db.add_table(p);
    db.add_table(a);
    db.add_table(g);
    db.add_table(b);
    db.declare_key("Parent", &["pid"]).unwrap();
    db.declare_key("ChildA", &["aid"]).unwrap();
    db.declare_key("Grand", &["gid"]).unwrap();
    db.declare_key("ChildB", &["bid"]).unwrap();
    db
}

const QUERY: &str = "
from Parent $p
construct
  <parent>
    <v>$p.pval</v>
    { from ChildA $a where $p.pid = $a.pid
      construct <a>$a.aval
        { from Grand $g where $a.aid = $g.aid
          construct <g>$g.gval</g> } </a> }
    { from ChildB $b where $p.pid = $b.pid
      construct <b>$b.bval</b> }
  </parent>
";

fn tree_for(db: &Database) -> ViewTree {
    build(&sr_rxl::parse(QUERY).unwrap(), db).unwrap()
}

/// Short strings with deliberate duplicates and XML-special characters.
fn val_string() -> impl Strategy<Value = String> + Clone {
    prop_oneof![
        Just("x".to_string()),
        Just("x".to_string()), // boost duplicate probability
        Just("a&b".to_string()),
        Just("<tag>".to_string()),
        proptest::sample::select(vec!["a", "b", "c", "ab", "bc"]).prop_map(str::to_string),
    ]
}

fn keyed_rows<T: std::fmt::Debug>(
    n: usize,
    payload: impl Strategy<Value = T> + Clone,
) -> impl Strategy<Value = Vec<(i64, T)>> {
    proptest::collection::vec(payload, 0..n).prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, t)| (i as i64 + 1, t))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_plans_reconstruct_identical_xml(
        parents in keyed_rows(5, val_string()),
        childa in keyed_rows(10, (0i64..7, val_string())),
        grand in keyed_rows(12, (0i64..12, 0i64..100)),
        childb in keyed_rows(8, (0i64..7, 0i64..100)),
    ) {
        let parents: Vec<(i64, String)> = parents;
        let childa: Vec<(i64, i64, String)> =
            childa.into_iter().map(|(k, (p, v))| (k, p, v)).collect();
        let grand: Vec<(i64, i64, i64)> =
            grand.into_iter().map(|(k, (a, v))| (k, a, v)).collect();
        let childb: Vec<(i64, i64, i64)> =
            childb.into_iter().map(|(k, (p, v))| (k, p, v)).collect();
        let db = make_db(&parents, &childa, &grand, &childb);
        let tree = tree_for(&db);
        prop_assert_eq!(tree.edge_count(), 4);
        let server = Server::new(Arc::new(db));
        let (_, reference) =
            materialize_to_string(&tree, &server, PlanSpec::unified(&tree)).unwrap();
        for edges in all_edge_sets(&tree) {
            for reduce in [false, true] {
                for style in [QueryStyle::OuterJoin, QueryStyle::OuterUnion] {
                    let spec = PlanSpec { edges, reduce, style };
                    let (info, xml) =
                        materialize_to_string(&tree, &server, spec).unwrap();
                    prop_assert_eq!(
                        info.streams,
                        tree.edge_count() - edges.len() + 1
                    );
                    prop_assert_eq!(
                        &xml, &reference,
                        "edges={} reduce={} style={:?}", edges, reduce, style
                    );
                }
            }
        }
    }

    /// Pipelined execution is invisible at the tuple level: for every plan
    /// over a random database, the streaming path yields exactly the rows
    /// of the buffered path, in the same order.
    #[test]
    fn streamed_rows_match_buffered_rows(
        parents in keyed_rows(4, val_string()),
        childa in keyed_rows(8, (0i64..6, val_string())),
        childb in keyed_rows(6, (0i64..6, 0i64..100)),
    ) {
        let parents: Vec<(i64, String)> = parents;
        let childa: Vec<(i64, i64, String)> =
            childa.into_iter().map(|(k, (p, v))| (k, p, v)).collect();
        let childb: Vec<(i64, i64, i64)> =
            childb.into_iter().map(|(k, (p, v))| (k, p, v)).collect();
        let db = make_db(&parents, &childa, &[], &childb);
        let tree = tree_for(&db);
        let server = Server::new(Arc::new(db));
        for edges in all_edge_sets(&tree) {
            let spec = PlanSpec { edges, reduce: true, style: QueryStyle::OuterJoin };
            let queries =
                sr_sqlgen::generate_queries(&tree, server.database(), spec).unwrap();
            for q in queries {
                let streamed = server.execute_sql_streaming(&q.sql).unwrap();
                let buffered = server.execute_sql(&q.sql).unwrap();
                let s = streamed.collect_rows().unwrap();
                let b = buffered.collect_rows().unwrap();
                prop_assert_eq!(&s, &b, "row divergence in {}", &q.sql);
            }
        }
    }

    #[test]
    fn document_reflects_data_exactly(
        parents in keyed_rows(5, val_string()),
        childb in keyed_rows(8, (0i64..7, 0i64..100)),
    ) {
        let parents: Vec<(i64, String)> = parents;
        let childb: Vec<(i64, i64, i64)> =
            childb.into_iter().map(|(k, (p, v))| (k, p, v)).collect();
        let db = make_db(&parents, &[], &[], &childb);
        let tree = tree_for(&db);
        let pids: Vec<i64> = parents.iter().map(|(k, _)| *k).collect();
        let attached = childb.iter().filter(|(_, p, _)| pids.contains(p)).count();
        let server = Server::new(Arc::new(db));
        let (_, xml) =
            materialize_to_string(&tree, &server, PlanSpec::fully_partitioned()).unwrap();
        prop_assert_eq!(xml.matches("<parent>").count(), parents.len());
        prop_assert_eq!(xml.matches("<b>").count(), attached);
        prop_assert_eq!(xml.matches("<a>").count(), 0);
        // XML-escaped content: raw specials never appear unescaped.
        prop_assert!(!xml.contains("a&b"), "ampersand must be escaped");
    }

    #[test]
    fn tagger_memory_is_bounded_by_tree_depth(
        parents in keyed_rows(5, val_string()),
        childa in keyed_rows(10, (0i64..7, val_string())),
        grand in keyed_rows(12, (0i64..12, 0i64..100)),
    ) {
        let parents: Vec<(i64, String)> = parents;
        let childa: Vec<(i64, i64, String)> =
            childa.into_iter().map(|(k, (p, v))| (k, p, v)).collect();
        let grand: Vec<(i64, i64, i64)> =
            grand.into_iter().map(|(k, (a, v))| (k, a, v)).collect();
        let db = make_db(&parents, &childa, &grand, &[]);
        let tree = tree_for(&db);
        let server = Server::new(Arc::new(db));
        for spec in [PlanSpec::unified(&tree), PlanSpec::fully_partitioned()] {
            let (info, _) = materialize_to_string(&tree, &server, spec).unwrap();
            prop_assert!(info.stats.max_open_depth <= tree.max_level());
        }
    }
}
