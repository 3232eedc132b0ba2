//! Failure-injection tests: the tagger must reject malformed streams with a
//! clear error instead of emitting a corrupted document.

use sr_data::{row, DataType, Database, Row, Schema, Table};
use sr_engine::execute;
use sr_sqlgen::{generate_queries, PlanSpec};
use sr_tagger::{tag_streams, RowSource, StreamInput, TagError, XmlError, XmlWriter};
use sr_viewtree::{build, ViewTree};

fn setup() -> (ViewTree, Database) {
    let mut db = Database::new();
    let mut p = Table::new(
        "Parent",
        Schema::of(&[("pid", DataType::Int), ("pval", DataType::Str)]),
    );
    p.insert_all([row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]])
        .unwrap();
    let mut c = Table::new(
        "Child",
        Schema::of(&[("cid", DataType::Int), ("pid", DataType::Int)]),
    );
    c.insert_all([row![10i64, 1i64], row![11i64, 1i64], row![12i64, 3i64]])
        .unwrap();
    db.add_table(p);
    db.add_table(c);
    db.declare_key("Parent", &["pid"]).unwrap();
    db.declare_key("Child", &["cid"]).unwrap();
    let q = sr_rxl::parse(
        "from Parent $p construct <parent><v>$p.pval</v>\
         { from Child $c where $p.pid = $c.pid \
           construct <child>$c.cid</child> }</parent>",
    )
    .unwrap();
    let tree = build(&q, &db).unwrap();
    (tree, db)
}

/// Execute the unified plan and return (rows, schema, reduced).
fn unified_stream(
    tree: &ViewTree,
    db: &Database,
) -> (Vec<Row>, sr_data::Schema, sr_viewtree::ReducedComponent) {
    let q = generate_queries(tree, db, PlanSpec::unified(tree))
        .unwrap()
        .remove(0);
    let rs = execute(&q.plan, db).unwrap();
    (rs.rows, rs.schema, q.reduced)
}

#[test]
fn well_formed_stream_tags_cleanly() {
    let (tree, db) = setup();
    let (rows, schema, reduced) = unified_stream(&tree, &db);
    let input = StreamInput {
        rows: RowSource::Materialized(rows.into_iter()),
        schema,
        reduced,
    };
    let (stats, out) = tag_streams(&tree, vec![input], Vec::new(), false).unwrap();
    let xml = String::from_utf8(out).unwrap();
    assert_eq!(stats.elements, 3 + 3 + 3, "3 parents, 3 v, 3 children");
    assert!(xml.contains("<child>10</child>"));
}

#[test]
fn unsorted_stream_is_rejected() {
    let (tree, db) = setup();
    let (mut rows, schema, reduced) = unified_stream(&tree, &db);
    assert!(rows.len() >= 2);
    rows.reverse(); // violate the sortedness contract
    let input = StreamInput {
        rows: RowSource::Materialized(rows.into_iter()),
        schema,
        reduced,
    };
    let err = tag_streams(&tree, vec![input], Vec::new(), false).unwrap_err();
    match err {
        TagError::Structure(m) => assert!(m.contains("not sorted"), "{m}"),
        other => panic!("expected structure error, got {other}"),
    }
}

#[test]
fn bogus_level_label_is_rejected() {
    let (tree, db) = setup();
    let (rows, schema, reduced) = unified_stream(&tree, &db);
    // Corrupt a tuple: L1 points at a nonexistent sibling ordinal.
    let mut bad = rows[0].to_vec();
    let l1 = schema.position("L1").unwrap();
    bad[l1] = sr_data::Value::Int(99);
    let rows = vec![Row::new(bad)];
    let input = StreamInput {
        rows: RowSource::Materialized(rows.into_iter()),
        schema,
        reduced,
    };
    let err = tag_streams(&tree, vec![input], Vec::new(), false).unwrap_err();
    match err {
        TagError::Structure(m) => assert!(m.contains("SFI"), "{m}"),
        other => panic!("expected structure error, got {other}"),
    }
}

#[test]
fn null_root_label_is_rejected() {
    let (tree, db) = setup();
    let (rows, schema, reduced) = unified_stream(&tree, &db);
    let mut bad = rows[0].to_vec();
    let l1 = schema.position("L1").unwrap();
    bad[l1] = sr_data::Value::Null;
    let input = StreamInput {
        rows: RowSource::Materialized(vec![Row::new(bad)].into_iter()),
        schema,
        reduced,
    };
    let err = tag_streams(&tree, vec![input], Vec::new(), false).unwrap_err();
    match err {
        TagError::Structure(m) => assert!(m.contains("NULL L1"), "{m}"),
        other => panic!("expected structure error, got {other}"),
    }
}

#[test]
fn non_integer_label_is_rejected() {
    let (tree, db) = setup();
    let (rows, schema, reduced) = unified_stream(&tree, &db);
    let mut bad = rows[0].to_vec();
    let l1 = schema.position("L1").unwrap();
    bad[l1] = sr_data::Value::str("oops");
    let input = StreamInput {
        rows: RowSource::Materialized(vec![Row::new(bad)].into_iter()),
        schema,
        reduced,
    };
    let err = tag_streams(&tree, vec![input], Vec::new(), false).unwrap_err();
    match err {
        TagError::Structure(m) => assert!(m.contains("non-integer"), "{m}"),
        other => panic!("expected structure error, got {other}"),
    }
}

#[test]
fn empty_sfi_node_is_rejected_as_malformed_tree() {
    let (mut tree, db) = setup();
    let (rows, schema, reduced) = unified_stream(&tree, &db);
    // Corrupt the *tree* rather than the stream: an element node with an
    // empty SFI path can never be ordered against its siblings. The tagger
    // must refuse with a typed error instead of panicking mid-document.
    let v = tree
        .nodes
        .iter()
        .position(|n| n.tag == "v")
        .expect("tree has a <v> node");
    tree.nodes[v].sfi.clear();
    let input = StreamInput {
        rows: RowSource::Materialized(rows.into_iter()),
        schema,
        reduced,
    };
    let err = tag_streams(&tree, vec![input], Vec::new(), false).unwrap_err();
    match err {
        TagError::MalformedTree(m) => assert!(m.contains("<v>"), "{m}"),
        other => panic!("expected malformed-tree error, got {other}"),
    }
}

#[test]
fn empty_streams_produce_empty_document() {
    let (tree, db) = setup();
    let (_, schema, reduced) = unified_stream(&tree, &db);
    let input = StreamInput {
        rows: RowSource::Materialized(Vec::new().into_iter()),
        schema,
        reduced,
    };
    let (stats, out) = tag_streams(&tree, vec![input], Vec::new(), false).unwrap();
    assert_eq!(stats.elements, 0);
    assert!(out.is_empty());
}

#[test]
fn unsorted_second_stream_is_blamed_by_index() {
    // Two copies of the same unified stream: the sorted copy (stream 0)
    // drains first, then the reversed copy (stream 1) regresses against its
    // own predecessor. The error must blame stream 1 and name the
    // intra-stream order contract — not the innocent stream 0.
    let (tree, db) = setup();
    let (rows, schema, reduced) = unified_stream(&tree, &db);
    let mut reversed = rows.clone();
    reversed.reverse();
    let good = StreamInput {
        rows: RowSource::Materialized(rows.into_iter()),
        schema: schema.clone(),
        reduced: reduced.clone(),
    };
    let bad = StreamInput {
        rows: RowSource::Materialized(reversed.into_iter()),
        schema,
        reduced,
    };
    let err = tag_streams(&tree, vec![good, bad], Vec::new(), false).unwrap_err();
    match err {
        TagError::Structure(m) => {
            assert!(m.contains("stream 1"), "{m}");
            assert!(m.contains("intra-stream order"), "{m}");
        }
        other => panic!("expected structure error, got {other}"),
    }
}

#[test]
fn violation_in_the_first_row_of_a_later_chunk_is_rejected() {
    // A wire stream, so the tuples reach the tagger chunk by chunk. The
    // server sorts by `alt`, which agrees with `pid` everywhere but at the
    // chunk boundary: pid 1025 is the last row of the first 1024-row chunk
    // and pid 1024 the first row of the second. The predecessor it must be
    // checked against left with the chunk that was released.
    let mut db = Database::new();
    let mut p = Table::new(
        "Parent",
        Schema::of(&[("pid", DataType::Int), ("alt", DataType::Int)]),
    );
    for pid in 1..=1500i64 {
        let alt = if pid == 1025 { 2 * 1024 - 1 } else { 2 * pid };
        p.insert(row![pid, alt]).unwrap();
    }
    db.add_table(p);
    db.declare_key("Parent", &["pid"]).unwrap();
    let q = sr_rxl::parse("from Parent $p construct <parent>$p.pid</parent>").unwrap();
    let tree = build(&q, &db).unwrap();
    let q = generate_queries(&tree, &db, PlanSpec::unified(&tree))
        .unwrap()
        .remove(0);
    let server = sr_engine::Server::new(std::sync::Arc::new(db));
    let tag = |sql: &str| {
        let stream = server.execute_sql_streaming(sql).unwrap();
        let input = StreamInput {
            schema: stream.schema.clone(),
            rows: RowSource::Stream(Box::new(stream)),
            reduced: q.reduced.clone(),
        };
        tag_streams(&tree, vec![input], Vec::new(), false)
    };
    let by = |order: &str| format!("SELECT 1 AS L1, p.pid AS v1_1 FROM Parent p ORDER BY {order}");
    let (stats, _) = tag(&by("v1_1")).unwrap();
    assert_eq!(stats.tuples, 1500, "sorted by the key, the stream tags");

    let unsorted = "SELECT 1 AS L1, p.pid AS v1_1, p.alt AS alt FROM Parent p ORDER BY alt";
    match tag(unsorted).unwrap_err() {
        TagError::Structure(m) => {
            assert!(m.contains("not sorted"), "{m}");
            assert!(m.contains("stream 0"), "{m}");
        }
        other => panic!("expected structure error, got {other}"),
    }
}

#[test]
fn writer_misuse_surfaces_as_malformed_tree_not_panic() {
    // Pre-fix, a mismatched close or an unclosed element at finish was a
    // panic!/assert! inside XmlWriter — fatal for a serve worker fed a
    // malformed pruned tree. Both now surface as typed errors that convert
    // to TagError::MalformedTree.
    let mut w = XmlWriter::new(Vec::new());
    w.open("a").unwrap();
    let err = w.close("b").unwrap_err();
    match TagError::from(err) {
        TagError::MalformedTree(m) => assert!(m.contains("mismatched close"), "{m}"),
        other => panic!("expected malformed-tree error, got {other}"),
    }

    let mut w = XmlWriter::new(Vec::new());
    w.open("a").unwrap();
    let err = w.finish().unwrap_err();
    match TagError::from(err) {
        TagError::MalformedTree(m) => assert!(m.contains("unclosed elements"), "{m}"),
        other => panic!("expected malformed-tree error, got {other}"),
    }

    let mut w = XmlWriter::<Vec<u8>>::new(Vec::new());
    match w.close("a").unwrap_err() {
        XmlError::Malformed(m) => assert!(m.contains("no open element"), "{m}"),
        other => panic!("expected malformed error, got {other}"),
    }
}

#[test]
fn control_characters_in_data_are_sanitized_end_to_end() {
    // Database values can carry XML-1.0-invalid control characters; the
    // tagger must never emit them raw. Invalid ones (0x00–0x08, 0x0B, 0x0C,
    // 0x0E–0x1F) are stripped, `\r` is escaped as a character reference,
    // and `\t`/`\n` pass through.
    let mut db = Database::new();
    let mut p = Table::new(
        "Parent",
        Schema::of(&[("pid", DataType::Int), ("pval", DataType::Str)]),
    );
    p.insert_all([row![1i64, "a\u{1}b\rc\td\u{1f}e"]]).unwrap();
    db.add_table(p);
    db.declare_key("Parent", &["pid"]).unwrap();
    let q = sr_rxl::parse("from Parent $p construct <parent><v>$p.pval</v></parent>").unwrap();
    let tree = build(&q, &db).unwrap();
    let q = generate_queries(&tree, &db, PlanSpec::unified(&tree))
        .unwrap()
        .remove(0);
    let rs = execute(&q.plan, &db).unwrap();
    let input = StreamInput {
        rows: RowSource::Materialized(rs.rows.into_iter()),
        schema: rs.schema,
        reduced: q.reduced,
    };
    let (_, out) = tag_streams(&tree, vec![input], Vec::new(), false).unwrap();
    let xml = String::from_utf8(out).unwrap();
    assert!(xml.contains("<v>ab&#13;c\tde</v>"), "{xml}");
}

#[test]
fn out_of_range_reduced_member_is_rejected() {
    // Pre-fix this was an index-out-of-bounds panic while building the
    // per-stream class map — a malformed component must surface as the
    // typed MalformedTree error instead.
    let (tree, db) = setup();
    let (rows, schema, mut reduced) = unified_stream(&tree, &db);
    let bogus = tree.nodes.len() + 7;
    reduced.nodes[0].members.push(bogus);
    let input = StreamInput {
        rows: RowSource::Materialized(rows.into_iter()),
        schema,
        reduced,
    };
    let err = tag_streams(&tree, vec![input], Vec::new(), false).unwrap_err();
    match err {
        TagError::MalformedTree(m) => {
            assert!(m.contains(&format!("references view node {bogus}")), "{m}");
        }
        other => panic!("expected malformed-tree error, got {other}"),
    }
}
