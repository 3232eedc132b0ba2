//! Executor edge cases: empty inputs, degenerate joins, sort stability,
//! and statements outside the SQL subset.

use std::sync::Arc;

use sr_data::{row, DataType, Database, Row, Schema, Table, Value};
use sr_engine::{execute, CmpOp, Expr, JoinKind, Plan, Predicate, Server};

fn db() -> Database {
    let mut db = Database::new();
    let mut a = Table::new(
        "A",
        Schema::of(&[("id", DataType::Int), ("g", DataType::Int)]),
    );
    a.insert_all([row![1i64, 9i64], row![2i64, 9i64], row![3i64, 7i64]])
        .unwrap();
    db.add_table(a);
    db.add_table(Table::new(
        "Empty",
        Schema::of(&[("id", DataType::Int), ("x", DataType::Str)]),
    ));
    db
}

#[test]
fn scans_of_empty_tables() {
    let db = db();
    let rs = execute(&Plan::scan("Empty", "e"), &db).unwrap();
    assert_eq!(rs.len(), 0);
    assert_eq!(rs.schema.arity(), 2);
}

#[test]
fn inner_join_with_empty_side_is_empty() {
    let db = db();
    for (l, r) in [("A", "Empty"), ("Empty", "A")] {
        let p = Plan::scan(l, "l").join(
            Plan::scan(r, "r"),
            JoinKind::Inner,
            vec![("l_id".into(), "r_id".into())],
        );
        assert_eq!(execute(&p, &db).unwrap().len(), 0, "{l} ⋈ {r}");
    }
}

#[test]
fn left_outer_join_with_empty_right_pads_everything() {
    let db = db();
    let p = Plan::scan("A", "a").join(
        Plan::scan("Empty", "e"),
        JoinKind::LeftOuter,
        vec![("a_id".into(), "e_id".into())],
    );
    let rs = execute(&p, &db).unwrap();
    assert_eq!(rs.len(), 3);
    assert!(rs
        .rows
        .iter()
        .all(|r| r.get(2).is_null() && r.get(3).is_null()));
}

#[test]
fn cross_join_left_outer_with_empty_right() {
    let db = db();
    let p = Plan::scan("A", "a").join(Plan::scan("Empty", "e"), JoinKind::LeftOuter, vec![]);
    let rs = execute(&p, &db).unwrap();
    assert_eq!(rs.len(), 3, "every left row padded once");
}

#[test]
fn left_outer_join_against_empty_build_side() {
    // The hash join builds on the right input. A right side whose join keys
    // are all NULL yields an *empty build table* even though the input has
    // rows — every left row must still be padded exactly once.
    let mut db = db();
    let mut n = Table::new(
        "NullKeys",
        Schema::new(vec![
            sr_data::Column::nullable("id", DataType::Int),
            sr_data::Column::nullable("x", DataType::Str),
        ])
        .unwrap(),
    );
    n.insert(Row::new(vec![Value::Null, Value::str("a")]))
        .unwrap();
    n.insert(Row::new(vec![Value::Null, Value::str("b")]))
        .unwrap();
    db.add_table(n);
    let p = Plan::scan("A", "a").join(
        Plan::scan("NullKeys", "n"),
        JoinKind::LeftOuter,
        vec![("a_id".into(), "n_id".into())],
    );
    let rs = execute(&p, &db).unwrap();
    assert_eq!(rs.len(), 3, "one padded row per left row");
    assert!(rs
        .rows
        .iter()
        .all(|r| r.get(2).is_null() && r.get(3).is_null()));
    // Inner join over the same empty build side matches nothing.
    let p = Plan::scan("A", "a").join(
        Plan::scan("NullKeys", "n"),
        JoinKind::Inner,
        vec![("a_id".into(), "n_id".into())],
    );
    assert!(execute(&p, &db).unwrap().is_empty());
}

#[test]
fn null_join_keys_never_match_mixed_with_values() {
    // NULL = NULL is not true in SQL: only the non-NULL key pairs join,
    // whichever side the NULLs are on.
    let mut db = Database::new();
    for name in ["L", "R"] {
        let mut t = Table::new(
            name,
            Schema::new(vec![
                sr_data::Column::nullable("k", DataType::Int),
                sr_data::Column::nullable("tag", DataType::Str),
            ])
            .unwrap(),
        );
        t.insert(Row::new(vec![Value::Null, Value::str("null")]))
            .unwrap();
        t.insert(row![1i64, format!("{name}-1")]).unwrap();
        t.insert(row![2i64, format!("{name}-2")]).unwrap();
        db.add_table(t);
    }
    let inner = Plan::scan("L", "l").join(
        Plan::scan("R", "r"),
        JoinKind::Inner,
        vec![("l_k".into(), "r_k".into())],
    );
    let rs = execute(&inner, &db).unwrap();
    assert_eq!(rs.len(), 2, "only k=1 and k=2 pair up");
    assert!(rs.rows.iter().all(|r| !r.get(0).is_null()));
    let outer = Plan::scan("L", "l").join(
        Plan::scan("R", "r"),
        JoinKind::LeftOuter,
        vec![("l_k".into(), "r_k".into())],
    );
    let rs = execute(&outer, &db).unwrap();
    assert_eq!(rs.len(), 3, "NULL-keyed left row padded, not matched");
    let padded: Vec<_> = rs.rows.iter().filter(|r| r.get(2).is_null()).collect();
    assert_eq!(padded.len(), 1);
    assert!(
        padded[0].get(0).is_null(),
        "the padded row is the NULL-keyed one"
    );
}

#[test]
fn timeout_mid_plan_leaves_no_partial_stream() {
    // A query that trips the timeout must surface as an error — never as a
    // truncated TupleStream the tagger could silently consume.
    let server = Server::new(Arc::new(db())).with_timeout(std::time::Duration::ZERO);
    match server.execute_sql("SELECT a.id AS id FROM A a ORDER BY id") {
        Err(sr_engine::EngineError::Timeout { .. }) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    // Multi-query (mid-plan) execution, every stream submitted before any
    // is read: each reports the timeout from its first read; none comes
    // back partially decoded.
    let streams = [
        "SELECT a.id AS id FROM A a ORDER BY id",
        "SELECT a.g AS g FROM A a ORDER BY g",
    ]
    .map(|q| server.execute_sql_streaming(q).unwrap());
    for mut stream in streams {
        let first = stream.next_chunk();
        assert!(
            matches!(first, Err(sr_engine::EngineError::Timeout { .. })),
            "expected timeout, got {first:?}"
        );
        assert_eq!(stream.rows_decoded, 0);
    }
    // The registry counted each trip.
    assert_eq!(server.metrics().snapshot().counter("server.timeouts"), 3);
}

#[test]
fn sort_is_stable() {
    // Two rows with equal sort key keep their input order.
    let mut db = Database::new();
    let mut t = Table::new(
        "T",
        Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]),
    );
    t.insert_all([
        row![1i64, "first"],
        row![2i64, "other"],
        row![1i64, "second"],
    ])
    .unwrap();
    db.add_table(t);
    let p = Plan::scan("T", "t").sort(vec!["t_k".into()]);
    let rs = execute(&p, &db).unwrap();
    assert_eq!(rs.rows[0].get(1), &Value::str("first"));
    assert_eq!(rs.rows[1].get(1), &Value::str("second"));
    assert_eq!(rs.rows[2].get(1), &Value::str("other"));
}

#[test]
fn outer_union_of_empty_branches() {
    let db = db();
    let a = Plan::scan("Empty", "e1").project(vec![("k".into(), Expr::col("e1_id"))]);
    let b = Plan::scan("Empty", "e2").project(vec![("k".into(), Expr::col("e2_id"))]);
    let u = Plan::OuterUnion { inputs: vec![a, b] };
    assert_eq!(execute(&u, &db).unwrap().len(), 0);
}

#[test]
fn filter_that_matches_nothing() {
    let db = db();
    let p = Plan::scan("A", "a").filter(vec![Predicate::new(
        Expr::col("a_id"),
        CmpOp::Gt,
        Expr::lit(100i64),
    )]);
    let rs = execute(&p, &db).unwrap();
    assert!(rs.is_empty());
    // Downstream operators cope with the empty input.
    let sorted = Plan::scan("A", "a")
        .filter(vec![Predicate::new(
            Expr::col("a_id"),
            CmpOp::Gt,
            Expr::lit(100i64),
        )])
        .sort(vec!["a_id".into()]);
    assert!(execute(&sorted, &db).unwrap().is_empty());
}

#[test]
fn distinct_of_constant_rows() {
    let db = db();
    let p = Plan::Distinct {
        input: Box::new(Plan::scan("A", "a").project(vec![("one".into(), Expr::lit(1i64))])),
    };
    assert_eq!(execute(&p, &db).unwrap().len(), 1);
}

#[test]
fn with_clause_is_a_typed_parse_error() {
    // The SQL subset is what the generator emits, and it emits no WITH.
    let server = Server::new(Arc::new(db()));
    let sql = "WITH c AS (SELECT a.id AS id FROM A a) SELECT x.id AS id FROM c x";
    let Err(err) = server.execute_sql(sql) else {
        panic!("WITH is not in the subset");
    };
    assert!(
        matches!(err, sr_engine::EngineError::Parse { offset: 0, .. }),
        "{err:?}"
    );
}

#[test]
fn server_rejects_oversized_nonsense_gracefully() {
    let server = Server::new(Arc::new(db()));
    // Deep nesting of parens should error, not stack-overflow on this size.
    let mut q = String::from("SELECT a.id AS id FROM A a WHERE a.id = ");
    q.push_str(&"1".repeat(18));
    assert!(server.execute_sql(&q).is_ok(), "long literal parses");
    assert!(server.execute_sql("SELECT").is_err());
    assert!(server.execute_sql("").is_err());
}

#[test]
fn rows_share_storage_cheaply() {
    // Cloning a Row must not clone the cell data (Arc-backed).
    let r = Row::new(vec![Value::str("payload"), Value::Int(1)]);
    let r2 = r.clone();
    assert_eq!(r, r2);
    if let (Value::Str(a), Value::Str(b)) = (r.get(0), r2.get(0)) {
        assert!(
            std::sync::Arc::ptr_eq(a, b),
            "string payload must be shared"
        );
    } else {
        panic!("expected strings");
    }
}
