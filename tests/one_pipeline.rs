//! One request pipeline, one output: every entry point runs the same
//! components the same way. The library (`materialize`, `query_view`) and
//! the socket's request function (`run_query`) publish byte-identical
//! documents from identical component SQL and row counts, the
//! CLI and the wire accept and reject the same plan-spec strings, and an
//! XPath moves the `query.*` counters alike in process and over the wire.

use std::process::Command;
use std::sync::Arc;

use silkroute::{materialize, query1_tree, query2_tree, query_view, PlanSpec, Server};
use sr_plan::{RecostConfig, Recoster};
use sr_serve::pipeline::{resolve_plan, resolve_xpath, run_query, CancelRegistry, RecostContext};
use sr_serve::{Client, Format, Response, ServeConfig, ViewCatalog, ViewRef, XPathResolution};

fn db(mb: f64) -> Arc<sr_data::Database> {
    Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(mb)).expect("tpch"))
}

/// The document carried by an XML response's chunk frames.
fn document(mut frames: &[u8]) -> Vec<u8> {
    let mut doc = Vec::new();
    while let Some(resp) = sr_serve::read_response(&mut frames).expect("frame") {
        match resp {
            Response::Chunk { data, .. } => doc.extend_from_slice(&data),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    doc
}

#[test]
fn library_and_socket_publish_identical_documents() {
    let server = Server::new(db(0.1));
    let recoster = Recoster::new(RecostConfig::default());
    let views = [
        (
            "query1",
            query1_tree(server.database()),
            "/supplier[name = \"Supplier#000000001\"]/part",
        ),
        (
            "query2",
            query2_tree(server.database()),
            "/supplier/order[orderkey < 300]",
        ),
    ];
    for (name, tree, selective) in views {
        let tree = Arc::new(tree);
        for xpath in [None, Some(selective)] {
            let pruned = match resolve_xpath(Arc::clone(&tree), xpath) {
                Ok(XPathResolution::Full(t) | XPathResolution::Pruned { tree: t, .. }) => t,
                _ => panic!("{name} {xpath:?} does not compose"),
            };
            let view_key = format!("{name} {xpath:?}");
            for plan in ["unified", "partitioned", "outer-union", "greedy", "edges:5"] {
                let what = format!("{name} {xpath:?} {plan}");
                let ctx = RecostContext {
                    recoster: &recoster,
                    view_key: &view_key,
                    engine: &server,
                };
                let spec = resolve_plan(&pruned, plan, Some(&ctx)).expect("plan spec");

                let mut wire = Vec::new();
                let cancels = CancelRegistry::new();
                let served = run_query(
                    &server,
                    &pruned,
                    Format::Xml,
                    spec,
                    &cancels,
                    &mut wire,
                    None,
                )
                .unwrap_or_else(|e| panic!("{what}: {e}"));

                let (m, doc) = match xpath {
                    None => {
                        materialize(&tree, &server, spec, Vec::new()).map_err(|e| e.to_string())
                    }
                    Some(p) => query_view(&tree, &server, p, |_| spec, Vec::new())
                        .map(|(o, doc)| (o.materialization.expect("the path runs SQL"), doc))
                        .map_err(|e| e.to_string()),
                }
                .unwrap_or_else(|e| panic!("{what}: {e}"));

                assert!(!doc.is_empty(), "{what}: empty document");
                assert!(
                    document(&wire) == doc,
                    "{what}: library and socket documents differ"
                );
                assert_eq!(served.sqls, m.sql, "{what}: component SQL differs");
                assert_eq!(served.done.tuples, m.stats.tuples, "{what}: rows differ");
            }
        }
    }
}

#[test]
fn cli_and_wire_accept_the_same_plan_specs() {
    let server = Server::new(db(0.05));
    let tree = query1_tree(server.database());
    let recoster = Recoster::new(RecostConfig::default());
    let ctx = RecostContext {
        recoster: &recoster,
        view_key: "query1",
        engine: &server,
    };
    let mut accepted = 0;
    for spec in [
        "",
        "unified",
        "partitioned",
        "outer-union",
        "greedy",
        "edges:0",
        "edges:37",
        "edges:",
        "edges:x",
        "edges:-1",
        "Unified",
        "bogus",
    ] {
        let wire = resolve_plan(&tree, spec, Some(&ctx)).is_ok();
        let cli = Command::new(env!("CARGO_BIN_EXE_silkroute"))
            .args(["sql", "--mb", "0.05", "--plan", spec, "query1"])
            .output()
            .expect("run the CLI");
        assert_eq!(
            cli.status.success(),
            wire,
            "{spec:?}: CLI {} vs wire {wire}: {}",
            cli.status,
            String::from_utf8_lossy(&cli.stderr)
        );
        accepted += usize::from(wire);
    }
    assert_eq!(accepted, 7, "the grammar's seven good spellings");
}

#[test]
fn xpath_counters_move_alike_in_process_and_over_the_wire() {
    let db = db(0.05);
    // Pruned, statically empty (NoMatch), and unsupported: a predicate
    // across a `*` edge.
    let paths = ["/supplier/name", "/widget", "/supplier[part = \"x\"]"];

    let local = Server::new(Arc::clone(&db));
    let tree = query1_tree(&db);
    let in_process: Vec<bool> = paths
        .iter()
        .map(|p| query_view(&tree, &local, p, PlanSpec::unified, Vec::new()).is_ok())
        .collect();

    let engine = Arc::new(Server::new(Arc::clone(&db)));
    let mut catalog = ViewCatalog::new();
    catalog.insert("query1", query1_tree(&db));
    let handle =
        sr_serve::serve(Arc::clone(&engine), catalog, ServeConfig::default()).expect("bind serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let over_the_wire: Vec<bool> = paths
        .iter()
        .map(|p| {
            client
                .query_xpath(ViewRef::Named("query1".into()), "unified", p)
                .is_ok()
        })
        .collect();
    drop(client);
    handle.shutdown();

    assert_eq!(in_process, [true, true, false]);
    assert_eq!(over_the_wire, in_process);
    let (l, w) = (local.metrics().snapshot(), engine.metrics().snapshot());
    for counter in ["query.view_hits", "query.pruned_nodes"] {
        assert_eq!(l.counter(counter), w.counter(counter), "{counter}");
    }
    assert_eq!(
        l.counter("query.view_hits"),
        2,
        "an unsupported path is no hit"
    );
}
