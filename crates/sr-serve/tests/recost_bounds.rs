//! A served `greedy` plan is `genPlan`'s own pick, planned once per view
//! key and memoized. The key is what peers send — it carries the request's
//! XPath — so the memo must stay bounded however many distinct literals
//! arrive, without changing a single response byte.

use std::sync::Arc;

use sr_engine::Server;
use sr_plan::{RecostConfig, Recoster};
use sr_serve::pipeline::{
    resolve_plan, resolve_xpath, run_query, CancelRegistry, RecostContext, XPathResolution,
};
use sr_serve::{serve, Client, Format, ServeConfig, ViewCatalog, ViewRef};

/// Small enough that 2 000 planned requests stay cheap.
const VIEW_RXL: &str = "from Supplier $s construct <supplier> <name>$s.name</name> \
     { from PartSupp $ps where $s.suppkey = $ps.suppkey construct <part>$ps.partkey</part> } \
     </supplier>";

/// Thirty `greedy` requests per view key over the wire: every one runs the
/// same plan, only the first renders SQL to plan it, and every document is
/// the partitioned plan's.
#[test]
fn greedy_requests_run_one_plan_per_view() {
    let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(1.0)).expect("tpch"));
    let part = db.table("Part").expect("Part table");
    let name_col = part.schema().require("name").expect("Part.name");
    let name = part.rows()[part.len() / 3]
        .get(name_col)
        .as_str()
        .expect("Part.name is text")
        .to_string();
    let engine = Arc::new(Server::new(Arc::clone(&db)));
    let mut catalog = ViewCatalog::new();
    catalog.insert("query1", silkroute::query1_tree(&db));
    let handle = serve(Arc::clone(&engine), catalog, ServeConfig::default()).expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let rendered = || engine.metrics().counter("oracle.sql_rendered").get();

    let part_path = format!("/supplier/part[name = \"{name}\"]");
    for xpath in [None, Some(part_path.as_str())] {
        let mut request = |plan: &str| {
            client
                .query_with_xpath(Format::Xml, ViewRef::Named("query1".into()), plan, xpath)
                .unwrap_or_else(|e| panic!("{xpath:?} {plan}: {e}"))
        };
        let partitioned = request("partitioned").document;
        let mut got = request("greedy");
        let (streams, planned) = (got.stats.streams, rendered());
        for i in 0..30 {
            if i > 0 {
                got = request("greedy");
            }
            assert_eq!(
                got.stats.streams, streams,
                "{xpath:?} request {i}: the plan changed"
            );
            assert_eq!(rendered(), planned, "{xpath:?} request {i}: SQL rendered");
            assert!(
                got.document == partitioned,
                "{xpath:?} request {i}: document differs from the partitioned plan's"
            );
        }
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn distinct_literals_keep_recoster_maps_bounded() {
    let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(0.05)).expect("tpch"));
    let engine = Server::new(Arc::clone(&db));
    let view =
        sr_serve::pipeline::resolve_view(&ViewCatalog::new(), &db, &ViewRef::Rxl(VIEW_RXL.into()))
            .expect("view resolves");
    let recoster = Recoster::new(RecostConfig::default());
    let run = |tree: &sr_viewtree::ViewTree, spec| {
        let mut out = Vec::new();
        run_query(
            &engine,
            tree,
            Format::Xml,
            spec,
            &CancelRegistry::new(),
            &mut out,
            None,
        )
        .expect("request runs");
        out
    };
    for k in 0..2_000 {
        let xpath = format!("/supplier/part[. < {k}]");
        let tree = match resolve_xpath(Arc::clone(&view), Some(&xpath)) {
            Ok(XPathResolution::Pruned { tree, .. }) => tree,
            _ => panic!("{xpath} prunes the view"),
        };
        let view_key = format!("rxl:{VIEW_RXL}#xpath:{xpath}");
        let ctx = RecostContext {
            recoster: &recoster,
            view_key: &view_key,
            engine: &engine,
        };
        let greedy = resolve_plan(&tree, "greedy", Some(&ctx)).expect("plans");
        let partitioned = resolve_plan(&tree, "partitioned", None).expect("plans");
        assert!(
            run(&tree, greedy) == run(&tree, partitioned),
            "{xpath}: response differs"
        );
        assert!(recoster.view_count() <= Recoster::CAP);
    }
    assert_eq!(recoster.view_count(), Recoster::CAP);
    assert!(recoster.evictions() > 0);
}
