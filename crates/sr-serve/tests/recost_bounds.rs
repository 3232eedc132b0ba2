//! The re-coster's state is keyed by what peers send — a view key carries
//! the request's XPath, and the learned actuals the component SQL with its
//! literals — so both maps must stay bounded however many distinct literals
//! arrive, without changing a single response byte.

use std::sync::Arc;

use sr_engine::Server;
use sr_plan::{ActualStore, RecostConfig, Recoster};
use sr_serve::pipeline::{
    resolve_plan, resolve_xpath, run_query, CancelRegistry, RecostContext, XPathResolution,
};
use sr_serve::{Format, ViewCatalog, ViewRef};

/// Small enough that 2 000 planned requests stay cheap.
const VIEW_RXL: &str = "from Supplier $s construct <supplier> <name>$s.name</name> \
     { from PartSupp $ps where $s.suppkey = $ps.suppkey construct <part>$ps.partkey</part> } \
     </supplier>";

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
        let stats = run_query(
            &engine,
            tree,
            Format::Xml,
            spec,
            &CancelRegistry::new(),
            &mut out,
            None,
        )
        .expect("request runs");
        (out, stats)
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
        let (got, stats) = run(&tree, greedy);
        for (sql, &rows) in stats.sqls.iter().zip(&stats.per_stream_rows) {
            recoster.observe(&view_key, sql, rows);
        }
        let partitioned = resolve_plan(&tree, "partitioned", None).expect("plans");
        assert!(
            got == run(&tree, partitioned).0,
            "{xpath}: response differs"
        );
        assert!(recoster.view_count() <= Recoster::CAP);
        assert!(recoster.actuals().len() <= ActualStore::CAP);
    }
    assert_eq!(recoster.view_count(), Recoster::CAP);
    assert_eq!(recoster.actuals().len(), ActualStore::CAP);
    assert!(recoster.evictions() > 0);
}
