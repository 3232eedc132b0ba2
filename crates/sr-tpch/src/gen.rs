//! Table population.
//!
//! All referential structure matters to the paper's experiments:
//!
//! * every supplier has a nation and every nation a region (so the `1`
//!   labels on the nation/region edges are truthful);
//! * a small fraction of suppliers have **no parts** (the paper's §2:
//!   "there could be suppliers without parts, and they need to appear in
//!   the XML document" — this is what makes `*` edges require outer joins);
//! * lineitems reference existing `(partkey, suppkey)` pairs from PartSupp,
//!   as in real TPC-H, so the part→order chain of Query 1 has realistic
//!   fan-out, and some partsupps have no pending orders.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sr_data::{row, DataError, Database, Row, Value};

use crate::scale::Scale;
use crate::schema::install_schema;
use crate::text;

/// Generate a complete database at the given scale.
pub fn generate(scale: Scale) -> Result<Database, DataError> {
    let mut db = Database::new();
    install_schema(&mut db)?;
    let mut rng = StdRng::seed_from_u64(scale.seed);

    // Region / Nation: fixed lists.
    {
        let t = db.table_mut("Region")?;
        for (i, name) in text::REGIONS.iter().enumerate() {
            t.insert(row![i as i64, *name])?;
        }
    }
    {
        let t = db.table_mut("Nation")?;
        for (i, (name, region)) in text::NATIONS.iter().enumerate() {
            t.insert(row![i as i64, *name, *region as i64])?;
        }
    }

    // Supplier.
    let n_supp = scale.suppliers();
    {
        let t = db.table_mut("Supplier")?;
        for k in 1..=n_supp as i64 {
            let nation = rng.gen_range(0..25i64);
            t.insert(Row::new(vec![
                Value::Int(k),
                Value::from(text::supplier_name(k)),
                Value::from(text::address(&mut rng)),
                Value::Int(nation),
            ]))?;
        }
    }

    // Part.
    let n_part = scale.parts();
    {
        let t = db.table_mut("Part")?;
        for k in 1..=n_part as i64 {
            t.insert(Row::new(vec![
                Value::Int(k),
                Value::from(text::part_name(&mut rng)),
                Value::from(format!("Manufacturer#{}", rng.gen_range(1..6))),
                Value::from(format!(
                    "Brand#{}{}",
                    rng.gen_range(1..6),
                    rng.gen_range(1..6)
                )),
                Value::Int(rng.gen_range(1..51)),
                Value::Float((900.0 + k as f64 % 200.0 + rng.gen_range(0..100) as f64) / 1.0),
            ]))?;
        }
    }

    // PartSupp: each part supplied by ~4 distinct suppliers, but leave ~10%
    // of suppliers part-less so outer joins are observable.
    let partless_cutoff = (n_supp as f64 * 0.9).ceil() as i64;
    let mut pairs: Vec<(i64, i64)> = Vec::with_capacity(scale.partsupps());
    {
        let t = db.table_mut("PartSupp")?;
        for pk in 1..=n_part as i64 {
            let n_links = 4.min(partless_cutoff as usize);
            let mut chosen: Vec<i64> = Vec::with_capacity(n_links);
            while chosen.len() < n_links {
                let sk = rng.gen_range(1..=partless_cutoff);
                if !chosen.contains(&sk) {
                    chosen.push(sk);
                }
            }
            for sk in chosen {
                t.insert(row![pk, sk, rng.gen_range(1..10000i64)])?;
                pairs.push((pk, sk));
            }
        }
    }

    // Customer.
    let n_cust = scale.customers();
    {
        let t = db.table_mut("Customer")?;
        for k in 1..=n_cust as i64 {
            let nation = rng.gen_range(0..25i64);
            t.insert(Row::new(vec![
                Value::Int(k),
                Value::from(text::customer_name(k)),
                Value::from(text::address(&mut rng)),
                Value::Int(nation),
                Value::from(text::phone(&mut rng, nation)),
            ]))?;
        }
    }

    // Orders.
    let n_ord = scale.orders();
    {
        let t = db.table_mut("Orders")?;
        for k in 1..=n_ord as i64 {
            t.insert(Row::new(vec![
                Value::Int(k),
                Value::Int(rng.gen_range(1..=n_cust as i64)),
                Value::from(["O", "F", "P"][rng.gen_range(0..3usize)]),
                Value::Float(rng.gen_range(1000..500000) as f64 / 100.0),
                Value::from(text::order_date(&mut rng)),
            ]))?;
        }
    }

    // LineItem: 1–7 lines per order (avg 4), each referencing an existing
    // PartSupp pair — a *distinct* pair within each order, so
    // (orderkey, partkey, suppkey) is a key (see `install_schema`).
    {
        let t = db.table_mut("LineItem")?;
        for ok in 1..=n_ord as i64 {
            let lines = rng.gen_range(1..=7usize);
            let mut used: Vec<(i64, i64)> = Vec::with_capacity(lines);
            let mut order_rows: Vec<(i64, i64, Row)> = Vec::with_capacity(lines);
            for lno in 1..=lines as i64 {
                let (pk, sk) = pairs[rng.gen_range(0..pairs.len())];
                if used.contains(&(pk, sk)) {
                    continue;
                }
                used.push((pk, sk));
                order_rows.push((
                    pk,
                    sk,
                    Row::new(vec![
                        Value::Int(ok),
                        Value::Int(pk),
                        Value::Int(sk),
                        Value::Int(lno),
                        Value::Int(rng.gen_range(1..50i64)),
                        Value::Float(rng.gen_range(100..100000) as f64 / 100.0),
                    ]),
                ));
            }
            // Clustered-by-primary-key layout: each order's lines are laid
            // out ascending by (partkey, suppkey), so the whole table is
            // physically sorted by its declared clustering
            // (orderkey, partkey, suppkey).
            order_rows.sort_by_key(|(pk, sk, _)| (*pk, *sk));
            for (_, _, row) in order_rows {
                t.insert(row)?;
            }
        }
    }

    db.check_integrity()?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny() -> Database {
        generate(Scale::mb(0.2)).unwrap()
    }

    #[test]
    fn cardinalities_match_scale() {
        let s = Scale::mb(1.0);
        let db = generate(s).unwrap();
        assert_eq!(db.table("Supplier").unwrap().len(), s.suppliers());
        assert_eq!(db.table("Part").unwrap().len(), s.parts());
        assert_eq!(db.table("PartSupp").unwrap().len(), s.partsupps());
        assert_eq!(db.table("Customer").unwrap().len(), s.customers());
        assert_eq!(db.table("Orders").unwrap().len(), s.orders());
        let li = db.table("LineItem").unwrap().len();
        let expected = s.lineitems_expected();
        assert!(
            li > expected / 2 && li < expected * 2,
            "lineitems {li} vs expected ~{expected}"
        );
    }

    #[test]
    fn deterministic_for_same_scale() {
        let a = generate(Scale::mb(0.2)).unwrap();
        let b = generate(Scale::mb(0.2)).unwrap();
        for t in ["Supplier", "Orders", "LineItem"] {
            assert_eq!(
                a.table(t).unwrap().rows(),
                b.table(t).unwrap().rows(),
                "{t} differs"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(Scale::mb(0.2)).unwrap();
        let b = generate(Scale {
            seed: 99,
            ..Scale::mb(0.2)
        })
        .unwrap();
        assert_ne!(
            a.table("Supplier").unwrap().rows(),
            b.table("Supplier").unwrap().rows()
        );
    }

    #[test]
    fn referential_integrity_holds() {
        let db = tiny();
        let supp_keys: HashSet<i64> = db
            .table("Supplier")
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        for r in db.table("PartSupp").unwrap().rows() {
            assert!(supp_keys.contains(&r.get(1).as_int().unwrap()));
        }
        let pairs: HashSet<(i64, i64)> = db
            .table("PartSupp")
            .unwrap()
            .rows()
            .iter()
            .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
            .collect();
        for r in db.table("LineItem").unwrap().rows() {
            let pair = (r.get(1).as_int().unwrap(), r.get(2).as_int().unwrap());
            assert!(
                pairs.contains(&pair),
                "lineitem references missing partsupp {pair:?}"
            );
        }
    }

    #[test]
    fn some_suppliers_have_no_parts() {
        let db = generate(Scale::mb(1.0)).unwrap();
        let with_parts: HashSet<i64> = db
            .table("PartSupp")
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.get(1).as_int().unwrap())
            .collect();
        let total = db.table("Supplier").unwrap().len();
        assert!(
            with_parts.len() < total,
            "expected part-less suppliers ({} of {total} have parts)",
            with_parts.len()
        );
    }

    #[test]
    fn size_roughly_tracks_target() {
        let db = generate(Scale::mb(1.0)).unwrap();
        let bytes = db.byte_size();
        // Target 1 MB; accept a generous band (the wire format differs from
        // TPC-H's on-disk format).
        assert!(
            (300_000..3_000_000).contains(&bytes),
            "1 MB target produced {bytes} bytes"
        );
    }

    #[test]
    fn keys_validated() {
        let db = tiny();
        assert!(db.check_integrity().is_ok());
    }

    #[test]
    fn generated_data_honors_declared_clusterings() {
        let db = generate(Scale::mb(1.0)).unwrap();
        for name in db.table_names().map(str::to_string).collect::<Vec<_>>() {
            let cols: Vec<&str> = db.clustered_by(&name).iter().map(String::as_str).collect();
            assert!(!cols.is_empty(), "{name} has no clustering");
            assert!(
                db.table(&name).unwrap().check_clustered(&cols).is_ok(),
                "{name} not sorted on {cols:?}"
            );
        }
    }
}
