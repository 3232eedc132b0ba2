//! Database scaling.
//!
//! TPC-H at scale factor 1 (1 GB) has 10 000 suppliers, 200 000 parts,
//! 800 000 partsupps, 150 000 customers, 1 500 000 orders and ~6 000 000
//! lineitems. The paper's Config A is 1 MB and Config B is 100 MB; we keep
//! the same per-MB ratios so key/foreign-key fan-outs (suppliers per nation,
//! parts per supplier, orders per part, …) are faithful at any size.

/// A target database size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Target size in megabytes (TPC-H SF × 1000).
    pub mb: f64,
    /// RNG seed; two equal `Scale`s generate identical databases.
    pub seed: u64,
}

impl Scale {
    /// A scale of `mb` megabytes with the default seed.
    pub fn mb(mb: f64) -> Scale {
        Scale {
            mb,
            seed: 0x51_1c_60_07,
        }
    }

    fn scaled(&self, per_mb: f64, min: usize) -> usize {
        ((per_mb * self.mb).round() as usize).max(min)
    }

    /// Number of suppliers.
    pub fn suppliers(&self) -> usize {
        self.scaled(10.0, 2)
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.scaled(200.0, 5)
    }

    /// Number of partsupp rows (4 suppliers per part in TPC-H).
    pub fn partsupps(&self) -> usize {
        self.parts() * 4
    }

    /// Number of customers.
    pub fn customers(&self) -> usize {
        self.scaled(150.0, 3)
    }

    /// Number of orders.
    pub fn orders(&self) -> usize {
        self.scaled(1500.0, 10)
    }

    /// Expected number of lineitems (orders × avg 4 lines).
    pub fn lineitems_expected(&self) -> usize {
        self.orders() * 4
    }

    /// Number of nations (fixed, as in TPC-H).
    pub fn nations(&self) -> usize {
        25
    }

    /// Number of regions (fixed, as in TPC-H).
    pub fn regions(&self) -> usize {
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_a_matches_tpch_ratios() {
        let s = Scale::mb(1.0);
        assert_eq!(s.suppliers(), 10);
        assert_eq!(s.parts(), 200);
        assert_eq!(s.partsupps(), 800);
        assert_eq!(s.customers(), 150);
        assert_eq!(s.orders(), 1500);
        assert_eq!(s.nations(), 25);
        assert_eq!(s.regions(), 5);
    }

    #[test]
    fn scaling_is_linear() {
        let a = Scale::mb(1.0);
        let b = Scale::mb(10.0);
        assert_eq!(b.suppliers(), 10 * a.suppliers());
        assert_eq!(b.orders(), 10 * a.orders());
    }

    #[test]
    fn tiny_scales_have_minimums() {
        let s = Scale::mb(0.001);
        assert!(s.suppliers() >= 2);
        assert!(s.parts() >= 5);
        assert!(s.orders() >= 10);
    }

    #[test]
    fn same_scale_same_seed() {
        assert_eq!(Scale::mb(1.0), Scale::mb(1.0));
    }
}
