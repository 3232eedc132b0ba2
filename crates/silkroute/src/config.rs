//! The cost model's parameters for this engine.

use sr_plan::CostParams;
use sr_tpch::Scale;

/// Cost-model parameters calibrated for `sr-engine` cost units.
///
/// The paper's `a = 100, b = 1` carry over unchanged (our estimator's
/// `evaluation_cost` is row-granular like a commercial optimizer's and
/// `data_size` is bytes). The thresholds scale with the database size: an
/// edge is *mandatory* when combining saves more than ~half a component
/// query's typical cost, *optional* when the penalty is below a small
/// fraction of it.
pub fn calibrated_params(scale: Scale) -> CostParams {
    let mb = scale.mb.max(0.01);
    CostParams {
        a: 100.0,
        b: 1.0,
        t1: -60_000.0 * mb,
        t2: 6_000.0 * mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_scale_with_size() {
        let small = calibrated_params(Scale::mb(1.0));
        let big = calibrated_params(Scale::mb(10.0));
        assert_eq!(small.a, 100.0);
        assert_eq!(small.b, 1.0);
        assert!(big.t1 < small.t1);
        assert!(big.t2 > small.t2);
    }
}
