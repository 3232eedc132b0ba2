//! Deterministic fault injection for the query pipeline.
//!
//! The middle-ware's target RDBMS is a machine it "does not control" (§1):
//! workers die, queries stall, connections flake. This module lets tests
//! and the CLI inject exactly those failures at fixed, named sites in the
//! execution pipeline — *deterministically*, so a fault matrix is
//! reproducible run to run:
//!
//! * [`FaultSite::Scan`] — inside the executor, as a base-table scan starts
//!   (models the RDBMS failing mid-query);
//! * [`FaultSite::Encode`] — as a result chunk is wire-encoded (models a
//!   marshalling failure);
//! * [`FaultSite::Send`] — as a chunk is handed to the streaming channel
//!   (models the connection to the client breaking).
//!
//! A [`FaultRule`] picks a site, a [`FaultKind`] (panic, fixed delay, or a
//! typed [`EngineError::Transient`]) and a trigger: the n-th hit of the
//! site (`#n`), a seeded pseudo-random probability (`%p`), or every hit.
//! Rules parse from a compact spec string (`panic@scan#2`,
//! `delay50@send`, `transient@scan%0.5`) accepted by the CLI `--fault`
//! flag and the `SR_FAULTS` environment variable; the probability stream
//! is an xorshift PRNG seeded from the plan (`SR_FAULT_SEED`), never from
//! ambient entropy.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::error::EngineError;

/// Pipeline location where a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Executor base-table scan (fires once per scan operator).
    Scan,
    /// Wire-encoding of a result chunk.
    Encode,
    /// Handing a chunk to the streaming channel.
    Send,
}

impl FaultSite {
    const ALL: [FaultSite; 3] = [FaultSite::Scan, FaultSite::Encode, FaultSite::Send];

    fn index(self) -> usize {
        match self {
            FaultSite::Scan => 0,
            FaultSite::Encode => 1,
            FaultSite::Send => 2,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultSite::Scan => "scan",
            FaultSite::Encode => "encode",
            FaultSite::Send => "send",
        };
        write!(f, "{s}")
    }
}

impl FromStr for FaultSite {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "scan" => Ok(FaultSite::Scan),
            "encode" => Ok(FaultSite::Encode),
            "send" => Ok(FaultSite::Send),
            other => Err(format!("unknown fault site: {other:?} (scan|encode|send)")),
        }
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the site — exercises panic isolation.
    Panic,
    /// Sleep for the given duration — exercises deadlines and stalls.
    Delay(Duration),
    /// Return [`EngineError::Transient`] — exercises retry.
    Transient,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Delay(d) => write!(f, "delay{}", d.as_millis()),
            FaultKind::Transient => write!(f, "transient"),
        }
    }
}

/// When a rule fires, relative to the per-site hit counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// On every hit of the site.
    Always,
    /// Only on the n-th hit (1-based) of the site.
    Nth(u64),
    /// On each hit with this probability, drawn from the seeded PRNG.
    Prob(f64),
}

/// One injection rule: fire `kind` at `site` when `trigger` says so.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Where the fault fires.
    pub site: FaultSite,
    /// What the fault does.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: FaultTrigger,
}

impl FaultRule {
    /// Parse one rule from the `kind@site[#n|%p]` spec syntax.
    pub fn parse(spec: &str) -> Result<FaultRule, String> {
        let (kind_s, rest) = spec
            .split_once('@')
            .ok_or_else(|| format!("fault rule {spec:?} lacks '@site'"))?;
        let kind = if kind_s == "panic" {
            FaultKind::Panic
        } else if kind_s == "transient" {
            FaultKind::Transient
        } else if let Some(ms) = kind_s.strip_prefix("delay") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad delay millis in {spec:?}"))?;
            FaultKind::Delay(Duration::from_millis(ms))
        } else {
            return Err(format!(
                "unknown fault kind {kind_s:?} (panic|delay<ms>|transient)"
            ));
        };
        let (site_s, trigger) = if let Some((site, n)) = rest.split_once('#') {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad hit index in {spec:?}"))?;
            if n == 0 {
                return Err(format!("hit index in {spec:?} is 1-based"));
            }
            (site, FaultTrigger::Nth(n))
        } else if let Some((site, p)) = rest.split_once('%') {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("bad probability in {spec:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability in {spec:?} outside [0, 1]"));
            }
            (site, FaultTrigger::Prob(p))
        } else {
            (rest, FaultTrigger::Always)
        };
        Ok(FaultRule {
            site: site_s.parse()?,
            kind,
            trigger,
        })
    }
}

/// A parsed, seeded set of fault rules — what the CLI `--fault` flags or
/// `SR_FAULTS` build, and what [`crate::server::Server::with_faults`]
/// consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed for probabilistic triggers.
    pub seed: u64,
    /// Rules, all active simultaneously.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parse a comma-separated rule list (see [`FaultRule::parse`]).
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let rules = spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| FaultRule::parse(s.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        if rules.is_empty() {
            return Err("empty fault spec".into());
        }
        Ok(FaultPlan { seed, rules })
    }

    /// Build a plan from `SR_FAULTS` / `SR_FAULT_SEED` (seed defaults to
    /// 0). Returns `None` when `SR_FAULTS` is unset, `Err` on a malformed
    /// spec — a typo must not silently disable the matrix.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        let Ok(spec) = std::env::var("SR_FAULTS") else {
            return Ok(None);
        };
        let seed = match std::env::var("SR_FAULT_SEED") {
            Ok(s) => s.parse().map_err(|_| format!("bad SR_FAULT_SEED: {s:?}"))?,
            Err(_) => 0,
        };
        FaultPlan::parse(&spec, seed).map(Some)
    }
}

/// The runtime injector: shared by every execution path of a server,
/// keeping one hit counter per site and one seeded PRNG for probability
/// triggers. [`FaultInjector::hit`] is called at each site; with no rules
/// matching it costs one relaxed atomic increment.
#[derive(Debug)]
pub struct FaultInjector {
    rules: Vec<FaultRule>,
    hits: [AtomicU64; 3],
    fired: AtomicU64,
    rng: Mutex<u64>,
}

impl FaultInjector {
    /// Build an injector from a plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            rules: plan.rules,
            hits: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            fired: AtomicU64::new(0),
            // xorshift state must be non-zero.
            rng: Mutex::new(plan.seed | 1),
        }
    }

    /// Total faults fired so far (all kinds).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Hit counts per site, in `FaultSite::ALL` order — lets tests
    /// assert a site was actually reached.
    pub fn hits(&self) -> Vec<(FaultSite, u64)> {
        FaultSite::ALL
            .iter()
            .map(|&s| (s, self.hits[s.index()].load(Ordering::Relaxed)))
            .collect()
    }

    fn next_unit(&self) -> f64 {
        let mut s = self.rng.lock().unwrap_or_else(|p| p.into_inner());
        // xorshift64* — deterministic, seed-stable across platforms.
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Register a hit of `site`; fire any matching rule. May panic
    /// ([`FaultKind::Panic`]), sleep ([`FaultKind::Delay`]), or return a
    /// typed transient error ([`FaultKind::Transient`]).
    pub fn hit(&self, site: FaultSite) -> Result<(), EngineError> {
        let n = self.hits[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        for rule in &self.rules {
            if rule.site != site {
                continue;
            }
            let fire = match rule.trigger {
                FaultTrigger::Always => true,
                FaultTrigger::Nth(k) => n == k,
                FaultTrigger::Prob(p) => self.next_unit() < p,
            };
            if !fire {
                continue;
            }
            self.fired.fetch_add(1, Ordering::Relaxed);
            match rule.kind {
                FaultKind::Panic => panic!("injected fault: panic at {site} (hit {n})"),
                FaultKind::Delay(d) => std::thread::sleep(d),
                FaultKind::Transient => {
                    return Err(EngineError::Transient(format!(
                        "injected fault at {site} (hit {n})"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rule_variants() {
        assert_eq!(
            FaultRule::parse("panic@scan#2").unwrap(),
            FaultRule {
                site: FaultSite::Scan,
                kind: FaultKind::Panic,
                trigger: FaultTrigger::Nth(2),
            }
        );
        assert_eq!(
            FaultRule::parse("delay50@send").unwrap(),
            FaultRule {
                site: FaultSite::Send,
                kind: FaultKind::Delay(Duration::from_millis(50)),
                trigger: FaultTrigger::Always,
            }
        );
        assert_eq!(
            FaultRule::parse("transient@encode%0.25").unwrap(),
            FaultRule {
                site: FaultSite::Encode,
                kind: FaultKind::Transient,
                trigger: FaultTrigger::Prob(0.25),
            }
        );
        for bad in [
            "panic",
            "panic@disk",
            "zap@scan",
            "panic@scan#0",
            "delayx@scan",
            "panic@scan%2",
        ] {
            assert!(FaultRule::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let inj = FaultInjector::new(FaultPlan::parse("transient@scan#2", 0).unwrap());
        assert!(inj.hit(FaultSite::Scan).is_ok());
        assert!(matches!(
            inj.hit(FaultSite::Scan),
            Err(EngineError::Transient(_))
        ));
        assert!(inj.hit(FaultSite::Scan).is_ok());
        assert!(inj.hit(FaultSite::Encode).is_ok(), "other sites unaffected");
        assert_eq!(inj.fired(), 1);
        assert_eq!(inj.hits()[0], (FaultSite::Scan, 3));
    }

    #[test]
    fn prob_trigger_is_seed_deterministic() {
        let run = |seed| {
            let inj = FaultInjector::new(FaultPlan::parse("transient@send%0.5", seed).unwrap());
            (0..64)
                .map(|_| inj.hit(FaultSite::Send).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert_ne!(run(7), run(8), "different seed, different sequence");
        let fired = run(7).iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&fired), "p=0.5 fired {fired}/64");
    }

    #[test]
    #[should_panic(expected = "injected fault: panic at scan")]
    fn panic_rule_panics() {
        let inj = FaultInjector::new(FaultPlan::parse("panic@scan", 0).unwrap());
        let _ = inj.hit(FaultSite::Scan);
    }
}
