//! Certification identity: every health report the engine attaches or
//! `certify` returns must equal, bit for bit, the triplet re-assembly
//! oracle — residual, condition estimate, pivot growth and grade.
//!
//! * Standalone `certify` (throwaway device-only plan, fresh
//!   factorization) over every named circuit the paper's experiments run
//!   plus three scaling-family circuits, at the zero vector, at the
//!   engine's certified point and at seeded random points.
//! * Warm solves (`DcEngine::solve_warm`), which certify through the
//!   chain's own plan and replay its recorded LU pattern where the fresh
//!   pivots match, over the same circuits and then over a jittered copy
//!   warm-started from the first answer with the first solve's pattern.
//! * Service jobs: each warm job over jittered copies of the 33 Table 3
//!   circuits carries a report equal to standalone `certify` and the
//!   oracle at its answer.

#[path = "../crates/core/tests/support/certify_oracle.rs"]
mod certify_oracle;

use certify_oracle::assert_same_report;
use rand::prelude::*;
use rlpta::circuits::families::{mos_adder, mos_inverter_chain, mos_voter};
use rlpta::circuits::{fig5, stress, table2, table3, training_corpus};
use rlpta::core::{certify, DcEngine, JobTicket, SimService, Solution};
use rlpta::devices::Device;
use rlpta::linalg::LuWorkspace;
use rlpta::mna::Circuit;

fn corpus() -> Vec<(String, Circuit)> {
    let mut v: Vec<(String, Circuit)> = [fig5(), table2(), table3(), training_corpus(), stress()]
        .into_iter()
        .flatten()
        .map(|b| (b.name, b.circuit))
        .collect();
    assert_eq!(v.len(), 118, "suite sizes changed");
    v.push(("mos_adder32".into(), mos_adder("adder", 32)));
    v.push(("mos_voter256".into(), mos_voter("voter", 256)));
    v.push((
        "mos_inverter_chain100".into(),
        mos_inverter_chain("chain", 100),
    ));
    v
}

/// Copy of `circuit` with every independent source scaled by its own
/// factor in `1 ± 5%` — the parameter jitter of a Monte Carlo sweep.
fn jittered(circuit: &Circuit, rng: &mut StdRng) -> Circuit {
    let sources: Vec<(String, f64)> = circuit
        .devices()
        .iter()
        .filter_map(|d| match d {
            Device::Vsource(v) => Some((v.name().to_string(), v.dc())),
            Device::Isource(i) => Some((i.name().to_string(), i.dc())),
            _ => None,
        })
        .collect();
    let mut out = circuit.clone();
    for (name, dc) in sources {
        assert!(out.set_source_dc(&name, dc * rng.gen_range(0.95..1.05)));
    }
    out
}

/// `certify` and the attached report (when given) against the oracle.
fn check(c: &Circuit, x: &[f64], attached: Option<&Solution>, label: &str) {
    let want = certify_oracle::certify(c, x);
    assert_same_report(&certify(c, x), &want, label);
    if let Some(sol) = attached {
        let health = sol.health.as_ref().expect("engine solutions are graded");
        assert_same_report(health, &want, &format!("{label} (attached)"));
    }
}

#[test]
fn standalone_certify_matches_the_triplet_oracle() {
    let engine = DcEngine::builder().build();
    let mut rng = StdRng::seed_from_u64(2022);
    let mut certified = 0;
    for (name, c) in &corpus() {
        check(c, &vec![0.0; c.dim()], None, &format!("{name} x=0"));
        let sol = engine
            .solve(c)
            .unwrap_or_else(|e| panic!("{name} solves: {e}"));
        check(c, &sol.x, Some(&sol), &format!("{name} certified point"));
        certified += 1;
        for scale in [0.1, 1.0, 10.0] {
            let x: Vec<f64> = (0..c.dim())
                .map(|_| rng.gen_range(-scale..=scale))
                .collect();
            check(c, &x, None, &format!("{name} scale {scale}"));
        }
    }
    assert_eq!(certified, 121);
}

#[test]
fn warm_path_reports_match_the_triplet_oracle() {
    let engine = DcEngine::builder().build();
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    for (name, c) in &corpus() {
        let mut ws = LuWorkspace::new();
        let first = engine
            .solve_warm(c, None, &mut ws)
            .unwrap_or_else(|e| panic!("{name} solves: {e}"));
        check(c, &first.x, Some(&first), &format!("{name} warm"));
        // A jittered copy warm-started from the first answer, replaying the
        // first solve's recorded pattern.
        let copy = jittered(c, &mut rng);
        let second = engine
            .solve_warm(&copy, Some(&first.x), &mut ws)
            .unwrap_or_else(|e| panic!("{name} jittered copy solves: {e}"));
        check(
            &copy,
            &second.x,
            Some(&second),
            &format!("{name} warm jittered"),
        );
    }
}

#[test]
fn service_jobs_carry_the_standalone_report() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0005);
    let engine = DcEngine::builder().build();
    let mut jobs = 0;
    for bench in table3() {
        let mut service = SimService::builder(engine.clone()).build();
        for copy in 0..4 {
            let c = jittered(&bench.circuit, &mut rng);
            let sol = service
                .solve(&c, JobTicket::default())
                .unwrap_or_else(|e| panic!("{} copy {copy}: {e}", bench.name));
            check(
                &c,
                &sol.x,
                Some(&sol),
                &format!("{} copy {copy}", bench.name),
            );
            jobs += 1;
        }
        assert_eq!(service.cache_stats().hits, 3, "{}", bench.name);
    }
    assert_eq!(jobs, 4 * 33);
}
