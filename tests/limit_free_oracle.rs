//! Limit-free evaluation identity over every named circuit the paper's
//! experiments run plus three scaling-family circuits: one limit-free pass
//! (`Circuit::seeded_state`, `Circuit::residual`,
//! `Circuit::assemble_limit_free`) must reproduce the retired limiter walk
//! bit for bit — state, residual, Jacobian pattern and values — at the
//! zero vector, at the engine's certified operating point and at seeded
//! random points of scale 0.1 V and 1 V, where the walk always stops
//! before its cap. At ±10 V and ±100 V points the walk may cap; there the
//! documented contract (the state holds the raw junction voltages) is
//! asserted instead.

#[path = "../crates/core/tests/support/limit_free_oracle.rs"]
mod limit_free_oracle;

use limit_free_oracle::check;
use rand::prelude::*;
use rlpta::circuits::families::{mos_adder, mos_inverter_chain, mos_voter};
use rlpta::circuits::{fig5, stress, table2, table3, training_corpus};
use rlpta::core::DcEngine;
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

#[test]
fn single_limit_free_pass_matches_the_walk() {
    let engine = DcEngine::builder().build();
    let mut rng = StdRng::seed_from_u64(2022);
    let (mut certified, mut capped, mut points) = (0, 0, 0);
    let circuits = corpus();
    for (name, c) in &circuits {
        let zero = vec![0.0; c.dim()];
        assert!(
            check(c, &zero, &format!("{name} x=0")),
            "{name}: walk capped at x=0"
        );
        points += 1;
        if let Ok(sol) = engine.solve(c) {
            let label = format!("{name} certified point");
            assert!(check(c, &sol.x, &label), "{label}: walk capped");
            certified += 1;
            points += 1;
        }
        for scale in [0.1, 1.0, 10.0, 100.0] {
            for draw in 0..2 {
                let x: Vec<f64> = (0..c.dim())
                    .map(|_| rng.gen_range(-scale..=scale))
                    .collect();
                let label = format!("{name} scale {scale} draw {draw}");
                let stopped = check(c, &x, &label);
                assert!(stopped || scale > 1.0, "{label}: walk capped");
                capped += usize::from(!stopped);
                points += 1;
            }
        }
    }
    // Non-vacuous on both branches: every circuit reaches a certified point,
    // and the large-scale draws do exercise the capped-walk contract.
    assert_eq!(certified, circuits.len(), "every circuit certifies");
    assert!(capped > 0, "no point capped the walk ({points} points)");
}
