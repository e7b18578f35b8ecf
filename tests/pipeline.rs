//! End-to-end pipeline tests: netlist text → parser → MNA → solver.

use rlpta::core::{GminStepping, NewtonRaphson, PtaConfig, PtaKind, PtaSolver, SimpleStepping};
use rlpta::netlist::parse;

#[test]
fn voltage_divider_chain_through_subcircuits() {
    let c = parse(
        "three dividers
         V1 in 0 8
         X1 in m1 HALF
         X2 m1 m2 HALF
         R9 m2 0 1meg
         .subckt HALF a y
         R1 a y 10k
         R2 y 0 10k
         .ends",
    )
    .unwrap();
    let sol = NewtonRaphson::default().solve(&c).unwrap();
    // Loading of the second stage shifts the exact values; just check the
    // qualitative halving ladder.
    let m1 = sol.voltage(&c, "m1").unwrap();
    let m2 = sol.voltage(&c, "m2").unwrap();
    assert!(m1 > 2.0 && m1 < 4.5, "m1 = {m1}");
    assert!(m2 > 1.0 && m2 < m1, "m2 = {m2}");
}

#[test]
fn bridge_rectifier_with_diodes() {
    let c = parse(
        "bridge
         V1 acp 0 5
         D1 acp pos DX
         D2 0 pos DX
         D3 neg acp DX
         D4 neg 0 DX
         RL pos neg 1k
         .model DX D(IS=1e-14)",
    )
    .unwrap();
    let sol = GminStepping::default().solve(&c).unwrap();
    let vpos = sol.voltage(&c, "pos").unwrap();
    let vneg = sol.voltage(&c, "neg").unwrap();
    // Full-wave bridge: v(pos) − v(neg) ≈ 5 − 2 diode drops.
    let vout = vpos - vneg;
    assert!(vout > 3.0 && vout < 4.2, "vout = {vout}");
}

#[test]
fn cmos_inverter_transfers_logic_levels() {
    let deck = |vin: f64| {
        format!(
            "inverter
             V1 vdd 0 5
             V2 in 0 {vin}
             MP out in vdd vdd PM W=20u L=2u
             MN out in 0 0 NM W=10u L=2u
             .model NM NMOS(VTO=1 KP=5e-5)
             .model PM PMOS(VTO=-1 KP=2.5e-5)"
        )
    };
    let low_in = parse(&deck(0.0)).unwrap();
    let sol = NewtonRaphson::default().solve(&low_in).unwrap();
    assert!(
        sol.voltage(&low_in, "out").unwrap() > 4.5,
        "low in → high out"
    );

    let high_in = parse(&deck(5.0)).unwrap();
    let sol = NewtonRaphson::default().solve(&high_in).unwrap();
    assert!(
        sol.voltage(&high_in, "out").unwrap() < 0.5,
        "high in → low out"
    );
}

#[test]
fn all_continuation_methods_agree_on_bjt_amp() {
    let c = parse(
        "ce amp
         V1 vcc 0 12
         R1 vcc b 100k
         R2 b 0 22k
         RC vcc c 2.2k
         RE e 0 1k
         Q1 c b e QN
         .model QN NPN(IS=1e-15 BF=120)",
    )
    .unwrap();
    let newton = NewtonRaphson::default().solve(&c).unwrap();
    let gmin = GminStepping::default().solve(&c).unwrap();
    let mut pta = PtaSolver::with_config(PtaKind::dpta(), SimpleStepping::default(), PtaConfig::default());
    let dpta = pta.solve(&c).unwrap();
    for (name, sol) in [("gmin", &gmin), ("dpta", &dpta)] {
        for (i, (a, b)) in sol.x.iter().zip(&newton.x).enumerate() {
            assert!((a - b).abs() < 1e-3, "{name} unknown {i}: {a} vs {b}");
        }
    }
}

#[test]
fn pta_finds_operating_point_without_newton_convergence() {
    // Cross-coupled latch: plain Newton from zero oscillates between the
    // basins; PTA relaxes into a consistent operating point.
    let c = parse(
        "hard latch
         V1 vcc 0 5
         RC1 vcc c1 1k
         RC2 vcc c2 1.1k
         Q1 c1 b1 0 QN
         Q2 c2 b2 0 QN
         RB1 c2 b1 4.7k
         RB2 c1 b2 4.7k
         RP1 b1 0 18k
         RP2 b2 0 18k
         .model QN NPN(IS=1e-15 BF=120)",
    )
    .unwrap();
    let mut pta = PtaSolver::with_config(PtaKind::dpta(), SimpleStepping::default(), PtaConfig::default());
    let sol = pta.solve(&c).unwrap();
    assert!(sol.stats.converged);
    assert!(sol.residual_norm(&c) < 1e-8, "true DC point");
}

#[test]
fn parse_errors_surface_with_line_numbers() {
    let err = parse("t\nR1 a 0 1k\nQ5 c b QM\n").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 3"), "got: {msg}");
}

#[test]
fn jfet_source_follower_biases() {
    let c = parse(
        "jfet follower
         V1 vdd 0 15
         J1 vdd g out NJ
         RG g 0 1meg
         RS out 0 2.2k
         .model NJ NJF(VTO=-2 BETA=1e-3)",
    )
    .unwrap();
    let sol = NewtonRaphson::default().solve(&c).unwrap();
    let vout = sol.voltage(&c, "out").unwrap();
    // Depletion JFET with grounded gate self-biases: source sits above
    // ground, vgs = −v(out) between vto and 0.
    assert!(vout > 0.2 && vout < 2.0, "v(out) = {vout}");
    assert!(sol.residual_norm(&c) < 1e-8);
}

#[test]
fn zener_regulator_clamps_output() {
    let c = parse(
        "zener regulator
         V1 in 0 12
         R1 in out 470
         DZ 0 out DZMOD
         RL out 0 10k
         .model DZMOD D(IS=1e-14 BV=5.1)",
    )
    .unwrap();
    let sol = GminStepping::default().solve(&c).unwrap();
    let vout = sol.voltage(&c, "out").unwrap();
    // The reverse-biased Zener (cathode at `out`) clamps near BV.
    assert!((vout - 5.1).abs() < 0.5, "v(out) = {vout}");
}

#[test]
fn current_controlled_sources_in_deck() {
    let c = parse(
        "mirror via F element
         V1 in 0 5
         R1 in sense 1k
         VS sense 0 0
         F1 0 out VS 2
         RL out 0 100
         .model unused D()
         ",
    )
    .unwrap();
    let sol = NewtonRaphson::default().solve(&c).unwrap();
    // i(VS) = 5 mA; F mirrors 2× into RL: v(out) = 2·5 mA·100 Ω = 1 V.
    let vout = sol.voltage(&c, "out").unwrap();
    assert!((vout - 1.0).abs() < 1e-6, "v(out) = {vout}");
}

#[test]
fn written_netlists_solve_to_the_same_operating_point() {
    use rlpta::netlist::write_netlist;
    for name in ["UA733", "cram", "D10", "gm6"] {
        let bench = rlpta::circuits::by_name(name).unwrap();
        let original = GminStepping::default().solve(&bench.circuit).unwrap();
        let text = write_netlist(&bench.circuit);
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let again = GminStepping::default().solve(&reparsed).unwrap();
        for i in 0..bench.circuit.num_nodes() {
            let node = bench.circuit.node_name(i);
            let a = original.x[i];
            let b = again.x[reparsed.node_index(node).unwrap()];
            assert!((a - b).abs() < 1e-6, "{name}/{node}: {a} vs {b}");
        }
    }
}

#[test]
fn flattened_subcircuit_devices_survive_the_netlist_round_trip() {
    use rlpta::circuits::families::{mos_adder, mos_voter};
    use rlpta::core::DcEngine;
    use rlpta::netlist::write_netlist;
    let engine = DcEngine::builder().build();
    let circuits = [
        ("mos_adder2", mos_adder("a", 2)),
        ("mos_voter5", mos_voter("v", 5)),
        (
            "fadd32",
            rlpta::circuits::by_name("fadd32").unwrap().circuit,
        ),
        (
            "voter25",
            rlpta::circuits::by_name("voter25").unwrap().circuit,
        ),
    ];
    for (name, c) in &circuits {
        let text = write_netlist(c);
        // The MOSFETs are flattened out of NAND2 subcircuits (`x0a.MP1`).
        assert!(
            text.to_ascii_lowercase().contains("\nm.x"),
            "{name}: no flattened MOSFET card"
        );
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        assert_eq!(reparsed.devices().len(), c.devices().len(), "{name}");
        assert_eq!(reparsed.dim(), c.dim(), "{name}");
        let original = engine.solve(c).unwrap();
        let again = engine.solve(&reparsed).unwrap();
        for i in 0..c.num_nodes() {
            let node = c.node_name(i);
            let a = original.x[i];
            let b = again.x[reparsed.node_index(node).unwrap()];
            assert!((a - b).abs() < 1e-6, "{name}/{node}: {a} vs {b}");
        }
    }
}
