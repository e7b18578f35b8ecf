//! The service's structure key over the traffic it exists for: value-
//! jittered copies of the paper's Table 3 topologies must share a key,
//! circuits share a key exactly when they share a topology, a reordered
//! device list keys apart (an extra miss, never a wrong hit), and a
//! cache-hit solve replays the exact float program of a cold one.

use rand::prelude::*;
use rlpta::circuits::{table3, training_corpus_seeded};
use rlpta::core::certify::HealthGrade;
use rlpta::core::{DcEngine, JobTicket, SimService, StructureKey};
use rlpta::devices::{Device, EvalCtx, Node};
use rlpta::mna::Circuit;
use rlpta::netlist::{parse, write_netlist};
use std::collections::HashSet;
use std::mem::Discriminant;

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

/// `circuit` re-parsed with its first device card swapped against the
/// first card that differs from it in kind or wiring.
fn with_two_devices_swapped(circuit: &Circuit) -> Circuit {
    let devices = circuit.devices();
    let shape = |d: &Device| (std::mem::discriminant(d), d.nodes());
    let j = (1..devices.len())
        .find(|&j| shape(&devices[j]) != shape(&devices[0]))
        .expect("a circuit with two differently wired devices");
    let deck = write_netlist(circuit);
    let mut lines: Vec<&str> = deck.lines().collect();
    // Line 0 is the title; device cards follow in device order.
    lines.swap(1, 1 + j);
    parse(&lines.join("\n")).expect("swapped deck parses")
}

#[test]
fn jittered_table3_copies_share_a_key() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for bench in table3() {
        let key = StructureKey::of(&bench.circuit);
        for _ in 0..4 {
            let copy = jittered(&bench.circuit, &mut rng);
            assert_eq!(StructureKey::of(&copy), key, "{}", bench.name);
        }
    }
}

/// The structure a key must capture, derived independently of the
/// declare pass: dimensions, the device list's kinds, wiring and branch
/// counts, and the pattern of a triplet assembly at `x = 0`.
#[allow(clippy::type_complexity)]
fn topology(
    c: &Circuit,
) -> (
    usize,
    usize,
    Vec<(Discriminant<Device>, Vec<Node>, usize)>,
    Vec<usize>,
    Vec<usize>,
) {
    let devices = c
        .devices()
        .iter()
        .map(|d| {
            (
                std::mem::discriminant(d),
                d.nodes().to_vec(),
                d.branch_count(),
            )
        })
        .collect();
    let x0 = vec![0.0; c.dim()];
    let pattern = c.assemble(&EvalCtx::dc(&x0)).0.to_csr();
    (
        c.dim(),
        c.state_len(),
        devices,
        pattern.row_ptr().to_vec(),
        pattern.col_indices().to_vec(),
    )
}

/// Over the 33 Table 3 circuits plus the seeded training family, two
/// circuits share a key exactly when they share a topology. Both
/// generators reuse templates with new values (the 81 circuits hold 41
/// structures, Table 3 alone 25), so distinct keys are checked per
/// topology, not per circuit.
#[test]
fn keys_are_distinct_exactly_across_distinct_topologies() {
    let circuits: Vec<(String, Circuit)> = table3()
        .into_iter()
        .chain(training_corpus_seeded(48, 0x5EED_0002))
        .map(|b| (b.name, b.circuit))
        .collect();
    assert_eq!(circuits.len(), 33 + 48);
    let keys: Vec<StructureKey> = circuits.iter().map(|(_, c)| StructureKey::of(c)).collect();
    let shapes: Vec<_> = circuits.iter().map(|(_, c)| topology(c)).collect();
    for i in 0..circuits.len() {
        for j in i + 1..circuits.len() {
            assert_eq!(
                keys[i] == keys[j],
                shapes[i] == shapes[j],
                "{} / {}",
                circuits[i].0,
                circuits[j].0
            );
        }
    }
    assert_eq!(keys.iter().collect::<HashSet<_>>().len(), 41);
}

#[test]
fn reordered_devices_key_apart_and_still_certify() {
    for bench in table3() {
        let original = &bench.circuit;
        let swapped = with_two_devices_swapped(original);
        assert_ne!(
            StructureKey::of(&swapped),
            StructureKey::of(original),
            "{}",
            bench.name
        );
        let mut service = SimService::builder(DcEngine::builder().build()).build();
        let a = service
            .solve(original, JobTicket::default())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let b = service
            .solve(&swapped, JobTicket::default())
            .unwrap_or_else(|e| panic!("{} swapped: {e}", bench.name));
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2), "{}", bench.name);
        let grade = b.health.as_ref().expect("graded").grade;
        assert_ne!(grade, HealthGrade::Rejected, "{}", bench.name);
        for i in 0..original.num_nodes() {
            let node = original.node_name(i);
            let (va, vb) = (a.x[i], b.x[swapped.node_index(node).expect("node kept")]);
            assert!(
                (va - vb).abs() <= 1e-6 * va.abs().max(1.0),
                "{}/{node}: {va} vs {vb}",
                bench.name
            );
        }
    }
}

#[test]
fn cache_hit_solves_are_bit_identical_to_cold_solves() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    let engine = DcEngine::builder().build();
    for bench in table3() {
        let first = jittered(&bench.circuit, &mut rng);
        let second = jittered(&bench.circuit, &mut rng);
        let mut warm = SimService::builder(engine.clone())
            .warm_starts(false)
            .build();
        warm.solve(&first, JobTicket::default()).expect("cold");
        let hit = warm.solve(&second, JobTicket::default()).expect("hit");
        assert_eq!(warm.cache_stats().hits, 1, "{}", bench.name);
        let mut cold = SimService::builder(engine.clone())
            .warm_starts(false)
            .build();
        let reference = cold.solve(&second, JobTicket::default()).expect("cold");
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&hit.x), bits(&reference.x), "{}", bench.name);
        assert_eq!(
            hit.stats.nr_iterations, reference.stats.nr_iterations,
            "{}",
            bench.name
        );
    }
}
