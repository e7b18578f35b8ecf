//! Netlist writing: serialize a [`Circuit`] back to SPICE deck text.
//!
//! Useful for exporting the synthesized benchmark circuits to other
//! simulators and for golden round-trip tests (`parse(write(c))` must
//! describe the same circuit).

use rlpta_devices::{BjtPolarity, Device, JfetPolarity, MosPolarity, Node};
use rlpta_mna::Circuit;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn node_name(circuit: &Circuit, node: Node) -> String {
    match node.index() {
        Some(i) => circuit.node_name(i).to_owned(),
        None => "0".to_owned(),
    }
}

/// The element-card name for a device of kind `letter`: its own name, with
/// the kind letter prefixed when the name does not start with it (any
/// case). A card's first letter selects its device kind, so a flattened
/// subcircuit device named `x0a.MP1` must be written `M.x0a.MP1` — bare,
/// it would re-parse as a subcircuit instance.
fn card_name(name: &str, letter: char) -> String {
    if name
        .chars()
        .next()
        .is_some_and(|c| c.eq_ignore_ascii_case(&letter))
    {
        name.to_owned()
    } else {
        format!("{letter}.{name}")
    }
}

/// Serializes a circuit as a SPICE deck: title line, element cards and the
/// `.model` cards the devices reference (deduplicated, one per distinct
/// parameter set).
///
/// Hierarchy is not reconstructed — subcircuit-expanded devices are written
/// flat under their hierarchical names, prefixed with their kind letter
/// (`x1.R1` is written `R.x1.R1`) so they re-parse as plain devices.
///
/// # Example
///
/// ```
/// use rlpta_netlist::{parse, write_netlist};
///
/// # fn main() -> Result<(), rlpta_netlist::ParseNetlistError> {
/// let c = parse("t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)")?;
/// let deck = write_netlist(&c);
/// let back = parse(&deck)?;
/// assert_eq!(back.dim(), c.dim());
/// assert_eq!(back.devices().len(), c.devices().len());
/// # Ok(())
/// # }
/// ```
pub fn write_netlist(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", circuit.title());
    // Deduplicated model cards keyed by their body text.
    let mut models: BTreeMap<String, String> = BTreeMap::new();
    let mut model_id = 0usize;
    let mut model_for = |body: String| -> String {
        if let Some(name) = models.get(&body) {
            return name.clone();
        }
        model_id += 1;
        let name = format!("M{model_id}");
        models.insert(body, name.clone());
        name
    };

    for d in circuit.devices() {
        let n = |node: Node| node_name(circuit, node);
        match d {
            Device::Resistor(r) => {
                let _ = writeln!(
                    out,
                    "{} {} {} {:e}",
                    card_name(r.name(), 'R'),
                    n(r.node_a()),
                    n(r.node_b()),
                    r.resistance()
                );
            }
            Device::Capacitor(c) => {
                let _ = writeln!(
                    out,
                    "{} {} {} {:e}",
                    card_name(c.name(), 'C'),
                    n(c.node_a()),
                    n(c.node_b()),
                    c.capacitance()
                );
            }
            Device::Inductor(l) => {
                let _ = writeln!(
                    out,
                    "{} {} {} {:e}",
                    card_name(l.name(), 'L'),
                    n(l.node_a()),
                    n(l.node_b()),
                    l.inductance()
                );
            }
            Device::Vsource(v) => {
                let _ = writeln!(
                    out,
                    "{} {} {} {:e}",
                    card_name(v.name(), 'V'),
                    n(v.pos()),
                    n(v.neg()),
                    v.dc()
                );
            }
            Device::Isource(i) => {
                let _ = writeln!(
                    out,
                    "{} {} {} {:e}",
                    card_name(i.name(), 'I'),
                    n(i.pos()),
                    n(i.neg()),
                    i.dc()
                );
            }
            Device::Vcvs(_) | Device::Vccs(_) | Device::Cccs(_) | Device::Ccvs(_) => {
                // Controlled sources do not expose their terminals through
                // `Device::nodes`; emit a comment so the deck stays honest.
                let _ = writeln!(out, "* {} (controlled source, not exported)", d.name());
            }
            Device::Diode(dd) => {
                let m = dd.model();
                let mut body = format!("D(IS={:e} N={:e}", m.is, m.n);
                if m.rs > 0.0 {
                    let _ = write!(body, " RS={:e}", m.rs);
                }
                if m.bv > 0.0 {
                    let _ = write!(body, " BV={:e} IBV={:e}", m.bv, m.ibv);
                }
                body.push(')');
                let model = model_for(body);
                let _ = writeln!(
                    out,
                    "{} {} {} {model}",
                    card_name(dd.name(), 'D'),
                    n(dd.anode()),
                    n(dd.cathode())
                );
            }
            Device::Bjt(q) => {
                let m = q.model();
                let kind = match m.polarity {
                    BjtPolarity::Npn => "NPN",
                    BjtPolarity::Pnp => "PNP",
                };
                let body = format!("{kind}(IS={:e} BF={:e} BR={:e})", m.is, m.bf, m.br);
                let model = model_for(body);
                let _ = writeln!(
                    out,
                    "{} {} {} {} {model}",
                    card_name(q.name(), 'Q'),
                    n(q.collector()),
                    n(q.base()),
                    n(q.emitter())
                );
            }
            Device::Mosfet(mf) => {
                let m = mf.model();
                let kind = match m.polarity {
                    MosPolarity::Nmos => "NMOS",
                    MosPolarity::Pmos => "PMOS",
                };
                let vto = match m.polarity {
                    MosPolarity::Nmos => m.vto,
                    MosPolarity::Pmos => -m.vto,
                };
                let body = format!(
                    "{kind}(VTO={vto:e} KP={:e} LAMBDA={:e} GAMMA={:e} PHI={:e} IS={:e})",
                    m.kp, m.lambda, m.gamma, m.phi, m.is
                );
                let model = model_for(body);
                // W/L ratio is what the stamp uses; export W = ratio·L with
                // the default L = 1 µm so the ratio survives the round trip.
                let _ = writeln!(
                    out,
                    "{} {} {} {} {} {model} W={:e} L=1e-6",
                    card_name(mf.name(), 'M'),
                    n(mf.drain()),
                    n(mf.gate()),
                    n(mf.source()),
                    n(mf.bulk()),
                    mf.w_over_l() * 1e-6
                );
            }
            Device::Jfet(j) => {
                let m = j.model();
                let kind = match m.polarity {
                    JfetPolarity::Njf => "NJF",
                    JfetPolarity::Pjf => "PJF",
                };
                let body = format!(
                    "{kind}(VTO={:e} BETA={:e} LAMBDA={:e} IS={:e})",
                    m.vto, m.beta, m.lambda, m.is
                );
                let model = model_for(body);
                let _ = writeln!(
                    out,
                    "{} {} {} {} {model}",
                    card_name(j.name(), 'J'),
                    n(j.drain()),
                    n(j.gate()),
                    n(j.source())
                );
            }
            _ => {
                let _ = writeln!(out, "* {} (unsupported device kind)", d.name());
            }
        }
    }
    for (body, name) in &models {
        let _ = writeln!(out, ".model {name} {body}");
    }
    let _ = writeln!(out, ".end");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn roundtrip(deck: &str) -> (Circuit, Circuit) {
        let a = parse(deck).expect("original parses");
        let text = write_netlist(&a);
        let b = parse(&text).unwrap_or_else(|e| panic!("round trip failed: {e}\n{text}"));
        (a, b)
    }

    #[test]
    fn flattened_subcircuit_devices_keep_their_kind() {
        let (a, b) = roundtrip(
            "t
             V1 in 0 5
             X1 in out HALF
             .subckt HALF p q
             R1 p q 1k
             R2 q 0 1k
             D1 q 0 DX
             .ends
             .model DX D(IS=1e-14)",
        );
        assert_eq!(a.devices().len(), b.devices().len());
        let text = write_netlist(&a);
        assert!(text.contains("\nR.x1.R1 "), "{text}");
        assert!(text.contains("\nD.x1.D1 "), "{text}");
        // Names that already start with their kind letter stay as they are.
        assert!(text.contains("\nV1 "), "{text}");
    }

    #[test]
    fn rlc_roundtrip() {
        let (a, b) = roundtrip("t\nV1 in 0 5\nR1 in m 1k\nL1 m out 1m\nC1 out 0 1u\nR2 out 0 2k\n");
        assert_eq!(a.dim(), b.dim());
        assert_eq!(a.devices().len(), b.devices().len());
    }

    #[test]
    fn transistor_models_dedupe() {
        let (a, b) = roundtrip(
            "t
             V1 vcc 0 5
             R1 vcc c1 1k
             R2 vcc c2 1k
             Q1 c1 b 0 QN
             Q2 c2 b 0 QN
             R3 vcc b 100k
             .model QN NPN(IS=1e-15 BF=80)",
        );
        assert_eq!(a.devices().len(), b.devices().len());
        let text = write_netlist(&a);
        // Both BJTs share one model card.
        assert_eq!(text.matches(".model").count(), 1, "{text}");
    }

    #[test]
    fn roundtrip_preserves_dc_solution() {
        let deck = "t
             V1 vcc 0 12
             R1 vcc b 100k
             R2 b 0 22k
             RC vcc c 2.2k
             RE e 0 1k
             Q1 c b e QN
             D1 c x DX
             RX x 0 10k
             .model QN NPN(IS=1e-15 BF=120)
             .model DX D(IS=1e-14)";
        let a = parse(deck).unwrap();
        let b = parse(&write_netlist(&a)).unwrap();
        // Same named nodes must exist and the circuits must be isomorphic
        // enough to produce identical matrices — verified end-to-end in the
        // integration tests by solving; here check structure.
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_branches(), b.num_branches());
        for name in ["vcc", "b", "c", "e", "x"] {
            assert!(b.node_index(name).is_some(), "node {name} lost");
        }
    }

    #[test]
    fn mosfet_ratio_survives() {
        let (a, b) = roundtrip(
            "t
             V1 vdd 0 5
             RL vdd d 10k
             M1 d g 0 0 NM W=20u L=2u
             RG g 0 1k
             .model NM NMOS(VTO=1 KP=5e-5)",
        );
        let ratio = |c: &Circuit| {
            c.devices()
                .iter()
                .find_map(|dev| match dev {
                    Device::Mosfet(m) => Some(m.w_over_l()),
                    _ => None,
                })
                .expect("has a mosfet")
        };
        assert!((ratio(&a) - ratio(&b)).abs() < 1e-9);
    }

    #[test]
    fn zener_parameters_survive() {
        let (a, b) = roundtrip(
            "t\nV1 in 0 12\nR1 in out 470\nDZ 0 out DZM\n.model DZM D(IS=1e-14 BV=5.1 IBV=1e-3)\n",
        );
        let bv = |c: &Circuit| {
            c.devices()
                .iter()
                .find_map(|dev| match dev {
                    Device::Diode(d) => Some(d.model().bv),
                    _ => None,
                })
                .expect("has a diode")
        };
        assert!((bv(&a) - bv(&b)).abs() < 1e-12);
    }
}
