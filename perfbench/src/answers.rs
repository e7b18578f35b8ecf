//! Reference answers: the node voltages each solve must reproduce.
//!
//! One file per workload under `answers/`, one line per accepted operating
//! point: `key v0 v1 …` (node voltages in node-index order). A key listed
//! on several lines is multistable; each line is one accepted basin. The
//! files were captured with `--capture` (see `main.rs`) and are compiled
//! into the binary, so a run reads nothing from disk.

use rlpta_core::{HealthGrade, Solution};
use rlpta_mna::Circuit;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Absolute tolerance on a node voltage, in volts. Two runs that stop
/// Newton at different iterates of the same root differ by up to a few
/// tenths of a millivolt on the diode networks (different solvers, same
/// circuit, both certified); distinct operating points differ by tens of
/// millivolts or more.
pub const ABS_TOL_V: f64 = 1e-3;
/// Relative tolerance on a node voltage, SPICE's default `RELTOL`.
pub const REL_TOL: f64 = 1e-3;

/// Whether two node-voltage vectors agree within the stated tolerance.
pub fn same_point(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= ABS_TOL_V + REL_TOL * x.abs().max(y.abs()))
}

/// The node voltages of a solution (branch currents dropped).
pub fn node_voltages<'s>(circuit: &Circuit, sol: &'s Solution) -> &'s [f64] {
    &sol.x[..circuit.num_nodes()]
}

/// Accepted operating points per key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answers {
    points: BTreeMap<String, Vec<Vec<f64>>>,
}

/// Why a solve did not count.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Certified and equal to an accepted answer.
    Ok,
    /// The solver returned an error.
    Failed(String),
    /// Converged, but graded below `Certified`.
    NotCertified(String),
    /// Certified, but matches no accepted answer.
    Mismatch,
    /// No reference answer is stored for this key.
    Unknown,
}

impl Answers {
    /// Parses an answer file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_ascii_whitespace();
            let key = fields.next().expect("non-empty line has a first field");
            let v: Result<Vec<f64>, _> = fields.map(str::parse).collect();
            let v = v.map_err(|e| format!("answer line {}: {e}", i + 1))?;
            out.insert(key, v);
        }
        Ok(out)
    }

    /// Adds `point` to `key`'s accepted set unless an equal one is there.
    /// Returns whether it was new.
    pub fn insert(&mut self, key: &str, point: Vec<f64>) -> bool {
        let set = self.points.entry(key.to_string()).or_default();
        if set.iter().any(|p| same_point(p, &point)) {
            return false;
        }
        set.push(point);
        true
    }

    /// Accepted points of `key`.
    pub fn get(&self, key: &str) -> &[Vec<f64>] {
        self.points.get(key).map_or(&[], Vec::as_slice)
    }

    /// Keys with more than one accepted point.
    pub fn multistable(&self) -> Vec<(&str, usize)> {
        self.points
            .iter()
            .filter(|(_, v)| v.len() > 1)
            .map(|(k, v)| (k.as_str(), v.len()))
            .collect()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Grades one solver or service result against the accepted answers
    /// for `key`.
    pub fn grade<E: std::fmt::Display>(
        &self,
        key: &str,
        circuit: &Circuit,
        result: &Result<Solution, E>,
    ) -> Verdict {
        match result {
            Ok(sol) => self.grade_solution(key, circuit, sol),
            Err(e) => Verdict::Failed(e.to_string()),
        }
    }

    fn grade_solution(&self, key: &str, circuit: &Circuit, sol: &Solution) -> Verdict {
        match &sol.health {
            Some(h) if h.grade == HealthGrade::Certified => {}
            Some(h) => return Verdict::NotCertified(h.grade.name().to_string()),
            None => return Verdict::NotCertified("ungraded".into()),
        }
        let accepted = self.get(key);
        if accepted.is_empty() {
            return Verdict::Unknown;
        }
        let v = node_voltages(circuit, sol);
        if accepted.iter().any(|p| same_point(p, v)) {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        }
    }

    /// Renders the file format [`Answers::parse`] reads.
    pub fn render(&self, header: &str) -> String {
        let mut s = String::new();
        for line in header.lines() {
            let _ = writeln!(s, "# {line}");
        }
        for (key, points) in &self.points {
            for p in points {
                s.push_str(key);
                for v in p {
                    let _ = write!(s, " {v:.6e}");
                }
                s.push('\n');
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_keeps_basins_apart() {
        let mut a = Answers::default();
        assert!(a.insert("latch", vec![0.2, 4.8]));
        assert!(
            !a.insert("latch", vec![0.2 + 1e-9, 4.8]),
            "same basin twice"
        );
        assert!(a.insert("latch", vec![4.8, 0.2]));
        assert!(a.insert("bias", vec![1.0, -2.5e-3]));
        let text = a.render("header");
        let b = Answers::parse(&text).expect("parses");
        assert_eq!(b.get("latch").len(), 2);
        assert_eq!(b.multistable(), vec![("latch", 2)]);
        assert!(same_point(&b.get("bias")[0], &[1.0, -2.5e-3]));
    }

    #[test]
    fn tolerance_is_a_millivolt_plus_a_thousandth() {
        assert!(same_point(&[5.0], &[5.0 + 5.9e-3]));
        assert!(!same_point(&[5.0], &[5.0 + 6.1e-3]));
        assert!(same_point(&[0.0], &[0.9e-3]));
        assert!(!same_point(&[0.0], &[1.1e-3]));
        assert!(!same_point(&[0.0, 1.0], &[0.0]));
    }
}
