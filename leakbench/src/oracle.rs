//! Oracles written apart from the code under test: a direct 16-point
//! Walsh–Hadamard transform with a Parseval check, and an exhaustive
//! word-parallel gate evaluator over every (class, mask) encoding.

use sbox_circuits::InputRole;
use sbox_netlist::{CellType, Netlist};

/// Per-class mean traces by plain summation, from `(class, trace)`
/// pairs.
pub fn class_means<'a>(
    classes: usize,
    samples: usize,
    traces: impl Iterator<Item = (usize, &'a [f64])>,
) -> Vec<Vec<f64>> {
    let mut sums = vec![vec![0.0f64; samples]; classes];
    let mut counts = vec![0usize; classes];
    for (class, trace) in traces {
        counts[class] += 1;
        for (s, &x) in sums[class].iter_mut().zip(trace) {
            *s += x;
        }
    }
    for (row, &n) in sums.iter_mut().zip(&counts) {
        if n > 0 {
            row.iter_mut().for_each(|s| *s /= n as f64);
        }
    }
    sums
}

/// The orthonormal Walsh–Hadamard coefficient `a_u` of a 16-point
/// function, straight from the definition
/// `a_u = 1/4 · Σ_t f(t) · (−1)^{popcount(u & t)}`.
fn wht16(f: &[f64; 16], u: usize) -> f64 {
    let sum: f64 = (0..16)
        .map(|t| {
            if (u & t).count_ones() % 2 == 1 {
                -f[t]
            } else {
                f[t]
            }
        })
        .sum();
    sum / 4.0
}

/// Compare a program-computed spectrum `coeff(u, t)` against the
/// independent transform of `means` (16 classes), sample by sample, and
/// check Parseval's identity `Σ_u a_u² = Σ_t f(t)²` on the program's
/// coefficients. Returns a description of the first disagreement.
pub fn check_spectrum(
    means: &[Vec<f64>],
    coeff: impl Fn(usize, usize) -> f64,
) -> Result<(), String> {
    if means.len() != 16 {
        return Err(format!("{} classes, expected 16", means.len()));
    }
    let samples = means[0].len();
    for t in 0..samples {
        let mut f = [0.0f64; 16];
        for (c, row) in means.iter().enumerate() {
            f[c] = row[t];
        }
        let scale: f64 = f.iter().map(|x| x.abs()).sum::<f64>() + f64::MIN_POSITIVE;
        let mut energy = 0.0;
        for u in 0..16 {
            let want = wht16(&f, u);
            let got = coeff(u, t);
            if (want - got).abs() > 1e-9 * scale {
                return Err(format!(
                    "a_{u}({t}) = {got:e}, independent transform gives {want:e}"
                ));
            }
            energy += got * got;
        }
        let power: f64 = f.iter().map(|x| x * x).sum();
        if (energy - power).abs() > 1e-9 * (power + f64::MIN_POSITIVE) {
            return Err(format!(
                "Parseval fails at sample {t}: Σa² = {energy:e}, Σf² = {power:e}"
            ));
        }
    }
    Ok(())
}

/// A netlist compiled for word-parallel evaluation: gates in an order
/// derived here (a gate runs once all its input nets are known), 64
/// patterns per `u64`.
pub struct WordEvaluator {
    nets: usize,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    gates: Vec<(CellType, Vec<usize>, usize)>,
}

impl WordEvaluator {
    pub fn new(netlist: &Netlist) -> Result<Self, String> {
        let nets = netlist.nets().len();
        let mut known = vec![false; nets];
        for n in netlist.inputs() {
            known[n.index()] = true;
        }
        let mut pending: Vec<(CellType, Vec<usize>, usize)> = netlist
            .gates()
            .iter()
            .map(|g| {
                (
                    g.cell(),
                    g.inputs().iter().map(|n| n.index()).collect(),
                    g.output().index(),
                )
            })
            .collect();
        let mut gates = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            let before = pending.len();
            let mut rest = Vec::new();
            for gate in pending {
                if gate.1.iter().all(|&n| known[n]) {
                    known[gate.2] = true;
                    gates.push(gate);
                } else {
                    rest.push(gate);
                }
            }
            if rest.len() == before {
                return Err(format!("{} gate(s) never become evaluable", rest.len()));
            }
            pending = rest;
        }
        Ok(Self {
            nets,
            inputs: netlist.inputs().iter().map(|n| n.index()).collect(),
            outputs: netlist.outputs().iter().map(|(_, n)| n.index()).collect(),
            gates,
        })
    }

    /// Output words for one word of input patterns (`inputs[i]` bit `p`
    /// is port `i` in pattern `p`).
    pub fn eval(&self, inputs: &[u64]) -> Vec<u64> {
        let mut v = vec![0u64; self.nets];
        for (&net, &w) in self.inputs.iter().zip(inputs) {
            v[net] = w;
        }
        for (cell, ins, out) in &self.gates {
            let x = |i: usize| v[ins[i]];
            let all_and = || ins.iter().fold(!0u64, |a, &n| a & v[n]);
            let any_or = || ins.iter().fold(0u64, |a, &n| a | v[n]);
            v[*out] = match cell {
                CellType::Inv => !x(0),
                CellType::Buf => x(0),
                CellType::And2 | CellType::And3 | CellType::And4 => all_and(),
                CellType::Or2 | CellType::Or3 | CellType::Or4 => any_or(),
                CellType::Nand2 | CellType::Nand3 | CellType::Nand4 => !all_and(),
                CellType::Nor2 | CellType::Nor3 | CellType::Nor4 => !any_or(),
                CellType::Xor2 => x(0) ^ x(1),
                CellType::Xnor2 => !(x(0) ^ x(1)),
            };
        }
        self.outputs.iter().map(|&n| v[n]).collect()
    }
}

/// Every (class, mask) encoding of a masking contract: the free ports
/// (non-closing shares and fresh bits) take every value, and each
/// bit's share 0 closes the XOR to the class bit.
pub struct Encodings {
    roles: Vec<InputRole>,
    secret_bits: usize,
    free_ports: Vec<usize>,
}

/// Largest pattern space the exhaustive check will enumerate.
const MAX_PATTERN_BITS: usize = 24;

impl Encodings {
    pub fn new(roles: &[InputRole], secret_bits: usize) -> Result<Self, String> {
        let free_ports: Vec<usize> = roles
            .iter()
            .enumerate()
            .filter(|(_, r)| !matches!(r, InputRole::Share { share: 0, .. }))
            .map(|(i, _)| i)
            .collect();
        if secret_bits + free_ports.len() > MAX_PATTERN_BITS {
            return Err(format!(
                "{} secret + {} free bits exceed the exhaustive window",
                secret_bits,
                free_ports.len()
            ));
        }
        Ok(Self {
            roles: roles.to_vec(),
            secret_bits,
            free_ports,
        })
    }

    /// Total patterns: classes × free assignments.
    pub fn patterns(&self) -> u64 {
        1u64 << (self.secret_bits + self.free_ports.len())
    }

    /// The class (low bits) of pattern `p`.
    pub fn class_of(&self, p: u64) -> u64 {
        p & ((1u64 << self.secret_bits) - 1)
    }

    /// Input words for patterns `first .. first + 64`, one per port.
    pub fn words(&self, first: u64) -> Vec<u64> {
        let mut words = vec![0u64; self.roles.len()];
        for lane in 0..64u64 {
            let p = first + lane;
            if p >= self.patterns() {
                break;
            }
            let class = self.class_of(p);
            let free = p >> self.secret_bits;
            let mut closing = class;
            for (j, &port) in self.free_ports.iter().enumerate() {
                let bit = free >> j & 1;
                words[port] |= bit << lane;
                if let InputRole::Share { bit: b, .. } = self.roles[port] {
                    closing ^= bit << b;
                }
            }
            for (port, role) in self.roles.iter().enumerate() {
                if let InputRole::Share { bit, share: 0 } = role {
                    words[port] |= (closing >> bit & 1) << lane;
                }
            }
        }
        words
    }
}

/// XOR of each output share group, per pattern word.
pub fn unshare(outputs: &[u64], groups: &[Vec<usize>]) -> Vec<u64> {
    groups
        .iter()
        .map(|g| g.iter().fold(0u64, |a, &p| a ^ outputs[p]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wht16_is_orthonormal_on_a_delta() {
        let mut f = [0.0; 16];
        f[5] = 4.0;
        for u in 0..16 {
            let sign = if (u & 5usize).count_ones() % 2 == 1 {
                -1.0
            } else {
                1.0
            };
            assert_eq!(wht16(&f, u), sign);
        }
    }

    #[test]
    fn encodings_close_every_share_group() {
        let roles = [
            InputRole::Share { bit: 0, share: 0 },
            InputRole::Share { bit: 0, share: 1 },
            InputRole::Share { bit: 1, share: 1 },
            InputRole::Share { bit: 1, share: 0 },
            InputRole::Fresh,
        ];
        let enc = Encodings::new(&roles, 2).unwrap();
        assert_eq!(enc.patterns(), 32);
        let w = enc.words(0);
        for lane in 0..32u64 {
            let bit = |port: usize| w[port] >> lane & 1;
            assert_eq!(bit(0) ^ bit(1), enc.class_of(lane) & 1);
            assert_eq!(bit(2) ^ bit(3), enc.class_of(lane) >> 1 & 1);
        }
    }
}
