//! An AIGER reader, writer and evaluator written apart from the program.
//!
//! Verdicts are judged with this code only, so a fault in the program's
//! parser or simulator cannot hide behind itself. It shares nothing with
//! `parsweep-aig` or `parsweep-sim`.
//!
//! Literal convention (AIGER): variable 0 is constant false, variables
//! `1..=I` are the inputs, variables `I+1..=I+A` are the AND gates in
//! topological order; literal `2v` is `v`, `2v+1` its complement.

use std::fmt::Write as _;

/// A combinational and-inverter graph in AIGER numbering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Circuit {
    /// Number of primary inputs.
    pub inputs: usize,
    /// AND gates; gate `i` defines variable `inputs + 1 + i`. Both fanin
    /// literals name lower variables.
    pub ands: Vec<(u32, u32)>,
    /// Output literals.
    pub outputs: Vec<u32>,
}

impl Circuit {
    /// Highest variable index.
    pub fn max_var(&self) -> usize {
        self.inputs + self.ands.len()
    }

    /// Literal of gate `i`'s output variable.
    pub fn and_lit(&self, i: usize) -> u32 {
        ((self.inputs + 1 + i) as u32) << 1
    }

    /// Parses an ASCII (`aag`) or binary (`aig`) AIGER file without latches.
    pub fn parse(bytes: &[u8]) -> Result<Circuit, String> {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("missing header line")?;
        let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| "header is not text")?;
        let mut words = header.split_ascii_whitespace();
        let binary = match words.next() {
            Some("aag") => false,
            Some("aig") => true,
            _ => return Err(format!("bad header {header:?}")),
        };
        let nums: Vec<usize> = words
            .map(|w| {
                w.parse::<usize>()
                    .map_err(|_| format!("bad header {header:?}"))
            })
            .collect::<Result<_, _>>()?;
        let [m, i, l, o, a] = nums[..] else {
            return Err(format!("header needs five numbers: {header:?}"));
        };
        if l != 0 {
            return Err("latches are not supported".into());
        }
        if m != i + a || m >= (u32::MAX >> 1) as usize {
            return Err(format!("header M={m} is not I+A={}", i + a));
        }
        let body = &bytes[nl + 1..];
        let lit_limit = 2 * m as u64 + 1;
        let mut lines = Lines { rest: body };
        let read_lit = |lines: &mut Lines| -> Result<u32, String> {
            let line = lines.next().ok_or("file ends early")?;
            let v: u64 = line
                .trim()
                .parse()
                .map_err(|_| format!("bad literal line {line:?}"))?;
            if v > lit_limit {
                return Err(format!("literal {v} exceeds 2M+1"));
            }
            Ok(v as u32)
        };
        let mut c = Circuit {
            inputs: i,
            ands: Vec::with_capacity(a.min(body.len())),
            outputs: Vec::with_capacity(o.min(body.len())),
        };
        if binary {
            for _ in 0..o {
                c.outputs.push(read_lit(&mut lines)?);
            }
            let mut pos = 0usize;
            let data = lines.rest;
            let mut delta = || -> Result<u32, String> {
                let mut v: u64 = 0;
                let mut shift = 0;
                loop {
                    let b = *data.get(pos).ok_or("binary AND section ends early")?;
                    pos += 1;
                    v |= u64::from(b & 0x7f) << shift;
                    if b & 0x80 == 0 {
                        break;
                    }
                    shift += 7;
                    if shift > 35 {
                        return Err("delta too long".into());
                    }
                }
                u32::try_from(v).map_err(|_| "delta overflows".to_string())
            };
            for g in 0..a {
                let lhs = ((i + 1 + g) as u32) << 1;
                let d0 = delta()?;
                let d1 = delta()?;
                let r0 = lhs.checked_sub(d0).ok_or("delta below zero")?;
                let r1 = r0.checked_sub(d1).ok_or("delta below zero")?;
                if d0 == 0 {
                    return Err("AND gate refers to itself".into());
                }
                c.ands.push((r0, r1));
            }
        } else {
            for k in 0..i {
                let lit = read_lit(&mut lines)?;
                if lit != ((k + 1) as u32) << 1 {
                    return Err(format!(
                        "input {k} is literal {lit}, expected {}",
                        (k + 1) * 2
                    ));
                }
            }
            for _ in 0..o {
                c.outputs.push(read_lit(&mut lines)?);
            }
            for g in 0..a {
                let line = lines.next().ok_or("file ends early")?;
                let vals: Vec<u64> = line
                    .split_ascii_whitespace()
                    .map(|w| {
                        w.parse::<u64>()
                            .map_err(|_| format!("bad AND line {line:?}"))
                    })
                    .collect::<Result<_, _>>()?;
                let [lhs, r0, r1] = vals[..] else {
                    return Err(format!("bad AND line {line:?}"));
                };
                let expect = ((i + 1 + g) as u64) << 1;
                if lhs != expect {
                    return Err(format!("AND {g} defines {lhs}, expected {expect}"));
                }
                if r0 >= lhs || r1 >= lhs {
                    return Err(format!("AND {lhs} is not in topological order"));
                }
                // Fanins are kept in binary AIGER's order, larger first.
                c.ands.push((r0.max(r1) as u32, r0.min(r1) as u32));
            }
        }
        Ok(c)
    }

    /// Writes binary AIGER. Gates must already be topologically ordered.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = format!(
            "aig {} {} 0 {} {}\n",
            self.max_var(),
            self.inputs,
            self.outputs.len(),
            self.ands.len()
        )
        .into_bytes();
        for &o in &self.outputs {
            out.extend_from_slice(format!("{o}\n").as_bytes());
        }
        let put = |out: &mut Vec<u8>, mut d: u32| loop {
            let b = (d & 0x7f) as u8;
            d >>= 7;
            if d == 0 {
                out.push(b);
                break;
            }
            out.push(b | 0x80);
        };
        for (g, &(a, b)) in self.ands.iter().enumerate() {
            let lhs = self.and_lit(g);
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            assert!(lhs > hi, "gate {g} is not topologically ordered");
            put(&mut out, lhs - hi);
            put(&mut out, hi - lo);
        }
        out
    }

    /// Writes ASCII AIGER.
    pub fn to_ascii(&self) -> String {
        let mut out = format!(
            "aag {} {} 0 {} {}\n",
            self.max_var(),
            self.inputs,
            self.outputs.len(),
            self.ands.len()
        );
        for k in 0..self.inputs {
            let _ = writeln!(out, "{}", (k + 1) * 2);
        }
        for &o in &self.outputs {
            let _ = writeln!(out, "{o}");
        }
        for (g, &(a, b)) in self.ands.iter().enumerate() {
            let _ = writeln!(out, "{} {a} {b}", self.and_lit(g));
        }
        out
    }

    /// Evaluates the outputs on 64 input vectors at once: bit `j` of
    /// `inputs[k]` is input `k` of vector `j`.
    pub fn eval_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.inputs, "input count");
        let mut val = Vec::with_capacity(self.max_var() + 1);
        val.push(0u64);
        val.extend_from_slice(inputs);
        let lit = |val: &[u64], l: u32| {
            let w = val[(l >> 1) as usize];
            if l & 1 == 1 {
                !w
            } else {
                w
            }
        };
        for &(a, b) in &self.ands {
            let w = lit(&val, a) & lit(&val, b);
            val.push(w);
        }
        self.outputs.iter().map(|&o| lit(&val, o)).collect()
    }

    /// Evaluates the outputs on one input vector.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
        self.eval_words(&words)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// The same circuit with its outputs listed in the order `perm`
    /// (`perm[j]` is the old index of new output `j`).
    pub fn permute_outputs(&self, perm: &[usize]) -> Circuit {
        Circuit {
            outputs: perm.iter().map(|&j| self.outputs[j]).collect(),
            ..self.clone()
        }
    }
}

/// Newline-separated lines of a byte slice, consumed from the front.
struct Lines<'a> {
    rest: &'a [u8],
}

impl<'a> Lines<'a> {
    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        let end = self
            .rest
            .iter()
            .position(|&b| b == b'\n')
            .unwrap_or(self.rest.len());
        let line = std::str::from_utf8(&self.rest[..end]).ok();
        self.rest = &self.rest[(end + 1).min(self.rest.len())..];
        line
    }
}

/// True if `left` and `right` give different outputs on `inputs`.
pub fn outputs_differ(left: &Circuit, right: &Circuit, inputs: &[bool]) -> bool {
    left.eval(inputs) != right.eval(inputs)
}

/// Counts input vectors, out of `64 * words` drawn from `seed`, on which
/// `left` and `right` disagree at some output.
pub fn random_disagreements(left: &Circuit, right: &Circuit, seed: u64, words: usize) -> u64 {
    assert_eq!(left.inputs, right.inputs, "input count");
    let mut rng = crate::rng::Rng::new(seed);
    let mut bad = 0u64;
    for _ in 0..words {
        let inputs: Vec<u64> = (0..left.inputs).map(|_| rng.next_u64()).collect();
        let diff = left
            .eval_words(&inputs)
            .iter()
            .zip(right.eval_words(&inputs))
            .fold(0u64, |acc, (a, b)| acc | (a ^ b));
        bad += u64::from(diff.count_ones());
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    // x0 XOR x1 built two ways, and a wrong one (XNOR).
    const XOR_A: &str = "aag 5 2 0 1 3\n2\n4\n11\n6 2 5\n8 3 4\n10 7 9\n";
    const XOR_B: &str = "aag 5 2 0 1 3\n2\n4\n10\n6 3 5\n8 2 4\n10 7 9\n";
    const XNOR: &str = "aag 5 2 0 1 3\n2\n4\n10\n6 2 5\n8 3 4\n10 7 9\n";
    // A three-input AND with its output complemented twice over.
    const AND3: &str = "aag 5 3 0 2 2\n2\n4\n6\n10\n11\n8 2 4\n10 8 6\n";

    fn all_vectors(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1u32 << n).map(move |m| (0..n).map(|k| m >> k & 1 == 1).collect())
    }

    #[test]
    fn ascii_xors_evaluate_to_xor() {
        for text in [XOR_A, XOR_B] {
            let c = Circuit::parse(text.as_bytes()).unwrap();
            assert_eq!(c.inputs, 2);
            assert_eq!(c.ands.len(), 3);
            for v in all_vectors(2) {
                assert_eq!(c.eval(&v), vec![v[0] ^ v[1]], "{v:?}");
            }
        }
    }

    #[test]
    fn xnor_differs_everywhere_and_replays() {
        let a = Circuit::parse(XOR_A.as_bytes()).unwrap();
        let b = Circuit::parse(XOR_B.as_bytes()).unwrap();
        let bad = Circuit::parse(XNOR.as_bytes()).unwrap();
        for v in all_vectors(2) {
            assert!(outputs_differ(&a, &bad, &v));
            assert!(!outputs_differ(&a, &b, &v));
        }
        assert_eq!(random_disagreements(&a, &bad, 7, 2), 128);
        assert_eq!(random_disagreements(&a, &b, 7, 2), 0);
    }

    #[test]
    fn and3_outputs_and_complement() {
        let c = Circuit::parse(AND3.as_bytes()).unwrap();
        for v in all_vectors(3) {
            let all = v.iter().all(|&b| b);
            assert_eq!(c.eval(&v), vec![all, !all]);
        }
    }

    #[test]
    fn binary_round_trip() {
        for text in [XOR_A, XOR_B, XNOR, AND3] {
            let c = Circuit::parse(text.as_bytes()).unwrap();
            let bin = c.to_binary();
            assert!(bin.starts_with(b"aig "));
            assert_eq!(Circuit::parse(&bin).unwrap(), c);
            assert_eq!(Circuit::parse(c.to_ascii().as_bytes()).unwrap(), c);
        }
    }

    #[test]
    fn hand_written_binary_parses() {
        // aig 3 2 0 1 1: output 6, gate 6 = 4 & 2 -> deltas 2, 2.
        let bytes = b"aig 3 2 0 1 1\n6\n\x02\x02";
        let c = Circuit::parse(bytes).unwrap();
        assert_eq!(c.ands, vec![(4, 2)]);
        for v in all_vectors(2) {
            assert_eq!(c.eval(&v), vec![v[0] && v[1]]);
        }
    }

    #[test]
    fn constant_outputs() {
        let c = Circuit::parse(b"aag 1 1 0 3 0\n2\n0\n1\n3\n").unwrap();
        assert_eq!(c.eval(&[false]), vec![false, true, true]);
        assert_eq!(c.eval(&[true]), vec![false, true, false]);
    }

    #[test]
    fn malformed_inputs_are_errors() {
        for bad in [
            &b"aag 1 1 0 0 0\n8\n"[..],
            b"aig 0 3 0 0 0\n",
            b"aag 1 4294967295 0 4294967295 2\n",
            b"aag 3 2 0 1 1\n2\n4\n6\n6 2\n",
            b"aag 3 2 1 1 0\n2\n4\n",
            b"aag 3 2 0 1 1\n2\n4\n9\n6 2 4\n",
            b"aag 3 2 0 1 1\n2\n4\n6\n6 8 4\n",
            b"aig 3 2 0 1 1\n6\n\x80",
            b"xyz\n",
            b"",
        ] {
            assert!(
                Circuit::parse(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn permuted_outputs_keep_values() {
        let c = Circuit::parse(AND3.as_bytes()).unwrap();
        let p = c.permute_outputs(&[1, 0]);
        for v in all_vectors(3) {
            let (x, y) = (c.eval(&v), p.eval(&v));
            assert_eq!((x[0], x[1]), (y[1], y[0]));
        }
    }
}
