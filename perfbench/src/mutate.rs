//! Near-miss mutants: one gate XORed with a rare conjunction of `k`
//! distinct inputs, kept only if a witness makes the outputs differ.

use crate::circuit::{outputs_differ, Circuit};
use crate::rng::Rng;

/// A mutant of a circuit and the input vector that tells them apart.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// The mutated circuit.
    pub circuit: Circuit,
    /// Index of the mutated AND gate in the original circuit.
    pub gate: usize,
    /// The rare condition: `(input index, required value)`, distinct inputs.
    pub condition: Vec<(usize, bool)>,
    /// A vector satisfying the condition on which the outputs differ.
    pub witness: Vec<bool>,
}

/// Rebuilds `c` with gate `gate` replaced by `gate XOR (AND of condition)`.
pub fn apply(c: &Circuit, gate: usize, condition: &[(usize, bool)]) -> Circuit {
    let mut out = Circuit {
        inputs: c.inputs,
        ands: Vec::with_capacity(c.ands.len() + condition.len() + 3),
        outputs: Vec::new(),
    };
    // map[v] is the new literal of old variable v.
    let mut map: Vec<u32> = (0..=c.inputs as u32).map(|v| v << 1).collect();
    let remap = |map: &[u32], l: u32| map[(l >> 1) as usize] ^ (l & 1);
    let push = |out: &mut Circuit, a: u32, b: u32| -> u32 {
        let lit = out.and_lit(out.ands.len());
        out.ands.push((a, b));
        lit
    };
    for (g, &(a, b)) in c.ands.iter().enumerate() {
        let lit = push(&mut out, remap(&map, a), remap(&map, b));
        if g == gate {
            let mut rare = 1u32; // constant true
            for &(input, value) in condition {
                let x = (((input + 1) as u32) << 1) ^ u32::from(!value);
                rare = if rare == 1 {
                    x
                } else {
                    push(&mut out, rare, x)
                };
            }
            // lit XOR rare = !(!(lit & !rare) & !(!lit & rare))
            let p = push(&mut out, lit, rare ^ 1);
            let q = push(&mut out, lit ^ 1, rare);
            let x = push(&mut out, p ^ 1, q ^ 1) ^ 1;
            map.push(x);
        } else {
            map.push(lit);
        }
    }
    out.outputs = c.outputs.iter().map(|&o| remap(&map, o)).collect();
    out
}

/// Draws a near-miss mutant of `right` that differs from `left`, with
/// its gate in the `slice`-th of `slices` equal ranges of the gate list.
///
/// Each attempt picks a gate in the slice and `k` distinct inputs with
/// random polarities, builds the mutant and a witness (the condition's
/// inputs set, the rest random), and keeps the mutant only if `left` and
/// the mutant disagree on the witness. Returns `None` after `attempts`
/// misses. Spreading a pair's mutants over the slices keeps the mix of
/// shallow and deep sites the same from seed to seed.
pub fn near_miss(
    left: &Circuit,
    right: &Circuit,
    k: usize,
    (slice, slices): (usize, usize),
    rng: &mut Rng,
    attempts: usize,
) -> Option<Mutant> {
    assert!(k <= right.inputs, "condition wider than the input count");
    assert!(slice < slices, "slice out of range");
    let lo = right.ands.len() * slice / slices;
    let hi = (right.ands.len() * (slice + 1) / slices).max(lo + 1);
    for _ in 0..attempts {
        let gate = lo + rng.below(hi - lo);
        let condition: Vec<(usize, bool)> = rng
            .distinct(right.inputs, k)
            .into_iter()
            .map(|i| (i, rng.bool()))
            .collect();
        let mut witness: Vec<bool> = (0..right.inputs).map(|_| rng.bool()).collect();
        for &(i, v) in &condition {
            witness[i] = v;
        }
        let circuit = apply(right, gate, &condition);
        if outputs_differ(left, &circuit, &witness) {
            return Some(Mutant {
                circuit,
                gate,
                condition,
                witness,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::random_disagreements;

    // Two-level AND tree over four inputs and one OR-like output.
    const TREE: &str = "aag 7 4 0 2 3\n2\n4\n6\n8\n12\n15\n10 2 4\n12 10 6\n14 11 9\n";

    #[test]
    fn mutation_flips_only_under_the_condition() {
        let c = Circuit::parse(TREE.as_bytes()).unwrap();
        let cond = [(0, true), (3, false)];
        let m = apply(&c, 0, &cond);
        for mask in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|k| mask >> k & 1 == 1).collect();
            let rare = v[0] && !v[3];
            let (a, b) = (c.eval(&v), m.eval(&v));
            let gate0 = v[0] && v[1];
            let expect0 = (gate0 ^ rare) && v[2];
            let expect1 = !(!(gate0 ^ rare) && !v[3]);
            assert_eq!(b, vec![expect0, expect1], "{v:?}");
            if !rare {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn kept_mutants_are_witnessed_and_rare() {
        let c = Circuit::parse(TREE.as_bytes()).unwrap();
        let mut rng = Rng::new(1);
        let m = near_miss(&c, &c, 3, (0, 1), &mut rng, 64).expect("some site is observable");
        assert!(outputs_differ(&c, &m.circuit, &m.witness));
        for &(i, v) in &m.condition {
            assert_eq!(m.witness[i], v);
        }
        let mut inputs: Vec<usize> = m.condition.iter().map(|c| c.0).collect();
        inputs.sort_unstable();
        inputs.dedup();
        assert_eq!(inputs.len(), 3, "condition inputs are distinct");
        // At most 2 of 16 vectors satisfy a 3-input condition.
        assert!(random_disagreements(&c, &m.circuit, 5, 4) <= 64 * 4 / 8);
    }

    #[test]
    fn slices_bound_the_site() {
        let c = Circuit::parse(TREE.as_bytes()).unwrap();
        let mut rng = Rng::new(2);
        for _ in 0..8 {
            let m = near_miss(&c, &c, 2, (2, 3), &mut rng, 64).expect("gate 2 is observable");
            assert_eq!(m.gate, 2);
        }
    }

    #[test]
    fn unobservable_sites_are_refused() {
        // Gate 0 feeds nothing: no mutant of it can be witnessed.
        let c = Circuit::parse(b"aag 4 2 0 1 2\n2\n4\n8\n6 2 4\n8 3 5\n").unwrap();
        let m = apply(&c, 0, &[(0, true)]);
        assert!(!outputs_differ(&c, &m, &[true, true]));
    }
}
