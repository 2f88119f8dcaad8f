//! The benchmark's independent correctness oracle: a small word-parallel
//! gate-level evaluator that shares no code with `incdx-sim`.
//!
//! It copies a netlist's structure (gate kinds and fanin lists) into its
//! own representation, applies correction tuples with its own reading of
//! each [`CorrectionAction`], and evaluates the result by a fresh
//! topological walk. The checks built on it replay every reported
//! stuck-at tuple and DEDC correction against responses the oracle
//! computed itself.

use incdx_fault::{Correction, CorrectionAction, StuckAt};
use incdx_netlist::{GateKind, Netlist};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Input,
    Const(bool),
    Buf,
    Not,
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
}

impl Kind {
    fn from_gate(kind: GateKind) -> Result<Kind, String> {
        Ok(match kind {
            GateKind::Input => Kind::Input,
            GateKind::Const0 => Kind::Const(false),
            GateKind::Const1 => Kind::Const(true),
            GateKind::Buf => Kind::Buf,
            GateKind::Not => Kind::Not,
            GateKind::And => Kind::And,
            GateKind::Nand => Kind::Nand,
            GateKind::Or => Kind::Or,
            GateKind::Nor => Kind::Nor,
            GateKind::Xor => Kind::Xor,
            GateKind::Xnor => Kind::Xnor,
            GateKind::Dff => return Err("oracle evaluates combinational netlists only".into()),
        })
    }
}

#[derive(Debug, Clone)]
struct Gate {
    kind: Kind,
    /// Driving gates, by index.
    fanins: Vec<usize>,
}

/// A combinational circuit in the oracle's own representation.
#[derive(Debug, Clone)]
pub struct Circuit {
    gates: Vec<Gate>,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
}

/// Packed primary-output values: one row of `words` words per output.
pub type Outputs = Vec<Vec<u64>>;

impl Circuit {
    /// Copies `netlist`'s structure.
    pub fn from_netlist(netlist: &Netlist) -> Result<Circuit, String> {
        let mut gates = Vec::with_capacity(netlist.len());
        for (_, g) in netlist.iter() {
            gates.push(Gate {
                kind: Kind::from_gate(g.kind())?,
                fanins: g.fanins().iter().map(|f| f.index()).collect(),
            });
        }
        Ok(Circuit {
            gates,
            inputs: netlist.inputs().iter().map(|i| i.index()).collect(),
            outputs: netlist.outputs().iter().map(|o| o.index()).collect(),
        })
    }

    /// Applies one correction. Each action is read as a rewrite of the
    /// gate driving the corrected line. Helper gates (the inverter of
    /// `InvertInput`, the copy of the old function of `InsertGate`) are
    /// appended, so later corrections of a tuple name the same line
    /// numbers they do in the engine.
    pub fn apply(&mut self, c: &Correction) -> Result<(), String> {
        let line = c.line().index();
        let n = self.gates.len();
        let gate = self
            .gates
            .get(line)
            .cloned()
            .ok_or_else(|| format!("correction on unknown line {line}"))?;
        let port = |p: usize| {
            gate.fanins
                .get(p)
                .copied()
                .ok_or_else(|| format!("line {line} has no port {p}"))
        };
        let known = |s: usize| {
            if s < n {
                Ok(s)
            } else {
                Err(format!("unknown source {s}"))
            }
        };
        let new = match c.action() {
            CorrectionAction::SetConst(v) => Gate {
                kind: Kind::Const(v),
                fanins: Vec::new(),
            },
            CorrectionAction::ChangeKind(k) => Gate {
                kind: Kind::from_gate(k)?,
                fanins: gate.fanins.clone(),
            },
            CorrectionAction::InvertInput { port: p } => {
                let src = port(p)?;
                let mut g = gate.clone();
                let feeding = &self.gates[src];
                // An inverter already on the wire is bypassed; otherwise
                // one is inserted.
                g.fanins[p] = if feeding.kind == Kind::Not && feeding.fanins.len() == 1 {
                    feeding.fanins[0]
                } else {
                    self.gates.push(Gate {
                        kind: Kind::Not,
                        fanins: vec![src],
                    });
                    self.gates.len() - 1
                };
                g
            }
            CorrectionAction::RemoveInput { port: p } => {
                port(p)?;
                let mut g = gate.clone();
                g.fanins.remove(p);
                g
            }
            CorrectionAction::AddInput { source } => {
                let mut g = gate.clone();
                g.fanins.push(known(source.index())?);
                g
            }
            CorrectionAction::ReplaceInput { port: p, source } => {
                port(p)?;
                let mut g = gate.clone();
                g.fanins[p] = known(source.index())?;
                g
            }
            CorrectionAction::WireThrough { port: p } => Gate {
                kind: Kind::Buf,
                fanins: vec![port(p)?],
            },
            CorrectionAction::InsertGate { kind, other } => {
                // The line's old function moves to a fresh gate, which
                // then feeds the inserted one together with `other`.
                let aux = self.gates.len();
                self.gates.push(gate.clone());
                Gate {
                    kind: Kind::from_gate(kind)?,
                    fanins: vec![aux, known(other.index())?],
                }
            }
        };
        self.gates[line] = new;
        Ok(())
    }

    /// A copy with every correction of `tuple` applied in order.
    pub fn corrected(&self, tuple: &[Correction]) -> Result<Circuit, String> {
        let mut c = self.clone();
        for corr in tuple {
            c.apply(corr)?;
        }
        Ok(c)
    }

    /// Gates feeding the outputs, each after its fanins. Errors on a
    /// combinational cycle.
    fn order(&self) -> Result<Vec<usize>, String> {
        // 0 = unseen, 1 = on the walk, 2 = done.
        let mut state = vec![0u8; self.gates.len()];
        let mut order = Vec::with_capacity(self.gates.len());
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for &o in &self.outputs {
            if state[o] != 0 {
                continue;
            }
            state[o] = 1;
            stack.push((o, 0));
            while let Some(top) = stack.last_mut() {
                let (g, next) = *top;
                if let Some(&src) = self.gates[g].fanins.get(next) {
                    top.1 += 1;
                    match state[src] {
                        0 => {
                            state[src] = 1;
                            stack.push((src, 0));
                        }
                        1 => return Err(format!("combinational cycle through gate {src}")),
                        _ => {}
                    }
                } else {
                    state[g] = 2;
                    order.push(g);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// Evaluates the circuit on packed input rows (one row of `words`
    /// words per primary input, in input order) and returns the packed
    /// output rows.
    pub fn simulate(&self, inputs: &[Vec<u64>], words: usize) -> Result<Outputs, String> {
        if inputs.len() != self.inputs.len() {
            return Err(format!(
                "{} input rows for {} inputs",
                inputs.len(),
                self.inputs.len()
            ));
        }
        let mut vals = vec![0u64; self.gates.len() * words];
        let mut is_input = vec![None; self.gates.len()];
        for (row, &i) in self.inputs.iter().enumerate() {
            is_input[i] = Some(row);
        }
        let mut acc = vec![0u64; words];
        for g in self.order()? {
            let gate = &self.gates[g];
            for (i, a) in acc.iter_mut().enumerate() {
                let mut ins = gate.fanins.iter().map(|&src| vals[src * words + i]);
                *a = match gate.kind {
                    Kind::Input => match is_input[g] {
                        Some(row) => inputs[row][i],
                        None => return Err(format!("gate {g} is an input but not listed")),
                    },
                    Kind::Const(v) => {
                        if v {
                            !0
                        } else {
                            0
                        }
                    }
                    Kind::Buf => ins.next().unwrap_or(0),
                    Kind::Not => !ins.next().unwrap_or(0),
                    Kind::And => ins.fold(!0, |x, y| x & y),
                    Kind::Nand => !ins.fold(!0, |x, y| x & y),
                    Kind::Or => ins.fold(0, |x, y| x | y),
                    Kind::Nor => !ins.fold(0, |x, y| x | y),
                    Kind::Xor => ins.fold(0, |x, y| x ^ y),
                    Kind::Xnor => !ins.fold(0, |x, y| x ^ y),
                };
            }
            vals[g * words..(g + 1) * words].copy_from_slice(&acc);
        }
        Ok(self
            .outputs
            .iter()
            .map(|&o| vals[o * words..(o + 1) * words].to_vec())
            .collect())
    }

    /// Number of gates of the original netlist (appended helper gates
    /// included once corrections have been applied).
    pub fn len(&self) -> usize {
        self.gates.len()
    }
}

/// Packed test vectors in the oracle's terms, with the tail mask of the
/// last word.
#[derive(Debug, Clone)]
pub struct Vectors {
    /// One row per primary input.
    pub rows: Vec<Vec<u64>>,
    /// Words per row.
    pub words: usize,
    /// Valid bits of the last word.
    pub tail: u64,
}

impl Vectors {
    /// Copies the rows of `pi` (`num_vectors` vectors, 64 per word).
    pub fn new(rows: Vec<Vec<u64>>, num_vectors: usize) -> Vectors {
        let words = num_vectors.div_ceil(64);
        let rem = num_vectors % 64;
        let tail = if rem == 0 { !0 } else { (1u64 << rem) - 1 };
        Vectors { rows, words, tail }
    }

    /// True when `a` and `b` agree on every output and every vector.
    pub fn same(&self, a: &Outputs, b: &Outputs) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.iter().zip(y).enumerate().all(|(i, (p, q))| {
                    let mask = if i + 1 == self.words { self.tail } else { !0 };
                    (p ^ q) & mask == 0
                })
            })
    }
}

/// Stuck-at faults as oracle corrections.
pub fn stuck_tuple(faults: &[StuckAt]) -> Vec<Correction> {
    faults
        .iter()
        .map(|f| Correction::new(f.line(), CorrectionAction::SetConst(f.value())))
        .collect()
}

/// Does `tuple` applied to `circuit` reproduce `reference` on every
/// vector?
pub fn explains(
    circuit: &Circuit,
    tuple: &[Correction],
    vectors: &Vectors,
    reference: &Outputs,
) -> Result<bool, String> {
    let c = circuit.corrected(tuple)?;
    Ok(vectors.same(&c.simulate(&vectors.rows, vectors.words)?, reference))
}

/// Checks an exhaustive stuck-at answer set against the device
/// responses: every tuple explains the device and is minimal (no proper
/// non-empty subset explains it), the tuples are distinct, and the
/// injected tuple or a subset of it is among them. For `k = 1` the set
/// must equal the brute-force enumeration of every single stuck-at
/// fault that explains the device.
pub fn check_stuck_at(
    golden: &Circuit,
    vectors: &Vectors,
    device: &Outputs,
    injected: &[StuckAt],
    k: usize,
    answers: &[Vec<StuckAt>],
) -> Result<(), String> {
    let mut seen: Vec<Vec<StuckAt>> = Vec::new();
    for t in answers {
        let mut key = t.clone();
        key.sort();
        if seen.contains(&key) {
            return Err(format!("tuple {key:?} reported twice"));
        }
        if key.is_empty() || key.len() > k {
            return Err(format!("tuple {key:?} has size outside 1..={k}"));
        }
        if !explains(golden, &stuck_tuple(&key), vectors, device)? {
            return Err(format!("tuple {key:?} does not reproduce the device"));
        }
        // Every proper non-empty subset, by bit mask.
        for mask in 1..(1u32 << key.len()) - 1 {
            let sub: Vec<StuckAt> = key
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, f)| *f)
                .collect();
            if explains(golden, &stuck_tuple(&sub), vectors, device)? {
                return Err(format!("tuple {key:?} is not minimal: {sub:?} explains"));
            }
        }
        seen.push(key);
    }
    if !seen.iter().any(|t| t.iter().all(|f| injected.contains(f))) {
        return Err(format!(
            "neither the injected tuple {injected:?} nor a subset of it was reported"
        ));
    }
    if k == 1 {
        let mut brute: Vec<Vec<StuckAt>> = Vec::new();
        // Every line the engine may place a fault on: constants carry
        // none.
        let lines = (0..golden.len()).filter(|&g| !matches!(golden.gates[g].kind, Kind::Const(_)));
        for line in lines {
            for v in [false, true] {
                let f = StuckAt::new(incdx_netlist::GateId::from_index(line), v);
                if explains(golden, &stuck_tuple(&[f]), vectors, device)? {
                    brute.push(vec![f]);
                }
            }
        }
        seen.sort();
        if brute != seen {
            return Err(format!(
                "k=1 answers {seen:?} differ from the brute-force set {brute:?}"
            ));
        }
    }
    Ok(())
}

/// Checks a DEDC correction tuple: applied to the erroneous design it
/// must reproduce the specification on every vector.
pub fn check_correction(
    design: &Circuit,
    vectors: &Vectors,
    spec: &Outputs,
    tuple: &[Correction],
) -> Result<(), String> {
    if explains(design, tuple, vectors, spec)? {
        Ok(())
    } else {
        Err(format!(
            "correction {tuple:?} does not reproduce the specification"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::{parse_bench, GateId};

    /// y = AND(a, b), z = OR(b, c); four vectors per input word.
    fn circuit() -> (Netlist, Vectors) {
        let n = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(b, c)\n",
        )
        .unwrap();
        // Vectors 0..8 enumerate (a, b, c) as bits 0, 1, 2 of the index.
        let rows = (0..3)
            .map(|bit| {
                vec![(0..8u64)
                    .filter(|v| v >> bit & 1 == 1)
                    .map(|v| 1 << v)
                    .sum()]
            })
            .collect();
        (n, Vectors::new(rows, 8))
    }

    fn id(n: &Netlist, name: &str) -> GateId {
        n.find_by_name(name).unwrap()
    }

    #[test]
    fn evaluates_by_truth_table() {
        let (n, v) = circuit();
        let out = Circuit::from_netlist(&n)
            .unwrap()
            .simulate(&v.rows, v.words)
            .unwrap();
        assert_eq!(out[0][0] & 0xFF, 0b1000_1000); // a & b: vectors 3, 7
        assert_eq!(out[1][0] & 0xFF, 0b1111_1100); // b | c
    }

    #[test]
    fn stuck_at_answers_are_replayed_and_checked_for_minimality() {
        let (n, v) = circuit();
        let golden = Circuit::from_netlist(&n).unwrap();
        // Device: b stuck at 0 — y = 0 everywhere, z = c.
        let b0 = StuckAt::new(id(&n, "b"), false);
        let device = golden
            .corrected(&stuck_tuple(&[b0]))
            .unwrap()
            .simulate(&v.rows, v.words)
            .unwrap();
        // b/0 is the only single fault explaining the device.
        check_stuck_at(&golden, &v, &device, &[b0], 1, &[vec![b0]]).unwrap();
        // Missing answer: the brute-force comparison catches it.
        let y0 = StuckAt::new(id(&n, "y"), false);
        assert!(check_stuck_at(&golden, &v, &device, &[b0], 1, &[]).is_err());
        // A tuple that does not explain the device.
        assert!(check_stuck_at(&golden, &v, &device, &[b0], 1, &[vec![y0]]).is_err());
        // A non-minimal tuple: {b/0, y/0} explains, but so does {b/0}.
        assert!(check_stuck_at(&golden, &v, &device, &[b0], 2, &[vec![b0, y0]]).is_err());
        // A double fault explained only by the pair.
        let c1 = StuckAt::new(id(&n, "c"), true);
        let device2 = golden
            .corrected(&stuck_tuple(&[y0, c1]))
            .unwrap()
            .simulate(&v.rows, v.words)
            .unwrap();
        let z1 = StuckAt::new(id(&n, "z"), true);
        // {y/0, z/1} and {y/0, c/1} both explain it; each is minimal.
        check_stuck_at(
            &golden,
            &v,
            &device2,
            &[y0, c1],
            2,
            &[vec![y0, c1], vec![y0, z1]],
        )
        .unwrap();
        // Reporting only the other tuple loses the injected one.
        assert!(check_stuck_at(&golden, &v, &device2, &[y0, c1], 2, &[vec![y0, z1]]).is_err());
    }

    #[test]
    fn design_corrections_are_replayed() {
        let (spec_nl, v) = circuit();
        // The erroneous design has y = OR(a, b) and z = NOR(b, c).
        let design_nl = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\ny = OR(a, b)\nz = NOR(b, c)\n",
        )
        .unwrap();
        let spec = Circuit::from_netlist(&spec_nl)
            .unwrap()
            .simulate(&v.rows, v.words)
            .unwrap();
        let design = Circuit::from_netlist(&design_nl).unwrap();
        let y = id(&design_nl, "y");
        let z = id(&design_nl, "z");
        let fix_y = Correction::new(y, CorrectionAction::ChangeKind(GateKind::And));
        let fix_z = Correction::new(z, CorrectionAction::ChangeKind(GateKind::Or));
        check_correction(&design, &v, &spec, &[fix_y, fix_z]).unwrap();
        assert!(check_correction(&design, &v, &spec, &[fix_y]).is_err());
        // An output inverter moved into a gate: NOR(b, c) = OR(b, c) fed
        // through a NOT, so inserting XOR with a constant-1 line is
        // another fix; here the inverted-input form: NOR(!b, !c) = AND(b, c)
        // is not OR(b, c), so it must fail.
        let inv0 = Correction::new(z, CorrectionAction::InvertInput { port: 0 });
        let inv1 = Correction::new(z, CorrectionAction::InvertInput { port: 1 });
        assert!(check_correction(&design, &v, &spec, &[fix_y, inv0, inv1]).is_err());
        // Wiring through and replacing inputs: y = BUF(b) is wrong,
        // but y = AND(a, b) rebuilt by replacing nothing is right.
        let wire = Correction::new(y, CorrectionAction::WireThrough { port: 1 });
        assert!(check_correction(&design, &v, &spec, &[wire, fix_z]).is_err());
    }

    #[test]
    fn insert_gate_and_rewiring_follow_the_action_semantics() {
        let (n, v) = circuit();
        let golden = Circuit::from_netlist(&n).unwrap();
        let (a, b, c, y) = (id(&n, "a"), id(&n, "b"), id(&n, "c"), id(&n, "y"));
        // y := XOR(AND(a, b), c)
        let ins = Correction::new(
            y,
            CorrectionAction::InsertGate {
                kind: GateKind::Xor,
                other: c,
            },
        );
        let out = golden
            .corrected(&[ins])
            .unwrap()
            .simulate(&v.rows, v.words)
            .unwrap();
        let expect: u64 = (0..8u64)
            .filter(|x| ((x & 1 == 1) && (x >> 1 & 1 == 1)) != (x >> 2 & 1 == 1))
            .map(|x| 1 << x)
            .sum();
        assert_eq!(out[0][0] & 0xFF, expect);
        // y := AND(a, c) by rewiring port 1, then AND(a, c, b) by adding b.
        let rep = Correction::new(y, CorrectionAction::ReplaceInput { port: 1, source: c });
        let add = Correction::new(y, CorrectionAction::AddInput { source: b });
        let out = golden
            .corrected(&[rep, add])
            .unwrap()
            .simulate(&v.rows, v.words)
            .unwrap();
        assert_eq!(out[0][0] & 0xFF, 1 << 7);
        // Inverting a port twice restores the function; the first
        // inversion appends an inverter, the second bypasses it.
        let inv = Correction::new(y, CorrectionAction::InvertInput { port: 0 });
        let once = golden.corrected(&[inv]).unwrap();
        assert_eq!(once.len(), golden.len() + 1);
        let out = once.simulate(&v.rows, v.words).unwrap();
        assert_eq!(out[0][0] & 0xFF, 1 << 2 | 1 << 6); // !a & b
        let twice = golden.corrected(&[inv, inv]).unwrap();
        let out = twice.simulate(&v.rows, v.words).unwrap();
        assert_eq!(out[0][0] & 0xFF, 1 << 3 | 1 << 7);
        // Removing port 0 leaves y = AND(b) = b.
        let rm = Correction::new(y, CorrectionAction::RemoveInput { port: 0 });
        let out = golden
            .corrected(&[rm])
            .unwrap()
            .simulate(&v.rows, v.words)
            .unwrap();
        assert_eq!(out[0][0] & 0xFF, v.rows[1][0] & 0xFF);
        // A rewire that closes a loop is refused by the evaluator.
        let a_from_y = Correction::new(a, CorrectionAction::SetConst(true));
        assert!(golden.corrected(&[a_from_y]).is_ok());
        let loopy = Correction::new(y, CorrectionAction::AddInput { source: y });
        assert!(golden
            .corrected(&[loopy])
            .unwrap()
            .simulate(&v.rows, v.words)
            .is_err());
    }
}
