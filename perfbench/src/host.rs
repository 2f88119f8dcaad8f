//! Host-speed reference.
//!
//! The host shares its caches and memory with other tenants, and its
//! speed swings by tens of per cent from one second to the next; every
//! in-process job swings with it. The benchmark divides the swing out.
//! Right before and right after each job it times a reference pass: the
//! oracle's simulation of the job's own circuit on the job's own
//! vectors, a fixed amount of work in code that shares nothing with the
//! program. How fast the two passes ran, against the fixed nominal
//! speed below, is the job's host factor, and the job's time is divided
//! by it: it reads as the time on a host running at the nominal speed.
//! A set-up repetition is divided by the factor of passes over the
//! instances right after it. A change to the program cannot move the
//! reference, so it moves the reported times exactly as it moves the
//! raw ones.

use std::hint::black_box;
use std::time::Instant;

use crate::engine;
use crate::jobs::Instance;
use crate::oracle::{Circuit, Vectors};

/// Nanoseconds the oracle takes per gate and 64-vector word on the
/// reference host (2 vCPUs at 2.1 GHz) when it runs at its usual speed.
pub const NOMINAL_NS_PER_GATE_WORD: f64 = 8.0;

/// Gate-words one reference pass evaluates, at least: a few
/// milliseconds, long enough to time, short enough to sit between jobs.
const GATE_WORDS_PER_PASS: usize = 400_000;

/// Passes a stretch without jobs of its own (a set-up repetition) is
/// measured with.
pub const STRETCH_PASSES: usize = 32;

/// The reference simulation of one instance.
struct Part {
    circuit: Circuit,
    vectors: Vectors,
    /// Simulations in one pass.
    reps: usize,
}

/// Reference passes over a list of instances.
pub struct Reference {
    parts: Vec<Part>,
}

impl Reference {
    /// Prepares one reference pass per instance.
    pub fn new(instances: &[Instance]) -> Result<Reference, String> {
        let parts = instances
            .iter()
            .map(|inst| {
                let circuit = Circuit::from_netlist(&inst.golden)?;
                let vectors = engine::oracle_inputs(inst);
                let per_sim = (circuit.len() * vectors.words).max(1);
                Ok(Part {
                    reps: GATE_WORDS_PER_PASS.div_ceil(per_sim),
                    circuit,
                    vectors,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Reference { parts })
    }

    /// Runs instance `i`'s pass and adds its time to `speed`.
    pub fn pass(&self, i: usize, speed: &mut Speed) -> Result<(), String> {
        let p = &self.parts[i];
        let t = Instant::now();
        for _ in 0..p.reps {
            black_box(p.circuit.simulate(&p.vectors.rows, p.vectors.words)?);
        }
        speed.secs += t.elapsed().as_secs_f64();
        speed.gate_words += (p.reps * p.circuit.len() * p.vectors.words) as f64;
        Ok(())
    }

    /// Runs the passes of at most `n` instances spread evenly over the
    /// list.
    pub fn pass_some(&self, n: usize, speed: &mut Speed) -> Result<(), String> {
        let step = self.parts.len().div_ceil(n.max(1)).max(1);
        (0..self.parts.len())
            .step_by(step)
            .try_for_each(|i| self.pass(i, speed))
    }
}

/// Reference time gathered over a stretch of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Speed {
    /// Seconds the reference passes took.
    pub secs: f64,
    /// Gate-words they evaluated.
    pub gate_words: f64,
}

impl Speed {
    /// How much slower than nominal the host ran: 1.25 means raw
    /// times of that stretch are a quarter longer than at nominal speed.
    pub fn factor(&self) -> f64 {
        if self.gate_words == 0.0 {
            return 1.0;
        }
        self.secs * 1e9 / self.gate_words / NOMINAL_NS_PER_GATE_WORD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_measured_speed_over_nominal() {
        let nominal = Speed {
            secs: NOMINAL_NS_PER_GATE_WORD * 1e-9 * 1e6,
            gate_words: 1e6,
        };
        assert!((nominal.factor() - 1.0).abs() < 1e-12);
        let slow = Speed {
            secs: nominal.secs * 1.25,
            ..nominal
        };
        assert!((slow.factor() - 1.25).abs() < 1e-12);
        assert_eq!(Speed::default().factor(), 1.0);
    }
}
