//! Job lists and their set-up: circuit generation, area optimization,
//! fault or error injection, the vector draw and reference responses.
//!
//! A job list is a text file under `perfbench/jobs/`, one job a line:
//! `circuit model k vectors seed role`, where `model` is `stuck-at` or
//! `dedc` and `role` is `job`, `giant` (a serve job long enough to be
//! time-sliced) or `capped` (a stuck-at job known to hit the engine's
//! node cap). `#` starts a comment. The lists are compiled into the
//! binary; `select` regenerates them.

use std::collections::HashMap;
use std::time::Instant;

use incdx_fault::{inject_design_errors, inject_stuck_at_faults, InjectionConfig, StuckAt};
use incdx_netlist::{scan_convert, Netlist};
use incdx_opt::{optimize_for_area, OptConfig};
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fault model of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Exhaustive multiple stuck-at diagnosis (Table 1).
    StuckAt,
    /// Design-error diagnosis and correction, first solution (Table 2).
    Dedc,
}

impl Model {
    /// The tag used in job lists and on the serve wire.
    pub fn tag(self) -> &'static str {
        match self {
            Model::StuckAt => "stuck-at",
            Model::Dedc => "dedc",
        }
    }
}

/// What a job is in its list for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// An ordinary job.
    Job,
    /// A serve job long enough to be sliced many times.
    Giant,
    /// A stuck-at job that hits the engine's node cap.
    Capped,
}

impl Role {
    fn tag(self) -> &'static str {
        match self {
            Role::Job => "job",
            Role::Giant => "giant",
            Role::Capped => "capped",
        }
    }
}

/// One job of a list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Suite circuit name.
    pub circuit: String,
    /// Fault model.
    pub model: Model,
    /// Faults or errors injected, and the tuple-size bound.
    pub k: usize,
    /// Test vectors.
    pub vectors: usize,
    /// Injection and vector seed.
    pub seed: u64,
    /// Why the job is in its list.
    pub role: Role,
}

impl Job {
    /// The job's line in a list.
    pub fn line(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.circuit,
            self.model.tag(),
            self.k,
            self.vectors,
            self.seed,
            self.role.tag()
        )
    }
}

/// Parses a job list.
pub fn parse_list(text: &str) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| format!("job list line {}: {what}: {raw:?}", n + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 {
            return Err(bad("expected 6 fields"));
        }
        let model = match f[1] {
            "stuck-at" => Model::StuckAt,
            "dedc" => Model::Dedc,
            _ => return Err(bad("unknown model")),
        };
        let role = match f[5] {
            "job" => Role::Job,
            "giant" => Role::Giant,
            "capped" => Role::Capped,
            _ => return Err(bad("unknown role")),
        };
        jobs.push(Job {
            circuit: f[0].to_string(),
            model,
            k: f[2].parse().map_err(|_| bad("bad k"))?,
            vectors: f[3].parse().map_err(|_| bad("bad vector count"))?,
            seed: f[4].parse().map_err(|_| bad("bad seed"))?,
            role,
        });
    }
    Ok(jobs)
}

/// A set-up job: everything `Rectifier::new` takes, plus what the
/// oracle needs to check the answers.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The job.
    pub job: Job,
    /// The fault-free circuit (area-optimized where the workload asks).
    pub golden: Netlist,
    /// The netlist the engine diagnoses: `golden` for stuck-at, the
    /// corrupted design for DEDC.
    pub base: Netlist,
    /// Test vectors, one row per primary input of `golden`.
    pub pi: PackedMatrix,
    /// Device responses (stuck-at) or specification responses (DEDC).
    pub resp: Response,
    /// The injected stuck-at faults, sorted (empty for DEDC).
    pub injected: Vec<StuckAt>,
}

/// Seconds spent in each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `incdx_gen::generate` and scan conversion.
    pub generate: f64,
    /// `incdx_opt::optimize_for_area`.
    pub optimize: f64,
    /// Fault or error injection.
    pub inject: f64,
    /// Vector draw and reference-response simulation.
    pub reference: f64,
}

/// The optimization Table 1 prescribes: bounded redundancy removal.
fn table1_opt() -> OptConfig {
    OptConfig {
        redundancy_rounds: 2,
        backtrack_limit: 500,
        prefilter_vectors: 256,
    }
}

/// A suite circuit's combinational core.
pub fn generate(name: &str) -> Result<Netlist, String> {
    let n = incdx_gen::generate(name).map_err(|e| e.to_string())?;
    if n.is_combinational() {
        Ok(n)
    } else {
        Ok(scan_convert(&n).map_err(|e| e.to_string())?.0)
    }
}

/// Sets up every job from scratch. Each distinct circuit is generated
/// (and optimized) once. Injection and vectors follow the Table 1 and
/// Table 2 trials: the injection draws from `seed`, the vectors from
/// `seed` mixed with a fixed per-model constant.
pub fn set_up(jobs: &[Job], optimize: bool) -> Result<(Vec<Instance>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut circuits: HashMap<String, Netlist> = HashMap::new();
    let mut out = Vec::with_capacity(jobs.len());
    for job in jobs {
        if !circuits.contains_key(&job.circuit) {
            let t = Instant::now();
            let mut n = generate(&job.circuit)?;
            times.generate += t.elapsed().as_secs_f64();
            if optimize {
                let t = Instant::now();
                n = optimize_for_area(&n, &table1_opt()).netlist;
                times.optimize += t.elapsed().as_secs_f64();
            }
            circuits.insert(job.circuit.clone(), n);
        }
        let golden = &circuits[&job.circuit];
        out.push(instance(job, golden, &mut times)?);
    }
    Ok((out, times))
}

fn instance(job: &Job, golden: &Netlist, times: &mut SetupTimes) -> Result<Instance, String> {
    let mut rng = StdRng::seed_from_u64(job.seed);
    let mut sim = Simulator::new();
    let unusable = |why: &str| format!("job `{}` is unusable: {why}", job.line());
    match job.model {
        Model::StuckAt => {
            let t = Instant::now();
            let injection = inject_stuck_at_faults(
                golden,
                &InjectionConfig {
                    count: job.k,
                    require_individually_observable: false,
                    check_vectors: job.vectors,
                    max_attempts: 100,
                },
                &mut rng,
            )
            .map_err(|e| unusable(&e.to_string()))?;
            times.inject += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut vec_rng = StdRng::seed_from_u64(job.seed ^ 0x00D1_A600);
            let pi = PackedMatrix::random(golden.inputs().len(), job.vectors, &mut vec_rng);
            let device = Response::capture(
                &injection.corrupted,
                &sim.run_for_inputs(&injection.corrupted, golden.inputs(), &pi),
            );
            let matches = Response::compare(golden, &sim.run(golden, &pi), &device).matches();
            times.reference += t.elapsed().as_secs_f64();
            if matches {
                return Err(unusable("the device shows no failing vector"));
            }
            let mut injected = injection.injected;
            injected.sort();
            Ok(Instance {
                job: job.clone(),
                golden: golden.clone(),
                base: golden.clone(),
                pi,
                resp: device,
                injected,
            })
        }
        Model::Dedc => {
            let t = Instant::now();
            let injection = inject_design_errors(
                golden,
                &InjectionConfig {
                    count: job.k,
                    require_individually_observable: true,
                    check_vectors: job.vectors,
                    max_attempts: 300,
                },
                &mut rng,
            )
            .map_err(|e| unusable(&e.to_string()))?;
            times.inject += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut vec_rng = StdRng::seed_from_u64(job.seed ^ 0x0DED_C000);
            let pi = PackedMatrix::random(golden.inputs().len(), job.vectors, &mut vec_rng);
            let spec = Response::capture(golden, &sim.run(golden, &pi));
            times.reference += t.elapsed().as_secs_f64();
            Ok(Instance {
                job: job.clone(),
                golden: golden.clone(),
                base: injection.corrupted,
                pi,
                resp: spec,
                injected: Vec::new(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_round_trip_and_reject_malformed_lines() {
        let text = "# header\nc432a stuck-at 2 1024 7 job\ns344a stuck-at 4 256 3 capped # why\n";
        let jobs = parse_list(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].role, Role::Capped);
        assert_eq!(parse_list(&jobs[0].line()).unwrap()[0], jobs[0]);
        assert!(parse_list("c432a stuck-at 2 1024 job").is_err());
        assert!(parse_list("c432a sa 2 1024 7 job").is_err());
        assert!(parse_list("c432a dedc x 1024 7 job").is_err());
    }
}
