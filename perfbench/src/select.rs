//! `select --workload NAME`: regenerates a workload's job list.
//!
//! Each slot of a workload names a circuit, model, tuple size and vector
//! count. Candidate injection seeds 1, 2, … are run in-process with the
//! benchmark's own configuration, and the first `take` candidates that
//! pass the slot's rule are kept. The rule is deterministic (node
//! counts and verdicts, never a clock), so the same program selects the
//! same list on any host. Every candidate and the reason it was kept or
//! passed over goes to stderr; the list goes to stdout:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     select --workload stuck_at_exhaustive > perfbench/jobs/stuck_at_exhaustive.txt
//! ```

use std::time::Instant;

use incdx_core::{RectifyResult, Verdict};

use crate::engine;
use crate::jobs::{self, Job, Model, Role};

/// One slot of a job list.
struct Slot {
    circuit: &'static str,
    model: Model,
    k: usize,
    vectors: usize,
    /// Jobs kept for the slot.
    take: usize,
    role: Role,
    /// Node-count window a kept job must fall in.
    nodes: (usize, usize),
}

/// Candidate seeds tried per slot before the slot is given up.
const TRIES: u64 = 60;

const fn slot(
    circuit: &'static str,
    model: Model,
    k: usize,
    vectors: usize,
    take: usize,
    nodes: (usize, usize),
) -> Slot {
    Slot {
        circuit,
        model,
        k,
        vectors,
        take,
        role: Role::Job,
        nodes,
    }
}

const fn with_role(mut s: Slot, role: Role) -> Slot {
    s.role = role;
    s
}

use Model::{Dedc, StuckAt};

/// Exhaustive stuck-at on area-optimized circuits at 1024 vectors, plus
/// the one job whose search hits the 20 000-node cap.
const STUCK_AT: &[Slot] = &[
    slot("c432a", StuckAt, 1, 1024, 2, (1, 20_000)),
    slot("c1355a", StuckAt, 1, 1024, 2, (1, 20_000)),
    slot("c432a", StuckAt, 2, 1024, 4, (1, 20_000)),
    slot("c499a", StuckAt, 2, 1024, 3, (1, 20_000)),
    slot("c880a", StuckAt, 2, 1024, 3, (1, 20_000)),
    slot("c1355a", StuckAt, 2, 1024, 1, (1, 20_000)),
    slot("s641a", StuckAt, 2, 1024, 2, (1, 20_000)),
    slot("s1238a", StuckAt, 2, 1024, 2, (1, 20_000)),
    slot("s298a", StuckAt, 3, 1024, 4, (1, 20_000)),
    slot("s344a", StuckAt, 3, 1024, 4, (1, 20_000)),
    slot("s641a", StuckAt, 3, 1024, 1, (1, 12_000)),
    with_role(
        slot("s344a", StuckAt, 4, 256, 1, (0, usize::MAX)),
        Role::Capped,
    ),
];

/// First-solution DEDC on unoptimized circuits at 2048 vectors.
const DEDC: &[Slot] = &[
    slot("c432a", Dedc, 3, 2048, 3, (1, 100)),
    slot("c432a", Dedc, 4, 2048, 3, (1, 100)),
    slot("c880a", Dedc, 3, 2048, 4, (1, 100)),
    slot("c880a", Dedc, 4, 2048, 3, (1, 100)),
    slot("c1908a", Dedc, 3, 2048, 2, (1, 30)),
    slot("c1908a", Dedc, 4, 2048, 1, (1, 30)),
    slot("c2670a", Dedc, 3, 2048, 2, (1, 30)),
    slot("c2670a", Dedc, 4, 2048, 1, (1, 20)),
];

/// Small stuck-at and DEDC daemon jobs, and giants that take several
/// 400-node slices.
const SERVE: &[Slot] = &[
    slot("c432a", Dedc, 1, 512, 20, (1, 400)),
    slot("c880a", Dedc, 1, 512, 20, (1, 400)),
    slot("c1908a", Dedc, 1, 512, 20, (1, 400)),
    slot("c2670a", Dedc, 1, 512, 20, (1, 400)),
    slot("c432a", Dedc, 2, 512, 20, (1, 400)),
    slot("c880a", Dedc, 2, 512, 20, (1, 400)),
    slot("c432a", StuckAt, 1, 512, 10, (1, 400)),
    slot("c880a", StuckAt, 1, 512, 10, (1, 400)),
    slot("c1355a", StuckAt, 1, 512, 10, (1, 400)),
    slot("c2670a", StuckAt, 1, 512, 10, (1, 400)),
    slot("s298a", StuckAt, 2, 512, 10, (1, 400)),
    slot("s344a", StuckAt, 2, 512, 10, (1, 400)),
    slot("s641a", StuckAt, 2, 512, 10, (1, 400)),
    slot("s1238a", StuckAt, 2, 512, 10, (1, 400)),
    with_role(
        slot("c432a", StuckAt, 2, 1024, 2, (1_500, 6_000)),
        Role::Giant,
    ),
    with_role(
        slot("s641a", StuckAt, 3, 1024, 1, (6_000, 12_000)),
        Role::Giant,
    ),
];

fn slots(workload: &str) -> Result<&'static [Slot], String> {
    Ok(match workload {
        "stuck_at_exhaustive" => STUCK_AT,
        "dedc_first_solution" => DEDC,
        "serve_mixed" => SERVE,
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Why a candidate was passed over, if it was.
fn verdict(slot: &Slot, result: &RectifyResult) -> Option<String> {
    let nodes = result.stats.nodes;
    let in_window = nodes >= slot.nodes.0 && nodes <= slot.nodes.1;
    match (slot.role, engine::failure(slot.model, result)) {
        // The capped job is kept *because* its truncated search is
        // still called exact.
        (Role::Capped, _) if result.verdict == Verdict::Exact && result.stats.truncated => None,
        (Role::Capped, _) => Some("its search is not truncated".into()),
        (_, Some(why)) => Some(why),
        (_, None) if !in_window => Some(format!("{nodes} nodes outside {:?}", slot.nodes)),
        (_, None) => None,
    }
}

/// Entry point of `select`.
pub fn main(args: &[String]) -> Result<(), String> {
    let workload = match args {
        [flag, name] if flag == "--workload" => name.as_str(),
        _ => return Err("usage: select --workload NAME".into()),
    };
    let optimize = crate::workload(workload)?.optimize;
    println!("# {workload}: circuit model k vectors seed role");
    println!("# Generated by `incdx-perfbench select --workload {workload}`.");
    for slot in slots(workload)? {
        let mut kept = 0;
        for seed in 1..=TRIES {
            if kept == slot.take {
                break;
            }
            let job = Job {
                circuit: slot.circuit.to_string(),
                model: slot.model,
                k: slot.k,
                vectors: slot.vectors,
                seed,
                role: slot.role,
            };
            let inst = match jobs::set_up(std::slice::from_ref(&job), optimize) {
                Ok((mut v, _)) => v.remove(0),
                Err(e) => {
                    eprintln!("{}: skip: {e}", job.line());
                    continue;
                }
            };
            // Above the window the candidate is passed over anyway, so
            // a node budget just past it stops runaway draws early; a
            // run that ends inside the window never reaches it.
            let budget = (slot.role != Role::Capped).then(|| slot.nodes.1 as u64 + 1);
            let t = Instant::now();
            let out = engine::run_job_with_budget(&inst, budget)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let nodes = out.result.stats.nodes;
            let why = verdict(slot, &out.result);
            eprintln!(
                "{}: {nodes} nodes, {ms:.1} ms, {} solutions, verdict {}, truncated {}: {}",
                job.line(),
                out.result.solutions.len(),
                out.result.verdict,
                out.result.stats.truncated,
                why.as_deref().unwrap_or("kept")
            );
            if why.is_none() {
                println!("{}", job.line());
                kept += 1;
            }
        }
        if kept < slot.take {
            eprintln!(
                "{} {} k={} v={}: only {kept} of {} kept after {TRIES} seeds",
                slot.circuit,
                slot.model.tag(),
                slot.k,
                slot.vectors,
                slot.take
            );
        }
    }
    Ok(())
}
