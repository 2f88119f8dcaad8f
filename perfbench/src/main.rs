//! `incdx-perfbench`: the repository's benchmark.
//!
//! ```text
//! incdx-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! incdx-perfbench repeat --runs N --seconds S [--trace 0|1] [--seed N] [--workloads A,B]
//! incdx-perfbench select --workload NAME
//! incdx-perfbench daemon --spool DIR
//! ```
//!
//! A run sets its workload up several times, then runs whole rounds of
//! the workload's job list until `--seconds` have passed, checks every
//! answer, and prints one JSON line: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of a traced run. `repeat` runs the
//! workloads interleaved in child processes and prints the median and
//! quartiles of every metric. `select` regenerates a job list. See
//! `perfbench/README.md`.

mod engine;
mod host;
mod jobs;
mod oracle;
mod select;
mod serve;
mod stats;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use incdx_serve::solution_fingerprint;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::jobs::{Instance, Job, Role};
use crate::stats::{median, quantile};

/// Times the set-up is repeated in a run; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// One named workload.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The job list.
    pub list: &'static str,
    /// Area-optimize the circuits first (Table 1).
    pub optimize: bool,
    /// The tail percentile `job_tail_ms` reports: the highest whole
    /// percentile with at least ten jobs beyond it in a run of the fewest
    /// rounds a 25-second run makes (see the README).
    pub tail_q: f64,
    /// Run through the daemon rather than in-process.
    pub serve: bool,
}

/// The workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "stuck_at_exhaustive",
        list: include_str!("../jobs/stuck_at_exhaustive.txt"),
        optimize: true,
        tail_q: 0.88,
        serve: false,
    },
    Workload {
        name: "dedc_first_solution",
        list: include_str!("../jobs/dedc_first_solution.txt"),
        optimize: false,
        tail_q: 0.86,
        serve: false,
    },
    Workload {
        name: "serve_mixed",
        list: include_str!("../jobs/serve_mixed.txt"),
        optimize: false,
        tail_q: 0.98,
        serve: true,
    },
];

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run. A layer a workload does
/// not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.generate_s", "s"),
    ("opt.optimize_s", "s"),
    ("fault.inject_s", "s"),
    ("sim.reference_s", "s"),
    ("serve.ready_s", "s"),
    ("core.new_ms", "ms"),
    ("lint.preflight_ms", "ms"),
    ("atpg.scoap_ms", "ms"),
    ("core.evaluator.prepare_s", "s"),
    ("core.evaluator.prepare_calls", "count"),
    ("sim.words_simulated", "count"),
    ("sim.words_per_s", "1/s"),
    ("sim.words_skipped", "count"),
    ("sim.blocks_skipped", "count"),
    ("core.matrix_cache_hits", "count"),
    ("core.matrix_cache_evictions", "count"),
    ("core.traversal.schedule_s", "s"),
    ("core.traversal.schedule_calls", "count"),
    ("core.nodes", "count"),
    ("core.rounds", "count"),
    ("core.run_s", "s"),
    ("core.pipeline_s", "s"),
    ("core.path_trace_us", "us"),
    ("core.screen_ns", "ns"),
    ("core.rank_ms", "ms"),
    ("core.corrections_screened", "count"),
    ("core.qualify_ratio", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.slices", "count"),
    ("serve.nodes", "count"),
    ("serve.spool_bytes", "B"),
    ("serve.spool_files", "count"),
    ("serve.intern_hits", "count"),
    ("serve.intern_misses", "count"),
    ("serve.daemon_cpu_s", "s"),
    ("core.checkpoint_write_ms", "ms"),
    ("core.checkpoint_read_ms", "ms"),
    ("core.resume_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.calibration_ms", "ms"),
];

type Metrics = BTreeMap<&'static str, f64>;

/// What a run found.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Wrong answers; empty means correct.
    problems: Vec<String>,
    /// Why each failed operation failed (one entry per distinct reason).
    failures: Vec<String>,
    e2e: Metrics,
    layers: Metrics,
}

impl Report {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if !self.failures.contains(&why) {
            self.failures.push(why);
        }
    }
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("daemon") => return serve::daemon_main(&args[1..]),
        Some("repeat") => repeat(&args[1..]),
        Some("select") => select::main(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("incdx-perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Reads `--name value` pairs.
fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(f: &HashMap<String, String>, name: &str) -> Result<T, String> {
    f.get(name)
        .ok_or_else(|| format!("--{name} is required"))?
        .parse()
        .map_err(|_| format!("--{name}: bad value"))
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

fn run(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let w = workload(&f.get("workload").cloned().unwrap_or_default())?;
    let seed: u64 = flag(&f, "seed")?;
    let seconds: f64 = flag(&f, "seconds")?;
    let trace = match flag::<u8>(&f, "trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let calibration = stats::calibration_ms();
    eprintln!("calibration_ms={calibration:.3}");
    let mut report = if w.serve {
        run_serve(w, seed, seconds, trace)?
    } else {
        run_engine(w, seed, seconds, trace)?
    };
    report.layers.insert("host.calibration_ms", calibration);
    for why in &report.failures {
        eprintln!("failed operation: {why}");
    }
    for p in &report.problems {
        eprintln!("WRONG: {p}");
    }
    let (table, values) = if trace {
        (PER_LAYER, &report.layers)
    } else {
        (END_TO_END, &report.e2e)
    };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    for name in values.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in the metric table"));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    Ok(())
}

/// One timed set-up.
struct SetUpRep {
    wall_s: f64,
    /// Host factor of reference passes over the instances right after it.
    factor: f64,
}

/// Set-up, timed `reps` times; the layer metrics are the medians.
fn set_up_repeatedly(
    jobs: &[Job],
    optimize: bool,
    reps: usize,
    layers: &mut Metrics,
) -> Result<(Vec<Instance>, Vec<SetUpRep>), String> {
    let mut walls = Vec::new();
    let mut times = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let (inst, layer) = jobs::set_up(jobs, optimize)?;
        let wall_s = t.elapsed().as_secs_f64();
        let mut speed = host::Speed::default();
        host::Reference::new(&inst)?.pass_some(host::STRETCH_PASSES, &mut speed)?;
        walls.push(SetUpRep {
            wall_s,
            factor: speed.factor(),
        });
        times.push(layer);
        instances = inst;
    }
    let med = |f: fn(&jobs::SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    layers.insert("gen.generate_s", med(|t| t.generate));
    layers.insert("opt.optimize_s", med(|t| t.optimize));
    layers.insert("fault.inject_s", med(|t| t.inject));
    layers.insert("sim.reference_s", med(|t| t.reference));
    Ok((instances, walls))
}

/// Per-round sums of an in-process round.
#[derive(Default)]
struct EngineRound {
    /// Wall time of the jobs, reference passes excluded, seconds.
    wall_s: f64,
    /// Latencies of the jobs that did not fail, at nominal host speed
    /// (see `host`), seconds.
    latencies: Vec<f64>,
    /// Every job's latency at nominal host speed by instance index,
    /// seconds.
    per_job: Vec<(usize, f64)>,
    job_sum_s: f64,
    /// Sum of every job's latency at nominal host speed, seconds.
    nominal_s: f64,
    new_ms: Vec<f64>,
    scoap_ms: Vec<f64>,
    run_s: f64,
    nodes: u64,
    rounds: u64,
    screened: u64,
    qualified: u64,
    words_skipped: u64,
    blocks_skipped: u64,
    cache_hits: u64,
    evictions: u64,
    tally: engine::TallySnapshot,
}

impl EngineRound {
    /// Adds a job that ran at host factor `factor`.
    fn add(&mut self, out: &engine::Outcome, failed: bool, factor: f64) {
        let nominal = out.latency_s / factor;
        if !failed {
            self.latencies.push(nominal);
        }
        let s = &out.result.stats;
        self.job_sum_s += out.latency_s;
        self.nominal_s += nominal;
        self.new_ms.push(out.new_s * 1e3);
        self.scoap_ms.push(out.scoap_s * 1e3);
        self.run_s += out.run_s;
        self.nodes += s.nodes as u64;
        self.rounds += s.rounds as u64;
        self.screened += s.corrections_screened as u64;
        self.qualified += s.corrections_qualified as u64;
        self.words_skipped += s.words_skipped;
        self.blocks_skipped += s.blocks_skipped;
        self.cache_hits += s.matrix_cache_hits;
        self.evictions += s.matrix_cache_evictions;
    }
}

/// What the first round saw of a job, for comparing later rounds.
#[derive(Clone, PartialEq)]
struct Seen {
    fp: u64,
    nodes: usize,
    failure: Option<String>,
}

fn seen(out: &engine::Outcome, model: jobs::Model) -> Seen {
    Seen {
        fp: solution_fingerprint(&out.result.solutions),
        nodes: out.result.stats.nodes,
        failure: engine::failure(model, &out.result),
    }
}

/// Fills the evaluator, traversal and pipeline metrics from traced
/// rounds (medians of per-round totals; counts repeat exactly).
fn engine_layers(layers: &mut Metrics, traced: &[EngineRound]) {
    let med = |f: &dyn Fn(&EngineRound) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let prepare_s = med(&|r| r.tally.prepare_s);
    let schedule_s = med(&|r| r.tally.schedule_s);
    let run_s = med(&|r| r.run_s);
    let words = med(&|r| r.tally.prepare_words as f64);
    let all = |f: &dyn Fn(&EngineRound) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    layers.insert("core.new_ms", median(&all(&|r| &r.new_ms)));
    layers.insert("atpg.scoap_ms", median(&all(&|r| &r.scoap_ms)));
    layers.insert("core.evaluator.prepare_s", prepare_s);
    layers.insert(
        "core.evaluator.prepare_calls",
        med(&|r| r.tally.prepare_calls as f64),
    );
    layers.insert("sim.words_simulated", words);
    layers.insert("sim.words_per_s", words / prepare_s.max(1e-12));
    layers.insert("sim.words_skipped", med(&|r| r.words_skipped as f64));
    layers.insert("sim.blocks_skipped", med(&|r| r.blocks_skipped as f64));
    layers.insert("core.matrix_cache_hits", med(&|r| r.cache_hits as f64));
    layers.insert("core.matrix_cache_evictions", med(&|r| r.evictions as f64));
    layers.insert("core.traversal.schedule_s", schedule_s);
    layers.insert(
        "core.traversal.schedule_calls",
        med(&|r| r.tally.schedule_calls as f64),
    );
    layers.insert("core.nodes", med(&|r| r.nodes as f64));
    layers.insert("core.rounds", med(&|r| r.rounds as f64));
    layers.insert("core.run_s", run_s);
    layers.insert("core.pipeline_s", run_s - prepare_s - schedule_s);
    let screened = med(&|r| r.screened as f64);
    layers.insert("core.corrections_screened", screened);
    layers.insert(
        "core.qualify_ratio",
        med(&|r| r.qualified as f64) / screened.max(1.0),
    );
}

/// Fills the root-probe metrics (medians over instances).
fn probe_layers(layers: &mut Metrics, instances: &[Instance]) -> Result<(), String> {
    let probes = instances
        .iter()
        .map(engine::probe_root)
        .collect::<Result<Vec<_>, _>>()?;
    let med = |f: fn(&engine::RootProbe) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    layers.insert("core.path_trace_us", med(|p| p.path_trace_us));
    layers.insert("core.screen_ns", med(|p| p.screen_ns));
    layers.insert("core.rank_ms", med(|p| p.rank_ms));
    layers.insert("lint.preflight_ms", med(|p| p.lint_ms));
    Ok(())
}

/// `setup_s`: the median set-up time at nominal host speed.
fn setup_metric(setup: &[SetUpRep]) -> f64 {
    let raw: Vec<f64> = setup.iter().map(|s| s.wall_s).collect();
    eprintln!("set-up: raw median {:.4} s", median(&raw));
    median(
        &setup
            .iter()
            .map(|s| s.wall_s / s.factor)
            .collect::<Vec<_>>(),
    )
}

fn latency_metrics(e2e: &mut Metrics, latencies: &[f64], tail_q: f64) {
    e2e.insert("job_p50_ms", median(latencies) * 1e3);
    e2e.insert("job_tail_ms", quantile(latencies, tail_q) * 1e3);
    let beyond = latencies.len() as f64 * (1.0 - tail_q);
    if beyond < 10.0 {
        eprintln!(
            "note: only {beyond:.1} jobs lie beyond the p{} tail",
            tail_q * 100.0
        );
    }
}

/// The in-process workloads: rounds of `Rectifier::new` + `run`.
fn run_engine(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let jobs = jobs::parse_list(w.list)?;
    let mut report = Report::default();
    let (instances, setup) = set_up_repeatedly(&jobs, w.optimize, SETUP_REPS, &mut report.layers)?;
    let mut order: Vec<usize> = (0..instances.len()).collect();
    shuffle(&mut order, seed);
    let reference = host::Reference::new(&instances)?;

    let mut first: Vec<Option<(Seen, incdx_core::RectifyResult)>> = vec![None; instances.len()];
    let mut plain: Vec<EngineRound> = Vec::new();
    let mut traced: Vec<EngineRound> = Vec::new();
    let started = Instant::now();
    loop {
        // A traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured against rounds of the same run.
        let tally =
            (trace && plain.len() > traced.len()).then(|| Arc::new(engine::Tally::default()));
        let mut round = EngineRound::default();
        let mut passes_s = 0.0;
        let t = Instant::now();
        for &i in &order {
            let inst = &instances[i];
            // The job's host factor: reference passes over its circuit
            // right before and right after it.
            let mut speed = host::Speed::default();
            reference.pass(i, &mut speed)?;
            let out = engine::run_job(inst, tally.as_ref())?;
            reference.pass(i, &mut speed)?;
            passes_s += speed.secs;
            let now = seen(&out, inst.job.model);
            report.attempted += 1;
            if let Some(why) = &now.failure {
                report.fail(format!("{}: {why}", inst.job.line()));
            }
            round.add(&out, now.failure.is_some(), speed.factor());
            round.per_job.push((i, out.latency_s / speed.factor()));
            match &first[i] {
                None => first[i] = Some((now, out.result)),
                Some((was, _)) if *was != now => report.problems.push(format!(
                    "{}: answer or node count differs between rounds",
                    inst.job.line()
                )),
                Some(_) => {}
            }
        }
        round.wall_s = t.elapsed().as_secs_f64() - passes_s;
        eprintln!(
            "round {} ({}): {:.3} s, {:.3} s at nominal host speed",
            plain.len() + traced.len(),
            if tally.is_some() {
                "traced"
            } else {
                "untraced"
            },
            round.wall_s,
            round.nominal_s
        );
        match &tally {
            Some(tally) => {
                round.tally = tally.snapshot();
                traced.push(round);
            }
            None => plain.push(round),
        }
        if started.elapsed().as_secs_f64() >= seconds && (!trace || plain.len() == traced.len()) {
            break;
        }
    }
    for (inst, entry) in instances.iter().zip(&first) {
        let Some((seen, result)) = entry else {
            continue;
        };
        if seen.failure.is_none() {
            if let Err(e) = engine::check(inst, result) {
                report.problems.push(format!("{}: {e}", inst.job.line()));
            }
        }
    }

    let mut per_job: Vec<(f64, usize)> = (0..instances.len())
        .map(|i| {
            let times: Vec<f64> = plain
                .iter()
                .flat_map(|r| r.per_job.iter().filter(|(j, _)| *j == i).map(|(_, t)| *t))
                .collect();
            (median(&times), i)
        })
        .collect();
    per_job.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (t, i) in per_job {
        let nodes = first[i].as_ref().map_or(0, |(s, _)| s.nodes);
        eprintln!(
            "job {}: {:.1} ms at nominal host speed, {nodes} nodes",
            instances[i].job.line(),
            t * 1e3
        );
    }

    // End-to-end times at nominal host speed (see `host`). A round's
    // wall time is the sum of its jobs' times.
    let latencies: Vec<f64> = plain.iter().flat_map(|r| r.latencies.clone()).collect();
    let wall: f64 = plain.iter().map(|r| r.nominal_s).sum();
    report.e2e.insert("setup_s", setup_metric(&setup));
    // Mean, not median: with a handful of identical rounds the mean
    // averages what the host factor leaves of the host's swings best.
    report.e2e.insert("wall_s", wall / plain.len() as f64);
    report
        .e2e
        .insert("jobs_per_s", latencies.len() as f64 / wall);
    latency_metrics(&mut report.e2e, &latencies, w.tail_q);
    report
        .e2e
        .insert("peak_rss_mb", stats::peak_rss_mb(None).unwrap_or(0.0));
    if trace {
        engine_layers(&mut report.layers, &traced);
        probe_layers(&mut report.layers, &instances)?;
        let sum = |rs: &[EngineRound]| median(&rs.iter().map(|r| r.nominal_s).collect::<Vec<_>>());
        report.layers.insert(
            "trace.overhead_pct",
            (sum(&traced) / sum(&plain) - 1.0) * 100.0,
        );
    }
    Ok(report)
}

/// Work files of a serve run, inside the working directory (the
/// checkout), removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The daemon workload.
fn run_serve(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let jobs = jobs::parse_list(w.list)?;
    let mut report = Report::default();
    let work =
        WorkDir(PathBuf::from(".perfbench-work").join(format!("run-{}", std::process::id())));
    let spool = work.0.join("spool");
    // Set-up is the client side (the specs' circuits, injections,
    // vectors and responses, which the checks need) plus a daemon start
    // until its ready line.
    let mut setup = Vec::new();
    let mut ready = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..SETUP_REPS {
        let (inst, walls) = set_up_repeatedly(&jobs, false, 1, &mut report.layers)?;
        let start = serve::start_once(&spool)?;
        setup.push(SetUpRep {
            wall_s: walls[0].wall_s + start,
            factor: walls[0].factor,
        });
        ready.push(start);
        instances = inst;
    }

    let seq = serve::round_sequence(&jobs, seed);
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let round = serve::run_round(&seq, &spool)?;
        eprintln!("round {}: {:.3} s", rounds.len(), round.wall_s);
        rounds.push(round);
    }

    // Uninterrupted in-process references, checked by the oracle.
    let mut reference: HashMap<String, Seen> = HashMap::new();
    let mut plain_sum = 0.0;
    let mut new_ms = Vec::new();
    for inst in &instances {
        let out = engine::run_job(inst, None)?;
        plain_sum += out.latency_s;
        new_ms.push(out.new_s * 1e3);
        let s = seen(&out, inst.job.model);
        if s.failure.is_none() {
            if let Err(e) = engine::check(inst, &out.result) {
                report.problems.push(format!("{}: {e}", inst.job.line()));
            }
        }
        reference.insert(inst.job.line(), s);
    }

    for round in &rounds {
        report.attempted += seq.len() as u64;
        for e in &round.errors {
            report.fail(format!("exchange failed: {e}"));
        }
        for s in &round.served {
            let job = &seq[s.slot];
            if s.verdict != "done/exact" {
                report.fail(format!("{}: daemon verdict {}", job.line(), s.verdict));
                continue;
            }
            match reference.get(&job.line()) {
                Some(r) if r.failure.is_none() && r.fp == s.fp => {}
                _ => report.problems.push(format!(
                    "{}: served answer differs from the uninterrupted run",
                    job.line()
                )),
            }
        }
    }

    // Crash recovery: kill -9 mid-job, restart, same answer.
    if let Some(giant) = jobs.iter().find(|j| j.role == Role::Giant) {
        match serve::crash_and_recover(giant, &work.0.join("crash")) {
            Ok(fp) if reference.get(&giant.line()).is_some_and(|r| r.fp == fp) => {}
            Ok(_) => report
                .problems
                .push(format!("{}: recovered answer differs", giant.line())),
            Err(e) => report
                .problems
                .push(format!("{}: crash recovery: {e}", giant.line())),
        }
    }

    // Raw times, unlike the in-process workloads: a served job's time
    // is mostly fsync, TCP and the daemon's two workers, which a
    // reference pass in this process does not track (see the README).
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.served.iter().filter(|s| s.verdict == "done/exact"))
        .map(|s| s.latency_s)
        .collect();
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let med = |f: &dyn Fn(&serve::Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    report.e2e.insert("setup_s", setup_metric(&setup));
    report.e2e.insert("wall_s", wall / rounds.len() as f64);
    report
        .e2e
        .insert("jobs_per_s", latencies.len() as f64 / wall);
    latency_metrics(&mut report.e2e, &latencies, w.tail_q);
    report.e2e.insert("peak_rss_mb", med(&|r| r.rss_mb));

    if trace {
        let l = &mut report.layers;
        let starts: Vec<f64> = ready
            .iter()
            .copied()
            .chain(rounds.iter().map(|r| r.ready_s))
            .collect();
        l.insert("serve.ready_s", median(&starts));
        let submits: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.served.iter().map(|s| s.submit_s * 1e3))
            .collect();
        l.insert("serve.submit_ms", median(&submits));
        l.insert(
            "serve.slices",
            med(&|r| r.served.iter().map(|s| s.slices).sum::<u64>() as f64),
        );
        l.insert(
            "serve.nodes",
            med(&|r| r.served.iter().map(|s| s.nodes).sum::<u64>() as f64),
        );
        l.insert("serve.spool_bytes", med(&|r| r.spool.0 as f64));
        l.insert("serve.spool_files", med(&|r| r.spool.1 as f64));
        l.insert("serve.intern_hits", med(&|r| r.intern.0 as f64));
        l.insert("serve.intern_misses", med(&|r| r.intern.1 as f64));
        l.insert("serve.daemon_cpu_s", med(&|r| r.cpu_s));

        // The same references once more with the timing wrappers.
        let tally = Arc::new(engine::Tally::default());
        let mut round = EngineRound::default();
        for inst in &instances {
            let out = engine::run_job(inst, Some(&tally))?;
            if seen(&out, inst.job.model) != reference[&inst.job.line()] {
                report
                    .problems
                    .push(format!("{}: traced answer differs", inst.job.line()));
            }
            round.add(&out, false, 1.0);
        }
        round.tally = tally.snapshot();
        let traced_sum = round.job_sum_s;
        engine_layers(&mut report.layers, &[round]);
        report.layers.insert("core.new_ms", median(&new_ms));
        probe_layers(&mut report.layers, &instances)?;
        report
            .layers
            .insert("trace.overhead_pct", (traced_sum / plain_sum - 1.0) * 100.0);

        // The daemon's slice loop, replayed in-process on the giants.
        let (mut write, mut read, mut resume) = (Vec::new(), Vec::new(), Vec::new());
        for inst in instances.iter().filter(|i| i.job.role == Role::Giant) {
            let costs = serve::sliced(inst, 400, &work.0.join("slices"))?;
            if reference.get(&inst.job.line()).map(|r| r.fp) != Some(costs.fp) {
                report
                    .problems
                    .push(format!("{}: sliced answer differs", inst.job.line()));
            }
            write.extend(costs.write_ms);
            read.extend(costs.read_ms);
            resume.extend(costs.resume_ms);
        }
        report
            .layers
            .insert("core.checkpoint_write_ms", median(&write));
        report
            .layers
            .insert("core.checkpoint_read_ms", median(&read));
        report.layers.insert("core.resume_ms", median(&resume));
    }
    Ok(report)
}

/// The values a run printed, read back from its last line.
struct Printed {
    correct: bool,
    failed_share: f64,
    metrics: Vec<(String, f64)>,
}

/// Reads the JSON line this program prints. Only this program's own
/// output format is understood.
fn parse_printed(line: &str) -> Option<Printed> {
    let num = |key: &str| -> Option<f64> {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &line[at..];
        let end = rest.find([',', '}'])?;
        rest[..end].trim().parse().ok()
    };
    let attempted = num("attempted")?;
    let failed = num("failed")?;
    let mut metrics = Vec::new();
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(at) = line.find(&format!("\"{name}\":{{\"value\":")) {
            let rest = &line[at + name.len() + 12..];
            let end = rest.find(',')?;
            metrics.push((name.to_string(), rest[..end].parse().ok()?));
        }
    }
    Some(Printed {
        correct: line.contains("\"correct\":true"),
        failed_share: failed / attempted,
        metrics,
    })
}

/// `quantiles(values, n=4)` as Python's `statistics` module computes
/// it (the default, exclusive method): the first and third quartiles.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Runs the workloads interleaved in child processes, one seed per
/// repetition, and prints each metric's median, quartiles and spread
/// (quartile distance over median).
fn repeat(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let runs: u64 = flag(&f, "runs")?;
    let seconds: String = flag(&f, "seconds")?;
    let trace = f.get("trace").cloned().unwrap_or_else(|| "0".into());
    let seed0: u64 = f
        .get("seed")
        .map_or(Ok(1), |s| s.parse())
        .map_err(|_| "--seed: bad value")?;
    let names: Vec<String> = match f.get("workloads") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => WORKLOADS.iter().map(|w| w.name.to_string()).collect(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut seen: BTreeMap<String, Vec<Printed>> = BTreeMap::new();
    let mut calibration = Vec::new();
    for r in 0..runs {
        for name in &names {
            let seed = (seed0 + r).to_string();
            let out = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &seed, "--seconds", &seconds])
                .args(["--trace", &trace])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let last = stdout.lines().last().unwrap_or("");
            let printed = parse_printed(last).ok_or_else(|| {
                format!("{name} seed {seed}: no result ({})\n{stderr}", out.status)
            })?;
            if let Some(c) = stderr
                .lines()
                .find_map(|l| l.strip_prefix("calibration_ms="))
            {
                calibration.push(c.parse::<f64>().unwrap_or(0.0));
            }
            eprintln!(
                "{name} seed {seed}: calibration_ms={} {last}",
                calibration.last().unwrap_or(&0.0)
            );
            seen.entry(name.clone()).or_default().push(printed);
        }
    }
    let (c1, c3) = quartiles(&calibration);
    println!(
        "calibration_ms median {:.3} q1 {c1:.3} q3 {c3:.3}",
        median(&calibration)
    );
    for (name, printed) in &seen {
        let shares: Vec<f64> = printed.iter().map(|p| p.failed_share).collect();
        println!(
            "{name}: {} runs, correct {}, failed share {:?}",
            printed.len(),
            printed.iter().all(|p| p.correct),
            shares
        );
        let Some(first) = printed.first() else {
            continue;
        };
        for (metric, _) in &first.metrics {
            let values: Vec<f64> = printed
                .iter()
                .filter_map(|p| p.metrics.iter().find(|(m, _)| m == metric).map(|m| m.1))
                .collect();
            let med = median(&values);
            let (q1, q3) = quartiles(&values);
            println!(
                "  {metric:32} median {med:>14.6} q1 {q1:>14.6} q3 {q3:>14.6} spread {:.4}",
                (q3 - q1) / med.abs().max(1e-12)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
    }

    #[test]
    fn printed_lines_parse_back() {
        let line = "{\"correct\":true,\"attempted\":40,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\"wall_s\":{\"value\":3,\"unit\":\"s\"}}}";
        let p = parse_printed(line).unwrap();
        assert!(p.correct);
        assert_eq!(p.failed_share, 1.0 / 40.0);
        assert_eq!(
            p.metrics,
            vec![("setup_s".to_string(), 0.25), ("wall_s".to_string(), 3.0)]
        );
    }

    #[test]
    fn job_lists_parse_and_metric_tables_match_the_benchmark_file() {
        for w in WORKLOADS {
            assert!(!jobs::parse_list(w.list).unwrap().is_empty(), "{}", w.name);
        }
        let file = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(file.contains(&format!("\"name\": \"{}\"", w.name)));
        }
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 9);
        shuffle(&mut b, 9);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
