//! In-process engine jobs: one `Rectifier::new` plus `run` per job, the
//! timing wrappers of the traced run, the per-root probes, and the
//! checks of every answer against the oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use incdx_core::{
    correction_output_row_into, path_trace_counts, CorrectionScratch, EvalContext, Evaluator,
    FromScratch, Incremental, Node, PreparedNode, RankedCorrection, Rectifier, RectifyConfig,
    RectifyResult, SimCounters, Traversal, Tree, Verdict,
};
use incdx_fault::{enumerate_corrections, Correction};
use incdx_netlist::Netlist;
use incdx_sim::{PackedMatrix, Response, Simulator};

use crate::jobs::{Instance, Model};
use crate::oracle::{self, Circuit, Vectors};

/// Node budget every DEDC job and every serve job carries as a runaway
/// guard. It is far above what any listed job needs; a job that reaches
/// it has failed.
pub const NODE_GUARD: u64 = 50_000;

/// The engine configuration of a job: the mode's default, with the
/// runaway guard on DEDC. No clock is set.
pub fn config_for(model: Model, k: usize) -> RectifyConfig {
    match model {
        Model::StuckAt => RectifyConfig::stuck_at_exhaustive(k),
        Model::Dedc => {
            let mut c = RectifyConfig::dedc(k);
            c.limits.max_total_nodes = Some(NODE_GUARD);
            c
        }
    }
}

/// Work the timing wrappers saw, shared between the wrappers (owned by
/// the engine) and the benchmark. Statistics only, so `Relaxed`.
#[derive(Debug, Default)]
pub struct Tally {
    prepare_ns: AtomicU64,
    prepare_calls: AtomicU64,
    prepare_words: AtomicU64,
    schedule_ns: AtomicU64,
    schedule_calls: AtomicU64,
}

/// A snapshot of a [`Tally`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TallySnapshot {
    /// Seconds inside `Evaluator::prepare`.
    pub prepare_s: f64,
    /// `Evaluator::prepare` calls.
    pub prepare_calls: u64,
    /// Packed words the backend simulated inside `prepare`.
    pub prepare_words: u64,
    /// Seconds inside `Traversal::schedule`.
    pub schedule_s: f64,
    /// `Traversal::schedule` calls.
    pub schedule_calls: u64,
}

impl Tally {
    /// The counts so far.
    pub fn snapshot(&self) -> TallySnapshot {
        TallySnapshot {
            prepare_s: self.prepare_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            prepare_calls: self.prepare_calls.load(Ordering::Relaxed),
            prepare_words: self.prepare_words.load(Ordering::Relaxed),
            schedule_s: self.schedule_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            schedule_calls: self.schedule_calls.load(Ordering::Relaxed),
        }
    }
}

fn add_ns(counter: &AtomicU64, since: Instant) {
    counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// The evaluator stack the session picks for a serial, unaudited,
/// chaos-free config (`session::build_evaluator` with `jobs = 1`).
fn default_evaluator(config: &RectifyConfig) -> Box<dyn Evaluator> {
    if config.incremental {
        Box::new(Incremental::new(config.matrix_cache_bytes).with_sparse(config.sparse))
    } else {
        Box::new(FromScratch::new().with_sparse(config.sparse))
    }
}

/// Times `prepare` around the default backend and counts the words it
/// simulates; every other call passes straight through.
#[derive(Debug)]
struct TimingEvaluator {
    inner: Box<dyn Evaluator>,
    tally: Arc<Tally>,
}

impl Evaluator for TimingEvaluator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn jobs(&self) -> usize {
        self.inner.jobs()
    }
    fn incremental(&self) -> bool {
        self.inner.incremental()
    }
    fn sparse(&self) -> bool {
        self.inner.sparse()
    }
    fn counters(&self) -> SimCounters {
        self.inner.counters()
    }
    fn prepare(
        &mut self,
        ctx: &mut EvalContext<'_>,
        corrections: &[Correction],
    ) -> Option<PreparedNode> {
        let words = self.inner.counters().words;
        let t = Instant::now();
        let node = self.inner.prepare(ctx, corrections);
        add_ns(&self.tally.prepare_ns, t);
        self.tally.prepare_calls.fetch_add(1, Ordering::Relaxed);
        let spent = self.inner.counters().words.saturating_sub(words);
        self.tally.prepare_words.fetch_add(spent, Ordering::Relaxed);
        node
    }
    fn cached(&mut self, corrections: &[Correction]) -> Option<(Netlist, PackedMatrix)> {
        self.inner.cached(corrections)
    }
    fn retain(&mut self, corrections: &[Correction], netlist: Netlist, vals: PackedMatrix) -> u64 {
        self.inner.retain(corrections, netlist, vals)
    }
    fn release(&mut self, corrections: &[Correction]) {
        self.inner.release(corrections)
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn retained_bytes(&self) -> usize {
        self.inner.retained_bytes()
    }
    fn take_degradations(&mut self) -> Vec<incdx_core::DegradationEvent> {
        self.inner.take_degradations()
    }
}

/// Times `schedule` around the config's traversal.
#[derive(Debug)]
struct TimingTraversal {
    inner: Box<dyn Traversal>,
    tally: Arc<Tally>,
}

impl Traversal for TimingTraversal {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn iteration_budget(&self, max_rounds: usize, max_nodes: usize) -> usize {
        self.inner.iteration_budget(max_rounds, max_nodes)
    }
    fn schedule(&mut self, tree: &Tree, plan: &mut Vec<usize>) {
        let t = Instant::now();
        self.inner.schedule(tree, plan);
        add_ns(&self.tally.schedule_ns, t);
        self.tally.schedule_calls.fetch_add(1, Ordering::Relaxed);
    }
    fn frontier_priority(&self, parent: &Node, candidate: &RankedCorrection) -> f64 {
        self.inner.frontier_priority(parent, candidate)
    }
    fn seed_observability(&mut self, co: &[u32]) {
        self.inner.seed_observability(co)
    }
}

/// One engine job's result and timings.
#[derive(Debug)]
pub struct Outcome {
    /// `Rectifier::new` plus `run`, in seconds: the job latency.
    pub latency_s: f64,
    /// `Rectifier::new` alone.
    pub new_s: f64,
    /// `run` alone.
    pub run_s: f64,
    /// SCOAP for the traced traversal's seed (traced jobs only).
    pub scoap_s: f64,
    /// The engine's answer.
    pub result: RectifyResult,
}

/// Runs one job. With `tally`, the engine gets the timing wrappers;
/// the traversal is seeded with SCOAP observability exactly as
/// `Rectifier::new` seeds its own.
pub fn run_job(inst: &Instance, tally: Option<&Arc<Tally>>) -> Result<Outcome, String> {
    run_configured(inst, tally, config_for(inst.job.model, inst.job.k))
}

/// [`run_job`] under a tighter node budget, for job selection.
pub fn run_job_with_budget(inst: &Instance, budget: Option<u64>) -> Result<Outcome, String> {
    let mut config = config_for(inst.job.model, inst.job.k);
    if budget.is_some() {
        config.limits.max_total_nodes = budget;
    }
    run_configured(inst, None, config)
}

fn run_configured(
    inst: &Instance,
    tally: Option<&Arc<Tally>>,
    config: RectifyConfig,
) -> Result<Outcome, String> {
    let (base, pi, resp) = (inst.base.clone(), inst.pi.clone(), inst.resp.clone());
    let mut scoap_s = 0.0;
    let wrappers = tally.map(|tally| {
        let t = Instant::now();
        let scoap = incdx_atpg::Scoap::compute(&inst.base);
        let co: Vec<u32> = inst.base.ids().map(|id| scoap.co(id)).collect();
        scoap_s = t.elapsed().as_secs_f64();
        let mut traversal = config.traversal.build();
        traversal.seed_observability(&co);
        (
            TimingTraversal {
                inner: traversal,
                tally: Arc::clone(tally),
            },
            TimingEvaluator {
                inner: default_evaluator(&config),
                tally: Arc::clone(tally),
            },
        )
    });
    let t0 = Instant::now();
    let mut engine = Rectifier::new(base, pi, resp, config).map_err(|e| e.to_string())?;
    if let Some((traversal, evaluator)) = wrappers {
        engine = engine
            .with_traversal(Box::new(traversal))
            .with_evaluator(Box::new(evaluator));
    }
    let new_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let result = engine.run();
    let run_s = t1.elapsed().as_secs_f64();
    Ok(Outcome {
        latency_s: t0.elapsed().as_secs_f64(),
        new_s,
        run_s,
        scoap_s,
        result,
    })
}

/// Why a job that ran counts as failed, if it does. Exhaustive stuck-at
/// must not call a truncated search exact; DEDC must find a solution
/// without reaching its node guard. DEDC is exempt from the truncation
/// rule: a capped ladder level followed by a verified solution is a
/// correct `exact` in first-solution mode.
pub fn failure(model: Model, result: &RectifyResult) -> Option<String> {
    match model {
        Model::StuckAt if result.verdict == Verdict::Exact && result.stats.truncated => {
            Some(format!(
                "verdict exact on a search truncated at {} nodes",
                result.stats.nodes
            ))
        }
        _ if result.verdict != Verdict::Exact => Some(format!("verdict {}", result.verdict)),
        Model::Dedc if result.solutions.is_empty() => Some("no solution".into()),
        _ => None,
    }
}

/// The instance's test vectors in the oracle's terms.
pub fn oracle_inputs(inst: &Instance) -> Vectors {
    let rows = (0..inst.pi.rows())
        .map(|r| inst.pi.row(r).to_vec())
        .collect();
    Vectors::new(rows, inst.pi.num_vectors())
}

/// Checks a job's answers with the independent oracle, against
/// responses the oracle computes itself: the device is the golden
/// circuit with the injected faults applied, the specification is the
/// golden circuit.
pub fn check(inst: &Instance, result: &RectifyResult) -> Result<(), String> {
    let vectors = oracle_inputs(inst);
    let golden = Circuit::from_netlist(&inst.golden)?;
    match inst.job.model {
        Model::StuckAt => {
            let device = golden
                .corrected(&oracle::stuck_tuple(&inst.injected))?
                .simulate(&vectors.rows, vectors.words)?;
            let answers = result
                .solutions
                .iter()
                .map(|s| {
                    s.stuck_at_tuple()
                        .ok_or("a stuck-at answer holds a design fix")
                })
                .collect::<Result<Vec<_>, _>>()?;
            oracle::check_stuck_at(
                &golden,
                &vectors,
                &device,
                &inst.injected,
                inst.job.k,
                &answers,
            )
        }
        Model::Dedc => {
            let spec = golden.simulate(&vectors.rows, vectors.words)?;
            let design = Circuit::from_netlist(&inst.base)?;
            for s in &result.solutions {
                oracle::check_correction(&design, &vectors, &spec, &s.corrections)?;
            }
            Ok(())
        }
    }
}

/// Costs of the candidate pipeline's parts at a job's root node.
#[derive(Debug, Clone, Copy, Default)]
pub struct RootProbe {
    /// `path_trace_counts` per call, µs.
    pub path_trace_us: f64,
    /// `correction_output_row_into` per call, ns.
    pub screen_ns: f64,
    /// `Rectifier::rank_candidates` at the root, ms.
    pub rank_ms: f64,
    /// `incdx_lint::lint_netlist` per call, ms.
    pub lint_ms: f64,
}

/// Probes a job's root: path trace, screening of every candidate on the
/// marked lines, ranking, and the pre-flight lint.
pub fn probe_root(inst: &Instance) -> Result<RootProbe, String> {
    let config = config_for(inst.job.model, inst.job.k);
    let base = &inst.base;
    const REPS: u32 = 5;

    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(incdx_lint::lint_netlist(base));
    }
    let lint_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(REPS);

    let mut sim = Simulator::new();
    let vals = sim.run_for_inputs(base, inst.golden.inputs(), &inst.pi);
    let observed = Response::compare(base, &vals, &inst.resp);
    let cap = config.path_trace_vector_cap;
    let t = Instant::now();
    let mut counts = Vec::new();
    for _ in 0..REPS {
        counts = path_trace_counts(base, &vals, &observed, &inst.resp, cap);
    }
    let path_trace_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);

    let mut lines: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
    lines.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    lines.truncate(64);
    let candidates: Vec<Correction> = lines
        .iter()
        .flat_map(|&i| {
            enumerate_corrections(
                base,
                incdx_netlist::GateId::from_index(i),
                config.model,
                &[],
            )
        })
        .collect();
    let mut scratch = CorrectionScratch::default();
    let t = Instant::now();
    for _ in 0..REPS {
        for c in &candidates {
            let row = correction_output_row_into(base, &vals, c, &mut scratch)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(row);
        }
    }
    let calls = (candidates.len() as f64 * f64::from(REPS)).max(1.0);
    let screen_ns = t.elapsed().as_secs_f64() * 1e9 / calls;

    let level = config.ladder[0];
    let mut engine = Rectifier::new(base.clone(), inst.pi.clone(), inst.resp.clone(), config)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    std::hint::black_box(engine.rank_candidates(&[], &level));
    let rank_ms = t.elapsed().as_secs_f64() * 1e3;

    Ok(RootProbe {
        path_trace_us,
        screen_ns,
        rank_ms,
        lint_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{set_up, Job, Role};

    fn small(model: Model, k: usize) -> Instance {
        let job = Job {
            circuit: "c432a".into(),
            model,
            k,
            vectors: 256,
            seed: 11,
            role: Role::Job,
        };
        set_up(&[job], model == Model::StuckAt).unwrap().0.remove(0)
    }

    /// The traced run changes no answer, and its layer self-times fit
    /// inside the run time they split.
    #[test]
    fn traced_and_untraced_runs_agree() {
        for inst in [small(Model::StuckAt, 2), small(Model::Dedc, 2)] {
            let plain = run_job(&inst, None).unwrap();
            let tally = Arc::new(Tally::default());
            let traced = run_job(&inst, Some(&tally)).unwrap();
            assert_eq!(plain.result.solutions, traced.result.solutions);
            assert_eq!(plain.result.stats.nodes, traced.result.stats.nodes);
            assert_eq!(plain.result.stats.rounds, traced.result.stats.rounds);
            let t = tally.snapshot();
            assert_eq!(t.prepare_calls as usize, traced.result.stats.nodes);
            assert!(t.schedule_calls > 0);
            assert!(t.prepare_s + t.schedule_s <= traced.run_s);
            assert!(failure(inst.job.model, &plain.result).is_none());
            check(&inst, &plain.result).unwrap();
            let probe = probe_root(&inst).unwrap();
            assert!(probe.path_trace_us > 0.0 && probe.screen_ns > 0.0 && probe.rank_ms > 0.0);
        }
    }

    /// A wrong answer does not pass the oracle.
    #[test]
    fn the_oracle_rejects_a_wrong_answer() {
        let inst = small(Model::StuckAt, 1);
        let mut result = run_job(&inst, None).unwrap().result;
        check(&inst, &result).unwrap();
        result.solutions.pop();
        assert!(check(&inst, &result).is_err());
    }
}
