//! The `serve_mixed` workload: the `incdx-serve` daemon in a child
//! process, driven over its wire protocol by a closed loop of two
//! connections, plus the checks that slicing and crash recovery leave
//! every answer equal to an uninterrupted in-process run.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use incdx_core::json::{self, Json};
use incdx_core::{load_checkpoint_file, save_checkpoint_file, Rectifier};
use incdx_serve::{solution_fingerprint, JobSpec, ServeConfig, Server, Source};

use crate::engine::{self, NODE_GUARD};
use crate::jobs::{Instance, Job, Model, Role};
use crate::stats;

/// The daemon's wire spec for a job: the suite circuit, unoptimized,
/// with the runaway node guard and no deadline.
pub fn spec_of(job: &Job) -> JobSpec {
    JobSpec {
        source: Source::Suite(job.circuit.clone()),
        model: match job.model {
            Model::StuckAt => incdx_serve::Model::StuckAt,
            Model::Dedc => incdx_serve::Model::Dedc,
        },
        k: job.k,
        vectors: job.vectors,
        seed: job.seed,
        max_nodes: Some(NODE_GUARD),
        deadline_ms: None,
    }
}

/// `daemon --spool DIR`: runs the daemon with its default configuration
/// (two workers, quantum 400) on a free local port and prints the same
/// ready line as the `incdx-serve` binary.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let spool = match args {
        [flag, dir] if flag == "--spool" => PathBuf::from(dir),
        _ => {
            eprintln!("usage: incdx-perfbench daemon --spool DIR");
            return ExitCode::from(2);
        }
    };
    let cfg = ServeConfig {
        spool_dir: spool,
        ..ServeConfig::default()
    };
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("daemon: {msg}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{{\"serve\":\"ready\",\"addr\":\"127.0.0.1:{}\",\"recovered\":{},\"quarantined\":{}}}",
        server.port(),
        server.recovered(),
        server.quarantined()
    );
    let _ = std::io::stdout().flush();
    server.join();
    ExitCode::SUCCESS
}

/// A running daemon child. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    addr: String,
    /// Seconds from spawn to the ready line.
    pub ready_s: f64,
    /// Jobs recovered from the spool at start.
    pub recovered: u64,
}

impl Daemon {
    /// Starts a daemon on `spool` and waits for its ready line.
    pub fn start(spool: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--spool")
            .arg(spool)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let ready_s = t.elapsed().as_secs_f64();
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            ready_s,
            recovered: 0,
        };
        if !matches!(read, Some(Ok(n)) if n > 0) {
            return Err("the daemon exited before its ready line".into());
        }
        let ready = json::parse(line.trim())?;
        daemon.addr = ready.get("addr")?.as_str()?.to_string();
        daemon.recovered = ready.get("recovered")?.as_u64()?;
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Peak resident set in MiB and CPU seconds so far.
    pub fn usage(&self) -> (f64, f64) {
        let pid = self.pid();
        (
            stats::peak_rss_mb(Some(pid)).unwrap_or(0.0),
            stats::cpu_seconds(pid).unwrap_or(0.0),
        )
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call("{\"req\":\"shutdown\"}"));
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        if asked.is_err() {
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())
    }

    fn read(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => json::parse(line.trim()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends one request and reads its one response line.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.read()
    }

    /// Subscribes to `job` and reads events until the verdict. With
    /// `until_progress`, returns at the first progress event instead.
    fn follow(&mut self, job: u64, until_progress: bool) -> Result<Json, String> {
        let ack = self.call(&format!("{{\"req\":\"subscribe\",\"job\":{job}}}"))?;
        if !ack.get_opt("ok").is_some_and(|ok| ok == &Json::Bool(true)) {
            return Err(format!("subscribe refused: {ack:?}"));
        }
        loop {
            let event = self.read()?;
            match event.get("event")?.as_str()? {
                "verdict" => return Ok(event),
                "progress" if until_progress => return Ok(event),
                _ => {}
            }
        }
    }

    /// Submits `spec` and returns the job id and the submit round trip.
    fn submit(&mut self, spec: &JobSpec) -> Result<(u64, f64), String> {
        let t = Instant::now();
        let reply = self.call(&format!(
            "{{\"req\":\"submit\",\"tenant\":\"bench\",\"job\":{}}}",
            spec.to_json()
        ))?;
        let rtt = t.elapsed().as_secs_f64();
        match reply.get_opt("job") {
            Some(id) if reply.get_opt("ok") == Some(&Json::Bool(true)) => Ok((id.as_u64()?, rtt)),
            _ => Err(format!("submit refused: {reply:?}")),
        }
    }
}

/// What the daemon reported for one job.
#[derive(Debug, Clone)]
pub struct Served {
    /// Index into the round's sequence.
    pub slot: usize,
    /// Submit sent to verdict event, seconds.
    pub latency_s: f64,
    /// Submit round trip, seconds.
    pub submit_s: f64,
    /// `state/verdict` of the verdict event.
    pub verdict: String,
    /// The reported solution-set fingerprint.
    pub fp: u64,
    /// Slices the job took.
    pub slices: u64,
    /// Nodes the job evaluated over all slices.
    pub nodes: u64,
}

fn served(slot: usize, latency_s: f64, submit_s: f64, ev: &Json) -> Result<Served, String> {
    Ok(Served {
        slot,
        latency_s,
        submit_s,
        verdict: format!(
            "{}/{}",
            ev.get("state")?.as_str()?,
            ev.get("verdict")?.as_str()?
        ),
        fp: ev.get("solutions_fp")?.as_u64()?,
        slices: ev.get("slices")?.as_u64()?,
        nodes: ev.get("nodes")?.as_u64()?,
    })
}

/// The jobs of one round, in submission order: every listed small job,
/// then every fourth small job again (so the intern layer both misses
/// and hits), shuffled by the run seed, with the giants spread evenly
/// through the sequence.
pub fn round_sequence(jobs: &[Job], seed: u64) -> Vec<Job> {
    let small: Vec<&Job> = jobs.iter().filter(|j| j.role != Role::Giant).collect();
    let giants: Vec<&Job> = jobs.iter().filter(|j| j.role == Role::Giant).collect();
    let mut seq: Vec<Job> = small.iter().map(|j| (*j).clone()).collect();
    seq.extend(small.iter().step_by(4).map(|j| (*j).clone()));
    crate::shuffle(&mut seq, seed);
    let stride = seq.len() / giants.len().max(1) + 1;
    for (g, giant) in giants.iter().enumerate() {
        seq.insert((g * stride).min(seq.len()), (*giant).clone());
    }
    seq
}

/// Daemon-side figures of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// First submit to last verdict, seconds.
    pub wall_s: f64,
    /// Per-job results, in completion order.
    pub served: Vec<Served>,
    /// Errors of the connections (a job whose exchange failed).
    pub errors: Vec<String>,
    /// Daemon start to ready line, seconds.
    pub ready_s: f64,
    /// Daemon peak resident set, MiB.
    pub rss_mb: f64,
    /// Daemon CPU seconds.
    pub cpu_s: f64,
    /// Intern-layer workload hits and misses.
    pub intern: (u64, u64),
    /// Spool bytes and files at the end of the round.
    pub spool: (u64, u64),
}

fn spool_size(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => {
                    bytes += m.len();
                    files += 1;
                }
                Err(_) => {}
            }
        }
    }
    (bytes, files)
}

/// Runs one round against a fresh daemon on a fresh spool `dir`: two
/// connections in a closed loop, each taking the next job of `seq`
/// once its previous job's verdict has arrived.
pub fn run_round(seq: &[Job], dir: &Path) -> Result<Round, String> {
    let _ = std::fs::remove_dir_all(dir);
    let daemon = Daemon::start(dir)?;
    let specs: Vec<JobSpec> = seq.iter().map(spec_of).collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new((Vec::new(), Vec::new()));
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut conn = match daemon.connect() {
                    Ok(c) => c,
                    Err(e) => {
                        results.lock().expect("no panics hold it").1.push(e);
                        return;
                    }
                };
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(slot) else { return };
                    let t = Instant::now();
                    let outcome = conn.submit(spec).and_then(|(id, rtt)| {
                        let ev = conn.follow(id, false)?;
                        served(slot, t.elapsed().as_secs_f64(), rtt, &ev)
                    });
                    let mut r = results.lock().expect("no panics hold it");
                    match outcome {
                        Ok(done) => r.0.push(done),
                        Err(e) => r.1.push(format!("job {slot}: {e}")),
                    }
                }
            });
        }
    });
    let wall_s = t.elapsed().as_secs_f64();
    let (served, errors) = results.into_inner().expect("no panics hold it");
    let stats = daemon
        .connect()
        .and_then(|mut c| c.call("{\"req\":\"stats\"}"))?;
    let intern = stats.get("intern")?;
    let intern = (
        intern.get("hits")?.as_u64()?,
        intern.get("misses")?.as_u64()?,
    );
    let (rss_mb, cpu_s) = daemon.usage();
    let ready_s = daemon.ready_s;
    daemon.stop()?;
    Ok(Round {
        wall_s,
        served,
        errors,
        ready_s,
        rss_mb,
        cpu_s,
        intern,
        spool: spool_size(dir),
    })
}

/// Starts and stops a daemon on a fresh spool; returns the start time.
pub fn start_once(dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let daemon = Daemon::start(dir)?;
    let ready = daemon.ready_s;
    daemon.stop()?;
    Ok(ready)
}

/// Submits `job`, kills the daemon with SIGKILL once the job has been
/// checkpointed at least once, restarts it on the same spool and
/// returns the fingerprint the recovered job reaches.
pub fn crash_and_recover(job: &Job, dir: &Path) -> Result<u64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let daemon = Daemon::start(dir)?;
    let mut conn = daemon.connect()?;
    let (id, _) = conn.submit(&spec_of(job))?;
    let ev = conn.follow(id, true)?;
    if ev.get("event")?.as_str()? != "progress" {
        return Err("the crash job finished in one slice; it cannot be interrupted".into());
    }
    drop(conn);
    // Dropping a running daemon kills it with SIGKILL and reaps it.
    drop(daemon);
    let daemon = Daemon::start(dir)?;
    if daemon.recovered == 0 {
        return Err("the restarted daemon recovered no job".into());
    }
    let ev = daemon.connect()?.follow(id, false)?;
    let verdict = served(0, 0.0, 0.0, &ev)?;
    daemon.stop()?;
    if verdict.verdict != "done/exact" {
        return Err(format!("the recovered job ended {}", verdict.verdict));
    }
    Ok(verdict.fp)
}

/// Per-slice costs of the daemon's slice loop, replayed in-process on
/// one instance: run at most `quantum` nodes, write the checkpoint,
/// read it back, resume. Returns the per-slice write, read and resume
/// times in ms and the final fingerprint.
pub fn sliced(inst: &Instance, quantum: u64, dir: &Path) -> Result<SliceCosts, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("slice.ckpt");
    let mut costs = SliceCosts::default();
    let mut checkpoint = None;
    loop {
        let mut config = engine::config_for(inst.job.model, inst.job.k);
        config.limits.max_total_nodes = Some(quantum);
        let mut engine = Rectifier::new(
            inst.base.clone(),
            inst.pi.clone(),
            inst.resp.clone(),
            config,
        )
        .map_err(|e| e.to_string())?;
        let result = match &checkpoint {
            Some(ckpt) => {
                let t = Instant::now();
                let r = engine.resume(ckpt).map_err(|e| e.to_string())?;
                costs.resume_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r
            }
            None => engine.run(),
        };
        let Some(ckpt) = result.checkpoint else {
            costs.fp = solution_fingerprint(&result.solutions);
            return Ok(costs);
        };
        let t = Instant::now();
        save_checkpoint_file(&path, &ckpt).map_err(|e| e.to_string())?;
        costs.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        checkpoint = Some(load_checkpoint_file(&path).map_err(|e| e.to_string())?);
        costs.read_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// See [`sliced`].
#[derive(Debug, Default)]
pub struct SliceCosts {
    /// `save_checkpoint_file` per slice, ms.
    pub write_ms: Vec<f64>,
    /// `load_checkpoint_file` per slice, ms.
    pub read_ms: Vec<f64>,
    /// `Rectifier::resume` per slice, ms.
    pub resume_ms: Vec<f64>,
    /// Fingerprint of the final solution set.
    pub fp: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_every_fourth_small_job_and_spread_the_giants() {
        let job = |seed, role| Job {
            circuit: "c432a".into(),
            model: Model::Dedc,
            k: 1,
            vectors: 64,
            seed,
            role,
        };
        let mut list: Vec<Job> = (0..10).map(|s| job(s, Role::Job)).collect();
        list.push(job(100, Role::Giant));
        list.push(job(101, Role::Giant));
        let seq = round_sequence(&list, 5);
        assert_eq!(seq, round_sequence(&list, 5));
        assert_eq!(seq.len(), 10 + 3 + 2);
        let giants: Vec<usize> = (0..seq.len())
            .filter(|&i| seq[i].role == Role::Giant)
            .collect();
        assert_eq!(giants, vec![0, 7]);
        for s in [0, 4, 8] {
            assert_eq!(seq.iter().filter(|j| j.seed == s).count(), 2);
        }
        assert_eq!(spec_of(&seq[0]).max_nodes, Some(NODE_GUARD));
        assert_eq!(spec_of(&seq[0]).deadline_ms, None);
    }
}
