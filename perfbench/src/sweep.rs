//! `sweep_service`: an in-process `service::Server` (the server `sweepd`
//! wraps) on loopback, driven by closed-loop clients that each submit a
//! job and stream it with the default filter until its `done` frame.

use crate::report::{median, Outcome};
use crate::workload::job_scenario;
use runner::supervisor::SupervisorConfig;
use runner::{run_scenario_with, EcgridJobHandler, RunOptions};
use service::{
    json, Client, ClientConfig, ClientError, DoneInfo, FilterSpec, JobSpec, JobState, Server, ServiceConfig,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Sheds a client sits out before the submission counts as failed.
const MAX_SHEDS: u32 = 8;

/// Worker threads of the server under test.
pub const WORKERS: usize = 2;

/// A fresh, empty state directory under the checkout.
pub struct StateDir(PathBuf);

impl StateDir {
    pub fn fresh(root: &Path, name: &str) -> StateDir {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        StateDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Start a server the way `sweepd` does, on an ephemeral loopback port.
pub fn start_server(state: &Path) -> std::io::Result<Server> {
    let handler = Arc::new(EcgridJobHandler::new(
        RunOptions::digest(),
        SupervisorConfig::default().with_max_retries(2),
    ));
    Server::start(
        ServiceConfig::default()
            .with_addr("127.0.0.1:0")
            .with_workers(WORKERS)
            .with_state_dir(state),
        handler,
    )
}

/// Seconds from `Server::start` to a listening server.
pub fn setup_probe(root: &Path, tag: &str) -> Result<f64, String> {
    let state = StateDir::fresh(root, tag);
    let t = Instant::now();
    let server = start_server(state.path()).map_err(|e| format!("server start: {e}"))?;
    let s = t.elapsed().as_secs_f64();
    server.request_shutdown();
    server.wait();
    Ok(s)
}

/// Seconds of what a server start asks of the host, without the server:
/// a state directory, a loopback listener, and one thread per worker
/// plus the accept thread.  Like the reference kernel, this is the
/// benchmark's own code, so only the host can move it.  Server starts
/// are rescaled by `HOST_NOMINAL_S` over its median: across eight runs, raw
/// starts ranged from 0.11 ms to 0.44 ms while their ratio to this
/// probe stayed within 0.93 to 1.14.
pub fn host_probe(root: &Path, tag: &str) -> Result<f64, String> {
    let state = StateDir::fresh(root, tag);
    let t = Instant::now();
    std::fs::create_dir_all(state.path().join("jobs")).map_err(|e| format!("host probe: {e}"))?;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("host probe: {e}"))?;
    let threads: Vec<_> = (0..=WORKERS).map(|_| std::thread::spawn(|| ())).collect();
    let s = t.elapsed().as_secs_f64();
    for h in threads {
        h.join()
            .map_err(|_| "host probe: a thread panicked".to_string())?;
    }
    drop(listener);
    Ok(s)
}

/// The host probe's duration at the nominal host speed (its typical
/// value on the host the benchmark was tuned on).
pub const HOST_NOMINAL_S: f64 = 0.000_15;

/// One submitted job as its client saw it.
pub struct JobRecord {
    pub spec: JobSpec,
    /// Submit sent → `done` frame read.
    pub latency_ms: f64,
    /// Submit sent → accept reply read.
    pub submit_rtt_ms: f64,
    /// Accept reply read → first stream frame read.
    pub queue_wait_ms: f64,
    pub done: Result<DoneInfo, String>,
}

/// One pass: a fresh server, every client's job list in a closed loop,
/// then a graceful drain.  Returns the pass's wall seconds and records.
pub fn pass(root: &Path, tag: &str, jobs: &[Vec<JobSpec>]) -> Result<(f64, Vec<JobRecord>, u64), String> {
    let state = StateDir::fresh(root, tag);
    let t = Instant::now();
    let server = start_server(state.path()).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    let per_client: Vec<Result<Vec<JobRecord>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let addr = addr.clone();
                s.spawn(move || client_loop(&addr, c as u64, list))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    server.request_shutdown();
    let summary = server.wait();
    let wall = t.elapsed().as_secs_f64();
    let mut records = Vec::new();
    for r in per_client {
        records.extend(r?);
    }
    Ok((wall, records, summary.shed))
}

fn client_loop(addr: &str, c: u64, list: &[JobSpec]) -> Result<Vec<JobRecord>, String> {
    let cfg = ClientConfig::default().with_addr(addr).with_backoff(5, 100, c);
    let mut client = Client::connect(cfg).map_err(|e| format!("client {c}: connect: {e}"))?;
    let mut out = Vec::with_capacity(list.len());
    for spec in list {
        let t = Instant::now();
        let mut rec = JobRecord {
            spec: spec.clone(),
            latency_ms: 0.0,
            submit_rtt_ms: 0.0,
            queue_wait_ms: 0.0,
            done: Err(String::new()),
        };
        rec.done = match client.submit_until_accepted(spec, MAX_SHEDS) {
            Err(e) => Err(format!("submit: {e}")),
            Ok((job, _)) => {
                let accepted = Instant::now();
                rec.submit_rtt_ms = ms(accepted - t);
                let mut first: Option<Instant> = None;
                let mut done_at: Option<Instant> = None;
                let streamed = client.stream_job(job, &FilterSpec::default(), |frame| {
                    let now = Instant::now();
                    first.get_or_insert(now);
                    if json::field(frame, "stream") == Some("done") {
                        done_at = Some(now);
                    }
                });
                let end = done_at.unwrap_or_else(Instant::now);
                rec.latency_ms = ms(end - t);
                rec.queue_wait_ms = ms(first.unwrap_or(end) - accepted);
                streamed.map_err(|e: ClientError| format!("stream: {e}"))
            }
        };
        out.push(rec);
    }
    Ok(out)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A distinct job run in-process: its trace digest and wall time.
pub struct LocalRun {
    pub digest: String,
    pub sim_ms: f64,
}

/// Every distinct job (keyed by seed) run in-process, as the service's
/// handler would run it.
pub fn local_runs(jobs: &[Vec<JobSpec>]) -> HashMap<u64, LocalRun> {
    let mut runs = HashMap::new();
    for spec in jobs.iter().flatten() {
        if runs.contains_key(&spec.seed) {
            continue;
        }
        let t = Instant::now();
        let r = run_scenario_with(&job_scenario(spec), RunOptions::digest());
        let sim_ms = ms(t.elapsed());
        let digest = r.trace_digest.map(|d| d.to_string()).unwrap_or_default();
        runs.insert(spec.seed, LocalRun { digest, sim_ms });
    }
    runs
}

/// Check one streamed job against its in-process run.
pub fn check_job(rec: &JobRecord, local: &HashMap<u64, LocalRun>, out: &mut Outcome) {
    out.attempted += 1;
    let who = format!("{} seed {}", rec.spec.protocol, rec.spec.seed);
    match &rec.done {
        Err(e) => out.fail(format!("{who}: {e}")),
        Ok(d) => {
            if d.state != Some(JobState::Done) || d.quarantined > 0 || d.error.is_some() {
                out.fail(format!("{who}: ended {:?} ({:?})", d.state, d.error));
            } else {
                let want = local.get(&rec.spec.seed).map(|l| l.digest.as_str());
                if d.digests.len() != 1 || d.digests.first().map(String::as_str) != want {
                    out.fail(format!(
                        "{who}: streamed digests {:?} differ from the in-process {want:?}",
                        d.digests
                    ));
                }
            }
        }
    }
}

/// Fold the in-process digests of a job list, in submission order.
pub fn jobs_digest(jobs: &[Vec<JobSpec>], local: &HashMap<u64, LocalRun>) -> u64 {
    let mut h = manet::trace::Fnv64::new();
    for spec in jobs.iter().flatten() {
        if let Some(l) = local.get(&spec.seed) {
            h.write(l.digest.as_bytes());
        }
    }
    h.finish()
}

/// The service's per-layer figures from one instrumented pass.
pub fn report(records: &[JobRecord], local: &HashMap<u64, LocalRun>, shed: u64, out: &mut Outcome) {
    let done: Vec<(&JobRecord, &DoneInfo)> = records
        .iter()
        .filter_map(|r| r.done.as_ref().ok().map(|d| (r, d)))
        .collect();
    if done.is_empty() {
        return;
    }
    let n = done.len();
    let col =
        |f: &dyn Fn(&JobRecord, &DoneInfo) -> f64| done.iter().map(|(r, d)| f(r, d)).collect::<Vec<f64>>();
    // a journal answer runs no simulation
    let sim_ms = |r: &JobRecord, d: &DoneInfo| {
        if d.from_journal > 0 {
            0.0
        } else {
            local.get(&r.spec.seed).map_or(0.0, |l| l.sim_ms)
        }
    };
    let delivered: u64 = done.iter().map(|(_, d)| d.delivered).sum();
    let dropped: u64 = done.iter().map(|(_, d)| d.dropped).sum();
    let hits = done.iter().filter(|(_, d)| d.from_journal > 0).count();
    out.put("service.submit_rtt_ms", median(&col(&|r, _| r.submit_rtt_ms)), n);
    out.put("service.queue_wait_ms", median(&col(&|r, _| r.queue_wait_ms)), n);
    out.put(
        "service.overhead_ms",
        median(&col(&|r, d| r.latency_ms - r.queue_wait_ms - sim_ms(r, d))),
        n,
    );
    out.put("service.frames_delivered", delivered as f64, n);
    out.put("service.frames_dropped", dropped as f64, n);
    let frames = (delivered + dropped).max(1) as f64;
    out.put("service.drop_frac", dropped as f64 / frames, n);
    out.put("service.journal_hit_frac", hits as f64 / n as f64, n);
    out.put("service.shed", shed as f64, 1);
}
