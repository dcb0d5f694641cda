//! The repository benchmark.  See README.md for the workloads, the
//! metrics, and how the traced run differs from the end-to-end runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_lifetime --seed 1 --seconds 30 --trace 0
//! ```

mod layers;
mod metrics;
mod pins;
mod reference;
mod report;
mod sweep;
mod workload;

use pins::{Outputs, DEFAULT_SEED};
use report::{median, peak_rss_mb, quantile, Outcome};
use runner::RunOptions;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Sim, Size, Workload};

/// Set-up samples taken after each timed pass; the median over the run
/// is reported.  Spreading them over the run, rather than taking them
/// all at its start, lets host drift within the run reach `setup_s` as
/// it reaches `wall_s`.  One sample is 0.4 ms to 10 ms of simulation
/// set-up, or a server start plus a ~50 ms drain.
const SIM_SETUP_PER_PASS: usize = 11;
const SWEEP_SETUP_PER_PASS: usize = 6;

#[derive(Clone, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload paper_lifetime|dense_scale|sweep_service \
                     --seed <n> --seconds <n> --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().ok().filter(|s| *s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let state_root = match std::env::current_dir() {
        Ok(d) => d.join(".perfbench_state"),
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args, Size::Full, &state_root);
    let _ = std::fs::remove_dir_all(&state_root);
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!(
        "{}",
        report::provenance_line(args.workload.name(), args.seed, args.seconds, args.trace, &out)
    );
    println!("{}", report::result_line(&out, metrics::unit_of));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run one invocation and return its metrics in the pinned order.
fn run(args: &Args, size: Size, state_root: &Path) -> Outcome {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let mut out = match (w, args.trace) {
        (Workload::SweepService, false) => sweep_end_to_end(args.seed, size, budget, state_root),
        (Workload::SweepService, true) => sweep_traced(args.seed, size, state_root),
        (_, false) => sims_end_to_end(w, args.seed, size, budget),
        (_, true) => sims_traced(&sims_of(w, args.seed, size, 0), pins::pinned(w, args.seed, size)),
    };
    let names: Vec<&'static str> = if args.trace {
        metrics::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.0).collect()
    };
    // a layer this workload does not exercise reports 0 from 0 samples;
    // an end-to-end metric that could not be measured reports null
    let fill = if args.trace { 0.0 } else { f64::NAN };
    out.metrics = names
        .into_iter()
        .map(|name| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(report::Metric {
                    name,
                    value: fill,
                    samples: 0,
                })
        })
        .collect();
    out
}

/// The workload's jobs on replica `k` of the seed (replica 0 is the seed
/// itself, as in `runner::run_replicas`).
fn sims_of(w: Workload, seed: u64, size: Size, k: u64) -> Vec<Sim> {
    let seed = runner::replica_seed(seed, k);
    match w {
        Workload::PaperLifetime => workload::paper_lifetime(seed, size),
        Workload::DenseScale => workload::dense_scale(seed, size),
        Workload::SweepService => unreachable!("sweep_service runs through the service"),
    }
}

/// Time passes of the workload's jobs until the budget is spent, after
/// one untimed warm-up pass, with `SIM_SETUP_PER_PASS` set-up probes
/// after each pass.  Pass `k` runs replica `k` of the seed: one
/// instance's work depends strongly on its seed (route floods, the death
/// cascade), so the median over distinct replicas is what keeps two runs
/// with different seeds close.
fn sims_end_to_end(w: Workload, seed: u64, size: Size, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let base = sims_of(w, seed, size, 0);
    let pinned = pins::pinned(w, seed, size);
    // the warm-up is replica 0's first run: the timed pass of replica 0
    // must reproduce it, and on the default seed both must match the pins
    let mut first = Vec::with_capacity(base.len());
    for (k, sim) in base.iter().enumerate() {
        let r = sim.run(RunOptions::digest());
        out.attempted += 1;
        check_result(&r, sim, pinned.get(k), None, &mut out);
        first.push(Outputs::of(&r));
    }
    let mut setups = Vec::new();
    let mut timed = Timed::new(1);
    let mut before = timed.reference();
    let start = Instant::now();
    while timed.walls.is_empty() || start.elapsed() < budget {
        let replica = timed.walls.len() as u64;
        let sims = sims_of(w, seed, size, replica);
        let (mut raw, mut scaled) = (0.0, 0.0);
        for (k, sim) in sims.iter().enumerate() {
            let t = Instant::now();
            let r = sim.run(RunOptions::digest());
            let s = t.elapsed().as_secs_f64();
            let after = timed.reference();
            let scale = reference::scale((before + after) / 2.0);
            before = after;
            out.attempted += 1;
            let again = if replica == 0 { first.get(k).copied() } else { None };
            check_result(&r, sim, None, again, &mut out);
            raw += s;
            scaled += s * scale;
            timed.job(s * 1e3, scale);
        }
        timed.pass(raw, scaled, sims.len());
        for _ in 0..SIM_SETUP_PER_PASS {
            let mut total = 0.0;
            for sim in &base {
                match layers::setup_probe(sim) {
                    Some(s) => total += s,
                    None => out.fail(format!(
                        "{}: a one-event budget did not stop the set-up probe",
                        sim.label()
                    )),
                }
            }
            setups.push(total);
        }
    }
    timed.report(&setups, timed.run_scale(), &mut out);
    out
}

/// A finished run must not have tripped its watchdog, must carry a
/// digest, and must match the outputs it is held to.
fn check_result(
    r: &runner::ScenarioResult,
    sim: &Sim,
    pinned: Option<&Outputs>,
    again: Option<Outputs>,
    out: &mut Outcome,
) {
    if let Some(b) = &r.budget_exceeded {
        out.fail(format!("{}: watchdog tripped: {b:?}", sim.label()));
    } else if r.trace_digest.is_none() {
        out.fail(format!("{}: the run recorded no digest", sim.label()));
    } else {
        pins::check(pinned, &sim.label(), Outputs::of(r), again, out);
    }
}

/// The timed passes of an end-to-end run.  Each job (on the simulation
/// workloads) or pass (on `sweep_service`) is rescaled to the nominal
/// host speed by the reference kernel run just before and just after it
/// (see `reference`).
struct Timed {
    kernel: reference::Reference,
    /// Threads the kernel runs on: as many as the workload keeps busy.
    threads: usize,
    refs: Vec<f64>,
    raw_walls: Vec<f64>,
    walls: Vec<f64>,
    rates: Vec<f64>,
    raw_latencies: Vec<f64>,
    latencies: Vec<f64>,
}

impl Timed {
    fn new(threads: usize) -> Timed {
        Timed {
            kernel: reference::Reference::new(),
            threads,
            refs: Vec::new(),
            raw_walls: Vec::new(),
            walls: Vec::new(),
            rates: Vec::new(),
            raw_latencies: Vec::new(),
            latencies: Vec::new(),
        }
    }

    /// Time the reference kernel now, in seconds.
    fn reference(&mut self) -> f64 {
        let r = if self.threads > 1 {
            self.kernel.measure_parallel(self.threads)
        } else {
            self.kernel.measure()
        };
        self.refs.push(r);
        r
    }

    /// One job's latency in raw milliseconds and its rescale factor.
    fn job(&mut self, raw_ms: f64, scale: f64) {
        self.raw_latencies.push(raw_ms);
        self.latencies.push(raw_ms * scale);
    }

    fn pass(&mut self, raw_s: f64, scaled_s: f64, jobs: usize) {
        self.raw_walls.push(raw_s);
        self.walls.push(scaled_s);
        self.rates.push(jobs as f64 / scaled_s);
    }

    /// The rescale factor of the run's median kernel time.  Set-up
    /// samples are too short to bracket each with the kernel.
    fn run_scale(&self) -> f64 {
        reference::scale(median(&self.refs))
    }

    /// Put the end-to-end metrics, with the set-up samples rescaled by
    /// `setup_scale`.
    fn report(&self, raw_setups: &[f64], setup_scale: f64, out: &mut Outcome) {
        if self.walls.is_empty() || raw_setups.is_empty() {
            return;
        }
        out.context.push(("reference_s", median(&self.refs)));
        out.context.push(("raw_wall_s", median(&self.raw_walls)));
        out.context.push(("raw_setup_s", median(raw_setups)));
        out.context
            .push(("raw_job_latency_p50_ms", median(&self.raw_latencies)));
        out.put("wall_s", median(&self.walls), self.walls.len());
        out.put("setup_s", median(raw_setups) * setup_scale, raw_setups.len());
        out.put("peak_rss_mb", peak_rss_mb(), 1);
        out.put("jobs_per_s", median(&self.rates), self.rates.len());
        out.put(
            "job_latency_p50_ms",
            quantile(&self.latencies, 0.5),
            self.latencies.len(),
        );
        out.put(
            "job_latency_p90_ms",
            quantile(&self.latencies, 0.9),
            self.latencies.len(),
        );
    }
}

/// One traced pass of every job, then the layer replays.
fn sims_traced(sims: &[Sim], pinned: &[Outputs]) -> Outcome {
    let mut out = Outcome::default();
    let mut jobs = Vec::with_capacity(sims.len());
    for (k, sim) in sims.iter().enumerate() {
        let l = layers::trace_sim(sim, &mut out);
        pins::check(pinned.get(k), &sim.label(), l.outputs, None, &mut out);
        jobs.push(l);
    }
    layers::report(&jobs, &mut out);
    out
}

/// The full-size default seed's job list must produce the pinned digests.
fn check_sweep_pin(seed: u64, size: Size, local: &HashMap<u64, sweep::LocalRun>, out: &mut Outcome) {
    if seed != DEFAULT_SEED || size != Size::Full {
        return;
    }
    let got = sweep::jobs_digest(&workload::sweep_jobs(seed, size), local);
    if got != pins::SWEEP_SERVICE_JOBS_DIGEST {
        out.fail(format!(
            "sweep_service: job digests fold to {got:016x}, pinned {:016x}",
            pins::SWEEP_SERVICE_JOBS_DIGEST
        ));
    }
}

fn sweep_end_to_end(seed: u64, size: Size, budget: Duration, root: &Path) -> Outcome {
    let mut out = Outcome::default();
    let jobs = workload::sweep_jobs(seed, size);
    let local = sweep::local_runs(&jobs);
    check_sweep_pin(seed, size, &local, &mut out);
    let mut setups = Vec::new();
    let mut hosts = Vec::new();
    // a pass keeps both cores busy, so the kernel runs on both
    let mut timed = Timed::new(sweep::WORKERS);
    let mut before = timed.reference();
    let start = Instant::now();
    while timed.walls.is_empty() || start.elapsed() < budget {
        let pass = timed.walls.len();
        match sweep::pass(root, &format!("pass-{pass}"), &jobs) {
            Ok((wall, records, _)) => {
                let after = timed.reference();
                let scale = reference::scale((before + after) / 2.0);
                before = after;
                for r in &records {
                    sweep::check_job(r, &local, &mut out);
                    timed.job(r.latency_ms, scale);
                }
                timed.pass(wall, wall * scale, records.len());
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                break;
            }
        }
        for k in 0..SWEEP_SETUP_PER_PASS {
            match sweep::host_probe(root, &format!("host-{pass}-{k}")) {
                Ok(s) => hosts.push(s),
                Err(e) => out.fail(e),
            }
            match sweep::setup_probe(root, &format!("setup-{pass}-{k}")) {
                Ok(s) => setups.push(s),
                Err(e) => out.fail(e),
            }
        }
    }

    // a server start is thread spawns and file-system calls, whose speed
    // the kernel did not track; the host probe does
    let setup_scale = if hosts.is_empty() {
        1.0
    } else {
        let host_s = median(&hosts);
        out.context.push(("host_probe_s", host_s));
        sweep::HOST_NOMINAL_S / host_s
    };
    timed.report(&setups, setup_scale, &mut out);
    out
}

fn sweep_traced(seed: u64, size: Size, root: &Path) -> Outcome {
    let mut out = Outcome::default();
    let jobs = workload::sweep_jobs(seed, size);
    let local = sweep::local_runs(&jobs);
    check_sweep_pin(seed, size, &local, &mut out);
    // the simulation layers, on the first job of each protocol
    let mut layer_jobs = Vec::new();
    for p in workload::PROTOCOLS {
        if let Some(spec) = jobs
            .iter()
            .flatten()
            .find(|s| s.protocol.eq_ignore_ascii_case(p.name()))
        {
            layer_jobs.push(layers::trace_sim(
                &Sim::Classic(workload::job_scenario(spec)),
                &mut out,
            ));
        }
    }
    layers::report(&layer_jobs, &mut out);

    let sim_ms: Vec<f64> = local.values().map(|l| l.sim_ms).collect();
    out.put("runner.job_sim_ms", median(&sim_ms), sim_ms.len());
    match sweep::pass(root, "traced", &jobs) {
        Ok((_, records, shed)) => {
            for r in &records {
                sweep::check_job(r, &local, &mut out);
            }
            sweep::report(&records, &local, shed, &mut out);
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
        }
    }
    out
}

#[cfg(test)]
mod tests;
