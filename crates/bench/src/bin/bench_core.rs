//! Emit the repo's perf baseline: `BENCH_core.json`.
//!
//! Runs the core scaling family (see `core_scaling`) at N ∈ {50, 100,
//! 200, 500, 1000, 5000, 10000} and writes a machine-readable report:
//!
//! * `receiver_discovery` — one discovery round through the simulator's
//!   own query path (`World::neighbors_of`): brute node-table scan vs the
//!   maintained bucket index — the headline number;
//! * `geometry_kernel` — the same query over a bare position array, a
//!   lower bound that isolates index overhead from node-state traffic;
//!   the `auto` column routes through the simulator's occupancy
//!   crossover (`GatherFallback::Auto`), which is what kills the
//!   historical low-N regression of the raw grid round;
//! * `carrier_sense` — one sensing round over a loaded channel, linear
//!   scan vs bucketed transmissions;
//! * `end_to_end` — the full simulator on the same constant-density
//!   scenario under both `NeighborIndex` modes, with a digest-equality
//!   check so the speedup is never bought with a behavior change;
//! * the `parallel` column inside `end_to_end` — the same grid-mode
//!   scenario on the sharded conservative-sync engine (4 strips), digest-
//!   checked against the serial run.  Both engines prune the channel at
//!   the same epoch barriers, so the column measures strips alone
//!   (DESIGN.md §12);
//! * the `threaded` column — the sharded engine with 4 worker lanes
//!   fanning the host-plane kernels out over real threads (DESIGN.md
//!   §14), digest-checked too.  Its wall time only beats the sharded
//!   column when the host has cores to give it, so the report records
//!   `host_parallelism` and the `--check` gate on this column is
//!   conditional on it.
//!
//! ```sh
//! cargo run --release -p ecgrid-bench --bin bench_core -- --quick --check --out BENCH_core.json
//! ```
//!
//! `--quick` shrinks the simulated horizon at N ≥ 500 and caps the ladder
//! at N = 1000 for CI; the measured ratios are the same, just noisier.
//! Every section times its compared modes interleaved, one run of each
//! per round; it reports each mode's fastest round, and as the speedup
//! the median of the per-round paired ratios (so a speedup is not the
//! quotient of the two listed times).  `--check` turns the report into
//! a regression gate: exit 1 unless digests match at every scale and,
//! at every N ≤ 200 (the low-N band where a naive bucket index
//! historically regressed), every section holds ≥ 0.9x of brute —
//! end-to-end keeps its stricter 0.95x floor, and the geometry kernel is
//! judged on its `auto` column.

use ecgrid_bench::core_scaling::{
    broadcast_round_auto, broadcast_round_brute, broadcast_round_grid, build_index, build_world,
    carrier_sense_round, discovery_sweep, field_side, loaded_channel, placements, run_end_to_end_parallel,
    QUICK_MAX_N, SCALES,
};
use manet::{host_parallelism, NeighborIndex};
use runner::write_atomic;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The fastest of one mode's per-round timings: the reported wall time
/// (minimum-of-reps is the standard noise floor estimator for short
/// deterministic kernels).
fn fastest(rounds: &[f64]) -> f64 {
    rounds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Speedup of `new` over `base`: the median over rounds of the paired
/// ratio `base / new`.  Each round times both modes back to back, so the
/// ratio cancels whatever the host was doing that round, and the median
/// drops the rounds a slow spell split down the middle.
fn paired_speedup(base: &[f64], new: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = base.iter().zip(new).map(|(b, n)| b / n).collect();
    ratios.sort_by(f64::total_cmp);
    match ratios.len() {
        0 => f64::NAN,
        k if k % 2 == 1 => ratios[k / 2],
        k => (ratios[k / 2 - 1] + ratios[k / 2]) / 2.0,
    }
}

/// Run several kernels over `reps` rounds and return each one's timing
/// in every round, with its first result.  Every round runs each kernel
/// once, in a kernel order rotated per round, so the compared modes
/// share the host's conditions: a slow spell costs one round of every
/// mode instead of a block of one mode's reps.  Each call returns its
/// own timing, so a kernel times only the part it measures.  The kernels
/// are deterministic, so every later result must equal the first.
fn time_interleaved<T: PartialEq + std::fmt::Debug, const M: usize>(
    reps: usize,
    kernels: [&mut dyn FnMut() -> (f64, T); M],
) -> [(Vec<f64>, T); M] {
    let mut out: [(Vec<f64>, Option<T>); M] = std::array::from_fn(|_| (Vec::new(), None));
    for round in 0..reps.max(2) {
        for j in 0..M {
            let k = (j + round) % M;
            let (time, result) = (kernels[k])();
            out[k].0.push(time);
            match &out[k].1 {
                Some(first) => assert_eq!(&result, first, "kernel {k} is nondeterministic"),
                None => out[k].1 = Some(result),
            }
        }
    }
    out.map(|(rounds, first)| (rounds, first.expect("at least one round")))
}

/// A micro kernel timed per call (ns) over `batch` back-to-back calls,
/// which keeps sub-microsecond kernels warm and well above the timer's
/// resolution.
fn batched(batch: usize, mut kernel: impl FnMut() -> u64) -> impl FnMut() -> (f64, u64) {
    let batch = batch.max(1);
    move || {
        let start = Instant::now();
        let mut sum = 0;
        for _ in 0..batch {
            sum = kernel();
        }
        (start.elapsed().as_nanos() as f64 / batch as f64, sum)
    }
}

/// One end-to-end run timed by its simulated run alone (s), with its
/// digest and event count.  `shards: None` is the serial engine.
fn e2e(
    n: usize,
    secs: f64,
    seed: u64,
    mode: NeighborIndex,
    shards: Option<usize>,
    threads: usize,
) -> impl FnMut() -> (f64, (u64, u64)) {
    move || {
        let r = run_end_to_end_parallel(n, secs, mode, seed, shards, threads);
        (r.wall_s, (r.digest, r.events))
    }
}

struct ScaleReport {
    n: usize,
    field_m: f64,
    rd_brute_ns: Vec<f64>,
    rd_grid_ns: Vec<f64>,
    gk_brute_ns: Vec<f64>,
    gk_grid_ns: Vec<f64>,
    gk_auto_ns: Vec<f64>,
    cs_brute_ns: Vec<f64>,
    cs_grid_ns: Vec<f64>,
    e2e_brute_s: Vec<f64>,
    e2e_grid_s: Vec<f64>,
    e2e_par_s: Vec<f64>,
    e2e_thr_s: Vec<f64>,
    e2e_events: u64,
    digest_match: bool,
}

/// Strip count of the parallel end-to-end column.
const PAR_SHARDS: usize = 4;

/// Worker-lane count of the threaded end-to-end column.
const PAR_THREADS: usize = 4;

impl ScaleReport {
    fn rd_speedup(&self) -> f64 {
        paired_speedup(&self.rd_brute_ns, &self.rd_grid_ns)
    }
    fn gk_speedup(&self) -> f64 {
        paired_speedup(&self.gk_brute_ns, &self.gk_grid_ns)
    }
    /// The adaptive round vs brute — the number the low-N gate holds.
    fn gk_auto_speedup(&self) -> f64 {
        paired_speedup(&self.gk_brute_ns, &self.gk_auto_ns)
    }
    fn cs_speedup(&self) -> f64 {
        paired_speedup(&self.cs_brute_ns, &self.cs_grid_ns)
    }
    fn e2e_speedup(&self) -> f64 {
        paired_speedup(&self.e2e_brute_s, &self.e2e_grid_s)
    }
    /// Sharded engine vs the serial grid-mode run (same scenario).
    fn par_speedup(&self) -> f64 {
        paired_speedup(&self.e2e_grid_s, &self.e2e_par_s)
    }
    /// Threaded engine vs the sharded single-lane run (same scenario).
    fn thr_speedup(&self) -> f64 {
        paired_speedup(&self.e2e_par_s, &self.e2e_thr_s)
    }
}

fn json_f(x: f64) -> String {
    // JSON has no Infinity/NaN; clamp degenerate timings defensively
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".into()
    }
}

fn render_json(quick: bool, scales: &[ScaleReport]) -> String {
    let mut s = String::new();
    let headline = scales
        .iter()
        .find(|r| r.n == 500)
        .map(|r| r.rd_speedup())
        .unwrap_or(f64::NAN);
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"core_scaling\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"range_m\": 250.0,");
    let _ = writeln!(s, "  \"density_hosts_per_km2\": 100.0,");
    let _ = writeln!(s, "  \"host_parallelism\": {},", host_parallelism());
    let _ = writeln!(
        s,
        "  \"receiver_discovery_speedup_at_500\": {},",
        json_f(headline)
    );
    let _ = writeln!(s, "  \"scales\": [");
    for (i, r) in scales.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"n\": {},", r.n);
        let _ = writeln!(s, "      \"field_m\": {},", json_f(r.field_m));
        let _ = writeln!(
            s,
            "      \"receiver_discovery\": {{\"brute_round_ns\": {}, \"grid_round_ns\": {}, \"speedup\": {}}},",
            json_f(fastest(&r.rd_brute_ns)),
            json_f(fastest(&r.rd_grid_ns)),
            json_f(r.rd_speedup())
        );
        let _ = writeln!(
            s,
            "      \"geometry_kernel\": {{\"brute_round_ns\": {}, \"grid_round_ns\": {}, \"speedup\": {}, \"auto_round_ns\": {}, \"auto_speedup\": {}}},",
            json_f(fastest(&r.gk_brute_ns)),
            json_f(fastest(&r.gk_grid_ns)),
            json_f(r.gk_speedup()),
            json_f(fastest(&r.gk_auto_ns)),
            json_f(r.gk_auto_speedup())
        );
        let _ = writeln!(
            s,
            "      \"carrier_sense\": {{\"brute_round_ns\": {}, \"grid_round_ns\": {}, \"speedup\": {}}},",
            json_f(fastest(&r.cs_brute_ns)),
            json_f(fastest(&r.cs_grid_ns)),
            json_f(r.cs_speedup())
        );
        let _ = writeln!(
            s,
            "      \"end_to_end\": {{\"brute_wall_s\": {}, \"grid_wall_s\": {}, \"speedup\": {}, \"parallel_wall_s\": {}, \"parallel_shards\": {PAR_SHARDS}, \"parallel_speedup\": {}, \"threads\": {PAR_THREADS}, \"threaded_wall_s\": {}, \"threaded_speedup\": {}, \"events\": {}, \"digest_match\": {}}}",
            json_f(fastest(&r.e2e_brute_s)),
            json_f(fastest(&r.e2e_grid_s)),
            json_f(r.e2e_speedup()),
            json_f(fastest(&r.e2e_par_s)),
            json_f(r.par_speedup()),
            json_f(fastest(&r.e2e_thr_s)),
            json_f(r.thr_speedup()),
            r.e2e_events,
            r.digest_match
        );
        let _ = writeln!(s, "    }}{}", if i + 1 < scales.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_core.json".into());

    let seed = 42;
    let scales: Vec<usize> = SCALES
        .iter()
        .copied()
        .filter(|&n| !quick || n <= QUICK_MAX_N)
        .collect();

    let mut reports = Vec::new();
    for &n in &scales {
        // the brute rounds are O(N²) — past 1k hosts a handful of reps
        // already dwarfs the noise floor; tiny populations are the
        // opposite problem (microsecond rounds under a 0.9x gate), so
        // they get many rounds of batched calls to push timer noise below
        // the floor.  Quick mode keeps the full depth: micro rounds cost
        // microseconds to milliseconds, and the gates judge these scales.
        let micro_reps = match n {
            n if n > 1000 => 3,
            n if n <= 200 => 200,
            _ => 20,
        };
        let micro_batch = if n <= 200 { 8 } else { 1 };
        // small populations simulate in milliseconds, where timer noise
        // swamps any real mode difference — stretch their horizon so the
        // wall times are tens of milliseconds; shrink it at the top of
        // the ladder where the brute leg alone costs minutes
        let e2e_secs = match n {
            n if n <= 200 => 120.0,
            n if n > 1000 => 10.0,
            _ if quick => 10.0,
            _ => 30.0,
        };
        // short runs additionally need many rounds to beat noise, and
        // the gated band (N ≤ 1000) gets enough of them that one slow
        // spell of the host cannot decide a ratio; the top of the ladder
        // keeps three, so no engine comparison rests on a single run
        let e2e_reps = match n {
            n if n <= 200 => 15,
            n if n <= 1000 => 4,
            _ => 3,
        };
        eprintln!("bench_core: n={n} (field {:.0} m)", field_side(n));
        let pts = placements(n, seed);
        let idx = build_index(&pts, n);
        let (mut scratch_g, mut scratch_a) = (Vec::new(), Vec::new());

        let [(gk_brute_ns, sum_b), (gk_grid_ns, sum_g), (gk_auto_ns, sum_a)] = time_interleaved(
            micro_reps,
            [
                &mut batched(micro_batch, || broadcast_round_brute(&pts)),
                &mut batched(micro_batch, || broadcast_round_grid(&pts, &idx, &mut scratch_g)),
                &mut batched(micro_batch, || broadcast_round_auto(&pts, &idx, &mut scratch_a)),
            ],
        );
        assert_eq!(sum_b, sum_g, "n={n}: receiver sets diverged");
        assert_eq!(sum_b, sum_a, "n={n}: adaptive receiver set diverged");

        let w_brute = build_world(n, 1.0, NeighborIndex::Brute, seed);
        let w_grid = build_world(n, 1.0, NeighborIndex::Grid, seed);
        let [(rd_brute_ns, sw_b), (rd_grid_ns, sw_g)] = time_interleaved(
            micro_reps,
            [
                &mut batched(micro_batch, || discovery_sweep(&w_brute)),
                &mut batched(micro_batch, || discovery_sweep(&w_grid)),
            ],
        );
        assert_eq!(sw_b, sw_g, "n={n}: simulator discovery sweeps diverged");

        // channel load scales with population: ~6% of hosts on the air.
        // The bucketed leg follows the simulator's own policy: the world
        // only enables the channel's spatial structure above the
        // occupancy crossover (few in-flight transmissions make bucket
        // maintenance pure overhead — the same low-N regression the
        // geometry kernel's auto column kills), so below it both legs
        // run the linear scan the simulator would actually run
        let k = (n / 16).max(4);
        let spatial = n > ecgrid_bench::core_scaling::channel_spatial_threshold();
        let plain = loaded_channel(&pts, k, n, false);
        let fast = loaded_channel(&pts, k, n, spatial);
        let [(cs_brute_ns, cs_b), (cs_grid_ns, cs_g)] = time_interleaved(
            micro_reps,
            [
                &mut batched(micro_batch, || carrier_sense_round(&plain, &pts)),
                &mut batched(micro_batch, || carrier_sense_round(&fast, &pts)),
            ],
        );
        assert_eq!(cs_b, cs_g, "n={n}: carrier-sense verdicts diverged");

        let [(brute_s, brute), (grid_s, grid), (par_s, par), (thr_s, thr)] = time_interleaved(
            e2e_reps,
            [
                &mut e2e(n, e2e_secs, seed, NeighborIndex::Brute, None, 1),
                &mut e2e(n, e2e_secs, seed, NeighborIndex::Grid, None, 1),
                &mut e2e(n, e2e_secs, seed, NeighborIndex::Grid, Some(PAR_SHARDS), 1),
                &mut e2e(
                    n,
                    e2e_secs,
                    seed,
                    NeighborIndex::Grid,
                    Some(PAR_SHARDS),
                    PAR_THREADS,
                ),
            ],
        );
        // (digest, events) of every column must equal the serial grid run
        let digest_match = brute == grid && par == grid && thr == grid;
        assert!(digest_match, "n={n}: end-to-end digests diverged across modes");

        let r = ScaleReport {
            n,
            field_m: field_side(n),
            rd_brute_ns,
            rd_grid_ns,
            gk_brute_ns,
            gk_grid_ns,
            gk_auto_ns,
            cs_brute_ns,
            cs_grid_ns,
            e2e_brute_s: brute_s,
            e2e_grid_s: grid_s,
            e2e_par_s: par_s,
            e2e_thr_s: thr_s,
            e2e_events: grid.1,
            digest_match,
        };
        eprintln!(
            "  receiver discovery {:>6.2}x   geometry kernel {:>5.2}x (auto {:>5.2}x)   carrier sense {:>5.2}x   end-to-end {:>5.2}x   parallel {:>5.2}x   threaded {:>5.2}x ({} events)",
            r.rd_speedup(),
            r.gk_speedup(),
            r.gk_auto_speedup(),
            r.cs_speedup(),
            r.e2e_speedup(),
            r.par_speedup(),
            r.thr_speedup(),
            r.e2e_events
        );
        reports.push(r);
    }

    let body = render_json(quick, &reports);
    write_atomic(Path::new(&out), body.as_bytes()).unwrap_or_else(|e| {
        eprintln!("bench_core: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("bench_core: wrote {out}");
    let headline = reports
        .iter()
        .find(|r| r.n == 500)
        .map(|r| r.rd_speedup())
        .unwrap_or(0.0);
    println!("receiver_discovery_speedup_at_500: {headline:.2}");

    if check {
        let mut failures = Vec::new();
        for r in &reports {
            if !r.digest_match {
                failures.push(format!("n={}: end-to-end digests diverged across modes", r.n));
            }
            // the low-N band where bucket overhead historically made the
            // grid path a pessimization: every section must hold ≥ 0.9x
            // of brute there (the geometry kernel is judged on its
            // adaptive column — that crossover is the fix; the raw grid
            // round legitimately loses below it and stays informational)
            if r.n <= 200 {
                for (section, speedup) in [
                    ("receiver discovery", r.rd_speedup()),
                    ("geometry kernel (auto)", r.gk_auto_speedup()),
                    ("carrier sense", r.cs_speedup()),
                ] {
                    if speedup < 0.9 {
                        failures.push(format!(
                            "n={}: {section} regressed to {speedup:.2}x of brute (floor 0.9x)",
                            r.n
                        ));
                    }
                }
                // end-to-end keeps its historical, stricter floor
                if r.e2e_speedup() < 0.95 {
                    failures.push(format!(
                        "n={}: grid end-to-end regressed to {:.2}x of brute (floor 0.95x)",
                        r.n,
                        r.e2e_speedup()
                    ));
                }
            }
            // the sharded engine must at least break even once the
            // population is large enough for its amortized bookkeeping to
            // matter; below that the column is informational
            if r.n >= 1000 && r.par_speedup() < 1.0 {
                failures.push(format!(
                    "n={}: sharded end-to-end regressed to {:.2}x of serial (floor 1.0x)",
                    r.n,
                    r.par_speedup()
                ));
            }
            // worker lanes can only buy wall time where the host has
            // cores to run them; on a narrower host the threaded column
            // is informational (the digest check above still holds it to
            // bit-exactness)
            if r.n >= 1000 && host_parallelism() >= PAR_THREADS && r.thr_speedup() < 1.0 {
                failures.push(format!(
                    "n={}: threaded end-to-end regressed to {:.2}x of sharded (floor 1.0x)",
                    r.n,
                    r.thr_speedup()
                ));
            }
        }
        if host_parallelism() < PAR_THREADS {
            eprintln!(
                "bench_core: threaded-column gate skipped (host_parallelism {} < {PAR_THREADS})",
                host_parallelism()
            );
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench_core: CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "bench_core: check passed (digest_match at all {} scales, no low-N regression)",
            reports.len()
        );
    }
}
