//! The benchmark's own tests: replay reconciliation, the output gate,
//! the metric-name contract, and a smoke run of every workload.

use super::*;
use std::collections::HashSet;

fn state_root(tag: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.perfbench_state")
        .join(format!("test-{tag}-{}", std::process::id()))
}

/// A seed other than `DEFAULT_SEED`, so smoke runs judge agreement
/// between runs rather than the full-size pins.
const SMOKE_SEED: u64 = 7;

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let args = Args {
        workload,
        seed: SMOKE_SEED,
        seconds: 1,
        trace,
    };
    let root = state_root(workload.name());
    let out = run(&args, Size::Smoke, &root);
    let _ = std::fs::remove_dir_all(&root);
    // the shared parent goes once the last test using it has finished
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    out
}

fn names_in(section: &str) -> Vec<String> {
    section
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

/// The `name`s listed under each top-level key of `BENCHMARK.json`.
fn benchmark_json_names() -> (Vec<String>, Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let at = |key: &str| {
        text.find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} key"))
    };
    let mut keys = [at("workloads"), at("end_to_end"), at("per_layer"), text.len()];
    keys[..3].sort_unstable();
    let section = |key: &str| {
        let start = at(key);
        let end = keys.iter().copied().find(|&k| k > start).unwrap_or(text.len());
        names_in(&text[start..end])
    };
    (section("workloads"), section("end_to_end"), section("per_layer"))
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_pinned_well_formed_and_listed_in_benchmark_json() {
    let e2e: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.0).collect();
    let layers: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.0).collect();
    let all: Vec<&str> = e2e.iter().chain(&layers).copied().collect();
    assert_eq!(
        all.iter().collect::<HashSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    for name in &all {
        assert!(well_formed(name), "{name} breaks the [A-Za-z0-9_.-] charset");
        let unit = metrics::unit_of(name);
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{name} has a malformed unit {unit}"
        );
    }
    for (_, name) in metrics::DISPATCH_DOMAINS {
        assert!(layers.contains(&name), "{name} is not a per-layer metric");
    }
    let (workloads, json_e2e, json_layers) = benchmark_json_names();
    assert!(workloads.len() >= 2);
    for w in &workloads {
        assert!(
            Workload::parse(w).is_some(),
            "BENCHMARK.json names an unknown workload {w}"
        );
    }
    assert_eq!(json_e2e, e2e);
    assert_eq!(json_layers, layers);
}

#[test]
fn replays_reconcile_with_the_run_counters() {
    let mut sims = workload::paper_lifetime(SMOKE_SEED, Size::Smoke);
    sims.extend(workload::dense_scale(SMOKE_SEED, Size::Smoke));
    for sim in &sims {
        let mut out = Outcome::default();
        let l = layers::trace_sim(sim, &mut out);
        assert_eq!(out.failures, Vec::<String>::new(), "{}", sim.label());
        // the same reconciliations trace_sim gates on, asserted directly
        assert!(l.tx_replayed > 0, "{}: nothing transmitted", sim.label());
        assert_eq!(l.tx_replayed, l.stats.tx_started, "{}", sim.label());
        assert!(l.crossings_replayed > 0, "{}: nobody crossed a cell", sim.label());
        assert_eq!(l.crossings_replayed, l.stats.cell_crossings, "{}", sim.label());
        assert_eq!(l.mode_changes > 0, l.trace_events > 0);
    }
}

#[test]
fn the_recorded_stream_redigests_to_the_run_digest() {
    let sim = &workload::paper_lifetime(SMOKE_SEED, Size::Smoke)[0];
    let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink_events = events.clone();
    let sink: manet::trace::EventSink = std::sync::Arc::new(move |ev: &manet::Event| {
        sink_events.lock().expect("sink lock").push(*ev);
    });
    let r = sim.run_streamed(RunOptions::digest(), sink);
    let mut rec = manet::Recorder::new(manet::TraceMode::DigestOnly);
    for ev in events.lock().expect("sink lock").iter() {
        rec.record(*ev);
    }
    assert_eq!(Some(rec.digest()), r.trace_digest);
}

#[test]
fn the_output_gate_flags_any_changed_output() {
    let sim = &workload::paper_lifetime(SMOKE_SEED, Size::Smoke)[0];
    let got = Outputs::of(&sim.run(RunOptions::digest()));
    let mut out = Outcome::default();
    pins::check(Some(&got), &sim.label(), got, Some(got), &mut out);
    assert_eq!(out.failed, 0);
    let moved = Outputs {
        digest: got.digest.map(|d| d ^ 1),
        ..got
    };
    pins::check(Some(&got), &sim.label(), moved, None, &mut out);
    pins::check(None, &sim.label(), moved, Some(got), &mut out);
    assert_eq!(out.failed, 2);
}

fn assert_smoke(w: Workload, trace: bool) {
    let out = smoke(w, trace);
    assert_eq!(out.failures, Vec::<String>::new(), "{} trace={trace}", w.name());
    assert!(out.attempted > 0);
    let want: Vec<&str> = if trace {
        metrics::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.0).collect()
    };
    let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, want);
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
        if !trace {
            assert!(
                m.value > 0.0 && m.samples > 0,
                "{} = {} from {} samples",
                m.name,
                m.value,
                m.samples
            );
        }
    }
}

#[test]
fn paper_lifetime_smoke() {
    assert_smoke(Workload::PaperLifetime, false);
    assert_smoke(Workload::PaperLifetime, true);
}

#[test]
fn dense_scale_smoke() {
    assert_smoke(Workload::DenseScale, false);
    assert_smoke(Workload::DenseScale, true);
}

#[test]
fn sweep_service_smoke() {
    assert_smoke(Workload::SweepService, false);
    let traced = smoke(Workload::SweepService, true);
    assert_eq!(traced.failures, Vec::<String>::new());
    // every fourth submission repeats a finished job: the journal answers
    let hits = traced
        .metrics
        .iter()
        .find(|m| m.name == "service.journal_hit_frac");
    assert_eq!(hits.map(|m| m.value), Some(0.25));
}

#[test]
fn arguments_are_checked() {
    let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let ok = parse_args(&argv("--workload dense_scale --seed 3 --seconds 10 --trace 1")).expect("valid");
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (Workload::DenseScale, 3, 10, true)
    );
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 1",
        "--workload dense_scale --seed x --seconds 10 --trace 1",
        "--workload dense_scale --seed 3 --seconds 0 --trace 1",
        "--workload dense_scale --seed 3 --seconds 10 --trace 2",
        "--workload dense_scale --seed 3 --seconds 10",
        "--workload dense_scale --seed 3 --seconds 10 --trace 1 --extra 1",
        "--workload",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad} was accepted");
    }
}
