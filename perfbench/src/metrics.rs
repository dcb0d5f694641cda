//! Every metric the benchmark reports, with its unit.  The lists are the
//! contract with `BENCHMARK.json`: the tests pin them, so a rename is
//! always deliberate.

/// Reported on every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
];

/// The scheduler domains `Recorder::profile()` counts on a fault-free run.
pub const DISPATCH_DOMAINS: [(&str, &str); 8] = [
    ("mac_try_tx", "manet.dispatch.mac_try_tx"),
    ("tx_end", "manet.dispatch.tx_end"),
    ("ack_done", "manet.dispatch.ack_done"),
    ("timer", "manet.dispatch.timer"),
    ("page", "manet.dispatch.page"),
    ("cell_crossing", "manet.dispatch.cell_crossing"),
    ("app_send", "manet.dispatch.app_send"),
    ("sample", "manet.dispatch.sample"),
];

/// Reported on every workload with `--trace 1`.  A layer a workload does
/// not exercise reports 0 (see README.md).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("scenario.parse_s", "s"),
    ("mobility.build_trace_s", "s"),
    ("mobility.crossing_replay_s", "s"),
    ("mobility.cell_crossings", "count"),
    ("radio.gather_replay_s", "s"),
    ("radio.carrier_sense_replay_s", "s"),
    ("radio.channel_replay_s", "s"),
    ("radio.tx_started", "count"),
    ("radio.frames_delivered", "count"),
    ("radio.corrupted", "count"),
    ("radio.rx_useful_frac", "frac"),
    ("radio.pages_sent", "count"),
    ("radio.pages_woken", "count"),
    ("energy.mode_changes", "count"),
    ("energy.deaths", "count"),
    ("energy.meter_replay_s", "s"),
    ("trace.events", "count"),
    ("trace.record_replay_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("sim_engine.events", "count"),
    ("sim_engine.events_per_s", "1/s"),
    ("sim_engine.max_queue_depth", "count"),
    ("sim_engine.sched_replay_s", "s"),
    ("manet.run_s", "s"),
    ("manet.dispatch.mac_try_tx", "count"),
    ("manet.dispatch.tx_end", "count"),
    ("manet.dispatch.ack_done", "count"),
    ("manet.dispatch.timer", "count"),
    ("manet.dispatch.page", "count"),
    ("manet.dispatch.cell_crossing", "count"),
    ("manet.dispatch.app_send", "count"),
    ("manet.dispatch.sample", "count"),
    ("manet.timers_fired", "count"),
    ("manet.replay_coverage", "frac"),
    ("manet.unattributed_s", "s"),
    ("ecgrid.wall_s", "s"),
    ("grid_routing.wall_s", "s"),
    ("gaf.wall_s", "s"),
    ("runner.job_sim_ms", "ms"),
    ("service.submit_rtt_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.frames_delivered", "count"),
    ("service.frames_dropped", "count"),
    ("service.drop_frac", "frac"),
    ("service.journal_hit_frac", "frac"),
    ("service.shed", "count"),
];

/// Unit of a metric name from either list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the pinned lists"))
}
