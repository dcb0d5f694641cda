//! The three workloads: what each one runs, at full size and at the
//! smoke size the benchmark's own tests use.  Every input is a pure
//! function of the workload seed.

use manet::{Battery, EnergyMeter, GridMap, MacConfig, PowerProfile, SimTime, WorldConfig};
use mobility::{MobilityModel, MobilityTrace, RandomWaypoint, Stationary};
use runner::{run_scenario_with, run_spec, ProtocolKind, RunOptions, Scenario, ScenarioResult};
use scenario::{MobilitySpec, ScenarioSpec};
use service::JobSpec;
use sim_engine::{derive_seed, RngFactory, SimDuration};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperLifetime,
    DenseScale,
    SweepService,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperLifetime,
        Workload::DenseScale,
        Workload::SweepService,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLifetime => "paper_lifetime",
            Workload::DenseScale => "dense_scale",
            Workload::SweepService => "sweep_service",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// `Full` is what the benchmark measures; `Smoke` is a scaled-down copy
/// of the same shape for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// The paper's three protocols, in the order every workload runs them.
pub const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::Ecgrid, ProtocolKind::Grid, ProtocolKind::Gaf];

/// One simulation job: a call into the runner's entry points.
#[derive(Clone, Debug)]
pub enum Sim {
    /// The paper's homogeneous square (`runner::run_scenario_*`).
    Classic(Scenario),
    /// A `.scn` text, parsed inside the job (`scenario::parse` +
    /// `runner::run_spec_*`).
    Spec { text: String, protocol: ProtocolKind },
}

/// The paper's §4 environment: 100 hosts on 1000 m × 1000 m, random
/// waypoint at ≤ 1 m/s with no pause, 10 CBR flows of 1 pkt/s × 512 B,
/// 2000 s; GAF adds 10 Model-1 endpoints.
pub fn paper_lifetime(seed: u64, size: Size) -> Vec<Sim> {
    let (n_hosts, n_flows, duration_secs) = match size {
        Size::Full => (100, 10, 2000.0),
        Size::Smoke => (30, 3, 120.0),
    };
    PROTOCOLS
        .into_iter()
        .map(|protocol| {
            Sim::Classic(Scenario {
                protocol,
                n_hosts,
                max_speed: 1.0,
                pause_secs: 0.0,
                n_flows,
                flow_rate_pps: 1.0,
                duration_secs,
                seed,
                model1_endpoints: 10,
            })
        })
        .collect()
}

/// `examples/dense_square.scn` grown to 5000 hosts at the paper's
/// density of 100 hosts/km² (a 7071 m square), run under ECGRID.
pub fn dense_scale(seed: u64, size: Size) -> Vec<Sim> {
    let (walkers, side, duration) = match size {
        Size::Full => (4980, 7071, 20),
        Size::Smoke => (280, 1732, 5),
    };
    vec![Sim::Spec {
        text: dense_text(seed, walkers, side, duration),
        protocol: ProtocolKind::Ecgrid,
    }]
}

fn dense_text(seed: u64, walkers: usize, side: u32, duration_s: u32) -> String {
    format!(
        "[scenario]\n\
         name = \"dense-scale\"\n\
         field_w = {side}\n\
         field_h = {side}\n\
         cell_side = 100\n\
         duration_s = {duration_s}\n\
         seed = {seed}\n\
         \n\
         [[group]]\n\
         name = \"crowd\"\n\
         count = {walkers}\n\
         mobility = \"waypoint\"\n\
         max_speed = 1.5\n\
         pause_s = 5\n\
         battery_j = 500\n\
         battery_var = 0.2\n\
         \n\
         [[group]]\n\
         name = \"kiosks\"\n\
         count = 20\n\
         mobility = \"stationary\"\n\
         role = \"endpoint\"\n\
         \n\
         [traffic]\n\
         pattern = \"cbr\"\n\
         flows = 10\n\
         rate_pps = 1.0\n\
         packet_bytes = 256\n\
         start_s = 2\n"
    )
}

/// Closed-loop clients of `sweep_service`.
pub const SWEEP_CLIENTS: usize = 2;

/// Every `SWEEP_REPEAT_EVERY`-th submission of a client repeats its
/// previous (already finished) job, so the journal answers it.
pub const SWEEP_REPEAT_EVERY: usize = 4;

/// Per-client job lists of one `sweep_service` pass: 20-host jobs of
/// 60 s virtual with rotating protocols and fresh seeds.
pub fn sweep_jobs(seed: u64, size: Size) -> Vec<Vec<JobSpec>> {
    let (per_client, duration_secs) = match size {
        Size::Full => (60, 60.0),
        Size::Smoke => (4, 10.0),
    };
    (0..SWEEP_CLIENTS)
        .map(|c| {
            let mut jobs: Vec<JobSpec> = Vec::with_capacity(per_client);
            for j in 0..per_client {
                let spec = if is_repeat(j) {
                    jobs[j - 1].clone()
                } else {
                    JobSpec {
                        protocol: PROTOCOLS[(c + j) % PROTOCOLS.len()].name().to_lowercase(),
                        n_hosts: 20,
                        n_flows: 3,
                        duration_secs,
                        seed: derive_seed(seed, "perfbench.job", (c * 1000 + j) as u64),
                        ..JobSpec::default()
                    }
                };
                jobs.push(spec);
            }
            jobs
        })
        .collect()
}

/// Whether job `j` of a client list repeats its predecessor.
fn is_repeat(j: usize) -> bool {
    j % SWEEP_REPEAT_EVERY == SWEEP_REPEAT_EVERY - 1
}

/// The classic scenario a sweep job runs (the same mapping the
/// service's job handler applies).
pub fn job_scenario(spec: &JobSpec) -> Scenario {
    let protocol = PROTOCOLS
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(&spec.protocol))
        .expect("sweep jobs use the paper's protocols");
    Scenario {
        protocol,
        n_hosts: spec.n_hosts as usize,
        max_speed: spec.max_speed,
        pause_secs: spec.pause_secs,
        n_flows: spec.n_flows as usize,
        flow_rate_pps: spec.flow_rate_pps,
        duration_secs: spec.duration_secs,
        seed: spec.seed,
        model1_endpoints: spec.model1_endpoints as usize,
    }
}

/// What the replays need to know about a job's fleet, rebuilt by the
/// benchmark from the same seeds and streams the runner uses.
pub struct Fleet {
    pub grid: GridMap,
    pub mac: MacConfig,
    pub capture_ratio: Option<f64>,
    pub traces: Vec<MobilityTrace>,
    pub ranges: Vec<f64>,
    /// Fresh meters with each host's profile and nominal battery.
    pub meters: Vec<EnergyMeter>,
    pub end: SimTime,
}

impl Sim {
    pub fn protocol(&self) -> ProtocolKind {
        match self {
            Sim::Classic(sc) => sc.protocol,
            Sim::Spec { protocol, .. } => *protocol,
        }
    }

    pub fn label(&self) -> String {
        match self {
            Sim::Classic(sc) => format!("{} n={}", sc.protocol.name(), sc.n_hosts + endpoints(sc)),
            Sim::Spec { protocol, .. } => format!("{} scn", protocol.name()),
        }
    }

    /// Run to completion through the runner entry point users call.
    pub fn run(&self, opts: RunOptions) -> ScenarioResult {
        match self {
            Sim::Classic(sc) => run_scenario_with(sc, opts),
            Sim::Spec { text, protocol } => {
                let spec = scenario::parse(text).expect("the benchmark's scenario text parses");
                run_spec(&spec, *protocol, opts)
            }
        }
    }

    /// Run with a live event sink (the service's streaming entry point).
    pub fn run_streamed(&self, opts: RunOptions, sink: manet::trace::EventSink) -> ScenarioResult {
        match self {
            Sim::Classic(sc) => runner::run::run_scenario_streamed(sc, opts, None, sink),
            Sim::Spec { text, protocol } => {
                let spec = scenario::parse(text).expect("the benchmark's scenario text parses");
                runner::spec_run::run_spec_streamed(&spec, *protocol, opts, None, sink)
            }
        }
    }

    /// Build the fleet: mobility traces from the `("mobility", i)`
    /// streams, radio ranges, and energy meters.
    pub fn fleet(&self) -> Fleet {
        match self {
            Sim::Classic(sc) => classic_fleet(sc),
            Sim::Spec { text, .. } => {
                spec_fleet(&scenario::parse(text).expect("the benchmark's scenario text parses"))
            }
        }
    }
}

fn endpoints(sc: &Scenario) -> usize {
    match sc.protocol {
        ProtocolKind::Gaf | ProtocolKind::Span => sc.model1_endpoints,
        ProtocolKind::Grid | ProtocolKind::Ecgrid => 0,
    }
}

fn horizon(end: SimTime) -> SimTime {
    // the runner builds traces 10 s past the end of the run
    end + SimDuration::from_secs(10)
}

fn classic_fleet(sc: &Scenario) -> Fleet {
    let cfg = WorldConfig::paper_default(sc.seed);
    let end = SimTime::from_secs_f64(sc.duration_secs);
    let rngs = RngFactory::new(sc.seed);
    let model = RandomWaypoint::paper(sc.max_speed, sc.pause_secs);
    let total = sc.n_hosts + endpoints(sc);
    let traces: Vec<MobilityTrace> = (0..total)
        .map(|i| model.build_trace(&mut rngs.stream("mobility", i as u64), horizon(end)))
        .collect();
    let meters = (0..total)
        .map(|i| {
            let battery = if i < sc.n_hosts {
                Battery::paper_default()
            } else {
                Battery::infinite()
            };
            EnergyMeter::new(PowerProfile::paper_default(), battery)
        })
        .collect();
    Fleet {
        grid: cfg.grid,
        mac: cfg.mac,
        capture_ratio: cfg.capture_ratio,
        ranges: vec![cfg.range_m; total],
        traces,
        meters,
        end,
    }
}

fn spec_fleet(spec: &ScenarioSpec) -> Fleet {
    let cfg = WorldConfig::paper_default(spec.seed);
    let end = SimTime::from_secs_f64(spec.duration_s);
    let rngs = RngFactory::new(spec.seed);
    let (w, h) = (spec.field_w, spec.field_h);
    let mut fleet = Fleet {
        grid: GridMap::new(w, h, spec.cell_side),
        mac: cfg.mac,
        capture_ratio: cfg.capture_ratio,
        traces: Vec::with_capacity(spec.total_hosts()),
        ranges: Vec::with_capacity(spec.total_hosts()),
        meters: Vec::with_capacity(spec.total_hosts()),
        end,
    };
    for g in &spec.groups {
        for _ in 0..g.count {
            let rng = &mut rngs.stream("mobility", fleet.traces.len() as u64);
            let trace = match &g.mobility {
                MobilitySpec::Stationary => Stationary {
                    field_w: w,
                    field_h: h,
                }
                .build_trace(rng, horizon(end)),
                MobilitySpec::Waypoint { max_speed, pause_s } => RandomWaypoint {
                    field_w: w,
                    field_h: h,
                    max_speed: *max_speed,
                    min_speed: (0.01 * max_speed).max(1e-3),
                    pause_secs: *pause_s,
                }
                .build_trace(rng, horizon(end)),
                other => {
                    panic!("the benchmark's scenarios use waypoint and stationary groups, not {other:?}")
                }
            };
            let battery = g.battery_j.map_or_else(Battery::infinite, Battery::with_capacity);
            fleet.traces.push(trace);
            fleet.ranges.push(g.range_m);
            fleet
                .meters
                .push(EnergyMeter::new(PowerProfile::paper_default(), battery));
        }
    }
    fleet
}
