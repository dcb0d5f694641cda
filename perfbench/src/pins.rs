//! The output gate: what every simulation job must produce.  For the
//! default seed the outputs are pinned here; for any other seed every
//! run of a job must agree with its first run.

use crate::report::Outcome;
use crate::workload::{Size, Workload};
use runner::ScenarioResult;

/// The seed whose outputs are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// The simulated outputs a job is judged by.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Outputs {
    pub digest: Option<u64>,
    pub pdr: Option<f64>,
    /// Alive fraction at the end of the run.
    pub alive: Option<f64>,
    /// When the alive fraction first reached zero.
    pub death_s: Option<f64>,
}

impl Outputs {
    pub fn of(r: &ScenarioResult) -> Outputs {
        Outputs {
            digest: r.trace_digest.map(|d| d.0),
            pdr: r.pdr,
            alive: r.alive.last_value(),
            death_s: r.network_death_s,
        }
    }
}

/// Pinned outputs of the full-size default seed, per workload, in job
/// order (empty for every other seed and size).
pub fn pinned(workload: Workload, seed: u64, size: Size) -> &'static [Outputs] {
    if seed != DEFAULT_SEED || size != Size::Full {
        return &[];
    }
    match workload {
        Workload::PaperLifetime => &PAPER_LIFETIME,
        Workload::DenseScale => &DENSE_SCALE,
        Workload::SweepService => &[],
    }
}

const PAPER_LIFETIME: [Outputs; 3] = [
    // ECGRID
    Outputs {
        digest: Some(0xe92c7e31e19aefc7),
        pdr: Some(0.985273492286115),
        alive: Some(0.0),
        death_s: Some(1200.0),
    },
    // GRID
    Outputs {
        digest: Some(0xf70de439e7f6ae60),
        pdr: Some(0.986103781882146),
        alive: Some(0.0),
        death_s: Some(580.0),
    },
    // GAF
    Outputs {
        digest: Some(0xfd8c1ec7ccd01a36),
        pdr: Some(0.5804511278195489),
        alive: Some(0.0),
        death_s: Some(1280.0),
    },
];

const DENSE_SCALE: [Outputs; 1] = [Outputs {
    digest: Some(0xa5b0dfeae787724b),
    pdr: Some(0.7833333333333333),
    alive: Some(1.0),
    death_s: None,
}];

/// Digest over the in-process digests of every `sweep_service` job, in
/// submission order, for the default seed.
pub const SWEEP_SERVICE_JOBS_DIGEST: u64 = 0x0f6b177a4fc4eaf6;

/// Judge one run of a job: against its pinned outputs, if any, and
/// against `first` (the job's first run in this invocation), if any.
pub fn check(pinned: Option<&Outputs>, label: &str, got: Outputs, first: Option<Outputs>, out: &mut Outcome) {
    if let Some(want) = pinned {
        if got != *want {
            out.fail(format!(
                "{label}: outputs {got:?} differ from the pinned {want:?}"
            ));
            return;
        }
    }
    if let Some(first) = first {
        if got != first {
            out.fail(format!(
                "{label}: outputs {got:?} differ from this invocation's first run {first:?}"
            ));
        }
    }
}
