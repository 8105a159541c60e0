//! The five workloads. Each takes the run's configuration, generates its
//! inputs from the seed, measures, checks outputs against references, and
//! reports what it measured.

pub mod allreduce;
pub mod engine_step;
pub mod serve_mixed;
pub mod virtual_p8;

use crate::harness::{RunCfg, Tally};
use crate::metrics::{
    Measured, Outcome, AR_BANDWIDTH, AR_LATENCY, AR_VIRTUAL_P8, ENGINE_STEP, SERVE_MIXED,
};
use crate::trace::Lane;

/// One run of one workload.
pub struct Report {
    pub outcome: Outcome,
    /// Bench-owned spans, one lane per load thread (traced runs).
    pub lanes: Vec<Lane>,
    /// Lines for the human reader: what Auto picked, quartiles, the
    /// first failure.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(
        tally: Tally,
        metrics: Measured,
        lanes: Vec<Lane>,
        mut notes: Vec<String>,
    ) -> Report {
        if let Some(why) = &tally.first_failure {
            notes.push(format!("first failure: {why}"));
        }
        Report {
            outcome: Outcome {
                attempted: tally.attempted,
                failed: tally.failed,
                metrics,
            },
            lanes,
            notes,
        }
    }
}

pub fn run(name: &str, cfg: &RunCfg) -> Option<Report> {
    Some(match name {
        AR_LATENCY => allreduce::run(&allreduce::LATENCY, cfg),
        AR_BANDWIDTH => allreduce::run(&allreduce::BANDWIDTH, cfg),
        ENGINE_STEP => engine_step::run(cfg),
        SERVE_MIXED => serve_mixed::run(cfg),
        AR_VIRTUAL_P8 => virtual_p8::run(cfg),
        _ => return None,
    })
}
