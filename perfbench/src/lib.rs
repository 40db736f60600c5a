//! Closed-loop benchmark of the `wdm serve` daemon.
//!
//! One run spawns the real `wdm serve` binary on an instance generated
//! from the seed, drives a named traffic mix over loopback TCP, checks
//! the replies, and reports client-observed metrics. A traced run
//! replays the same frames in-process to split the round trip by layer
//! (`wdm-serve` → `wdm-rwa` → `wdm-core`). See [`workload`] for the
//! traffic mixes and what each is predicted to show.

pub mod alloc;
pub mod check;
pub mod client;
pub mod layers;
pub mod summary;
pub mod workload;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric named as in `BENCHMARK.json`.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}
