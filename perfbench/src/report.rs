//! Named metrics and the outcome of one workload run.

use crate::stats::Summary;

/// One reported number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Spread, sample count or provenance shown next to the value.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// `peak_rss_mb`, read when a workload's timed iterations end: the
    /// untimed checks that follow them (a functional session, a baseline
    /// replay, a side sweep) do not count.
    pub fn peak_rss() -> Self {
        Self::new("peak_rss_mb", crate::sys::peak_rss_mb(), "MB")
            .note("VmHWM when the timed iterations end")
    }

    /// Notes the minimum, quartiles and size of the sample the value came
    /// from.
    pub fn spread(self, s: &Summary) -> Self {
        let note = format!(
            "min {:.6}, p25 {:.6}, p75 {:.6}, n {}",
            s.min, s.p25, s.p75, s.n
        );
        self.note(note)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The end-to-end metrics of `BENCHMARK.json`, measured untraced.
    pub end_to_end: Vec<Metric>,
    /// Printed beside them but not gated: host throughput (wall clock,
    /// which hypervisor steal on a shared host makes too unsteady to
    /// gate), modeled (virtual-clock) results and the failure share.
    pub info: Vec<Metric>,
    /// The per-layer metrics of `BENCHMARK.json` (traced run only).
    pub per_layer: Vec<Metric>,
    /// Estimated self time (ms) of work that no span can isolate from
    /// outside the program, as `(row, ms, parent group it is carved from)`.
    pub derived_self_ms: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Records `ops` checked operations that passed (`ok`) or failed.
    pub fn check(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}
