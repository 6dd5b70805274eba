//! Per-layer figures of one workload, gathered by the traced run.
//!
//! Times come from the benchmark's own timers around calls to each
//! layer's public functions (spans inside the program are not there
//! yet); the campaign stage times and counters come from the program's
//! own `RunReport`s. A layer the workload never calls reads 0.

use std::time::{Duration, Instant};

use campaign::RunReport;

use crate::report::{ratio, Run};

/// The campaign stages summed from `RunReport.stages`.
pub const STAGES: [&str; 5] = ["load", "age", "acquire", "analyze", "store"];

/// Per-pass totals of one workload's layers.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub build: Duration,
    pub aging: Duration,
    pub aging_profiles: usize,
    pub capture: Duration,
    pub capture_traces: usize,
    pub capture_batches: usize,
    pub events: usize,
    pub spectrum_fold: Duration,
    pub spectrum_fold_traces: usize,
    pub batch_spectrum: Duration,
    pub batch_spectrum_cells: usize,
    /// Self time of the spectrum a streamed fold finishes with (used
    /// only to attribute the analyze stage).
    pub stream_spectrum: Duration,
    /// CPA, DPA, MLPA, in that order.
    pub attack_fold: [Duration; 3],
    pub attack_fold_traces: usize,
    pub merge: Duration,
    pub merge_chunks: usize,
    pub score: Duration,
    pub score_calls: usize,
    /// Per-pass stage seconds, in [`STAGES`] order.
    pub stages: [f64; 5],
    pub store_write: Duration,
    pub store_write_traces: usize,
    pub checkpoint: Duration,
    pub checkpoint_syncs: usize,
    pub store_read: Duration,
    pub store_read_traces: usize,
    pub retried: usize,
    pub quarantined: usize,
    pub healed: usize,
    pub import: Duration,
    pub analyze: Duration,
    pub analyze_aes: Duration,
    pub reanalyze: Duration,
    pub dirty_gates: usize,
    pub total_gates: usize,
    pub search: Duration,
    pub candidates: usize,
    pub accepted: usize,
    pub confirm: Duration,
}

/// Run `f`, adding its wall time to `slot`.
pub fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us_per(d: Duration, n: usize) -> f64 {
    ratio(d.as_secs_f64() * 1e6, n as f64)
}

impl Layers {
    /// Add one pass's campaign reports: stage seconds and the retry,
    /// quarantine and heal counters.
    pub fn add_reports(&mut self, reports: &[RunReport]) {
        for r in reports {
            for (slot, name) in self.stages.iter_mut().zip(STAGES) {
                *slot += r.stage_seconds(name);
            }
            self.retried += r.retried;
            self.quarantined += r.quarantined;
            self.healed += r.healed;
        }
    }

    /// Self time the layer split measured inside the campaign's load,
    /// acquire and analyze stages.
    fn layer_self_time(&self) -> f64 {
        let attack: Duration = self.attack_fold.iter().sum();
        (self.capture
            + self.checkpoint
            + self.store_read
            + self.spectrum_fold
            + self.batch_spectrum
            + self.stream_spectrum
            + attack
            + self.merge
            + self.score)
            .as_secs_f64()
    }

    /// Push every per-layer metric, in the order `BENCHMARK.json` lists
    /// them. `stages` must already hold one pass's stage seconds.
    pub fn emit(&self, run: &mut Run) {
        let [load, age, acquire, analyze, store] = self.stages;
        run.layer("sboxes.build_ms", "ms", ms(self.build));
        run.layer("aging.profile_ms", "ms", ms(self.aging));
        run.layer("aging.profiles", "count", self.aging_profiles as f64);
        run.layer(
            "gatesim.capture_us_per_trace",
            "us/trace",
            us_per(self.capture, self.capture_traces),
        );
        run.layer("gatesim.events", "count", self.events as f64);
        run.layer(
            "gatesim.lane_utilization",
            "ratio",
            ratio(
                self.capture_traces as f64,
                (self.capture_batches * gatesim::LANES) as f64,
            ),
        );
        run.layer(
            "core.spectrum_fold_us_per_trace",
            "us/trace",
            us_per(self.spectrum_fold, self.spectrum_fold_traces),
        );
        run.layer(
            "core.batch_spectrum_ms",
            "ms",
            ratio(ms(self.batch_spectrum), self.batch_spectrum_cells as f64),
        );
        for (d, name) in [
            "attacks.fold_us_per_trace.cpa",
            "attacks.fold_us_per_trace.dpa",
            "attacks.fold_us_per_trace.mlpa",
        ]
        .into_iter()
        .enumerate()
        {
            run.layer(
                name,
                "us/trace",
                us_per(self.attack_fold[d], self.attack_fold_traces),
            );
        }
        run.layer(
            "attacks.merge_us_per_chunk",
            "us/chunk",
            us_per(self.merge, self.merge_chunks),
        );
        run.layer("attacks.score_ms", "ms", ms(self.score));
        run.layer("attacks.score_calls", "count", self.score_calls as f64);
        run.layer("campaign.stage.load_s", "s", load);
        run.layer("campaign.stage.age_s", "s", age);
        run.layer("campaign.stage.acquire_s", "s", acquire);
        run.layer("campaign.stage.analyze_s", "s", analyze);
        run.layer("campaign.stage.store_s", "s", store);
        let in_stages = load + acquire + analyze;
        run.layer(
            "campaign.overhead_s",
            "s",
            if in_stages > 0.0 {
                in_stages - self.layer_self_time()
            } else {
                0.0
            },
        );
        run.layer(
            "campaign.store_write_us_per_trace",
            "us/trace",
            us_per(self.store_write, self.store_write_traces),
        );
        run.layer(
            "campaign.checkpoint_syncs",
            "count",
            self.checkpoint_syncs as f64,
        );
        run.layer("campaign.checkpoint_ms", "ms", ms(self.checkpoint));
        run.layer(
            "campaign.store_read_us_per_trace",
            "us/trace",
            us_per(self.store_read, self.store_read_traces),
        );
        run.layer("campaign.retried", "count", self.retried as f64);
        run.layer("campaign.quarantined", "count", self.quarantined as f64);
        run.layer("campaign.healed", "count", self.healed as f64);
        run.layer("frontend.import_ms", "ms", ms(self.import));
        run.layer("verify.analyze_ms", "ms", ms(self.analyze));
        run.layer("verify.analyze_ms.aes-sbox", "ms", ms(self.analyze_aes));
        run.layer("verify.reanalyze_ms", "ms", ms(self.reanalyze));
        run.layer(
            "verify.dirty_stat_ratio",
            "ratio",
            ratio(self.dirty_gates as f64, self.total_gates as f64),
        );
        run.layer("repair.search_ms", "ms", ms(self.search));
        run.layer("repair.candidates", "count", self.candidates as f64);
        run.layer(
            "repair.accept_ratio",
            "ratio",
            ratio(self.accepted as f64, self.candidates as f64),
        );
        run.layer("repair.confirm_ms", "ms", ms(self.confirm));
    }
}

/// Per-pass campaign figures: the median over `passes` of each stage,
/// and the counters summed over every pass (they should all read 0).
pub fn stage_medians(per_pass: &[Layers]) -> Layers {
    let mut out = Layers::default();
    for (i, slot) in out.stages.iter_mut().enumerate() {
        let values: Vec<f64> = per_pass.iter().map(|l| l.stages[i]).collect();
        if !values.is_empty() {
            *slot = crate::report::median(&values);
        }
    }
    for l in per_pass {
        out.retried += l.retried;
        out.quarantined += l.quarantined;
        out.healed += l.healed;
    }
    out
}

/// One span the benchmark recorded around a call into the program.
#[derive(Debug)]
struct Span {
    name: String,
    start: Duration,
    end: Duration,
}

/// In-memory spans of the traced passes, summarised by name on stderr
/// when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name` when `on`, else just run it.
    pub fn span<T>(&mut self, on: bool, name: impl FnOnce() -> String, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name: name(),
            start,
            end,
        });
        out
    }

    /// Print total time and count per span name.
    pub fn summarize(&self) {
        let mut by_name: std::collections::BTreeMap<&str, (usize, f64)> = Default::default();
        for s in &self.spans {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).as_secs_f64();
        }
        eprintln!("leakbench trace: {} span(s)", self.spans.len());
        for (name, (count, seconds)) in by_name {
            eprintln!("  span {name:<28} x{count:<4} {seconds:>10.6} s");
        }
    }
}
