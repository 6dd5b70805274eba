//! Run bookkeeping shared by every workload: operation accounting, pass
//! timing, the environment stamp and the final JSON line.

use std::time::Instant;

/// Passes every run makes at least, however short `--seconds` is, so a
/// median always has company.
pub const MIN_PASSES: usize = 3;

/// Set-ups every run makes; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted and failed (see the README for what one
    /// operation is on each workload).
    pub attempted: u64,
    pub failed: u64,
    /// Checks that no single operation owns; any entry makes the run
    /// incorrect.
    pub global_failures: Vec<String>,
    /// Wall time of each untraced pass.
    pub passes: Vec<f64>,
    /// Wall time of each traced pass (trace mode only).
    pub traced_passes: Vec<f64>,
    /// Wall time of each set-up.
    pub setups: Vec<f64>,
    /// Per-layer metrics (trace mode only), in print order.
    pub layers: Vec<Metric>,
    /// The capture engine the campaign resolved, from `RunReport.backend`.
    pub backend: String,
    /// Failure messages already printed.
    reported: std::collections::BTreeSet<String>,
}

impl Run {
    /// Account one pass's worth of operations; `failures` holds a
    /// message per failed operation.
    pub fn account(&mut self, attempted: usize, failures: Vec<String>) {
        self.attempted += attempted as u64;
        self.failed += failures.len() as u64;
        for f in failures {
            if self.reported.insert(f.clone()) {
                eprintln!("leakbench: operation failed: {f}");
            }
        }
    }

    /// Record a check that belongs to no single operation.
    pub fn global(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("leakbench: check failed: {msg}");
            self.global_failures.push(msg);
        }
    }

    /// Record the resolved backend of one campaign report.
    pub fn saw_backend(&mut self, backend: &str) {
        if self.backend.is_empty() {
            self.backend = backend.to_string();
        } else if self.backend != backend && self.backend != "mixed" {
            self.backend = "mixed".to_string();
        }
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layers.push(Metric { name, unit, value });
    }
}

/// Run `setup` [`SETUPS`] times, keep the last result, and record each
/// duration in `run.setups`.
pub fn repeat_setup<T>(run: &mut Run, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let state = setup();
        run.setups.push(start.elapsed().as_secs_f64());
        // Drop the previous set-up's state only after timing this one.
        last = Some(state);
    }
    last.expect("SETUPS > 0")
}

/// Drive whole passes until `seconds` have elapsed (and at least
/// [`MIN_PASSES`]). `pass(index, traced)` runs one pass, checks it, and
/// returns the wall time of its timed part. In trace mode every second
/// pass is traced, so the traced and untraced medians come from the
/// same process.
pub fn drive_passes(
    run: &mut Run,
    seconds: f64,
    trace: bool,
    mut pass: impl FnMut(&mut Run, usize, bool) -> f64,
) {
    let start = Instant::now();
    let mut index = 0;
    while index < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && index % 2 == 1;
        let elapsed = pass(run, index, traced);
        if traced {
            run.traced_passes.push(elapsed);
        } else {
            run.passes.push(elapsed);
        }
        index += 1;
    }
    if trace && run.traced_passes.is_empty() {
        let elapsed = pass(run, index, true);
        run.traced_passes.push(elapsed);
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host CPU model, core count, compiler and revision, for the stamp
/// line every run prints before its result.
pub fn environment(repo_root: &std::path::Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "cpu={cpu:?} nproc={nproc} rustc={rustc:?} rev={}",
        git_revision(repo_root)
    )
}

/// The checked-out commit, read from `.git` without running git (a
/// source export has no `.git` and reads `unknown`).
fn git_revision(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().chars().take(12).collect();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.chars().take(12).collect())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(
            true,
            7,
            0,
            &[Metric {
                name: "sweep_s",
                unit: "s",
                value: 1.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"sweep_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
