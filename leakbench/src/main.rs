//! End-to-end and per-layer benchmark of the leakage pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path leakbench/Cargo.toml -- \
//!     --workload <paper-cold|paper-warm|attack-sweep|verify-repair> \
//!     --seed <n> --seconds <s> --trace <0|1> [--workers <n>]
//! ```
//!
//! One process runs one workload in a closed loop with one executor
//! worker: it sets up [`report::SETUPS`] times, then times whole passes
//! for `--seconds`, checks every pass against oracles that do not share
//! code with the layer under test, and prints an environment stamp and
//! then one JSON line: `correct`, `attempted`, `failed` and the metrics.
//! `--trace 0` prints the end-to-end metrics (`sweep_s`, `setup_s`,
//! `peak_rss_mb`); `--trace 1` also splits the same cells into timed
//! calls to each layer's public functions and prints the per-layer
//! metrics instead. Every artifact goes to a private directory under
//! `leakbench/.scratch/`, removed on exit. See `leakbench/README.md`.

mod attack;
mod layers;
mod oracle;
mod paper;
mod report;
mod verify;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use acquisition::ProtocolConfig;
use campaign::{Backend, CacheMode, CampaignConfig, FaultPlan};

use report::{median, Metric};

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 4] = ["paper-cold", "paper-warm", "attack-sweep", "verify-repair"];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
    /// Private scratch directory of this process.
    pub scratch: PathBuf,
    /// Repository root (fixtures live under it).
    pub root: PathBuf,
}

impl Ctx {
    /// A seed derived from `--seed` for one purpose (splitmix64 of the
    /// pair), so inputs differ across seeds and repeat for the same one.
    pub fn derived(&self, purpose: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The paper protocol (64 traces per class, 100 samples) under this
    /// run's seed.
    pub fn protocol(&self) -> ProtocolConfig {
        ProtocolConfig {
            seed: self.derived(1),
            ..ProtocolConfig::default()
        }
    }

    /// A campaign on the bit-sliced backend with this run's workers,
    /// no injected faults, and its store and run log under `store_dir`.
    pub fn campaign_config(&self, store_dir: &Path, cache: CacheMode) -> CampaignConfig {
        CampaignConfig {
            protocol: self.protocol(),
            workers: self.workers,
            cache,
            store_dir: store_dir.to_path_buf(),
            log_path: store_dir.join("campaign_runs.jsonl"),
            faults: FaultPlan::none(),
            backend: Backend::Bitsliced,
            ..CampaignConfig::default()
        }
    }
}

/// Removes the scratch directory however the process ends, and its
/// parent once no other run is using it.
struct ScratchGuard(PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut workers = 1usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--workers" => {
                workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
                if !(1..=64).contains(&workers) {
                    return Err("--workers must be between 1 and 64".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        workers,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("leakbench: {e}");
            eprintln!(
                "usage: leakbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--workers <n>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let scratch = manifest.join(".scratch").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("leakbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let _guard = ScratchGuard(scratch.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workers: args.workers,
        scratch,
        root,
    };

    let run = match args.workload.as_str() {
        "paper-cold" => paper::cold(&ctx),
        "paper-warm" => paper::warm(&ctx),
        "attack-sweep" => attack::sweep(&ctx),
        _ => verify::verify_repair(&ctx),
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("leakbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let sweep_s = median(&run.passes);
    let metrics = if ctx.trace {
        let mut layers = run.layers.clone();
        let traced = median(&run.traced_passes);
        layers.push(Metric {
            name: "trace.sweep_s",
            unit: "s",
            value: traced,
        });
        layers.push(Metric {
            name: "trace.overhead_s",
            unit: "s",
            value: traced - sweep_s,
        });
        layers
    } else {
        vec![
            Metric {
                name: "sweep_s",
                unit: "s",
                value: sweep_s,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&run.setups),
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MiB",
                value: report::peak_rss_mb(),
            },
        ]
    };

    println!(
        "leakbench env: workload={} seed={} {} workers={} backend={} passes={} traced_passes={} setups={}",
        args.workload,
        args.seed,
        report::environment(&ctx.root),
        ctx.workers,
        if run.backend.is_empty() {
            "none"
        } else {
            &run.backend
        },
        run.passes.len(),
        run.traced_passes.len(),
        run.setups.len(),
    );
    eprintln!(
        "leakbench passes: {:?} traced: {:?} setups: {:?}",
        run.passes, run.traced_passes, run.setups
    );
    for m in &metrics {
        eprintln!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_json(
            run.global_failures.is_empty(),
            run.attempted,
            run.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
