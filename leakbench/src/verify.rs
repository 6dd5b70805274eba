//! `verify-repair`: static analysis of the seven native schemes and two
//! imported netlists, then the TI and foreign-masked repair episodes
//! with their NICV confirmation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sbox_circuits::{InputRole, SboxCircuit, Scheme};
use sca_repair::{confirm, patch, repair, Confirmation, RepairOutcome, SearchConfig};
use sca_verify::{analyze_subject, report, Analysis, Baseline, Depth, Subject};

use crate::layers::{timed, Layers, Tracer};
use crate::oracle::{unshare, Encodings, WordEvaluator};
use crate::report::{drive_passes, median, repeat_setup, Run};
use crate::Ctx;

/// Traces per class of the NICV confirmation, as the `repair` binary
/// runs it.
const CONFIRM_TPC: usize = 32;

/// The `repair` binary's pinned confirmation seed, so confirmations here
/// reproduce the reports pinned under `tests/golden/repair/`.
const CONFIRM_SEED: u64 = 0xD0E5_11F7;

/// Everything set-up prepares: subjects to analyse (natives first, then
/// the AES S-box and the PRESENT layer) and the two repair subjects.
struct Subjects {
    analyzed: Vec<Subject>,
    ti: Subject,
    foreign: Subject,
    import: Duration,
}

fn fixture(ctx: &Ctx, name: &str) -> Result<String, String> {
    let path = ctx.root.join("tests/fixtures/frontend").join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

fn set_up(texts: &[String; 3]) -> Result<Subjects, String> {
    let mut import = Duration::ZERO;
    let mut designs = Vec::new();
    for text in texts {
        let design = timed(&mut import, || sca_frontend::import_auto(text))
            .map_err(|e| format!("import: {e}"))?;
        designs.push(design.netlist);
    }
    let [aes, layer, foreign]: [_; 3] = designs.try_into().expect("three fixtures");
    let mut analyzed: Vec<Subject> = Scheme::ALL
        .into_iter()
        .map(|s| Subject::of_circuit(&SboxCircuit::build(s)))
        .collect();
    let ti = analyzed[Scheme::ALL
        .iter()
        .position(|&s| s == Scheme::Ti)
        .expect("TI")]
    .clone();
    analyzed.push(Subject::unprotected("aes-sbox", aes)?);
    analyzed.push(Subject::unprotected("present-layer", layer)?);
    let share = |bit, share| InputRole::Share { bit, share };
    let foreign = Subject::with_roles(
        "foreign-masked",
        foreign,
        vec![share(0, 0), share(0, 1), share(1, 0), share(1, 1)],
        vec![vec![0, 1]],
    )?;
    Ok(Subjects {
        analyzed,
        ti,
        foreign,
        import,
    })
}

/// One pass's outputs.
struct Pass {
    analyses: Vec<Analysis>,
    episodes: Vec<(RepairOutcome, Option<Confirmation>)>,
}

impl Pass {
    /// Byte-stable renderings of every output, for pass-to-pass
    /// comparison.
    fn rendering(&self) -> Vec<String> {
        self.analyses
            .iter()
            .map(report::json)
            .chain(
                self.episodes
                    .iter()
                    .map(|(o, c)| sca_repair::report::json(o, c.as_ref())),
            )
            .collect()
    }
}

pub fn verify_repair(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let texts = [
        fixture(ctx, "aes_sbox.yosys.json")?,
        fixture(ctx, "present_layer.yosys.json")?,
        fixture(ctx, "foreign_masked.yosys.json")?,
    ];
    let mut imports = Vec::new();
    let subjects = repeat_setup(&mut run, || {
        let subjects = set_up(&texts);
        if let Ok(s) = &subjects {
            imports.push(s.import);
        }
        subjects
    })?;

    let mut tracer = Tracer::default();
    let mut traced_layers: Vec<Layers> = Vec::new();
    // The first pass's renderings and which of its operations failed.
    let mut first: Option<(Vec<String>, Vec<bool>)> = None;
    drive_passes(&mut run, ctx.seconds, ctx.trace, |run, _index, traced| {
        let mut layers = Layers::default();
        let start = Instant::now();
        let analyses: Vec<Analysis> = subjects
            .analyzed
            .iter()
            .map(|s| {
                let t = Instant::now();
                let a = tracer.span(
                    traced,
                    || format!("analyze {}", s.label()),
                    || analyze_subject(s),
                );
                if s.label() == "aes-sbox" {
                    layers.analyze_aes += t.elapsed();
                }
                layers.analyze += t.elapsed();
                a
            })
            .collect();
        let mut episodes = Vec::new();
        for base in [&subjects.ti, &subjects.foreign] {
            let outcome = timed(&mut layers.search, || {
                tracer.span(
                    traced,
                    || format!("repair {}", base.label()),
                    || repair(base, &SearchConfig::default()),
                )
            });
            let confirmation = if outcome.repaired && !outcome.steps.is_empty() {
                timed(&mut layers.confirm, || {
                    tracer.span(
                        traced,
                        || format!("confirm {}", base.label()),
                        || confirm(base, &outcome.subject, CONFIRM_TPC, CONFIRM_SEED),
                    )
                })
                .ok()
            } else {
                None
            };
            layers.candidates += outcome.candidates_tried;
            layers.accepted += outcome.steps.len();
            layers.dirty_gates += outcome.effort.dirty_gates;
            layers.total_gates += outcome.effort.total_gates;
            episodes.push((outcome, confirmation));
        }
        let elapsed = start.elapsed().as_secs_f64();

        let pass = Pass { analyses, episodes };
        let rendering = pass.rendering();
        let outputs = rendering.len();
        // The first pass goes through every oracle; later passes must
        // reproduce it byte for byte, and inherit its verdicts.
        let failed = match &first {
            None => {
                let failed = check_first_pass(&subjects, &pass);
                first = Some((rendering, failed.clone()));
                failed
            }
            Some((expected, first_failed)) => expected
                .iter()
                .zip(&rendering)
                .zip(first_failed)
                .map(|((a, b), &f)| f || a != b)
                .collect(),
        };
        let labels = subjects
            .analyzed
            .iter()
            .map(|s| format!("analyze {}", s.label()))
            .chain(["repair TI".to_string(), "repair foreign-masked".to_string()]);
        let failures = labels
            .zip(&failed)
            .filter(|(_, &f)| f)
            .map(|(l, _)| l)
            .collect();
        run.account(outputs, failures);
        if traced {
            traced_layers.push(layers);
        }
        elapsed
    });

    if ctx.trace {
        tracer.summarize();
        let mut layers = median_layers(&traced_layers);
        layers.import = Duration::from_secs_f64(median(
            &imports
                .iter()
                .map(Duration::as_secs_f64)
                .collect::<Vec<_>>(),
        ));
        for base in [&subjects.ti, &subjects.foreign] {
            let baseline = Baseline::new(base.clone());
            let generated = patch::generate(baseline.subject(), &baseline.base_analysis());
            for candidate in &generated.patches {
                timed(&mut layers.reanalyze, || {
                    black_box(baseline.reanalyze(&candidate.subject))
                });
            }
        }
        layers.emit(&mut run);
    }
    Ok(run)
}

/// The per-pass figures of the traced passes: medians of the times,
/// counts from the first (every pass repeats them exactly).
fn median_layers(passes: &[Layers]) -> Layers {
    let Some(first) = passes.first() else {
        return Layers::default();
    };
    let med = |f: fn(&Layers) -> Duration| {
        Duration::from_secs_f64(median(
            &passes
                .iter()
                .map(|l| f(l).as_secs_f64())
                .collect::<Vec<_>>(),
        ))
    };
    Layers {
        analyze: med(|l| l.analyze),
        analyze_aes: med(|l| l.analyze_aes),
        search: med(|l| l.search),
        confirm: med(|l| l.confirm),
        ..first.clone()
    }
}

/// Every oracle on the first pass: whether each operation (an analysis
/// or a repair episode, in rendering order) failed.
fn check_first_pass(subjects: &Subjects, pass: &Pass) -> Vec<bool> {
    let mut failed = Vec::new();
    for (subject, analysis) in subjects.analyzed.iter().zip(&pass.analyses) {
        let label = subject.label();
        let ok = match label {
            "aes-sbox" => {
                analysis.depth == Depth::Exhaustive && !analysis.verdicts.value_first_order
            }
            "present-layer" => analysis.depth == Depth::Structural,
            // Native schemes fit the exhaustive window, and an
            // unprotected table must leak its settled value.
            _ => {
                let unprotected = label == Scheme::Lut.label() || label == Scheme::Opt.label();
                analysis.depth == Depth::Exhaustive
                    && !(unprotected && analysis.verdicts.value_first_order)
            }
        };
        if !ok {
            eprintln!(
                "leakbench: {label}: depth {:?}, value_first_order {}",
                analysis.depth, analysis.verdicts.value_first_order
            );
        }
        failed.push(!ok);
    }
    for ((outcome, confirmation), base) in
        pass.episodes.iter().zip([&subjects.ti, &subjects.foreign])
    {
        let result = check_episode(base, outcome, confirmation.as_ref());
        if let Err(e) = &result {
            eprintln!("leakbench: repair {}: {e}", base.label());
        }
        failed.push(result.is_err());
    }
    failed
}

fn check_episode(
    base: &Subject,
    outcome: &RepairOutcome,
    confirmation: Option<&Confirmation>,
) -> Result<(), String> {
    let fin = &outcome.final_analysis;
    if !outcome.repaired || fin.error_count() > 0 {
        return Err(format!(
            "repaired={} with {} Error diagnostic(s)",
            outcome.repaired,
            fin.error_count()
        ));
    }
    if base.label() == Scheme::Ti.label() && !fin.verdicts.gx_boundary {
        return Err("repaired TI fails boundary composition".into());
    }
    if report::json(&analyze_subject(&outcome.subject)) != report::json(fin) {
        return Err("incremental final analysis differs from a from-scratch analysis".into());
    }
    check_function(base, &outcome.subject)?;
    match confirmation {
        Some(c) if c.repaired_nicv_max <= c.base_nicv_max => Ok(()),
        Some(c) => Err(format!(
            "repaired peak NICV {} exceeds base peak NICV {}",
            c.repaired_nicv_max, c.base_nicv_max
        )),
        None => Err("no NICV confirmation".into()),
    }
}

/// Over every (class, mask) encoding of the repaired netlist: repaired
/// TI computes the PRESENT S-box, and any other repaired subject
/// computes what its unrepaired base computes on the same base inputs.
fn check_function(base: &Subject, repaired: &Subject) -> Result<(), String> {
    let base_inputs = base.netlist().num_inputs();
    if repaired.roles().get(..base_inputs) != Some(base.roles())
        || repaired.output_groups() != base.output_groups()
    {
        return Err("repair changed the base's masking contract".into());
    }
    let encodings = Encodings::new(repaired.roles(), repaired.secret_bits())?;
    let eval_repaired = WordEvaluator::new(repaired.netlist())?;
    let eval_base = WordEvaluator::new(base.netlist())?;
    let is_ti = base.label() == Scheme::Ti.label();
    let mut first = 0u64;
    while first < encodings.patterns() {
        let words = encodings.words(first);
        let got = unshare(&eval_repaired.eval(&words), repaired.output_groups());
        let want: Vec<u64> = if is_ti {
            (0..got.len())
                .map(|bit| {
                    (0..64u64).fold(0u64, |w, lane| {
                        let class = encodings.class_of(first + lane) as usize;
                        w | (u64::from(present_cipher::SBOX[class % 16] >> bit & 1) << lane)
                    })
                })
                .collect()
        } else {
            unshare(&eval_base.eval(&words[..base_inputs]), base.output_groups())
        };
        let live = encodings.patterns() - first;
        let lanes = if live >= 64 {
            !0u64
        } else {
            (1u64 << live) - 1
        };
        if let Some(bit) = (0..got.len()).find(|&b| (got[b] ^ want[b]) & lanes != 0) {
            return Err(format!(
                "output bit {bit} wrong for some pattern in {first}..{}",
                first + 64
            ));
        }
        first += 64;
    }
    Ok(())
}
