//! `attack-sweep`: `Campaign::attack_sweep` over 7 schemes × ages
//! 0/24/60 months × 4 trials × 256 traces, CPA, DPA and MLPA folded
//! exactly in one pass, cache off.

use std::hint::black_box;
use std::time::Instant;

use acquisition::{
    capture_schedule_batch, capture_stimulus, cpa_schedule, cpa_seed, trace_seed, ProtocolConfig,
    NUM_CLASSES,
};
use campaign::{AttackOutcome, AttackPlan, CacheMode, Campaign, SpectrumAccumulator, SumMode};
use gatesim::{Simulator, LANES};
use leakage_core::online::FOLD_CHUNK;
use sbox_circuits::{SboxCircuit, Scheme};
use sca_attacks::{attack_batch, AttackAccumulator, Distinguisher, LeakageModel};

use crate::layers::{stage_medians, timed, Layers, Tracer};
use crate::paper::derating;
use crate::report::{drive_passes, repeat_setup, Run};
use crate::Ctx;

/// Device ages of the attack sweep, in months.
const AGES: [f64; 3] = [0.0, 24.0, 60.0];
const TRIALS: usize = 4;
const TRACES: usize = 256;

fn distinguishers() -> Vec<Distinguisher> {
    vec![
        Distinguisher::Cpa(LeakageModel::OutputTransition),
        Distinguisher::Dpa { bit: 0 },
        Distinguisher::Mlpa,
    ]
}

/// The attack plan under this run's seed: the true key nibble comes
/// from `--seed`.
fn plan(ctx: &Ctx) -> AttackPlan {
    AttackPlan {
        key: (ctx.derived(2) & 0xF) as u8,
        traces: TRACES,
        trials: TRIALS,
        distinguishers: distinguishers(),
        sr_threshold: 0.8,
        mode: SumMode::Exact,
    }
}

/// The protocol of trial `trial`, derived the way the campaign derives
/// it (trial 0 is the protocol itself).
fn trial_protocol(protocol: &ProtocolConfig, trial: usize) -> ProtocolConfig {
    let mut p = protocol.clone();
    if trial > 0 {
        p.seed = trace_seed(p.seed, 0xA77A_C000 | trial as u64);
    }
    p
}

/// Final per-guess scores of every (distinguisher, trial), as bits.
fn score_bits(outcome: &AttackOutcome) -> Vec<[u64; 16]> {
    outcome
        .reports
        .iter()
        .flat_map(|r| r.final_scores.iter().map(|s| s.scores.map(f64::to_bits)))
        .collect()
}

pub fn sweep(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let protocol = ctx.protocol();
    let plan = plan(ctx);
    let circuits = repeat_setup(&mut run, || {
        Scheme::ALL
            .into_iter()
            .map(SboxCircuit::build)
            .collect::<Vec<_>>()
    });
    let dir = ctx.scratch.join("attack");
    let mut tracer = Tracer::default();
    let mut per_pass = Vec::new();
    // Per cell: the first pass's final scores and which trials failed;
    // later passes must reproduce the scores and inherit the verdicts.
    let mut first: Vec<(Vec<[u64; 16]>, [bool; TRIALS])> = Vec::new();

    drive_passes(&mut run, ctx.seconds, ctx.trace, |run, index, traced| {
        let start = Instant::now();
        let mut campaign = Campaign::new(ctx.campaign_config(&dir, CacheMode::Off));
        let mut outcomes = Vec::with_capacity(Scheme::ALL.len() * AGES.len());
        for scheme in Scheme::ALL {
            outcomes.extend(tracer.span(
                traced,
                || format!("attack_sweep {}", scheme.label()),
                || campaign.attack_sweep(scheme, &AGES, &plan),
            ));
        }
        let elapsed = start.elapsed().as_secs_f64();

        let reports = campaign.log().reports();
        run.global(
            outcomes.len() == Scheme::ALL.len() * AGES.len()
                && reports.len() == outcomes.len() * TRIALS,
            || {
                format!(
                    "pass {index}: {} cells, {} trial reports",
                    outcomes.len(),
                    reports.len()
                )
            },
        );
        let mut failures = Vec::new();
        for (cell, outcome) in outcomes.iter().enumerate() {
            let name = format!("{}@{}", outcome.scheme.label(), outcome.age_months);
            let mut trial_ok = [true; TRIALS];
            let mut note = |trial: Option<usize>, why: String| {
                match trial {
                    Some(t) => trial_ok[t] = false,
                    None => trial_ok = [false; TRIALS],
                }
                eprintln!("leakbench: {name}: {why}");
            };
            for (t, r) in reports.iter().skip(cell * TRIALS).take(TRIALS).enumerate() {
                if let Some(b) = r.backend {
                    run.saw_backend(b.as_str());
                }
                if r.quarantined > 0 || r.partial.is_some() || r.cache_hit {
                    note(Some(t), format!("trial {t} quarantined/partial/hit"));
                }
            }
            for r in &outcome.reports {
                let full = r.success_rate.last().map(|&(n, _)| n);
                if full != Some(TRACES) || r.final_scores.len() != TRIALS {
                    note(
                        None,
                        format!("{} folded to {full:?}", r.distinguisher.label()),
                    );
                }
            }
            if outcome.scheme == Scheme::Lut {
                let mlpa = outcome.report(Distinguisher::Mlpa).map(|r| r.recovered);
                if mlpa != Some(plan.key) {
                    note(None, format!("MLPA recovered {mlpa:?}, key {:X}", plan.key));
                }
            }
            let bits = score_bits(outcome);
            match first.get(cell) {
                None => {
                    let circuit = &circuits[Scheme::ALL
                        .iter()
                        .position(|&s| s == outcome.scheme)
                        .expect("known scheme")];
                    if let Err(e) = check_reference(&protocol, circuit, outcome, &plan) {
                        note(Some(0), e);
                    }
                }
                Some((first_bits, _)) if *first_bits != bits => {
                    note(None, "final scores differ from the first pass".into())
                }
                Some((_, first_ok)) => {
                    for (t, ok) in first_ok.iter().enumerate() {
                        if !ok {
                            note(Some(t), format!("trial {t} failed on the first pass"));
                        }
                    }
                }
            }
            if index == 0 {
                first.push((bits, trial_ok));
            }
            failures.extend(
                trial_ok
                    .iter()
                    .enumerate()
                    .filter(|(_, ok)| !**ok)
                    .map(|(t, _)| format!("{name} trial {t}")),
            );
        }
        run.account(outcomes.len() * TRIALS, failures);
        if !traced {
            let mut stages = Layers::default();
            stages.add_reports(reports);
            stages.events = reports.iter().map(|r| r.stats.events).sum();
            per_pass.push(stages);
        }
        elapsed
    });

    if ctx.trace {
        tracer.summarize();
        let mut layers = stage_medians(&per_pass);
        split(&protocol, &plan, &circuits, &mut layers)?;
        let campaign_events = per_pass.first().map_or(0, |l| l.events);
        run.global(layers.events == campaign_events, || {
            format!(
                "layer split simulated {} events, the campaign {campaign_events}",
                layers.events
            )
        });
        layers.emit(&mut run);
    }
    Ok(run)
}

/// Trial 0 of a cell, recaptured on the event engine straight through
/// `acquisition` and scored by the two-pass batch reference, must equal
/// the campaign's streamed scores bit for bit.
fn check_reference(
    protocol: &ProtocolConfig,
    circuit: &SboxCircuit,
    outcome: &AttackOutcome,
    plan: &AttackPlan,
) -> Result<(), String> {
    let derating = derating(protocol, circuit, outcome.age_months);
    let sim = Simulator::with_derating(circuit.netlist(), &protocol.sim, &derating);
    let schedule = cpa_schedule(circuit, protocol, plan.key, plan.traces);
    let seed = cpa_seed(protocol);
    let plaintexts: Vec<u8> = schedule.iter().map(|s| s.label as u8).collect();
    let traces: Vec<Vec<f64>> = schedule
        .iter()
        .enumerate()
        .map(|(i, s)| capture_stimulus(&sim, s, &protocol.sampling, trace_seed(seed, i as u64)).0)
        .collect();
    for report in &outcome.reports {
        let want = attack_batch(&plaintexts, &traces, report.distinguisher).scores();
        let got = report.final_scores.first().ok_or("no trial-0 scores")?;
        if want.scores.map(f64::to_bits) != got.scores.map(f64::to_bits) {
            return Err(format!(
                "{} trial 0 differs from the batch reference",
                report.distinguisher.label()
            ));
        }
    }
    Ok(())
}

/// The attack cells split into direct layer calls: aging profile,
/// bit-sliced capture of each trial, the spectral and per-distinguisher
/// folds in 16-trace chunks, the running merge and the rank scoring
/// after every chunk.
fn split(
    protocol: &ProtocolConfig,
    plan: &AttackPlan,
    circuits: &[SboxCircuit],
    layers: &mut Layers,
) -> Result<(), String> {
    let samples = protocol.sampling.samples;
    timed(&mut layers.build, || {
        black_box(
            Scheme::ALL
                .into_iter()
                .map(SboxCircuit::build)
                .collect::<Vec<_>>(),
        )
    });
    for circuit in circuits {
        for months in AGES {
            let derating = if months == 0.0 {
                gatesim::Derating::fresh(circuit.netlist())
            } else {
                layers.aging_profiles += 1;
                timed(&mut layers.aging, || derating(protocol, circuit, months))
            };
            let sim = Simulator::with_derating(circuit.netlist(), &protocol.sim, &derating);
            for trial in 0..plan.trials {
                let tp = trial_protocol(protocol, trial);
                let schedule = cpa_schedule(circuit, &tp, plan.key, plan.traces);
                let mut records: Vec<(u8, Vec<f64>)> = Vec::with_capacity(schedule.len());
                let start = Instant::now();
                let mut session = sim
                    .bitsliced_session()
                    .map_err(|e| format!("bit-sliced backend refused: {e:?}"))?;
                for (b, batch) in schedule.chunks(LANES).enumerate() {
                    let (traces, stats) = capture_schedule_batch(
                        &mut session,
                        batch,
                        (b * LANES) as u64,
                        cpa_seed(&tp),
                        &protocol.sampling,
                    )
                    .map_err(|e| format!("capture: {e}"))?;
                    layers.events += stats.iter().map(|s| s.events).sum::<usize>();
                    records.extend(
                        batch
                            .iter()
                            .map(|s| s.label as u8)
                            .zip(traces.iter().cloned()),
                    );
                    layers.capture_batches += 1;
                }
                layers.capture += start.elapsed();
                layers.capture_traces += records.len();

                let mut spectrum = SpectrumAccumulator::new(NUM_CLASSES, samples, plan.mode);
                timed(&mut layers.spectrum_fold, || {
                    for (p, trace) in &records {
                        spectrum.fold(usize::from(*p & 0xF), trace);
                    }
                });
                layers.spectrum_fold_traces += records.len();
                black_box(&spectrum);

                let mut running: Vec<AttackAccumulator> = plan
                    .distinguishers
                    .iter()
                    .map(|&d| AttackAccumulator::new(d, samples, plan.mode))
                    .collect();
                for chunk in records.chunks(FOLD_CHUNK) {
                    for (d, &dist) in plan.distinguishers.iter().enumerate() {
                        let mut part = AttackAccumulator::new(dist, samples, plan.mode);
                        timed(&mut layers.attack_fold[d], || {
                            for (p, trace) in chunk {
                                part.fold(*p, trace);
                            }
                        });
                        timed(&mut layers.merge, || running[d].merge_from(&part));
                        timed(&mut layers.score, || {
                            black_box(running[d].scores().key_rank(plan.key))
                        });
                        layers.score_calls += 1;
                    }
                    layers.merge_chunks += 1;
                }
                layers.attack_fold_traces += records.len();
            }
        }
    }
    Ok(())
}
