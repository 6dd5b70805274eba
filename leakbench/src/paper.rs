//! The paper's sweep: 7 schemes × 5 device ages, 1024 traces per cell,
//! from an empty cache (`paper-cold`) and replayed from filled stores
//! (`paper-warm`).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use acquisition::{
    acquire_with_derating, capture_schedule_batch, classified_schedule, LeakageStudy,
    ProtocolConfig, NUM_CLASSES,
};
use aging::AgingConditions;
use campaign::{
    config_digest, resume_checkpoint, CacheMode, Campaign, CampaignKey, CampaignOutcome,
    SpectrumAccumulator, StoreKind, StoreReader, StoreWriter, SumMode, TraceCache,
};
use gatesim::{Derating, Simulator, LANES};
use leakage_core::{ClassifiedTraces, LeakageSpectrum};
use sbox_circuits::{SboxCircuit, Scheme};

use crate::layers::{stage_medians, timed, Layers, Tracer};
use crate::oracle;
use crate::report::{drive_passes, repeat_setup, Run};
use crate::Ctx;

/// Device ages of the sweep, in months.
pub const AGES: [f64; 5] = [0.0, 12.0, 24.0, 36.0, 48.0];

/// Traces per class of the paper protocol.
const TRACES_PER_CLASS: usize = 64;

/// Checkpoint cadence of the default campaign configuration.
const CHECKPOINT_EVERY: usize = 64;

fn cells() -> impl Iterator<Item = (usize, Scheme, f64)> {
    Scheme::ALL
        .into_iter()
        .enumerate()
        .flat_map(|(i, s)| AGES.into_iter().map(move |m| (i, s, m)))
}

fn cell_name(scheme: Scheme, months: f64) -> String {
    format!("{}@{months}", scheme.label())
}

/// The store key the campaign files a classified cell under.
fn cell_key(protocol: &ProtocolConfig, scheme: Scheme, months: f64) -> CampaignKey {
    CampaignKey {
        kind: StoreKind::Classified,
        implementation: scheme.label().to_string(),
        seed: protocol.seed,
        traces: (protocol.traces_per_class * NUM_CLASSES) as u32,
        samples: protocol.sampling.samples as u32,
        age_months: months,
        class_or_key: NUM_CLASSES as u16,
        config_digest: config_digest(protocol, &AgingConditions::default()),
    }
}

/// The derating the campaign applies at `months` (identity when fresh).
pub fn derating(protocol: &ProtocolConfig, circuit: &SboxCircuit, months: f64) -> Derating {
    if months == 0.0 {
        Derating::fresh(circuit.netlist())
    } else {
        LeakageStudy::new(protocol.clone())
            .with_conditions(AgingConditions::default())
            .aged_device(circuit)
            .derating_at_months(months)
    }
}

fn build_circuits() -> Vec<SboxCircuit> {
    Scheme::ALL.into_iter().map(SboxCircuit::build).collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_spectrum(a: &LeakageSpectrum, b: &LeakageSpectrum) -> bool {
    a.num_sources() == b.num_sources()
        && (0..a.num_sources()).all(|u| same_bits(a.source_waveform(u), b.source_waveform(u)))
}

/// `paper-cold`: `Campaign::run_aged` over every cell into a fresh
/// store directory per pass.
pub fn cold(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let protocol = ctx.protocol();
    let circuits = repeat_setup(&mut run, build_circuits);
    // One aged cell per scheme is recaptured on the event engine; which
    // age rotates with the seed.
    let oracle_age = |scheme_index: usize| AGES[1 + (scheme_index + ctx.seed as usize) % 4];
    let mut tracer = Tracer::default();
    let mut per_pass = Vec::new();
    // Per cell: digest of the first pass's traces and whether it failed;
    // later passes must reproduce the traces and inherit the verdict.
    let mut first: Vec<(u64, bool)> = Vec::new();

    drive_passes(&mut run, ctx.seconds, ctx.trace, |run, index, traced| {
        let dir = ctx.scratch.join(format!("cold-{index}"));
        let start = Instant::now();
        let mut campaign = Campaign::new(ctx.campaign_config(&dir, CacheMode::ReadWrite));
        let mut outcomes = Vec::with_capacity(Scheme::ALL.len() * AGES.len());
        for scheme in Scheme::ALL {
            let sweep = tracer.span(
                traced,
                || format!("run_aged {}", scheme.label()),
                || campaign.run_aged(scheme, &AGES),
            );
            outcomes.extend(sweep);
        }
        let elapsed = start.elapsed().as_secs_f64();

        let reports = campaign.log().reports();
        let cache = TraceCache::new(&dir, CacheMode::ReadWrite);
        let mut failures = Vec::new();
        for (cell, ((scheme_index, scheme, months), (outcome, report))) in
            cells().zip(outcomes.iter().zip(reports)).enumerate()
        {
            if let Some(b) = report.backend {
                run.saw_backend(b.as_str());
            }
            let check = || -> Result<(), String> {
                if outcome.cache_hit || outcome.partial.is_some() || report.quarantined > 0 {
                    return Err(format!(
                        "hit={} partial={:?} quarantined={}",
                        outcome.cache_hit, outcome.partial, report.quarantined
                    ));
                }
                let counts = outcome.traces.class_counts();
                if counts.iter().any(|&c| c != TRACES_PER_CLASS) {
                    return Err(format!("class counts {counts:?}"));
                }
                let means = oracle::class_means(
                    NUM_CLASSES,
                    protocol.sampling.samples,
                    outcome.traces.iter(),
                );
                oracle::check_spectrum(&means, |u, t| outcome.spectrum.coefficient(u, t))?;
                check_store(
                    &cache.path_for(&cell_key(&protocol, scheme, months)),
                    outcome,
                )?;
                if index == 0 && months == oracle_age(scheme_index) {
                    let event = acquire_with_derating(
                        &circuits[scheme_index],
                        &protocol,
                        &derating(&protocol, &circuits[scheme_index], months),
                    );
                    if event != outcome.traces
                        || !event
                            .iter()
                            .zip(outcome.traces.iter())
                            .all(|((_, a), (_, b))| same_bits(a, b))
                    {
                        return Err("event-engine recapture differs".into());
                    }
                }
                Ok(())
            };
            let mut result = check();
            let digest = traces_digest(&outcome.traces);
            match first.get(cell) {
                None => first.push((digest, result.is_err())),
                Some(&(d, failed)) => {
                    if d != digest {
                        result = Err("traces differ from the first pass".into());
                    } else if failed && result.is_ok() {
                        result = Err("failed on the first pass".into());
                    }
                }
            }
            if let Err(e) = result {
                failures.push(format!("{}: {e}", cell_name(scheme, months)));
            }
        }
        run.global(outcomes.len() == Scheme::ALL.len() * AGES.len(), || {
            format!("pass {index} returned {} cells", outcomes.len())
        });
        run.account(outcomes.len(), failures);
        if !traced {
            let mut stages = Layers::default();
            stages.add_reports(reports);
            stages.events = reports.iter().map(|r| r.stats.events).sum();
            per_pass.push(stages);
        }
        let _ = std::fs::remove_dir_all(&dir);
        elapsed
    });

    if ctx.trace {
        tracer.summarize();
        let mut layers = stage_medians(&per_pass);
        split_cold(ctx, &circuits, &mut layers)?;
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

/// Digest of a trace set's labels and sample bits.
fn traces_digest(traces: &ClassifiedTraces) -> u64 {
    let mut h = DefaultHasher::new();
    for (class, trace) in traces.iter() {
        class.hash(&mut h);
        for x in trace {
            x.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// A store written by the pass reopens, and every record matches the
/// traces the campaign returned, label and bits.
fn check_store(path: &Path, outcome: &CampaignOutcome) -> Result<(), String> {
    let reader = StoreReader::open(path).map_err(|e| format!("store reopen: {e}"))?;
    let mut expected = outcome.traces.iter();
    let mut records = 0usize;
    let mut mismatch = false;
    reader
        .for_each_record(|label, samples| {
            records += 1;
            match expected.next() {
                Some((class, trace))
                    if usize::from(label) == class && same_bits(trace, samples) => {}
                _ => mismatch = true,
            }
        })
        .map_err(|e| format!("store record: {e}"))?;
    if mismatch || records != outcome.traces.len() {
        return Err(format!(
            "store holds {records} records, {} expected, mismatch={mismatch}",
            outcome.traces.len()
        ));
    }
    Ok(())
}

/// The cold cells split into direct layer calls: build, aging profile,
/// bit-sliced capture, checkpoint frames, batch spectrum, store write.
fn split_cold(ctx: &Ctx, circuits: &[SboxCircuit], layers: &mut Layers) -> Result<(), String> {
    let protocol = ctx.protocol();
    let dir = ctx.scratch.join("split-cold");
    timed(&mut layers.build, || black_box(build_circuits()));
    for (scheme_index, scheme, months) in cells() {
        let circuit = &circuits[scheme_index];
        let derating = if months == 0.0 {
            Derating::fresh(circuit.netlist())
        } else {
            layers.aging_profiles += 1;
            timed(&mut layers.aging, || derating(&protocol, circuit, months))
        };
        let sim = Simulator::with_derating(circuit.netlist(), &protocol.sim, &derating);
        let schedule = classified_schedule(circuit, &protocol);
        let mut records: Vec<(u16, Vec<f64>)> = Vec::with_capacity(schedule.len());
        let start = Instant::now();
        let mut session = sim
            .bitsliced_session()
            .map_err(|e| format!("{}: bit-sliced backend refused: {e:?}", scheme.label()))?;
        for (b, batch) in schedule.chunks(LANES).enumerate() {
            let (traces, stats) = capture_schedule_batch(
                &mut session,
                batch,
                (b * LANES) as u64,
                protocol.seed,
                &protocol.sampling,
            )
            .map_err(|e| format!("capture: {e}"))?;
            layers.events += stats.iter().map(|s| s.events).sum::<usize>();
            records.extend(batch.iter().map(|s| s.label).zip(traces.iter().cloned()));
            layers.capture_batches += 1;
        }
        layers.capture += start.elapsed();
        layers.capture_traces += schedule.len();

        let key = cell_key(&protocol, scheme, months);
        let ckpt = dir.join(format!("{}.ckpt", key.file_name()));
        timed(&mut layers.checkpoint, || -> Result<(), String> {
            let (_, mut writer) =
                resume_checkpoint(&ckpt, &key.expected_meta()).map_err(|e| e.to_string())?;
            for (i, (label, trace)) in records.iter().enumerate() {
                writer
                    .record(i as u32, *label, trace)
                    .map_err(|e| e.to_string())?;
                if (i + 1) % CHECKPOINT_EVERY == 0 {
                    writer.sync().map_err(|e| e.to_string())?;
                    layers.checkpoint_syncs += 1;
                }
            }
            writer.sync().map_err(|e| e.to_string())?;
            layers.checkpoint_syncs += 1;
            Ok(())
        })?;

        let mut set = ClassifiedTraces::new(NUM_CLASSES, protocol.sampling.samples);
        for (label, trace) in &records {
            set.push(usize::from(*label), trace.clone());
        }
        timed(&mut layers.batch_spectrum, || {
            black_box(LeakageSpectrum::from_class_means(&set.class_means()))
        });
        layers.batch_spectrum_cells += 1;

        timed(&mut layers.store_write, || -> Result<(), String> {
            let mut writer = StoreWriter::create(&dir.join(key.file_name()), key.expected_meta())
                .map_err(|e| e.to_string())?;
            for (label, trace) in &records {
                writer.record(*label, trace).map_err(|e| e.to_string())?;
            }
            writer.finish().map_err(|e| e.to_string())
        })?;
        layers.store_write_traces += records.len();
        let _ = std::fs::remove_file(&ckpt);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// What the warm workload's set-up leaves behind: the filled store and
/// the spectra the cold fill computed.
struct WarmStore {
    spectra: Vec<LeakageSpectrum>,
}

/// `paper-warm`: every cell replayed from stores filled in set-up, once
/// in batch (`run_aged`) and once streamed exactly (`run_aged_spectra`).
pub fn warm(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let dir = ctx.scratch.join("warm");
    let mut fill_failures = Vec::new();
    let store = repeat_setup(&mut run, || {
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = Campaign::new(ctx.campaign_config(&dir, CacheMode::ReadWrite));
        let mut spectra = Vec::new();
        for scheme in Scheme::ALL {
            for outcome in campaign.run_aged(scheme, &AGES) {
                if outcome.cache_hit || outcome.partial.is_some() {
                    fill_failures.push(cell_name(scheme, outcome.age_months));
                }
                spectra.push(outcome.spectrum);
            }
        }
        WarmStore { spectra }
    });
    run.global(fill_failures.is_empty(), || {
        format!("set-up could not fill {fill_failures:?}")
    });

    let mut tracer = Tracer::default();
    let mut per_pass = Vec::new();
    drive_passes(&mut run, ctx.seconds, ctx.trace, |run, _index, traced| {
        let start = Instant::now();
        let mut batch = Campaign::new(ctx.campaign_config(&dir, CacheMode::ReadWrite));
        let mut streamed = Campaign::new(campaign::CampaignConfig {
            streaming: true,
            stream_mode: SumMode::Exact,
            ..ctx.campaign_config(&dir, CacheMode::ReadWrite)
        });
        let mut batch_out = Vec::new();
        let mut stream_out = Vec::new();
        for scheme in Scheme::ALL {
            batch_out.extend(tracer.span(
                traced,
                || format!("run_aged {}", scheme.label()),
                || batch.run_aged(scheme, &AGES),
            ));
            stream_out.extend(tracer.span(
                traced,
                || format!("run_aged_spectra {}", scheme.label()),
                || streamed.run_aged_spectra(scheme, &AGES),
            ));
        }
        let elapsed = start.elapsed().as_secs_f64();

        let reports: Vec<_> = batch
            .log()
            .reports()
            .iter()
            .zip(streamed.log().reports())
            .collect();
        let mut failures = Vec::new();
        for ((_, scheme, months), (((b, s), (rb, rs)), setup)) in cells().zip(
            batch_out
                .iter()
                .zip(&stream_out)
                .zip(&reports)
                .zip(&store.spectra),
        ) {
            let ok = b.cache_hit
                && s.cache_hit
                && s.streamed
                && b.partial.is_none()
                && s.partial.is_none()
                && rb.healed == 0
                && rs.healed == 0
                && s.traces_analyzed == TRACES_PER_CLASS * NUM_CLASSES
                && same_spectrum(&b.spectrum, &s.spectrum)
                && same_spectrum(&b.spectrum, setup);
            if !ok {
                failures.push(format!(
                    "{}: batch hit={} streamed hit={} healed={}/{} spectra equal={}/{}",
                    cell_name(scheme, months),
                    b.cache_hit,
                    s.cache_hit,
                    rb.healed,
                    rs.healed,
                    same_spectrum(&b.spectrum, &s.spectrum),
                    same_spectrum(&b.spectrum, setup)
                ));
            }
        }
        run.global(
            batch_out.len() == store.spectra.len() && stream_out.len() == store.spectra.len(),
            || "a replay pass returned too few cells".into(),
        );
        run.account(store.spectra.len(), failures);
        if !traced {
            let mut stages = Layers::default();
            stages.add_reports(batch.log().reports());
            stages.add_reports(streamed.log().reports());
            per_pass.push(stages);
        }
        elapsed
    });

    if ctx.trace {
        tracer.summarize();
        let mut layers = stage_medians(&per_pass);
        split_warm(ctx, &dir, &mut layers)?;
        layers.emit(&mut run);
    }
    Ok(run)
}

/// The warm cells split into direct layer calls: store read, exact
/// fold, and the two spectra the replays finish with.
fn split_warm(ctx: &Ctx, dir: &Path, layers: &mut Layers) -> Result<(), String> {
    let protocol = ctx.protocol();
    let cache = TraceCache::new(dir, CacheMode::ReadWrite);
    let samples = protocol.sampling.samples;
    for (_, scheme, months) in cells() {
        let path = cache.path_for(&cell_key(&protocol, scheme, months));
        // Each cell is read twice, as the batch and the streamed replay
        // each read it.
        let mut records: Vec<(u16, Vec<f64>)> = Vec::new();
        for _ in 0..2 {
            records.clear();
            timed(&mut layers.store_read, || -> Result<(), String> {
                let reader = StoreReader::open(&path).map_err(|e| e.to_string())?;
                reader
                    .for_each_record(|label, trace| records.push((label, trace.to_vec())))
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })?;
            layers.store_read_traces += records.len();
        }

        let mut acc = SpectrumAccumulator::new(NUM_CLASSES, samples, SumMode::Exact);
        timed(&mut layers.spectrum_fold, || {
            for (label, trace) in &records {
                acc.fold(usize::from(*label), trace);
            }
        });
        layers.spectrum_fold_traces += records.len();
        timed(&mut layers.stream_spectrum, || black_box(acc.spectrum()));

        let mut set = ClassifiedTraces::new(NUM_CLASSES, samples);
        for (label, trace) in records {
            set.push(usize::from(label), trace);
        }
        timed(&mut layers.batch_spectrum, || {
            black_box(LeakageSpectrum::from_class_means(&set.class_means()))
        });
        layers.batch_spectrum_cells += 1;
    }
    Ok(())
}
