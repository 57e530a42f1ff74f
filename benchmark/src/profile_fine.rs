//! `profile-fine`: two SPEC-like apps on `MachineConfig::tiny()` with
//! 500-cycle epochs under the full profiler, then a fixed analysis batch
//! over the profiler's store. The profiler layers and both directions of
//! `tsdb` (ingest and query) do the most work here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pathfinder::analyzer::HealthyBaseline;
use pathfinder::model::HitLevel;
use pathfinder::Materializer;
use pmu::SystemDelta;
use simarch::{Machine, MachineConfig, MemPolicy, Workload};
use tsdb::{ops, tsa};

use crate::digest::Digest;
use crate::pipeline::{self, Profiled};
use crate::trace::{self, Tracer};
use crate::{mix_seed, ms, Layer, Metric, Outcome, RunCfg, WorkCounts};

/// Epochs run before the timed window; the last one is the anomaly
/// detector's healthy baseline.
const WARMUP_EPOCHS: u64 = 64;
/// Epochs in one pass's timed window.
const TIMED_EPOCHS: u64 = 20_000;
/// Times the analysis batch runs per pass.
const QUERY_REPS: usize = 5;
/// Holt-Winters season for the predictability query.
const SEASON: usize = 16;
const CORES: usize = 2;
const LEVELS: [HitLevel; 2] = [HitLevel::L1d, HitLevel::CxlMemory];

// Ingest stops silently after `ProfileSpec::max_db_epochs`; the timed
// window must end before it.
const _: () = assert!(WARMUP_EPOCHS + 1 + TIMED_EPOCHS < 100_000);

fn build_machine(seed: u64) -> Result<Machine, String> {
    let mut cfg = MachineConfig::tiny();
    cfg.epoch_cycles = 500;
    let mut machine = Machine::new(cfg);
    for (core, app, trace_seed, policy) in [
        (0, "519.lbm_r", 1, MemPolicy::Cxl),
        (1, "505.mcf_r", 2, MemPolicy::Local),
    ] {
        let trace = workloads::build(app, u64::MAX / 2, mix_seed(seed, trace_seed))
            .ok_or_else(|| format!("workload registry has no app `{app}`"))?;
        machine.attach(core, Workload::new(app, trace, policy));
    }
    Ok(machine)
}

/// One pass: build, warm up, run the timed epochs, query, digest.
struct Pass {
    setup_ns: u64,
    timed_ns: u64,
    work: WorkCounts,
    /// p50 and p99 of this pass's untraced epoch times, in µs.
    epoch_us: Option<(f64, f64)>,
    query_ns: Vec<f64>,
    points_timed: usize,
    resident_bytes: usize,
    digest: u64,
    failed: u64,
}

fn pass(seed: u64, traced: bool, t: &mut Tracer) -> Result<Pass, String> {
    let t0 = obs::clock::now_ns();
    let machine = build_machine(seed)?;
    let start = machine.pmu.snapshot(machine.now());
    let mut p = Profiled::new(machine, traced);
    let mut last = None;
    for _ in 0..WARMUP_EPOCHS {
        last = Some(p.epoch(t).delta);
    }
    if let Some(delta) = &last {
        p.set_anomaly_baseline(HealthyBaseline::from_delta(delta));
    }
    let setup_ns = obs::clock::now_ns() - t0;
    // Warm-up spans are set-up, not the traced window.
    t.take();

    let window_start = p.machine().pmu.snapshot(p.machine().now());
    let points0 = p.materializer().db.len();
    let mut epoch_ns = Vec::with_capacity(if traced { 0 } else { TIMED_EPOCHS as usize });
    let t1 = obs::clock::now_ns();
    for _ in 0..TIMED_EPOCHS {
        if traced {
            p.epoch(t);
        } else {
            let e0 = obs::clock::now_ns();
            p.epoch(t);
            epoch_ns.push((obs::clock::now_ns() - e0) as f64);
        }
    }
    let timed_ns = obs::clock::now_ns() - t1;
    // Keep two numbers per pass, not every epoch: a run's memory must not
    // grow with the number of passes the box manages.
    let epoch_us = crate::stats::summarize(&epoch_ns)
        .zip(crate::stats::tail(&epoch_ns, 0.99))
        .map(|(s, p99)| (s.median / 1e3, p99 / 1e3));
    let work = WorkCounts::of(
        &p.machine()
            .pmu
            .snapshot(p.machine().now())
            .delta(&window_start),
    );
    let points_timed = p.materializer().db.len() - points0;

    let mut query_ns = Vec::with_capacity(QUERY_REPS);
    let mut results = Vec::with_capacity(QUERY_REPS);
    for _ in 0..QUERY_REPS {
        let q0 = obs::clock::now_ns();
        let r = if traced {
            t.enter("query");
            let r = query_batch_traced(p.materializer(), t);
            t.exit();
            r
        } else {
            query_batch(p.materializer())
        };
        query_ns.push((obs::clock::now_ns() - q0) as f64);
        results.push(r);
    }
    // Every repetition reads the same store and must answer the same.
    let failed = results.iter().filter(|r| **r != results[0]).count() as u64;

    let db = &p.materializer().db;
    let mut d = Digest::default();
    d.block(&pipeline::render_report(&p.report()));
    let end = p.machine().pmu.snapshot(p.machine().now());
    d.line("cumulative pmu delta", registry_totals(&end.delta(&start)));
    d.line("tsdb points", db.len());
    d.block(&results[0]);
    Ok(Pass {
        setup_ns,
        timed_ns,
        work,
        epoch_us,
        query_ns,
        points_timed,
        resident_bytes: db.resident_bytes(),
        digest: d.value(),
        failed,
    })
}

/// Every PMU counter summed over banks, in registry order, as one line.
fn registry_totals(delta: &SystemDelta) -> String {
    let mut totals = vec![0u64; pmu::registry::all_events().len()];
    fleetd::host::accumulate(delta, &mut totals);
    let mut out = String::new();
    for v in totals {
        let _ = write!(out, "{v},");
    }
    out
}

fn write_series(out: &mut String, label: &str, series: &[(u64, f64)]) {
    let sum: f64 = series.iter().map(|&(_, v)| v).sum();
    let _ = writeln!(out, "{label}: {} samples, sum {sum:?}", series.len());
}

fn write_windows(out: &mut String, label: &str, windows: &[tsa::Window]) {
    let _ = write!(out, "{label}:");
    for w in windows {
        let _ = write!(out, " [{},{}) {:?};", w.start, w.end, w.mean);
    }
    out.push('\n');
}

fn write_opt(out: &mut String, label: &str, v: Option<f64>) {
    let _ = writeln!(out, "{label}: {v:?}");
}

/// The analysis batch through the materializer's query functions.
fn query_batch(m: &Materializer) -> String {
    let mut out = String::new();
    for core in 0..CORES {
        for level in LEVELS {
            let l = level.label();
            write_series(
                &mut out,
                &format!("hits {core} {l}"),
                &m.hit_series(core, level),
            );
            write_windows(
                &mut out,
                &format!("locality {core} {l}"),
                &m.locality_windows(core, level),
            );
            write_opt(
                &mut out,
                &format!("predictability {core} {l}"),
                m.predictability(core, level, SEASON),
            );
        }
    }
    for level in LEVELS {
        write_opt(
            &mut out,
            &format!("correlate {}", level.label()),
            m.correlate_cores(0, 1, level),
        );
    }
    for core in 0..CORES {
        write_windows(&mut out, &format!("bursts {core}"), &m.burst_windows(core));
    }
    write_opt(&mut out, "orthogonality", m.orthogonality(0, 1));
    out
}

/// Join two series on timestamp, keeping `a`'s order.
fn join(a: &[(u64, f64)], b: Vec<(u64, f64)>) -> (Vec<f64>, Vec<f64>) {
    let mb: BTreeMap<u64, f64> = b.into_iter().collect();
    a.iter()
        .filter_map(|&(ts, v)| mb.get(&ts).map(|&w| (v, w)))
        .unzip()
}

fn values(series: &[(u64, f64)]) -> Vec<f64> {
    series.iter().map(|&(_, v)| v).collect()
}

/// The same batch split at the store boundary: every series extraction
/// (`hit_series`, `ops_series`) runs under `tsdb.scan`, and the `tsa`
/// functions on the extracted vectors under `tsdb.tsa`. It performs the
/// same extractions as [`query_batch`] — one per query function call —
/// and must return the same text.
fn query_batch_traced(m: &Materializer, t: &mut Tracer) -> String {
    let mut out = String::new();
    for core in 0..CORES {
        for level in LEVELS {
            let l = level.label();
            let series = t.span("tsdb.scan", || m.hit_series(core, level));
            write_series(&mut out, &format!("hits {core} {l}"), &series);

            let series = t.span("tsdb.scan", || m.hit_series(core, level));
            let windows = t.span("tsdb.tsa", || {
                tsa::cluster_windows(&values(&series), 0.25, 1.0)
            });
            write_windows(&mut out, &format!("locality {core} {l}"), &windows);

            let series = t.span("tsdb.scan", || m.hit_series(core, level));
            let pred = t.span("tsdb.tsa", || {
                let err = tsa::HoltWinters::new(SEASON).fit_error(&values(&series))?;
                let sd = ops::stddev(&series)?;
                Some(if sd == 0.0 { 0.0 } else { err / sd })
            });
            write_opt(&mut out, &format!("predictability {core} {l}"), pred);
        }
    }
    for level in LEVELS {
        let a = t.span("tsdb.scan", || m.hit_series(0, level));
        let b = t.span("tsdb.scan", || m.hit_series(1, level));
        let r = t.span("tsdb.tsa", || {
            let (xs, ys) = join(&a, b);
            tsa::pearsonr(&xs, &ys)
        });
        write_opt(&mut out, &format!("correlate {}", level.label()), r);
    }
    for core in 0..CORES {
        let series = t.span("tsdb.scan", || m.ops_series(core));
        let windows = t.span("tsdb.tsa", || {
            tsa::cluster_windows(&values(&series), 0.25, 1.0)
        });
        write_windows(&mut out, &format!("bursts {core}"), &windows);
    }
    let a = t.span("tsdb.scan", || m.ops_series(0));
    let b = t.span("tsdb.scan", || m.ops_series(1));
    let r = t.span("tsdb.tsa", || {
        let (xs, ys) = join(&a, b);
        tsa::pearsonr(&xs, &ys)
    });
    write_opt(&mut out, "orthogonality", r);
    out
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Tracer::default();

    // The check pass runs the default seed through the real profiler and
    // is compared with the recorded digest.
    let check = pass(crate::digest::DEFAULT_SEED, false, &mut t)?;
    out.check(cfg.workload, check.digest, check.failed);
    let mut setup = vec![check.setup_ns as f64 / 1e9];

    let deadline = obs::clock::now_ns() + cfg.seconds * 1_000_000_000;
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut totals = BTreeMap::new();
    let mut traced_wall_ns = 0u64;
    let mut covered_ns = 0u64;
    let mut first_spans = None;
    // A traced run alternates untraced and traced passes, so the trace's
    // overhead and the replica's equality are measured in the same run.
    while plain.len() < 2 || (cfg.traced && traced.len() < 2) || obs::clock::now_ns() < deadline {
        let use_trace = cfg.traced && traced.len() < plain.len();
        let p = pass(cfg.seed, use_trace, &mut t)?;
        setup.push(p.setup_ns as f64 / 1e9);
        if use_trace {
            let spans = t.take();
            trace::fold(&spans, &mut totals);
            covered_ns += trace::top_level_ns(&spans);
            traced_wall_ns += p.timed_ns + p.query_ns.iter().sum::<f64>() as u64;
            first_spans.get_or_insert(spans);
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    let reference = plain[0].digest;
    out.digest = reference;
    for p in plain.iter().chain(&traced) {
        out.attempted += 1 + QUERY_REPS as u64;
        out.failed += p.failed + u64::from(p.digest != reference);
    }

    let rate = |ps: &[Pass]| -> Vec<f64> {
        ps.iter()
            .map(|p| p.work.inst as f64 / (p.timed_ns as f64 / 1e9))
            .collect()
    };
    let (p50, p99): (Vec<f64>, Vec<f64>) = plain.iter().filter_map(|p| p.epoch_us).unzip();
    let last = &plain[plain.len() - 1];
    out.e2e = vec![
        Metric::median("setup_s", "s", setup),
        Metric::best_high("sim_inst_per_s", "inst/s", rate(&plain)),
        Metric::best_low("epoch_p50_us", "us", p50),
        Metric::best_low("epoch_p99_us", "us", p99),
        Metric::best_low(
            "query_ms",
            "ms",
            plain
                .iter()
                .map(|p| ms(crate::median(&p.query_ns)))
                .collect(),
        ),
        Metric::value("profiler_mb", "MB", last.resident_bytes as f64 / 1e6),
    ];
    if cfg.traced {
        let epochs = (traced.len() as u64 * TIMED_EPOCHS) as f64;
        let inst: f64 = traced.iter().map(|p| p.work.inst as f64).sum();
        let points: f64 = traced.iter().map(|p| p.points_timed as f64).sum();
        let per_batch_ms = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t: &trace::Totals| t.self_ns as f64 / 1e6)
                / (traced.len() * QUERY_REPS) as f64
        };
        out.layers = pipeline::replica_layers(&totals, epochs, inst, points);
        out.layers.extend(last.work.layers());
        out.layers.extend([
            Layer::count("tsdb.points", last.points_timed as u64),
            Layer::new("tsdb.scan_ms", "ms", per_batch_ms("tsdb.scan")),
            Layer::new("tsdb.tsa_ms", "ms", per_batch_ms("tsdb.tsa")),
            Layer::new("tsdb.resident_mb", "MB", last.resident_bytes as f64 / 1e6),
        ]);
        out.layers.extend(crate::trace_health(
            crate::median(&rate(&plain)),
            crate::median(&rate(&traced)),
            traced_wall_ns,
            covered_ns,
        ));
        out.self_times = totals;
        out.traced_wall_ns = traced_wall_ns;
        out.spans = first_spans.unwrap_or_default();
    }
    Ok(out)
}
