//! `contention`: the Fig. 9/10 scenario. YCSB-C on core 0 shares the CXL
//! device of `MachineConfig::spr()` with three `Mbw` neighbours whose load
//! sweeps 20% → 100%; each point is profiled until YCSB drains. The timing
//! model does nearly all the work, so a profiler-layer change is predicted
//! to move nothing here. Caches start empty at every point, as in the
//! figure.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pathfinder::model::{Component, LatencyModel, PathGroup};
use pathfinder::PfEstimator;
use simarch::{Machine, MachineConfig, MemPolicy, TraceSource, Workload};
use workloads::{Mbw, YcsbMix, ZipfKv};

use crate::digest::Digest;
use crate::pipeline::{self, Profiled};
use crate::trace::{self, Span, Totals, Tracer};
use crate::{mix_seed, ms, Layer, Metric, Outcome, RunCfg, WorkCounts};

const LOADS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
/// YCSB operations per point: the figure runs 1.2M; this budget keeps a
/// whole sweep to a few seconds so several sweeps fit in one run.
const YCSB_OPS: u64 = 60_000;
/// The figure's cap on epochs per point.
const MAX_EPOCHS: u64 = 400;
/// Figure-row derivations timed together per point: one takes about
/// 10 µs, too short to time alone.
const ROW_REPS: u32 = 200;

/// One sweep point's outcome.
struct Point {
    setup_ns: u64,
    timed_ns: u64,
    work: WorkCounts,
    epoch_ns: Vec<f64>,
    /// Mean time of one figure-row derivation.
    rows_ns: f64,
    rows: String,
    resident_bytes: usize,
    points: usize,
    spans: Vec<Span>,
}

fn build_machine(seed: u64, load: f64) -> Machine {
    // YCSB's theta 0.4 flattens key popularity so the working set exceeds
    // the caches and the flow is CXL-bound (see fig9_10_contention).
    let ycsb: Box<dyn TraceSource> = Box::new(ZipfKv::with_theta(
        64 << 20,
        1024,
        YcsbMix::C,
        YCSB_OPS,
        mix_seed(seed, 3),
        0.4,
    ));
    let mut machine = Machine::new(MachineConfig::spr());
    machine.attach(0, Workload::new("YCSB-C", ycsb, MemPolicy::Cxl));
    for c in 1..4 {
        // Each neighbour offers a third of the sweep point and never
        // drains, so contention lasts the whole YCSB lifetime.
        machine.attach(
            c,
            Workload::new(
                format!("cxl-neighbour-{c}"),
                Box::new(Mbw::new(24 << 20, u64::MAX, load / 3.0)),
                MemPolicy::Cxl,
            ),
        );
    }
    machine
}

/// The figure's two rows for one point, from the finished profiler.
fn figure_rows(p: &Profiled, load: f64, ycsb_ops: u64, ycsb_done_at: u64) -> String {
    let report = p.report();
    let tput = ycsb_ops as f64 / (ycsb_done_at.max(1) as f64 / 1e6);
    let machine = p.machine();
    let end = machine.pmu.snapshot(machine.now());
    let zero = pmu::SystemPmu::new(
        end.pmu.cores.len(),
        end.pmu.chas.len(),
        end.pmu.imcs.len(),
        end.pmu.m2ps.len(),
        end.pmu.cxls.len(),
    )
    .snapshot(0);
    let stalls = PfEstimator::breakdown_core(&end.delta(&zero), &LatencyModel::spr(), 0);
    let stall = |c: Component| -> f64 { PathGroup::ALL.iter().map(|&g| stalls.get(g, c)).sum() };
    let queue = |c: Component| -> f64 {
        PathGroup::ALL
            .iter()
            .map(|&g| report.mean_queues.get(g, c))
            .sum()
    };
    let mut out = format!("fig9 {:.0}%: {tput:.0}", load * 100.0);
    for c in [
        Component::Sb,
        Component::L1d,
        Component::Lfb,
        Component::L2,
        Component::Llc,
        Component::Cha,
        Component::FlexBusMc,
    ] {
        let _ = write!(out, " {:.0}", stall(c));
    }
    let _ = write!(out, "\nfig10 {:.0}%:", load * 100.0);
    for c in [
        Component::L1d,
        Component::Lfb,
        Component::L2,
        Component::Llc,
    ] {
        let _ = write!(out, " {:.4}", queue(c));
    }
    for g in [PathGroup::Drd, PathGroup::HwPf] {
        let _ = write!(
            out,
            " {:.4}",
            report.mean_queues.get(g, Component::FlexBusMc)
        );
    }
    out.push('\n');
    out
}

fn point(seed: u64, load: f64, traced: bool, t: &mut Tracer) -> Point {
    let t0 = obs::clock::now_ns();
    let machine = build_machine(seed, load);
    let start = machine.pmu.snapshot(machine.now());
    let mut p = Profiled::new(machine, traced);
    let setup_ns = obs::clock::now_ns() - t0;

    let mut epoch_ns = Vec::new();
    let mut ycsb_ops = 0u64;
    let mut ycsb_done_at = 0u64;
    let t1 = obs::clock::now_ns();
    for _ in 0..MAX_EPOCHS {
        let e0 = obs::clock::now_ns();
        let step = p.epoch(t);
        if !traced {
            epoch_ns.push((obs::clock::now_ns() - e0) as f64);
        }
        if step.ops_per_core[0] > 0 {
            ycsb_ops += step.ops_per_core[0];
            ycsb_done_at = step.delta.end_cycle;
        }
        if ycsb_ops >= YCSB_OPS {
            break;
        }
    }
    let timed_ns = obs::clock::now_ns() - t1;
    let spans = t.take();
    let machine = p.machine();
    let work = WorkCounts::of(&machine.pmu.snapshot(machine.now()).delta(&start));

    let r0 = obs::clock::now_ns();
    let rows = figure_rows(&p, load, ycsb_ops, ycsb_done_at);
    for _ in 1..ROW_REPS {
        std::hint::black_box(figure_rows(&p, load, ycsb_ops, ycsb_done_at));
    }
    let rows_ns = (obs::clock::now_ns() - r0) as f64 / f64::from(ROW_REPS);
    Point {
        setup_ns,
        timed_ns,
        work,
        epoch_ns,
        rows_ns,
        rows,
        resident_bytes: p.materializer().db.resident_bytes(),
        points: p.materializer().db.len(),
        spans,
    }
}

/// One sweep over every load point.
struct Sweep {
    points: Vec<Point>,
    digest: u64,
}

impl Sweep {
    fn run(seed: u64, traced: bool, t: &mut Tracer) -> Sweep {
        let points: Vec<Point> = LOADS.iter().map(|&l| point(seed, l, traced, t)).collect();
        let mut d = Digest::default();
        for p in &points {
            d.block(&p.rows);
        }
        Sweep {
            digest: d.value(),
            points,
        }
    }

    fn setup_s(&self) -> f64 {
        self.points.iter().map(|p| p.setup_ns as f64).sum::<f64>() / 1e9
    }

    fn timed_ns(&self) -> u64 {
        self.points.iter().map(|p| p.timed_ns).sum()
    }

    fn work(&self) -> WorkCounts {
        let mut w = WorkCounts::default();
        for p in &self.points {
            w.add(&p.work);
        }
        w
    }

    fn inst_per_s(&self) -> f64 {
        self.work().inst as f64 / (self.timed_ns() as f64 / 1e9)
    }

    fn epoch_us(&self) -> Vec<f64> {
        self.points
            .iter()
            .flat_map(|p| p.epoch_ns.iter().map(|ns| ns / 1e3))
            .collect()
    }

    fn rows_ms(&self) -> Vec<f64> {
        self.points.iter().map(|p| ms(p.rows_ns)).collect()
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Tracer::default();
    let check = Sweep::run(crate::digest::DEFAULT_SEED, false, &mut t);
    out.check(cfg.workload, check.digest, 0);
    let mut setup = vec![check.setup_s()];

    let deadline = obs::clock::now_ns() + cfg.seconds * 1_000_000_000;
    let mut plain: Vec<Sweep> = Vec::new();
    let mut traced: Vec<Sweep> = Vec::new();
    while plain.len() < 2 || (cfg.traced && traced.len() < 2) || obs::clock::now_ns() < deadline {
        let use_trace = cfg.traced && traced.len() < plain.len();
        let s = Sweep::run(cfg.seed, use_trace, &mut t);
        setup.push(s.setup_s());
        if use_trace {
            traced.push(s);
        } else {
            plain.push(s);
        }
    }
    out.digest = plain[0].digest;
    for s in plain.iter().chain(&traced) {
        out.attempted += 1;
        out.failed += u64::from(s.digest != out.digest);
    }

    let resident = plain[0]
        .points
        .iter()
        .map(|p| p.resident_bytes)
        .max()
        .unwrap_or(0);
    out.e2e = vec![
        Metric::median("setup_s", "s", setup),
        Metric::best_high(
            "sim_inst_per_s",
            "inst/s",
            plain.iter().map(Sweep::inst_per_s).collect(),
        ),
        Metric::best_low(
            "epoch_p50_us",
            "us",
            plain.iter().map(|s| crate::median(&s.epoch_us())).collect(),
        ),
        Metric::tail(
            "epoch_p99_us",
            "us",
            plain.iter().flat_map(Sweep::epoch_us).collect(),
            0.99,
        ),
        Metric::best_low(
            "query_ms",
            "ms",
            plain.iter().map(|s| crate::median(&s.rows_ms())).collect(),
        ),
        Metric::value("profiler_mb", "MB", resident as f64 / 1e6),
    ];

    if cfg.traced {
        let mut totals = BTreeMap::new();
        let mut covered_ns = 0;
        let mut traced_wall_ns = 0;
        for p in traced.iter().flat_map(|s| s.points.iter()) {
            trace::fold(&p.spans, &mut totals);
            covered_ns += trace::top_level_ns(&p.spans);
            traced_wall_ns += p.timed_ns;
        }
        let epochs = totals.get("epoch").map_or(1, |t| t.count) as f64;
        let work = traced[0].work();
        let inst = work.inst as f64 * traced.len() as f64;
        let points: f64 = traced
            .iter()
            .flat_map(|s| s.points.iter())
            .map(|p| p.points as f64)
            .sum();
        // ns per instruction of `run_epoch` at one sweep point.
        let at_load = |i: usize| {
            let (ns, inst) = traced.iter().fold((0.0, 0.0), |(ns, inst), s| {
                let p = &s.points[i];
                let mut at = BTreeMap::new();
                trace::fold(&p.spans, &mut at);
                let machine_ns = at
                    .get("simarch.run_epoch")
                    .map_or(0, |t: &Totals| t.self_ns);
                (ns + machine_ns as f64, inst + p.work.inst as f64)
            });
            ns / inst
        };
        let rates = |sweeps: &[Sweep]| {
            crate::median(&sweeps.iter().map(Sweep::inst_per_s).collect::<Vec<_>>())
        };
        out.layers = pipeline::replica_layers(&totals, epochs, inst, points);
        out.layers.extend(work.layers());
        out.layers.extend([
            Layer::new("simarch.ns_per_inst.load20", "ns", at_load(0)),
            Layer::new(
                "simarch.ns_per_inst.load100",
                "ns",
                at_load(LOADS.len() - 1),
            ),
            Layer::count(
                "tsdb.points",
                traced[0].points.iter().map(|p| p.points as u64).sum(),
            ),
            Layer::new("tsdb.resident_mb", "MB", resident as f64 / 1e6),
        ]);
        out.layers.extend(crate::trace_health(
            rates(&plain),
            rates(&traced),
            traced_wall_ns,
            covered_ns,
        ));
        out.self_times = totals;
        out.traced_wall_ns = traced_wall_ns;
        for p in &traced[0].points {
            trace::append(&mut out.spans, &p.spans);
        }
    }
    Ok(out)
}
