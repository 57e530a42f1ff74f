//! Driving a profiled machine, plainly or traced.
//!
//! The untraced path is `pathfinder::Profiler` itself. The traced path is a
//! replica driven by hand in the order `Profiler::profile_epoch` uses — run
//! the epoch, take the delta and recycle the snapshot, then builder,
//! estimator, analyzer and anomaly, then the materializer — with a span
//! around each call. Both must produce the same digest, or the per-layer
//! numbers would describe a different program.

use pathfinder::analyzer::{Anomaly, AnomalyDetector, Culprit, HealthyBaseline, QueueEstimate};
use pathfinder::model::{Component, HitLevel, LatencyModel, PathGroup};
use pathfinder::profiler::Overhead;
use pathfinder::{
    Materializer, PathMap, PfAnalyzer, PfBuilder, PfEstimator, ProfileSpec, Profiler, Report,
    StallBreakdown,
};
use pmu::{SystemDelta, SystemSnapshot};
use simarch::Machine;
use std::collections::BTreeMap;

use crate::trace::{Totals, Tracer};
use crate::Layer;

/// What one profiled epoch hands back to a workload.
pub struct Step {
    pub delta: SystemDelta,
    pub ops_per_core: Vec<u64>,
}

/// A profiled machine: the real profiler, or its traced replica.
pub enum Profiled {
    Plain(Box<Profiler>),
    Traced(Box<Replica>),
}

impl Profiled {
    pub fn new(machine: Machine, traced: bool) -> Profiled {
        if traced {
            Profiled::Traced(Box::new(Replica::new(machine)))
        } else {
            Profiled::Plain(Box::new(Profiler::new(machine, ProfileSpec::default())))
        }
    }

    /// Run one epoch. Only the replica records spans into `t`.
    pub fn epoch(&mut self, t: &mut Tracer) -> Step {
        match self {
            Profiled::Plain(p) => {
                let e = p.profile_epoch();
                Step {
                    delta: e.delta,
                    ops_per_core: e.ops_per_core,
                }
            }
            Profiled::Traced(r) => r.epoch(t),
        }
    }

    pub fn set_anomaly_baseline(&mut self, baseline: HealthyBaseline) {
        match self {
            Profiled::Plain(p) => p.set_anomaly_baseline(baseline),
            Profiled::Traced(r) => r.detector = Some(AnomalyDetector::new(baseline)),
        }
    }

    pub fn report(&self) -> Report {
        match self {
            Profiled::Plain(p) => p.report(),
            Profiled::Traced(r) => r.report(),
        }
    }

    pub fn machine(&self) -> &Machine {
        match self {
            Profiled::Plain(p) => p.machine(),
            Profiled::Traced(r) => &r.machine,
        }
    }

    pub fn materializer(&self) -> &Materializer {
        match self {
            Profiled::Plain(p) => &p.materializer,
            Profiled::Traced(r) => &r.materializer,
        }
    }
}

/// Per-layer metrics of the replica's traced epochs from their folded span
/// totals: `epochs` epochs that retired `inst` instructions and ingested
/// `points` points.
pub fn replica_layers(
    totals: &BTreeMap<&str, Totals>,
    epochs: f64,
    inst: f64,
    points: f64,
) -> Vec<Layer> {
    let self_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3);
    let machine_us = self_us("simarch.run_epoch");
    let all_us: f64 = totals.values().map(|t| t.self_ns as f64 / 1e3).sum();
    vec![
        Layer::new("simarch.epoch_us", "us", machine_us / epochs),
        Layer::new("simarch.ns_per_inst", "ns", machine_us * 1e3 / inst),
        Layer::new("pmu.delta_us", "us", self_us("pmu.delta") / epochs),
        Layer::new("core.builder_us", "us", self_us("core.builder") / epochs),
        Layer::new(
            "core.estimator_us",
            "us",
            self_us("core.estimator") / epochs,
        ),
        Layer::new("core.analyzer_us", "us", self_us("core.analyzer") / epochs),
        Layer::new("core.anomaly_us", "us", self_us("core.anomaly") / epochs),
        Layer::new(
            "core.materializer_us",
            "us",
            self_us("core.materializer") / epochs,
        ),
        Layer::new(
            "core.profiler_share_pct",
            "%",
            100.0 * (1.0 - machine_us / all_us),
        ),
        Layer::new("tsdb.points_per_epoch", "count", points / epochs),
        Layer::new(
            "tsdb.ingest_ns_per_point",
            "ns",
            self_us("core.materializer") * 1e3 / points,
        ),
    ]
}

/// `Report::render()` with the profiler-state size taken out of its first
/// line. That figure is an accounting convention, not a simulated result;
/// it is reported on its own as `profiler_mb`.
pub fn render_report(report: &Report) -> String {
    let text = report.render();
    let (first, rest) = text.split_once('\n').unwrap_or((&text, ""));
    let first = match first.strip_suffix(" MB profiler state") {
        Some(head) => head.rsplit_once(", ").map_or(head, |(h, _)| h),
        None => first,
    };
    format!("{first}\n{rest}")
}

/// The hand-driven copy of `Profiler::profile_epoch`, with the default
/// `ProfileSpec` (every technique on).
pub struct Replica {
    machine: Machine,
    lat: LatencyModel,
    prev: SystemSnapshot,
    materializer: Materializer,
    detector: Option<AnomalyDetector>,
    apps: Vec<Option<String>>,
    max_db_epochs: usize,
    cum_map: Option<PathMap>,
    cum_stalls: StallBreakdown,
    last_queues: QueueEstimate,
    queue_sum: QueueEstimate,
    queue_epochs: u64,
    last_culprit: Option<Culprit>,
    last_anomaly: Option<Anomaly>,
    epoch: u64,
    total_ops: Vec<u64>,
}

impl Replica {
    fn new(machine: Machine) -> Replica {
        let cores = machine.config().cores;
        Replica {
            lat: LatencyModel::from_config(machine.config()),
            prev: machine.pmu.snapshot(machine.now()),
            apps: (0..cores)
                .map(|c| machine.workload_name(c).map(str::to_string))
                .collect(),
            machine,
            materializer: Materializer::new(),
            detector: None,
            max_db_epochs: ProfileSpec::default().max_db_epochs,
            cum_map: None,
            cum_stalls: StallBreakdown::default(),
            last_queues: QueueEstimate::default(),
            queue_sum: QueueEstimate::default(),
            queue_epochs: 0,
            last_culprit: None,
            last_anomaly: None,
            epoch: 0,
            total_ops: vec![0; cores],
        }
    }

    fn epoch(&mut self, t: &mut Tracer) -> Step {
        t.enter("epoch");
        let er = t.span("simarch.run_epoch", || self.machine.run_epoch());
        let delta = t.span("pmu.delta", || {
            let delta = er.snapshot.delta(&self.prev);
            self.machine
                .recycle_snapshot(std::mem::replace(&mut self.prev, er.snapshot));
            delta
        });
        self.epoch += 1;
        for (total, &n) in self.total_ops.iter_mut().zip(&er.ops_per_core) {
            *total += n;
        }
        let map = t.span("core.builder", || PfBuilder::build(&delta));
        let stalls = t.span("core.estimator", || {
            PfEstimator::breakdown(&delta, &self.lat)
        });
        let queues = t.span("core.analyzer", || PfAnalyzer::analyze(&delta, &self.lat));
        let culprit = queues.culprit();
        let anomaly = match &self.detector {
            Some(det) => t.span("core.anomaly", || det.diagnose(&delta)),
            None => None,
        };

        match &mut self.cum_map {
            None => self.cum_map = Some(map.clone()),
            Some(cum) => {
                for (c, m) in map.per_core.iter().enumerate() {
                    for l in 0..HitLevel::COUNT {
                        for p in 0..PathGroup::COUNT {
                            cum.per_core[c].hits[l][p] += m.hits[l][p];
                            cum.total.hits[l][p] =
                                cum.total.hits[l][p].saturating_add(m.hits[l][p]);
                        }
                    }
                }
            }
        }
        for p in 0..PathGroup::COUNT {
            for c in 0..Component::COUNT {
                self.cum_stalls.cycles[p][c] += stalls.cycles[p][c];
            }
        }
        if queues.q.iter().flatten().any(|&v| v > 0.0) {
            self.queue_epochs += 1;
            for p in 0..PathGroup::COUNT {
                for c in 0..Component::COUNT {
                    self.queue_sum.q[p][c] += queues.q[p][c];
                }
            }
        }
        if culprit.is_some() {
            self.last_culprit = culprit;
        }
        if anomaly.is_some() {
            self.last_anomaly = anomaly;
        }

        if self.epoch as usize <= self.max_db_epochs {
            let ts = delta.end_cycle;
            t.span("core.materializer", || {
                self.materializer.ingest_path_map(ts, &map, &self.apps);
                self.materializer.ingest_queues(ts, &queues);
                self.materializer
                    .ingest_progress(ts, &er.ops_per_core, &self.apps);
            });
        }
        self.last_queues = queues;
        t.exit();
        Step {
            delta,
            ops_per_core: er.ops_per_core,
        }
    }

    /// The same report `Profiler::report` builds.
    fn report(&self) -> Report {
        let cores = self.machine.config().cores;
        let mut mean_queues = self.queue_sum.clone();
        let n = self.queue_epochs.max(1) as f64;
        for v in mean_queues.q.iter_mut().flatten() {
            *v /= n;
        }
        Report {
            epochs: self.epoch,
            cycles: self.machine.now(),
            path_map: self.cum_map.clone().unwrap_or(PathMap {
                per_core: vec![Default::default(); cores],
                total: Default::default(),
            }),
            stalls: self.cum_stalls.clone(),
            queues: self.last_queues.clone(),
            mean_queues,
            culprit: self.last_culprit,
            anomaly: self.last_anomaly.clone(),
            overhead: Overhead::default(),
            apps: self.apps.clone(),
            ops_per_core: self.total_ops.clone(),
            freq_ghz: self.machine.config().freq_ghz,
        }
    }
}
