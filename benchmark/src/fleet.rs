//! `fleet`: the fleet daemon's path. 512 one-core hosts over two shards
//! advance one epoch per round; after each round a fixed number of
//! direct renders of the `/metrics` exposition and closed-loop
//! `GET /metrics` scrapes run, one at a time and never during a round.
//! The only workload for sharding, the round merge, Prometheus rendering
//! and the HTTP server; `obs` is on, as in the daemon. The benchmark
//! starts no threads of its own: the shard workers and the scrape server
//! are `fleetd::shard`'s.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};

use fleetd::host::{self, FLEET_APPS};
use fleetd::shard::{self, Fleet, FleetSnapshot, RoundSummary};
use fleetd::FleetConfig;
use simarch::{Machine, MemPolicy, Workload};
use tsdb::Db;

use crate::digest::Digest;
use crate::trace::{self, Tracer};
use crate::{mix_seed, ms, Layer, Metric, Outcome, RunCfg, WorkCounts};

const HOSTS: u32 = 512;
const SHARDS: u32 = 2;
/// The digest is read after this many rounds (set-up's round included).
const CHECK_ROUNDS: u64 = 3;
/// Timed rounds per second of `--seconds`: a round and its scrapes take
/// about half a second. The count is fixed rather than timed because the
/// fleet's resident memory grows with rounds, so `peak_rss_mb` must
/// describe the same work on every run.
const ROUNDS_PER_SECOND: u64 = 2;
/// Render/scrape pairs after each round.
const SCRAPES_PER_ROUND: usize = 25;
/// The host sample the traced run drives on the benchmark thread.
const SAMPLE_HOSTS: u32 = 32;
/// More rounds than `FleetConfig::retention_rounds`, so retention deletes.
const SAMPLE_ROUNDS: u64 = 20;
/// Untraced/traced host-sample pairs in a traced run.
const SAMPLE_PAIRS: u32 = 3;
/// Families a scrape must carry: the set tier-1's live-scrape test
/// requires.
const FAMILIES: [&str; 10] = [
    "pathfinder_fleetd_rounds",
    "pathfinder_fleetd_points",
    "pathfinder_fleetd_hosts",
    "pathfinder_fleetd_shard_lag_ns",
    "pathfinder_fleetd_round_ns",
    "pathfinder_tsdb_resident_bytes",
    "pathfinder_obs_dropped_events",
    "pathfinder_fleet_inst_retired_any",
    "pathfinder_fleet_cpu_clk_unhalted_thread",
    "pathfinder_host_inst_retired_any",
];

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        hosts: HOSTS,
        shards: SHARDS,
        seed: mix_seed(seed, FleetConfig::default().seed),
        ..Default::default()
    }
}

/// A launched fleet that has run its first round.
struct Launched {
    fleet: Fleet,
    launch_ns: u64,
    setup_ns: u64,
}

fn launch(seed: u64) -> Result<Launched, String> {
    let t0 = obs::clock::now_ns();
    let mut fleet = Fleet::launch(config(seed))?;
    let launch_ns = obs::clock::now_ns() - t0;
    fleet.run_round()?;
    Ok(Launched {
        fleet,
        launch_ns,
        setup_ns: obs::clock::now_ns() - t0,
    })
}

/// The per-host headline counters; fleetd keeps them independent of the
/// shard count.
fn headline_digest(snap: &FleetSnapshot) -> u64 {
    let mut d = Digest::default();
    d.line("round", snap.round);
    for (id, [inst, cycles]) in &snap.headline {
        d.line(&id.to_string(), format!("{inst} {cycles}"));
    }
    d.value()
}

fn inst_sum(snap: &FleetSnapshot) -> u64 {
    snap.headline.iter().map(|(_, [inst, _])| inst).sum()
}

/// Connect, GET `/metrics` and read the whole response; the body on 200.
fn scrape(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("send scrape: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read scrape: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("scrape response has no header/body split")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "scrape status: {}",
            head.lines().next().unwrap_or("")
        ));
    }
    Ok(body.to_string())
}

/// Host-sample results: the shard loop's work for a few hosts, replayed on
/// the benchmark thread so each layer can be timed from outside.
struct Sample {
    wall_ns: u64,
    host_epochs: u64,
    rows: u64,
    work: WorkCounts,
    spans: Vec<trace::Span>,
}

/// Run `SAMPLE_HOSTS` bare host machines (`host_config()`, the
/// `FLEET_APPS` mix) through `SAMPLE_ROUNDS` rounds as a shard does: run
/// the epoch, fold the delta into registry-ordered totals, ingest one wide
/// row per host, and apply retention.
fn host_sample(seed: u64, t: &mut Tracer) -> Result<Sample, String> {
    let cfg = config(seed);
    let names = host::counter_names();
    let fields: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut db = Db::new();
    let mut hosts = Vec::new();
    for id in 0..SAMPLE_HOSTS {
        let app = FLEET_APPS[id as usize % FLEET_APPS.len()];
        let policy = if id.is_multiple_of(2) {
            MemPolicy::Cxl
        } else {
            MemPolicy::Local
        };
        let trace = workloads::build(app, u64::MAX / 2, mix_seed(cfg.seed, u64::from(id)))
            .ok_or_else(|| format!("workload registry has no app `{app}`"))?;
        let mut machine = Machine::new(host::host_config());
        machine.attach(0, Workload::new(app, trace, policy));
        let prev = machine.pmu.snapshot(machine.now());
        let tag = id.to_string();
        let series = db.series_handle("fleet_host", &[("host", tag.as_str())], &fields);
        hosts.push((machine, prev, vec![0u64; names.len()], series));
    }
    let mut work = WorkCounts::default();
    let mut values = Vec::with_capacity(names.len());
    let mut rows = 0;
    t.take();
    let t0 = obs::clock::now_ns();
    for round in 1..=SAMPLE_ROUNDS {
        for (machine, prev, totals, series) in &mut hosts {
            let er = t.span("simarch.run_epoch", || machine.run_epoch());
            let delta = t.span("pmu.delta", || {
                let delta = er.snapshot.delta(prev);
                host::accumulate(&delta, totals);
                delta
            });
            *prev = er.snapshot;
            work.add(&WorkCounts::of(&delta));
            t.span("tsdb.ingest", || {
                values.clear();
                values.extend(totals.iter().map(|v| *v as f64));
                db.ingest(*series, round * cfg.epochs_per_round, &values);
            });
            rows += 1;
        }
        if cfg.retention_rounds > 0 && round > cfg.retention_rounds {
            let cutoff = (round - cfg.retention_rounds) * cfg.epochs_per_round;
            t.span("tsdb.retention", || {
                db.delete_range("fleet_host", 0, cutoff + 1)
            });
        }
    }
    Ok(Sample {
        wall_ns: obs::clock::now_ns() - t0,
        host_epochs: u64::from(SAMPLE_HOSTS) * SAMPLE_ROUNDS,
        rows,
        work,
        spans: t.take(),
    })
}

#[derive(Default)]
struct Rounds {
    round_ns: Vec<f64>,
    /// Fleet-wide instructions per second of each of `round_ns`'s rounds.
    round_rate: Vec<f64>,
    lag_ns: Vec<f64>,
    scrape_ns: Vec<f64>,
    render_ns: Vec<f64>,
    scrape_bytes: Vec<f64>,
    /// Round times with obs off, from the traced run's interleaving.
    round_off_ns: Vec<f64>,
    last: Option<RoundSummary>,
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    // As pathfinder-fleetd's main does.
    obs::enable();
    let mut out = Outcome::default();

    let mut check = launch(crate::digest::DEFAULT_SEED)?;
    for _ in 1..CHECK_ROUNDS {
        check.fleet.run_round()?;
    }
    out.check(
        cfg.workload,
        headline_digest(&check.fleet.state().read()),
        0,
    );
    let mut setup = vec![check.setup_ns as f64 / 1e9];
    check.fleet.shutdown();

    let Launched {
        mut fleet,
        launch_ns,
        setup_ns,
    } = launch(cfg.seed)?;
    setup.push(setup_ns as f64 / 1e9);
    let state = fleet.state();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let server = shard::spawn_server(fleet.state(), listener)
        .map_err(|e| format!("spawn scrape server: {e}"))?;

    let mut r = Rounds::default();
    let mut inst = inst_sum(&state.read());
    let mut rounds = 1u64;
    let last_round = 1 + (cfg.seconds * ROUNDS_PER_SECOND).max(CHECK_ROUNDS);
    while rounds < last_round {
        // The traced run alternates obs off and on, round by round.
        let obs_off = cfg.traced && rounds.is_multiple_of(2);
        if obs_off {
            obs::disable();
        }
        let r0 = obs::clock::now_ns();
        let result = fleet.run_round();
        let round_ns = obs::clock::now_ns() - r0;
        obs::enable();
        out.attempted += 1;
        let summary = match result {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fleet: round failed: {e}");
                out.failed += 1;
                break;
            }
        };
        rounds += 1;
        let snap = state.read();
        if rounds == CHECK_ROUNDS {
            out.digest = headline_digest(&snap);
        }
        let now_inst = inst_sum(&snap);
        if obs_off {
            r.round_off_ns.push(round_ns as f64);
        } else {
            r.round_ns.push(round_ns as f64);
            r.round_rate
                .push((now_inst - inst) as f64 / (round_ns as f64 / 1e9));
            r.lag_ns.push(summary.shard_lag_ns as f64);
        }
        inst = now_inst;
        r.last = Some(summary);
        for _ in 0..SCRAPES_PER_ROUND {
            // The fleet's query: the exposition rendered from the live
            // snapshot on this thread, free of the cross-thread wake-ups
            // that make a whole scrape's latency bimodal on a shared box.
            let g0 = obs::clock::now_ns();
            let body = fleetd::server::render_metrics(&state.read());
            r.render_ns.push((obs::clock::now_ns() - g0) as f64);
            std::hint::black_box(body);
            let s0 = obs::clock::now_ns();
            let result = scrape(&addr);
            let scrape_ns = obs::clock::now_ns() - s0;
            out.attempted += 1;
            match result.and_then(|body| obs::prom::validate(&body, &FAMILIES).map(|_| body)) {
                Ok(body) => {
                    r.scrape_ns.push(scrape_ns as f64);
                    r.scrape_bytes.push(body.len() as f64);
                }
                Err(e) => {
                    eprintln!("fleet: scrape failed: {e}");
                    out.failed += 1;
                }
            }
        }
    }
    shard::stop_server(&state, &addr, server);
    fleet.shutdown();

    let last = r.last.ok_or("fleet ran no timed round")?;
    // Rounds are many and short, so fleet reports medians over all of
    // them rather than a best pass.
    let round_ms: Vec<f64> = r.round_ns.iter().map(|&ns| ms(ns)).collect();
    let scrape_ms: Vec<f64> = r.scrape_ns.iter().map(|&ns| ms(ns)).collect();
    out.e2e = vec![
        Metric::median("setup_s", "s", setup),
        Metric::median("sim_inst_per_s", "inst/s", r.round_rate.clone()),
        // Every round advances every host by one epoch.
        Metric::median(
            "epoch_p50_us",
            "us",
            r.round_ns.iter().map(|ns| ns / 1e3).collect(),
        ),
        // The fastest render: other tenants only slow a render down, and
        // they do so for stretches of rounds, which moves any median.
        Metric::best_low(
            "query_ms",
            "ms",
            r.render_ns.iter().map(|&ns| ms(ns)).collect(),
        ),
        Metric::median("round_p50_ms", "ms", round_ms.clone()),
        Metric::tail("round_p90_ms", "ms", round_ms, 0.90),
        Metric::median("scrape_p50_ms", "ms", scrape_ms.clone()),
        Metric::tail("scrape_p99_ms", "ms", scrape_ms, 0.99),
        Metric::value("profiler_mb", "MB", last.resident_bytes as f64 / 1e6),
    ];

    if cfg.traced {
        // Interleave untraced and traced host samples: the pair gives the
        // trace's own overhead.
        let mut t = Tracer::default();
        let mut plain_rate = Vec::new();
        let mut totals = BTreeMap::new();
        let mut sample = None;
        let mut traced_wall_ns = 0;
        let mut covered_ns = 0;
        for _ in 0..SAMPLE_PAIRS {
            let p = host_sample(cfg.seed, &mut Tracer::off())?;
            plain_rate.push(p.work.inst as f64 / (p.wall_ns as f64 / 1e9));
            let s = host_sample(cfg.seed, &mut t)?;
            trace::fold(&s.spans, &mut totals);
            traced_wall_ns += s.wall_ns;
            covered_ns += trace::top_level_ns(&s.spans);
            sample = Some(s);
        }
        let s = sample.ok_or("no host sample ran")?;
        let samples = f64::from(SAMPLE_PAIRS);
        let traced_rate = s.work.inst as f64 * samples / (traced_wall_ns as f64 / 1e9);
        let self_us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t: &trace::Totals| t.self_ns as f64 / 1e3)
        };
        let host_epochs = s.host_epochs as f64 * samples;
        let machine_us = self_us("simarch.run_epoch");
        let all_us: f64 = totals.values().map(|t| t.self_ns as f64 / 1e3).sum();
        let host_epoch_us = machine_us / host_epochs;
        let round_ms = crate::median(&r.round_ns) / 1e6;
        let round_off_ms = crate::median(&r.round_off_ns) / 1e6;
        let render_ms = crate::median(&r.render_ns) / 1e6;
        out.layers = vec![
            Layer::new("simarch.epoch_us", "us", host_epoch_us),
            Layer::new(
                "simarch.ns_per_inst",
                "ns",
                machine_us * 1e3 / (s.work.inst as f64 * samples),
            ),
            Layer::new("simarch.host_epoch_us", "us", host_epoch_us),
        ];
        out.layers.extend(s.work.layers());
        out.layers.extend([
            Layer::new("pmu.delta_us", "us", self_us("pmu.delta") / host_epochs),
            Layer::new(
                "core.profiler_share_pct",
                "%",
                100.0 * (1.0 - machine_us / all_us),
            ),
            Layer::count("tsdb.points", s.rows),
            Layer::new(
                "tsdb.points_per_epoch",
                "count",
                s.rows as f64 / s.host_epochs as f64,
            ),
            Layer::new(
                "tsdb.ingest_ns_per_point",
                "ns",
                self_us("tsdb.ingest") * 1e3 / (s.rows as f64 * samples),
            ),
            Layer::new("tsdb.resident_mb", "MB", last.resident_bytes as f64 / 1e6),
            Layer::new("fleetd.round_ms", "ms", round_ms),
            Layer::new("fleetd.shard_lag_ms", "ms", crate::median(&r.lag_ns) / 1e6),
            Layer::new(
                "fleetd.shard_efficiency",
                "fraction",
                f64::from(HOSTS) * host_epoch_us / 1e3 / (f64::from(SHARDS) * round_ms),
            ),
            Layer::new(
                "fleetd.setup_host_ms",
                "ms",
                ms(launch_ns as f64) / f64::from(HOSTS),
            ),
            Layer::new("fleetd.render_ms", "ms", render_ms),
            Layer::new(
                "fleetd.scrape_io_ms",
                "ms",
                crate::median(&r.scrape_ns) / 1e6 - render_ms,
            ),
            Layer::count("fleetd.scrape_bytes", crate::median(&r.scrape_bytes) as u64),
            Layer::new(
                "obs.overhead_pct",
                "%",
                100.0 * (round_ms - round_off_ms) / round_off_ms,
            ),
            Layer::count("obs.dropped_events", obs::span::dropped_events()),
        ]);
        out.layers.extend(crate::trace_health(
            crate::median(&plain_rate),
            traced_rate,
            traced_wall_ns,
            covered_ns,
        ));
        out.self_times = totals;
        out.traced_wall_ns = traced_wall_ns;
        out.spans = s.spans;
    }
    Ok(out)
}
