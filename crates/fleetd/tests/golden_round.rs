//! Golden byte-identity for a fixed-seed fleetd round: the recorded
//! per-host counter streams of a small fleet must match the bytes
//! captured before the event-wheel scheduler landed (`tests/golden/`).
//!
//! `tests/determinism.rs` pins *shard-count* invariance; this test pins
//! the *values* across scheduler rewrites — same discipline as the
//! figure CSV goldens in `crates/bench/tests/golden_identity.rs`.
//!
//! Refresh (only when the simulation model itself legitimately changes):
//! `FLEETD_GOLDEN_REFRESH=1 cargo test -p fleetd --test golden_round`.

use std::path::PathBuf;

use fleetd::shard::Fleet;
use fleetd::FleetConfig;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_round.csv")
}

/// One fixed-seed fleet round matrix: 5 hosts (covers all four FLEET_APPS
/// and both placement policies), 2 shards, 3 rounds of 2 epochs.
fn run_fixed_fleet() -> String {
    let cfg = FleetConfig {
        hosts: 5,
        shards: 2,
        seed: 0x90_1DE4,
        epochs_per_round: 2,
        retention_rounds: 0,
        record_streams: true,
    };
    let mut fleet = Fleet::launch(cfg).expect("launch fleet");
    for _ in 0..3 {
        fleet.run_round().expect("round");
    }
    let dump = fleet.dump_streams().expect("dump");
    fleet.shutdown();
    dump
}

#[test]
fn fixed_seed_round_streams_match_golden_bytes() {
    let dump = run_fixed_fleet();
    assert!(!dump.is_empty(), "streams were recorded");
    if std::env::var_os("FLEETD_GOLDEN_REFRESH").is_some() {
        std::fs::create_dir_all(golden_path().parent().expect("golden parent"))
            .expect("create golden dir");
        std::fs::write(golden_path(), &dump).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(golden_path())
        .expect("read golden fleet_round.csv (run once with FLEETD_GOLDEN_REFRESH=1)");
    assert!(
        dump == want,
        "fleetd fixed-seed round diverged from its pre-wheel golden\n\
         --- golden ---\n{want}\n--- fresh ---\n{dump}",
    );
}
