//! The materializer's analysis queries against the map-based code they
//! replaced: `hit_series` as four per-path queries folded through a
//! `BTreeMap`, and `correlate_cores`/`orthogonality` as a `BTreeMap`
//! lookup join. Random stores cover two `app` labels for one core (the
//! workload assignment changes mid-run), zero cells (no record), repeated
//! and back-dated epoch timestamps, and a core that never ran.

use std::collections::BTreeMap;

use pathfinder::builder::CoreMap;
use pathfinder::model::HitLevel;
use pathfinder::{Materializer, PathGroup, PathMap};
use proptest::prelude::*;
use tsdb::tsa;

const CORES: usize = 3;

fn oracle_hit_series(m: &Materializer, core: usize, level: HitLevel) -> Vec<(u64, f64)> {
    let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
    for p in PathGroup::ALL {
        let series =
            m.db.from("path_set")
                .filter("core", core.to_string())
                .filter("dst", level.label())
                .filter("path", p.label())
                .values("hits");
        for (ts, v) in series {
            *acc.entry(ts).or_insert(0.0) += v;
        }
    }
    acc.into_iter().collect()
}

fn oracle_pearson_join(sa: Vec<(u64, f64)>, sb: Vec<(u64, f64)>) -> Option<f64> {
    let mb: BTreeMap<u64, f64> = sb.into_iter().collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = sa
        .into_iter()
        .filter_map(|(ts, v)| mb.get(&ts).map(|&w| (v, w)))
        .unzip();
    tsa::pearsonr(&xs, &ys)
}

fn bits(r: Option<f64>) -> Option<u64> {
    r.map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn analysis_queries_match_the_btreemap_versions(
        epochs in proptest::collection::vec(
            (0u8..16, 0u64..50, 0u64..1_000_000, 0u64..4, 0u64..500),
            0..60,
        ),
        switch_at in 0usize..60,
    ) {
        let mut m = Materializer::new();
        for (i, &(back, back_ts, seed, zero_mod, ops)) in epochs.iter().enumerate() {
            // Mostly an epoch grid where pairs of epochs share a
            // timestamp; one epoch in sixteen is back-dated.
            let ts = if back == 0 { back_ts } else { i as u64 / 2 } * 1_000;
            let mut per_core = vec![CoreMap::default(); CORES];
            for (core, cm) in per_core.iter_mut().enumerate().take(CORES - 1) {
                for l in HitLevel::ALL {
                    for p in PathGroup::ALL {
                        let k = (l.idx() * PathGroup::COUNT + p.idx()) as u64 + core as u64;
                        let v = seed.wrapping_mul(k + 1) % 100_003;
                        cm.hits[l.idx()][p.idx()] = if (k + seed) % 4 == zero_mod { 0 } else { v };
                    }
                }
            }
            let map = PathMap { per_core, total: CoreMap::default() };
            // Core 0 changes program mid-run: its scope spans two `app`
            // labels. The last core never runs anything.
            let app0 = if i < switch_at { "mcf" } else { "gups" };
            let apps = [Some(app0.to_string()), Some("fft".to_string()), None];
            m.ingest_path_map(ts, &map, &apps);
            m.ingest_progress(ts, &[ops, ops.wrapping_mul(7) % 500, 0], &apps);
        }

        for l in HitLevel::ALL {
            for core in 0..CORES {
                let got: Vec<(u64, u64)> = m
                    .hit_series(core, l)
                    .into_iter()
                    .map(|(t, v)| (t, v.to_bits()))
                    .collect();
                let want: Vec<(u64, u64)> = oracle_hit_series(&m, core, l)
                    .into_iter()
                    .map(|(t, v)| (t, v.to_bits()))
                    .collect();
                prop_assert_eq!(got, want);
            }
            for a in 0..CORES {
                for b in 0..CORES {
                    prop_assert_eq!(
                        bits(m.correlate_cores(a, b, l)),
                        bits(oracle_pearson_join(
                            oracle_hit_series(&m, a, l),
                            oracle_hit_series(&m, b, l),
                        ))
                    );
                }
            }
        }
        for a in 0..CORES {
            for b in 0..CORES {
                prop_assert_eq!(
                    bits(m.orthogonality(a, b)),
                    bits(oracle_pearson_join(m.ops_series(a), m.ops_series(b)))
                );
            }
        }
    }
}
