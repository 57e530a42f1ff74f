//! Property-based equivalence: the interned, columnar [`tsdb::Db`] must be
//! observationally identical to a naive row-oriented reference model under
//! arbitrary interleavings of ingests (in- and out-of-order timestamps),
//! range deletes, and queries. The reference model encodes the documented
//! semantics of `tests/edge_cases.rs`: half-open `[start, stop)` ranges,
//! reversed ranges match nothing, and query rows ordered by timestamp with
//! ties broken by canonical series-key order.
//!
//! The analysis primitives are checked the same way: `Query::sum_by_time`
//! against a `BTreeMap` fold of the model's rows, and `ops::join` against
//! a `BTreeMap` lookup.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tsdb::{ops, Db, Point};

/// Each measurement's fixed field set: every series of a measurement
/// declares the same columns, so every row carries all of them.
const MEASUREMENTS: &[(&str, &[&str])] = &[
    ("path_set", &["hits"]),
    ("vertex", &["occ"]),
    ("progress", &["hits", "occ"]),
];
const DSTS: &[&str] = &["L2", "LLC", "CXL Memory"];
const FIELDS: &[&str] = &["hits", "occ"];

/// Naive reference store: a flat list of points, queried by scan.
#[derive(Default)]
struct ModelDb {
    rows: Vec<Point>,
}

impl ModelDb {
    fn insert(&mut self, p: Point) {
        self.rows.push(p);
    }

    fn delete_range(&mut self, measurement: &str, start: u64, stop: u64) -> usize {
        if stop <= start {
            return 0;
        }
        let before = self.rows.len();
        self.rows
            .retain(|p| !(p.measurement == measurement && p.ts >= start && p.ts < stop));
        before - self.rows.len()
    }

    fn matches(p: &Point, measurement: &str, filters: &[(String, String)]) -> bool {
        p.measurement == measurement
            && filters
                .iter()
                .all(|(k, v)| p.tags.get(k).map(String::as_str) == Some(v.as_str()))
    }

    /// Query semantics: matching series visited in canonical key order,
    /// each series' rows in stable time order, then one stable global sort
    /// by timestamp (so ties keep key order).
    fn query(
        &self,
        measurement: &str,
        filters: &[(String, String)],
        start: u64,
        stop: u64,
    ) -> Vec<Point> {
        let mut keys: Vec<String> = self
            .rows
            .iter()
            .filter(|p| Self::matches(p, measurement, filters))
            .map(Point::series_key)
            .collect();
        keys.sort();
        keys.dedup();
        let mut out: Vec<Point> = Vec::new();
        for key in &keys {
            let mut pts: Vec<Point> = self
                .rows
                .iter()
                .filter(|p| {
                    Self::matches(p, measurement, filters)
                        && p.series_key() == *key
                        && p.ts >= start
                        && p.ts < stop
                })
                .cloned()
                .collect();
            pts.sort_by_key(|p| p.ts); // stable: insertion order survives ties
            out.extend(pts);
        }
        out.sort_by_key(|p| p.ts); // stable: key order survives ties
        out
    }

    fn n_series(&self) -> usize {
        let mut keys: Vec<String> = self.rows.iter().map(Point::series_key).collect();
        keys.sort();
        keys.dedup();
        keys.len()
    }
}

/// One scripted operation, decoded from a generated tuple.
fn apply_op(db: &mut Db, model: &mut ModelDb, op: &(u8, u8, u8, u8, u64, u64)) {
    let &(kind, m_idx, core, sel, ts, span) = op;
    let (measurement, fields) = MEASUREMENTS[m_idx as usize % MEASUREMENTS.len()];
    if kind % 8 == 7 {
        // Range delete. `span` may produce empty/huge windows — both are
        // interesting; reversed ranges are exercised via span == 0 plus the
        // explicit edge-case tests.
        let (start, stop) = (ts, ts.saturating_add(span));
        let a = db.delete_range(measurement, start, stop);
        let b = model.delete_range(measurement, start, stop);
        assert_eq!(a, b, "delete_range removed counts diverged");
        return;
    }
    // Ingest: tag grid (core, sometimes dst), the measurement's fields.
    let core = (core % 3).to_string();
    let mut tags = vec![("core", core.as_str())];
    if sel % 2 == 0 {
        tags.push(("dst", DSTS[sel as usize % DSTS.len()]));
    }
    let values: Vec<f64> = (0..fields.len())
        .map(|i| (ts as f64) * 0.5 + i as f64)
        .collect();
    let id = db.series_handle(measurement, &tags, fields);
    db.ingest(id, ts, &values);
    let mut p = Point::new(measurement, ts);
    for (k, v) in tags {
        p = p.tag(k, v);
    }
    for (f, v) in fields.iter().zip(values) {
        p = p.field(*f, v);
    }
    model.insert(p);
}

fn assert_same_points(actual: &[Point], expected: &[Point], what: &str) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "{what}: row count diverged (got {}, want {})",
        actual.len(),
        expected.len()
    );
    for (a, e) in actual.iter().zip(expected) {
        assert_eq!(a, e, "{what}: row diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_db_matches_reference_model(
        ops in proptest::collection::vec(
            (0u8..16, 0u8..4, 0u8..4, 0u8..8, 0u64..2_000, 0u64..1_000),
            1..120,
        ),
        q_start in 0u64..1_500,
        q_span in 0u64..1_500,
    ) {
        let mut db = Db::new();
        let mut model = ModelDb::default();
        for op in &ops {
            apply_op(&mut db, &mut model, op);
        }

        prop_assert_eq!(db.len(), model.rows.len());
        prop_assert_eq!(db.n_series(), model.n_series());

        let (start, stop) = (q_start, q_start.saturating_add(q_span));
        for &(m, _) in MEASUREMENTS {
            // Unfiltered, full-range and windowed queries.
            assert_same_points(
                &db.from(m).points(),
                &model.query(m, &[], 0, u64::MAX),
                "full query",
            );
            assert_same_points(
                &db.from(m).range(start, stop).points(),
                &model.query(m, &[], start, stop),
                "windowed query",
            );
            prop_assert_eq!(
                db.from(m).range(start, stop).count(),
                model.query(m, &[], start, stop).len()
            );
            // Tag-filtered query.
            let filters = vec![("core".to_string(), "1".to_string())];
            assert_same_points(
                &db.from(m).filter("core", "1").range(start, stop).points(),
                &model.query(m, &filters, start, stop),
                "filtered query",
            );
            // Field extraction: rows carrying the field, in row order.
            for &f in FIELDS {
                let got = db.from(m).range(start, stop).values(f);
                let want: Vec<(u64, f64)> = model
                    .query(m, &[], start, stop)
                    .iter()
                    .filter_map(|p| p.fields.get(f).map(|&v| (p.ts, v)))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}

/// `sum_by_time` oracle: fold the model's query rows (key order, then
/// stable time order) into a per-timestamp map, from 0.0.
fn sum_oracle(rows: &[Point], field: &str) -> Vec<(u64, f64)> {
    let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
    for p in rows {
        if let Some(&v) = p.fields.get(field) {
            *acc.entry(p.ts).or_insert(0.0) += v;
        }
    }
    acc.into_iter().collect()
}

/// `ops::join` oracle: look each point of `a` up in a map of `b` (the last
/// duplicate of a timestamp wins, as a map insert would have it).
fn join_oracle(a: &[(u64, f64)], b: &[(u64, f64)]) -> (Vec<f64>, Vec<f64>) {
    let mb: BTreeMap<u64, f64> = b.iter().copied().collect();
    a.iter()
        .filter_map(|&(ts, v)| mb.get(&ts).map(|&w| (v, w)))
        .unzip()
}

/// Bit patterns, so the comparison also pins the summation order.
fn bits(series: &[(u64, f64)]) -> Vec<(u64, u64)> {
    series.iter().map(|&(t, v)| (t, v.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Several series per scope (paths × two `app` labels per core),
    /// timestamps that repeat inside and across series, occasional
    /// back-dated rows (out-of-order series), windowed and unwindowed
    /// queries, and a core no row ever names (an empty scope).
    #[test]
    fn sum_by_time_and_join_match_btreemap_oracles(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..2, 0u8..3, 0u8..16, 0u64..400, 0u64..1_000),
            0..160,
        ),
        q_start in 0u64..80,
        q_span in 0u64..100,
    ) {
        let mut db = Db::new();
        let mut model = ModelDb::default();
        for (i, &(core, app, path, back, back_ts, v)) in ops.iter().enumerate() {
            // Mostly a shared, non-decreasing grid with duplicates; one row
            // in sixteen is back-dated.
            let ts = if back == 0 { back_ts % 60 } else { i as u64 / 2 };
            let (core, app, path) = (core.to_string(), ["a", "b"][app as usize], path.to_string());
            let tags = [("core", core.as_str()), ("app", app), ("path", path.as_str())];
            // Non-integer values: only an identical summation order gives
            // identical bits.
            let value = v as f64 * 0.1;
            let id = db.series_handle("path_set", &tags, &["hits"]);
            db.ingest(id, ts, &[value]);
            let mut p = Point::new("path_set", ts).field("hits", value);
            for (k, v) in tags {
                p = p.tag(k, v);
            }
            model.insert(p);
        }

        let (start, stop) = (q_start, q_start.saturating_add(q_span));
        for core in ["0", "1", "2", "3"] {
            let filters = vec![("core".to_string(), core.to_string())];
            let got = db.from("path_set").filter("core", core).sum_by_time("hits");
            let want = sum_oracle(&model.query("path_set", &filters, 0, u64::MAX), "hits");
            prop_assert_eq!(bits(&got), bits(&want));
            let got = db
                .from("path_set")
                .filter("core", core)
                .range(start, stop)
                .sum_by_time("hits");
            let want = sum_oracle(&model.query("path_set", &filters, start, stop), "hits");
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert!(db.from("path_set").filter("core", core).sum_by_time("nope").is_empty());
        }
        let got = db.from("path_set").filter("app", "a").sum_by_time("hits");
        let filters = vec![("app".to_string(), "a".to_string())];
        let want = sum_oracle(&model.query("path_set", &filters, 0, u64::MAX), "hits");
        prop_assert_eq!(bits(&got), bits(&want));

        // Join every pair of scopes: summed (distinct timestamps) and raw
        // `values` (duplicate timestamps on either side).
        for a in ["0", "1", "3"] {
            for b in ["0", "1", "2", "3"] {
                let sa = db.from("path_set").filter("core", a).sum_by_time("hits");
                let sb = db.from("path_set").filter("core", b).sum_by_time("hits");
                prop_assert_eq!(ops::join(&sa, &sb), join_oracle(&sa, &sb));
                let va = db.from("path_set").filter("core", a).values("hits");
                let vb = db.from("path_set").filter("core", b).values("hits");
                prop_assert_eq!(ops::join(&va, &vb), join_oracle(&va, &vb));
            }
        }
    }
}
