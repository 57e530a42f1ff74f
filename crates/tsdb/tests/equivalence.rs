//! Property-based equivalence: the interned, columnar [`tsdb::Db`] must be
//! observationally identical to a naive row-oriented reference model under
//! arbitrary interleavings of ingests (in- and out-of-order timestamps),
//! range deletes, and queries. The reference model encodes the documented
//! semantics of `tests/edge_cases.rs`: half-open `[start, stop)` ranges,
//! reversed ranges match nothing, and query rows ordered by timestamp with
//! ties broken by canonical series-key order.

use proptest::prelude::*;
use tsdb::{Db, Point};

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
