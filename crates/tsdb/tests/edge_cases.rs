//! Edge cases of the store and query layer: degenerate ranges, singleton
//! series, and deletes that leave the rest of the store untouched.

use tsdb::Db;

fn seeded() -> Db {
    let mut db = Db::new();
    let core0 = db.series_handle("path_set", &[("core", "0")], &["hits"]);
    for t in 0..10u64 {
        db.ingest(core0, t * 100, &[t as f64]);
    }
    let l2 = db.series_handle("vertex", &[("hw", "L2")], &["occ"]);
    db.ingest(l2, 42, &[1.0]);
    db
}

#[test]
fn empty_range_matches_nothing() {
    let db = seeded();
    assert_eq!(db.from("path_set").range(500, 500).count(), 0);
    assert!(db.from("path_set").range(0, 0).points().is_empty());
    assert!(db
        .from("path_set")
        .range(500, 500)
        .values("hits")
        .is_empty());
}

#[test]
fn reversed_range_matches_nothing() {
    let db = seeded();
    assert_eq!(db.from("path_set").range(900, 100).count(), 0);
    assert!(db.from("path_set").range(u64::MAX, 0).points().is_empty());
}

#[test]
fn single_point_series_is_queryable_at_its_timestamp() {
    let db = seeded();
    // [ts, ts+1) is the tightest half-open window that can hold the point.
    let pts = db.from("vertex").range(42, 43).points();
    assert_eq!(pts.len(), 1);
    assert_eq!(pts[0].ts, 42);
    assert_eq!(db.from("vertex").range(43, 44).count(), 0);
    assert_eq!(db.from("vertex").values("occ"), vec![(42, 1.0)]);
}

#[test]
fn delete_range_removes_only_the_window() {
    let mut db = seeded();
    // Points live at t = 0, 100, ..., 900; delete [200, 500) → 200/300/400.
    let removed = db.delete_range("path_set", 200, 500);
    assert_eq!(removed, 3);
    assert_eq!(db.from("path_set").count(), 7);
    assert_eq!(db.from("path_set").range(200, 500).count(), 0);
    // The other measurement is untouched.
    assert_eq!(db.from("vertex").count(), 1);
    assert_eq!(db.len(), 8);
}

#[test]
fn delete_with_degenerate_range_is_a_no_op() {
    let mut db = seeded();
    let before = db.resident_bytes();
    assert_eq!(db.delete_range("path_set", 500, 500), 0);
    assert_eq!(db.delete_range("path_set", 900, 100), 0);
    assert_eq!(db.delete_range("nope", 0, u64::MAX), 0);
    assert_eq!(db.len(), 11);
    assert_eq!(db.resident_bytes(), before);
}

#[test]
fn deleted_window_can_be_repopulated() {
    let mut db = seeded();
    db.delete_range("path_set", 0, u64::MAX);
    assert_eq!(db.from("path_set").count(), 0);
    let core0 = db.series_handle("path_set", &[("core", "0")], &["hits"]);
    db.ingest(core0, 100, &[9.0]);
    assert_eq!(db.from("path_set").values("hits"), vec![(100, 9.0)]);
}
