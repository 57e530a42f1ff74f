//! The store: interned, columnar series addressed by [`SeriesId`].
//!
//! A series is identified by (measurement, tag set) and holds its data as
//! columns — one `Vec<u64>` of timestamps plus one `Vec<f64>` per field.
//! A series' fields are fixed when it is first resolved
//! ([`Db::series_handle`]) and every row carries all of them. All strings
//! live in the [`Interner`]; the ingest path ([`Db::ingest`]) works purely
//! on resolved [`SeriesId`] handles and appends to columns, so it performs
//! zero string formatting and zero map insertion per record.
//!
//! [`Db::resident_bytes`] is the store's one memory number: the heap bytes
//! of the columnar layout, which the profiler reports as its §5.9 memory
//! overhead.

use std::collections::BTreeMap;

use crate::intern::{Interner, Symbol};
use crate::point::Point;
use crate::query::Query;

/// A resolved series handle: a dense index, stable for the lifetime of the
/// `Db` (deletes empty a series but never invalidate its handle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(u32);

impl SeriesId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One field column: values aligned to the series' rows.
#[derive(Debug)]
struct FieldCol {
    name: Symbol,
    values: Vec<f64>,
}

/// One series: interned identity plus columnar data.
#[derive(Debug)]
struct Series {
    measurement: Symbol,
    /// Tag pairs in tag-key order (the canonical series-key order).
    tags: Vec<(Symbol, Symbol)>,
    ts: Vec<u64>,
    cols: Vec<FieldCol>,
    /// False once a row arrived with a timestamp below its predecessor;
    /// queries then fall back to a stable sort (lazy sort-on-query).
    sorted: bool,
}

impl Series {
    fn len(&self) -> usize {
        self.ts.len()
    }
}

/// Row indices of one series restricted to a time range, in stable time
/// order. In-order series answer with a contiguous index range found by
/// binary search — no sort, no allocation; out-of-order series fall back
/// to a stable permutation.
enum Rows {
    Sorted(std::ops::Range<usize>),
    Perm(Vec<u32>),
}

impl Rows {
    fn for_each(self, mut f: impl FnMut(usize)) {
        match self {
            Rows::Sorted(r) => r.for_each(&mut f),
            Rows::Perm(p) => p.into_iter().for_each(|i| f(i as usize)),
        }
    }

    fn count(&self) -> usize {
        match self {
            Rows::Sorted(r) => r.len(),
            Rows::Perm(p) => p.len(),
        }
    }

    /// The row index at position `k` of the time order.
    fn row(&self, k: usize) -> usize {
        match self {
            Rows::Sorted(r) => r.start + k,
            Rows::Perm(p) => p[k] as usize,
        }
    }
}

/// One series' field column walked in time order: the merge input of
/// [`Db::sum_by_time`].
struct Cursor<'a> {
    ts: &'a [u64],
    values: &'a [f64],
    rows: Rows,
    next: usize,
}

impl Cursor<'_> {
    fn peek_ts(&self) -> Option<u64> {
        (self.next < self.rows.count()).then(|| self.ts[self.rows.row(self.next)])
    }

    fn take_value(&mut self) -> f64 {
        let v = self.values[self.rows.row(self.next)];
        self.next += 1;
        v
    }
}

/// An in-memory time-series database.
#[derive(Debug, Default)]
pub struct Db {
    interner: Interner,
    /// `SeriesId::index()` → series, in creation order.
    series: Vec<Series>,
    /// Canonical series key → id. BTreeMap so scans visit series in key
    /// order: records with tied timestamps from different series surface
    /// in key order, never hash order.
    index: BTreeMap<String, SeriesId>,
    points: usize,
}

impl Db {
    pub fn new() -> Db {
        Db::default()
    }

    /// Resolve (creating if needed) the series for `measurement` + `tags`
    /// with the field columns `fields`. The returned handle stays valid for
    /// the lifetime of the `Db` — resolve once, then [`Db::ingest`] each
    /// epoch with no per-record string work at all.
    ///
    /// `tags` may arrive in any order (they are canonicalised by key);
    /// `fields` fixes the column order that [`Db::ingest`] values follow.
    /// A series' fields are fixed by its first resolution: resolving it
    /// again with a different field list panics. A handle-created series is
    /// invisible (not scanned, not counted) until its first row arrives.
    pub fn series_handle(
        &mut self,
        measurement: &str,
        tags: &[(&str, &str)],
        fields: &[&str],
    ) -> SeriesId {
        let mut sorted_tags: Vec<(&str, &str)> = tags.to_vec();
        sorted_tags.sort_by_key(|&(k, _)| k);
        let mut key = String::from(measurement);
        for (k, v) in &sorted_tags {
            key.push(',');
            key.push_str(k);
            key.push('=');
            key.push_str(v);
        }
        if let Some(&id) = self.index.get(&key) {
            let cols = &self.series[id.index()].cols;
            assert!(
                cols.len() == fields.len()
                    && cols
                        .iter()
                        .zip(fields)
                        .all(|(c, f)| self.interner.resolve(c.name) == *f),
                "series `{key}` re-resolved with a different field list"
            );
            return id;
        }
        let m = self.interner.intern(measurement);
        let tags: Vec<(Symbol, Symbol)> = sorted_tags
            .iter()
            .map(|&(k, v)| (self.interner.intern(k), self.interner.intern(v)))
            .collect();
        let cols: Vec<FieldCol> = fields
            .iter()
            .map(|f| FieldCol {
                name: self.interner.intern(f),
                values: Vec::new(),
            })
            .collect();
        assert!(self.series.len() < u32::MAX as usize, "series id overflow");
        let id = SeriesId(self.series.len() as u32);
        self.series.push(Series {
            measurement: m,
            tags,
            ts: Vec::new(),
            cols,
            sorted: true,
        });
        self.index.insert(key, id);
        id
    }

    /// Append one record to a resolved series. `values` follow the series'
    /// declared column order and must cover every column. Pure column
    /// appends: no string formatting, no map insertion, no per-record
    /// allocation once capacity is reserved ([`Db::reserve`]). Out-of-order
    /// timestamps within a series are kept but sorted lazily on query.
    // pflint::hot
    pub fn ingest(&mut self, id: SeriesId, ts: u64, values: &[f64]) {
        let s = &mut self.series[id.index()];
        assert_eq!(
            values.len(),
            s.cols.len(),
            "ingest values must cover every declared column"
        );
        let was_empty = s.ts.is_empty();
        if !was_empty && ts < s.ts[s.ts.len() - 1] {
            s.sorted = false;
        }
        s.ts.push(ts);
        for (c, &v) in s.cols.iter_mut().zip(values) {
            c.values.push(v);
        }
        self.points += 1;
        if was_empty {
            obs::metrics::counter_add("tsdb.series", 1);
        }
        obs::metrics::counter_add("tsdb.points", 1);
    }

    /// Pre-reserve capacity for `additional` rows of `id` (timestamps and
    /// every column), so a known batch of [`Db::ingest`] calls performs
    /// zero allocations.
    pub fn reserve(&mut self, id: SeriesId, additional: usize) {
        let s = &mut self.series[id.index()];
        s.ts.reserve(additional);
        for c in &mut s.cols {
            c.values.reserve(additional);
        }
    }

    /// Total points stored.
    pub fn len(&self) -> usize {
        self.points
    }

    pub fn is_empty(&self) -> bool {
        self.points == 0
    }

    /// Number of distinct live (non-empty) series. Handle-created series
    /// without rows, and series emptied by [`Db::delete_range`], don't
    /// count.
    pub fn n_series(&self) -> usize {
        self.series.iter().filter(|s| !s.ts.is_empty()).count()
    }

    /// Start a query against a measurement (Flux: `from(bucket)`).
    pub fn from(&self, measurement: &str) -> Query<'_> {
        Query::new(self, measurement)
    }

    /// Heap bytes of the columnar layout: interner table, series index,
    /// and every column's capacity. Strings are stored once, not per
    /// record, so this is dominated by the series grid and the columns.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.interner.resident_bytes();
        for (key, _) in self.index.iter() {
            bytes += key.len() + size_of::<(String, SeriesId)>();
        }
        bytes += self.series.capacity() * size_of::<Series>();
        for s in &self.series {
            bytes += s.ts.capacity() * size_of::<u64>();
            bytes += s.cols.capacity() * size_of::<FieldCol>();
            for c in &s.cols {
                bytes += c.values.capacity() * size_of::<f64>();
            }
        }
        bytes
    }

    /// Delete every point of `measurement` with a timestamp in
    /// `[start, stop)` (Flux `delete(start:, stop:)`); returns the number
    /// of points removed. An emptied series keeps its handle and may be
    /// repopulated. A reversed or empty range deletes nothing.
    pub fn delete_range(&mut self, measurement: &str, start: u64, stop: u64) -> usize {
        let _span = obs::span!("tsdb.delete");
        if stop <= start {
            return 0;
        }
        let Some(m) = self.interner.lookup(measurement) else {
            return 0;
        };
        let mut removed = 0usize;
        for s in self.series.iter_mut() {
            if s.measurement != m || s.ts.is_empty() {
                continue;
            }
            let n = s.ts.len();
            let mut kept = 0usize;
            for i in 0..n {
                let t = s.ts[i];
                if t >= start && t < stop {
                    removed += 1;
                } else {
                    if kept != i {
                        s.ts[kept] = t;
                        for c in s.cols.iter_mut() {
                            c.values[kept] = c.values[i];
                        }
                    }
                    kept += 1;
                }
            }
            if kept != n {
                s.ts.truncate(kept);
                for c in s.cols.iter_mut() {
                    c.values.truncate(kept);
                }
            }
        }
        self.points -= removed;
        if removed > 0 {
            obs::metrics::counter_add("tsdb.deleted", removed as u64);
        }
        removed
    }

    // -----------------------------------------------------------------
    // Query plumbing (crate-internal, used by `query::Query`)
    // -----------------------------------------------------------------

    /// Live series of `measurement` whose tag set satisfies every
    /// `filters` pair, in canonical key order. A measurement, tag key, or
    /// tag value the store has never interned matches nothing.
    pub(crate) fn matching_series(
        &self,
        measurement: &str,
        filters: &[(String, String)],
    ) -> Vec<SeriesId> {
        let Some(m) = self.interner.lookup(measurement) else {
            return Vec::new();
        };
        let mut fsyms = Vec::with_capacity(filters.len());
        for (k, v) in filters {
            let (Some(ks), Some(vs)) = (self.interner.lookup(k), self.interner.lookup(v)) else {
                return Vec::new();
            };
            fsyms.push((ks, vs));
        }
        self.index
            .values()
            .copied()
            .filter(|id| {
                let s = &self.series[id.index()];
                s.measurement == m
                    && !s.ts.is_empty()
                    && fsyms
                        .iter()
                        .all(|&(k, v)| s.tags.iter().any(|&(tk, tv)| tk == k && tv == v))
            })
            .collect()
    }

    /// Resolve a field name without interning.
    pub(crate) fn field_symbol(&self, field: &str) -> Option<Symbol> {
        self.interner.lookup(field)
    }

    /// Row indices of `id` within `range`, in stable time order (lazy
    /// sort-on-query: in-order series binary-search their bounds).
    fn rows_in(&self, id: SeriesId, range: Option<(u64, u64)>) -> Rows {
        let s = &self.series[id.index()];
        if s.sorted {
            let (lo, hi) = match range {
                Some((start, stop)) => (
                    s.ts.partition_point(|&t| t < start),
                    s.ts.partition_point(|&t| t < stop),
                ),
                None => (0, s.len()),
            };
            Rows::Sorted(lo..hi.max(lo))
        } else {
            let mut perm: Vec<u32> = (0..s.len() as u32)
                .filter(|&i| match range {
                    Some((start, stop)) => {
                        let t = s.ts[i as usize];
                        t >= start && t < stop
                    }
                    None => true,
                })
                .collect();
            perm.sort_by_key(|&i| s.ts[i as usize]);
            Rows::Perm(perm)
        }
    }

    /// Append `(ts, value)` pairs of one series/field to `out`, in time
    /// order; a series without the field appends nothing. Returns true when
    /// anything was appended.
    pub(crate) fn collect_values(
        &self,
        id: SeriesId,
        field: Symbol,
        range: Option<(u64, u64)>,
        out: &mut Vec<(u64, f64)>,
    ) -> bool {
        let s = &self.series[id.index()];
        let Some(col) = s.cols.iter().find(|c| c.name == field) else {
            return false;
        };
        let before = out.len();
        self.rows_in(id, range)
            .for_each(|i| out.push((s.ts[i], col.values[i])));
        out.len() > before
    }

    /// [`Query::sum_by_time`] over `ids` (in key order): a k-way merge of
    /// their time-ordered rows. It allocates the cursor list, the output
    /// and any out-of-order series' permutation, never per point.
    pub(crate) fn sum_by_time(
        &self,
        ids: &[SeriesId],
        field: Symbol,
        range: Option<(u64, u64)>,
    ) -> Vec<(u64, f64)> {
        let mut cursors: Vec<Cursor<'_>> = ids
            .iter()
            .filter_map(|&id| {
                let s = &self.series[id.index()];
                let col = s.cols.iter().find(|c| c.name == field)?;
                Some(Cursor {
                    ts: &s.ts,
                    values: &col.values,
                    rows: self.rows_in(id, range),
                    next: 0,
                })
            })
            .collect();
        // At most one output row per input row: no growth while merging.
        let mut out = Vec::with_capacity(cursors.iter().map(|c| c.rows.count()).sum());
        while let Some(t) = cursors.iter().filter_map(Cursor::peek_ts).min() {
            let mut sum = 0.0;
            for c in &mut cursors {
                while c.peek_ts() == Some(t) {
                    sum += c.take_value();
                }
            }
            out.push((t, sum));
        }
        out.shrink_to_fit();
        out
    }

    /// Reconstruct one series' rows as [`Point`]s in time order, appended
    /// to `out`. Returns true when anything was appended.
    pub(crate) fn collect_points(
        &self,
        id: SeriesId,
        range: Option<(u64, u64)>,
        out: &mut Vec<Point>,
    ) -> bool {
        let s = &self.series[id.index()];
        let before = out.len();
        self.rows_in(id, range).for_each(|i| {
            let mut p = Point::new(self.interner.resolve(s.measurement), s.ts[i]);
            for &(k, v) in &s.tags {
                p.tags.insert(
                    self.interner.resolve(k).to_string(),
                    self.interner.resolve(v).to_string(),
                );
            }
            for c in &s.cols {
                p.fields
                    .insert(self.interner.resolve(c.name).to_string(), c.values[i]);
            }
            out.push(p);
        });
        out.len() > before
    }

    /// Count one series' rows within `range`.
    pub(crate) fn count_rows(&self, id: SeriesId, range: Option<(u64, u64)>) -> usize {
        self.rows_in(id, range).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Db {
        let mut db = Db::new();
        let core0 = db.series_handle("path_set", &[("core", "0")], &["hits"]);
        let core1 = db.series_handle("path_set", &[("core", "1")], &["hits"]);
        let l2 = db.series_handle("vertex", &[("hw", "L2")], &["occ"]);
        for t in 0..10u64 {
            db.ingest(core0, t * 100, &[t as f64]);
            db.ingest(core1, t * 100, &[2.0 * t as f64]);
            db.ingest(l2, t * 100, &[1.0]);
        }
        db
    }

    #[test]
    fn insert_and_count() {
        let db = sample_db();
        assert_eq!(db.len(), 30);
        assert_eq!(db.n_series(), 3);
    }

    #[test]
    fn scan_filters_by_measurement() {
        let db = sample_db();
        assert_eq!(db.from("path_set").count(), 20);
        assert_eq!(db.from("vertex").count(), 10);
        assert_eq!(db.from("nope").count(), 0);
    }

    #[test]
    fn handles_are_stable_across_delete_and_repopulate() {
        let mut db = Db::new();
        let h = db.series_handle("m", &[("core", "0")], &["x"]);
        db.ingest(h, 10, &[1.0]);
        db.ingest(h, 20, &[2.0]);
        assert_eq!(db.delete_range("m", 0, u64::MAX), 2);
        assert_eq!(db.n_series(), 0);
        assert!(db.is_empty());
        // The handle survives the delete.
        db.ingest(h, 30, &[3.0]);
        assert_eq!(db.from("m").values("x"), vec![(30, 3.0)]);
        assert_eq!(db.n_series(), 1);
    }

    #[test]
    fn handle_created_series_is_invisible_until_populated() {
        let mut db = Db::new();
        let h = db.series_handle("m", &[("core", "0")], &["x"]);
        assert_eq!(db.n_series(), 0);
        assert!(db.is_empty());
        assert_eq!(db.from("m").count(), 0);
        db.ingest(h, 0, &[1.0]);
        assert_eq!(db.n_series(), 1);
    }

    #[test]
    fn series_handle_canonicalises_tag_order() {
        let mut db = Db::new();
        let a = db.series_handle("m", &[("b", "2"), ("a", "1")], &["x"]);
        let b = db.series_handle("m", &[("a", "1"), ("b", "2")], &["x"]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "re-resolved with a different field list")]
    fn re_resolving_a_series_with_different_fields_panics() {
        let mut db = Db::new();
        db.series_handle("m", &[("core", "0")], &["x"]);
        db.series_handle("m", &[("core", "0")], &["x", "y"]);
    }

    #[test]
    fn reserve_then_ingest_is_queryable() {
        let mut db = Db::new();
        let h = db.series_handle("m", &[], &["x", "y"]);
        db.reserve(h, 100);
        for t in 0..100u64 {
            db.ingest(h, t, &[t as f64, 2.0 * t as f64]);
        }
        assert_eq!(db.from("m").values("y").len(), 100);
        assert_eq!(db.from("m").range(10, 20).count(), 10);
    }

    #[test]
    fn resident_bytes_tracks_the_columnar_heap() {
        let mut db = Db::new();
        let h = db.series_handle("path_set", &[("core", "0"), ("app", "fft")], &["hits"]);
        let empty = db.resident_bytes();
        assert!(empty > 0, "the interned series key is resident");
        for t in 0..1000u64 {
            db.ingest(h, t, &[t as f64]);
        }
        // One timestamp and one value per row, strings stored once.
        let rows = 1000 * (std::mem::size_of::<u64>() + std::mem::size_of::<f64>());
        let resident = db.resident_bytes();
        assert!(
            resident >= empty + rows && resident < empty + 2 * rows,
            "resident {resident} vs empty {empty} + rows {rows}"
        );
    }
}
