//! Records: a measurement name, a timestamp, tags, and numeric fields.
//!
//! `Point` is the row type [`crate::Query::points`] materialises from the
//! columnar store. Data goes in through [`crate::Db::series_handle`] and
//! [`crate::Db::ingest`]; the builder methods here only assemble rows,
//! e.g. the expected rows of a test.

use std::collections::BTreeMap;

/// One record. Tags index series membership (small cardinality, exact
/// match); fields carry the counter values.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    pub measurement: String,
    /// Timestamp (the simulator uses machine cycles).
    pub ts: u64,
    pub tags: BTreeMap<String, String>,
    pub fields: BTreeMap<String, f64>,
}

impl Point {
    pub fn new(measurement: impl Into<String>, ts: u64) -> Point {
        Point {
            measurement: measurement.into(),
            ts,
            tags: BTreeMap::new(),
            fields: BTreeMap::new(),
        }
    }

    /// Add a tag (builder style).
    pub fn tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Point {
        self.tags.insert(key.into(), value.into());
        self
    }

    /// Add a field (builder style).
    pub fn field(mut self, key: impl Into<String>, value: f64) -> Point {
        self.fields.insert(key.into(), value);
        self
    }

    /// The series key: measurement plus the sorted tag set.
    pub fn series_key(&self) -> String {
        let mut key = self.measurement.clone();
        for (k, v) in &self.tags {
            key.push(',');
            key.push_str(k);
            key.push('=');
            key.push_str(v);
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_tags_and_fields() {
        let p = Point::new("path_set", 100)
            .tag("pid", "7")
            .tag("dst", "LLC")
            .field("hits", 42.0);
        assert_eq!(p.ts, 100);
        assert_eq!(p.tags["dst"], "LLC");
        assert_eq!(p.fields["hits"], 42.0);
    }

    #[test]
    fn series_key_is_tag_order_independent() {
        let a = Point::new("m", 0).tag("b", "2").tag("a", "1");
        let b = Point::new("m", 9).tag("a", "1").tag("b", "2");
        assert_eq!(a.series_key(), b.series_key());
    }

    #[test]
    fn different_tags_different_series() {
        let a = Point::new("m", 0).tag("core", "0");
        let b = Point::new("m", 0).tag("core", "1");
        assert_ne!(a.series_key(), b.series_key());
    }
}
