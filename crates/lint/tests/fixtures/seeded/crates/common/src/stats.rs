//! Fixture stats structs whose fields are all properly registered in
//! their merge paths — this file stays clean.

use std::collections::BTreeMap;

pub struct Histogram {
    pub counts: Vec<u64>,
}

impl Histogram {
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
    }
}

pub struct StatSink {
    pub values: BTreeMap<String, f64>,
}

impl StatSink {
    pub fn merge(&mut self, other: &StatSink) {
        for (key, &v) in &other.values {
            *self.values.entry(key.clone()).or_insert(0.0) += v;
        }
    }
}
