//! A fixture stats struct whose fields are all registered in its merge
//! path — this file stays clean.

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
