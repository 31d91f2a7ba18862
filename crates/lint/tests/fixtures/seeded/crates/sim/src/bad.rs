//! Fixture with two seeded directive defects, neither of which
//! suppresses anything.

pub fn retired(v: &[u32]) -> u32 {
    // Seeded unknown rule: panic hygiene is clippy's (`unwrap_used`,
    // `expect_used`, `indexing_slicing`), so a leftover comment directive
    // naming one of its old rules must not linger.
    // lint: allow(unwrap)
    v.first().copied().unwrap_or(0)
}

pub fn fine(v: &[u32]) -> u32 {
    // Seeded stale directive: nothing here is on an artifact-export
    // path, so this suppresses nothing and must be flagged as unused.
    // lint: allow(determinism)
    v.get(1).copied().unwrap_or(0)
}
