//! Fixture fault summary, fully registered in the fixture artifact
//! module — this file stays clean.

pub struct FaultSummary {
    pub injected: u64,
    pub detected: u64,
}
