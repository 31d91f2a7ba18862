//! A first-order DRAM timing model.
//!
//! The paper's evaluation does not hinge on detailed DRAM behavior, so the
//! model is deliberately simple: a fixed access latency plus a per-channel
//! bandwidth constraint. Each access occupies its (address-interleaved)
//! channel for a fixed service time; accesses queue FIFO behind earlier
//! ones on the same channel.

use stashdir_common::{BlockAddr, Counter, Cycle, StatSink};

/// Configuration for [`DramModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency from request arrival to data return, unloaded (cycles).
    pub latency: u64,
    /// Number of independent channels (address-interleaved by block).
    pub channels: usize,
    /// Channel occupancy per access (cycles); `0` models infinite bandwidth.
    pub service_time: u64,
}

impl Default for DramConfig {
    /// 160-cycle latency, 4 channels, 16-cycle service time — the
    /// reconstructed 16-core model of the paper.
    fn default() -> Self {
        DramConfig {
            latency: 160,
            channels: 4,
            service_time: 16,
        }
    }
}

/// Tracks channel occupancy and answers "when will this access complete?".
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, Cycle};
/// use stashdir_mem::dram::{DramConfig, DramModel};
///
/// let mut dram = DramModel::new(DramConfig { latency: 100, channels: 1, service_time: 10 });
/// let b = BlockAddr::new(0);
/// let first = dram.access(b, Cycle::ZERO);
/// let second = dram.access(b, Cycle::ZERO); // queued behind the first
/// assert_eq!(first.get(), 100);
/// assert_eq!(second.get(), 110);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    busy_until: Vec<Cycle>,
    /// Total accesses served.
    pub accesses: Counter,
    /// Cycles spent queued behind earlier accesses, summed over accesses.
    pub queue_cycles: Counter,
}

impl DramModel {
    /// Creates a model from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "need at least one DRAM channel");
        DramModel {
            busy_until: vec![Cycle::ZERO; config.channels],
            config,
            accesses: Counter::new(),
            queue_cycles: Counter::new(),
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Issues an access to `block` at time `now`; returns the completion
    /// time (data available).
    #[expect(
        clippy::indexing_slicing,
        reason = "`ch` is `% channels`, always in bounds"
    )]
    pub fn access(&mut self, block: BlockAddr, now: Cycle) -> Cycle {
        let ch = (block.get() % self.config.channels as u64) as usize;
        let start = now.max(self.busy_until[ch]);
        self.queue_cycles.add(start - now);
        self.busy_until[ch] = start + self.config.service_time;
        self.accesses.incr();
        start + self.config.latency
    }

    /// Exports counters under `prefix.` into `sink`.
    pub fn export(&self, prefix: &str, sink: &mut StatSink) {
        sink.put_counter(format!("{prefix}.accesses"), self.accesses);
        sink.put_counter(format!("{prefix}.queue_cycles"), self.queue_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(latency: u64, channels: usize, service: u64) -> DramModel {
        DramModel::new(DramConfig {
            latency,
            channels,
            service_time: service,
        })
    }

    #[test]
    fn unloaded_access_takes_latency() {
        let mut d = model(100, 2, 10);
        assert_eq!(d.access(BlockAddr::new(0), Cycle::new(50)).get(), 150);
    }

    #[test]
    fn same_channel_serializes() {
        let mut d = model(100, 1, 10);
        let t1 = d.access(BlockAddr::new(0), Cycle::ZERO);
        let t2 = d.access(BlockAddr::new(1), Cycle::ZERO);
        assert_eq!(t1.get(), 100);
        assert_eq!(t2.get(), 110);
        assert_eq!(d.queue_cycles.get(), 10);
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut d = model(100, 2, 10);
        let t1 = d.access(BlockAddr::new(0), Cycle::ZERO);
        let t2 = d.access(BlockAddr::new(1), Cycle::ZERO);
        assert_eq!(t1.get(), 100);
        assert_eq!(t2.get(), 100);
        assert_eq!(d.queue_cycles.get(), 0);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut d = model(100, 1, 10);
        d.access(BlockAddr::new(0), Cycle::ZERO);
        let t = d.access(BlockAddr::new(1), Cycle::new(1000));
        assert_eq!(t.get(), 1100);
    }

    #[test]
    fn zero_service_time_is_infinite_bandwidth() {
        let mut d = model(100, 1, 0);
        let t1 = d.access(BlockAddr::new(0), Cycle::ZERO);
        let t2 = d.access(BlockAddr::new(1), Cycle::ZERO);
        assert_eq!(t1, t2);
    }

    #[test]
    fn counters_and_export() {
        let mut d = model(100, 1, 10);
        d.access(BlockAddr::new(0), Cycle::ZERO);
        d.access(BlockAddr::new(1), Cycle::ZERO);
        let mut sink = StatSink::new();
        d.export("dram", &mut sink);
        assert_eq!(sink.get("dram.accesses"), Some(2.0));
        assert_eq!(sink.get("dram.queue_cycles"), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "at least one DRAM channel")]
    fn zero_channels_panics() {
        let _ = model(100, 0, 10);
    }
}
