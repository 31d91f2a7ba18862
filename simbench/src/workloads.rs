//! The benchmark's workloads: one simulator case each, all at 1/8
//! directory coverage. Every case starts with empty caches.

use stashdir::{CoverageRatio, DirSpec, SystemConfig, Workload};

/// Directory organisation of a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Stash,
    Sparse,
}

/// One benchmark workload: which traces, on which machine, at what size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub name: &'static str,
    pub workload: Workload,
    pub cores: u16,
    pub ops: usize,
    pub dir: Dir,
}

/// The five workloads, with the reason each is here.
pub const CASES: [Case; 5] = [
    // The ROADMAP's E9 point. Private streaming: directory installs and
    // silent evictions, zero discoveries. The no-change control for any
    // discovery or probe change.
    Case {
        name: "e9_dp64_stash",
        workload: Workload::DataParallel,
        cores: 64,
        ops: 10_000,
        dir: Dir::Stash,
    },
    // Discovery-dominated: tens of thousands of 63-probe rounds. Shows
    // gains in discovery, NoC send and private probe handling.
    Case {
        name: "canneal64_stash",
        workload: Workload::Canneal,
        cores: 64,
        ops: 4_000,
        dir: Dir::Stash,
    },
    // The same traces on sparse: invalidating evictions, zero
    // discoveries. The bypass twin of `canneal64_stash`.
    Case {
        name: "canneal64_sparse",
        workload: Workload::Canneal,
        cores: 64,
        ops: 4_000,
        dir: Dir::Sparse,
    },
    // A write-shared footprint that fits in the caches: no directory
    // evictions, all FwdGetM/Inv rounds through `decide` and probes.
    Case {
        name: "uniform64_stash",
        workload: Workload::Uniform,
        cores: 64,
        ops: 10_000,
        dir: Dir::Stash,
    },
    // The E20 point: a 32x32 mesh with n^2 per-channel state. Shows
    // set-up time, peak memory, and event-queue and NoC scale effects.
    Case {
        name: "e20_dp1024_stash",
        workload: Workload::DataParallel,
        cores: 1024,
        ops: 600,
        dir: Dir::Stash,
    },
];

impl Case {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Case> {
        CASES.iter().copied().find(|c| c.name == name)
    }

    /// The machine the case runs on.
    pub fn config(&self) -> SystemConfig {
        let coverage = CoverageRatio::new(1, 8);
        let dir = match self.dir {
            Dir::Stash => DirSpec::stash(coverage),
            Dir::Sparse => DirSpec::sparse(coverage),
        };
        SystemConfig::default().with_cores(self.cores).with_dir(dir)
    }

    /// The same case shrunk to `cores` x `ops`, for in-process tests.
    #[cfg(test)]
    pub fn scaled(self, cores: u16, ops: usize) -> Case {
        Case { cores, ops, ..self }
    }
}
