//! The workload suite: one named entry point per sharing archetype.

use crate::gen;
use stashdir_common::MemOp;
use std::fmt;

/// A named synthetic workload.
///
/// Each variant mimics the sharing archetype of a SPLASH-2/PARSEC
/// benchmark family (see the module docs of the corresponding
/// [`crate::gen`] submodule).
///
/// # Examples
///
/// ```
/// use stashdir_workloads::Workload;
///
/// for w in Workload::suite() {
///     let traces = w.generate(4, 100, 1);
///     assert_eq!(traces.len(), 4, "{w}");
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Blackscholes-like private streaming (`gen::data_parallel`).
    DataParallel,
    /// Ocean/fluidanimate-like grid solver (`gen::stencil`).
    Stencil,
    /// FFT-like phased all-to-all (`gen::fft`).
    Fft,
    /// LU-like one-to-many pivot sharing (`gen::lu`).
    Lu,
    /// Canneal-like pointer chasing (`gen::canneal`).
    Canneal,
    /// Paired ring buffers (`gen::producer_consumer`).
    ProducerConsumer,
    /// Ring pipeline of stages (`gen::pipeline`).
    Pipeline,
    /// Migratory read-modify-write objects (`gen::migratory`).
    Migratory,
    /// Hot read-shared table (`gen::read_mostly`).
    ReadMostly,
    /// Contended locks with private critical sections (`gen::lock`).
    LockContended,
    /// Barnes-hut-like shared-tree traversal (`gen::tree`).
    Tree,
    /// Uniform random stressor (`gen::uniform`).
    Uniform,
}

impl Workload {
    /// The twelve-workload evaluation suite, in canonical order.
    pub fn suite() -> Vec<Workload> {
        use Workload::*;
        vec![
            DataParallel,
            Stencil,
            Fft,
            Lu,
            Canneal,
            ProducerConsumer,
            Pipeline,
            Migratory,
            ReadMostly,
            LockContended,
            Tree,
            Uniform,
        ]
    }

    /// The short name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::DataParallel => "data_parallel",
            Workload::Stencil => "stencil",
            Workload::Fft => "fft",
            Workload::Lu => "lu",
            Workload::Canneal => "canneal",
            Workload::ProducerConsumer => "prod_cons",
            Workload::Pipeline => "pipeline",
            Workload::Migratory => "migratory",
            Workload::ReadMostly => "read_mostly",
            Workload::LockContended => "lock",
            Workload::Tree => "tree",
            Workload::Uniform => "uniform",
        }
    }

    /// Looks a workload up by its [`name`](Workload::name).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::suite().into_iter().find(|w| w.name() == name)
    }

    /// Generates one trace per core, `ops_per_core` operations each,
    /// deterministically from `seed`.
    pub fn generate(&self, cores: u16, ops_per_core: usize, seed: u64) -> Vec<Vec<MemOp>> {
        let f = match self {
            Workload::DataParallel => gen::data_parallel::generate,
            Workload::Stencil => gen::stencil::generate,
            Workload::Fft => gen::fft::generate,
            Workload::Lu => gen::lu::generate,
            Workload::Canneal => gen::canneal::generate,
            Workload::ProducerConsumer => gen::producer_consumer::generate,
            Workload::Pipeline => gen::pipeline::generate,
            Workload::Migratory => gen::migratory::generate,
            Workload::ReadMostly => gen::read_mostly::generate,
            Workload::LockContended => gen::lock::generate,
            Workload::Tree => gen::tree::generate,
            Workload::Uniform => gen::uniform::generate,
        };
        f(cores, ops_per_core, seed)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_distinct_workloads() {
        let suite = Workload::suite();
        assert_eq!(suite.len(), 12);
        let names: std::collections::BTreeSet<&str> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn from_name_round_trips() {
        for w in Workload::suite() {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn every_workload_generates_full_traces() {
        for w in Workload::suite() {
            let traces = w.generate(8, 250, 7);
            assert_eq!(traces.len(), 8, "{w}");
            for t in &traces {
                assert_eq!(t.len(), 250, "{w}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in Workload::suite() {
            assert_eq!(w.generate(4, 120, 3), w.generate(4, 120, 3), "{w}");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Workload::Fft.to_string(), "fft");
        assert_eq!(Workload::LockContended.to_string(), "lock");
    }
}
