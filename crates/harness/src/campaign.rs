//! Coverage-guided multi-fault chaos campaigns (E19).
//!
//! The single-fault chaos smoke (E17) answers "does each detector catch
//! its class?". This module closes the *coverage* loop on top of it:
//!
//! 1. **Baseline round** — the seven E17-style single-class cases run
//!    with transition witnessing on, establishing the single-fault
//!    coverage floor.
//! 2. **Pairwise round** — fault classes composed two at a time through
//!    [`FaultBurst`] schedules, re-proving the E17 catch property under
//!    composition (the `pairwise gate`).
//! 3. **Adaptive rounds** — the driver diffs witnessed transitions
//!    against the reachable sets of the lint protocol-model artifact
//!    ([`ReachableModel`]) and schedules *recipes* (workload × backend ×
//!    mild fault schedule) biased toward the still-unexercised pairs,
//!    until coverage plateaus or the round budget runs out.
//!
//! Every case runs through the ordinary pool/manifest/artifact pipeline,
//! so an interrupted campaign resumes from its per-case artifacts. The
//! accumulated coverage lands in a deterministic
//! `stashdir/chaos-coverage/v1` artifact, and the first reproducible
//! composed failure is delta-debugged ([`minimize`]) down to the smallest
//! seeded [`FaultConfig`] that still reproduces it, saved next to the
//! case's artifact (and its embedded diag snapshot).

use crate::experiments::ResultSet;
use crate::fsio::write_atomic;
use crate::params::Params;
use crate::plan::{derive_seed, CaseSpec};
use crate::pool::RunOptions;
use crate::runner::execute_cases;
use stashdir::common::json::Value;
use stashdir::protocol::model::ReachableModel;
use stashdir::sim::fault::fault_response_labels;
use stashdir::{
    expected_detector, CoverageRatio, DirReplPolicy, DirSpec, FaultBurst, FaultClass, FaultConfig,
    Machine, SimReport, SystemConfig, Workload,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Schema id of the campaign coverage artifact.
pub const COVERAGE_SCHEMA: &str = "stashdir/chaos-coverage/v1";

/// Witnessed hit counts, keyed section → (row, col). `BTreeMap` keeps
/// artifact rendering deterministic.
pub type CoverageMap = BTreeMap<String, BTreeMap<(String, String), u64>>;

/// Everything one campaign invocation needs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Run name: manifest, case artifacts and `coverage.json` live in
    /// `<out_root>/<run>/`.
    pub run: String,
    /// Output root (the sweep default is `results/`).
    pub out_root: PathBuf,
    /// Ops/seed driving every case.
    pub params: Params,
    /// Adaptive-round budget (beyond the baseline and pairwise rounds).
    pub rounds: usize,
    /// Stop after this many consecutive adaptive rounds with no new
    /// witnessed pairs.
    pub plateau: usize,
    /// Path to a `protocol_model.json` artifact; `None` falls back to
    /// the in-crate model checker ([`ReachableModel::builtin`]).
    pub model_path: Option<PathBuf>,
    /// Pool options (jobs, progress, timeouts).
    pub options: RunOptions,
}

impl CampaignConfig {
    /// A campaign with defaults mirroring the sweep binary.
    pub fn new(run: impl Into<String>) -> CampaignConfig {
        CampaignConfig {
            run: run.into(),
            out_root: PathBuf::from("results"),
            params: Params::default(),
            rounds: 4,
            plateau: 2,
            model_path: None,
            options: RunOptions::default(),
        }
    }
}

/// One round's ledger line in the coverage artifact.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Round name (`baseline`, `pairwise`, `adaptive-1`, ...).
    pub name: String,
    /// Cases scheduled this round.
    pub cases: usize,
    /// Reachable pairs first witnessed this round.
    pub new_pairs: usize,
    /// Cumulative witnessed reachable pairs after the round.
    pub witnessed: usize,
}

/// The smallest reproducer the minimizer found for a failing case.
#[derive(Debug, Clone)]
pub struct MinimizedFailure {
    /// Id of the failing case the reproducer was minimized from.
    pub case_id: String,
    /// Failure signature both the original and the reproducer show.
    pub signature: String,
    /// The minimized plan, replayable via `FaultConfig::from_str`.
    pub plan: FaultConfig,
    /// Where the reproducer artifact was written.
    pub path: PathBuf,
}

/// What a finished campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Path of the `stashdir/chaos-coverage/v1` artifact.
    pub artifact_path: PathBuf,
    /// Reachable pairs witnessed across all rounds.
    pub witnessed: usize,
    /// Reachable pairs in the model (all sections).
    pub reachable: usize,
    /// Reachable pairs the single-fault baseline round witnessed — the
    /// floor the campaign must strictly improve on.
    pub baseline_witnessed: usize,
    /// Fault classes caught by their expected detector in at least one
    /// pairwise-composed case.
    pub classes_caught: usize,
    /// Total fault classes (the pairwise gate denominator).
    pub classes_total: usize,
    /// Per-round ledger.
    pub rounds: Vec<RoundRecord>,
    /// The minimized reproducer, when a composed case failed.
    pub minimized: Option<MinimizedFailure>,
    /// Cases that panicked or timed out across all rounds.
    pub failed: usize,
}

impl CampaignOutcome {
    /// `true` when composing classes pairwise caught every class.
    pub fn pairwise_pass(&self) -> bool {
        self.classes_caught == self.classes_total
    }

    /// `true` when the campaign witnessed strictly more reachable pairs
    /// than the single-fault baseline round.
    pub fn improved(&self) -> bool {
        self.witnessed > self.baseline_witnessed
    }
}

// ---------------------------------------------------------------- model

/// Loads the reachable-transition model: the lint artifact when `path`
/// is given and readable, the in-crate model checker otherwise. Either
/// way the `fault_response` section (which lives above the protocol
/// crate) comes from the fault taxonomy.
///
/// # Errors
///
/// Returns `InvalidData` when a given artifact exists but does not
/// parse; a missing file silently falls back to the builtin model so
/// scratch checkouts work.
pub fn load_model(path: Option<&Path>) -> io::Result<(ReachableModel, String)> {
    let (mut model, origin) = match path {
        Some(p) if p.exists() => {
            let text = std::fs::read_to_string(p)?;
            let model = ReachableModel::parse(&text).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", p.display()))
            })?;
            (model, p.display().to_string())
        }
        _ => (ReachableModel::builtin(), "builtin".to_string()),
    };
    model
        .sections
        .insert("fault_response".to_string(), fault_response_labels());
    Ok((model, origin))
}

// ---------------------------------------------------------------- cases

fn eighth() -> CoverageRatio {
    CoverageRatio::new(1, 8)
}

/// The E17 chaos machine: 8 cores, deliberately tight 2-way stash@1/8 so
/// eviction pressure creates victims for every fault class.
fn tight_stash() -> DirSpec {
    DirSpec::Stash {
        coverage: eighth(),
        assoc: 2,
        repl: DirReplPolicy::PrivateFirstLru,
    }
}

fn chaos_config(dir: DirSpec) -> SystemConfig {
    SystemConfig::default().with_cores(8).with_dir(dir)
}

/// Chaos rounds cap ops like E17: a few hundred suffice to build victim
/// state, and liveness cases burn watchdog-bound cycles regardless.
fn chaos_ops(p: Params) -> usize {
    p.ops.min(400)
}

/// An always-on burst window (len 0 = never switches off).
fn steady(class: FaultClass, onset: u64, rate_per_mille: u32) -> FaultBurst {
    FaultBurst {
        class,
        onset,
        len: 0,
        gap: 0,
        rate_per_mille,
    }
}

/// The baseline round: every fault class alone, E17's machine and
/// workload, with transition witnessing on. This is the single-fault
/// coverage floor the campaign must beat.
pub fn baseline_cases(p: Params) -> Vec<CaseSpec> {
    FaultClass::ALL
        .iter()
        .map(|&class| {
            CaseSpec::new(
                chaos_config(tight_stash()),
                Workload::DataParallel,
                chaos_ops(p),
                p.seed,
            )
            .with_fault(FaultConfig::for_class(class, p.seed).with_witness())
        })
        .collect()
}

/// The pairwise round: all seven classes composed two at a time through
/// burst schedules, each pair scheduled so both members inject before
/// the run's only detection point. A faulty run has exactly one such
/// point — the state-corruption classes quiesce at first application,
/// the watchdog stops the clock, and dropped grants surface only at the
/// final invariant sweep of a run that completes — so every pair is
/// built around which point fires and what still injects before it:
///
/// * `sharer_flip` rides with `noc_duplicate`: both strike within the
///   first few directory transactions, and the duplicate is sent before
///   the flip's quiesce freezes the network;
/// * `stash_spurious` and `stash_clear` each ride with a *mild*
///   `noc_delay` (64-cycle jitter, not the default black-hole): jitter
///   injects from the first message without hanging any requester, so
///   the corruption's victim still forms. That matters for
///   `stash_clear`, whose victim needs tens of kilocycles of
///   eviction-pressure warm-up that any traffic-hanging partner
///   (drops, black-holed messages) starves out entirely;
/// * `drop_grant` also rides with mild `noc_delay`: neither quiesces,
///   so the run completes and the final sweep flags the dropped grants;
/// * the two watchdog classes share a case, phased so the stuck block
///   lands in the first hundred cycles and message black-holing starts
///   only after it — starving progress together until the watchdog
///   trips once for both. This is the one pair that keeps the
///   black-hole delay, since `noc_delay`'s catch is *being* the stall.
pub fn pairwise_cases(p: Params) -> Vec<CaseSpec> {
    use FaultClass::*;
    // A single hot window: on at `onset`, off `len` cycles later for the
    // rest of any realistic run.
    let window = |class, onset, len, rate_per_mille| FaultBurst {
        class,
        onset,
        len,
        gap: 1 << 30,
        rate_per_mille,
    };
    const JITTER: u64 = 64;
    const BLACK_HOLE: u64 = 50_000_000;
    let pairs: [([FaultBurst; 2], u64); 5] = [
        (
            [steady(SharerFlip, 0, 1000), steady(NocDuplicate, 0, 1000)],
            BLACK_HOLE,
        ),
        (
            [steady(StashSpurious, 0, 1000), steady(NocDelay, 0, 1000)],
            JITTER,
        ),
        (
            [steady(StashClear, 0, 1000), steady(NocDelay, 0, 100)],
            JITTER,
        ),
        (
            [steady(DropGrant, 0, 100), steady(NocDelay, 0, 200)],
            JITTER,
        ),
        (
            [
                window(StuckTransient, 0, 100, 400),
                steady(NocDelay, 100, 1000),
            ],
            BLACK_HOLE,
        ),
    ];
    pairs
        .iter()
        .map(|&([a, b], delay_cycles)| {
            let mut fault = FaultConfig::for_campaign(p.seed)
                .with_burst(a)
                .with_burst(b)
                .with_witness();
            fault.delay_cycles = delay_cycles;
            CaseSpec::new(
                chaos_config(tight_stash()),
                Workload::DataParallel,
                chaos_ops(p),
                p.seed,
            )
            .with_fault(fault)
        })
        .collect()
}

/// Evaluates the pairwise gate over `cases`: a class counts as caught
/// when at least one composed case both injected it and saw its
/// expected detector fire.
pub fn pairwise_catch(cases: &[CaseSpec], results: &ResultSet) -> (usize, usize) {
    let caught = FaultClass::ALL
        .iter()
        .filter(|&&class| {
            cases.iter().any(|c| {
                let Some(f) = &c.fault else { return false };
                f.enabled_classes().contains(&class)
                    && results.get(&c.id()).is_some_and(|r| {
                        r.fault.injected_for(class) > 0
                            && r.fault.detected_for(expected_detector(class)) > 0
                    })
            })
        })
        .count();
    (caught, FaultClass::ALL.len())
}

// ---------------------------------------------------------------- recipes

/// A coverage recipe: a machine/workload shape that exercises a family
/// of transitions, plus the predicate naming the (section, row, col)
/// pairs it targets. Adaptive rounds schedule exactly the recipes whose
/// targets are still unwitnessed.
struct Recipe {
    dir: fn() -> DirSpec,
    workload: Workload,
    notify_clean: bool,
    /// Pins the [`mild_fault`] flavor instead of rotating — recipes
    /// whose targets *depend* on the perturbation (the drop-grant
    /// recipes chasing Invalid-row probes) set this.
    flavor: Option<u64>,
    /// Shrinks the private hierarchy so the working set overflows L2.
    /// The home Put rows only exist as L2-eviction notifications, which
    /// the default 256 KiB L2 almost never sends at campaign op counts.
    tiny_l2: bool,
    targets: fn(&str, &str, &str) -> bool,
}

impl Default for Recipe {
    fn default() -> Recipe {
        Recipe {
            dir: tight_stash,
            workload: Workload::Uniform,
            notify_clean: true,
            flavor: None,
            tiny_l2: false,
            targets: |_, _, _| false,
        }
    }
}

/// Applies a recipe's machine shape: backend, clean-eviction
/// notifications, and (optionally) a 16 KiB L2 over a 4 KiB L1 so
/// evictions — and therefore Put requests — are constant.
fn recipe_config(r: &Recipe) -> SystemConfig {
    use stashdir::mem::CacheConfig;
    let mut config = chaos_config((r.dir)());
    config.notify_clean_evictions = r.notify_clean;
    if r.tiny_l2 {
        config.l1 = CacheConfig::new(4 * 1024, 2, 64, 1);
        config.l2 = CacheConfig::new(16 * 1024, 2, 64, 8);
    }
    config
}

/// The recipe menu, in scheduling priority order. Every recipe runs
/// under a *mild* fault schedule (sparse, short perturbations that keep
/// the run live), so its transitions count as witnessed-under-fault.
fn recipes() -> Vec<Recipe> {
    vec![
        Recipe {
            // Migratory RMW objects silently evicted from a tight stash:
            // discovery rounds against M/E hidden copies.
            workload: Workload::Migratory,
            targets: |s, _, c| s == "private_probe" && c.starts_with("Discovery"),
            ..Recipe::default()
        },
        Recipe {
            // Ring buffers force reader/writer forwarding.
            workload: Workload::ProducerConsumer,
            targets: |s, _, c| s == "private_probe" && (c == "FwdGetS" || c == "FwdGetM"),
            ..Recipe::default()
        },
        Recipe {
            // Silent clean evictions leave stale sharer entries, so
            // probes chase copies that are already Invalid.
            workload: Workload::Canneal,
            notify_clean: false,
            targets: |s, r, _| s == "private_probe" && r == "Invalid",
            ..Recipe::default()
        },
        Recipe {
            // Contended locks upgrade Shared lines in place.
            workload: Workload::LockContended,
            targets: |s, r, _| s == "home" && r == "Upgrade",
            ..Recipe::default()
        },
        Recipe {
            // Tree traversal under constant L2 pressure with clean-
            // eviction notifications: the Put request rows, including
            // the silent-eviction Untracked columns.
            workload: Workload::Tree,
            tiny_l2: true,
            targets: |s, r, _| s == "home" && r.starts_with("Put"),
            ..Recipe::default()
        },
        Recipe {
            // Sparse backend at the same pressure: inclusion Recalls and
            // eviction invalidations.
            dir: || DirSpec::Sparse {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::Lru,
            },
            workload: Workload::Stencil,
            targets: |s, _, c| s == "private_probe" && (c == "Recall" || c == "Inv"),
            ..Recipe::default()
        },
        Recipe {
            // Limited pointers overflow into Inv broadcasts under
            // all-to-all sharing.
            dir: || DirSpec::LimitedPtr {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                k: 2,
            },
            workload: Workload::Fft,
            targets: |s, _, c| s == "private_probe" && c == "Inv",
            ..Recipe::default()
        },
        Recipe {
            // DLS recalls the single tracked copy on second touch.
            dir: || DirSpec::Dls,
            workload: Workload::Migratory,
            targets: |s, _, c| s == "private_probe" && c == "Recall",
            ..Recipe::default()
        },
        Recipe {
            // Opaque backend runs the same home decisions through its
            // indirection table.
            dir: || DirSpec::Opaque {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
            },
            workload: Workload::DataParallel,
            targets: |s, _, _| s == "home",
            ..Recipe::default()
        },
        Recipe {
            // Hot read-shared table: wide Shared views at the home.
            workload: Workload::ReadMostly,
            targets: |s, _, c| s == "home" && c == "Shared",
            ..Recipe::default()
        },
        Recipe {
            // A full-map home never loses track of a block, so the L2
            // eviction stream notifies a directory that still holds the
            // Exclusive view — the tracked PutE/PutM columns.
            dir: || DirSpec::FullMap,
            workload: Workload::DataParallel,
            tiny_l2: true,
            targets: |s, r, c| s == "home" && r.starts_with("Put") && c == "Exclusive",
            ..Recipe::default()
        },
        Recipe {
            // Full-map under a read-shared table: PutS notifications
            // while the home still holds the Shared view.
            dir: || DirSpec::FullMap,
            workload: Workload::ReadMostly,
            tiny_l2: true,
            targets: |s, r, c| s == "home" && r == "PutS" && c == "Shared",
            ..Recipe::default()
        },
        Recipe {
            // Read-mostly writes on a tight stash under L2 pressure:
            // upgrades and shared-eviction Puts race the directory's own
            // evictions onto Untracked views, and the churn of silently
            // dropped then re-learned entries feeds discovery rounds
            // against Modified and Shared hidden copies.
            workload: Workload::ReadMostly,
            tiny_l2: true,
            targets: |s, r, c| {
                (s == "home" && (r == "Upgrade" || r.starts_with("Put")) && c == "Untracked")
                    || (s == "private_probe"
                        && (r == "Modified" || r == "Shared")
                        && c.starts_with("Discovery"))
            },
            ..Recipe::default()
        },
        Recipe {
            // Dropped grants strand forwarding targets Invalid: the
            // directory still routes FwdGetS/FwdGetM at the phantom
            // owner.
            workload: Workload::ProducerConsumer,
            flavor: Some(2),
            targets: |s, r, c| {
                s == "private_probe" && r == "Invalid" && (c == "FwdGetS" || c == "FwdGetM")
            },
            ..Recipe::default()
        },
        Recipe {
            // Same trickle against eviction pressure: Inv and Recall
            // probes chase phantom holders left by dropped grants.
            dir: || DirSpec::Sparse {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::Lru,
            },
            workload: Workload::Stencil,
            flavor: Some(2),
            targets: |s, r, c| {
                s == "private_probe" && r == "Invalid" && (c == "Inv" || c == "Recall")
            },
            ..Recipe::default()
        },
        Recipe {
            // Contended RMW with dropped grants on the tight stash: the
            // widest chaos mix for the remaining Invalid-row probes.
            workload: Workload::LockContended,
            flavor: Some(2),
            targets: |s, r, _| s == "private_probe" && r == "Invalid",
            ..Recipe::default()
        },
        Recipe {
            // Generic stressor — catch-all for any remaining protocol
            // pair (never scheduled while targeted recipes still apply).
            workload: Workload::Uniform,
            targets: |s, _, _| s != "fault_response",
            ..Recipe::default()
        },
    ]
}

/// A mild schedule for coverage runs: sparse, short perturbations that
/// keep the machine live to the end of the trace. Flavor 0 gets brief
/// NoC-delay bursts (64-cycle hiccups, not black holes); flavor 1 gets
/// brief stuck-transient windows (400-cycle busy pins); flavor 2 gets a
/// low-rate drop-grant trickle, whose dropped grants strand requesters
/// Invalid while the directory still lists them — the only way probes
/// ever chase an Invalid "owner". Either way the fault layer is active
/// for the whole run, so every transition the run crosses is witnessed
/// under fault.
fn mild_fault(seed: u64, flavor: u64) -> FaultConfig {
    let mut cfg = FaultConfig::for_campaign(seed);
    match flavor % 3 {
        0 => {
            cfg.delay_cycles = 64;
            cfg = cfg.with_burst(FaultBurst {
                class: FaultClass::NocDelay,
                onset: 0,
                len: 400,
                gap: 4_000,
                rate_per_mille: 60,
            });
        }
        1 => {
            cfg.stuck_cycles = 400;
            cfg = cfg.with_burst(FaultBurst {
                class: FaultClass::StuckTransient,
                onset: 0,
                len: 300,
                gap: 3_000,
                rate_per_mille: 30,
            });
        }
        _ => {
            cfg = cfg.with_burst(FaultBurst {
                class: FaultClass::DropGrant,
                onset: 0,
                len: 200,
                gap: 2_000,
                rate_per_mille: 50,
            });
        }
    }
    cfg.with_witness()
}

/// Expands the recipes targeting still-unwitnessed pairs into cases for
/// adaptive round `round` (0-based). Deterministic given (uncovered,
/// params, round).
fn adaptive_cases(
    uncovered: &BTreeMap<String, BTreeSet<(String, String)>>,
    p: Params,
    round: usize,
) -> Vec<CaseSpec> {
    let wants = |r: &Recipe| {
        uncovered
            .iter()
            .any(|(s, pairs)| pairs.iter().any(|(row, col)| (r.targets)(s, row, col)))
    };
    recipes()
        .iter()
        .filter(|r| wants(r))
        .enumerate()
        .map(|(i, r)| {
            let seed = derive_seed(p.seed, (round as u64) * 97 + i as u64 + 1);
            let flavor = r.flavor.unwrap_or(i as u64 + round as u64);
            CaseSpec::new(recipe_config(r), r.workload, p.ops.min(2_000), seed)
                .with_fault(mild_fault(seed, flavor))
        })
        .collect()
}

// ---------------------------------------------------------------- coverage

/// Folds one report's witnessed transitions into the accumulator.
pub fn accumulate(acc: &mut CoverageMap, report: &SimReport) {
    for h in &report.coverage {
        *acc.entry(h.section.clone())
            .or_default()
            .entry((h.row.clone(), h.col.clone()))
            .or_insert(0) += h.hits;
    }
}

/// Counts witnessed pairs that are also reachable in the model.
pub fn witnessed_reachable(model: &ReachableModel, acc: &CoverageMap) -> usize {
    model
        .sections
        .iter()
        .map(|(name, reachable)| {
            acc.get(name)
                .map(|hits| hits.keys().filter(|p| reachable.contains(p)).count())
                .unwrap_or(0)
        })
        .sum()
}

/// Reachable pairs not yet witnessed, per section.
fn uncovered_pairs(
    model: &ReachableModel,
    acc: &CoverageMap,
) -> BTreeMap<String, BTreeSet<(String, String)>> {
    model
        .sections
        .iter()
        .map(|(name, reachable)| {
            let empty = BTreeMap::new();
            let hits = acc.get(name).unwrap_or(&empty);
            let missing: BTreeSet<(String, String)> = reachable
                .iter()
                .filter(|p| !hits.contains_key(*p))
                .cloned()
                .collect();
            (name.clone(), missing)
        })
        .collect()
}

/// Renders the coverage artifact. Everything is drawn from `BTreeMap`s
/// and sorted vectors, so the same campaign inputs produce byte-
/// identical artifacts.
#[allow(clippy::too_many_arguments)]
fn coverage_artifact(
    model: &ReachableModel,
    origin: &str,
    acc: &CoverageMap,
    rounds: &[RoundRecord],
    pairwise: (usize, usize),
    baseline_witnessed: usize,
    params: Params,
    case_ids: &BTreeSet<String>,
) -> Value {
    let pair = |row: &str, col: &str| Value::array(vec![Value::from(row), Value::from(col)]);
    let empty = BTreeMap::new();
    let sections: Vec<Value> = model
        .sections
        .iter()
        .map(|(name, reachable)| {
            let hits_map = acc.get(name).unwrap_or(&empty);
            let hits: Vec<Value> = hits_map
                .iter()
                .filter(|(p, _)| reachable.contains(*p))
                .map(|((row, col), n)| {
                    Value::array(vec![
                        Value::from(row.as_str()),
                        Value::from(col.as_str()),
                        Value::from(*n),
                    ])
                })
                .collect();
            let unwitnessed: Vec<Value> = reachable
                .iter()
                .filter(|p| !hits_map.contains_key(*p))
                .map(|(row, col)| pair(row, col))
                .collect();
            let unexpected: Vec<Value> = hits_map
                .keys()
                .filter(|p| !reachable.contains(*p))
                .map(|(row, col)| pair(row, col))
                .collect();
            Value::object(vec![
                ("name".into(), Value::from(name.as_str())),
                ("reachable".into(), Value::from(reachable.len() as u64)),
                ("witnessed".into(), Value::from(hits.len() as u64)),
                ("hits".into(), Value::array(hits)),
                ("unwitnessed".into(), Value::array(unwitnessed)),
                ("unexpected".into(), Value::array(unexpected)),
            ])
        })
        .collect();
    let rounds: Vec<Value> = rounds
        .iter()
        .map(|r| {
            Value::object(vec![
                ("name".into(), Value::from(r.name.as_str())),
                ("cases".into(), Value::from(r.cases as u64)),
                ("new_pairs".into(), Value::from(r.new_pairs as u64)),
                ("witnessed".into(), Value::from(r.witnessed as u64)),
            ])
        })
        .collect();
    Value::object(vec![
        ("schema".into(), Value::from(COVERAGE_SCHEMA)),
        ("model".into(), Value::from(origin)),
        ("seed".into(), Value::from(params.seed)),
        ("ops".into(), Value::from(params.ops as u64)),
        ("rounds".into(), Value::array(rounds)),
        ("sections".into(), Value::array(sections)),
        (
            "pairwise".into(),
            Value::object(vec![
                ("caught".into(), Value::from(pairwise.0 as u64)),
                ("total".into(), Value::from(pairwise.1 as u64)),
            ]),
        ),
        (
            "total".into(),
            Value::object(vec![
                (
                    "reachable".into(),
                    Value::from(model.total_reachable() as u64),
                ),
                (
                    "witnessed".into(),
                    Value::from(witnessed_reachable(model, acc) as u64),
                ),
                (
                    "baseline_witnessed".into(),
                    Value::from(baseline_witnessed as u64),
                ),
            ]),
        ),
        (
            "cases".into(),
            Value::array(case_ids.iter().map(|id| Value::from(id.as_str())).collect()),
        ),
    ])
}

// ---------------------------------------------------------------- minimizer

/// A failure's identity for minimization: the detector-level prefix of
/// the first violation (up to the first `:`), or `watchdog` for trips
/// that only the watchdog counters show. Two runs with equal signatures
/// fail the same way.
pub fn failure_signature(report: &SimReport) -> Option<String> {
    if let Some(v) = report.violations.first() {
        return Some(v.split(':').next().unwrap_or(v).trim().to_string());
    }
    if report.fault.detected_watchdog > 0 {
        return Some("watchdog".to_string());
    }
    None
}

/// Replays `spec` with `fault` substituted, off the pool (the minimizer
/// probes dozens of candidate plans; direct machine runs keep that
/// cheap and strictly deterministic).
fn replay(spec: &CaseSpec, fault: &FaultConfig) -> SimReport {
    let traces = spec
        .workload
        .generate(spec.config.cores, spec.ops, spec.seed);
    Machine::new(spec.config.clone())
        .with_faults(fault.clone())
        .run(traces)
}

/// Delta-debugs `spec`'s fault plan down to a 1-minimal reproducer for
/// `signature`: greedily removes bursts while the failure reproduces
/// (so in the result, removing *any* burst loses the failure), then
/// tries to pin the plan to a single injection site.
///
/// The returned config replays the failure via
/// `Machine::with_faults` — its `Display` string round-trips through
/// `FaultConfig::from_str` for use from a shell.
pub fn minimize(spec: &CaseSpec, signature: &str) -> FaultConfig {
    let mut cfg = spec.fault.clone().expect("minimize needs a faulty case");
    cfg.witness = false;
    loop {
        let shrunk = (0..cfg.bursts.len()).find_map(|i| {
            let mut cand = cfg.clone();
            cand.bursts.remove(i);
            (failure_signature(&replay(spec, &cand)).as_deref() == Some(signature)).then_some(cand)
        });
        match shrunk {
            Some(cand) => cfg = cand,
            None => break,
        }
    }
    // Finest granularity: a single would-fire opportunity. Only a few
    // early sites matter — the failure was already minimal per-burst.
    if cfg.sites.is_empty() {
        for site in 0..8 {
            let mut cand = cfg.clone();
            cand.sites = vec![site];
            if failure_signature(&replay(spec, &cand)).as_deref() == Some(signature) {
                cfg = cand;
                break;
            }
        }
    }
    cfg
}

/// Renders the minimized-reproducer artifact saved next to the failing
/// case's artifact (which embeds the diag snapshot).
fn minimized_artifact(m: &MinimizedFailure) -> Value {
    Value::object(vec![
        ("schema".into(), Value::from("stashdir/minimized-fault/v1")),
        ("case".into(), Value::from(m.case_id.as_str())),
        ("signature".into(), Value::from(m.signature.as_str())),
        ("plan".into(), Value::from(m.plan.to_string().as_str())),
        ("bursts".into(), Value::from(m.plan.bursts.len() as u64)),
    ])
}

// ---------------------------------------------------------------- driver

/// Runs a full campaign: baseline round, pairwise round, adaptive
/// rounds until plateau or budget, coverage artifact, and minimization
/// of the first reproducible composed failure.
///
/// # Errors
///
/// Returns any I/O error from persisting artifacts, the manifest or the
/// coverage artifact, and `InvalidData` for an unparseable model.
pub fn run_campaign(cfg: &CampaignConfig) -> io::Result<CampaignOutcome> {
    let (model, origin) = load_model(cfg.model_path.as_deref())?;
    let mut all_cases: Vec<CaseSpec> = Vec::new();
    let mut acc: CoverageMap = CoverageMap::new();
    let mut results: ResultSet = ResultSet::new();
    let mut rounds: Vec<RoundRecord> = Vec::new();
    let mut failed = 0usize;

    // Executes the cumulative case list (earlier rounds resume from
    // their artifacts) and folds the new reports into the accumulator.
    let run_round = |name: &str,
                     new_cases: Vec<CaseSpec>,
                     all_cases: &mut Vec<CaseSpec>,
                     acc: &mut CoverageMap,
                     results: &mut ResultSet,
                     rounds: &mut Vec<RoundRecord>,
                     failed: &mut usize|
     -> io::Result<()> {
        let known: BTreeSet<String> = all_cases.iter().map(CaseSpec::id).collect();
        let fresh: Vec<CaseSpec> = new_cases
            .into_iter()
            .filter(|c| !known.contains(&c.id()))
            .collect();
        let count = fresh.len();
        all_cases.extend(fresh);
        let before = witnessed_reachable(&model, acc);
        let exec = execute_cases(
            all_cases,
            &cfg.run,
            &cfg.out_root,
            vec!["campaign".to_string()],
            cfg.params,
            &cfg.options,
            // Later rounds reuse earlier rounds' artifacts.
            true,
        )?;
        *failed = exec.failed + exec.timed_out;
        acc.clear();
        results.clear();
        for (id, report) in &exec.results {
            accumulate(acc, report);
            results.insert(id.clone(), report.clone());
        }
        let witnessed = witnessed_reachable(&model, acc);
        rounds.push(RoundRecord {
            name: name.to_string(),
            cases: count,
            new_pairs: witnessed.saturating_sub(before),
            witnessed,
        });
        Ok(())
    };

    run_round(
        "baseline",
        baseline_cases(cfg.params),
        &mut all_cases,
        &mut acc,
        &mut results,
        &mut rounds,
        &mut failed,
    )?;
    let baseline_witnessed = rounds.last().map(|r| r.witnessed).unwrap_or(0);

    let pairwise = pairwise_cases(cfg.params);
    run_round(
        "pairwise",
        pairwise.clone(),
        &mut all_cases,
        &mut acc,
        &mut results,
        &mut rounds,
        &mut failed,
    )?;
    let (classes_caught, classes_total) = pairwise_catch(&pairwise, &results);

    let mut flat_rounds = 0usize;
    for round in 0..cfg.rounds {
        let uncovered = uncovered_pairs(&model, &acc);
        if uncovered.values().all(BTreeSet::is_empty) {
            break;
        }
        let cases = adaptive_cases(&uncovered, cfg.params, round);
        if cases.is_empty() {
            break;
        }
        run_round(
            &format!("adaptive-{}", round + 1),
            cases,
            &mut all_cases,
            &mut acc,
            &mut results,
            &mut rounds,
            &mut failed,
        )?;
        if rounds.last().is_some_and(|r| r.new_pairs == 0) {
            flat_rounds += 1;
            if flat_rounds >= cfg.plateau {
                break;
            }
        } else {
            flat_rounds = 0;
        }
    }

    // Minimize the first composed (multi-burst) failure, in
    // deterministic case order. Single-class cases are one burst each
    // and already minimal.
    let run_dir = cfg.out_root.join(&cfg.run);
    let minimized = all_cases
        .iter()
        .filter(|c| c.fault.as_ref().is_some_and(|f| f.bursts.len() > 1))
        .find_map(|c| {
            let sig = results.get(&c.id()).and_then(failure_signature)?;
            Some((c, sig))
        })
        .map(|(c, sig)| {
            let plan = minimize(c, &sig);
            let path = run_dir
                .join("cases")
                .join(format!("{}.minimized.json", c.id()));
            let m = MinimizedFailure {
                case_id: c.id(),
                signature: sig,
                plan,
                path,
            };
            write_atomic(&m.path, &(minimized_artifact(&m).render_pretty() + "\n")).map(|_| m)
        })
        .transpose()?;

    let case_ids: BTreeSet<String> = all_cases.iter().map(CaseSpec::id).collect();
    let artifact = coverage_artifact(
        &model,
        &origin,
        &acc,
        &rounds,
        (classes_caught, classes_total),
        baseline_witnessed,
        cfg.params,
        &case_ids,
    );
    let artifact_path = run_dir.join("coverage.json");
    write_atomic(&artifact_path, &(artifact.render_pretty() + "\n"))?;

    Ok(CampaignOutcome {
        artifact_path,
        witnessed: witnessed_reachable(&model, &acc),
        reachable: model.total_reachable(),
        baseline_witnessed,
        classes_caught,
        classes_total,
        rounds,
        minimized,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Params {
        // The pairwise compositions need the same victim-formation
        // warm-up as the E17 mutation gate (which also runs at 400).
        Params { ops: 400, seed: 7 }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("stashdir_campaign_{tag}_{}", std::process::id()))
    }

    fn tiny_campaign(tag: &str) -> CampaignConfig {
        let mut cfg = CampaignConfig::new("camp");
        cfg.out_root = tmp_root(tag);
        cfg.params = tiny_params();
        cfg.rounds = 1;
        cfg.plateau = 1;
        cfg.options.jobs = 2;
        cfg.options.progress = false;
        cfg
    }

    #[test]
    fn model_fallback_has_all_four_sections() {
        let (model, origin) = load_model(None).expect("builtin model");
        assert_eq!(origin, "builtin");
        assert_eq!(model.sections.len(), 4);
        assert_eq!(model.section("fault_response").len(), 7);
        assert_eq!(model.total_reachable(), 48);
    }

    #[test]
    fn baseline_and_pairwise_cases_are_distinct_and_bursty() {
        let p = tiny_params();
        let base = baseline_cases(p);
        let pair = pairwise_cases(p);
        assert_eq!(base.len(), 7);
        assert_eq!(pair.len(), 5);
        let mut ids: Vec<String> = base.iter().chain(&pair).map(CaseSpec::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 12, "all campaign case ids unique");
        for c in &base {
            let f = c.fault.as_ref().expect("baseline cases carry faults");
            assert_eq!(f.bursts.len(), 1, "a single class is one burst");
            assert!(f.witness);
        }
        for c in &pair {
            let f = c.fault.as_ref().expect("pairwise cases carry faults");
            assert_eq!(f.bursts.len(), 2);
            assert!(f.witness);
        }
        // Every class appears in some pairwise composition.
        let mut classes: BTreeSet<&'static str> = BTreeSet::new();
        for c in &pair {
            for class in c.fault.as_ref().unwrap().enabled_classes() {
                classes.insert(class.label());
            }
        }
        assert_eq!(classes.len(), FaultClass::ALL.len());
    }

    #[test]
    fn adaptive_cases_target_only_uncovered_sections() {
        let (model, _) = load_model(None).unwrap();
        // Everything covered -> no recipes scheduled.
        let mut acc = CoverageMap::new();
        for (name, pairs) in &model.sections {
            for (row, col) in pairs {
                acc.entry(name.clone())
                    .or_default()
                    .insert((row.clone(), col.clone()), 1);
            }
        }
        let uncovered = uncovered_pairs(&model, &acc);
        assert!(adaptive_cases(&uncovered, tiny_params(), 0).is_empty());
        // Only Put rows missing -> the Put recipe (and the catch-all)
        // lead the schedule, and every scheduled case is witnessed.
        acc.get_mut("home")
            .unwrap()
            .retain(|(row, _), _| !row.starts_with("Put"));
        let uncovered = uncovered_pairs(&model, &acc);
        let cases = adaptive_cases(&uncovered, tiny_params(), 0);
        assert!(!cases.is_empty());
        // Every scheduled recipe targets a Put pair (or is the
        // catch-all); untargeted recipes stay off the schedule.
        assert!(cases.len() < recipes().len());
        for c in &cases {
            let f = c.fault.as_ref().expect("adaptive cases carry faults");
            assert!(f.witness && !f.bursts.is_empty());
        }
        assert!(cases.iter().any(|c| c.workload == Workload::Tree));
    }

    #[test]
    fn minimizer_result_is_one_minimal() {
        // Three bursts, only one of which can fail: the sharer flip.
        // The other two never reach their onset inside the run.
        let p = tiny_params();
        let never = 1_u64 << 40;
        let fault = FaultConfig::for_campaign(p.seed)
            .with_burst(steady(FaultClass::SharerFlip, 0, 1000))
            .with_burst(steady(FaultClass::NocDelay, never, 1000))
            .with_burst(steady(FaultClass::StuckTransient, never, 1000));
        let spec = CaseSpec::new(
            chaos_config(tight_stash()),
            Workload::DataParallel,
            chaos_ops(p),
            p.seed,
        )
        .with_fault(fault);
        let report = replay(&spec, spec.fault.as_ref().unwrap());
        let sig = failure_signature(&report).expect("sharer flip must fail");
        let min = minimize(&spec, &sig);
        assert_eq!(min.bursts.len(), 1, "dead bursts are removed");
        assert_eq!(min.bursts[0].class, FaultClass::SharerFlip);
        // 1-minimality: removing the surviving burst loses the failure.
        for i in 0..min.bursts.len() {
            let mut cand = min.clone();
            cand.bursts.remove(i);
            assert_ne!(
                failure_signature(&replay(&spec, &cand)).as_deref(),
                Some(sig.as_str()),
                "burst {i} is load-bearing"
            );
        }
        // The reproducer round-trips through its Display string.
        let text = min.to_string();
        let parsed: FaultConfig = text.parse().expect("replayable plan parses");
        assert_eq!(parsed, min);
    }

    #[test]
    fn campaign_is_deterministic_and_improves_on_baseline() {
        let cfg_a = tiny_campaign("det_a");
        let cfg_b = tiny_campaign("det_b");
        let a = run_campaign(&cfg_a).expect("campaign a");
        let b = run_campaign(&cfg_b).expect("campaign b");
        assert_eq!(a.failed, 0);
        assert!(a.improved(), "campaign must beat the single-fault floor");
        assert!(
            a.pairwise_pass(),
            "pairwise gate: {}/{}",
            a.classes_caught,
            a.classes_total
        );
        let text_a = std::fs::read_to_string(&a.artifact_path).unwrap();
        let text_b = std::fs::read_to_string(&b.artifact_path).unwrap();
        assert_eq!(text_a, text_b, "coverage artifacts are byte-identical");
        let ma = a.minimized.expect("pairwise failures minimize");
        let mb = b.minimized.expect("pairwise failures minimize");
        assert_eq!(ma.plan, mb.plan, "minimized plans are identical");
        assert!(ma.plan.bursts.len() <= 2);
        assert!(ma.path.exists());
        std::fs::remove_dir_all(&cfg_a.out_root).ok();
        std::fs::remove_dir_all(&cfg_b.out_root).ok();
    }
}
