//! Deterministic fault injection: the taxonomy, the per-run plan, and
//! the detection accounting.
//!
//! The chaos layer exists to prove the invariant checker and the
//! liveness watchdog *detect* protocol damage, not merely to tolerate
//! it. Every fault class names the layer it perturbs, and
//! [`expected_detector`] names the detector expected to catch it; the
//! chaos smoke suite (E17) and the mutation-gate test assert the mapping
//! holds for every class.
//!
//! Injection is seeded from the case RNG via [`FaultConfig::seed`], so a
//! faulty run is exactly reproducible and resume-stable: the same case
//! digest always yields the same injections, detections and snapshot.
//!
//! With no burst scheduled (see [`FaultConfig::disabled`]) the layer
//! is provably zero-cost: a `FaultPlan`-threaded run produces reports
//! and artifacts byte-identical to a plain run (property-tested in the
//! harness).

use stashdir_common::json::Value;
use stashdir_common::DetRng;
use std::collections::BTreeSet;

/// The kinds of damage the chaos layer can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A NoC message is delayed far beyond any legitimate latency
    /// (injected at the machine's demand send).
    NocDelay,
    /// A demand request is duplicated in flight (injected at the
    /// machine's demand send as a real second packet); the second copy
    /// arrives with no matching pending operation.
    NocDuplicate,
    /// A directory entry forgets (or mis-names) a live holder: a sharer
    /// bit flips off, or an exclusive owner is dropped.
    SharerFlip,
    /// A set stash bit covering a real hidden copy is cleared, so the
    /// copy becomes invisible to discovery.
    StashClear,
    /// A stash bit is set on a line the directory still tracks,
    /// violating the stash discipline.
    StashSpurious,
    /// A grant is dropped on completion: the requester never observes
    /// its fill and keeps its pending operation forever.
    DropGrant,
    /// A home bank's per-block busy window sticks far in the future, so
    /// the next transaction on the block cannot serialize in bounded
    /// time.
    StuckTransient,
}

impl FaultClass {
    /// Every fault class, in taxonomy order.
    pub const ALL: &'static [FaultClass] = &[
        FaultClass::NocDelay,
        FaultClass::NocDuplicate,
        FaultClass::SharerFlip,
        FaultClass::StashClear,
        FaultClass::StashSpurious,
        FaultClass::DropGrant,
        FaultClass::StuckTransient,
    ];

    /// Stable lowercase label (artifact keys, CLI flags).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::NocDelay => "noc_delay",
            FaultClass::NocDuplicate => "noc_duplicate",
            FaultClass::SharerFlip => "sharer_flip",
            FaultClass::StashClear => "stash_clear",
            FaultClass::StashSpurious => "stash_spurious",
            FaultClass::DropGrant => "drop_grant",
            FaultClass::StuckTransient => "stuck_transient",
        }
    }

    /// Parses a [`FaultClass::label`] string.
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.iter().copied().find(|c| c.label() == s)
    }

    /// Every valid label, comma-joined — the help text parse errors
    /// carry so a typo'd class is always answerable from the message.
    pub fn label_help() -> String {
        FaultClass::ALL
            .iter()
            .map(|c| c.label())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Which mechanism is expected to catch a fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// A machine-wide invariant (I1–I8) flags the damage as a
    /// violation.
    Invariant,
    /// The forward-progress watchdog diagnoses a structured stall.
    Watchdog,
}

impl Detector {
    /// Every detector, in declaration order.
    pub const ALL: [Detector; 2] = [Detector::Invariant, Detector::Watchdog];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Detector::Invariant => "invariant",
            Detector::Watchdog => "watchdog",
        }
    }
}

/// The detector responsible for `class`: the fault-response matrix.
/// [`FaultClass::ALL`] mapped through it is the chaos campaign's
/// `fault_response` section, and the mutation gate asserts each class is caught by its
/// detector in practice.
///
/// Delay and stuck-transient faults starve forward progress without
/// corrupting state, so only the watchdog can see them; everything else
/// leaves a state footprint one of the checker invariants flags.
pub fn expected_detector(class: FaultClass) -> Detector {
    match class {
        FaultClass::NocDelay => Detector::Watchdog,
        FaultClass::NocDuplicate => Detector::Invariant,
        FaultClass::SharerFlip => Detector::Invariant,
        FaultClass::StashClear => Detector::Invariant,
        FaultClass::StashSpurious => Detector::Invariant,
        FaultClass::DropGrant => Detector::Invariant,
        FaultClass::StuckTransient => Detector::Watchdog,
    }
}

/// [`FaultClass::ALL`] mapped through [`expected_detector`], as
/// `(class, detector)` pairs spelled by `Debug`: the `fault_response`
/// section of the campaign's model.
pub fn fault_response_labels() -> BTreeSet<(String, String)> {
    FaultClass::ALL
        .iter()
        .map(|&c| (format!("{c:?}"), format!("{:?}", expected_detector(c))))
        .collect()
}

/// One scheduled injection window of a multi-fault campaign: `class`
/// rolls at `rate_per_mille` from cycle `onset`, stays hot for `len`
/// cycles, sleeps `gap` cycles, and repeats. A `len` or `gap` of `0`
/// means the burst never switches off once `onset` is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBurst {
    /// The fault class this burst injects.
    pub class: FaultClass,
    /// First cycle at which the burst can fire.
    pub onset: u64,
    /// Hot-window length in cycles (`0` = forever).
    pub len: u64,
    /// Cool-down between hot windows in cycles (`0` = no cool-down).
    pub gap: u64,
    /// Injection probability per opportunity inside the window,
    /// thousandths.
    pub rate_per_mille: u32,
}

impl FaultBurst {
    /// `true` when the burst's hot window covers cycle `now`.
    pub fn active_at(&self, now: u64) -> bool {
        if now < self.onset {
            return false;
        }
        if self.len == 0 || self.gap == 0 {
            return true;
        }
        (now - self.onset) % (self.len + self.gap) < self.len
    }

    /// Human-readable schedule phase at cycle `now` (`pending`, `burst`
    /// or `gap`) — embedded in diagnostic snapshots so a multi-fault
    /// stall is attributable without a rerun.
    pub fn phase_at(&self, now: u64) -> &'static str {
        if now < self.onset {
            "pending"
        } else if self.active_at(now) {
            "burst"
        } else {
            "gap"
        }
    }
}

/// Configuration for one faulty run.
///
/// Thread it into a machine with [`Machine::with_faults`]; a config with
/// no bursts and no watchdog bound is inert.
///
/// Every injection is armed by a [`FaultBurst`] window: a class fires
/// only inside its scheduled hot windows. A single-class run is one
/// always-on burst ([`FaultConfig::for_class`]); the chaos-campaign
/// layer composes several.
///
/// [`Machine::with_faults`]: crate::Machine::with_faults
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the injection RNG (independent of the workload seed).
    pub seed: u64,
    /// Cap on recorded injections; `0` = unlimited.
    pub max_injections: u64,
    /// Extra delivery delay for [`FaultClass::NocDelay`], cycles.
    pub delay_cycles: u64,
    /// How far a [`FaultClass::StuckTransient`] pins the block busy
    /// window into the future, cycles.
    pub stuck_cycles: u64,
    /// Forward-progress bound: a core that retires nothing for this many
    /// cycles is diagnosed as stalled. `0` disables the watchdog.
    pub watchdog_bound: u64,
    /// Scheduled injection windows; the only way a class is armed.
    pub bursts: Vec<FaultBurst>,
    /// Allowed injection-site indices: when non-empty, only the n-th
    /// would-fire opportunities named here actually inject — the
    /// minimizer's finest delta-debugging granularity. Empty = all.
    pub sites: Vec<u64>,
    /// Record per-(state×message) transition hit counts on the report
    /// (the chaos-coverage loop); off by default so plain chaos runs
    /// keep their historical artifacts.
    pub witness: bool,
}

impl FaultConfig {
    /// A fully inert config: no bursts, no watchdog.
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            seed: 0,
            max_injections: 0,
            delay_cycles: 0,
            stuck_cycles: 0,
            watchdog_bound: 0,
            bursts: Vec::new(),
            sites: Vec::new(),
            witness: false,
        }
    }

    /// The chaos-suite config for `class`: one always-on burst at rate
    /// 100% and a budget of one injection, so the fault fires at the
    /// first opportunity and never again.
    pub fn for_class(class: FaultClass, seed: u64) -> FaultConfig {
        let mut cfg = FaultConfig::for_campaign(seed).with_burst(FaultBurst {
            class,
            onset: 0,
            len: 0,
            gap: 0,
            rate_per_mille: 1000,
        });
        cfg.max_injections = 1;
        cfg
    }

    /// A campaign config: bursts added via [`FaultConfig::with_burst`]
    /// drive all injection, with starvation horizons far beyond the
    /// watchdog bound so liveness faults trip it deterministically. The
    /// budget is unlimited (bursts self-limit through their windows).
    pub fn for_campaign(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            delay_cycles: 50_000_000,
            stuck_cycles: 50_000_000,
            watchdog_bound: 1_000_000,
            ..FaultConfig::disabled()
        }
    }

    /// Appends one burst window.
    pub fn with_burst(mut self, burst: FaultBurst) -> FaultConfig {
        self.bursts.push(burst);
        self
    }

    /// Enables transition witnessing.
    pub fn with_witness(mut self) -> FaultConfig {
        self.witness = true;
        self
    }

    /// Every class this config's bursts can inject, deduplicated, in
    /// taxonomy order.
    pub fn enabled_classes(&self) -> Vec<FaultClass> {
        FaultClass::ALL
            .iter()
            .copied()
            .filter(|&c| self.bursts.iter().any(|b| b.class == c))
            .collect()
    }
}

impl std::fmt::Display for FaultConfig {
    /// Canonical `key=value` token string, the replayable form the
    /// minimizer saves next to diag snapshots. The `FromStr` impl
    /// round-trips it exactly.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        parts.push(format!("seed={}", self.seed));
        parts.push(format!("max={}", self.max_injections));
        parts.push(format!("delay={}", self.delay_cycles));
        parts.push(format!("stuck={}", self.stuck_cycles));
        parts.push(format!("watchdog={}", self.watchdog_bound));
        for b in &self.bursts {
            parts.push(format!(
                "burst={}:{}:{}:{}:{}",
                b.class.label(),
                b.onset,
                b.len,
                b.gap,
                b.rate_per_mille
            ));
        }
        if !self.sites.is_empty() {
            let sites: Vec<String> = self.sites.iter().map(u64::to_string).collect();
            parts.push(format!("sites={}", sites.join(",")));
        }
        if self.witness {
            parts.push("witness=true".to_string());
        }
        write!(f, "{}", parts.join(" "))
    }
}

fn parse_class(s: &str) -> Result<FaultClass, String> {
    FaultClass::parse(s).ok_or_else(|| {
        format!(
            "unknown fault class `{s}` (valid classes: {})",
            FaultClass::label_help()
        )
    })
}

fn parse_num<T: std::str::FromStr>(key: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("`{key}` wants an unsigned integer, got `{s}`"))
}

impl std::str::FromStr for FaultConfig {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) token grammar:
    /// whitespace-separated `key=value` tokens in any order. Unknown
    /// class labels list every valid label.
    fn from_str(s: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::disabled();
        for token in s.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("`{token}` is not a key=value token"))?;
            match key {
                "seed" => cfg.seed = parse_num(key, value)?,
                "max" => cfg.max_injections = parse_num(key, value)?,
                "delay" => cfg.delay_cycles = parse_num(key, value)?,
                "stuck" => cfg.stuck_cycles = parse_num(key, value)?,
                "watchdog" => cfg.watchdog_bound = parse_num(key, value)?,
                "burst" => {
                    let mut it = value.split(':');
                    let (Some(class), Some(onset), Some(len), Some(gap), Some(rate), None) = (
                        it.next(),
                        it.next(),
                        it.next(),
                        it.next(),
                        it.next(),
                        it.next(),
                    ) else {
                        return Err(format!("`burst={value}` wants class:onset:len:gap:rate"));
                    };
                    cfg.bursts.push(FaultBurst {
                        class: parse_class(class)?,
                        onset: parse_num("burst onset", onset)?,
                        len: parse_num("burst len", len)?,
                        gap: parse_num("burst gap", gap)?,
                        rate_per_mille: parse_num("burst rate", rate)?,
                    });
                }
                "sites" => {
                    cfg.sites = value
                        .split(',')
                        .map(|v| parse_num("sites", v))
                        .collect::<Result<Vec<u64>, String>>()?;
                }
                "witness" => match value {
                    "true" => cfg.witness = true,
                    "false" => cfg.witness = false,
                    other => return Err(format!("`witness` wants true or false, got `{other}`")),
                },
                other => return Err(format!("unknown fault-config key `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// Injection and detection counters, surfaced on
/// [`SimReport`](crate::SimReport) and persisted in sweep artifacts.
/// All-zero on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// NoC messages delayed.
    pub injected_noc_delay: u64,
    /// NoC demand requests duplicated.
    pub injected_noc_duplicate: u64,
    /// Directory views corrupted (holder dropped / owner mis-named).
    pub injected_sharer_flip: u64,
    /// Stash bits covering live hidden copies cleared.
    pub injected_stash_clear: u64,
    /// Spurious stash bits set on tracked lines.
    pub injected_stash_spurious: u64,
    /// Grants dropped on completion.
    pub injected_drop_grant: u64,
    /// Block busy windows pinned far in the future.
    pub injected_stuck_transient: u64,
    /// Detection events attributed to the invariant checker.
    pub detected_invariant: u64,
    /// Detection events attributed to the liveness watchdog.
    pub detected_watchdog: u64,
    /// `1` when the machine quiesced early (snapshot dumped) instead of
    /// running to completion.
    pub quiesced: u64,
}

impl FaultSummary {
    /// Total injections across classes.
    pub fn injected_total(&self) -> u64 {
        self.injected_noc_delay
            + self.injected_noc_duplicate
            + self.injected_sharer_flip
            + self.injected_stash_clear
            + self.injected_stash_spurious
            + self.injected_drop_grant
            + self.injected_stuck_transient
    }

    /// Total detection events across detectors.
    pub fn detected_total(&self) -> u64 {
        self.detected_invariant + self.detected_watchdog
    }

    /// The injection counter for `class`.
    pub fn injected_for(&self, class: FaultClass) -> u64 {
        match class {
            FaultClass::NocDelay => self.injected_noc_delay,
            FaultClass::NocDuplicate => self.injected_noc_duplicate,
            FaultClass::SharerFlip => self.injected_sharer_flip,
            FaultClass::StashClear => self.injected_stash_clear,
            FaultClass::StashSpurious => self.injected_stash_spurious,
            FaultClass::DropGrant => self.injected_drop_grant,
            FaultClass::StuckTransient => self.injected_stuck_transient,
        }
    }

    /// The detection counter for `detector`.
    pub fn detected_for(&self, detector: Detector) -> u64 {
        match detector {
            Detector::Invariant => self.detected_invariant,
            Detector::Watchdog => self.detected_watchdog,
        }
    }

    /// Bumps the injection counter for `class`.
    pub fn record_injection(&mut self, class: FaultClass) {
        match class {
            FaultClass::NocDelay => self.injected_noc_delay += 1,
            FaultClass::NocDuplicate => self.injected_noc_duplicate += 1,
            FaultClass::SharerFlip => self.injected_sharer_flip += 1,
            FaultClass::StashClear => self.injected_stash_clear += 1,
            FaultClass::StashSpurious => self.injected_stash_spurious += 1,
            FaultClass::DropGrant => self.injected_drop_grant += 1,
            FaultClass::StuckTransient => self.injected_stuck_transient += 1,
        }
    }

    /// Bumps the detection counter for `detector`.
    pub fn record_detection(&mut self, detector: Detector) {
        match detector {
            Detector::Invariant => self.detected_invariant += 1,
            Detector::Watchdog => self.detected_watchdog += 1,
        }
    }
}

/// The runtime side of a [`FaultConfig`]: the injection RNG plus the
/// accumulating [`FaultSummary`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: DetRng,
    /// Counters accumulated so far.
    pub summary: FaultSummary,
    /// Would-fire opportunities seen so far — the index space the
    /// minimizer's `sites` filter selects over.
    opportunities: u64,
}

impl FaultPlan {
    /// Builds a plan from `cfg`.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            rng: DetRng::seed_from(cfg.seed ^ 0xC4A0_5DA7),
            cfg,
            summary: FaultSummary::default(),
            opportunities: 0,
        }
    }

    /// The configuration this plan runs.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The watchdog bound, `None` when the watchdog is disarmed.
    pub fn watchdog_bound(&self) -> Option<u64> {
        (self.cfg.watchdog_bound > 0).then_some(self.cfg.watchdog_bound)
    }

    fn budget_open(&self) -> bool {
        self.cfg.max_injections == 0 || self.summary.injected_total() < self.cfg.max_injections
    }

    /// The strongest rate among the bursts for `class` hot at cycle `now`
    /// (`None` when no burst for `class` is hot).
    fn burst_rate(&self, class: FaultClass, now: u64) -> Option<u32> {
        self.cfg
            .bursts
            .iter()
            .filter(|b| b.class == class && b.active_at(now))
            .map(|b| b.rate_per_mille)
            .max()
    }

    /// `true` when a burst for `class` is hot at cycle `now` and the
    /// budget is open. Does not consume randomness or record anything.
    pub fn armed_at(&self, class: FaultClass, now: u64) -> bool {
        self.burst_rate(class, now).is_some() && self.budget_open()
    }

    /// Rolls the injection dice for `class` at cycle `now`, at the rate
    /// of the strongest burst hot for `class`: `true` when the fault
    /// should fire *and the caller will apply it*. Consumes one RNG draw
    /// when the rate is below 100%, counts the would-fire opportunity,
    /// and applies the `sites` allow-list. The caller records the
    /// injection via [`FaultPlan::record_injection`] only once the
    /// damage is actually applied (targeted corruptions may find no
    /// victim).
    pub fn roll_at(&mut self, class: FaultClass, now: u64) -> bool {
        let Some(rate) = self.burst_rate(class, now) else {
            return false;
        };
        if !self.budget_open() {
            return false;
        }
        let fires = rate >= 1000 || self.rng.below(1000) < rate as u64;
        if !fires {
            return false;
        }
        let site = self.opportunities;
        self.opportunities += 1;
        self.cfg.sites.is_empty() || self.cfg.sites.contains(&site)
    }

    /// Records one applied injection of `class`.
    pub fn record_injection(&mut self, class: FaultClass) {
        self.summary.record_injection(class);
    }

    /// Records one detection event by `detector`.
    pub fn record_detection(&mut self, detector: Detector) {
        self.summary.record_detection(detector);
    }

    /// Access to the plan's RNG for target selection.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }
}

/// The schema tag every diagnostic snapshot carries.
pub const SNAPSHOT_SCHEMA: &str = "stashdir/diag-snapshot/v1";

/// Validates a parsed diagnostic snapshot against the
/// [`SNAPSHOT_SCHEMA`] shape: schema tag, quiesce reason, cycle and
/// transaction counts, per-core pipeline/cache sections, per-bank
/// directory sections, in-flight messages and the recent-event trail.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_snapshot(v: &Value) -> Result<(), String> {
    fn need<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
        v.get(key).ok_or_else(|| format!("missing key `{key}`"))
    }
    fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
        need(v, key)?
            .as_u64()
            .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
    }
    fn need_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
        need(v, key)?
            .as_array()
            .ok_or_else(|| format!("`{key}` is not an array"))
    }
    let schema = need(v, "schema")?
        .as_str()
        .ok_or("`schema` is not a string")?;
    if schema != SNAPSHOT_SCHEMA {
        return Err(format!("schema `{schema}`, expected `{SNAPSHOT_SCHEMA}`"));
    }
    need(v, "reason")?
        .as_str()
        .ok_or("`reason` is not a string")?;
    need_u64(v, "cycle")?;
    need_u64(v, "transactions")?;
    for (i, core) in need_array(v, "cores")?.iter().enumerate() {
        for key in ["core", "pc", "trace_len", "ops_done", "last_retire"] {
            need_u64(core, key).map_err(|e| format!("cores[{i}]: {e}"))?;
        }
        need(core, "pending").map_err(|e| format!("cores[{i}]: {e}"))?;
        need(core, "finished")
            .ok()
            .and_then(Value::as_bool)
            .ok_or_else(|| format!("cores[{i}]: `finished` is not a bool"))?;
        for key in ["l1_blocks", "l2", "writebacks"] {
            need_array(core, key).map_err(|e| format!("cores[{i}]: {e}"))?;
        }
    }
    for (i, bank) in need_array(v, "banks")?.iter().enumerate() {
        need_u64(bank, "bank").map_err(|e| format!("banks[{i}]: {e}"))?;
        need_u64(bank, "llc_lines").map_err(|e| format!("banks[{i}]: {e}"))?;
        for key in ["dir", "stash_bits"] {
            need_array(bank, key).map_err(|e| format!("banks[{i}]: {e}"))?;
        }
    }
    for (i, msg) in need_array(v, "in_flight")?.iter().enumerate() {
        need_u64(msg, "at").map_err(|e| format!("in_flight[{i}]: {e}"))?;
        need(msg, "event")
            .ok()
            .and_then(Value::as_str)
            .ok_or_else(|| format!("in_flight[{i}]: `event` is not a string"))?;
    }
    for (i, line) in need_array(v, "recent_events")?.iter().enumerate() {
        line.as_str()
            .ok_or_else(|| format!("recent_events[{i}] is not a string"))?;
    }
    // Optional on fault-free snapshots; faulty runs embed the active
    // schedule so a multi-fault stall is attributable without a rerun.
    if let Some(fault) = v.get("fault") {
        for (i, class) in need_array(fault, "classes")?.iter().enumerate() {
            class
                .as_str()
                .and_then(FaultClass::parse)
                .ok_or_else(|| format!("fault.classes[{i}] is not a fault-class label"))?;
        }
        for (i, burst) in need_array(fault, "bursts")?.iter().enumerate() {
            need(burst, "class")
                .ok()
                .and_then(Value::as_str)
                .and_then(FaultClass::parse)
                .ok_or_else(|| format!("fault.bursts[{i}]: `class` is not a fault-class label"))?;
            for key in ["onset", "len", "gap", "rate"] {
                need_u64(burst, key).map_err(|e| format!("fault.bursts[{i}]: {e}"))?;
            }
            let phase = need(burst, "phase")
                .ok()
                .and_then(Value::as_str)
                .ok_or_else(|| format!("fault.bursts[{i}]: `phase` is not a string"))?;
            if !matches!(phase, "pending" | "burst" | "gap") {
                return Err(format!("fault.bursts[{i}]: unknown phase `{phase}`"));
            }
        }
        need_u64(fault, "injected").map_err(|e| format!("fault: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for &class in FaultClass::ALL {
            assert_eq!(FaultClass::parse(class.label()), Some(class));
        }
        assert_eq!(FaultClass::parse("bogus"), None);
    }

    #[test]
    fn disabled_plan_never_fires() {
        let mut plan = FaultPlan::new(FaultConfig::disabled());
        for &class in FaultClass::ALL {
            assert!(!plan.roll_at(class, 0));
        }
        assert_eq!(plan.summary, FaultSummary::default());
        assert_eq!(plan.watchdog_bound(), None);
    }

    #[test]
    fn max_injections_caps_the_budget() {
        let mut cfg = FaultConfig::for_class(FaultClass::DropGrant, 7);
        cfg.max_injections = 2;
        let mut plan = FaultPlan::new(cfg);
        assert!(plan.roll_at(FaultClass::DropGrant, 0));
        plan.record_injection(FaultClass::DropGrant);
        assert!(plan.roll_at(FaultClass::DropGrant, 10));
        plan.record_injection(FaultClass::DropGrant);
        assert!(!plan.roll_at(FaultClass::DropGrant, 20), "budget exhausted");
        assert!(
            !plan.roll_at(FaultClass::NocDelay, 0),
            "wrong class never arms"
        );
        assert_eq!(plan.summary.injected_drop_grant, 2);
        assert_eq!(plan.summary.injected_total(), 2);
    }

    #[test]
    fn burst_windows_gate_arming_by_cycle() {
        let b = FaultBurst {
            class: FaultClass::SharerFlip,
            onset: 100,
            len: 10,
            gap: 90,
            rate_per_mille: 1000,
        };
        assert_eq!(b.phase_at(0), "pending");
        assert!(!b.active_at(99));
        assert!(b.active_at(100));
        assert!(b.active_at(109));
        assert_eq!(b.phase_at(105), "burst");
        assert!(!b.active_at(110));
        assert_eq!(b.phase_at(150), "gap");
        assert!(b.active_at(200), "window repeats every len+gap cycles");

        let forever = FaultBurst {
            len: 0,
            gap: 0,
            ..b
        };
        assert!(forever.active_at(100));
        assert!(forever.active_at(1_000_000), "len 0 never switches off");

        let mut plan = FaultPlan::new(FaultConfig::for_campaign(3).with_burst(b));
        assert!(!plan.roll_at(FaultClass::SharerFlip, 50), "before onset");
        assert!(plan.roll_at(FaultClass::SharerFlip, 105), "inside window");
        assert!(!plan.roll_at(FaultClass::SharerFlip, 150), "in the gap");
        assert!(
            !plan.roll_at(FaultClass::StashClear, 105),
            "other classes stay cold"
        );
        assert!(plan.armed_at(FaultClass::SharerFlip, 105));
        assert!(!plan.armed_at(FaultClass::SharerFlip, 150));
    }

    #[test]
    fn sites_filter_selects_individual_injections() {
        let burst = FaultBurst {
            class: FaultClass::StashClear,
            onset: 0,
            len: 0,
            gap: 0,
            rate_per_mille: 1000,
        };
        let mut cfg = FaultConfig::for_campaign(9).with_burst(burst);
        cfg.sites = vec![1];
        let mut plan = FaultPlan::new(cfg);
        assert!(
            !plan.roll_at(FaultClass::StashClear, 10),
            "site 0 is filtered out"
        );
        assert!(plan.roll_at(FaultClass::StashClear, 20), "site 1 fires");
        assert!(!plan.roll_at(FaultClass::StashClear, 30), "site 2 filtered");
    }

    #[test]
    fn config_display_round_trips_through_from_str() {
        let cfg = FaultConfig::for_class(FaultClass::DropGrant, 42);
        let parsed: FaultConfig = cfg.to_string().parse().expect("parse");
        assert_eq!(parsed, cfg);

        let mut campaign = FaultConfig::for_campaign(7)
            .with_burst(FaultBurst {
                class: FaultClass::NocDelay,
                onset: 200,
                len: 50,
                gap: 150,
                rate_per_mille: 250,
            })
            .with_burst(FaultBurst {
                class: FaultClass::StuckTransient,
                onset: 0,
                len: 0,
                gap: 0,
                rate_per_mille: 1000,
            })
            .with_witness();
        campaign.sites = vec![3, 7];
        let parsed: FaultConfig = campaign.to_string().parse().expect("parse");
        assert_eq!(parsed, campaign);
        assert_eq!(
            campaign.enabled_classes(),
            vec![FaultClass::NocDelay, FaultClass::StuckTransient],
            "taxonomy order, deduplicated"
        );
    }

    #[test]
    fn parse_errors_list_every_valid_class_label() {
        let err = "burst=bogus:0:0:0:1000"
            .parse::<FaultConfig>()
            .expect_err("bad burst class");
        for &class in FaultClass::ALL {
            assert!(err.contains(class.label()), "{err} lists {}", class.label());
        }
        assert!("nonsense".parse::<FaultConfig>().is_err());
        assert!("burst=noc_delay:1:2".parse::<FaultConfig>().is_err());
        // The retired single-class grammar fails by name, not silently.
        for token in ["pace=3", "class=sharer_flip", "rate=1000"] {
            let err = token.parse::<FaultConfig>().expect_err(token);
            assert!(err.contains("unknown fault-config key"), "{token}: {err}");
        }
    }

    #[test]
    fn summary_counters_accumulate_by_class_and_detector() {
        let mut s = FaultSummary::default();
        for &class in FaultClass::ALL {
            s.record_injection(class);
        }
        assert_eq!(s.injected_total(), FaultClass::ALL.len() as u64);
        s.record_detection(Detector::Invariant);
        s.record_detection(Detector::Watchdog);
        s.record_detection(Detector::Watchdog);
        assert_eq!(s.detected_invariant, 1);
        assert_eq!(s.detected_watchdog, 2);
        assert_eq!(s.detected_total(), 3);
    }
}
