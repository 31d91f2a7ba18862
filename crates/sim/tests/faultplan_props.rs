//! Property tests for the `FaultConfig` plan grammar: every plan the
//! campaign layer can build — single-class and multi-burst schedules,
//! site pins, witnessing — must round-trip through its
//! `Display` string (the replayable form the minimizer saves next to
//! diag snapshots), and an unknown class label must name every valid
//! one in its error, mirroring `dirspec_props.rs`.

use proptest::prelude::*;
use stashdir_sim::{FaultBurst, FaultClass, FaultConfig};

fn any_class() -> impl Strategy<Value = FaultClass> {
    prop_oneof![
        Just(FaultClass::NocDelay),
        Just(FaultClass::NocDuplicate),
        Just(FaultClass::SharerFlip),
        Just(FaultClass::StashClear),
        Just(FaultClass::StashSpurious),
        Just(FaultClass::DropGrant),
        Just(FaultClass::StuckTransient),
    ]
}

fn any_burst() -> impl Strategy<Value = FaultBurst> {
    (
        any_class(),
        0u64..100_000,
        0u64..10_000,
        0u64..50_000,
        0u32..1_001,
    )
        .prop_map(|(class, onset, len, gap, rate_per_mille)| FaultBurst {
            class,
            onset,
            len,
            gap,
            rate_per_mille,
        })
}

/// Plans as the campaign and minimizer produce them: up to four burst
/// windows, optional site pins and witnessing.
fn any_plan() -> impl Strategy<Value = FaultConfig> {
    (
        (any::<u64>(), 0u64..1_000),
        (
            1u64..100_000_000,
            1u64..100_000_000,
            1u64..10_000_000,
            prop::collection::vec(any_burst(), 0..4),
            prop::collection::vec(0u64..10_000, 0..4),
        ),
        any::<bool>(),
    )
        .prop_map(
            |((seed, max), (delay, stuck, watchdog, bursts, sites), witness)| {
                let mut cfg = FaultConfig::disabled();
                cfg.seed = seed;
                cfg.max_injections = max;
                cfg.delay_cycles = delay;
                cfg.stuck_cycles = stuck;
                cfg.watchdog_bound = watchdog;
                cfg.bursts = bursts;
                cfg.sites = sites;
                cfg.witness = witness;
                cfg
            },
        )
}

/// Random lowercase identifiers (with underscores, like real labels)
/// for the unknown-class property.
fn lowercase_word() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..27, 1..17).prop_map(|v| {
        v.into_iter()
            .map(|b| if b == 26 { '_' } else { (b'a' + b) as char })
            .collect()
    })
}

proptest! {
    #[test]
    fn display_parses_back_to_the_same_plan(plan in any_plan()) {
        let shown = plan.to_string();
        let parsed: FaultConfig = shown.parse().expect("Display output must parse");
        prop_assert_eq!(&parsed, &plan);
        // And the rendering is a fixed point: no canonicalization drift.
        prop_assert_eq!(parsed.to_string(), shown);
    }

    #[test]
    fn unknown_class_labels_name_every_valid_label(label in lowercase_word()) {
        if FaultClass::parse(&label).is_some() {
            return Ok(()); // sampled a real label; nothing to check
        }
        let err = format!("burst={label}:0:0:0:1000")
            .parse::<FaultConfig>()
            .expect_err("unknown burst class must not parse");
        for class in FaultClass::ALL {
            prop_assert!(
                err.contains(class.label()),
                "error `{}` does not name valid class `{}`",
                err,
                class.label()
            );
        }
    }
}
