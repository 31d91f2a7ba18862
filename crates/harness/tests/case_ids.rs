//! Case identity regression: the id of every case the sweep and the
//! chaos campaign's static rounds expand, pinned as a fixture.
//!
//! An id's digest suffix covers the whole machine configuration, so a
//! renamed, reordered or deleted config field moves every id and breaks
//! resumed manifests and the golden fixtures' names. Params are given
//! explicitly: `Params::default()` reads the environment.

use stashdir_harness::campaign::{baseline_cases, pairwise_cases};
use stashdir_harness::{registry, Params};

const FIXTURE: &str = include_str!("fixtures/case_ids.txt");

/// `<experiment key> <case id>` lines: every registered experiment's
/// cases at the default sweep params, then the campaign's static rounds
/// at the sweep's and the CI smoke's op counts.
fn case_ids() -> Vec<String> {
    let sweep = Params {
        ops: 10_000,
        seed: 7,
    };
    let mut lines = Vec::new();
    for exp in registry() {
        lines.extend(
            exp.cases(sweep)
                .iter()
                .map(|c| format!("{} {}", exp.key, c.id())),
        );
    }
    for ops in [10_000, 400] {
        let p = Params { ops, seed: 7 };
        let rounds = [
            ("baseline", baseline_cases(p)),
            ("pairwise", pairwise_cases(p)),
        ];
        for (round, cases) in rounds {
            let label = format!("campaign-{round}-o{ops}");
            lines.extend(cases.iter().map(|c| format!("{label} {}", c.id())));
        }
    }
    lines
}

#[test]
fn every_case_id_matches_the_fixture() {
    let got = case_ids();
    let want: Vec<&str> = FIXTURE.lines().collect();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "case id {i} drifted");
    }
    assert_eq!(got.len(), want.len(), "case count changed");
}
