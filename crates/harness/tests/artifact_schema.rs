//! Golden-artifact schema pinning for `StatSink`.
//!
//! `tests/fixtures/pre_pr_case_artifact.json` is a real case artifact
//! captured from an earlier sweep. Loading it through today's
//! deserializer and re-rendering it must reproduce the file byte for
//! byte: the sink's internal layout is free to change, but any drift in
//! key order, float formatting, or section layout would silently
//! invalidate every committed results table.

use stashdir::common::json::Value;
use stashdir_harness::artifact::{report_from_json, report_to_json};

const GOLDEN: &str = include_str!("fixtures/pre_pr_case_artifact.json");

#[test]
fn pre_pr_artifact_roundtrips_byte_identical() {
    let value = Value::parse(GOLDEN).expect("golden artifact parses");
    let report = report_from_json(&value).expect("golden artifact deserializes");
    let rendered = report_to_json(&report).render_pretty();
    assert_eq!(
        rendered, GOLDEN,
        "the sink must re-render the captured artifact byte-for-byte"
    );
}
