//! Golden-artifact schema pinning for `StatSink`.
//!
//! `tests/fixtures/pre_pr_case_artifact.json` is a real case artifact
//! captured from an earlier sweep. Loading it through today's
//! deserializer and re-rendering it must reproduce the file byte for
//! byte: the sink's internal layout is free to change, but any drift in
//! key order, float formatting, or section layout would silently
//! invalidate every committed results table.

use stashdir::common::json::object_from_map;
use stashdir::common::json::Value;
use stashdir::StatSink;
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

#[test]
fn sharded_sink_renders_like_a_single_sink() {
    // Spread the same additions over one sink and over three shards
    // merged in reverse: the exported JSON (the only externally visible
    // face of the sink) must match.
    let keys = ["noc.flits", "l1.hits", "dir.lookups", "l1.misses"];
    let add = |sink: &mut StatSink, key: &str, delta: f64| {
        sink.put(key, sink.get_or_zero(key) + delta);
    };
    let mut single = StatSink::new();
    let mut shards = [StatSink::new(), StatSink::new(), StatSink::new()];
    for i in 0..100usize {
        let key = keys[i % keys.len()];
        add(&mut single, key, i as f64);
        add(&mut shards[i % 3], key, i as f64);
    }
    let mut merged = StatSink::new();
    for shard in shards.iter().rev() {
        merged.merge(shard);
    }
    let single_json = object_from_map(&single.iter().map(|(k, v)| (k.to_string(), v)).collect());
    let merged_json = object_from_map(&merged.iter().map(|(k, v)| (k.to_string(), v)).collect());
    assert_eq!(single_json.render_pretty(), merged_json.render_pretty());
    assert_eq!(single, merged);
}
