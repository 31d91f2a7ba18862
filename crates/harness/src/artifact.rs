//! Structured per-case artifacts: deterministic JSON serialization of
//! [`SimReport`]s, written alongside the run manifest so downstream
//! tooling (plots, regression diffs) never has to re-run a simulation.
//!
//! Serialization is *canonical*: stats are emitted in `StatSink`'s sorted
//! key order and numbers in shortest-roundtrip form, so the same report
//! always produces byte-identical text regardless of which worker thread
//! produced it — the property the parallel-equals-serial test pins down.

use stashdir::common::json::Value;
use stashdir::sim::report::{TimelineSample, TransitionHits};
use stashdir::{FaultSummary, SimReport, StatSink};
use std::io;
use std::path::{Path, PathBuf};

/// Serializes a report to its canonical JSON tree.
///
/// The report is destructured without `..`, so a field added to
/// [`SimReport`] fails to compile here until it is serialized (or
/// explicitly dropped), and the same holds for the sample and fault
/// serializers below.
pub fn report_to_json(report: &SimReport) -> Value {
    let SimReport {
        cycles,
        completed_ops,
        violations,
        sink,
        timeline,
        fault,
        snapshot,
        coverage,
    } = report;
    let sink = Value::Object(
        sink.iter()
            .map(|(k, v)| (k.to_string(), Value::Number(v)))
            .collect(),
    );
    let timeline = Value::array(timeline.iter().map(sample_to_json).collect());
    let violations = Value::array(violations.iter().map(|v| Value::from(v.as_str())).collect());
    let mut fields = vec![
        ("cycles".into(), Value::from(*cycles)),
        ("completed_ops".into(), Value::from(*completed_ops)),
        ("violations".into(), violations),
        ("stats".into(), sink),
        ("timeline".into(), timeline),
    ];
    // Fault counters and the diagnostic snapshot appear only on runs
    // that actually injected or detected something, so fault-free
    // artifacts stay byte-identical to historical ones.
    if *fault != FaultSummary::default() {
        fields.push(("fault".into(), fault_to_json(fault)));
    }
    if let Some(snapshot) = snapshot {
        fields.push(("snapshot".into(), Value::from(snapshot.as_str())));
    }
    // Transition coverage appears only on witnessing (campaign) runs.
    if !coverage.is_empty() {
        fields.push((
            "coverage".into(),
            Value::array(coverage.iter().map(hits_to_json).collect()),
        ));
    }
    Value::object(fields)
}

fn hits_to_json(h: &TransitionHits) -> Value {
    Value::object(vec![
        ("section".into(), Value::from(h.section.as_str())),
        ("row".into(), Value::from(h.row.as_str())),
        ("col".into(), Value::from(h.col.as_str())),
        ("hits".into(), Value::from(h.hits)),
    ])
}

fn hits_from_json(value: &Value) -> Option<TransitionHits> {
    Some(TransitionHits {
        section: value.get("section")?.as_str()?.to_string(),
        row: value.get("row")?.as_str()?.to_string(),
        col: value.get("col")?.as_str()?.to_string(),
        hits: value.get("hits")?.as_u64()?,
    })
}

/// Rebuilds a report from its canonical JSON tree.
pub fn report_from_json(value: &Value) -> Option<SimReport> {
    let cycles = value.get("cycles")?.as_u64()?;
    let completed_ops = value.get("completed_ops")?.as_u64()?;
    let violations = value
        .get("violations")?
        .as_array()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<Vec<_>>>()?;
    let sink: StatSink = value
        .get("stats")?
        .as_object()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect::<Option<Vec<_>>>()?
        .into_iter()
        .collect();
    let timeline = value
        .get("timeline")?
        .as_array()?
        .iter()
        .map(sample_from_json)
        .collect::<Option<Vec<_>>>()?;
    let fault = match value.get("fault") {
        Some(v) => fault_from_json(v)?,
        None => FaultSummary::default(),
    };
    let snapshot = value
        .get("snapshot")
        .and_then(Value::as_str)
        .map(str::to_string);
    let coverage = match value.get("coverage") {
        Some(v) => v
            .as_array()?
            .iter()
            .map(hits_from_json)
            .collect::<Option<Vec<_>>>()?,
        None => Vec::new(),
    };
    Some(SimReport {
        cycles,
        completed_ops,
        violations,
        sink,
        timeline,
        fault,
        snapshot,
        coverage,
    })
}

/// Serializes the fault/detection counters.
pub fn fault_to_json(f: &FaultSummary) -> Value {
    let FaultSummary {
        injected_noc_delay,
        injected_noc_duplicate,
        injected_sharer_flip,
        injected_stash_clear,
        injected_stash_spurious,
        injected_drop_grant,
        injected_stuck_transient,
        detected_invariant,
        detected_watchdog,
        quiesced,
    } = *f;
    Value::object(vec![
        ("injected_noc_delay".into(), Value::from(injected_noc_delay)),
        (
            "injected_noc_duplicate".into(),
            Value::from(injected_noc_duplicate),
        ),
        (
            "injected_sharer_flip".into(),
            Value::from(injected_sharer_flip),
        ),
        (
            "injected_stash_clear".into(),
            Value::from(injected_stash_clear),
        ),
        (
            "injected_stash_spurious".into(),
            Value::from(injected_stash_spurious),
        ),
        (
            "injected_drop_grant".into(),
            Value::from(injected_drop_grant),
        ),
        (
            "injected_stuck_transient".into(),
            Value::from(injected_stuck_transient),
        ),
        ("detected_invariant".into(), Value::from(detected_invariant)),
        ("detected_watchdog".into(), Value::from(detected_watchdog)),
        ("quiesced".into(), Value::from(quiesced)),
    ])
}

/// Rebuilds the fault/detection counters.
pub fn fault_from_json(value: &Value) -> Option<FaultSummary> {
    Some(FaultSummary {
        injected_noc_delay: value.get("injected_noc_delay")?.as_u64()?,
        injected_noc_duplicate: value.get("injected_noc_duplicate")?.as_u64()?,
        injected_sharer_flip: value.get("injected_sharer_flip")?.as_u64()?,
        injected_stash_clear: value.get("injected_stash_clear")?.as_u64()?,
        injected_stash_spurious: value.get("injected_stash_spurious")?.as_u64()?,
        injected_drop_grant: value.get("injected_drop_grant")?.as_u64()?,
        injected_stuck_transient: value.get("injected_stuck_transient")?.as_u64()?,
        detected_invariant: value.get("detected_invariant")?.as_u64()?,
        detected_watchdog: value.get("detected_watchdog")?.as_u64()?,
        quiesced: value.get("quiesced")?.as_u64()?,
    })
}

fn sample_to_json(s: &TimelineSample) -> Value {
    let TimelineSample {
        cycle,
        dir_occupancy,
        ops,
        silent_evictions,
        invalidating_evictions,
        discoveries,
    } = *s;
    Value::object(vec![
        ("cycle".into(), Value::from(cycle)),
        ("dir_occupancy".into(), Value::from(dir_occupancy)),
        ("ops".into(), Value::from(ops)),
        ("silent_evictions".into(), Value::from(silent_evictions)),
        (
            "invalidating_evictions".into(),
            Value::from(invalidating_evictions),
        ),
        ("discoveries".into(), Value::from(discoveries)),
    ])
}

fn sample_from_json(value: &Value) -> Option<TimelineSample> {
    Some(TimelineSample {
        cycle: value.get("cycle")?.as_u64()?,
        dir_occupancy: value.get("dir_occupancy")?.as_u64()?,
        ops: value.get("ops")?.as_u64()?,
        silent_evictions: value.get("silent_evictions")?.as_u64()?,
        invalidating_evictions: value.get("invalidating_evictions")?.as_u64()?,
        discoveries: value.get("discoveries")?.as_u64()?,
    })
}

/// The artifact path for a case inside a run directory.
pub fn case_path(run_dir: &Path, case_id: &str) -> PathBuf {
    run_dir.join("cases").join(format!("{case_id}.json"))
}

/// Writes a case's report artifact (creating `cases/` as needed) as
/// pretty-printed JSON.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_report(run_dir: &Path, case_id: &str, report: &SimReport) -> io::Result<PathBuf> {
    let path = case_path(run_dir, case_id);
    crate::fsio::write_atomic(&path, &report_to_json(report).render_pretty())?;
    Ok(path)
}

/// Loads a case's report artifact. A present-but-corrupt artifact
/// (truncated or malformed) is quarantined as `<case>.json.corrupt` so a
/// resume fsck re-runs the case instead of trusting or tripping on it.
///
/// # Errors
///
/// Returns an I/O error when the file is missing or unreadable, or an
/// `InvalidData` error when it does not parse back into a report (the
/// file has then been moved to quarantine).
pub fn load_report(run_dir: &Path, case_id: &str) -> io::Result<SimReport> {
    let path = case_path(run_dir, case_id);
    let text = std::fs::read_to_string(&path)?;
    let parsed = Value::parse(&text).ok().and_then(|v| report_from_json(&v));
    match parsed {
        Some(report) => Ok(report),
        None => {
            let _ = crate::fsio::quarantine(&path);
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "malformed report artifact {} (quarantined as .corrupt)",
                    path.display()
                ),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimReport {
        let mut sink = StatSink::new();
        sink.put("dir.silent_evictions", 42.0);
        sink.put("core.mean_miss_latency", 17.25);
        SimReport {
            cycles: 123_456,
            completed_ops: 16_000,
            violations: vec!["example, with comma".into()],
            sink,
            timeline: vec![TimelineSample {
                cycle: 50_000,
                dir_occupancy: 512,
                ops: 9_000,
                silent_evictions: 100,
                invalidating_evictions: 3,
                discoveries: 7,
            }],
            fault: FaultSummary::default(),
            snapshot: None,
            coverage: Vec::new(),
        }
    }

    #[test]
    fn report_round_trips() {
        let r = sample_report();
        let v = report_to_json(&r);
        let back = report_from_json(&Value::parse(&v.render_pretty()).unwrap()).unwrap();
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.completed_ops, r.completed_ops);
        assert_eq!(back.violations, r.violations);
        assert_eq!(back.sink, r.sink);
        assert_eq!(back.timeline, r.timeline);
    }

    #[test]
    fn serialization_is_deterministic() {
        let r = sample_report();
        assert_eq!(
            report_to_json(&r).render_pretty(),
            report_to_json(&r.clone()).render_pretty()
        );
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join(format!("stashdir_artifact_{}", std::process::id()));
        let r = sample_report();
        let path = save_report(&dir, "case-x", &r).unwrap();
        assert!(path.ends_with("cases/case-x.json"));
        let back = load_report(&dir, "case-x").unwrap();
        assert_eq!(back.sink, r.sink);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_artifact_is_quarantined_on_load() {
        let dir = std::env::temp_dir().join(format!("stashdir_artifact_q_{}", std::process::id()));
        let r = sample_report();
        let path = save_report(&dir, "case-t", &r).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_report(&dir, "case-t").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!path.exists(), "corrupt artifact must be moved aside");
        assert!(path.with_file_name("case-t.json.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_report_round_trips_with_counters_and_snapshot() {
        let mut r = sample_report();
        r.fault.injected_sharer_flip = 1;
        r.fault.detected_invariant = 2;
        r.fault.quiesced = 1;
        r.snapshot = Some("{\"schema\": \"stashdir/diag-snapshot/v1\"}".to_string());
        let back =
            report_from_json(&Value::parse(&report_to_json(&r).render_pretty()).unwrap()).unwrap();
        assert_eq!(back.fault, r.fault);
        assert_eq!(back.snapshot, r.snapshot);
    }

    #[test]
    fn fault_free_artifacts_carry_no_fault_keys() {
        let text = report_to_json(&sample_report()).render_pretty();
        assert!(!text.contains("\"fault\""));
        assert!(!text.contains("\"snapshot\""));
        assert!(!text.contains("\"coverage\""));
    }

    #[test]
    fn witnessed_coverage_round_trips() {
        let mut r = sample_report();
        r.coverage = vec![
            TransitionHits {
                section: "private_probe".into(),
                row: "Modified".into(),
                col: "FwdGetS".into(),
                hits: 3,
            },
            TransitionHits {
                section: "home".into(),
                row: "GetS".into(),
                col: "Untracked".into(),
                hits: 12,
            },
        ];
        let text = report_to_json(&r).render_pretty();
        assert!(text.contains("\"coverage\""));
        let back = report_from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back.coverage, r.coverage);
    }
}
