//! Run manifests: the durable record of a sweep, written to
//! `results/<run>/manifest.json`.
//!
//! A manifest records what was planned (experiments, params, harness
//! version), what happened (per-case status, duration, config digest,
//! error), and how fast (wall-clock vs summed case time = achieved
//! speedup). On `--resume`, cases whose manifest record says `completed`
//! *and* whose report artifact is present and parseable are skipped and
//! their reports loaded from disk; everything else re-runs.

use crate::digest;
use crate::pool::{CaseOutcome, CaseStatus};
use stashdir::common::json::Value;
use std::io;
use std::path::Path;
use std::time::Duration;

/// One case's record in the manifest.
#[derive(Debug, Clone)]
pub struct CaseRecord {
    /// The case identity (also the artifact file stem).
    pub id: String,
    /// Full 64-bit config digest (resume safety: an id collision with a
    /// different config re-runs).
    pub digest: String,
    /// Terminal status.
    pub status: CaseStatus,
    /// Simulation wall time in milliseconds.
    pub duration_ms: u64,
    /// Captured error for failed cases.
    pub error: Option<String>,
}

/// The durable record of one sweep invocation.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Run name (the `results/<run>/` directory stem).
    pub run: String,
    /// Harness crate version that produced the run.
    pub harness_version: String,
    /// Experiment keys included in the run.
    pub experiments: Vec<String>,
    /// Ops per core the run used.
    pub ops: usize,
    /// Base workload seed the run used.
    pub seed: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall time in milliseconds.
    pub wall_ms: u64,
    /// Summed per-case simulation time in milliseconds (what a serial
    /// run would have cost).
    pub total_case_ms: u64,
    /// Achieved parallel speedup: case time executed *this invocation*
    /// divided by `wall_ms` (resumed cases' recorded durations count in
    /// `total_case_ms` but not here).
    pub speedup: f64,
    /// Per-case records, in plan order.
    pub cases: Vec<CaseRecord>,
}

impl RunManifest {
    /// Builds a manifest from pool outcomes.
    pub fn from_outcomes(
        run: impl Into<String>,
        experiments: Vec<String>,
        ops: usize,
        seed: u64,
        jobs: usize,
        wall: Duration,
        outcomes: &[CaseOutcome],
    ) -> Self {
        let total_case_ms: u64 = outcomes.iter().map(|o| o.duration.as_millis() as u64).sum();
        let wall_ms = wall.as_millis() as u64;
        RunManifest {
            run: run.into(),
            harness_version: env!("CARGO_PKG_VERSION").to_string(),
            experiments,
            ops,
            seed,
            jobs,
            wall_ms,
            total_case_ms,
            speedup: total_case_ms as f64 / wall_ms.max(1) as f64,
            cases: outcomes
                .iter()
                .map(|o| CaseRecord {
                    id: o.spec.id(),
                    digest: digest::hex(o.spec.digest()),
                    status: o.status,
                    duration_ms: o.duration.as_millis() as u64,
                    error: o.error.clone(),
                })
                .collect(),
        }
    }

    /// Serializes to the manifest JSON tree.
    pub fn to_json(&self) -> Value {
        let cases = self
            .cases
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("id".to_string(), Value::from(c.id.as_str())),
                    ("digest".to_string(), Value::from(c.digest.as_str())),
                    ("status".to_string(), Value::from(c.status.as_str())),
                    ("duration_ms".to_string(), Value::from(c.duration_ms)),
                ];
                if let Some(e) = &c.error {
                    fields.push(("error".to_string(), Value::from(e.as_str())));
                }
                Value::Object(fields)
            })
            .collect();
        Value::object(vec![
            ("run".into(), Value::from(self.run.as_str())),
            (
                "harness_version".into(),
                Value::from(self.harness_version.as_str()),
            ),
            (
                "experiments".into(),
                Value::array(
                    self.experiments
                        .iter()
                        .map(|e| Value::from(e.as_str()))
                        .collect(),
                ),
            ),
            ("ops".into(), Value::from(self.ops)),
            ("seed".into(), Value::from(self.seed)),
            ("jobs".into(), Value::from(self.jobs)),
            ("wall_ms".into(), Value::from(self.wall_ms)),
            ("total_case_ms".into(), Value::from(self.total_case_ms)),
            ("speedup".into(), Value::Number(self.speedup)),
            ("cases".into(), Value::Array(cases)),
        ])
    }

    /// Rebuilds a manifest from its JSON tree. Unknown keys are ignored,
    /// so manifests from older harnesses (which recorded a per-case
    /// `attempts` count) still resume.
    pub fn from_json(value: &Value) -> Option<Self> {
        let cases = value
            .get("cases")?
            .as_array()?
            .iter()
            .map(|c| {
                Some(CaseRecord {
                    id: c.get("id")?.as_str()?.to_string(),
                    digest: c.get("digest")?.as_str()?.to_string(),
                    status: CaseStatus::parse(c.get("status")?.as_str()?)?,
                    duration_ms: c.get("duration_ms")?.as_u64()?,
                    error: c.get("error").and_then(Value::as_str).map(str::to_string),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunManifest {
            run: value.get("run")?.as_str()?.to_string(),
            harness_version: value.get("harness_version")?.as_str()?.to_string(),
            experiments: value
                .get("experiments")?
                .as_array()?
                .iter()
                .map(|e| e.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
            ops: value.get("ops")?.as_u64()? as usize,
            seed: value.get("seed")?.as_u64()?,
            jobs: value.get("jobs")?.as_u64()? as usize,
            wall_ms: value.get("wall_ms")?.as_u64()?,
            total_case_ms: value.get("total_case_ms")?.as_u64()?,
            speedup: value.get("speedup")?.as_f64()?,
            cases,
        })
    }

    /// The manifest path inside a run directory.
    pub fn path(run_dir: &Path) -> std::path::PathBuf {
        run_dir.join("manifest.json")
    }

    /// Writes the manifest (pretty-printed) into `run_dir`, atomically:
    /// a crash mid-write can never leave a truncated `manifest.json`.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save(&self, run_dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(run_dir)?;
        crate::fsio::write_atomic(&Self::path(run_dir), &self.to_json().render_pretty())
    }

    /// Loads the manifest from `run_dir`, or `None` when absent or
    /// unreadable. A present-but-corrupt manifest (truncated by a crash
    /// predating atomic writes, or damaged on disk) is quarantined as
    /// `manifest.json.corrupt` so the evidence survives — the sweep just
    /// re-runs everything.
    pub fn load(run_dir: &Path) -> Option<Self> {
        let path = Self::path(run_dir);
        let text = std::fs::read_to_string(&path).ok()?;
        let parsed = Value::parse(&text).ok().and_then(|v| Self::from_json(&v));
        if parsed.is_none() {
            let _ = crate::fsio::quarantine(&path);
        }
        parsed
    }

    /// The record for a case id, if present.
    pub fn record(&self, id: &str) -> Option<&CaseRecord> {
        self.cases.iter().find(|c| c.id == id)
    }

    /// `true` when `id` completed in this manifest with the given digest
    /// (the resume-skip predicate; artifact presence is checked
    /// separately).
    pub fn completed(&self, id: &str, digest_hex: &str) -> bool {
        self.record(id)
            .is_some_and(|c| c.status == CaseStatus::Completed && c.digest == digest_hex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CaseSpec;
    use stashdir::{SystemConfig, Workload};

    fn outcome(seed: u64, status: CaseStatus) -> CaseOutcome {
        CaseOutcome {
            spec: CaseSpec::new(SystemConfig::default(), Workload::Uniform, 10, seed),
            status,
            duration: Duration::from_millis(40),
            report: None,
            error: (status == CaseStatus::Failed).then(|| "boom".to_string()),
        }
    }

    #[test]
    fn manifest_round_trips() {
        let outcomes = vec![
            outcome(1, CaseStatus::Completed),
            outcome(2, CaseStatus::Failed),
        ];
        let m = RunManifest::from_outcomes(
            "test",
            vec!["perf_vs_coverage".into()],
            10,
            7,
            2,
            Duration::from_millis(50),
            &outcomes,
        );
        assert!((m.speedup - 80.0 / 50.0).abs() < 1e-9);
        let back = RunManifest::from_json(&Value::parse(&m.to_json().render_pretty()).unwrap())
            .expect("round trip");
        assert_eq!(back.cases.len(), 2);
        assert_eq!(back.cases[1].status, CaseStatus::Failed);
        assert_eq!(back.cases[1].error.as_deref(), Some("boom"));
        assert_eq!(back.experiments, vec!["perf_vs_coverage".to_string()]);
    }

    #[test]
    fn manifest_with_an_attempts_count_still_parses() {
        let m = RunManifest::from_outcomes(
            "t",
            vec![],
            10,
            7,
            1,
            Duration::from_millis(10),
            &[outcome(1, CaseStatus::Completed)],
        );
        let text = m.to_json().render_pretty().replace(
            "\"duration_ms\": 40",
            "\"duration_ms\": 40,\n      \"attempts\": 1",
        );
        assert!(text.contains("\"attempts\""));
        let back = RunManifest::from_json(&Value::parse(&text).unwrap()).expect("old manifest");
        assert_eq!(back.cases[0].status, CaseStatus::Completed);
    }

    #[test]
    fn completed_requires_matching_digest() {
        let outcomes = vec![outcome(1, CaseStatus::Completed)];
        let m =
            RunManifest::from_outcomes("t", vec![], 10, 7, 1, Duration::from_millis(10), &outcomes);
        let id = outcomes[0].spec.id();
        let digest = digest::hex(outcomes[0].spec.digest());
        assert!(m.completed(&id, &digest));
        assert!(!m.completed(&id, "0000000000000000"));
        assert!(!m.completed("other", &digest));
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join(format!("stashdir_manifest_{}", std::process::id()));
        let m = RunManifest::from_outcomes(
            "t",
            vec![],
            10,
            7,
            1,
            Duration::from_millis(10),
            &[outcome(3, CaseStatus::Completed)],
        );
        m.save(&dir).unwrap();
        let back = RunManifest::load(&dir).unwrap();
        assert_eq!(back.cases.len(), 1);
        assert_eq!(back.harness_version, env!("CARGO_PKG_VERSION"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_is_none() {
        assert!(RunManifest::load(Path::new("/nonexistent/run")).is_none());
    }

    #[test]
    fn truncated_manifest_is_quarantined_on_load() {
        let dir = std::env::temp_dir().join(format!("stashdir_manifest_q_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = RunManifest::path(&dir);
        // A manifest cut off mid-write (the pre-atomic-write failure mode).
        std::fs::write(&path, "{\"run\": \"t\", \"cases\": [{\"id\": \"x").unwrap();
        assert!(RunManifest::load(&dir).is_none());
        assert!(!path.exists(), "corrupt manifest must be moved aside");
        let q = dir.join("manifest.json.corrupt");
        assert!(q.exists(), "evidence must survive in quarantine");
        std::fs::remove_dir_all(&dir).ok();
    }
}
