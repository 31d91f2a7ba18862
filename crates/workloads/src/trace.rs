//! Trace serialization: save generated traces to disk and reload them,
//! so experiments can be re-run bit-identically without regenerating.

use stashdir_common::json::Value;
use stashdir_common::{BlockAddr, MemOp, MemOpKind};
use std::io;
use std::path::Path;

/// A stored multi-core trace with its provenance.
///
/// # Examples
///
/// ```
/// use stashdir_workloads::{TraceFile, Workload};
///
/// let traces = Workload::Uniform.generate(2, 50, 3);
/// let file = TraceFile::new("uniform", 3, traces.clone());
/// let dir = std::env::temp_dir().join("stashdir_doc_trace.json");
/// file.save(&dir).unwrap();
/// let loaded = TraceFile::load(&dir).unwrap();
/// assert_eq!(loaded.traces, traces);
/// # std::fs::remove_file(&dir).ok();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Workload name that produced the trace.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// One operation sequence per core.
    pub traces: Vec<Vec<MemOp>>,
}

impl TraceFile {
    /// Wraps generated traces with provenance.
    pub fn new(workload: impl Into<String>, seed: u64, traces: Vec<Vec<MemOp>>) -> Self {
        TraceFile {
            workload: workload.into(),
            seed,
            traces,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.traces.len()
    }

    /// Total operations across cores.
    pub fn total_ops(&self) -> usize {
        self.traces.iter().map(Vec::len).sum()
    }

    /// Writes the trace as JSON.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json().render())
    }

    /// Reads a trace back from JSON.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O or deserialization error.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let value = Value::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Self::from_json(&value)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed trace file"))
    }

    fn to_json(&self) -> Value {
        let traces = self
            .traces
            .iter()
            .map(|ops| Value::array(ops.iter().map(op_to_json).collect()))
            .collect();
        Value::object(vec![
            ("workload".into(), Value::from(self.workload.as_str())),
            ("seed".into(), Value::from(self.seed)),
            ("traces".into(), Value::Array(traces)),
        ])
    }

    fn from_json(value: &Value) -> Option<Self> {
        let workload = value.get("workload")?.as_str()?.to_string();
        let seed = value.get("seed")?.as_u64()?;
        let traces = value
            .get("traces")?
            .as_array()?
            .iter()
            .map(|per_core| {
                per_core
                    .as_array()?
                    .iter()
                    .map(op_from_json)
                    .collect::<Option<Vec<_>>>()
            })
            .collect::<Option<Vec<_>>>()?;
        Some(TraceFile {
            workload,
            seed,
            traces,
        })
    }
}

fn op_to_json(op: &MemOp) -> Value {
    Value::object(vec![
        (
            "kind".into(),
            Value::from(match op.kind {
                MemOpKind::Read => "Read",
                MemOpKind::Write => "Write",
            }),
        ),
        ("block".into(), Value::from(op.block.get())),
        ("think".into(), Value::from(op.think)),
    ])
}

fn op_from_json(value: &Value) -> Option<MemOp> {
    let kind = match value.get("kind")?.as_str()? {
        "Read" => MemOpKind::Read,
        "Write" => MemOpKind::Write,
        _ => return None,
    };
    let block = BlockAddr::new(value.get("block")?.as_u64()?);
    let think = u32::try_from(value.get("think")?.as_u64()?).ok()?;
    Some(MemOp { kind, block, think })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("stashdir_test_{name}_{}.json", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_everything() {
        let traces = Workload::Migratory.generate(4, 100, 11);
        let tf = TraceFile::new("migratory", 11, traces);
        let path = tmp("roundtrip");
        tf.save(&path).unwrap();
        let loaded = TraceFile::load(&path).unwrap();
        assert_eq!(loaded, tf);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counting_helpers() {
        let tf = TraceFile::new(
            "x",
            0,
            vec![
                Workload::Uniform.generate(1, 10, 0).remove(0),
                Workload::Uniform.generate(1, 20, 1).remove(0),
            ],
        );
        assert_eq!(tf.cores(), 2);
        assert_eq!(tf.total_ops(), 30);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(TraceFile::load(Path::new("/nonexistent/trace.json")).is_err());
    }
}
