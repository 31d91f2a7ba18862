//! Shared source loading: the repo-wide passes (determinism, directive
//! accounting) scan the same file set, so it is read once and handed to
//! each of them.

use std::io;
use std::path::{Path, PathBuf};

/// Every crate whose `src/` tree the repo-wide passes scan.
pub const SCANNED_CRATES: &[&str] = &["common", "core", "harness", "mem", "noc", "protocol", "sim"];

/// One loaded source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes (`crates/sim/src/machine/home.rs`).
    pub label: String,
    /// File contents.
    pub src: String,
}

/// Recursively collects the `.rs` files under `dir`, sorted.
pub fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads the `src/` trees of `crates` under `root`, sorted by label.
/// Crates missing from the tree (e.g. trimmed fixture repos) are skipped.
pub fn load(root: &Path, crates: &[&str]) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for krate in crates {
        let dir = root.join("crates").join(krate).join("src");
        if !dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        rs_files(&dir, &mut paths)?;
        for path in paths {
            let src = std::fs::read_to_string(&path)?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile { label, src });
        }
    }
    Ok(files)
}
