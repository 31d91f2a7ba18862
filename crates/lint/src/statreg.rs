//! The stat-registration rule: every field of the statistics-carrying
//! structs must appear in the corresponding merge/serialization paths.
//!
//! Adding a counter to `SimReport` (or a field to `Histogram`) and
//! forgetting to thread it through the artifact serializer or the merge
//! function silently drops data from sweeps. `Machine::build_report`
//! folds per-bank counters through `BackendStats::merge`, so a field
//! that merge forgets is lost from every report. The rule is
//! textual on purpose: a field is "registered" when its identifier
//! occurs in the registry function's body.

use crate::arms::{extract_struct_fields, find_fn_body, matching_close};
use crate::lexer::{code_only, lex, Tok, TokKind};
use crate::{Finding, RULE_COVERAGE_PARSE, RULE_STAT_UNREGISTERED};
use std::io;
use std::path::Path;

/// Where a struct's fields must be mentioned.
#[derive(Debug, Clone)]
pub struct Registry {
    /// Repo-relative path of the file holding the registry function.
    pub file: &'static str,
    /// Function whose body must mention every field.
    pub function: &'static str,
}

/// One struct-to-registries rule.
#[derive(Debug, Clone)]
pub struct RegRule {
    /// Repo-relative path of the file defining the struct.
    pub struct_file: &'static str,
    /// The struct whose fields are checked.
    pub struct_name: &'static str,
    /// Every registry the fields must appear in.
    pub registries: &'static [Registry],
}

/// The repo's stat-registration rules.
pub const RULES: &[RegRule] = &[
    RegRule {
        struct_file: "crates/sim/src/report.rs",
        struct_name: "SimReport",
        registries: &[
            Registry {
                file: "crates/harness/src/artifact.rs",
                function: "report_to_json",
            },
            Registry {
                file: "crates/harness/src/artifact.rs",
                function: "report_from_json",
            },
        ],
    },
    RegRule {
        struct_file: "crates/sim/src/report.rs",
        struct_name: "TimelineSample",
        registries: &[
            Registry {
                file: "crates/harness/src/artifact.rs",
                function: "sample_to_json",
            },
            Registry {
                file: "crates/harness/src/artifact.rs",
                function: "sample_from_json",
            },
        ],
    },
    RegRule {
        struct_file: "crates/sim/src/fault.rs",
        struct_name: "FaultSummary",
        registries: &[
            Registry {
                file: "crates/harness/src/artifact.rs",
                function: "fault_to_json",
            },
            Registry {
                file: "crates/harness/src/artifact.rs",
                function: "fault_from_json",
            },
        ],
    },
    RegRule {
        struct_file: "crates/sim/src/bank.rs",
        struct_name: "BackendStats",
        // The backend counters (DLS remote accesses, opaque indirection)
        // funnel through two sites: `merge` folds the per-bank counters
        // into one total, and `export` writes that total under
        // `backend.*`. A counter missing from either silently vanishes
        // from the E18 shoot-out artifacts.
        registries: &[
            Registry {
                file: "crates/sim/src/bank.rs",
                function: "BackendStats::export",
            },
            Registry {
                file: "crates/sim/src/bank.rs",
                function: "BackendStats::merge",
            },
        ],
    },
    RegRule {
        struct_file: "crates/common/src/stats.rs",
        struct_name: "Histogram",
        registries: &[Registry {
            file: "crates/common/src/stats.rs",
            function: "Histogram::merge",
        }],
    },
];

/// Resolves a registry function name to its body tokens.
///
/// A plain `name` matches the first `fn name` in the file. A qualified
/// `Type::name` restricts the search to inherent `impl Type { .. }`
/// blocks, so two types in one file can both register through a method
/// with the same name (e.g. `BankStats::merge` vs `BackendStats::merge`
/// in `bank.rs`).
fn find_registry_fn_body<'a>(toks: &'a [Tok], name: &str) -> Option<&'a [Tok]> {
    let Some((type_name, fn_name)) = name.split_once("::") else {
        return find_fn_body(toks, name);
    };
    let mut i = 0;
    while i + 1 < toks.len() {
        // An inherent impl lexes as `impl Type {`; trait impls
        // (`impl Trait for Type`) put the trait name after `impl` and
        // are skipped, which is what we want — registration sites are
        // inherent methods.
        if toks[i].is_ident("impl") && toks[i + 1].is_ident(type_name) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("{") {
                j += 1;
            }
            if j < toks.len() {
                if let Some(close) = matching_close(toks, j) {
                    if let Some(body) = find_fn_body(&toks[j + 1..close], fn_name) {
                        return Some(body);
                    }
                    i = close;
                    continue;
                }
            }
        }
        i += 1;
    }
    None
}

/// Checks one struct's fields against one registry function body; both
/// arguments are pre-lexed, comment-free token streams.
pub fn check_registration(
    struct_toks: &[Tok],
    struct_name: &str,
    struct_file: &str,
    registry_toks: &[Tok],
    registry_file: &str,
    registry_fn: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(fields) = extract_struct_fields(struct_toks, struct_name) else {
        findings.push(Finding {
            rule: RULE_COVERAGE_PARSE.to_string(),
            file: struct_file.to_string(),
            line: 0,
            message: format!("struct {struct_name} not found"),
        });
        return findings;
    };
    let Some(body) = find_registry_fn_body(registry_toks, registry_fn) else {
        findings.push(Finding {
            rule: RULE_COVERAGE_PARSE.to_string(),
            file: registry_file.to_string(),
            line: 0,
            message: format!("registry function {registry_fn} not found"),
        });
        return findings;
    };
    let mentioned: std::collections::BTreeSet<&str> = body
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    for (field, line) in &fields {
        if !mentioned.contains(field.as_str()) {
            findings.push(Finding {
                rule: RULE_STAT_UNREGISTERED.to_string(),
                file: struct_file.to_string(),
                line: *line,
                message: format!(
                    "stat field `{struct_name}.{field}` does not appear in {registry_fn}() ({registry_file}); it would be dropped on merge/serialization"
                ),
            });
        }
    }
    findings
}

/// Runs all [`RULES`] against the repo at `root`.
pub fn check_repo(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut cache: std::collections::BTreeMap<&'static str, Vec<Tok>> =
        std::collections::BTreeMap::new();
    let mut load = |file: &'static str| -> io::Result<Vec<Tok>> {
        if let Some(t) = cache.get(file) {
            return Ok(t.clone());
        }
        let src = std::fs::read_to_string(root.join(file))?;
        let toks = code_only(&lex(&src));
        cache.insert(file, toks.clone());
        Ok(toks)
    };
    for rule in RULES {
        let struct_toks = load(rule.struct_file)?;
        for reg in rule.registries {
            let reg_toks = load(reg.file)?;
            findings.extend(check_registration(
                &struct_toks,
                rule.struct_name,
                rule.struct_file,
                &reg_toks,
                reg.file,
                reg.function,
            ));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{code_only, lex};

    #[test]
    fn missing_field_is_flagged() {
        let s = code_only(&lex(
            "pub struct R { pub hits: u64, pub misses: u64, pub stalls: u64 }",
        ));
        let r = code_only(&lex("fn to_json(r: &R) { emit(r.hits); emit(r.misses); }"));
        let f = check_registration(&s, "R", "s.rs", &r, "r.rs", "to_json");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("R.stalls"));
    }

    #[test]
    fn fully_registered_struct_is_clean() {
        let s = code_only(&lex("pub struct R { a: u64, b: u64 }"));
        let r = code_only(&lex("fn m(x: &mut R, y: &R) { x.a += y.a; x.b |= y.b; }"));
        assert!(check_registration(&s, "R", "s.rs", &r, "r.rs", "m").is_empty());
    }

    #[test]
    fn qualified_name_picks_the_right_impl_block() {
        // Two types with same-named `merge` methods in one file: the
        // bare name would always resolve to A's, silently checking the
        // wrong body for B.
        let src = "
            pub struct A { x: u64 }
            pub struct B { y: u64, z: u64 }
            impl A { fn merge(&mut self, o: &A) { self.x += o.x; } }
            impl Clone for B { fn clone(&self) -> B { todo!() } }
            impl B { fn merge(&mut self, o: &B) { self.y += o.y; } }
        ";
        let toks = code_only(&lex(src));
        let f = check_registration(&toks, "B", "s.rs", &toks, "s.rs", "B::merge");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("B.z"));
        assert!(check_registration(&toks, "A", "s.rs", &toks, "s.rs", "A::merge").is_empty());
    }

    #[test]
    fn qualified_name_missing_method_is_a_parse_finding() {
        let toks = code_only(&lex(
            "pub struct A { x: u64 } impl A { fn other(&self) {} }",
        ));
        let f = check_registration(&toks, "A", "s.rs", &toks, "s.rs", "A::merge");
        assert_eq!(f.len(), 1);
        assert!(f[0].rule == crate::RULE_COVERAGE_PARSE);
    }
}
