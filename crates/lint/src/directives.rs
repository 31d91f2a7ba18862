//! Centralized `// lint:` directive handling: parsing, validation, rule
//! suppression, and staleness accounting.
//!
//! Directives are ordinary comments. `// lint: allow(determinism)`
//! allows the named rule(s) on the directive's own line and the line
//! below it, so it works both as a trailing comment and as a comment
//! above the call. Any other `// lint:` form is a finding.
//!
//! The only suppressible rule is `determinism` ([`SUPPRESSIBLE`]); the
//! hot crates' panic hygiene is clippy's, with `#[expect(…, reason)]`
//! in place of a comment, so a leftover `// lint: allow(unwrap)` is an
//! unknown-rule finding.
//!
//! Every directive is tracked: one that suppresses nothing by the end of
//! the run is itself a finding ([`crate::RULE_ALLOW_UNUSED`]), so stale
//! allows cannot rot silently after refactors. Unknown rule names are
//! findings too ([`crate::RULE_DIRECTIVE`]) — a typo must not disable a
//! rule.

use crate::files::SourceFile;
use crate::lexer::{lex, TokKind};
use crate::{Finding, RULE_ALLOW_UNUSED, RULE_DETERMINISM, RULE_DIRECTIVE};
use std::collections::{BTreeMap, BTreeSet};

/// The rules an allow directive may name.
pub const SUPPRESSIBLE: &[&str] = &[RULE_DETERMINISM];

/// One parsed allow directive.
#[derive(Debug, Clone)]
struct Directive {
    rule: String,
    /// Line the comment sits on.
    line: u32,
}

#[derive(Debug, Default)]
struct FileDirectives {
    directives: Vec<Directive>,
    /// rule → (covered line → directive line).
    line_rules: BTreeMap<String, BTreeMap<u32, u32>>,
    /// `(directive line, rule)` pairs that suppressed at least one site.
    used: BTreeSet<(u32, String)>,
}

/// The repo-wide directive index. Passes ask [`DirectiveIndex::allows`]
/// before reporting a suppressible finding; [`DirectiveIndex::finish`]
/// yields the parse findings plus one finding per never-used directive.
#[derive(Debug, Default)]
pub struct DirectiveIndex {
    files: BTreeMap<String, FileDirectives>,
    findings: Vec<Finding>,
}

impl DirectiveIndex {
    /// Parses every `lint:` directive out of the comment tokens of
    /// `files`.
    pub fn collect(files: &[SourceFile]) -> DirectiveIndex {
        let mut index = DirectiveIndex::default();
        for f in files {
            index.collect_file(&f.label, &f.src);
        }
        index
    }

    /// Parses one file's directives into the index.
    pub fn collect_file(&mut self, file: &str, src: &str) {
        let entry = self.files.entry(file.to_string()).or_default();
        for t in lex(src).iter().filter(|t| t.kind == TokKind::Comment) {
            let Some(at) = t.text.find("lint:") else {
                continue;
            };
            let rest = t.text[at + "lint:".len()..].trim_start();
            let Some(args) = rest.strip_prefix("allow(") else {
                self.findings.push(Finding {
                    rule: RULE_DIRECTIVE.to_string(),
                    file: file.to_string(),
                    line: t.line,
                    message: format!("unrecognized lint directive: `{}`", rest.trim_end()),
                });
                continue;
            };
            let Some(close) = args.find(')') else {
                self.findings.push(Finding {
                    rule: RULE_DIRECTIVE.to_string(),
                    file: file.to_string(),
                    line: t.line,
                    message: "unterminated lint directive".to_string(),
                });
                continue;
            };
            for rule in args[..close].split(',').map(str::trim) {
                if !SUPPRESSIBLE.contains(&rule) {
                    self.findings.push(Finding {
                        rule: RULE_DIRECTIVE.to_string(),
                        file: file.to_string(),
                        line: t.line,
                        message: format!(
                            "unknown rule `{rule}` in lint directive (known: {SUPPRESSIBLE:?})"
                        ),
                    });
                    continue;
                }
                entry.directives.push(Directive {
                    rule: rule.to_string(),
                    line: t.line,
                });
                let lines = entry.line_rules.entry(rule.to_string()).or_default();
                lines.insert(t.line, t.line);
                lines.insert(t.line + 1, t.line);
            }
        }
    }

    /// Whether `rule` is allowed at `file:line`, marking the covering
    /// directive as used.
    pub fn allows(&mut self, file: &str, rule: &str, line: u32) -> bool {
        let Some(entry) = self.files.get_mut(file) else {
            return false;
        };
        let Some(&directive_line) = entry.line_rules.get(rule).and_then(|m| m.get(&line)) else {
            return false;
        };
        entry.used.insert((directive_line, rule.to_string()));
        true
    }

    /// Consumes the index: parse findings plus one finding per directive
    /// that never suppressed anything.
    pub fn finish(self) -> Vec<Finding> {
        let mut findings = self.findings;
        for (file, entry) in &self.files {
            for d in &entry.directives {
                if entry.used.contains(&(d.line, d.rule.clone())) {
                    continue;
                }
                findings.push(Finding {
                    rule: RULE_ALLOW_UNUSED.to_string(),
                    file: file.clone(),
                    line: d.line,
                    message: format!(
                        "`// lint: allow({})` suppresses nothing; remove the stale directive",
                        d.rule
                    ),
                });
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> DirectiveIndex {
        let mut index = DirectiveIndex::default();
        index.collect_file("t.rs", src);
        index
    }

    #[test]
    fn allow_covers_its_own_line_and_the_next() {
        let mut d = index("fn f() {\n    // lint: allow(determinism)\n    a();\n    b();\n}");
        assert!(d.allows("t.rs", RULE_DETERMINISM, 2));
        assert!(d.allows("t.rs", RULE_DETERMINISM, 3));
        assert!(!d.allows("t.rs", RULE_DETERMINISM, 4));
        assert!(d.finish().is_empty());
    }

    #[test]
    fn allow_file_is_an_unrecognized_directive() {
        let mut d = index("// lint: allow-file(determinism)\nfn f() {}\n");
        assert!(!d.allows("t.rs", RULE_DETERMINISM, 1));
        assert!(!d.allows("t.rs", RULE_DETERMINISM, 2));
        let found = d.finish();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RULE_DIRECTIVE);
        assert_eq!(found[0].line, 1);
        assert!(
            found[0].message.contains("unrecognized lint directive"),
            "{found:?}"
        );
    }

    #[test]
    fn unknown_rules_and_retired_panic_rules_are_findings() {
        let found = index(
            "// lint: allow(unwrap)\n// lint: allow-file(indexing)\n// lint: allow(determinsm)\n",
        )
        .finish();
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|f| f.rule == RULE_DIRECTIVE));
    }

    #[test]
    fn unused_allows_are_findings() {
        let found = index("fn f() {\n    // lint: allow(determinism)\n    let x = 1;\n}").finish();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RULE_ALLOW_UNUSED);
        assert_eq!(found[0].line, 2);
    }
}
