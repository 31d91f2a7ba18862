//! The hot-path panic lint: no `unwrap()`, `expect()`, or panicking
//! indexing in the hot crates outside an explicit allow directive (see
//! [`crate::directives`] for the directive forms).
//!
//! Code under `#[cfg(test)] mod … { }` is skipped: tests may unwrap.

use crate::directives::DirectiveIndex;
use crate::files::SourceFile;
use crate::lexer::{lex, Tok, TokKind};
use crate::{Finding, RULE_EXPECT, RULE_INDEXING, RULE_UNWRAP};

/// The crates whose `src/` trees the panic lint scans.
pub const HOT_CRATES: &[&str] = &["core", "protocol", "sim", "mem", "noc"];

/// Keywords that may directly precede `[` without it being an index
/// expression (array literals, attribute syntax, types, …).
fn is_indexable_prefix(t: &Tok) -> bool {
    match t.kind {
        TokKind::Ident => !matches!(
            t.text.as_str(),
            "if" | "else"
                | "match"
                | "return"
                | "in"
                | "mut"
                | "ref"
                | "box"
                | "move"
                | "break"
                | "continue"
                | "as"
                | "where"
                | "loop"
                | "while"
                | "for"
                | "let"
                | "static"
                | "const"
                | "crate"
                | "super"
                | "dyn"
                | "impl"
                | "fn"
                | "use"
                | "pub"
                | "enum"
                | "struct"
                | "trait"
                | "type"
                | "unsafe"
                | "await"
                | "async"
                | "yield"
        ),
        TokKind::Punct => matches!(t.text.as_str(), ")" | "]" | "?"),
        _ => false,
    }
}

/// Returns the index just past a `#[cfg(test)] mod … { }` block starting
/// at `i` (which must point at `#`), or `None` when `i` starts no such
/// block.
pub(crate) fn skip_test_mod(toks: &[Tok], i: usize) -> Option<usize> {
    if !(toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("["))) {
        return None;
    }
    // Find the attribute's closing `]` and require cfg(test) inside.
    let mut depth = 0usize;
    let mut close = None;
    for (j, t) in toks.iter().enumerate().skip(i + 1) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                close = Some(j);
                break;
            }
        }
    }
    let close = close?;
    let attr = &toks[i + 2..close];
    let is_cfg_test =
        attr.first().is_some_and(|t| t.is_ident("cfg")) && attr.iter().any(|t| t.is_ident("test"));
    if !is_cfg_test {
        return None;
    }
    // Skip further attributes, then require `mod name {`.
    let mut j = close + 1;
    while j + 1 < toks.len() && toks[j].is_punct("#") && toks[j + 1].is_punct("[") {
        let mut depth = 0usize;
        let mut k = j + 1;
        while k < toks.len() {
            if toks[k].is_punct("[") {
                depth += 1;
            } else if toks[k].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        j = k + 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_ident("mod")) {
        return None;
    }
    while j < toks.len() && !toks[j].is_punct("{") {
        j += 1;
    }
    let mut depth = 0usize;
    while j < toks.len() {
        if toks[j].is_punct("{") {
            depth += 1;
        } else if toks[j].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    Some(toks.len())
}

fn scan_tokens(file: &str, toks: &[Tok], directives: &mut DirectiveIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |rule: &str, line: u32, message: String, directives: &mut DirectiveIndex| {
        if !directives.allows(file, rule, line) {
            findings.push(Finding {
                rule: rule.to_string(),
                file: file.to_string(),
                line,
                message,
            });
        }
    };

    let mut i = 0;
    while i < toks.len() {
        if let Some(next) = skip_test_mod(toks, i) {
            i = next;
            continue;
        }
        let t = &toks[i];
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            let name = toks[i + 1].text.as_str();
            let line = toks[i + 1].line;
            if name == "unwrap" {
                push(
                    RULE_UNWRAP,
                    line,
                    "`.unwrap()` in a hot crate; return an error, use a safe fallback, or add `// lint: allow(unwrap)`"
                        .to_string(),
                    directives,
                );
            } else if name == "expect" {
                push(
                    RULE_EXPECT,
                    line,
                    "`.expect()` in a hot crate; return an error, use a safe fallback, or add `// lint: allow(expect)`"
                        .to_string(),
                    directives,
                );
            }
        }
        if t.is_punct("[") && i > 0 && is_indexable_prefix(&toks[i - 1]) {
            push(
                RULE_INDEXING,
                t.line,
                "panicking index in a hot crate; use `.get()`, or add `// lint: allow(indexing)`"
                    .to_string(),
                directives,
            );
        }
        i += 1;
    }
    findings
}

/// Scans one file's source, self-contained: parses its directives into a
/// throwaway index and reports stale ones too. The repo path goes
/// through [`scan_files`] with the shared index instead.
pub fn scan_file(file: &str, src: &str) -> Vec<Finding> {
    let mut directives = DirectiveIndex::default();
    directives.collect_file(file, src);
    let toks: Vec<Tok> = lex(src)
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut findings = scan_tokens(file, &toks, &mut directives);
    findings.extend(directives.finish());
    findings
}

/// Scans the hot-crate members of `files`, consulting (and exercising)
/// the shared directive index.
pub fn scan_files(files: &[SourceFile], directives: &mut DirectiveIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if !f.crate_name().is_some_and(|c| HOT_CRATES.contains(&c)) {
            continue;
        }
        let toks: Vec<Tok> = lex(&f.src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Comment)
            .collect();
        findings.extend(scan_tokens(&f.label, &toks, directives));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_expect_and_indexing() {
        let src =
            "fn f(v: Vec<u32>, i: usize) -> u32 { v.get(i).unwrap(); x.expect(\"no\"); v[i] }";
        let rules: Vec<String> = scan_file("t.rs", src).into_iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unwrap", "expect", "indexing"]);
    }

    #[test]
    fn allow_directives_suppress_same_and_next_line() {
        let src = "fn f() {\n    a.unwrap(); // lint: allow(unwrap)\n    // lint: allow(expect)\n    b.expect(\"ok\");\n    c.unwrap();\n}";
        let found = scan_file("t.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "unwrap");
        assert_eq!(found[0].line, 5);
    }

    #[test]
    fn allow_file_covers_everything_and_unknown_rules_are_findings() {
        let src = "// lint: allow-file(indexing)\nfn f() { v[0]; w[1] }\n// lint: allow(unwrp)\n";
        let found = scan_file("t.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "lint-directive");
    }

    #[test]
    fn unused_allow_directives_are_findings() {
        let src = "fn f() {\n    // lint: allow(unwrap)\n    let x = 1;\n}";
        let found = scan_file("t.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "lint-allow-unused");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn test_mods_array_literals_attributes_and_macros_are_exempt() {
        let src = "#[derive(Clone)]\nstruct S;\nfn f() { let a = [0u8; 4]; let v = vec![1]; }\n#[cfg(test)]\nmod tests { fn g() { x.unwrap(); y[0]; } }\n";
        assert!(scan_file("t.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip() {
        let src = "fn f() { let s = \"a.unwrap() b[0]\"; /* v[1].expect(\"x\") */ }";
        assert!(scan_file("t.rs", src).is_empty());
    }
}
