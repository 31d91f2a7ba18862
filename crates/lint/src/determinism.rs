//! Artifact-determinism taint analysis.
//!
//! The repo's strongest regression oracle is byte-identical artifacts:
//! every CSV, JSON report, and manifest must come out the same on every
//! run. This pass taint-tracks from the export functions backwards
//! through callers and forwards through callees, and flags the two ways
//! nondeterminism creeps in:
//!
//! * **unordered iteration** — `HashMap`/`FxHashMap`/`HashSet`/
//!   `FxHashSet` iteration order differs per process (std's
//!   `RandomState`) or is arbitrary (Fx); iterating one on an export
//!   path scrambles artifact bytes. Sorting in the same statement or the
//!   next (`collect` + `sort*`), collecting into a `BTreeMap`/`BTreeSet`
//!   /`HashSet`, or reducing order-insensitively (`sum`, `count`, `max`,
//!   …) is exempt.
//! * **wall-clock reads** — `Instant`/`SystemTime` inside a sink or its
//!   callees stamps host time into artifact bytes. (Callers of sinks may
//!   time things — progress meters and pools do — so the wall-clock rule
//!   applies only to the sink cone itself.)
//!
//! The taint set: the sink functions (`save_csv`, `to_csv`,
//! `diag_snapshot`, `build_report`, `*to_json`), every function that
//! directly calls one, and every function transitively called from that
//! set. Matching is name-based over the hand-rolled lexer — conservative
//! by design. `// lint: allow(determinism)` opts a line out.

use crate::directives::DirectiveIndex;
use crate::files::SourceFile;
use crate::lexer::{code_only, lex, Tok, TokKind};
use crate::{Finding, RULE_DETERMINISM};
use std::collections::{BTreeMap, BTreeSet};

/// Function names treated as artifact sinks, beyond the `*to_json`
/// suffix rule.
pub const SINK_NAMES: &[&str] = &["save_csv", "to_csv", "diag_snapshot", "build_report"];

/// Hash-based collection types whose iteration order is not stable.
const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Iterator-producing methods whose order reflects the receiver's.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Order-insensitive reductions that make an unordered iteration safe.
const REDUCTIONS: &[&str] = &[
    "sum",
    "count",
    "fold",
    "product",
    "all",
    "any",
    "max",
    "min",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
];

/// Ordered (or order-erasing) collection targets for `collect`.
const ORDERED_COLLECTIONS: &[&str] = &["BTreeMap", "BTreeSet", "HashSet", "FxHashSet"];

/// Names too generic to resolve through the name-based call graph:
/// every type has a `new`, and a sink calling `String::new()` must not
/// taint every other `new` in the repo.
const AMBIGUOUS_CALLEES: &[&str] = &[
    "new",
    "default",
    "from",
    "with_capacity",
    "clone",
    "to_string",
    "into",
    "fmt",
];

fn is_sink_name(name: &str) -> bool {
    SINK_NAMES.contains(&name) || name.ends_with("to_json")
}

#[derive(Debug)]
struct FnInfo {
    file: usize,
    name: String,
    /// Token range of the body (inclusive braces) in the file's code
    /// tokens.
    body: (usize, usize),
}

/// Returns the index just past a `#[cfg(test)] mod … { }` block starting
/// at `i` (which must point at `#`), or `None` when `i` starts no such
/// block.
fn skip_test_mod(toks: &[Tok], i: usize) -> Option<usize> {
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

/// Finds every `fn name … { body }` outside test mods, as token ranges.
fn find_fns(toks: &[Tok], file: usize) -> Vec<FnInfo> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let Some(next) = skip_test_mod(toks, i) {
            i = next;
            continue;
        }
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            // Find the parameter list's `(…)`, then the body `{` at
            // bracket depth 0 — or a `;` first (trait declaration).
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("(") {
                if toks[j].is_punct(";") || toks[j].is_punct("{") {
                    break;
                }
                j += 1;
            }
            if !toks.get(j).is_some_and(|t| t.is_punct("(")) {
                i += 2;
                continue;
            }
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
                if depth == 0 {
                    break;
                }
            }
            // Now scan to the body `{` (or give up at `;`).
            let mut open = None;
            let mut d = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => d += 1,
                    ")" | "]" => d -= 1,
                    "{" if d == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if d == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = open {
                let mut bd = 0i32;
                let mut k = open;
                while k < toks.len() {
                    if toks[k].is_punct("{") {
                        bd += 1;
                    } else if toks[k].is_punct("}") {
                        bd -= 1;
                        if bd == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                out.push(FnInfo {
                    file,
                    name,
                    body: (open, k.min(toks.len().saturating_sub(1))),
                });
                // Continue scanning *inside* the body too: nested fns and
                // the body's own sites are found by the flat walk.
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Collects identifiers bound or declared with an unordered collection
/// type: annotated bindings/fields (`name: FxHashMap<…>`) and inferred
/// constructor bindings (`name = HashMap::new()`). Names are scoped to
/// the file (a binding in one file must not taint a same-named field
/// elsewhere), and test-mod bindings are skipped — tests are not scanned
/// for sites, so their names would be pure collision noise.
fn collect_unordered_names(
    toks: &[Tok],
    unordered_types: &BTreeSet<String>,
    out: &mut BTreeSet<String>,
) {
    let mut i = 0;
    while i < toks.len() {
        if let Some(next) = skip_test_mod(toks, i) {
            i = next;
            continue;
        }
        if toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // `name : Type<…>` — scan the type window, stopping at a
        // same-depth `,`/`;`/`=`/`)`/`{` (angle depth tracked, with `->`
        // exempted via the preceding `-`).
        if toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            let mut angle = 0i32;
            for j in i + 2..(i + 24).min(toks.len()) {
                let t = &toks[j];
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" if !toks[j - 1].is_punct("-") => angle -= 1,
                    "," | ";" | "=" | ")" | "{" if angle <= 0 => break,
                    _ => {}
                }
                if t.kind == TokKind::Ident && unordered_types.contains(&t.text) {
                    out.insert(toks[i].text.clone());
                    break;
                }
            }
        }
        // `name = [path::]UnorderedType::ctor(…)`.
        if toks.get(i + 1).is_some_and(|t| t.is_punct("=")) {
            for j in i + 2..(i + 8).min(toks.len()) {
                let t = &toks[j];
                if t.kind == TokKind::Ident
                    && unordered_types.contains(&t.text)
                    && toks.get(j + 1).is_some_and(|n| n.is_punct("::"))
                {
                    out.insert(toks[i].text.clone());
                    break;
                }
                if t.is_punct(";") {
                    break;
                }
            }
        }
        i += 1;
    }
}

/// Whether the statement window around an iteration site neutralizes the
/// ordering: a `sort*` call or order-insensitive reduction before the
/// second statement boundary, a `collect` into an ordered/order-erasing
/// collection, or a set/btree annotation on the receiving binding.
fn site_exempt(toks: &[Tok], site: usize) -> bool {
    // Forward window: until the 2nd `;` at relative depth 0 (the
    // collect-then-sort idiom spans two statements), capped.
    let mut semis = 0;
    let mut depth = 0i32;
    let mut saw_collect = false;
    for t in toks.iter().skip(site).take(200) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ";" if depth == 0 => {
                semis += 1;
                if semis >= 2 {
                    break;
                }
            }
            _ => {}
        }
        if t.kind == TokKind::Ident {
            let name = t.text.as_str();
            if name.starts_with("sort") || REDUCTIONS.contains(&name) {
                return true;
            }
            if name == "collect" {
                saw_collect = true;
            }
            if saw_collect && ORDERED_COLLECTIONS.contains(&name) {
                return true;
            }
        }
    }
    if !saw_collect {
        return false;
    }
    // Backward window to the statement start: a set/btree annotation on
    // the binding (`let idx: HashSet<_> = map.keys().collect();`).
    let start = site.saturating_sub(32);
    for t in toks[start..site].iter().rev() {
        if t.is_punct(";") || t.is_punct("{") {
            break;
        }
        if t.kind == TokKind::Ident && ORDERED_COLLECTIONS.contains(&t.text.as_str()) {
            return true;
        }
    }
    false
}

/// Runs the determinism pass over the loaded file set.
pub fn analyze(files: &[SourceFile], directives: &mut DirectiveIndex) -> Vec<Finding> {
    let token_sets: Vec<Vec<Tok>> = files.iter().map(|f| code_only(&lex(&f.src))).collect();

    // Unordered type names, plus aliases of them (`type ResultSet =
    // HashMap<…>`).
    let mut unordered_types: BTreeSet<String> =
        UNORDERED_TYPES.iter().map(|s| s.to_string()).collect();
    for toks in &token_sets {
        for i in 0..toks.len() {
            if toks[i].is_ident("type")
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(i + 2).is_some_and(|t| t.is_punct("="))
            {
                for t in toks.iter().skip(i + 3).take(8) {
                    if t.is_punct(";") {
                        break;
                    }
                    if t.kind == TokKind::Ident && unordered_types.contains(&t.text) {
                        unordered_types.insert(toks[i + 1].text.clone());
                        break;
                    }
                }
            }
        }
    }
    // Per-file name sets: bindings and fields are file-scoped.
    let unordered_names: Vec<BTreeSet<String>> = token_sets
        .iter()
        .map(|toks| {
            let mut names = BTreeSet::new();
            collect_unordered_names(toks, &unordered_types, &mut names);
            names
        })
        .collect();

    // Function discovery and the name-based call graph.
    let mut fns: Vec<FnInfo> = Vec::new();
    for (fi, toks) in token_sets.iter().enumerate() {
        fns.extend(find_fns(toks, fi));
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(idx);
    }
    let callees = |idx: usize| -> Vec<usize> {
        let f = &fns[idx];
        let toks = &token_sets[f.file];
        let mut out = Vec::new();
        for i in f.body.0..=f.body.1.min(toks.len().saturating_sub(1)) {
            if toks[i].kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                && !AMBIGUOUS_CALLEES.contains(&toks[i].text.as_str())
            {
                if let Some(targets) = by_name.get(toks[i].text.as_str()) {
                    out.extend(targets.iter().copied());
                }
            }
        }
        out
    };
    let calls_sink = |idx: usize| -> Option<String> {
        let f = &fns[idx];
        let toks = &token_sets[f.file];
        for i in f.body.0..=f.body.1.min(toks.len().saturating_sub(1)) {
            if toks[i].kind == TokKind::Ident
                && is_sink_name(&toks[i].text)
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            {
                return Some(toks[i].text.clone());
            }
        }
        None
    };

    // Tier A (`sink_cone`): sinks and everything they transitively call —
    // the bytes-producing cone, where wall-clock reads are also banned.
    // Tier B (`tainted`): tier A plus direct callers of sinks and *their*
    // transitive callees — everything whose iteration order can reach an
    // artifact.
    let mut roots: Vec<(usize, String)> = Vec::new();
    for (idx, f) in fns.iter().enumerate() {
        if is_sink_name(&f.name) {
            roots.push((idx, f.name.clone()));
        }
    }
    let closure = |seed: &[(usize, String)]| -> BTreeMap<usize, String> {
        let mut via: BTreeMap<usize, String> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for (idx, root) in seed {
            if via.insert(*idx, root.clone()).is_none() {
                queue.push(*idx);
            }
        }
        while let Some(idx) = queue.pop() {
            let root = via[&idx].clone();
            for c in callees(idx) {
                if let std::collections::btree_map::Entry::Vacant(e) = via.entry(c) {
                    e.insert(root.clone());
                    queue.push(c);
                }
            }
        }
        via
    };
    let sink_cone = closure(&roots);
    let mut tainted_seed = roots.clone();
    for (idx, f) in fns.iter().enumerate() {
        if f.name != "main" && !is_sink_name(&f.name) {
            if let Some(sink) = calls_sink(idx) {
                tainted_seed.push((idx, sink));
            }
        }
    }
    let tainted = closure(&tainted_seed);

    let mut findings = Vec::new();
    let mut seen_sites: BTreeSet<(usize, u32, &'static str)> = BTreeSet::new();
    for (&idx, root) in &tainted {
        let f = &fns[idx];
        let toks = &token_sets[f.file];
        let names = &unordered_names[f.file];
        let file = &files[f.file].label;
        let end = f.body.1.min(toks.len().saturating_sub(1));
        for i in f.body.0..=end {
            let t = &toks[i];
            // `name.iter()` / `name.keys()` / … on an unordered binding.
            let method_site = t.kind == TokKind::Ident
                && names.contains(&t.text)
                && toks.get(i + 1).is_some_and(|n| n.is_punct("."))
                && toks.get(i + 2).is_some_and(|n| {
                    n.kind == TokKind::Ident && ITER_METHODS.contains(&n.text.as_str())
                })
                && toks.get(i + 3).is_some_and(|n| n.is_punct("("));
            // `for … in [&mut] name {` — bare unordered binding in a
            // for-loop header.
            let for_site = t.kind == TokKind::Ident
                && names.contains(&t.text)
                && toks.get(i + 1).is_some_and(|n| n.is_punct("{"))
                && toks[..i].iter().rev().take(4).any(|p| p.is_ident("in"));
            if (method_site || for_site) && !site_exempt(toks, i) {
                let line = t.line;
                if seen_sites.insert((f.file, line, "iter"))
                    && !directives.allows(file, RULE_DETERMINISM, line)
                {
                    findings.push(Finding {
                        rule: RULE_DETERMINISM.to_string(),
                        file: file.clone(),
                        line,
                        message: format!(
                            "iteration over unordered `{}` on an artifact-export path (via \
                             `{root}`); iterate in sorted order, collect into a BTree \
                             collection, or add `// lint: allow(determinism)`",
                            t.text
                        ),
                    });
                }
            }
            // Wall-clock reads, banned in the sink cone only.
            if sink_cone.contains_key(&idx)
                && t.kind == TokKind::Ident
                && (t.text == "Instant" || t.text == "SystemTime")
                && seen_sites.insert((f.file, t.line, "clock"))
                && !directives.allows(file, RULE_DETERMINISM, t.line)
            {
                findings.push(Finding {
                    rule: RULE_DETERMINISM.to_string(),
                    file: file.clone(),
                    line: t.line,
                    message: format!(
                        "wall-clock `{}` on an artifact-export path (via `{root}`); \
                         artifacts must be byte-identical across runs — derive times from \
                         the simulated clock or add `// lint: allow(determinism)`",
                        t.text
                    ),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile {
            label: "crates/sim/src/t.rs".to_string(),
            src: src.to_string(),
        }];
        let mut directives = DirectiveIndex::collect(&files);
        analyze(&files, &mut directives)
    }

    #[test]
    fn unordered_iteration_in_a_sink_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   struct T { rows: HashMap<String, u64> }\n\
                   impl T { fn save_csv(&self) -> String {\n\
                   let mut out = String::new();\n\
                   for (k, v) in self.rows.iter() { out.push_str(k); }\n\
                   out } }";
        let found = run_on(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RULE_DETERMINISM);
        assert_eq!(found[0].line, 5);
    }

    #[test]
    fn collect_then_sort_is_exempt() {
        let src = "use std::collections::HashMap;\n\
                   struct T { rows: HashMap<String, u64> }\n\
                   impl T { fn save_csv(&self) -> Vec<String> {\n\
                   let mut v: Vec<String> = self.rows.keys().cloned().collect();\n\
                   v.sort();\n\
                   v } }";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn order_insensitive_reduction_is_exempt() {
        let src = "use std::collections::HashMap;\n\
                   struct T { rows: HashMap<String, u64> }\n\
                   impl T { fn save_csv(&self) -> u64 { self.rows.values().sum() } }";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn untainted_functions_are_not_flagged() {
        let src = "use std::collections::HashMap;\n\
                   struct T { rows: HashMap<String, u64> }\n\
                   impl T { fn debug_dump(&self) {\n\
                   for (k, _) in self.rows.iter() { println!(\"{k}\"); } } }";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn test_mods_are_skipped() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\n\
                   #[allow(dead_code)]\n\
                   mod tests { struct T { rows: HashMap<String, u64> }\n\
                   impl T { fn save_csv(&self) {\n\
                   for (k, _) in self.rows.iter() { println!(\"{k}\"); } } } }";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn wall_clock_in_sink_cone_is_flagged() {
        let src = "fn build_report() -> String { let t = Instant::now(); format!(\"{t:?}\") }";
        let found = run_on(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("wall-clock"));
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "use std::collections::HashMap;\n\
                   struct T { rows: HashMap<String, u64> }\n\
                   impl T { fn save_csv(&self) -> usize {\n\
                   // lint: allow(determinism)\n\
                   let mut n = 0; for (k, _) in self.rows.iter() { n += k.len(); } n } }";
        assert!(run_on(src).is_empty());
    }
}
