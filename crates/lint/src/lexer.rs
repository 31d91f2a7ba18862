//! A minimal hand-rolled Rust lexer.
//!
//! Produces just enough token structure for the lint passes: identifiers,
//! punctuation (with `::` and `=>` fused), literals, lifetimes, and
//! comments (kept as tokens so the directive scanner can read them).
//! No network, no `syn` — consistent with the offline `stubs/` policy.

/// Classification of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// `'a`-style lifetime.
    Lifetime,
    /// Numeric literal.
    Number,
    /// String literal (including raw and byte strings).
    Str,
    /// Character or byte literal.
    Char,
    /// Punctuation; `::` and `=>` are fused into single tokens.
    Punct,
    /// Line or block comment, text preserved.
    Comment,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text of the token.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Tok {
    /// `true` for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` for punctuation with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a token stream. Unterminated literals or comments are
/// tolerated (the rest of the file becomes one token): the lint must
/// never panic on the code it scans.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        let start_line = line;
        // Comments.
        if c == '/' && i + 1 < n && (chars[i + 1] == '/' || chars[i + 1] == '*') {
            if chars[i + 1] == '/' {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            } else {
                i += 2;
                let mut depth = 1;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            line += count_lines(&chars[start..i]);
            toks.push(Tok {
                kind: TokKind::Comment,
                text: chars[start..i].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Raw strings / raw identifiers: r"..." r#"..."# r#ident.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let raw_at = if c == 'b' && i + 1 < n && chars[i + 1] == 'r' {
                i + 2
            } else if c == 'r' {
                i + 1
            } else {
                usize::MAX
            };
            if raw_at != usize::MAX && raw_at < n {
                let mut hashes = 0usize;
                let mut j = raw_at;
                while j < n && chars[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && chars[j] == '"' {
                    // Raw string: scan for `"` followed by `hashes` hashes.
                    j += 1;
                    loop {
                        if j >= n {
                            break;
                        }
                        if chars[j] == '"' {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while k < n && seen < hashes && chars[k] == '#' {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break;
                            }
                        }
                        j += 1;
                    }
                    line += count_lines(&chars[start..j]);
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: chars[start..j].iter().collect(),
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
                if hashes == 1 && c == 'r' && j < n && is_ident_start(chars[j]) {
                    // Raw identifier r#ident.
                    let mut k = j;
                    while k < n && is_ident_cont(chars[k]) {
                        k += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        text: chars[j..k].iter().collect(),
                        line: start_line,
                    });
                    i = k;
                    continue;
                }
            }
        }
        // Byte char / byte string via plain paths below.
        if c == 'b' && i + 1 < n && (chars[i + 1] == '"' || chars[i + 1] == '\'') {
            i += 1; // fall through to string/char handling on the quote
        }
        let c = chars[i];
        // Strings.
        if c == '"' {
            let mut j = i + 1;
            while j < n {
                if chars[j] == '\\' {
                    j += 2;
                    continue;
                }
                if chars[j] == '"' {
                    j += 1;
                    break;
                }
                j += 1;
            }
            line += count_lines(&chars[start..j.min(n)]);
            toks.push(Tok {
                kind: TokKind::Str,
                text: chars[start..j.min(n)].iter().collect(),
                line: start_line,
            });
            i = j.min(n);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied().unwrap_or(' ');
            let is_lifetime =
                is_ident_start(next) && next != '\\' && !(i + 2 < n && chars[i + 2] == '\'');
            if is_lifetime {
                let mut j = i + 1;
                while j < n && is_ident_cont(chars[j]) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[start..j].iter().collect(),
                    line: start_line,
                });
                i = j;
                continue;
            }
            let mut j = i + 1;
            while j < n {
                if chars[j] == '\\' {
                    j += 2;
                    continue;
                }
                if chars[j] == '\'' {
                    j += 1;
                    break;
                }
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Char,
                text: chars[start..j.min(n)].iter().collect(),
                line: start_line,
            });
            i = j.min(n);
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            let mut seen_dot = false;
            while j < n {
                let d = chars[j];
                if is_ident_cont(d) {
                    j += 1;
                } else if d == '.' && !seen_dot && j + 1 < n && chars[j + 1].is_ascii_digit() {
                    seen_dot = true;
                    j += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Number,
                text: chars[start..j].iter().collect(),
                line: start_line,
            });
            i = j;
            continue;
        }
        // Identifiers / keywords.
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < n && is_ident_cont(chars[j]) {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..j].iter().collect(),
                line: start_line,
            });
            i = j;
            continue;
        }
        // Punctuation; fuse `::` and `=>`.
        let fused = match c {
            ':' if i + 1 < n && chars[i + 1] == ':' => Some("::"),
            '=' if i + 1 < n && chars[i + 1] == '>' => Some("=>"),
            _ => None,
        };
        if let Some(f) = fused {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: f.to_string(),
                line: start_line,
            });
            i += 2;
        } else {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line: start_line,
            });
            i += 1;
        }
    }
    toks
}

/// Strips comment tokens (structure-only view for the parsers).
pub fn code_only(toks: &[Tok]) -> Vec<Tok> {
    toks.iter()
        .filter(|t| t.kind != TokKind::Comment)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_puncts_and_fused_ops() {
        let toks = lex("match (a, b) { X::Y => 1, _ => 2 }");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "match", "(", "a", ",", "b", ")", "{", "X", "::", "Y", "=>", "1", ",", "_", "=>",
                "2", "}"
            ]
        );
    }

    #[test]
    fn comments_are_tokens_with_lines() {
        let toks = lex("a\n// hello\nb /* multi\nline */ c");
        let comments: Vec<(&str, u32)> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Comment)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(comments[0], ("// hello", 2));
        assert!(comments[1].0.starts_with("/* multi"));
        assert_eq!(comments[1].1, 3);
        let c = toks.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!(c.line, 4);
    }

    #[test]
    fn strings_and_chars_do_not_leak_tokens() {
        let toks = lex(r#"let s = "unwrap() [0] // not a comment"; let c = '[';"#);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let toks = lex(r##"let r = r#"has "quotes" and ]["#; fn f<'a>(x: &'a str) {}"##);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let toks = lex("0..10 1.5 9.007_199e15");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["0", ".", ".", "10", "1.5", "9.007_199e15"]);
    }
}
