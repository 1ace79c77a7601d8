//! Phase-1 per-file analysis: lexing, test-scope classification, and the
//! comment-anchored registers (suppression annotations and the atomic
//! protocol comments consumed by L10).
//!
//! An [`Analysis`] is the unit every pass works from: the token stream
//! with line numbers, which lines are test-only, and which comments carry
//! lint-relevant markers. Cross-file structure (functions, call sites,
//! atomic ops, lock guards) lives one layer up in [`crate::index`].

use std::collections::BTreeSet;

use crate::tokenizer::{lex, Kind, Lexed, Token};
use crate::SourceFile;

/// One suppression annotation found in a comment.
#[derive(Debug)]
pub(crate) struct Annotation {
    /// Rule the suppression applies to (`L1`…`L12`).
    pub rule: String,
    /// Line the comment is on.
    pub line: u32,
    /// The code line this annotation covers (same line if it carries code,
    /// otherwise the next line that does).
    pub target: Option<u32>,
    /// Whether a justification follows the marker.
    pub reason_ok: bool,
    /// Set once a hit consumed the suppression.
    pub used: bool,
}

/// One atomic protocol comment (the register behind L10): a comment whose
/// text begins with the ordering marker, documenting why an
/// Acquire/Release/SeqCst site is correct and what it pairs with.
#[derive(Debug)]
pub(crate) struct OrderingComment {
    /// Line the comment starts on.
    pub line: u32,
    /// The code line the comment anchors to (resolved like annotations).
    pub target: Option<u32>,
}

/// Per-file lexed view plus derived line classifications.
pub(crate) struct Analysis {
    pub path: String,
    pub lexed: Lexed,
    /// Inclusive line ranges under `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
    /// True for integration-test files (`tests/` directories).
    pub whole_file_test: bool,
    pub annotations: Vec<Annotation>,
    pub ordering_comments: Vec<OrderingComment>,
}

impl Analysis {
    pub fn new(file: &SourceFile) -> Self {
        let path = file.path.replace('\\', "/");
        let lexed = lex(&file.text);
        let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        let test_ranges = test_ranges(&lexed.tokens);
        let whole_file_test = path.starts_with("tests/") || path.contains("/tests/");
        let annotations = parse_annotations(&lexed, &code_lines);
        let ordering_comments = parse_ordering_comments(&lexed, &code_lines);
        Analysis {
            path,
            lexed,
            test_ranges,
            whole_file_test,
            annotations,
            ordering_comments,
        }
    }

    pub fn is_test_line(&self, line: u32) -> bool {
        self.whole_file_test
            || self
                .test_ranges
                .iter()
                .any(|&(a, b)| a <= line && line <= b)
    }

    /// Token text at `i`, or "" past the end.
    pub fn t(&self, i: usize) -> &str {
        self.lexed.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    pub fn is_ident(&self, i: usize) -> bool {
        self.lexed
            .tokens
            .get(i)
            .is_some_and(|t| t.kind == Kind::Ident)
    }
}

/// The annotation marker. Assembled so the lint's own sources never contain
/// the literal marker at the start of a comment.
pub(crate) fn marker() -> String {
    format!("{}-{}(", "LINT", "ALLOW")
}

/// The atomic protocol marker (`ORDERING` followed by a colon), assembled
/// for the same reason as [`marker`].
pub(crate) fn ordering_marker() -> String {
    format!("{}{}:", "ORDER", "ING")
}

fn parse_annotations(lexed: &Lexed, code_lines: &BTreeSet<u32>) -> Vec<Annotation> {
    let marker = marker();
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Strip doc-comment sigils so `///`-style annotations also anchor.
        let t = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        let Some(rest) = t.strip_prefix(marker.as_str()) else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').unwrap_or(after).trim();
        out.push(Annotation {
            rule,
            line: c.line,
            target: anchor(c.line, code_lines),
            reason_ok: !reason.is_empty(),
            used: false,
        });
    }
    out
}

fn parse_ordering_comments(lexed: &Lexed, code_lines: &BTreeSet<u32>) -> Vec<OrderingComment> {
    let marker = ordering_marker();
    let mut out = Vec::new();
    for c in &lexed.comments {
        let t = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        if !t.starts_with(marker.as_str()) {
            continue;
        }
        out.push(OrderingComment {
            line: c.line,
            target: anchor(c.line, code_lines),
        });
    }
    out
}

/// The code line a comment on `line` anchors to: the same line if it
/// carries code, otherwise the next line that does.
fn anchor(line: u32, code_lines: &BTreeSet<u32>) -> Option<u32> {
    if code_lines.contains(&line) {
        Some(line)
    } else {
        code_lines.range(line + 1..).next().copied()
    }
}

/// Computes inclusive line ranges covered by `#[test]`-like or
/// `#[cfg(test)]` attributes (the attribute line through the closing brace
/// of the item body).
fn test_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "#" || toks.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Find the matching `]`.
        let mut j = i + 2;
        let mut depth = 1i32;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let content: Vec<&str> = toks[i + 2..j.saturating_sub(1)]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        let is_test = content.first().is_some_and(|f| f.ends_with("test"))
            || (content.first() == Some(&"cfg") && content.contains(&"test"));
        if is_test {
            // Scan forward to the item body `{` (stopping at `;` for
            // bodiless items like `#[cfg(test)] use …;`, and at a `,` or
            // `}` outside any bracket for a test-only struct field or
            // field initializer, which has no body of its own).
            let mut k = j;
            let mut open = None;
            let mut nest = 0i32;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    ";" => break,
                    "," | "}" if nest == 0 => break,
                    "(" | "[" | "<" => nest += 1,
                    ")" | "]" | ">" => nest -= 1,
                    ">>" => nest -= 2,
                    "{" => {
                        open = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            if let Some(open) = open {
                let mut d = 1i32;
                let mut m = open + 1;
                while m < toks.len() && d > 0 {
                    match toks[m].text.as_str() {
                        "{" => d += 1,
                        "}" => d -= 1,
                        _ => {}
                    }
                    m += 1;
                }
                let end = toks[m.saturating_sub(1)].line;
                out.push((toks[i].line, end));
            }
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(src: &str) -> Vec<(u32, u32)> {
        test_ranges(&lex(src).tokens)
    }

    #[test]
    fn test_only_fields_do_not_swallow_the_next_body() {
        // A `#[cfg(test)]` struct field or field initializer has no body;
        // the item after it is production code.
        let src =
            "struct S {\n a: u8,\n #[cfg(test)]\n b: u8,\n}\nfn live() {\n x.expect(\"\");\n}\n";
        assert_eq!(ranges(src), []);
        let src = "fn new() -> S {\n S {\n a: 0,\n #[cfg(test)]\n b: 0,\n }\n}\nfn f() {\n}\n";
        assert_eq!(ranges(src), []);
    }

    #[test]
    fn test_items_and_blocks_are_covered_to_their_closing_brace() {
        let src =
            "#[cfg(test)]\nimpl<A, B> T<Vec<Vec<A>>, B> for (A, B) {\n fn f() {}\n}\nfn g() {}\n";
        assert_eq!(ranges(src), [(1, 4)]);
        let src = "fn f() {\n #[cfg(test)]\n {\n n += 1;\n }\n g();\n}\n#[cfg(test)]\nuse a::b;\n";
        assert_eq!(ranges(src), [(2, 5)]);
    }
}
