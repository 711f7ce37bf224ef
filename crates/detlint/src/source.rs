//! Source-file model: a lightweight Rust lexer.
//!
//! `detlint` is deliberately dependency-free (the workspace vendors its few
//! deps offline), so instead of a full parser it builds a *code view* of each
//! file: the raw text with every comment and string/character-literal body
//! blanked out.  Token searches over the code view cannot be fooled by
//! `"HashMap"` appearing in a string or a doc comment.  On top of that the
//! model locates `#[cfg(test)]` items (rules skip test code) and parses the
//! per-site allowlist directives:
//!
//! ```text
//! // detlint: allow(<rule>, reason = "why this site is sound")
//! ```
//!
//! A directive suppresses matching diagnostics on its own line (trailing
//! form) or, when it stands alone, on the next line that carries code.

use std::fs;
use std::io;
use std::path::Path;

/// Rule identifiers a `detlint: allow(...)` directive may name.
pub const RULES: &[&str] = &[
    "hash-container",
    "wall-clock",
    "ambient-rng",
    "lock-unwrap",
    "lock-discipline",
    "panic-budget",
    "unsafe-safety",
    "measure-sum",
    "footprint",
];

/// One parsed `// detlint: allow(rule, reason = "...")` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule the directive suppresses.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// 1-based line whose diagnostics are suppressed.
    pub target_line: usize,
    /// 1-based line the directive itself appears on.
    pub directive_line: usize,
}

/// A scanned source file: raw lines, the blanked code view, test-region and
/// allowlist metadata.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, used verbatim in diagnostics.
    pub rel_path: String,
    /// Name of the crate the file belongs to (scoping is per crate).
    pub krate: String,
    /// Raw lines exactly as read.
    pub raw: Vec<String>,
    /// Lines with comments and literal bodies replaced by spaces.
    pub code: Vec<String>,
    /// `in_test[i]` is true when line `i` sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Well-formed allow directives.
    pub allows: Vec<Allow>,
    /// Malformed directives as `(1-based line, problem)` — always an error;
    /// a suppression without a reason (or for an unknown rule) is itself a
    /// lint violation.
    pub bad_allows: Vec<(usize, String)>,
}

impl SourceFile {
    /// Reads and scans `path`, recording it under `rel_path` / `krate`.
    pub fn read(path: &Path, rel_path: &str, krate: &str) -> io::Result<SourceFile> {
        let text = fs::read_to_string(path)?;
        Ok(SourceFile::from_text(&text, rel_path, krate))
    }

    /// Scans in-memory source text (used by the fixture tests).
    #[must_use]
    pub fn from_text(text: &str, rel_path: &str, krate: &str) -> SourceFile {
        let code_text = blank_non_code(text);
        let raw: Vec<String> = text.lines().map(str::to_string).collect();
        let code: Vec<String> = code_text.lines().map(str::to_string).collect();
        let in_test = mark_test_regions(&code);
        let (allows, bad_allows) = parse_allows(&raw, &code);
        SourceFile {
            rel_path: rel_path.to_string(),
            krate: krate.to_string(),
            raw,
            code,
            in_test,
            allows,
            bad_allows,
        }
    }

    /// True when line `line0` (0-based) carries non-test code.
    #[must_use]
    pub fn is_lintable(&self, line0: usize) -> bool {
        !self.in_test.get(line0).copied().unwrap_or(true)
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Replaces comments and string/char-literal bodies with spaces, preserving
/// line structure.  Handles nested block comments, raw strings (`r"…"`,
/// `r#"…"#`, byte variants) and distinguishes lifetimes from char literals.
fn blank_non_code(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let n = chars.len();
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < n {
        let c = chars[i];
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < n && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw string: r"…" or r#…#"…"#…# (possibly after a pushed `b`).
        if c == 'r' && (i == 0 || !is_ident(chars[i - 1])) {
            let mut j = i + 1;
            let mut hashes = 0;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                // Blank from `r` through the closing quote+hashes.
                let close: String = std::iter::once('"')
                    .chain("#".repeat(hashes).chars())
                    .collect();
                let mut k = j + 1;
                while k < n {
                    if chars[k] == '"'
                        && chars[k..].iter().take(close.len()).collect::<String>() == close
                    {
                        k += close.len();
                        break;
                    }
                    k += 1;
                }
                for &ch in &chars[i..k.min(n)] {
                    out.push(blank(ch));
                }
                i = k.min(n);
                continue;
            }
        }
        // Plain string (covers b"…" since the `b` is ordinary code).
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(blank(chars[i + 1]));
                    i += 2;
                    continue;
                }
                let done = chars[i] == '"';
                out.push(blank(chars[i]));
                i += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = chars.get(i + 1);
            let lifetime = matches!(next, Some(&nc) if is_ident(nc) && nc != '\\')
                && chars.get(i + 2) != Some(&'\'');
            if lifetime {
                out.push('\'');
                i += 1;
                continue;
            }
            // Consume the literal: 'x', '\n', '\u{1F600}', '\''.
            out.push(' ');
            i += 1;
            let mut steps = 0;
            while i < n && steps < 12 {
                if chars[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(blank(chars[i + 1]));
                    i += 2;
                    steps += 2;
                    continue;
                }
                let done = chars[i] == '\'';
                out.push(blank(chars[i]));
                i += 1;
                steps += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Marks every line covered by a `#[cfg(test)]` item (the attribute's own
/// line through the item's closing brace, or just the attribute line for a
/// semicolon item).
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    // Flatten to (char, line) for cross-line attribute and brace matching.
    let mut flat: Vec<(char, usize)> = Vec::new();
    for (li, line) in code.iter().enumerate() {
        for ch in line.chars() {
            flat.push((ch, li));
        }
        flat.push(('\n', li));
    }
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    let matches_at = |at: usize| {
        flat.len() - at >= needle.len()
            && needle
                .iter()
                .enumerate()
                .all(|(o, &nc)| flat[at + o].0 == nc)
    };
    let mut in_test = vec![false; code.len()];
    let mut i = 0;
    while i < flat.len() {
        if !matches_at(i) {
            i += 1;
            continue;
        }
        let start_line = flat[i].1;
        // Walk to the first `{` or `;` after the attribute.
        let mut j = i + needle.len();
        while j < flat.len() && flat[j].0 != '{' && flat[j].0 != ';' {
            j += 1;
        }
        if j < flat.len() && flat[j].0 == '{' {
            let mut depth = 0usize;
            let mut k = j;
            while k < flat.len() {
                match flat[k].0 {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let end_line = flat[k.min(flat.len() - 1)].1;
            for flag in in_test.iter_mut().take(end_line + 1).skip(start_line) {
                *flag = true;
            }
            i = k + 1;
        } else {
            in_test[start_line] = true;
            i = j + 1;
        }
    }
    in_test
}

/// Parses `detlint: allow(rule, reason = "...")` directives out of the raw
/// lines (they live in comments, which the code view blanks).
fn parse_allows(raw: &[String], code: &[String]) -> (Vec<Allow>, Vec<(usize, String)>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (li, line) in raw.iter().enumerate() {
        let Some(pos) = line.find("detlint: allow(") else {
            continue;
        };
        let lineno = li + 1;
        let after = &line[pos + "detlint: allow(".len()..];
        let rule: String = after
            .chars()
            .take_while(|&c| c != ',' && c != ')')
            .collect::<String>()
            .trim()
            .to_string();
        if !RULES.contains(&rule.as_str()) {
            bad.push((lineno, format!("unknown rule `{rule}` in allow directive")));
            continue;
        }
        let reason = after
            .find("reason")
            .and_then(|r| {
                let tail = &after[r + "reason".len()..];
                let eq = tail.trim_start().strip_prefix('=')?;
                let open = eq.find('"')?;
                let body = &eq[open + 1..];
                let close = body.find('"')?;
                Some(body[..close].trim().to_string())
            })
            .unwrap_or_default();
        if reason.is_empty() {
            bad.push((
                lineno,
                format!("allow({rule}) without a non-empty reason = \"...\""),
            ));
            continue;
        }
        // Trailing directive suppresses its own line; a standalone one
        // suppresses the next line carrying code.
        let own_code = code.get(li).is_some_and(|c| !c.trim().is_empty());
        let target_line = if own_code {
            lineno
        } else {
            let mut t = li + 1;
            while t < code.len() && code[t].trim().is_empty() {
                t += 1;
            }
            t + 1
        };
        allows.push(Allow {
            rule,
            reason,
            target_line,
            directive_line: lineno,
        });
    }
    (allows, bad)
}

/// Finds 1-based lines of `token` in the code view, requiring identifier
/// boundaries on both sides, skipping test regions.
pub fn token_lines(file: &SourceFile, token: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let first = token.chars().next().unwrap_or(' ');
    let last = token.chars().next_back().unwrap_or(' ');
    for (li, line) in file.code.iter().enumerate() {
        if !file.is_lintable(li) {
            continue;
        }
        let mut from = 0;
        while let Some(off) = line[from..].find(token) {
            let at = from + off;
            let before_ok = !is_ident(first)
                || at == 0
                || !line[..at].chars().next_back().is_some_and(is_ident);
            let after_ok = !is_ident(last)
                || line[at + token.len()..]
                    .chars()
                    .next()
                    .is_none_or(|c| !is_ident(c));
            if before_ok && after_ok {
                hits.push(li + 1);
                // One diagnostic per line is enough.
                break;
            }
            from = at + token.len();
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_comments_and_strings() {
        let src = "let a = \"HashMap\"; // HashMap here\nlet b = 1; /* HashMap */ let c = 2;\n";
        let out = blank_non_code(src);
        assert!(!out.contains("HashMap"));
        assert!(out.contains("let a ="));
        assert!(out.contains("let c = 2;"));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let r = r#\"Instant::now\"#; let c = 'x'; }";
        let out = blank_non_code(src);
        assert!(!out.contains("Instant::now"));
        assert!(out.contains("fn f<'a>"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n";
        let file = SourceFile::from_text(src, "x.rs", "x");
        assert_eq!(file.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn allow_directive_targets_next_code_line() {
        let src =
            "// detlint: allow(wall-clock, reason = \"metrics only\")\nlet t = Instant::now();\n";
        let file = SourceFile::from_text(src, "x.rs", "x");
        assert_eq!(file.allows.len(), 1);
        assert_eq!(file.allows[0].target_line, 2);
        assert_eq!(file.allows[0].reason, "metrics only");
        assert!(file.bad_allows.is_empty());
    }

    #[test]
    fn allow_without_reason_is_bad() {
        let src = "// detlint: allow(wall-clock)\nlet t = 1;\n";
        let file = SourceFile::from_text(src, "x.rs", "x");
        assert!(file.allows.is_empty());
        assert_eq!(file.bad_allows.len(), 1);
    }

    #[test]
    fn token_boundaries_respected() {
        let src = "use MyHashMapLike;\nlet m: HashMap<u8, u8> = HashMap::new();\n";
        let file = SourceFile::from_text(src, "x.rs", "x");
        assert_eq!(token_lines(&file, "HashMap"), vec![2]);
    }
}
