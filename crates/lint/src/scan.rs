//! String/comment-aware source scanning.
//!
//! The analyzer works line by line over a *masked* copy of each source file:
//! comments and the contents of string/char literals are blanked out (byte
//! for byte, newlines preserved, so line/column positions survive), which
//! lets the rules use plain substring matching without a real parser —
//! a `".unwrap()"` inside a string literal or a doc comment can never
//! trigger the `unwrap` rule, because by the time a rule looks at the line
//! those bytes are spaces.

/// A scanned source file: masked code lines for rule matching, comment-only
/// lines for allow-escape parsing, and a per-line in-`#[cfg(test)]` flag.
pub struct Scanned {
    /// Original lines, verbatim.
    pub raw: Vec<String>,
    /// Masked lines: comments and literal contents blanked.
    pub code: Vec<String>,
    /// The complement view: only comment text survives, code and literals
    /// are blanked — so an allow-escape marker inside a string literal is
    /// never mistaken for a real escape comment.
    pub comments: Vec<String>,
    /// `test[i]`: line `i` is inside (or is) a `#[cfg(test)]`-gated item.
    pub test: Vec<bool>,
}

/// Scans a file into masked lines plus test-region flags.
pub(crate) fn scan(src: &str) -> Scanned {
    let (masked, comment_text) = mask_source(src);
    let raw: Vec<String> = src.lines().map(str::to_string).collect();
    let code: Vec<String> = masked.lines().map(str::to_string).collect();
    let comments: Vec<String> = comment_text.lines().map(str::to_string).collect();
    let test = test_regions(&code);
    Scanned {
        raw,
        code,
        comments,
        test,
    }
}

/// Lexer state for [`mask_source`].
enum State {
    Code,
    LineComment,
    /// Nested block comment, with depth.
    BlockComment(u32),
    /// Regular `"…"` string (also `b"…"`).
    Str,
    /// Raw string `r#…#"…"#…#` (also `br…`), with the hash count.
    RawStr(usize),
    /// Char or byte-char literal `'…'`.
    CharLit,
}

/// True if `b` can be part of an identifier (so `r` in `for` is not a raw
/// string prefix).
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blanks comments and literal contents from the code view and everything
/// but comment text from the comments view; both preserve length and
/// newlines. Returns `(code, comments)`.
pub(crate) fn mask_source(src: &str) -> (String, String) {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut com: Vec<u8> = b
        .iter()
        .map(|&c| if c == b'\n' || c == b'\r' { c } else { b' ' })
        .collect();
    let mut state = State::Code;
    let mut i = 0;
    // Blank `out[i]` unless it is a newline (line structure must survive).
    fn blank(out: &mut [u8], i: usize) {
        if out[i] != b'\n' && out[i] != b'\r' {
            out[i] = b' ';
        }
    }
    // Move byte `i` from the code view to the comments view.
    fn to_comment(out: &mut [u8], com: &mut [u8], src: &[u8], i: usize) {
        blank(out, i);
        if src[i] != b'\n' && src[i] != b'\r' {
            com[i] = src[i];
        }
    }
    while i < b.len() {
        match state {
            State::Code => {
                let prev_ident = i > 0 && is_ident_byte(b[i - 1]);
                match b[i] {
                    b'/' if b.get(i + 1) == Some(&b'/') => {
                        state = State::LineComment;
                        to_comment(&mut out, &mut com, b, i);
                    }
                    b'/' if b.get(i + 1) == Some(&b'*') => {
                        state = State::BlockComment(1);
                        to_comment(&mut out, &mut com, b, i);
                        to_comment(&mut out, &mut com, b, i + 1);
                        i += 1;
                    }
                    b'"' => state = State::Str,
                    b'r' | b'b' if !prev_ident => {
                        // Possible r"…", r#"…"#, b"…", br#"…"#, b'…' prefix.
                        let mut j = i + 1;
                        if b[i] == b'b' && b.get(j) == Some(&b'r') {
                            j += 1;
                        }
                        if b[i] == b'b' && b.get(j) == Some(&b'\'') {
                            state = State::CharLit;
                            i = j; // skip to the opening quote
                        } else if b[i] != b'b' || j > i + 1 {
                            let hashes = b[j..].iter().take_while(|&&c| c == b'#').count();
                            if b.get(j + hashes) == Some(&b'"') {
                                state = State::RawStr(hashes);
                                i = j + hashes; // skip to the opening quote
                            }
                        } else if b.get(j) == Some(&b'"') {
                            state = State::Str;
                            i = j;
                        }
                    }
                    // Char literal vs lifetime: '\…' or 'x' followed by a
                    // closing quote is a literal; anything else ('a in
                    // generics) is a lifetime and stays code.
                    b'\''
                        if b.get(i + 1) == Some(&b'\\')
                            || (i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'') =>
                    {
                        state = State::CharLit;
                    }
                    _ => {}
                }
            }
            State::LineComment => {
                if b[i] == b'\n' {
                    state = State::Code;
                } else {
                    to_comment(&mut out, &mut com, b, i);
                }
            }
            State::BlockComment(depth) => {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    to_comment(&mut out, &mut com, b, i);
                    to_comment(&mut out, &mut com, b, i + 1);
                    i += 1;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    to_comment(&mut out, &mut com, b, i);
                    to_comment(&mut out, &mut com, b, i + 1);
                    i += 1;
                    state = if depth > 1 {
                        State::BlockComment(depth - 1)
                    } else {
                        State::Code
                    };
                } else {
                    to_comment(&mut out, &mut com, b, i);
                }
            }
            State::Str => {
                if b[i] == b'\\' {
                    blank(&mut out, i);
                    if i + 1 < b.len() {
                        blank(&mut out, i + 1);
                        i += 1;
                    }
                } else if b[i] == b'"' {
                    state = State::Code;
                } else {
                    blank(&mut out, i);
                }
            }
            State::RawStr(hashes) => {
                if b[i] == b'"'
                    && b[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&c| c == b'#')
                        .count()
                        == hashes
                {
                    i += hashes; // leave the quote and hashes as code
                    state = State::Code;
                } else {
                    blank(&mut out, i);
                }
            }
            State::CharLit => {
                if b[i] == b'\\' {
                    blank(&mut out, i);
                    if i + 1 < b.len() {
                        blank(&mut out, i + 1);
                        i += 1;
                    }
                } else if b[i] == b'\'' {
                    state = State::Code;
                } else {
                    blank(&mut out, i);
                }
            }
        }
        i += 1;
    }
    // Multi-byte UTF-8 sequences are only ever replaced byte-for-byte with
    // ASCII spaces (code view) or copied whole (comments view), so both
    // buffers stay valid UTF-8; lossy conversion is a formality.
    (
        String::from_utf8_lossy(&out).into_owned(),
        String::from_utf8_lossy(&com).into_owned(),
    )
}

/// Marks lines belonging to `#[cfg(test)]`-gated items by tracking brace
/// depth on the masked source: the region opens at the first `{` after the
/// attribute and closes when depth returns to its pre-item level. An
/// attribute followed by `;` before any `{` gates a single statement-like
/// item and is closed there.
pub(crate) fn test_regions(code: &[String]) -> Vec<bool> {
    let mut out = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region_close: Option<i64> = None;
    for (idx, line) in code.iter().enumerate() {
        if region_close.is_some() || pending {
            out[idx] = true;
        }
        if line.contains("#[cfg(test)]") && region_close.is_none() {
            pending = true;
            out[idx] = true;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    if pending && region_close.is_none() {
                        region_close = Some(depth);
                        pending = false;
                        out[idx] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(close) = region_close {
                        if depth <= close {
                            region_close = None;
                        }
                    }
                }
                ';' if pending && region_close.is_none() => {
                    pending = false;
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked(src: &str) -> String {
        mask_source(src).0
    }

    #[test]
    fn comments_view_keeps_comment_text_only() {
        let (code, com) = mask_source("let s = \"lint:allow(\"; // lint:allow(unwrap, why)\n");
        assert!(!code.contains("lint:allow"));
        assert!(com.contains("lint:allow(unwrap, why)"));
        // The string literal's content is in neither view.
        assert_eq!(com.matches("lint:allow").count(), 1);
        assert!(com.trim_start().starts_with("//"));
    }

    #[test]
    fn line_comments_are_blanked() {
        let m = masked("let x = 1; // Instant::now()\nlet y = 2;");
        assert!(!m.contains("Instant"));
        assert!(m.contains("let x = 1;"));
        assert!(m.contains("let y = 2;"));
    }

    #[test]
    fn doc_comments_are_blanked() {
        let m = masked("/// calls .unwrap() on it\nfn f() {}");
        assert!(!m.contains("unwrap"));
        assert!(m.contains("fn f() {}"));
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let m = masked("a /* one /* two */ still comment */ b");
        assert!(m.contains('a'));
        assert!(m.contains('b'));
        assert!(!m.contains("still"));
    }

    #[test]
    fn string_contents_are_blanked_with_escapes() {
        let m = masked(r#"let s = "quote \" .unwrap() "; s.len()"#);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("s.len()"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let m = masked(r##"let s = r#"no "escape" .expect( here"#; done()"##);
        assert!(!m.contains("expect"));
        assert!(m.contains("done()"));
    }

    #[test]
    fn char_literals_blanked_lifetimes_kept() {
        let m = masked("fn f<'a>(x: &'a str) -> char { '\\'' }");
        assert!(m.contains("<'a>"));
        assert!(m.contains("&'a str"));
        assert!(!m.contains("\\'"));
        let m2 = masked("let q = '\"'; x.iter()");
        assert!(!m2.contains('"'));
        assert!(m2.contains("x.iter()"));
    }

    #[test]
    fn newlines_survive_masking() {
        let src = "a\n/* x\ny */\nb";
        let m = masked(src);
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn test_region_covers_mod_tests() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let s = scan(src);
        assert!(!s.test[0]);
        assert!(s.test[1]);
        assert!(s.test[2]);
        assert!(s.test[3]);
        assert!(s.test[4]);
        assert!(!s.test[5]);
    }

    #[test]
    fn test_region_on_single_use_statement() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}\n";
        let s = scan(src);
        assert!(s.test[0]);
        assert!(s.test[1]);
        assert!(!s.test[2]);
    }
}
