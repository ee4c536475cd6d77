//! A small Rust lexer: just enough fidelity for lock-discipline analysis.
//!
//! Produces identifiers, single-character punctuation, opaque literals and
//! lifetimes, each tagged with a 1-based line number. Comments are
//! skipped.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// One punctuation character.
    Punct,
    /// String/char/number literal (content opaque to the analysis).
    Lit,
    /// Lifetime (`'a`).
    Life,
}

/// One token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Source text (for `Punct`, exactly one character).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Tok {
    /// Is this punctuation `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes()[0] as char == c
    }

    /// Is this the identifier `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// Lex `src` into tokens.
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    let push = |toks: &mut Vec<Tok>, kind, text: String, line| {
        toks.push(Tok { kind, text, line });
    };
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i = lex_string(&b, i, &mut line);
                push(&mut toks, TokKind::Lit, String::from("\"\""), line);
            }
            'r' | 'b' if starts_raw_or_byte_string(&b, i) => {
                i = lex_raw_or_byte(&b, i, &mut line);
                push(&mut toks, TokKind::Lit, String::from("\"\""), line);
            }
            '\'' => {
                // Lifetime or char literal. A lifetime is `'` + ident with
                // no closing quote right after one char.
                if i + 1 < b.len() && (b[i + 1].is_alphabetic() || b[i + 1] == '_') {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    if j < b.len() && b[j] == '\'' {
                        // 'x' — a char literal.
                        i = j + 1;
                        push(&mut toks, TokKind::Lit, String::from("'c'"), line);
                    } else {
                        push(&mut toks, TokKind::Life, b[i + 1..j].iter().collect(), line);
                        i = j;
                    }
                } else {
                    // Escaped or punctuation char literal: '\n', '\'', '('.
                    let mut j = i + 1;
                    if j < b.len() && b[j] == '\\' {
                        j += 2;
                    } else {
                        j += 1;
                    }
                    while j < b.len() && b[j] != '\'' {
                        j += 1;
                    }
                    i = j + 1;
                    push(&mut toks, TokKind::Lit, String::from("'c'"), line);
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                push(
                    &mut toks,
                    TokKind::Ident,
                    b[start..i].iter().collect(),
                    line,
                );
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len()
                    && (b[i].is_alphanumeric()
                        || b[i] == '_'
                        || (b[i] == '.'
                            && i + 1 < b.len()
                            && b[i + 1].is_ascii_digit()
                            && !b[start..i].contains(&'.')))
                {
                    i += 1;
                }
                push(&mut toks, TokKind::Lit, b[start..i].iter().collect(), line);
            }
            c => {
                push(&mut toks, TokKind::Punct, c.to_string(), line);
                i += 1;
            }
        }
    }
    toks
}

fn starts_raw_or_byte_string(b: &[char], i: usize) -> bool {
    // r"..."  r#"..."#  b"..."  br"..."  br#"..."#
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j < b.len() && b[j] == 'r' {
            j += 1;
        }
    } else if b[j] == 'r' {
        j += 1;
    } else {
        return false;
    }
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"' && j > i
}

fn lex_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn lex_raw_or_byte(b: &[char], mut i: usize, line: &mut u32) -> usize {
    if b[i] == 'b' {
        i += 1;
    }
    if i < b.len() && b[i] == 'r' {
        i += 1;
        let mut hashes = 0;
        while i < b.len() && b[i] == '#' {
            hashes += 1;
            i += 1;
        }
        i += 1; // opening quote
        while i < b.len() {
            if b[i] == '\n' {
                *line += 1;
            }
            if b[i] == '"' {
                let mut j = i + 1;
                let mut h = 0;
                while j < b.len() && b[j] == '#' && h < hashes {
                    h += 1;
                    j += 1;
                }
                if h == hashes {
                    return j;
                }
            }
            i += 1;
        }
        i
    } else {
        lex_string(b, i, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_code_with_strings_chars_and_lifetimes() {
        let toks =
            lex(r##"fn f<'a>(x: &'a str) { let c = 'x'; let s = "a\"b"; let r = r#"raw"#; }"##);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(
            idents,
            vec!["fn", "f", "x", "str", "let", "c", "let", "s", "let", "r"]
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Life).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 3);
    }

    #[test]
    fn tracks_lines() {
        let toks = lex("a\nb\n\nc");
        assert_eq!(
            toks.iter().map(|t| t.line).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
    }

    #[test]
    fn numeric_range_is_not_a_float() {
        let toks = lex("0..5");
        assert_eq!(toks.len(), 4, "0 . . 5");
    }
}
