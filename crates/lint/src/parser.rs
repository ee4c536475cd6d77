//! A shallow Rust parser over the lexer's token stream.
//!
//! Extracts exactly what the lock-discipline analysis needs: struct field
//! types, `impl` blocks, and function definitions with their parameter
//! types, return-type hint and body token range. Everything else (traits,
//! macros, expressions) is left as raw tokens for `analysis` to scan.

use crate::lexer::{Tok, TokKind};
use std::collections::HashMap;

/// A function definition found in a file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Self type of the enclosing `impl`, if any (e.g. `BufferPool`).
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// File the function lives in (workspace-relative).
    pub file: String,
    /// Line of the `fn` keyword.
    pub sig_line: u32,
    /// Token range of the body, *excluding* the outer braces.
    pub body: (usize, usize),
    /// Parameter name → type hint (last uppercase-initial ident of the
    /// parameter's type tokens).
    pub params: HashMap<String, String>,
    /// Return-type hint (last uppercase-initial ident after `->`).
    pub ret: Option<String>,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// struct name → (field name → type hint).
    pub struct_fields: HashMap<String, HashMap<String, String>>,
    /// All function definitions.
    pub fns: Vec<FnDef>,
}

/// Parse the token stream of `file` into facts.
pub fn parse(file: &str, toks: &[Tok]) -> FileFacts {
    let mut facts = FileFacts::default();
    // Stack of (self type, brace depth at which that impl closes).
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    let mut depth: i32 = 0;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.is_punct('{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct if t.is_punct('}') => {
                depth -= 1;
                while matches!(impl_stack.last(), Some((_, d)) if *d == depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            TokKind::Ident if t.text == "struct" => {
                i = parse_struct(toks, i, &mut facts);
            }
            TokKind::Ident if t.text == "impl" => {
                if let Some((name, next)) = parse_impl_header(toks, i) {
                    impl_stack.push((name, depth));
                    depth += 1; // the impl's own `{`
                    i = next;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident if t.text == "macro_rules" => {
                // `macro_rules! name { ... }`: the body is matcher/template
                // soup — `fn` fragments in there are patterns, not
                // definitions. Skip it wholesale rather than mis-parse.
                if toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct('{'))
                {
                    match match_delim(toks, i + 3, '{', '}') {
                        Some(close) => i = close + 1,
                        None => i += 1,
                    }
                } else {
                    i += 1;
                }
            }
            TokKind::Ident if t.text == "fn" => {
                let owner = impl_stack.last().map(|(n, _)| n.clone());
                if let Some((def, next)) = parse_fn(file, toks, i, owner) {
                    facts.fns.push(def);
                    i = next;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    facts
}

/// Skip a balanced `<...>` generics group starting at the `<` in `toks[i]`.
fn skip_generics(toks: &[Tok], mut i: usize) -> usize {
    let start = i;
    let mut angle = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // The `>` of a `->` inside a bound (`F: FnOnce() -> R`) is not
            // a closing angle bracket.
            if !(i > start && toks[i - 1].is_punct('-')) {
                angle -= 1;
                if angle == 0 {
                    return i + 1;
                }
            }
        } else if t.is_punct('{') || t.is_punct(';') {
            // Malformed/comparison — bail out rather than overrun.
            return i;
        }
        i += 1;
    }
    i
}

/// Find the matching close for the opener at `toks[i]` (which must be the
/// opener). Returns the index of the matching closer.
pub(crate) fn match_delim(toks: &[Tok], i: usize, open: char, close: char) -> Option<usize> {
    let mut d = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            d += 1;
        } else if toks[j].is_punct(close) {
            d -= 1;
            if d == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// The "type hint" of a run of type tokens: the last uppercase-initial
/// identifier. `Arc<Mutex<CompletionState>>` → `CompletionState`; `&'a mut WalInner` →
/// `WalInner`; `Arc<dyn DiskManager>` → `DiskManager`; `u64` → none.
pub fn type_hint(toks: &[Tok]) -> Option<String> {
    toks.iter()
        .rev()
        .find(|t| {
            t.kind == TokKind::Ident && t.text.chars().next().is_some_and(|c| c.is_uppercase())
        })
        .map(|t| t.text.clone())
}

fn parse_struct(toks: &[Tok], mut i: usize, facts: &mut FileFacts) -> usize {
    i += 1; // past `struct`
    let Some(name_tok) = toks.get(i) else {
        return i;
    };
    if name_tok.kind != TokKind::Ident {
        return i + 1;
    }
    let name = name_tok.text.clone();
    i += 1;
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_generics(toks, i);
    }
    // Tuple struct or unit struct: no named fields to record.
    let Some(t) = toks.get(i) else { return i };
    if !t.is_punct('{') {
        return i;
    }
    let Some(end) = match_delim(toks, i, '{', '}') else {
        return i + 1;
    };
    let mut fields = HashMap::new();
    let mut j = i + 1;
    while j < end {
        // field: `[pub [(..)]] name : TYPE ,`
        if toks[j].kind == TokKind::Ident
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && !toks[j].is_ident("pub")
        {
            let fname = toks[j].text.clone();
            let tstart = j + 2;
            // Type runs to the `,` at angle/paren depth 0, or to `end`.
            let mut angle = 0i32;
            let mut paren = 0i32;
            let mut k = tstart;
            while k < end {
                let t = &toks[k];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                } else if t.is_punct('(') || t.is_punct('[') {
                    paren += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    paren -= 1;
                } else if t.is_punct(',') && angle <= 0 && paren <= 0 {
                    break;
                }
                k += 1;
            }
            if let Some(hint) = type_hint(&toks[tstart..k]) {
                fields.insert(fname, hint);
            }
            j = k + 1;
        } else {
            j += 1;
        }
    }
    facts.struct_fields.insert(name, fields);
    end + 1
}

/// Parse `impl [<..>] Type [<..>] [for Type] {`. Returns the self type
/// (the one after `for`, if present) and the index just past the `{`.
fn parse_impl_header(toks: &[Tok], mut i: usize) -> Option<(String, usize)> {
    i += 1; // past `impl`
    if toks.get(i)?.is_punct('<') {
        i = skip_generics(toks, i);
    }
    let mut last_type: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            return last_type.map(|n| (n, i + 1));
        }
        if t.is_punct(';') {
            return None;
        }
        if t.kind == TokKind::Ident && t.text == "for" {
            last_type = None;
        } else if t.kind == TokKind::Ident
            && t.text.chars().next().is_some_and(|c| c.is_uppercase())
        {
            last_type = Some(t.text.clone());
        } else if t.is_punct('<') {
            i = skip_generics(toks, i);
            continue;
        }
        i += 1;
    }
    None
}

/// Parse `fn name [<..>] ( params ) [-> Ret] [where ..] { body }`.
fn parse_fn(
    file: &str,
    toks: &[Tok],
    mut i: usize,
    owner: Option<String>,
) -> Option<(FnDef, usize)> {
    let sig_line = toks[i].line;
    i += 1; // past `fn`
    let name_tok = toks.get(i)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    i += 1;
    if toks.get(i)?.is_punct('<') {
        i = skip_generics(toks, i);
    }
    if !toks.get(i)?.is_punct('(') {
        return None;
    }
    let params_end = match_delim(toks, i, '(', ')')?;
    let params = parse_params(&toks[i + 1..params_end]);
    i = params_end + 1;
    // Return type: tokens between `->` and the body `{` / `where` / `;`.
    let mut ret = None;
    if toks.get(i).is_some_and(|t| t.is_punct('-'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('>'))
    {
        let rstart = i + 2;
        let mut k = rstart;
        let mut angle = 0i32;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && angle > 0 {
                angle -= 1;
            } else if (t.is_punct('{') && angle == 0) || t.is_punct(';') || t.is_ident("where") {
                break;
            }
            k += 1;
        }
        ret = type_hint(&toks[rstart..k]);
        i = k;
    }
    // Skip a where clause.
    while i < toks.len() && !toks[i].is_punct('{') && !toks[i].is_punct(';') {
        i += 1;
    }
    let open = i;
    if !toks.get(open).is_some_and(|t| t.is_punct('{')) {
        // Trait method signature without a body.
        return Some((
            FnDef {
                owner,
                name,
                file: file.to_string(),
                sig_line,
                body: (open, open),
                params,
                ret,
            },
            open + 1,
        ));
    }
    let close = match_delim(toks, open, '{', '}')?;
    Some((
        FnDef {
            owner,
            name,
            file: file.to_string(),
            sig_line,
            body: (open + 1, close),
            params,
            ret,
        },
        close + 1,
    ))
}

/// Split the parameter token run on top-level commas; each parameter is
/// `[pat] name : TYPE` (we take the ident before the first `:`).
fn parse_params(toks: &[Tok]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut start = 0;
    let mut i = 0;
    let flush = |s: usize, e: usize, out: &mut HashMap<String, String>| {
        let part = &toks[s..e];
        let Some(colon) = part.iter().position(|t| t.is_punct(':')) else {
            return; // `self`, `&self`, `&mut self`
        };
        let name = part[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
            .map(|t| t.text.clone());
        let (Some(name), Some(hint)) = (name, type_hint(&part[colon + 1..])) else {
            return;
        };
        out.insert(name, hint);
    };
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct(',') && angle <= 0 && paren <= 0 {
            flush(start, i, &mut out);
            start = i + 1;
        }
        i += 1;
    }
    if start < toks.len() {
        flush(start, toks.len(), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileFacts {
        let (toks, _) = lex(src);
        parse("t.rs", &toks)
    }

    #[test]
    fn extracts_struct_fields_with_type_hints() {
        let f = parse_src("struct Pool { shards: Vec<Mutex<PoolInner>>, wal: Arc<Wal>, n: usize }");
        let fields = &f.struct_fields["Pool"];
        assert_eq!(fields["shards"], "PoolInner");
        assert_eq!(fields["wal"], "Wal");
        assert!(!fields.contains_key("n"));
    }

    #[test]
    fn extracts_fns_with_owner_params_and_ret() {
        let f = parse_src(
            "impl<'a> Pool {\n fn get(&self, id: PageId, d: &dyn DiskManager) -> Frame { body() }\n}\nfn free() {}",
        );
        assert_eq!(f.fns.len(), 2);
        let get = &f.fns[0];
        assert_eq!(get.owner.as_deref(), Some("Pool"));
        assert_eq!(get.name, "get");
        assert_eq!(get.params["id"], "PageId");
        assert_eq!(get.params["d"], "DiskManager");
        assert_eq!(get.ret.as_deref(), Some("Frame"));
        assert_eq!(f.fns[1].owner, None);
    }

    #[test]
    fn trait_impl_uses_the_for_type() {
        let f = parse_src("impl DiskManager for MemDisk { fn read(&self) {} }");
        assert_eq!(f.fns[0].owner.as_deref(), Some("MemDisk"));
    }

    #[test]
    fn nested_fn_bodies_do_not_leak_impl_scope() {
        let f = parse_src("impl A { fn x(&self) { if y { z(); } } }\nimpl B { fn w(&self) {} }");
        assert_eq!(f.fns[0].owner.as_deref(), Some("A"));
        assert_eq!(f.fns[1].owner.as_deref(), Some("B"));
    }

    #[test]
    fn generic_fn_and_where_clause() {
        let f = parse_src("fn run<F: FnOnce() -> R, R>(f: F) -> R where R: Send { f() }");
        assert_eq!(f.fns[0].name, "run");
        assert_eq!(f.fns[0].ret.as_deref(), Some("R"));
    }

    /// A raw string containing `fn`, braces and a phoney directive is
    /// opaque text: nothing inside it may become a definition (or a
    /// suppression).
    #[test]
    fn raw_strings_are_opaque_to_the_parser() {
        let src = r##"
            fn real(&self) -> u32 {
                let s = r#"fn fake() { } } { // fgs-lint: allow(lock_order)"#;
                s.len() as u32
            }
            fn after() {}
        "##;
        let (toks, dirs) = lex(src);
        let f = parse("t.rs", &toks);
        let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["real", "after"], "{names:?}");
        assert!(dirs.is_empty(), "directive leaked out of a raw string");
    }

    /// Nested generics in turbofish position: the `<` runs must not eat
    /// the call that follows, and the fn's own signature stays intact.
    #[test]
    fn nested_turbofish_generics_do_not_derail_parsing() {
        let f = parse_src(
            "impl Cache {\n fn load(&self, m: &HashMap<PageId, Vec<Obj>>) -> usize {\n\
             let v = m.values().collect::<Vec<Vec<Obj>>>();\n\
             Iterator::sum::<usize>(v.iter().map(Vec::len))\n }\n\
             fn next(&self) -> PageId { PageId(0) }\n}",
        );
        let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["load", "next"], "{names:?}");
        // The hint is the innermost (last) uppercase ident, per type_hint.
        assert_eq!(f.fns[0].params["m"], "Obj");
        assert_eq!(f.fns[1].ret.as_deref(), Some("PageId"));
    }

    /// `macro_rules!` bodies are matcher/template fragments: a `fn`
    /// inside one is a pattern, not a definition, and the impl scope
    /// around the macro must survive it.
    #[test]
    fn macro_rules_bodies_are_skipped() {
        let f = parse_src(
            "impl Srv {\n\
             macro_rules! forward {\n\
                 ($name:ident) => { fn $name(&self) { self.inner.$name() } };\n\
                 (fn $n:ident) => {};\n\
             }\n\
             fn real(&self) {}\n}",
        );
        let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["real"], "{names:?}");
        assert_eq!(f.fns[0].owner.as_deref(), Some("Srv"));
    }
}
