//! The protocol-conformance passes.
//!
//! Two checks of the code against the declarative model in
//! [`crate::protocol_model`]:
//!
//! 1. **Illegal transitions** — a wire message (`Request`/`ServerMsg`)
//!    constructed outside its modeled origin function; a client-role owner
//!    transitively sending a server-role message (or vice versa), traced
//!    through the call-graph fixpoint's `sends` effect; and a txn-addressed
//!    grant constructed after a terminal message (`Aborted`/`CommitDone`/
//!    `AbortDone`) was already issued to the same transaction in the same
//!    body.
//! 2. **Panic-under-handler** lives in `analysis::walk` (it needs the live
//!    guard stack): `unwrap`/`expect`/`panic!`-family and thread-blocking
//!    calls while a `ProtocolStage` guard is held.
//!
//! Handler exhaustiveness and determinism are compiler checks, not passes
//! here (see the crate docs).
//!
//! Codec files construct every variant while decoding and are exempt from
//! the origin/role checks; `#[cfg(test)]`/`#[cfg(loom)]` modules are
//! exempt everywhere (tests legitimately forge messages).

use crate::lexer::{Tok, TokKind};
use crate::model::{Rule, Violation};
use crate::parser::match_delim;
use crate::protocol_model as model;

/// An `Enum::Variant` occurrence classified as expression position — i.e.
/// a *construction*, not a pattern.
pub(crate) struct Construction {
    /// `Enum::Variant`.
    pub path: String,
    /// Token range of the payload braces, if any (open, close).
    pub braces: Option<(usize, usize)>,
    /// Source line of the enum ident.
    pub line: u32,
}

/// Classify the `Enum::Variant` occurrence whose enum ident sits at
/// `toks[i]`. Returns `None` for pattern position (match arms, `if let`
/// and `let ... else` destructures, or-patterns, `matches!` bodies — the
/// latter recognized by their `..` rest pattern).
pub(crate) fn construction_at(toks: &[Tok], i: usize) -> Option<Construction> {
    if !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        || !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
    {
        return None;
    }
    let variant = toks.get(i + 3)?;
    if variant.kind != TokKind::Ident {
        return None;
    }
    // Or-pattern continuation: `| Enum::Variant { .. }`.
    if i > 0 && toks[i - 1].is_punct('|') {
        return None;
    }
    let mut braces = None;
    let after = match toks.get(i + 4) {
        Some(t) if t.is_punct('{') => {
            let close = match_delim(toks, i + 4, '{', '}')?;
            // A payload ending in a `..` rest pattern is necessarily a
            // pattern (struct-update syntax would be `..expr`).
            if close >= 2 && toks[close - 1].is_punct('.') && toks[close - 2].is_punct('.') {
                return None;
            }
            braces = Some((i + 4, close));
            close + 1
        }
        Some(t) if t.is_punct('(') => match_delim(toks, i + 4, '(', ')')? + 1,
        _ => i + 4,
    };
    match toks.get(after) {
        // `=> body`: a match arm pattern.
        Some(t) if t.is_punct('=') && toks.get(after + 1).is_some_and(|t| t.is_punct('>')) => None,
        // `== rhs` is a comparison (expression); a lone `=` is an
        // `if let`/`let ... else` destructure.
        Some(t) if t.is_punct('=') && !toks.get(after + 1).is_some_and(|t| t.is_punct('=')) => None,
        // Or-pattern continuation.
        Some(t) if t.is_punct('|') => None,
        _ => Some(Construction {
            path: format!("{}::{}", toks[i].text, variant.text),
            braces,
            line: toks[i].line,
        }),
    }
}

/// Token ranges of `#[cfg(test)]` / `#[cfg(loom)]` modules in a file.
fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].is_punct('#') && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let Some(close) = match_delim(toks, i + 1, '[', ']') else {
            i += 1;
            continue;
        };
        let attr = &toks[i + 2..close];
        let gated = attr.iter().any(|t| t.is_ident("cfg"))
            && attr
                .iter()
                .any(|t| t.is_ident("test") || t.is_ident("loom"));
        if !gated {
            i = close + 1;
            continue;
        }
        // Skip any further stacked attributes, then expect `mod name {`.
        let mut j = close + 1;
        while toks.get(j).is_some_and(|t| t.is_punct('#'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match match_delim(toks, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        if toks.get(j).is_some_and(|t| t.is_ident("mod")) {
            let mut k = j + 1;
            while k < toks.len() && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
                k += 1;
            }
            if toks.get(k).is_some_and(|t| t.is_punct('{')) {
                if let Some(end) = match_delim(toks, k, '{', '}') {
                    out.push((i, end));
                    i = end + 1;
                    continue;
                }
            }
        }
        i = close + 1;
    }
    out
}

fn in_regions(regions: &[(usize, usize)], i: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= i && i <= e)
}

/// The `txn` field expression of a construction's payload, for the
/// terminal-ordering check. Shorthand `txn` and `txn: expr` both resolve;
/// anything else (or no braces) yields `None`.
fn txn_field(toks: &[Tok], braces: Option<(usize, usize)>) -> Option<String> {
    let (open, close) = braces?;
    let mut depth = 0i32;
    let mut i = open;
    while i < close {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 1 && t.is_ident("txn") {
            return match toks.get(i + 1) {
                Some(n) if n.is_punct(':') && !toks.get(i + 2).is_some_and(|t| t.is_punct(':')) => {
                    // `txn: expr` — collect the expression tokens.
                    let mut j = i + 2;
                    let mut d = 0i32;
                    let mut parts = Vec::new();
                    while j < close {
                        let t = &toks[j];
                        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                            d += 1;
                        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                            d -= 1;
                        } else if t.is_punct(',') && d == 0 {
                            break;
                        }
                        parts.push(t.text.as_str());
                        j += 1;
                    }
                    Some(parts.join(" "))
                }
                _ => Some("txn".to_string()),
            };
        }
        i += 1;
    }
    None
}

impl crate::analysis::Workspace {
    /// Run the protocol-conformance passes. `sends` is the per-function
    /// transitive send set from the effects fixpoint, indexed by flat fn
    /// id.
    pub(crate) fn check_protocol(
        &self,
        sends: &[std::collections::HashMap<String, String>],
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        self.check_origins(&mut out);
        self.check_roles(sends, &mut out);
        out
    }

    /// Pass 1a/1c: origin-table conformance and terminal-ordering, over
    /// direct construction sites.
    fn check_origins(&self, out: &mut Vec<Violation>) {
        for unit in &self.units {
            if model::codec_exempt(&unit.file) {
                continue;
            }
            let toks = &unit.toks;
            let tests = test_regions(toks);
            // fn index -> ordered constructions within it.
            let mut per_fn: Vec<(usize, Vec<Construction>)> = Vec::new();
            for i in 0..toks.len() {
                let t = &toks[i];
                if t.kind != TokKind::Ident
                    || (t.text != "ServerMsg" && t.text != "Request")
                    || in_regions(&tests, i)
                {
                    continue;
                }
                let Some(c) = construction_at(toks, i) else {
                    continue;
                };
                let Some(fi) = unit
                    .facts
                    .fns
                    .iter()
                    .position(|f| f.body.0 <= i && i < f.body.1)
                else {
                    continue;
                };
                let f = &unit.facts.fns[fi];
                if let Some(origins) = model::origins_of(&c.path) {
                    let here = (f.owner.as_deref().unwrap_or(""), f.name.as_str());
                    if !origins.iter().any(|&(o, n)| (o, n) == here) {
                        let legal: Vec<String> =
                            origins.iter().map(|(o, n)| format!("{o}::{n}")).collect();
                        out.push(Violation {
                            rule: Rule::IllegalTransition,
                            file: unit.file.clone(),
                            line: c.line,
                            message: format!(
                                "`{}` constructed in `{}{}` — outside its modeled \
                                 origin ({}); the protocol model allows this message \
                                 only from the state transition(s) listed",
                                c.path,
                                f.owner
                                    .as_deref()
                                    .map(|o| format!("{o}::"))
                                    .unwrap_or_default(),
                                f.name,
                                legal.join(", ")
                            ),
                        });
                    }
                }
                match per_fn.iter_mut().find(|(pfi, _)| *pfi == fi) {
                    Some((_, v)) => v.push(c),
                    None => per_fn.push((fi, vec![c])),
                }
            }
            // Terminal ordering: a grant to a txn the same body already
            // finished.
            for (fi, cs) in per_fn {
                let f = &unit.facts.fns[fi];
                let mut finished: Vec<(String, u32)> = Vec::new();
                for c in &cs {
                    let Some(txn) = txn_field(toks, c.braces) else {
                        continue;
                    };
                    if model::TXN_ADDRESSED_MSGS.contains(&c.path.as_str()) {
                        if let Some((_, at)) = finished.iter().find(|(t, _)| *t == txn) {
                            out.push(Violation {
                                rule: Rule::IllegalTransition,
                                file: unit.file.clone(),
                                line: c.line,
                                message: format!(
                                    "`{}` addressed to txn `{txn}` after a terminal \
                                     message for it (line {at}) in `{}`; a finished \
                                     transaction must not receive further grants",
                                    c.path, f.name
                                ),
                            });
                        }
                    }
                    if model::TERMINAL_MSGS.contains(&c.path.as_str()) {
                        finished.push((txn, c.line));
                    }
                }
            }
        }
    }

    /// Pass 1b: role direction, over the transitive send sets.
    fn check_roles(
        &self,
        sends: &[std::collections::HashMap<String, String>],
        out: &mut Vec<Violation>,
    ) {
        for (id, fn_sends) in sends.iter().enumerate() {
            let f = self.fndef(id);
            if model::codec_exempt(&f.file) {
                continue;
            }
            let Some(owner) = f.owner.as_deref() else {
                continue;
            };
            let forbidden = if model::CLIENT_ROLE_OWNERS.contains(&owner) {
                "ServerMsg::"
            } else if model::SERVER_ROLE_OWNERS.contains(&owner) {
                "Request::"
            } else {
                continue;
            };
            for (path, witness) in fn_sends {
                if path.starts_with(forbidden) {
                    out.push(Violation {
                        rule: Rule::IllegalTransition,
                        file: f.file.clone(),
                        line: f.sig_line,
                        message: format!(
                            "`{owner}::{}` may send `{path}` (via {witness}) — the wrong \
                             direction for its protocol role; {} code must never forge \
                             {} messages",
                            f.name,
                            if forbidden == "ServerMsg::" {
                                "client-role"
                            } else {
                                "server-role"
                            },
                            if forbidden == "ServerMsg::" {
                                "server"
                            } else {
                                "client"
                            },
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src)
    }

    #[test]
    fn classifies_expression_vs_pattern_position() {
        let t = toks("let m = ServerMsg::CommitDone { txn };");
        let i = t.iter().position(|t| t.is_ident("ServerMsg")).unwrap();
        assert!(construction_at(&t, i).is_some(), "construction");

        for pattern in [
            "match m { ServerMsg::CommitDone { txn } => 1, }",
            "if let ServerMsg::Aborted { reason, .. } = &msg {}",
            "matches!(m, ServerMsg::CommitDone { .. })",
            "ServerMsg::ReadGranted { txn, .. } | ServerMsg::WriteGranted { txn, .. } => 1,",
        ] {
            let t = toks(pattern);
            for i in 0..t.len() {
                if t[i].is_ident("ServerMsg") {
                    assert!(
                        construction_at(&t, i).is_none(),
                        "misclassified as construction: {pattern}"
                    );
                }
            }
        }
    }

    #[test]
    fn finds_cfg_test_and_loom_regions() {
        let t = toks(
            "fn a() {}\n#[cfg(test)]\nmod tests { fn b() {} }\n#[cfg(all(test, loom))]\nmod loom_tests { fn c() {} }\nfn d() {}",
        );
        let r = test_regions(&t);
        assert_eq!(r.len(), 2, "{r:?}");
        let b = t.iter().position(|t| t.is_ident("b")).unwrap();
        let d = t.iter().position(|t| t.is_ident("d")).unwrap();
        assert!(in_regions(&r, b));
        assert!(!in_regions(&r, d));
    }

    #[test]
    fn extracts_txn_field_shorthand_and_keyed() {
        let t = toks("ServerMsg::Aborted { txn, reason }");
        let c = construction_at(&t, 0).unwrap();
        assert_eq!(txn_field(&t, c.braces).as_deref(), Some("txn"));

        let t = toks("ServerMsg::CommitDone { txn: op.txn }");
        let c = construction_at(&t, 0).unwrap();
        assert_eq!(txn_field(&t, c.braces).as_deref(), Some("op . txn"));
    }
}
