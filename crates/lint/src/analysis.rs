//! The lock-discipline analysis.
//!
//! Works on the shallow parse of every workspace file at once:
//!
//! 1. Build a workspace index (functions, struct field types).
//! 2. Compute per-function *effects* — the set of lock classes a call may
//!    transitively acquire, whether it may perform a channel operation,
//!    and whether it can re-enter the protocol engine — as a fixpoint
//!    over the (heuristically resolved) call graph.
//! 3. Replay each function body with a guard stack, checking the three
//!    rules: `lock_order`, `io_under_protocol`, `reentrant_closure`.
//!
//! The analysis is deliberately under-approximate where Rust's dynamism
//! defeats a lexical pass (trait objects, closures stored in fields,
//! branch-sensitive guard lifetimes): unresolvable calls are treated as
//! effect-free rather than effect-anything, so unknown code never produces
//! a false positive. The price is possible false negatives — this is a
//! lint, not a verifier; loom and TSan cover the residue.

use crate::lexer::{Tok, TokKind};
use crate::model::{LockClass, Rule, Violation};
use crate::parser::{parse, FileFacts, FnDef};
use crate::protocol_model::ROLE_EXEMPT_ORIGIN_OWNERS;
use std::collections::{HashMap, HashSet};

/// Method names so common on std types that an unhinted receiver must not
/// resolve to a same-named workspace function.
const GENERIC_NAMES: &[&str] = &[
    "new",
    "default",
    "clone",
    "to_owned",
    "to_vec",
    "to_string",
    "into",
    "from",
    "try_into",
    "try_from",
    "as_ref",
    "as_mut",
    "as_bytes",
    "as_str",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "entry",
    "next",
    "push",
    "pop",
    "insert",
    "remove",
    "swap_remove",
    "truncate",
    "clear",
    "extend",
    "extend_from_slice",
    "append",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    "split",
    "split_first",
    "trim",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok",
    "err",
    "ok_or",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "take",
    "replace",
    "min",
    "max",
    "sum",
    "count",
    "fold",
    "filter",
    "find",
    "position",
    "any",
    "all",
    "chain",
    "zip",
    "rev",
    "skip",
    "enumerate",
    "collect",
    "join",
    "sort",
    "sort_by",
    "sort_by_key",
    "binary_search",
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "spawn",
    "sleep",
    "yield_now",
    "now",
    "elapsed",
    "duration_since",
    "read",
    "write",
    "write_all",
    "seek",
    "metadata",
    "sync_data",
    "wait",
    "wait_for",
    "notify_all",
    "notify_one",
    "is_some",
    "is_none",
    "is_some_and",
    "is_ok",
    "is_err",
    "copied",
    "cloned",
    "flatten",
    "drain",
    "retain",
    "saturating_sub",
    "wrapping_neg",
    "to_le_bytes",
    "from_le_bytes",
    "cmp",
    "eq",
    "hash",
    "fmt",
    "abs",
    "pow",
    "div_ceil",
];

/// Names that are channel endpoint operations when the receiver does not
/// resolve to a workspace method (this keeps `ServerEngine::send`, an
/// in-memory action push, from being flagged).
const CHANNEL_NAMES: &[&str] = &["send", "recv", "try_recv", "recv_timeout", "try_send"];

/// What a function may do, transitively.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Effects {
    /// Lock class → a witness call chain ("force -> Wal::force_up_to").
    acquires: HashMap<LockClass, String>,
    /// May perform a channel send/recv.
    channel: bool,
    /// May re-enter the protocol engine (acquire `ProtocolStage` or call
    /// `ServerEngine::{handle, abort_txn}`).
    enters_engine: bool,
    /// Wire messages (`Enum::Variant` → witness chain) this function may
    /// construct — the send-sites the protocol role check traces.
    sends: HashMap<String, String>,
}

impl Effects {
    /// Merges a callee's effects; `with_sends = false` leaves its wire
    /// sends behind (see the role-exempt owners in `protocol_model`).
    fn absorb(&mut self, other: &Effects, via: &str, with_sends: bool) -> bool {
        let mut changed = false;
        for (&c, w) in &other.acquires {
            if let std::collections::hash_map::Entry::Vacant(e) = self.acquires.entry(c) {
                e.insert(format!("{via} -> {w}"));
                changed = true;
            }
        }
        if with_sends {
            for (path, w) in &other.sends {
                if !self.sends.contains_key(path) {
                    self.sends.insert(path.clone(), format!("{via} -> {w}"));
                    changed = true;
                }
            }
        }
        if other.channel && !self.channel {
            self.channel = true;
            changed = true;
        }
        if other.enters_engine && !self.enters_engine {
            self.enters_engine = true;
            changed = true;
        }
        changed
    }
}

/// A live guard on the tracked stack during body replay.
struct Guard {
    class: LockClass,
    /// Name of the protected struct, when known — lets `g.field` accesses
    /// resolve through the guard.
    inner: Option<String>,
    /// `let`-binding name; `None` for temporaries.
    name: Option<String>,
    /// Brace depth at acquisition (dies when the block closes).
    depth: i32,
    line: u32,
    /// Temporary guard: dies at the next `;` as well.
    temp: bool,
    /// Innermost closure id at the acquisition site (`usize::MAX` if not
    /// inside a closure).
    closure: usize,
}

pub(crate) struct FileUnit {
    pub(crate) file: String,
    pub(crate) toks: Vec<Tok>,
    pub(crate) directives: Vec<crate::lexer::Directive>,
    pub(crate) facts: FileFacts,
}

/// Receiver shapes the resolver understands.
enum Recv {
    This,
    SelfField(String),
    /// Field access through a tracked guard binding: (inner struct, field).
    GuardField(String, String),
    /// A tracked guard binding itself: its inner struct.
    Guard(String),
    /// `x.field.method()` with `x` unresolved.
    Field(String),
    Var(String),
    /// Receiver is a call; the common return-type hint of its candidates.
    CallRet(Option<String>),
    /// `Type::method(...)`.
    Path(String),
    /// Free function call.
    Free,
    Opaque,
}

/// The whole-workspace index the analysis runs over.
pub struct Workspace {
    pub(crate) units: Vec<FileUnit>,
    /// Flat list of (unit index, fn index within unit).
    fns: Vec<(usize, usize)>,
    /// Function name → flat fn ids.
    by_name: HashMap<String, Vec<usize>>,
    /// (owner, name) → flat fn ids.
    pub(crate) by_owner: HashMap<(String, String), Vec<usize>>,
    /// struct name → field → type hint (merged across files).
    fields: HashMap<String, HashMap<String, String>>,
    /// field name → distinct type hints anywhere in the workspace.
    field_hints: HashMap<String, HashSet<String>>,
}

impl Workspace {
    /// Index `(file name, source)` pairs.
    pub fn build(sources: &[(String, String)]) -> Workspace {
        let mut units = Vec::new();
        for (file, src) in sources {
            let (toks, directives) = crate::lexer::lex(src);
            let facts = parse(file, &toks);
            units.push(FileUnit {
                file: file.clone(),
                toks,
                directives,
                facts,
            });
        }
        let mut fns = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_owner: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut fields: HashMap<String, HashMap<String, String>> = HashMap::new();
        let mut field_hints: HashMap<String, HashSet<String>> = HashMap::new();
        for (ui, unit) in units.iter().enumerate() {
            for (fi, f) in unit.facts.fns.iter().enumerate() {
                let id = fns.len();
                fns.push((ui, fi));
                by_name.entry(f.name.clone()).or_default().push(id);
                if let Some(owner) = &f.owner {
                    by_owner
                        .entry((owner.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
            for (s, fs) in &unit.facts.struct_fields {
                let merged = fields.entry(s.clone()).or_default();
                for (name, hint) in fs {
                    merged.insert(name.clone(), hint.clone());
                    field_hints
                        .entry(name.clone())
                        .or_default()
                        .insert(hint.clone());
                }
            }
        }
        Workspace {
            units,
            fns,
            by_name,
            by_owner,
            fields,
            field_hints,
        }
    }

    pub(crate) fn fndef(&self, id: usize) -> &FnDef {
        let (ui, fi) = self.fns[id];
        &self.units[ui].facts.fns[fi]
    }

    pub(crate) fn toks(&self, id: usize) -> &[Tok] {
        let (ui, _) = self.fns[id];
        &self.units[ui].toks
    }

    /// Run the analysis: fixpoint effects, then rule replay plus the
    /// protocol-conformance passes, then directive suppression (which
    /// also reports stale allows). Returns violations sorted by
    /// file/line.
    pub fn check(&self) -> Vec<Violation> {
        let mut effects: Vec<Effects> = vec![Effects::default(); self.fns.len()];
        for _ in 0..24 {
            let mut changed = false;
            for id in 0..self.fns.len() {
                let (e, _) = self.walk(id, &effects);
                if e != effects[id] {
                    effects[id] = e;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut out = Vec::new();
        for id in 0..self.fns.len() {
            let (_, mut v) = self.walk(id, &effects);
            out.append(&mut v);
        }
        let sends: Vec<HashMap<String, String>> = effects.into_iter().map(|e| e.sends).collect();
        out.extend(self.check_protocol(&sends));
        self.suppress(&mut out);
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
        out
    }

    /// Drop violations covered by `fgs-lint: allow(...)` directives or an
    /// `#[allow_lock_order]` attribute on the function — and report any
    /// directive/attribute that suppressed nothing as `unused_allow`
    /// (stale escape hatches rot into blanket immunity otherwise).
    fn suppress(&self, violations: &mut Vec<Violation>) {
        let mut attr_lines: HashMap<&str, Vec<u32>> = HashMap::new();
        for unit in &self.units {
            let mut lines = Vec::new();
            for (i, t) in unit.toks.iter().enumerate() {
                if t.is_ident("allow_lock_order")
                    && i >= 2
                    && unit.toks[i - 1].is_punct('[')
                    && unit.toks[i - 2].is_punct('#')
                {
                    lines.push(t.line);
                }
            }
            attr_lines.insert(unit.file.as_str(), lines);
        }
        // (unit index, directive index) / (unit index, attr line) that
        // suppressed at least one violation.
        let mut used_dirs: HashSet<(usize, usize)> = HashSet::new();
        let mut used_attrs: HashSet<(usize, u32)> = HashSet::new();
        violations.retain(|v| {
            let Some(ui) = self.units.iter().position(|u| u.file == v.file) else {
                return true;
            };
            let unit = &self.units[ui];
            // The function containing the violation, for fn-wide scope.
            let sig = unit
                .facts
                .fns
                .iter()
                .filter(|f| f.sig_line <= v.line)
                .map(|f| f.sig_line)
                .max();
            let fn_wide = |line: u32| sig.is_some_and(|s| line <= s && line + 3 >= s);
            for (di, d) in unit.directives.iter().enumerate() {
                let applies = d.line == v.line || d.line + 1 == v.line || fn_wide(d.line);
                let names = d.rules.iter().any(|r| r == "all" || r == v.rule.name());
                if applies && names {
                    used_dirs.insert((ui, di));
                    return false;
                }
            }
            if v.rule == Rule::LockOrder {
                for &line in &attr_lines[unit.file.as_str()] {
                    if fn_wide(line) || line == v.line || line + 1 == v.line {
                        used_attrs.insert((ui, line));
                        return false;
                    }
                }
            }
            true
        });
        for (ui, unit) in self.units.iter().enumerate() {
            for (di, d) in unit.directives.iter().enumerate() {
                if !used_dirs.contains(&(ui, di)) {
                    violations.push(Violation {
                        rule: Rule::UnusedAllow,
                        file: unit.file.clone(),
                        line: d.line,
                        message: format!(
                            "`fgs-lint: allow({})` suppresses nothing; delete the stale \
                             directive (unused_allow cannot itself be allowed)",
                            d.rules.join(", ")
                        ),
                    });
                }
            }
            for &line in &attr_lines[unit.file.as_str()] {
                if !used_attrs.contains(&(ui, line)) {
                    violations.push(Violation {
                        rule: Rule::UnusedAllow,
                        file: unit.file.clone(),
                        line,
                        message: "`#[allow_lock_order]` suppresses nothing; delete the \
                                  stale attribute"
                            .to_string(),
                    });
                }
            }
        }
    }

    // -- the body walker ----------------------------------------------

    /// Scan one function body, producing its direct+transitive effects and
    /// any rule violations (judged against the current `effects` map).
    fn walk(&self, id: usize, effects: &[Effects]) -> (Effects, Vec<Violation>) {
        let f = self.fndef(id);
        let toks = self.toks(id);
        let (start, end) = f.body;
        let mut own = Effects::default();
        if f.owner.as_deref() == Some("ServerEngine")
            && matches!(f.name.as_str(), "handle" | "abort_txn")
        {
            own.enters_engine = true;
        }
        let mut violations = Vec::new();
        if start >= end {
            return (own, violations);
        }
        let closure_of = closure_ranges(toks, start, end);
        let mut held: Vec<Guard> = Vec::new();
        let mut depth: i32 = 0;
        let mut pending_let: Option<String> = None;
        let mut i = start;
        while i < end {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
                pending_let = None;
                i += 1;
                continue;
            }
            if t.is_punct('}') {
                depth -= 1;
                held.retain(|g| g.depth <= depth);
                pending_let = None;
                i += 1;
                continue;
            }
            if t.is_punct(';') {
                held.retain(|g| !(g.temp && g.depth >= depth));
                pending_let = None;
                i += 1;
                continue;
            }
            if t.is_ident("let") {
                // Only a simple `let [mut] name =` binds a trackable guard.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let (Some(name), Some(eq)) = (toks.get(j), toks.get(j + 1)) {
                    if name.kind == TokKind::Ident && eq.is_punct('=') {
                        pending_let = Some(name.text.clone());
                        i = j + 2;
                        continue;
                    }
                }
                i += 1;
                continue;
            }
            if t.is_ident("drop")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            {
                let name = &toks[i + 2].text;
                held.retain(|g| g.name.as_deref() != Some(name.as_str()));
                i += 4;
                continue;
            }
            // A wire-message construction: record the send effect for the
            // protocol role check (pattern positions are filtered out).
            if t.kind == TokKind::Ident && (t.text == "ServerMsg" || t.text == "Request") {
                if let Some(c) = crate::protocol::construction_at(toks, i) {
                    own.sends
                        .entry(c.path)
                        .or_insert_with(|| format!("{} line {}", callee_desc(f), c.line));
                }
            }
            // Panic-family macro while the engine lock is held: poisoning
            // the ProtocolStage mutex takes the whole server down.
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                if let Some(g) = held.iter().find(|g| g.class == LockClass::ProtocolStage) {
                    violations.push(Violation {
                        rule: Rule::PanicUnderProtocol,
                        file: f.file.clone(),
                        line: t.line,
                        message: format!(
                            "`{}!` while the ProtocolStage guard is live (acquired at \
                             line {}); a panic here poisons the engine lock for every \
                             client",
                            t.text, g.line
                        ),
                    });
                }
            }
            // A call: `ident (` — either `recv.name(...)` or `name(...)`.
            if t.kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && !is_macro(toks, i)
            {
                let name = t.text.clone();
                let line = t.line;
                let is_method = i > start && toks[i - 1].is_punct('.');
                if is_method && name == "lock" {
                    let guards = guard_index(&held);
                    let recv = self.receiver(toks, start, i - 1, f, &guards);
                    let close = i + 2; // `lock()` takes no arguments
                    let named = pending_let.is_some()
                        && toks.get(close + 1).is_some_and(|t| t.is_punct(';'));
                    if let Some((class, inner)) = self.classify_lock(&recv, f) {
                        self.check_acquire(&held, class, line, f, &mut violations);
                        own.acquires
                            .entry(class)
                            .or_insert_with(|| format!("{} line {line}", callee_desc(f)));
                        held.push(Guard {
                            class,
                            inner,
                            name: if named { pending_let.clone() } else { None },
                            depth,
                            line,
                            temp: !named,
                            closure: closure_of[i],
                        });
                    }
                    pending_let = None;
                    i = close + 1;
                    continue;
                }
                // Direct panic or thread-blocking call under the engine
                // lock (transitive panics are deliberately not traced:
                // the engine's own invariant `expect`s run *inside* the
                // stage by design — the rule polices the embedding).
                let panicky = is_method && matches!(name.as_str(), "unwrap" | "expect");
                let blocking = matches!(name.as_str(), "sleep" | "join" | "park");
                if panicky || blocking {
                    if let Some(g) = held.iter().find(|g| g.class == LockClass::ProtocolStage) {
                        violations.push(Violation {
                            rule: Rule::PanicUnderProtocol,
                            file: f.file.clone(),
                            line,
                            message: format!(
                                "`{name}` {} while the ProtocolStage guard is live \
                                 (acquired at line {}); {}",
                                if panicky { "can panic" } else { "blocks" },
                                g.line,
                                if panicky {
                                    "a panic here poisons the engine lock for every client"
                                } else {
                                    "nothing may stall the single-writer protocol stage"
                                }
                            ),
                        });
                    }
                }
                let guards = guard_index(&held);
                let recv = if is_method {
                    self.receiver(toks, start, i - 1, f, &guards)
                } else {
                    self.path_receiver(toks, start, i)
                };
                let (callees, channel) = self.resolve(&recv, &name, f);
                let mut fx = Effects::default();
                for &c in &callees {
                    // A role-exempt owner's sends stay with it: the origin
                    // pass polices its direct constructions, and its
                    // name-resolved delivery graph is exactly what the
                    // exemption distrusts — callers must not inherit it.
                    let callee = self.fndef(c);
                    let exempt = callee
                        .owner
                        .as_deref()
                        .is_some_and(|o| ROLE_EXEMPT_ORIGIN_OWNERS.contains(&o));
                    fx.absorb(&effects[c], &callee_desc(callee), !exempt);
                }
                if channel {
                    fx.channel = true;
                }
                self.check_call(
                    &held,
                    &name,
                    &callees,
                    &fx,
                    line,
                    closure_of[i],
                    f,
                    &mut violations,
                );
                own.absorb(&fx, &name, true);
                i += 1;
                continue;
            }
            i += 1;
        }
        (own, violations)
    }

    fn check_acquire(
        &self,
        held: &[Guard],
        class: LockClass,
        line: u32,
        f: &FnDef,
        out: &mut Vec<Violation>,
    ) {
        for g in held {
            if class.rank() <= g.class.rank() {
                let msg = if class == g.class {
                    format!(
                        "re-entrant acquisition of {class} while already holding it \
                         (acquired at line {}); the workspace mutexes are not re-entrant",
                        g.line
                    )
                } else {
                    format!(
                        "lock order violated: acquired {class} while holding {} \
                         (acquired at line {}); declared order is {}",
                        g.class,
                        g.line,
                        LockClass::order()
                    )
                };
                out.push(Violation {
                    rule: Rule::LockOrder,
                    file: f.file.clone(),
                    line,
                    message: msg,
                });
            }
            if g.class == LockClass::ProtocolStage
                && matches!(
                    class,
                    LockClass::WalInner | LockClass::Disk | LockClass::ConnWriter
                )
            {
                out.push(Violation {
                    rule: Rule::IoUnderProtocol,
                    file: f.file.clone(),
                    line,
                    message: format!(
                        "{class} I/O while the ProtocolStage guard is live (acquired at \
                         line {}); move log/disk/socket work out of the protocol stage",
                        g.line
                    ),
                });
            }
        }
    }

    fn check_call(
        &self,
        held: &[Guard],
        name: &str,
        callees: &[usize],
        fx: &Effects,
        line: u32,
        closure: usize,
        f: &FnDef,
        out: &mut Vec<Violation>,
    ) {
        if held.is_empty() {
            return;
        }
        let callee_label = callees
            .first()
            .map(|&c| callee_desc(self.fndef(c)))
            .unwrap_or_else(|| name.to_string());
        for g in held {
            for (&c, witness) in &fx.acquires {
                if c.rank() <= g.class.rank() {
                    out.push(Violation {
                        rule: Rule::LockOrder,
                        file: f.file.clone(),
                        line,
                        message: format!(
                            "call to `{callee_label}` may acquire {c} (via {witness}) while \
                             holding {} (acquired at line {}); declared order is {}",
                            g.class,
                            g.line,
                            LockClass::order()
                        ),
                    });
                }
            }
            if g.class == LockClass::ProtocolStage {
                let io = fx.acquires.keys().find(|c| {
                    matches!(
                        c,
                        LockClass::WalInner | LockClass::Disk | LockClass::ConnWriter
                    )
                });
                if let Some(c) = io {
                    out.push(Violation {
                        rule: Rule::IoUnderProtocol,
                        file: f.file.clone(),
                        line,
                        message: format!(
                            "call to `{callee_label}` may perform {c} I/O while the \
                             ProtocolStage guard is live (acquired at line {})",
                            g.line
                        ),
                    });
                }
                if fx.channel {
                    out.push(Violation {
                        rule: Rule::IoUnderProtocol,
                        file: f.file.clone(),
                        line,
                        message: format!(
                            "channel operation `{name}` while the ProtocolStage guard is \
                             live (acquired at line {}); sends/receives can block \
                             indefinitely under the engine lock",
                            g.line
                        ),
                    });
                }
            }
            if closure != usize::MAX && g.closure != closure && fx.enters_engine {
                out.push(Violation {
                    rule: Rule::ReentrantClosure,
                    file: f.file.clone(),
                    line,
                    message: format!(
                        "guard on {} (acquired at line {}) is held across a closure that \
                         may re-enter the engine via `{callee_label}`",
                        g.class, g.line
                    ),
                });
            }
        }
    }

    // -- call / receiver resolution ------------------------------------

    /// Resolve a call to candidate workspace functions plus a channel-op
    /// flag.
    fn resolve(&self, recv: &Recv, name: &str, f: &FnDef) -> (Vec<usize>, bool) {
        let hints: Vec<String> = match recv {
            Recv::This => f.owner.iter().cloned().collect(),
            Recv::SelfField(field) => {
                let own = f
                    .owner
                    .as_ref()
                    .and_then(|o| self.fields.get(o))
                    .and_then(|fs| fs.get(field));
                match own {
                    Some(h) => vec![h.clone()],
                    None => self.global_field_hints(field),
                }
            }
            Recv::GuardField(inner, field) => {
                match self.fields.get(inner).and_then(|fs| fs.get(field)) {
                    Some(h) => vec![h.clone()],
                    None => self.global_field_hints(field),
                }
            }
            Recv::Field(field) => self.global_field_hints(field),
            Recv::Var(v) => f.params.get(v).cloned().into_iter().collect(),
            Recv::Guard(inner) => vec![inner.clone()],
            Recv::CallRet(Some(h)) => vec![h.clone()],
            Recv::CallRet(None) => Vec::new(),
            Recv::Path(t) => vec![t.clone()],
            Recv::Free => {
                let ids: Vec<usize> = self
                    .by_name
                    .get(name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&c| self.fndef(c).owner.is_none())
                            .collect()
                    })
                    .unwrap_or_default();
                return (ids, false);
            }
            Recv::Opaque => Vec::new(),
        };
        let mut ids: Vec<usize> = Vec::new();
        for h in &hints {
            if let Some(found) = self.by_owner.get(&(h.clone(), name.to_string())) {
                ids.extend(found);
            }
        }
        if ids.is_empty() {
            // Trait-object hop: a hint mapping to a lock class pulls in
            // every same-named method on owners of that class (e.g.
            // `dyn DiskManager` → {MemDisk, FileDisk}).
            for h in &hints {
                if let Some(class) = LockClass::from_owner_type(h) {
                    for (key, found) in &self.by_owner {
                        if key.1 == name && LockClass::from_owner_type(&key.0) == Some(class) {
                            ids.extend(found);
                        }
                    }
                }
            }
        }
        if CHANNEL_NAMES.contains(&name) {
            // A send/recv not resolving to a workspace method is a channel
            // endpoint operation.
            let chan = ids.is_empty();
            return (ids, chan);
        }
        if ids.is_empty() && hints.is_empty() && !GENERIC_NAMES.contains(&name) {
            // No receiver information at all: fall back to the name-unique
            // union of workspace methods.
            if let Some(found) = self.by_name.get(name) {
                ids.extend(found);
            }
        }
        (ids, false)
    }

    fn global_field_hints(&self, field: &str) -> Vec<String> {
        self.field_hints
            .get(field)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Classify a `.lock()` receiver into a lock class (plus the inner
    /// struct name, for resolving later field accesses through the guard).
    fn classify_lock(&self, recv: &Recv, f: &FnDef) -> Option<(LockClass, Option<String>)> {
        let hint: Option<String> = match recv {
            Recv::SelfField(field) => f
                .owner
                .as_ref()
                .and_then(|o| self.fields.get(o))
                .and_then(|fs| fs.get(field))
                .cloned()
                .or_else(|| unique_class_hint(self.global_field_hints(field))),
            Recv::GuardField(inner, field) => {
                self.fields.get(inner).and_then(|fs| fs.get(field)).cloned()
            }
            Recv::Field(field) => unique_class_hint(self.global_field_hints(field)),
            Recv::Var(v) => f.params.get(v).cloned(),
            Recv::CallRet(h) => h.clone(),
            _ => None,
        };
        if let Some(h) = &hint {
            if let Some(c) = LockClass::from_inner_type(h) {
                return Some((c, Some(h.clone())));
            }
        }
        // Name heuristic: anything called "...shard..." is a pool shard.
        if let Recv::Var(v) | Recv::Field(v) | Recv::SelfField(v) = recv {
            if v.contains("shard") {
                return Some((LockClass::PoolShard, Some("PoolInner".to_string())));
            }
        }
        // Owner fallback: a lock inside a disk manager is the disk lock.
        if let Some(owner) = &f.owner {
            if let Some(c) = LockClass::from_owner_type(owner) {
                return Some((c, None));
            }
        }
        None
    }

    /// Determine the receiver shape of the method call whose `.` sits at
    /// token index `dot`.
    fn receiver(
        &self,
        toks: &[Tok],
        start: usize,
        dot: usize,
        f: &FnDef,
        guards: &HashMap<String, String>,
    ) -> Recv {
        if dot <= start {
            return Recv::Opaque;
        }
        let prev = &toks[dot - 1];
        if prev.is_punct(')') {
            // Receiver is a call: `self.shard(page).lock()`. Find the
            // callee and use its return-type hint.
            let mut d = 0i32;
            let mut j = dot - 1;
            loop {
                if toks[j].is_punct(')') {
                    d += 1;
                } else if toks[j].is_punct('(') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if j == start {
                    return Recv::Opaque;
                }
                j -= 1;
            }
            if j > start && toks[j - 1].kind == TokKind::Ident {
                let m = toks[j - 1].text.clone();
                let inner = if j >= start + 2 && toks[j - 2].is_punct('.') {
                    self.receiver(toks, start, j - 2, f, guards)
                } else {
                    self.path_receiver(toks, start, j - 1)
                };
                let (callees, _) = self.resolve(&inner, &m, f);
                return Recv::CallRet(common_ret(callees.iter().map(|&c| self.fndef(c))));
            }
            return Recv::Opaque;
        }
        if prev.kind != TokKind::Ident {
            return Recv::Opaque;
        }
        let name = prev.text.clone();
        if name == "self" {
            return Recv::This;
        }
        // Is this ident itself reached through a field access (`x.name`)?
        if dot >= start + 3 && toks[dot - 2].is_punct('.') {
            let base = &toks[dot - 3];
            if base.is_ident("self") {
                return Recv::SelfField(name);
            }
            if base.kind == TokKind::Ident {
                if let Some(inner) = guards.get(&base.text) {
                    return Recv::GuardField(inner.clone(), name);
                }
            }
            return Recv::Field(name);
        }
        // A method called on a guard runs on the data it protects.
        if let Some(inner) = guards.get(&name) {
            return Recv::Guard(inner.clone());
        }
        Recv::Var(name)
    }

    /// Receiver shape for a non-method call at ident index `at`: either a
    /// path call `Type::name(...)` / `mod::name(...)` or a free function.
    fn path_receiver(&self, toks: &[Tok], start: usize, at: usize) -> Recv {
        if at >= start + 2 && toks[at - 1].is_punct(':') && toks[at - 2].is_punct(':') {
            if at >= start + 3 && toks[at - 3].kind == TokKind::Ident {
                let seg = &toks[at - 3].text;
                if seg.chars().next().is_some_and(|c| c.is_uppercase()) {
                    return Recv::Path(seg.clone());
                }
            }
            // `std::mem::take`, `crate::foo::bar(...)` — opaque.
            return Recv::Opaque;
        }
        Recv::Free
    }
}

fn guard_index(held: &[Guard]) -> HashMap<String, String> {
    held.iter()
        .filter_map(|g| Some((g.name.clone()?, g.inner.clone()?)))
        .collect()
}

fn unique_class_hint(hints: Vec<String>) -> Option<String> {
    let classy: Vec<String> = hints
        .into_iter()
        .filter(|h| LockClass::from_inner_type(h).is_some())
        .collect();
    match classy.as_slice() {
        [one] => Some(one.clone()),
        _ => None,
    }
}

fn common_ret<'a>(mut defs: impl Iterator<Item = &'a FnDef>) -> Option<String> {
    let first = defs.next()?.ret.clone()?;
    for d in defs {
        if d.ret.as_deref() != Some(first.as_str()) {
            return None;
        }
    }
    Some(first)
}

fn callee_desc(f: &FnDef) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

fn is_macro(toks: &[Tok], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct('!')) || (i > 0 && toks[i - 1].is_punct('!'))
}

/// For every token, the id (start index) of the innermost closure
/// containing it within `[start, end)`, or `usize::MAX`.
fn closure_ranges(toks: &[Tok], start: usize, end: usize) -> Vec<usize> {
    let mut ids = vec![usize::MAX; toks.len()];
    let mut i = start;
    while i < end {
        if toks[i].is_punct('|') && closure_starts(toks, start, i) {
            if let Some(range_end) = closure_end(toks, i, end) {
                for slot in ids.iter_mut().take(range_end).skip(i) {
                    *slot = i;
                }
                // Keep walking *inside* so nested closures overwrite.
            }
        }
        i += 1;
    }
    ids
}

fn closure_starts(toks: &[Tok], start: usize, i: usize) -> bool {
    if i == start {
        return true;
    }
    let prev = &toks[i - 1];
    match prev.kind {
        TokKind::Punct => matches!(
            prev.text.as_bytes()[0],
            b'(' | b',' | b'=' | b'{' | b';' | b'[' | b'&' | b':' | b'>'
        ),
        TokKind::Ident => matches!(prev.text.as_str(), "move" | "return" | "else" | "match"),
        _ => false,
    }
}

/// Token index one past the closure starting at the `|` at `i`.
fn closure_end(toks: &[Tok], i: usize, end: usize) -> Option<usize> {
    // Find the closing `|` of the argument list (at depth 0).
    let mut j = i + 1;
    let mut d = 0i32;
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            d -= 1;
        } else if t.is_punct('|') && d <= 0 {
            break;
        }
        j += 1;
    }
    if j >= end {
        return None;
    }
    j += 1; // past the closing `|`
            // Optional `-> Type` before a braced body.
    if toks.get(j).is_some_and(|t| t.is_punct('-'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct('>'))
    {
        while j < end && !toks[j].is_punct('{') {
            j += 1;
        }
    }
    if toks.get(j).is_some_and(|t| t.is_punct('{')) {
        let mut d = 0i32;
        while j < end {
            if toks[j].is_punct('{') {
                d += 1;
            } else if toks[j].is_punct('}') {
                d -= 1;
                if d == 0 {
                    return Some(j + 1);
                }
            }
            j += 1;
        }
        return Some(end);
    }
    // Expression body: runs to the `,` / `;` at depth 0 or an unmatched
    // closing delimiter.
    let mut d = 0i32;
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            d -= 1;
            if d < 0 {
                return Some(j);
            }
        } else if (t.is_punct(',') || t.is_punct(';')) && d == 0 {
            return Some(j);
        }
        j += 1;
    }
    Some(end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Violation> {
        Workspace::build(&[("t.rs".to_string(), src.to_string())]).check()
    }

    const PRELUDE: &str = r#"
        struct ClientRuntime { outbox: Vec<u64> }
        struct WalInner { buf: Vec<u8> }
        struct Srv { client: Mutex<ClientRuntime>, wal: Mutex<WalInner> }
    "#;

    #[test]
    fn clean_nesting_passes() {
        let src = format!(
            "{PRELUDE}
            impl Srv {{
                fn ok(&self) {{
                    let g = self.client.lock();
                    let w = self.wal.lock();
                    drop(w);
                    drop(g);
                }}
            }}"
        );
        assert!(check(&src).is_empty(), "{:?}", check(&src));
    }

    #[test]
    fn inversion_is_reported_with_the_pair() {
        let src = format!(
            "{PRELUDE}
            impl Srv {{
                fn bad(&self) {{
                    let w = self.wal.lock();
                    let g = self.client.lock();
                    drop(g);
                    drop(w);
                }}
            }}"
        );
        let v = check(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::LockOrder);
        assert!(v[0].message.contains("ClientState"));
        assert!(v[0].message.contains("WalInner"));
    }

    #[test]
    fn transitive_inversion_through_a_call() {
        let src = format!(
            "{PRELUDE}
            impl Srv {{
                fn helper(&self) {{
                    let g = self.client.lock();
                    drop(g);
                }}
                fn bad(&self) {{
                    let w = self.wal.lock();
                    self.helper();
                    drop(w);
                }}
            }}"
        );
        let v = check(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("helper"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = format!(
            "{PRELUDE}
            impl Srv {{
                fn ok(&self) {{
                    let w = self.wal.lock();
                    drop(w);
                    let g = self.client.lock();
                    drop(g);
                }}
            }}"
        );
        assert!(check(&src).is_empty(), "{:?}", check(&src));
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let src = format!(
            "{PRELUDE}
            impl Srv {{
                fn ok(&self) {{
                    {{ let w = self.wal.lock(); }}
                    let g = self.client.lock();
                    drop(g);
                }}
            }}"
        );
        assert!(check(&src).is_empty(), "{:?}", check(&src));
    }

    #[test]
    fn directive_suppresses_the_violation() {
        let src = format!(
            "{PRELUDE}
            impl Srv {{
                fn bad(&self) {{
                    let w = self.wal.lock();
                    // fgs-lint: allow(lock_order)
                    let g = self.client.lock();
                    drop(g);
                    drop(w);
                }}
            }}"
        );
        assert!(check(&src).is_empty(), "{:?}", check(&src));
    }

    #[test]
    fn reentrant_same_class_is_reported() {
        let src = format!(
            "{PRELUDE}
            impl Srv {{
                fn bad(&self) {{
                    let a = self.client.lock();
                    let b = self.client.lock();
                    drop(b);
                    drop(a);
                }}
            }}"
        );
        let v = check(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("re-entrant"));
    }

    #[test]
    fn channel_send_under_protocol_guard() {
        let src = r#"
            struct ProtocolStage { engine: u32 }
            struct Srv { protocol: Mutex<ProtocolStage> }
            impl Srv {
                fn bad(&self, tx: &Sender<u32>) {
                    let g = self.protocol.lock();
                    tx.send(1);
                    drop(g);
                }
            }
        "#;
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::IoUnderProtocol);
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let src = format!(
            "{PRELUDE}
            impl Srv {{
                fn ok(&self) -> usize {{
                    let n = self.wal.lock().buf.len();
                    let g = self.client.lock();
                    drop(g);
                    n
                }}
            }}"
        );
        assert!(check(&src).is_empty(), "{:?}", check(&src));
    }
}
