//! `fgs-lint` — workspace lock-discipline and protocol-conformance lint
//! for the fgs crates.
//!
//! Enforces the declared lock-order DAG
//! (`ClientState -> ProtocolStage -> PoolShard -> WalInner -> Disk -> CompletionState -> PortTable -> ConnWriter`), two
//! guard-hygiene rules (`io_under_protocol`, `reentrant_closure`), and the
//! FGSP protocol-conformance passes (`handler_exhaustiveness`,
//! `illegal_transition`, `panic_under_protocol`, `determinism`,
//! `unused_allow`) with a hand-rolled lexer + shallow parser, so the
//! workspace needs no external proc-macro dependencies. See `analysis`
//! for the model and its deliberate under-approximations, and
//! `protocol_model` for the declarative FGSP state-machine tables.

pub mod analysis;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod protocol;
pub mod protocol_model;

pub use analysis::Workspace;
pub use model::{LockClass, Rule, Violation};

use std::path::{Path, PathBuf};

/// Analyse a set of already-loaded `(name, source)` pairs.
pub fn check_sources(sources: &[(String, String)]) -> Vec<Violation> {
    Workspace::build(sources).check()
}

/// Load and analyse the given files together as one workspace.
pub fn check_files(paths: &[PathBuf]) -> std::io::Result<Vec<Violation>> {
    let mut sources = Vec::new();
    for p in paths {
        let src = std::fs::read_to_string(p)?;
        sources.push((p.display().to_string(), src));
    }
    Ok(check_sources(&sources))
}

/// Discover the lintable workspace: every `.rs` file under
/// `crates/*/src`, excluding the lint crate itself (its fixtures contain
/// deliberate violations) and anything under `target/` or `vendor/`.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(&crates)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() || entry.file_name() == "lint" {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}
