//! The `fgs-lint` binary.
//!
//! Usage:
//!
//! ```text
//! cargo run -p fgs-lint                # lint the whole workspace
//! cargo run -p fgs-lint -- FILE...    # lint specific files together
//! cargo run -p fgs-lint -- --root DIR # lint crates/*/src under DIR
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("fgs-lint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: fgs-lint [--root DIR] [FILE...]");
                return ExitCode::SUCCESS;
            }
            _ => files.push(PathBuf::from(a)),
        }
    }
    if files.is_empty() {
        // Default: the workspace this binary was built from.
        let root = root.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
        });
        files = match fgs_lint::workspace_files(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("fgs-lint: scanning {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
    }
    let violations = match fgs_lint::check_files(&files) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fgs-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if violations.is_empty() {
        eprintln!(
            "fgs-lint: {} file(s) clean (lock order {}; \
             protocol passes: illegal_transition, panic_under_protocol)",
            files.len(),
            fgs_lint::model::LockClass::order()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        eprintln!("fgs-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
