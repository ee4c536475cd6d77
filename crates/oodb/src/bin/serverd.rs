//! `fgs-serverd` — a standalone page server.
//!
//! Serves a fine-grained-sharing page server on a TCP address; remote
//! processes attach with `fgs_oodb::RemoteClient`. The database lives in
//! memory (backed by the WAL machinery exactly like the embedded
//! engine); this binary exists to exercise and demo the wire path, not
//! to be a production daemon.
//!
//! ```text
//! fgs-serverd [--addr HOST:PORT] [--protocol ps|os|ps-oo|ps-oa|ps-aa]
//!             [--clients N] [--db-pages N]
//!             [--objects-per-page N] [--object-size BYTES]
//!             [--page-size BYTES]
//! ```

use fgs_core::Protocol;
use fgs_oodb::{serve_tcp, EngineConfig};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: fgs-serverd [--addr HOST:PORT] [--protocol ps|os|ps-oo|ps-oa|ps-aa]\n\
         \x20                  [--clients N] [--db-pages N]\n\
         \x20                  [--objects-per-page N] [--object-size BYTES]\n\
         \x20                  [--page-size BYTES]"
    );
    exit(2);
}

fn parse_protocol(s: &str) -> Protocol {
    match s.to_ascii_lowercase().as_str() {
        "ps" => Protocol::Ps,
        "os" => Protocol::Os,
        "ps-oo" => Protocol::PsOo,
        "ps-oa" => Protocol::PsOa,
        "ps-aa" => Protocol::PsAa,
        other => {
            eprintln!("fgs-serverd: unknown protocol {other:?}");
            usage();
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> T {
    match s.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("fgs-serverd: bad value {s:?} for {flag}");
            usage();
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:4468".to_string();
    let mut config = EngineConfig {
        n_clients: 16,
        ..EngineConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            usage();
        }
        let Some(value) = args.next() else {
            eprintln!("fgs-serverd: {flag} needs a value");
            usage();
        };
        match flag.as_str() {
            "--addr" => addr = value,
            "--protocol" => config.protocol = parse_protocol(&value),
            "--clients" => config.n_clients = parse_num(&flag, &value),
            "--db-pages" => config.db_pages = parse_num(&flag, &value),
            "--objects-per-page" => config.objects_per_page = parse_num(&flag, &value),
            "--object-size" => config.object_size = parse_num(&flag, &value),
            "--page-size" => config.page_size = parse_num(&flag, &value),
            _ => {
                eprintln!("fgs-serverd: unknown flag {flag:?}");
                usage();
            }
        }
    }
    config.validate();
    let server = match serve_tcp(config, addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fgs-serverd: cannot serve on {addr}: {e}");
            exit(1);
        }
    };
    println!(
        "fgs-serverd: serving {:?} on {} ({} client slots)",
        server.config().protocol,
        server.local_addr(),
        server.config().n_clients,
    );
    // Serve until killed. The handle's Drop checkpoints and tears the
    // pipeline down if we ever get here.
    loop {
        std::thread::park();
    }
}
