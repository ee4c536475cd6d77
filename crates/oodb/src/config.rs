//! Engine configuration.

use crate::chaos::ChaosConfig;
use crate::transport::TransportKind;
use fgs_core::Protocol;

/// Configuration for an embedded page-server database.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which granularity protocol to run (the paper's five schemes).
    pub protocol: Protocol,
    /// Database size in pages.
    pub db_pages: u32,
    /// Fixed objects per page (at most 64, as in the protocol engines).
    pub objects_per_page: u16,
    /// Initial object size in bytes (objects may grow up to page capacity).
    pub object_size: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Number of client workstations (sessions).
    pub n_clients: u16,
    /// Per-client cache size in pages (objects × `objects_per_page` for
    /// the object server, as in the paper's model).
    pub client_cache_pages: usize,
    /// Server buffer pool size in pages.
    pub server_pool_pages: usize,
    /// Run the server engine's internal invariant checks after every
    /// request even in release builds (always on under
    /// `debug_assertions`). Expensive; for stress tests.
    pub paranoid: bool,
    /// How client runtimes reach the server: in-process channels (the
    /// default) or loopback TCP through the binary frame codec. The
    /// default honors the `FGS_TRANSPORT` environment variable (see
    /// [`TransportKind::from_env`]), which is how the test suites run
    /// unmodified over both backends.
    pub transport: TransportKind,
    /// Transaction-id epoch, folded into the top bits of every sequence
    /// number handed to clients. Bump it each time a server is restarted
    /// over a recovered disk so post-restart transactions can never
    /// collide with `TxnId`s already in the write-ahead log.
    pub txn_epoch: u16,
    /// Seeded message-level fault injection (delays, drops, connection
    /// resets) on the server→client ports, plus the TCP transport's
    /// client→server path. `None` (the default) injects nothing.
    pub chaos: Option<ChaosConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            protocol: Protocol::PsAa,
            db_pages: 64,
            objects_per_page: 8,
            object_size: 64,
            page_size: 4096,
            n_clients: 4,
            client_cache_pages: 16,
            server_pool_pages: 32,
            paranoid: false,
            transport: TransportKind::from_env(),
            txn_epoch: 0,
            chaos: None,
        }
    }
}

impl EngineConfig {
    /// Sanity checks; panics with a message on a malformed configuration.
    pub fn validate(&self) {
        assert!(self.db_pages > 0);
        assert!((1..=64).contains(&self.objects_per_page));
        assert!(self.n_clients > 0);
        assert!(self.client_cache_pages > 0 && self.server_pool_pages > 0);
        assert!(self.page_size >= 64);
        // All objects must fit a fresh page alongside the directory.
        let payload = (self.object_size + 1 + 4) * self.objects_per_page as usize;
        assert!(
            payload + 8 <= self.page_size,
            "{} objects of {} bytes do not fit a {}-byte page",
            self.objects_per_page,
            self.object_size,
            self.page_size
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        EngineConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn oversized_objects_rejected() {
        EngineConfig {
            object_size: 4096,
            ..EngineConfig::default()
        }
        .validate();
    }
}
