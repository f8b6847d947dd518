#![warn(missing_docs)]

//! # odx-p2p — data-source substrate: P2P swarms and HTTP/FTP servers
//!
//! 87 % of the files requested from offline-downloading services live in P2P
//! data swarms (68 % BitTorrent, 19 % eMule) and 13 % on HTTP/FTP servers
//! (§3). Both the cloud's pre-downloaders and the smart APs download from
//! these sources with the same tools (aria2/wget on the APs, equivalent
//! machinery in the cloud), so one source model serves both systems.
//!
//! The pieces:
//!
//! * [`SwarmModel`] — seed availability and per-leecher throughput as a
//!   function of a file's weekly request count. Unpopular files often have
//!   dead swarms (no seeds), the direct cause of the paper's Bottleneck 3:
//!   smart APs fail on 42 % of unpopular files, and 86 % of all AP failures
//!   are "insufficient seeds".
//! * [`HttpFtpModel`] — stable servers with higher rates but a failure mode
//!   of their own (no persistent/resumable download), 10 % of AP failures.
//! * [`FailureCause`] — the failure taxonomy of §5.2.
//! * [`multiplier`] — the "bandwidth multiplier effect" of cloud-seeded
//!   swarms (§4.2, refs 64 and 66) plus a LEDBAT-style upload governor; these
//!   justify ODR's redirection of highly popular P2P files to direct
//!   download.
//!
//! ## Calibration
//!
//! All constants live in [`SwarmConfig`] / [`HttpFtpConfig`] and are tuned so
//! that replaying the paper's workload mix reproduces its headline numbers
//! (see `EXPERIMENTS.md`): pre-download speed median/mean ≈ 25–27 / 64–69
//! KBps, unpopular-file failure ≈ 42 % without a cache, overall fresh-attempt
//! failure ≈ 16.4–16.8 %.

mod httpftp;
pub mod multiplier;
mod swarm;

pub use httpftp::{HttpFtpConfig, HttpFtpModel};
pub use swarm::{SwarmConfig, SwarmModel};

/// Why a pre-download attempt failed (§5.2 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// The P2P swarm had no (or too few) seeds and progress stagnated past
    /// the timeout. 86 % of smart-AP failures.
    InsufficientSeeds,
    /// The HTTP/FTP server would not sustain a persistent/resumable
    /// download. 10 % of smart-AP failures.
    PoorConnection,
    /// Firmware/system bug in the downloader. 4 % of smart-AP failures.
    SystemBug,
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureCause::InsufficientSeeds => "insufficient seeds",
            FailureCause::PoorConnection => "poor HTTP/FTP connection",
            FailureCause::SystemBug => "system bug",
        };
        f.write_str(s)
    }
}

/// Outcome of one pre-download attempt from a data source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceOutcome {
    /// The source can serve; steady-state rate in KBps (before any proxy- or
    /// storage-side caps).
    Serving {
        /// Sustained source rate (KBps).
        rate_kbps: f64,
    },
    /// The attempt fails after the stagnation timeout.
    Failed {
        /// The failure cause for the §5.2 taxonomy.
        cause: FailureCause,
    },
}
