//! A mechanistic, piece-level BitTorrent swarm micro-simulator.
//!
//! [`crate::SwarmModel`] is *statistical*: it maps popularity directly to
//! availability and per-leecher throughput, calibrated to the paper. This
//! module is the *mechanistic* counterpart — pieces, rarest-first selection,
//! tit-for-tat choking with optimistic unchoke, seeds and leechers with
//! asymmetric up/down capacities — used to validate the statistical model's
//! shape assumptions:
//!
//! * per-leecher throughput grows with the seed population but saturates at
//!   the leecher's own download capacity (the bandwidth-multiplier effect
//!   ODR relies on for highly popular files);
//! * a swarm without seeds and without full piece coverage stalls — the
//!   "insufficient seeds" failure behind Bottleneck 3;
//! * tit-for-tat forces a downloading peer to upload, producing total
//!   traffic well above the file size (§4.1's 196 %).
//!
//! The simulation is round-based (one choke interval per round, as in the
//! BitTorrent spec's 10-second rechoke) and deterministic in its RNG.

use odx_stats::dist::u01;
use rand::Rng;

/// A compact bitset over piece indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PieceSet {
    bits: Vec<u64>,
    len: usize,
    count: usize,
}

impl PieceSet {
    /// An empty set over `len` pieces.
    pub fn empty(len: usize) -> Self {
        PieceSet { bits: vec![0; len.div_ceil(64)], len, count: 0 }
    }

    /// A full set over `len` pieces.
    pub fn full(len: usize) -> Self {
        let mut s = PieceSet::empty(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    /// Number of pieces in the set.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Total pieces in the torrent.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no piece is held.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether every piece is held.
    pub fn is_complete(&self) -> bool {
        self.count == self.len
    }

    /// Membership test.
    pub fn contains(&self, piece: usize) -> bool {
        debug_assert!(piece < self.len);
        self.bits[piece / 64] & (1 << (piece % 64)) != 0
    }

    /// Insert a piece; returns whether it was new.
    pub fn insert(&mut self, piece: usize) -> bool {
        debug_assert!(piece < self.len);
        let word = &mut self.bits[piece / 64];
        let mask = 1 << (piece % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Iterate over held pieces.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.contains(i))
    }
}

/// Swarm configuration.
#[derive(Debug, Clone, Copy)]
pub struct PieceSimConfig {
    /// Number of pieces in the file.
    pub pieces: usize,
    /// Piece size in KB (BitTorrent commonly 256 KB–1 MB).
    pub piece_kb: f64,
    /// Initial seeds (hold everything).
    pub seeds: usize,
    /// Leechers beside the observer (start empty).
    pub leechers: usize,
    /// Seed upload capacity (KBps).
    pub seed_upload_kbps: f64,
    /// Leecher upload capacity (KBps) — tit-for-tat currency.
    pub leecher_upload_kbps: f64,
    /// Leecher download cap (KBps) — the access link.
    pub leecher_download_kbps: f64,
    /// Unchoke slots per peer (the classic 4 + 1 optimistic).
    pub unchoke_slots: usize,
    /// Choke-interval length (seconds per round).
    pub round_secs: f64,
    /// Per-round probability that a seed departs (churn).
    pub seed_departure_prob: f64,
    /// Give up after this many rounds without the observer completing.
    pub max_rounds: usize,
}

impl Default for PieceSimConfig {
    fn default() -> Self {
        PieceSimConfig {
            pieces: 256,
            piece_kb: 512.0,
            seeds: 3,
            leechers: 8,
            seed_upload_kbps: 64.0,
            leecher_upload_kbps: 48.0,
            leecher_download_kbps: 400.0,
            unchoke_slots: 4,
            round_secs: 10.0,
            seed_departure_prob: 0.0,
            max_rounds: 20_000,
        }
    }
}

/// What happened to the observer leecher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PieceSimOutcome {
    /// Whether the observer completed the file.
    pub completed: bool,
    /// Wall-clock seconds until completion (or until the give-up horizon).
    pub elapsed_secs: f64,
    /// The observer's average download rate (KBps) over the elapsed time.
    pub download_kbps: f64,
    /// Bytes the observer uploaded to others (KB) — tit-for-tat overhead.
    pub uploaded_kb: f64,
    /// Bytes the observer downloaded (KB).
    pub downloaded_kb: f64,
    /// Rounds the observer spent with zero progress at the end (stagnation
    /// detector input).
    pub trailing_stalled_rounds: usize,
}

struct Peer {
    have: PieceSet,
    is_seed: bool,
    departed: bool,
    upload_kbps: f64,
    download_kbps: f64,
    /// KB received from each other peer in the last round (reciprocity).
    credit: Vec<f64>,
    /// In-flight KB from each uploader, not yet a whole piece (a pair's
    /// per-round budget is usually smaller than one piece, so progress
    /// carries across rounds like a real pipelined request queue).
    pending: Vec<f64>,
    downloaded_kb: f64,
    uploaded_kb: f64,
}

/// Run one swarm simulation; index 0 is the observer leecher.
pub fn simulate(cfg: &PieceSimConfig, rng: &mut dyn Rng) -> PieceSimOutcome {
    assert!(cfg.pieces > 0 && cfg.piece_kb > 0.0, "non-empty file required");
    let n = 1 + cfg.leechers + cfg.seeds;
    let mut peers: Vec<Peer> = (0..n)
        .map(|i| {
            let is_seed = i > cfg.leechers;
            Peer {
                have: if is_seed {
                    PieceSet::full(cfg.pieces)
                } else {
                    PieceSet::empty(cfg.pieces)
                },
                is_seed,
                departed: false,
                upload_kbps: if is_seed { cfg.seed_upload_kbps } else { cfg.leecher_upload_kbps },
                download_kbps: cfg.leecher_download_kbps,
                credit: vec![0.0; n],
                pending: vec![0.0; n],
                downloaded_kb: 0.0,
                uploaded_kb: 0.0,
            }
        })
        .collect();

    let file_kb = cfg.pieces as f64 * cfg.piece_kb;
    let mut rounds = 0usize;
    let mut stalled = 0usize;
    let mut optimistic_rotor = 0usize;

    while rounds < cfg.max_rounds && !peers[0].have.is_complete() {
        rounds += 1;

        // Seed churn.
        for p in peers.iter_mut().filter(|p| p.is_seed && !p.departed) {
            if u01(rng) < cfg.seed_departure_prob {
                p.departed = true;
            }
        }

        // Piece availability across present peers (for rarest-first).
        let mut availability = vec![0u32; cfg.pieces];
        for p in peers.iter().filter(|p| !p.departed) {
            for piece in p.have.iter() {
                availability[piece] += 1;
            }
        }

        // Each present peer unchokes its best reciprocators + one optimistic.
        optimistic_rotor = optimistic_rotor.wrapping_add(1);
        let mut transfers: Vec<(usize, usize, f64)> = Vec::new(); // (from, to, kb)
        for u in 0..n {
            if peers[u].departed {
                continue;
            }
            // Interested peers: present, not complete, missing something we have.
            let mut interested: Vec<usize> = (0..n)
                .filter(|&d| {
                    d != u
                        && !peers[d].departed
                        && !peers[d].have.is_complete()
                        && peers[u].have.iter().any(|p| !peers[d].have.contains(p))
                })
                .collect();
            if interested.is_empty() {
                continue;
            }
            // Tit-for-tat: seeds rotate; leechers rank by received credit.
            if peers[u].is_seed {
                interested.sort_unstable();
                let rot = optimistic_rotor % interested.len();
                interested.rotate_left(rot);
            } else {
                interested.sort_by(|&a, &b| {
                    peers[u].credit[b].partial_cmp(&peers[u].credit[a]).expect("finite")
                });
            }
            let mut unchoked: Vec<usize> =
                interested.iter().copied().take(cfg.unchoke_slots).collect();
            // Optimistic unchoke: one extra rotating peer.
            if interested.len() > unchoked.len() {
                let extra = interested[(optimistic_rotor + u) % interested.len()];
                if !unchoked.contains(&extra) {
                    unchoked.push(extra);
                }
            }
            let share = peers[u].upload_kbps * cfg.round_secs / unchoked.len() as f64;
            for d in unchoked {
                transfers.push((u, d, share));
            }
        }

        // Apply transfers: receiver-side download caps, rarest-first piece
        // completion with per-pair carryover (a pair's per-round budget is
        // typically a fraction of a piece).
        let mut progress = false;
        let mut received = vec![0.0f64; n];
        for (u, d, kb) in transfers {
            let cap = peers[d].download_kbps * cfg.round_secs - received[d];
            let kb = kb.min(cap.max(0.0));
            if kb <= 0.0 {
                continue;
            }
            peers[d].downloaded_kb += kb;
            peers[u].uploaded_kb += kb;
            peers[d].credit[u] += kb;
            peers[d].pending[u] += kb;
            received[d] += kb;
            progress = true;
            // Complete as many whole pieces as the accumulated in-flight
            // bytes from this uploader cover.
            while peers[d].pending[u] >= cfg.piece_kb && !peers[d].have.is_complete() {
                let want = peers[u]
                    .have
                    .iter()
                    .filter(|&p| !peers[d].have.contains(p))
                    .min_by_key(|&p| availability[p]);
                let Some(piece) = want else {
                    // Nothing useful left from this uploader; drop the
                    // surplus (wasted duplicate bytes).
                    peers[d].pending[u] = 0.0;
                    break;
                };
                peers[d].pending[u] -= cfg.piece_kb;
                peers[d].have.insert(piece);
                availability[piece] += 1;
            }
        }

        // Decay reciprocity so rankings track recent behaviour.
        for p in peers.iter_mut() {
            for c in p.credit.iter_mut() {
                *c *= 0.5;
            }
        }

        if received[0] > 0.0 {
            stalled = 0;
        } else {
            stalled += 1;
        }
        // Global stall: if no bytes moved this round and the remaining
        // peers do not jointly cover every piece, the swarm is dead and no
        // later round can differ — stop early.
        if !progress && availability.contains(&0) {
            break;
        }
    }

    let observer = &peers[0];
    let elapsed = rounds as f64 * cfg.round_secs;
    PieceSimOutcome {
        completed: observer.have.is_complete(),
        elapsed_secs: elapsed,
        download_kbps: if elapsed > 0.0 { observer.downloaded_kb / elapsed } else { 0.0 },
        uploaded_kb: observer.uploaded_kb,
        downloaded_kb: observer.downloaded_kb,
        trailing_stalled_rounds: stalled,
    }
    .normalized(file_kb)
}

impl PieceSimOutcome {
    fn normalized(self, _file_kb: f64) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(cfg: &PieceSimConfig, seed: u64) -> PieceSimOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        simulate(cfg, &mut rng)
    }

    #[test]
    fn pieceset_basics() {
        let mut s = PieceSet::empty(100);
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.count(), 1);
        assert_eq!(PieceSet::full(100).count(), 100);
        assert!(PieceSet::full(100).is_complete());
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn healthy_swarm_completes() {
        let out = run(&PieceSimConfig::default(), 1);
        assert!(out.completed, "{out:?}");
        assert!(out.download_kbps > 10.0, "{out:?}");
    }

    #[test]
    fn throughput_grows_with_seeds_then_saturates() {
        // The statistical model's core assumption, and the basis for ODR's
        // direct-download redirection: more seeds → faster, until the
        // observer's own access link binds.
        let rate_with = |seeds: usize| {
            let cfg = PieceSimConfig { seeds, ..PieceSimConfig::default() };
            run(&cfg, 2).download_kbps
        };
        let r1 = rate_with(1);
        let r4 = rate_with(4);
        let r16 = rate_with(16);
        let r64 = rate_with(64);
        assert!(r4 > r1, "{r1} {r4}");
        assert!(r16 > r4, "{r4} {r16}");
        // Saturation: the last doubling gains far less than the first.
        assert!(r64 <= PieceSimConfig::default().leecher_download_kbps * 1.01);
        assert!(r64 - r16 < r16 - r1, "saturating: {r1} {r4} {r16} {r64}");
    }

    #[test]
    fn seedless_incomplete_swarm_stalls() {
        let cfg = PieceSimConfig { seeds: 0, leechers: 6, max_rounds: 400, ..Default::default() };
        let out = run(&cfg, 3);
        assert!(!out.completed, "{out:?}");
        assert!(out.download_kbps < 1.0);
    }

    #[test]
    fn seed_churn_can_kill_a_download() {
        // With one flaky seed the observer often stalls partway — the
        // mechanism behind the paper's 1-hour stagnation timeouts.
        let cfg = PieceSimConfig {
            seeds: 1,
            leechers: 4,
            seed_departure_prob: 0.05,
            max_rounds: 2_000,
            ..Default::default()
        };
        let failures = (0..20).filter(|&i| !run(&cfg, 100 + i).completed).count();
        assert!(failures >= 5, "churny single-seed swarms should often fail: {failures}/20");
    }

    #[test]
    fn tit_for_tat_produces_upload_overhead() {
        let cfg = PieceSimConfig::default();
        let out = run(&cfg, 5);
        assert!(out.completed);
        let file_kb = cfg.pieces as f64 * cfg.piece_kb;
        // Total traffic (up + down) relative to the file size: the §4.1
        // overhead factor as this peer sees it.
        let factor = (out.downloaded_kb + out.uploaded_kb) / file_kb;
        // §4.1: P2P traffic is 150–250 % of the file size. The exact value
        // depends on swarm shape; the mechanism must at least force
        // meaningful upload.
        assert!(factor > 1.2, "observer must upload while downloading: {factor}");
        assert!(out.uploaded_kb > 0.2 * file_kb, "{out:?}");
    }

    #[test]
    fn leechers_help_distribute_popular_content() {
        // Fixing one seed, adding leechers must not collapse per-peer
        // throughput proportionally — peers exchange pieces among
        // themselves (the multiplier effect).
        let rate_with = |leechers: usize| {
            let cfg = PieceSimConfig { seeds: 1, leechers, ..PieceSimConfig::default() };
            run(&cfg, 6).download_kbps
        };
        let few = rate_with(2);
        let many = rate_with(16);
        assert!(
            many > few / 4.0,
            "9x the leechers should not mean anywhere near 9x slower: {few} vs {many}"
        );
    }

    #[test]
    fn deterministic_in_the_seed() {
        let cfg = PieceSimConfig { seed_departure_prob: 0.02, ..Default::default() };
        assert_eq!(run(&cfg, 7), run(&cfg, 7));
    }

    #[test]
    fn observer_rate_matches_statistical_model_order_of_magnitude() {
        // Cross-validation: a modest swarm (what an unpopular-but-alive
        // file looks like) should land in the tens-of-KBps regime the
        // statistical SwarmModel emits for such files.
        let cfg = PieceSimConfig {
            seeds: 1,
            leechers: 3,
            seed_upload_kbps: 48.0,
            leecher_upload_kbps: 24.0,
            ..Default::default()
        };
        let out = run(&cfg, 8);
        assert!(out.completed);
        assert!(
            (5.0..120.0).contains(&out.download_kbps),
            "tens of KBps expected: {}",
            out.download_kbps
        );
    }
}
