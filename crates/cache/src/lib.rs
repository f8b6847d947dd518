#![warn(missing_docs)]

//! # odx-cache — the pluggable cache-policy subsystem
//!
//! The paper's headline cloud result — ~80 % of requests served "instantly"
//! (§2.1's 89 % pool hit ratio) — is driven almost entirely by the
//! collaborative storage pool's replacement behaviour. This crate pulls
//! that behaviour out of `odx-cloud` into a standalone, comparable layer:
//!
//! * [`CachePolicy`] — the trait every replacement policy implements:
//!   byte-budgeted `lookup` / `insert` / `remove` on the **virtual clock**
//!   (`now_ms` is simulation time, never wall time), fully deterministic in
//!   its call sequence.
//! * [`LruCache`] — the paper's byte-budget LRU over dense keys: a slot
//!   array indexed by the key plus a lazily compacted FIFO of
//!   `(key, stamp)` uses, so a hit neither hashes nor chases pointers.
//! * [`LfuCache`] — LFU with periodic aging: frequencies halve every
//!   virtual day so last week's hits cannot pin stale content forever.
//! * [`GdsfCache`] — Greedy-Dual-Size-Frequency: size-aware priorities
//!   (`L + freq / size`) that prefer keeping many small hot files over one
//!   huge lukewarm one.
//! * [`S3FifoCache`] — S3-FIFO-style admission: a small probationary FIFO,
//!   a main FIFO, and a ghost list; one-hit wonders are evicted before they
//!   ever displace proven content (TinyLFU-style admission control).
//! * [`CacheConfig`] / [`PolicyKind`] — the one value a scenario carries to
//!   name its policy (`repro cache-compare` sweeps [`PolicyKind::ALL`]).
//!
//! ## Determinism contract
//!
//! Every policy is a pure function of its call sequence: no wall clocks, no
//! ambient randomness, no address-dependent iteration (the only hash maps
//! are [`odx_sim::FxHashMap`]s and are never iterated). Ties are broken by
//! insertion sequence numbers. Two same-sequence runs return identical
//! eviction lists in identical order — the property `odx`'s byte-identical
//! sweep exports are built on.

mod gdsf;
mod lfu;
mod lru;
mod policy;
mod s3fifo;

pub use gdsf::GdsfCache;
pub use lfu::LfuCache;
pub use lru::LruCache;
pub use policy::{CacheConfig, CachePolicy, PolicyKind};
pub use s3fifo::S3FifoCache;
