#![warn(missing_docs)]

//! # odx-storage — smart-AP storage substrate
//!
//! The paper's fourth bottleneck: *a smart AP's pre-downloading speed can be
//! restricted by its hardware and/or filesystem*, because some storage
//! devices and filesystems "do not fit the pattern of frequent, small data
//! writes during the pre-downloading process" (§5.2, Table 2).
//!
//! The mechanism has two regimes, and this crate models both:
//!
//! * **Kernel filesystems (FAT, EXT4)** — the write path is I/O-bound. Each
//!   (device, filesystem) pair has a *burst service rate* (how fast the
//!   device absorbs the small-write pattern instant by instant) and a
//!   *sustained rate* (long-run, after allocator/journal/flash-GC stalls).
//!   The observed iowait ratio is `achieved_rate / burst_service`.
//! * **NTFS on OpenWrt** — served by the user-space ntfs-3g (FUSE) driver,
//!   so the path is *CPU-bound*: low iowait but a hard throughput ceiling of
//!   `1 / (cpu_cost + device_cost)`. This is why Table 2 shows NTFS with the
//!   *lowest* iowait yet the *worst* throughput.
//!
//! When the storage path is slower than the network offers, the receiver's
//! TCP window (typically 14 608 bytes, §5.2) fills and the sender throttles,
//! so a pre-download runs at `min(network rate, sustained write rate)`.
//!
//! Constants are calibrated to Table 2; `write_model::tests` pins every cell.

mod device;
mod filesystem;
mod write_model;

pub use device::DeviceKind;
pub use filesystem::FsKind;
pub use write_model::{effective_rate_kbps, write_profile, WriteProfile};
