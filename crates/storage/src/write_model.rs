//! Effective write throughput and iowait under the pre-download pattern.
//!
//! Pre-downloading produces *frequent, small data writes*: aria2/wget append
//! 16 KiB-ish chunks as pieces arrive, interleaved across files and with
//! per-piece fsync-like metadata updates. Table 2 of the paper measures the
//! resulting maximum pre-download speed and iowait ratio for each (device,
//! filesystem) pair on Newifi (580 MHz), HiWiFi (580 MHz) and MiWiFi (1 GHz).
//!
//! Two regimes:
//!
//! * **Kernel path (FAT/EXT4).** Throughput limit = the pair's *sustained*
//!   small-write rate; `iowait = achieved / burst` where *burst* is the
//!   instantaneous service rate. Flash media sustain much less than they
//!   burst (FTL erase/GC stalls), which is exactly why Newifi's USB flash
//!   caps out at 2.12–2.13 MBps with 55–66 % iowait while the disks cruise
//!   at the full 2.37 MBps network rate.
//! * **FUSE path (NTFS).** Throughput limit = `1 / (cpu_cost + dev_cost)`
//!   with `cpu_cost = K_FUSE / cpu_mhz` — each megabyte must be copied and
//!   processed in user space, so a 580 MHz MIPS core caps around 1 MBps no
//!   matter how fast the device is. The device sees batched sequential
//!   writes, so iowait is *low* — the counter-intuitive Table 2 signature.
//!
//! The burst/sustained constants below are calibrated so every Table 2 cell
//! reproduces within a few percent; the unit tests pin each one.

use crate::{DeviceKind, FsKind};

/// FUSE CPU cost in (MHz · seconds) per megabyte written: at 580 MHz this is
/// 0.73 s/MB of pure CPU work, reproducing Newifi's 0.93–1.13 MBps NTFS caps.
pub const K_FUSE_MHZ_S_PER_MB: f64 = 423.4;

/// A (device, filesystem) pair's write capability under the frequent
/// small-write pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteProfile {
    /// Long-run sustainable write rate (MBps). The pre-download speed is
    /// `min(network rate, sustained)`.
    pub sustained_mbps: f64,
    /// Instantaneous service rate (MBps) used for the iowait ratio.
    pub burst_service_mbps: f64,
    /// Whether this pair goes through the user-space (FUSE) driver.
    pub user_space: bool,
}

impl WriteProfile {
    /// The iowait ratio observed when writing at `achieved_mbps`: the
    /// fraction of wall time the writer sits in I/O wait.
    pub fn iowait_at(&self, achieved_mbps: f64) -> f64 {
        (achieved_mbps / self.burst_service_mbps).clamp(0.0, 1.0)
    }

    /// The achievable pre-download rate (MBps) given the network offers
    /// `network_mbps`.
    pub fn effective_mbps(&self, network_mbps: f64) -> f64 {
        network_mbps.min(self.sustained_mbps)
    }
}

/// Kernel-path calibration table: `(burst, sustained)` MBps per pair.
fn kernel_profile(dev: DeviceKind, fs: FsKind) -> (f64, f64) {
    use DeviceKind::*;
    use FsKind::*;
    match (dev, fs) {
        // HiWiFi's SD card (FAT-only): network-limited, 42.1 % iowait.
        (SdCard, Fat) => (5.63, 4.50),
        (SdCard, Ext4) => (6.00, 4.80),
        // Newifi's USB flash: the Bottleneck 4 poster child.
        (UsbFlash, Fat) => (3.20, 2.12),
        (UsbFlash, Ext4) => (3.87, 2.13),
        // MiWiFi's SATA disk: comfortable headroom (29.7 % iowait).
        (SataHdd, Fat) => (7.00, 5.50),
        (SataHdd, Ext4) => (7.98, 6.50),
        // The Table 2 USB hard disk.
        (UsbHdd, Fat) => (5.64, 4.50),
        (UsbHdd, Ext4) => (13.60, 8.00),
        (_, Ntfs) => unreachable!("NTFS uses the FUSE path"),
    }
}

/// The write profile for a (device, filesystem) pair on an AP with the given
/// CPU clock.
pub fn write_profile(dev: DeviceKind, fs: FsKind, cpu_mhz: f64) -> WriteProfile {
    assert!(cpu_mhz > 0.0, "cpu_mhz must be positive");
    if fs.is_user_space() {
        // CPU copy/translate cost plus the device's share, in s/MB.
        let cpu_cost = K_FUSE_MHZ_S_PER_MB / cpu_mhz;
        let dev_cost = 1.0 / kernel_profile(dev, FsKind::Fat).0;
        WriteProfile {
            sustained_mbps: 1.0 / (cpu_cost + dev_cost),
            burst_service_mbps: dev.fuse_seq_service_mbps(),
            user_space: true,
        }
    } else {
        let (burst, sustained) = kernel_profile(dev, fs);
        WriteProfile { sustained_mbps: sustained, burst_service_mbps: burst, user_space: false }
    }
}

/// Convenience: the effective pre-download rate in **KBps** for a network
/// offer in KBps (the unit the rest of the workspace uses).
pub fn effective_rate_kbps(dev: DeviceKind, fs: FsKind, cpu_mhz: f64, network_kbps: f64) -> f64 {
    write_profile(dev, fs, cpu_mhz).effective_mbps(network_kbps / 1000.0) * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §5.2 replay offered the full ADSL rate: 2.37 MBps.
    const NET: f64 = 2.37;
    /// Newifi's and HiWiFi's CPU clock.
    const MHZ_580: f64 = 580.0;
    /// MiWiFi's CPU clock.
    const MHZ_1000: f64 = 1000.0;

    fn check(dev: DeviceKind, fs: FsKind, mhz: f64, want_rate: f64, want_iowait: f64) {
        let p = write_profile(dev, fs, mhz);
        let rate = p.effective_mbps(NET);
        let iowait = p.iowait_at(rate);
        assert!(
            (rate - want_rate).abs() / want_rate < 0.05,
            "{dev} {fs}: rate {rate:.3} vs Table 2 {want_rate}"
        );
        assert!(
            (iowait - want_iowait).abs() < 0.02,
            "{dev} {fs}: iowait {iowait:.3} vs Table 2 {want_iowait}"
        );
    }

    #[test]
    fn table2_hiwifi_sd_fat() {
        check(DeviceKind::SdCard, FsKind::Fat, MHZ_580, 2.37, 0.421);
    }

    #[test]
    fn table2_miwifi_sata_ext4() {
        check(DeviceKind::SataHdd, FsKind::Ext4, MHZ_1000, 2.37, 0.297);
    }

    #[test]
    fn table2_newifi_flash_fat() {
        check(DeviceKind::UsbFlash, FsKind::Fat, MHZ_580, 2.12, 0.663);
    }

    #[test]
    fn table2_newifi_flash_ntfs() {
        check(DeviceKind::UsbFlash, FsKind::Ntfs, MHZ_580, 0.93, 0.151);
    }

    #[test]
    fn table2_newifi_flash_ext4() {
        check(DeviceKind::UsbFlash, FsKind::Ext4, MHZ_580, 2.13, 0.55);
    }

    #[test]
    fn table2_newifi_usbhdd_fat() {
        check(DeviceKind::UsbHdd, FsKind::Fat, MHZ_580, 2.37, 0.42);
    }

    #[test]
    fn table2_newifi_usbhdd_ntfs() {
        check(DeviceKind::UsbHdd, FsKind::Ntfs, MHZ_580, 1.13, 0.098);
    }

    #[test]
    fn table2_newifi_usbhdd_ext4() {
        check(DeviceKind::UsbHdd, FsKind::Ext4, MHZ_580, 2.37, 0.174);
    }

    #[test]
    fn ntfs_signature_low_iowait_low_throughput() {
        // The Table 2 paradox: NTFS has the lowest iowait *and* the lowest
        // throughput of any filesystem on the same device.
        for dev in [DeviceKind::UsbFlash, DeviceKind::UsbHdd] {
            let ntfs = write_profile(dev, FsKind::Ntfs, MHZ_580);
            let fat = write_profile(dev, FsKind::Fat, MHZ_580);
            let r_ntfs = ntfs.effective_mbps(NET);
            let r_fat = fat.effective_mbps(NET);
            assert!(r_ntfs < r_fat, "{dev}: NTFS {r_ntfs} should be slower than FAT {r_fat}");
            assert!(ntfs.iowait_at(r_ntfs) < fat.iowait_at(r_fat), "{dev}: NTFS iowait lower");
        }
    }

    #[test]
    fn faster_cpu_lifts_the_fuse_ceiling() {
        let slow = write_profile(DeviceKind::UsbFlash, FsKind::Ntfs, 580.0);
        let fast = write_profile(DeviceKind::UsbFlash, FsKind::Ntfs, 1200.0);
        assert!(fast.sustained_mbps > slow.sustained_mbps * 1.3);
    }

    #[test]
    fn slow_network_is_never_storage_limited() {
        // At typical swarm rates (tens of KBps) storage never binds — which
        // is why Bottleneck 4 only shows up on fast (popular-file) downloads.
        let rate = effective_rate_kbps(DeviceKind::UsbFlash, FsKind::Ntfs, MHZ_580, 64.0);
        assert!((rate - 64.0).abs() < 1e-9);
    }

    #[test]
    fn effective_rate_kbps_unit_round_trip() {
        let r = effective_rate_kbps(DeviceKind::UsbFlash, FsKind::Fat, MHZ_580, 2500.0);
        assert!((r - 2120.0).abs() / 2120.0 < 0.01, "{r}");
    }

    #[test]
    fn iowait_clamped_to_unit_interval() {
        let p = write_profile(DeviceKind::UsbFlash, FsKind::Fat, MHZ_580);
        assert_eq!(p.iowait_at(1e9), 1.0);
        assert_eq!(p.iowait_at(0.0), 0.0);
    }
}
