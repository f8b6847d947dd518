//! The three benchmarked smart APs (Table 1).

use odx_storage::{DeviceKind, FsKind};
use std::fmt;

/// A smart AP's storage device plus the filesystem it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StorageSetup {
    /// The attached/embedded storage device.
    pub device: DeviceKind,
    /// The filesystem formatted on it.
    pub fs: FsKind,
}

/// The smart AP products studied in §5 (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApModel {
    /// HiWiFi 1S: MT7620A @ 580 MHz, 128 MB RAM, SD card slot,
    /// 802.11 b/g/n @ 2.4 GHz. ≈ $20.
    HiWiFi,
    /// MiWiFi: Broadcom 4709 @ 1 GHz, 256 MB RAM, USB 2.0 + internal 1 TB
    /// SATA disk, 802.11 b/g/n/ac @ 2.4/5 GHz. > $100.
    MiWiFi,
    /// Newifi: MT7620A @ 580 MHz, 128 MB RAM, USB 2.0,
    /// 802.11 b/g/n/ac @ 2.4/5 GHz. ≈ $20.
    Newifi,
}

impl ApModel {
    /// The three benchmarked models, in Table 1 order.
    pub const ALL: [ApModel; 3] = [ApModel::HiWiFi, ApModel::MiWiFi, ApModel::Newifi];

    /// Stable lowercase config name (what scenario files write).
    pub fn name(self) -> &'static str {
        match self {
            ApModel::HiWiFi => "hiwifi",
            ApModel::MiWiFi => "miwifi",
            ApModel::Newifi => "newifi",
        }
    }

    /// Parse a config name produced by [`ApModel::name`].
    pub fn parse(name: &str) -> Option<ApModel> {
        ApModel::ALL.into_iter().find(|m| m.name() == name)
    }

    /// CPU clock (MHz) — Table 1.
    pub fn cpu_mhz(self) -> f64 {
        match self {
            ApModel::HiWiFi | ApModel::Newifi => 580.0,
            ApModel::MiWiFi => 1000.0,
        }
    }

    /// RAM (MB) — Table 1.
    pub fn ram_mb(self) -> u32 {
        match self {
            ApModel::HiWiFi | ApModel::Newifi => 128,
            ApModel::MiWiFi => 256,
        }
    }

    /// The storage configuration used in the §5.1 benchmarks: HiWiFi's 8 GB
    /// SD card (FAT — the only format it accepts), MiWiFi's factory-EXT4
    /// 1 TB SATA disk, Newifi's 8 GB NTFS USB flash drive.
    pub fn bench_storage(self) -> StorageSetup {
        match self {
            ApModel::HiWiFi => StorageSetup { device: DeviceKind::SdCard, fs: FsKind::Fat },
            ApModel::MiWiFi => StorageSetup { device: DeviceKind::SataHdd, fs: FsKind::Ext4 },
            ApModel::Newifi => StorageSetup { device: DeviceKind::UsbFlash, fs: FsKind::Ntfs },
        }
    }

    /// Whether the model supports 5 GHz 802.11ac (Table 1).
    pub fn has_80211ac(self) -> bool {
        !matches!(self, ApModel::HiWiFi)
    }

    /// Approximate retail price (USD), for the §2.2 context.
    pub fn price_usd(self) -> f64 {
        match self {
            ApModel::MiWiFi => 110.0,
            _ => 20.0,
        }
    }

    /// Filesystems this AP can actually run on its benchmark device
    /// (HiWiFi only boots FAT SD cards; MiWiFi's disk cannot be
    /// reformatted).
    pub fn allowed_filesystems(self) -> &'static [FsKind] {
        match self {
            ApModel::HiWiFi => &[FsKind::Fat],
            ApModel::MiWiFi => &[FsKind::Ext4],
            ApModel::Newifi => &[FsKind::Fat, FsKind::Ntfs, FsKind::Ext4],
        }
    }
}

impl fmt::Display for ApModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ApModel::HiWiFi => "HiWiFi",
            ApModel::MiWiFi => "MiWiFi",
            ApModel::Newifi => "Newifi",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_hardware() {
        assert_eq!(ApModel::HiWiFi.cpu_mhz(), 580.0);
        assert_eq!(ApModel::MiWiFi.cpu_mhz(), 1000.0);
        assert_eq!(ApModel::Newifi.cpu_mhz(), 580.0);
        assert_eq!(ApModel::MiWiFi.ram_mb(), 256);
        assert_eq!(ApModel::HiWiFi.ram_mb(), 128);
        assert!(!ApModel::HiWiFi.has_80211ac());
        assert!(ApModel::MiWiFi.has_80211ac());
    }

    #[test]
    fn bench_storage_matches_section_5_1() {
        assert_eq!(
            ApModel::HiWiFi.bench_storage(),
            StorageSetup { device: DeviceKind::SdCard, fs: FsKind::Fat }
        );
        assert_eq!(
            ApModel::MiWiFi.bench_storage(),
            StorageSetup { device: DeviceKind::SataHdd, fs: FsKind::Ext4 }
        );
        assert_eq!(
            ApModel::Newifi.bench_storage(),
            StorageSetup { device: DeviceKind::UsbFlash, fs: FsKind::Ntfs }
        );
    }

    #[test]
    fn filesystem_constraints() {
        assert_eq!(ApModel::HiWiFi.allowed_filesystems(), &[FsKind::Fat]);
        assert_eq!(ApModel::MiWiFi.allowed_filesystems(), &[FsKind::Ext4]);
        assert_eq!(ApModel::Newifi.allowed_filesystems().len(), 3);
    }

    #[test]
    fn miwifi_is_the_premium_box() {
        assert!(ApModel::MiWiFi.price_usd() > 5.0 * ApModel::HiWiFi.price_usd());
    }
}
