//! Storage device models (§5.1 hardware).

use std::fmt;

/// The storage devices used by the three benchmarked smart APs, plus the USB
/// hard disk used in the Table 2 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// HiWiFi's embedded 8 GB SD card (max write/read 15/30 MBps).
    SdCard,
    /// Newifi's external 8 GB USB 2.0 flash drive (max write/read 10/20 MBps).
    UsbFlash,
    /// MiWiFi's internal 1 TB 5400 RPM SATA disk (max write/read 30/70 MBps).
    SataHdd,
    /// The 5400 RPM USB hard disk from the Table 2 sweep (max write/read
    /// 10/25 MBps).
    UsbHdd,
}

impl DeviceKind {
    /// All device kinds, in Table 2 order.
    pub const ALL: [DeviceKind; 4] =
        [DeviceKind::SdCard, DeviceKind::UsbFlash, DeviceKind::SataHdd, DeviceKind::UsbHdd];

    /// Stable lowercase config name (what scenario files write).
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::SdCard => "sd-card",
            DeviceKind::UsbFlash => "usb-flash",
            DeviceKind::SataHdd => "sata-hdd",
            DeviceKind::UsbHdd => "usb-hdd",
        }
    }

    /// Parse a config name produced by [`DeviceKind::name`].
    pub fn parse(name: &str) -> Option<DeviceKind> {
        DeviceKind::ALL.into_iter().find(|d| d.name() == name)
    }

    /// Spec-sheet maximum sequential read speed (MBps).
    pub fn max_read_mbps(self) -> f64 {
        match self {
            DeviceKind::SdCard => 30.0,
            DeviceKind::UsbFlash => 20.0,
            DeviceKind::SataHdd => 70.0,
            DeviceKind::UsbHdd => 25.0,
        }
    }

    /// Effective *sequential* service rate under the FUSE write path (MBps):
    /// ntfs-3g batches small writes into larger sequential ones, so the
    /// device sees an easier pattern than the kernel small-write path.
    /// Calibrated to Table 2's NTFS iowait rows (15.1 % flash, 9.8 % USB HDD).
    pub fn fuse_seq_service_mbps(self) -> f64 {
        match self {
            DeviceKind::SdCard => 6.5,
            DeviceKind::UsbFlash => 6.0,
            DeviceKind::SataHdd => 20.0,
            DeviceKind::UsbHdd => 11.5,
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::SdCard => "SD card",
            DeviceKind::UsbFlash => "USB flash drive",
            DeviceKind::SataHdd => "SATA hard disk drive",
            DeviceKind::UsbHdd => "USB hard disk drive",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_sheet_matches_section_5_1() {
        assert_eq!(DeviceKind::SdCard.max_read_mbps(), 30.0);
        assert_eq!(DeviceKind::UsbHdd.max_read_mbps(), 25.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceKind::UsbFlash.to_string(), "USB flash drive");
    }
}
