//! The Table 2 sweep: max pre-download speed and iowait per (device,
//! filesystem) pair.
//!
//! The paper replays the top-10 popular requests with no rate restriction,
//! so the ADSL line's 2.37 MBps payload rate is what the source offers and
//! the storage write path decides how much of it survives. The sweep is
//! therefore deterministic given the storage models — the stochastic replay
//! is covered by `odx-backend`'s `SmartApBenchmark`.

use odx_storage::{write_profile, DeviceKind, FsKind};

use crate::ApModel;

/// What the paper observed as the maximum offered payload rate on the
/// 20 Mbps ADSL lines: 2.37 MBps.
pub const MAX_OFFERED_KBPS: f64 = odx_net::ADSL_PAYLOAD_KBPS;

/// One Table 2 cell.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    /// AP whose CPU drives the (possible) FUSE path.
    pub ap: ApModel,
    /// Storage device.
    pub device: DeviceKind,
    /// Filesystem.
    pub fs: FsKind,
    /// Max pre-downloading speed (MBps).
    pub max_speed_mbps: f64,
    /// iowait ratio at that speed.
    pub iowait: f64,
}

/// The (AP, device) rows the paper sweeps: HiWiFi+SD, MiWiFi+SATA, and
/// Newifi with both a USB flash drive and a USB hard disk.
pub fn paper_rows() -> Vec<(ApModel, DeviceKind)> {
    vec![
        (ApModel::HiWiFi, DeviceKind::SdCard),
        (ApModel::MiWiFi, DeviceKind::SataHdd),
        (ApModel::Newifi, DeviceKind::UsbFlash),
        (ApModel::Newifi, DeviceKind::UsbHdd),
    ]
}

/// Compute one cell.
pub fn cell(ap: ApModel, device: DeviceKind, fs: FsKind) -> Table2Row {
    let profile = write_profile(device, fs, ap.cpu_mhz());
    let speed = profile.effective_mbps(MAX_OFFERED_KBPS / 1000.0);
    Table2Row { ap, device, fs, max_speed_mbps: speed, iowait: profile.iowait_at(speed) }
}

/// The full Table 2, restricted (as in the paper) to the filesystems each
/// AP can actually run: HiWiFi only FAT, MiWiFi only EXT4, Newifi all three.
pub fn table2() -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for (ap, device) in paper_rows() {
        for &fs in ap.allowed_filesystems() {
            rows.push(cell(ap, device, fs));
        }
    }
    rows
}

/// The §5.2 recommendation check: the best Newifi setup on USB 2.0 today.
pub fn best_newifi_setup() -> Table2Row {
    [FsKind::Fat, FsKind::Ntfs, FsKind::Ext4]
        .into_iter()
        .flat_map(|fs| {
            [DeviceKind::UsbFlash, DeviceKind::UsbHdd]
                .into_iter()
                .map(move |d| cell(ApModel::Newifi, d, fs))
        })
        .max_by(|a, b| {
            (a.max_speed_mbps, -a.iowait)
                .partial_cmp(&(b.max_speed_mbps, -b.iowait))
                .expect("finite")
        })
        .expect("non-empty sweep")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(rows: &[Table2Row], device: DeviceKind, fs: FsKind) -> &Table2Row {
        rows.iter().find(|r| r.device == device && r.fs == fs).expect("row present")
    }

    #[test]
    fn all_paper_cells_present() {
        let rows = table2();
        // HiWiFi: 1 fs, MiWiFi: 1 fs, Newifi: 3 fs × 2 devices = 6 → 8 rows.
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn headline_cells_match_paper() {
        let rows = table2();
        let close = |a: f64, b: f64, tol: f64| (a - b).abs() / b < tol;
        assert!(close(lookup(&rows, DeviceKind::SdCard, FsKind::Fat).max_speed_mbps, 2.37, 0.01));
        assert!(close(lookup(&rows, DeviceKind::SataHdd, FsKind::Ext4).max_speed_mbps, 2.37, 0.01));
        assert!(close(
            lookup(&rows, DeviceKind::UsbFlash, FsKind::Ntfs).max_speed_mbps,
            0.93,
            0.05
        ));
        assert!(close(lookup(&rows, DeviceKind::UsbHdd, FsKind::Ntfs).max_speed_mbps, 1.13, 0.05));
        assert!(close(lookup(&rows, DeviceKind::UsbFlash, FsKind::Fat).iowait, 0.663, 0.05));
        assert!(close(lookup(&rows, DeviceKind::UsbHdd, FsKind::Ext4).iowait, 0.174, 0.10));
    }

    #[test]
    fn best_newifi_is_usb_hdd_with_a_kernel_fs() {
        // §5.2: "using a USB hard disk drive coupled with the EXT4
        // filesystem seems to be the best fit" for Newifi today.
        let best = best_newifi_setup();
        assert_eq!(best.device, DeviceKind::UsbHdd);
        assert_eq!(best.fs, FsKind::Ext4);
        assert!((best.max_speed_mbps - 2.37).abs() < 0.01);
    }
}
