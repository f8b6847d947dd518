//! Filesystem write-path models.

use std::fmt;

/// The filesystems in the Table 2 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// FAT/FAT32 — the only format HiWiFi accepts for its SD card.
    Fat,
    /// NTFS — served on OpenWrt by the user-space ntfs-3g (FUSE) driver;
    /// CPU-bound, the paper's "incompatibility between NTFS and OpenWrt".
    Ntfs,
    /// EXT4 — OpenWrt's native filesystem; MiWiFi's disk ships as EXT4 and
    /// cannot be reformatted.
    Ext4,
}

impl FsKind {
    /// All filesystems, in Table 2 column order.
    pub const ALL: [FsKind; 3] = [FsKind::Fat, FsKind::Ntfs, FsKind::Ext4];

    /// Stable lowercase config name (what scenario files write).
    pub fn name(self) -> &'static str {
        match self {
            FsKind::Fat => "fat",
            FsKind::Ntfs => "ntfs",
            FsKind::Ext4 => "ext4",
        }
    }

    /// Parse a config name produced by [`FsKind::name`].
    pub fn parse(name: &str) -> Option<FsKind> {
        FsKind::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Whether the OpenWrt write path goes through a user-space (FUSE)
    /// driver rather than a kernel driver.
    pub fn is_user_space(self) -> bool {
        matches!(self, FsKind::Ntfs)
    }
}

impl fmt::Display for FsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FsKind::Fat => "FAT",
            FsKind::Ntfs => "NTFS",
            FsKind::Ext4 => "EXT4",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_ntfs_is_user_space() {
        assert!(FsKind::Ntfs.is_user_space());
        assert!(!FsKind::Fat.is_user_space());
        assert!(!FsKind::Ext4.is_user_space());
    }

    #[test]
    fn display_names() {
        assert_eq!(FsKind::Fat.to_string(), "FAT");
        assert_eq!(FsKind::Ntfs.to_string(), "NTFS");
        assert_eq!(FsKind::Ext4.to_string(), "EXT4");
    }
}
