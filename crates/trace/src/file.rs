//! File identities and static attributes.

use std::fmt;

/// Content identity: stands in for the MD5 hash Xuanfeng uses for file-level
/// deduplication (§2.1). Equal ids ⇒ identical content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u128);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Broad content type of a requested file (§3 "File type").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Full-length videos — 75 % of requests, and the size-dominant class.
    Video,
    /// Software packages — 15 % of requests.
    Software,
    /// Documents (most live in the < 8 MB small-file mass).
    Document,
    /// Pictures.
    Image,
    /// Everything else.
    Other,
}

impl fmt::Display for FileType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FileType::Video => "video",
            FileType::Software => "software",
            FileType::Document => "document",
            FileType::Image => "image",
            FileType::Other => "other",
        };
        f.write_str(s)
    }
}

/// File-transfer protocol of the original data source (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// BitTorrent swarms: 68 % of requested files.
    BitTorrent,
    /// eMule swarms: 19 %.
    EMule,
    /// HTTP servers: ~9 %.
    Http,
    /// FTP servers: ~4 %.
    Ftp,
}

impl Protocol {
    /// Whether the source is a P2P data swarm (87 % of files).
    pub fn is_p2p(self) -> bool {
        matches!(self, Protocol::BitTorrent | Protocol::EMule)
    }

    /// URI scheme used when synthesizing source links for trace records.
    pub fn scheme(self) -> &'static str {
        match self {
            Protocol::BitTorrent => "magnet",
            Protocol::EMule => "ed2k",
            Protocol::Http => "http",
            Protocol::Ftp => "ftp",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protocol::BitTorrent => "bittorrent",
            Protocol::EMule => "emule",
            Protocol::Http => "http",
            Protocol::Ftp => "ftp",
        };
        f.write_str(s)
    }
}

/// The paper's popularity classes (§4.1 / Fig 10): requests per week.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PopularityClass {
    /// Fewer than 7 downloads per week — 93.2 % of files, 36 % of requests.
    Unpopular,
    /// 7–84 downloads per week.
    Popular,
    /// More than 84 downloads per week — 0.84 % of files, 39 % of requests.
    HighlyPopular,
}

impl PopularityClass {
    /// Lower bound of the popular class (downloads/week).
    pub const POPULAR_MIN: u32 = 7;
    /// Upper bound of the popular class (inclusive).
    pub const POPULAR_MAX: u32 = 84;

    /// Classify a weekly request count.
    pub fn of(weekly_requests: u32) -> Self {
        if weekly_requests < Self::POPULAR_MIN {
            PopularityClass::Unpopular
        } else if weekly_requests <= Self::POPULAR_MAX {
            PopularityClass::Popular
        } else {
            PopularityClass::HighlyPopular
        }
    }
}

impl fmt::Display for PopularityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PopularityClass::Unpopular => "unpopular",
            PopularityClass::Popular => "popular",
            PopularityClass::HighlyPopular => "highly-popular",
        };
        f.write_str(s)
    }
}

/// Static attributes of one unique file in the catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileMeta {
    /// Content identity (MD5 stand-in).
    pub id: FileId,
    /// Size in MB (decimal).
    pub size_mb: f64,
    /// Content type.
    pub ftype: FileType,
    /// Transfer protocol of the original source.
    pub protocol: Protocol,
    /// Ground-truth requests in the measurement week.
    pub weekly_requests: u32,
}

impl FileMeta {
    /// The file's popularity class.
    pub fn class(&self) -> PopularityClass {
        PopularityClass::of(self.weekly_requests)
    }

    /// A synthetic link to the original data source, in the shape the
    /// workload trace records (§3).
    pub fn source_link(&self) -> String {
        match self.protocol {
            Protocol::BitTorrent => format!("magnet:?xt=urn:btih:{}", self.id),
            Protocol::EMule => {
                format!("ed2k://|file|{}|{}|{}|/", self.id, (self.size_mb * 1e6) as u64, self.id)
            }
            Protocol::Http => format!("http://origin.example.cn/files/{}", self.id),
            Protocol::Ftp => format!("ftp://origin.example.cn/pub/{}", self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_thresholds_match_paper() {
        assert_eq!(PopularityClass::of(0), PopularityClass::Unpopular);
        assert_eq!(PopularityClass::of(6), PopularityClass::Unpopular);
        assert_eq!(PopularityClass::of(7), PopularityClass::Popular);
        assert_eq!(PopularityClass::of(84), PopularityClass::Popular);
        assert_eq!(PopularityClass::of(85), PopularityClass::HighlyPopular);
    }

    #[test]
    fn p2p_classification() {
        assert!(Protocol::BitTorrent.is_p2p());
        assert!(Protocol::EMule.is_p2p());
        assert!(!Protocol::Http.is_p2p());
        assert!(!Protocol::Ftp.is_p2p());
    }

    #[test]
    fn source_links_embed_identity() {
        let meta = FileMeta {
            id: FileId(0xabc),
            size_mb: 100.0,
            ftype: FileType::Video,
            protocol: Protocol::BitTorrent,
            weekly_requests: 3,
        };
        let link = meta.source_link();
        assert!(link.starts_with("magnet:?xt=urn:btih:"));
        assert!(link.contains("00000000000000000000000000000abc"));
    }

    #[test]
    fn file_id_displays_as_md5_like_hex() {
        assert_eq!(FileId(0xff).to_string().len(), 32);
    }
}
