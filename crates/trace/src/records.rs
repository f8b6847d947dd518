//! The three trace-record schemas of the Xuanfeng dataset (§3).
//!
//! Field lists follow the paper verbatim; every record round-trips through
//! the TSV codec in [`crate::io`].

use odx_net::Isp;
use odx_sim::SimTime;

use crate::file::{FileType, Protocol};
use crate::io::{FromTsv, ParseError, ToTsv};
use odx_p2p::FailureCause;

/// Workload-trace row: one user request (§3, part 1).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRecord {
    /// User identifier.
    pub user_id: u32,
    /// The user's ISP (standing in for the IP address the real trace logs).
    pub isp: Isp,
    /// Access bandwidth if the client reported it (KBps).
    pub access_kbps: Option<f64>,
    /// Request arrival time.
    pub request_time: SimTime,
    /// File type.
    pub file_type: FileType,
    /// File size (MB).
    pub size_mb: f64,
    /// Link to the original data source.
    pub source_link: String,
    /// File-transfer protocol.
    pub protocol: Protocol,
}

/// Pre-downloading-trace row: proxy-side performance (§3, part 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredownloadRecord {
    /// Start of the pre-downloading process.
    pub start: SimTime,
    /// Finish (success) or give-up (failure) time.
    pub finish: SimTime,
    /// Bytes of the file actually acquired (MB).
    pub acquired_mb: f64,
    /// Network traffic consumed (MB), including protocol overhead.
    pub traffic_mb: f64,
    /// Whether the request hit the cloud cache (always `false` for APs).
    pub cache_hit: bool,
    /// Average downloading speed (KBps).
    pub avg_kbps: f64,
    /// Peak downloading speed (KBps).
    pub peak_kbps: f64,
    /// Success or failure.
    pub success: bool,
    /// Failure cause when `success` is false.
    pub failure_cause: Option<FailureCause>,
}

impl PredownloadRecord {
    /// Pre-downloading delay (the paper's Fig 9/14 metric).
    pub fn delay(&self) -> odx_sim::SimDuration {
        self.finish.since(self.start)
    }
}

/// Fetching-trace row: user-side performance (§3, part 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchRecord {
    /// User identifier.
    pub user_id: u32,
    /// The user's ISP.
    pub isp: Isp,
    /// Access bandwidth if reported (KBps).
    pub access_kbps: Option<f64>,
    /// Fetch start time.
    pub start: SimTime,
    /// Finish/pause time.
    pub finish: SimTime,
    /// Bytes acquired (MB).
    pub acquired_mb: f64,
    /// Network traffic consumed (MB).
    pub traffic_mb: f64,
    /// Average fetching speed (KBps); zero for rejected fetches.
    pub avg_kbps: f64,
    /// Peak fetching speed (KBps).
    pub peak_kbps: f64,
    /// Whether the cloud rejected the fetch for lack of upload bandwidth.
    pub rejected: bool,
}

impl FetchRecord {
    /// Fetching delay.
    pub fn delay(&self) -> odx_sim::SimDuration {
        self.finish.since(self.start)
    }
}

// ---- TSV codecs ----------------------------------------------------------

fn isp_to_str(isp: Isp) -> &'static str {
    match isp {
        Isp::Unicom => "unicom",
        Isp::Telecom => "telecom",
        Isp::Mobile => "mobile",
        Isp::Cernet => "cernet",
        Isp::Other => "other",
    }
}

fn isp_from_str(s: &str) -> Result<Isp, ParseError> {
    match s {
        "unicom" => Ok(Isp::Unicom),
        "telecom" => Ok(Isp::Telecom),
        "mobile" => Ok(Isp::Mobile),
        "cernet" => Ok(Isp::Cernet),
        "other" => Ok(Isp::Other),
        _ => Err(ParseError::bad_field("isp", s)),
    }
}

fn opt_f64_to_str(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x}"),
        None => "-".to_owned(),
    }
}

fn opt_f64_from_str(s: &str) -> Result<Option<f64>, ParseError> {
    if s == "-" {
        Ok(None)
    } else {
        s.parse().map(Some).map_err(|_| ParseError::bad_field("optional f64", s))
    }
}

fn cause_to_str(c: Option<FailureCause>) -> &'static str {
    match c {
        None => "-",
        Some(FailureCause::InsufficientSeeds) => "seeds",
        Some(FailureCause::PoorConnection) => "connection",
        Some(FailureCause::SystemBug) => "bug",
    }
}

fn cause_from_str(s: &str) -> Result<Option<FailureCause>, ParseError> {
    match s {
        "-" => Ok(None),
        "seeds" => Ok(Some(FailureCause::InsufficientSeeds)),
        "connection" => Ok(Some(FailureCause::PoorConnection)),
        "bug" => Ok(Some(FailureCause::SystemBug)),
        _ => Err(ParseError::bad_field("failure_cause", s)),
    }
}

impl ToTsv for WorkloadRecord {
    const HEADER: &'static str =
        "user_id\tisp\taccess_kbps\trequest_time_ms\tfile_type\tsize_mb\tsource_link\tprotocol";

    fn to_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.user_id,
            isp_to_str(self.isp),
            opt_f64_to_str(self.access_kbps),
            self.request_time.as_millis(),
            self.file_type,
            self.size_mb,
            self.source_link,
            self.protocol,
        )
    }
}

impl FromTsv for WorkloadRecord {
    fn from_row(row: &str) -> Result<Self, ParseError> {
        let f: Vec<&str> = row.split('\t').collect();
        if f.len() != 8 {
            return Err(ParseError::wrong_arity(8, f.len()));
        }
        Ok(WorkloadRecord {
            user_id: f[0].parse().map_err(|_| ParseError::bad_field("user_id", f[0]))?,
            isp: isp_from_str(f[1])?,
            access_kbps: opt_f64_from_str(f[2])?,
            request_time: SimTime::from_millis(
                f[3].parse().map_err(|_| ParseError::bad_field("request_time_ms", f[3]))?,
            ),
            file_type: match f[4] {
                "video" => FileType::Video,
                "software" => FileType::Software,
                "document" => FileType::Document,
                "image" => FileType::Image,
                "other" => FileType::Other,
                s => return Err(ParseError::bad_field("file_type", s)),
            },
            size_mb: f[5].parse().map_err(|_| ParseError::bad_field("size_mb", f[5]))?,
            source_link: f[6].to_owned(),
            protocol: match f[7] {
                "bittorrent" => Protocol::BitTorrent,
                "emule" => Protocol::EMule,
                "http" => Protocol::Http,
                "ftp" => Protocol::Ftp,
                s => return Err(ParseError::bad_field("protocol", s)),
            },
        })
    }
}

impl ToTsv for PredownloadRecord {
    const HEADER: &'static str = "start_ms\tfinish_ms\tacquired_mb\ttraffic_mb\tcache_hit\tavg_kbps\tpeak_kbps\tsuccess\tfailure_cause";

    fn to_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.start.as_millis(),
            self.finish.as_millis(),
            self.acquired_mb,
            self.traffic_mb,
            self.cache_hit,
            self.avg_kbps,
            self.peak_kbps,
            self.success,
            cause_to_str(self.failure_cause),
        )
    }
}

impl FromTsv for PredownloadRecord {
    fn from_row(row: &str) -> Result<Self, ParseError> {
        let f: Vec<&str> = row.split('\t').collect();
        if f.len() != 9 {
            return Err(ParseError::wrong_arity(9, f.len()));
        }
        let ms = |s: &str, name| -> Result<SimTime, ParseError> {
            Ok(SimTime::from_millis(s.parse().map_err(|_| ParseError::bad_field(name, s))?))
        };
        let num = |s: &str, name| -> Result<f64, ParseError> {
            s.parse().map_err(|_| ParseError::bad_field(name, s))
        };
        let flag = |s: &str, name| -> Result<bool, ParseError> {
            s.parse().map_err(|_| ParseError::bad_field(name, s))
        };
        Ok(PredownloadRecord {
            start: ms(f[0], "start_ms")?,
            finish: ms(f[1], "finish_ms")?,
            acquired_mb: num(f[2], "acquired_mb")?,
            traffic_mb: num(f[3], "traffic_mb")?,
            cache_hit: flag(f[4], "cache_hit")?,
            avg_kbps: num(f[5], "avg_kbps")?,
            peak_kbps: num(f[6], "peak_kbps")?,
            success: flag(f[7], "success")?,
            failure_cause: cause_from_str(f[8])?,
        })
    }
}

impl ToTsv for FetchRecord {
    const HEADER: &'static str = "user_id\tisp\taccess_kbps\tstart_ms\tfinish_ms\tacquired_mb\ttraffic_mb\tavg_kbps\tpeak_kbps\trejected";

    fn to_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.user_id,
            isp_to_str(self.isp),
            opt_f64_to_str(self.access_kbps),
            self.start.as_millis(),
            self.finish.as_millis(),
            self.acquired_mb,
            self.traffic_mb,
            self.avg_kbps,
            self.peak_kbps,
            self.rejected,
        )
    }
}

impl FromTsv for FetchRecord {
    fn from_row(row: &str) -> Result<Self, ParseError> {
        let f: Vec<&str> = row.split('\t').collect();
        if f.len() != 10 {
            return Err(ParseError::wrong_arity(10, f.len()));
        }
        let num = |s: &str, name| -> Result<f64, ParseError> {
            s.parse().map_err(|_| ParseError::bad_field(name, s))
        };
        Ok(FetchRecord {
            user_id: f[0].parse().map_err(|_| ParseError::bad_field("user_id", f[0]))?,
            isp: isp_from_str(f[1])?,
            access_kbps: opt_f64_from_str(f[2])?,
            start: SimTime::from_millis(
                f[3].parse().map_err(|_| ParseError::bad_field("start_ms", f[3]))?,
            ),
            finish: SimTime::from_millis(
                f[4].parse().map_err(|_| ParseError::bad_field("finish_ms", f[4]))?,
            ),
            acquired_mb: num(f[5], "acquired_mb")?,
            traffic_mb: num(f[6], "traffic_mb")?,
            avg_kbps: num(f[7], "avg_kbps")?,
            peak_kbps: num(f[8], "peak_kbps")?,
            rejected: f[9].parse().map_err(|_| ParseError::bad_field("rejected", f[9]))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_sim::SimDuration;

    #[test]
    fn workload_record_round_trips() {
        let r = WorkloadRecord {
            user_id: 42,
            isp: Isp::Cernet,
            access_kbps: Some(512.5),
            request_time: SimTime::from_millis(123_456),
            file_type: FileType::Video,
            size_mb: 700.25,
            source_link: "magnet:?xt=urn:btih:deadbeef".to_owned(),
            protocol: Protocol::BitTorrent,
        };
        let parsed = WorkloadRecord::from_row(&r.to_row()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn workload_record_without_bandwidth() {
        let r = WorkloadRecord {
            user_id: 1,
            isp: Isp::Other,
            access_kbps: None,
            request_time: SimTime::ZERO,
            file_type: FileType::Document,
            size_mb: 0.004,
            source_link: "http://x/y".to_owned(),
            protocol: Protocol::Http,
        };
        let parsed = WorkloadRecord::from_row(&r.to_row()).unwrap();
        assert_eq!(parsed.access_kbps, None);
    }

    #[test]
    fn predownload_record_round_trips() {
        let r = PredownloadRecord {
            start: SimTime::from_millis(1000),
            finish: SimTime::from_millis(61_000),
            acquired_mb: 10.0,
            traffic_mb: 19.6,
            cache_hit: false,
            avg_kbps: 166.7,
            peak_kbps: 400.0,
            success: false,
            failure_cause: Some(FailureCause::InsufficientSeeds),
        };
        let parsed = PredownloadRecord::from_row(&r.to_row()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.delay(), SimDuration::from_secs(60));
    }

    #[test]
    fn fetch_record_round_trips() {
        let r = FetchRecord {
            user_id: 7,
            isp: Isp::Unicom,
            access_kbps: Some(2500.0),
            start: SimTime::from_millis(5000),
            finish: SimTime::from_millis(425_000),
            acquired_mb: 115.0,
            traffic_mb: 123.0,
            avg_kbps: 273.8,
            peak_kbps: 300.0,
            rejected: false,
        };
        assert_eq!(FetchRecord::from_row(&r.to_row()).unwrap(), r);
    }

    #[test]
    fn malformed_rows_error() {
        assert!(WorkloadRecord::from_row("nope").is_err());
        assert!(PredownloadRecord::from_row("1\t2\t3").is_err());
        assert!(FetchRecord::from_row(&"x\t".repeat(10)).is_err());
    }
}
