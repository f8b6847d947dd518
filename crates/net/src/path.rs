//! Network paths: capacity composition along a transfer route.

/// One capacity-bearing segment of a path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segment {
    /// The user's (or proxy's) last-mile access link.
    Access {
        /// Capacity (KBps).
        kbps: f64,
    },
    /// A share of a server pool's upload capacity.
    ServerShare {
        /// Capacity granted to this flow (KBps).
        kbps: f64,
    },
    /// A cross-ISP barrier crossing.
    Barrier {
        /// Sampled barrier capacity (KBps).
        kbps: f64,
    },
    /// The data source's effective serving rate (swarm or HTTP/FTP server).
    Source {
        /// Capacity (KBps).
        kbps: f64,
    },
    /// A LAN hop (wired or WiFi) between a smart AP and the user device.
    Lan {
        /// Capacity (KBps).
        kbps: f64,
    },
    /// An application-level limit (e.g. Xuanfeng's 6.25 MBps fetch cap, or
    /// the §5.1 replay restriction to the sampled user's recorded access
    /// bandwidth).
    AppCap {
        /// Capacity (KBps).
        kbps: f64,
    },
}

impl Segment {
    /// The capacity this segment contributes (KBps).
    pub fn kbps(&self) -> f64 {
        match *self {
            Segment::Access { kbps }
            | Segment::ServerShare { kbps }
            | Segment::Barrier { kbps }
            | Segment::Source { kbps }
            | Segment::Lan { kbps }
            | Segment::AppCap { kbps } => kbps,
        }
    }
}

/// A transfer path: an ordered list of segments. Steady-state throughput is
/// the minimum segment capacity (single-flow fluid model); which segment is
/// the minimum identifies the bottleneck the paper's analysis names.
#[derive(Debug, Clone, Default)]
pub struct Path {
    segments: Vec<Segment>,
}

impl Path {
    /// An empty path (infinite capacity until segments are added).
    pub fn new() -> Self {
        Path { segments: Vec::new() }
    }

    /// Append a segment, builder-style.
    pub fn with(mut self, seg: Segment) -> Self {
        self.segments.push(seg);
        self
    }

    /// The path's segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Steady-state throughput: the minimum segment capacity.
    /// An empty path has infinite throughput (callers always add at least a
    /// source or an access segment).
    pub fn throughput_kbps(&self) -> f64 {
        self.segments.iter().map(Segment::kbps).fold(f64::INFINITY, f64::min)
    }

    /// The bottleneck segment (the first of minimum capacity), if any.
    pub fn bottleneck(&self) -> Option<Segment> {
        let min = self.throughput_kbps();
        self.segments.iter().copied().find(|s| s.kbps() <= min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_min_segment() {
        let p = Path::new()
            .with(Segment::Source { kbps: 900.0 })
            .with(Segment::Barrier { kbps: 80.0 })
            .with(Segment::Access { kbps: 400.0 });
        assert_eq!(p.throughput_kbps(), 80.0);
        assert_eq!(p.bottleneck(), Some(Segment::Barrier { kbps: 80.0 }));
    }

    #[test]
    fn ties_pick_first() {
        let p =
            Path::new().with(Segment::Access { kbps: 100.0 }).with(Segment::AppCap { kbps: 100.0 });
        assert_eq!(p.bottleneck(), Some(Segment::Access { kbps: 100.0 }));
    }

    #[test]
    fn empty_path() {
        let p = Path::new();
        assert!(p.throughput_kbps().is_infinite());
        assert_eq!(p.bottleneck(), None);
    }

    #[test]
    fn privileged_fetch_shape() {
        // A privileged (same-ISP) fetch: server share and the 6.25 MBps app
        // cap are generous; the user's access link is the bottleneck — the
        // common case behind the paper's high fetch speeds.
        let p = Path::new()
            .with(Segment::ServerShare { kbps: 5000.0 })
            .with(Segment::AppCap { kbps: crate::CLOUD_FETCH_CAP_KBPS })
            .with(Segment::Access { kbps: 480.0 });
        assert_eq!(p.throughput_kbps(), 480.0);
        assert!(matches!(p.bottleneck(), Some(Segment::Access { .. })));
    }
}
