//! Property-based tests for the simulation engine's core invariants.

use odx_sim::fluid::{max_min_rates, FlowSpec};
use odx_sim::{EventQueue, OnlineStats, SimDuration, SimTime, TimingWheel, TokenBucket};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order, with FIFO tie-break.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "ties must pop in scheduling order");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Cancelled events never pop; everything else does, exactly once.
    #[test]
    fn cancellation_is_exact(
        n in 1usize..100,
        cancel_mask in prop::collection::vec(any::<bool>(), 100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..n).map(|i| q.schedule(SimTime::from_millis((i % 13) as u64), i)).collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                q.cancel(*id);
            } else {
                expect.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(popped, expect);
    }

    /// The slab queue and the timing wheel pop the exact same sequence and
    /// agree on every `cancel` result under cancel-heavy churn (≥50 % of
    /// events cancelled) with pops interleaved — the wheel is an independent
    /// implementation of the same `(time, seq)` order, so each is the
    /// other's behavioural oracle.
    #[test]
    fn slab_queue_matches_wheel_oracle_under_churn(
        times in prop::collection::vec(0u64..5_000, 1..300),
        cancels in prop::collection::vec(any::<bool>(), 300),
        pop_every in 2usize..9,
    ) {
        let mut slab = EventQueue::new();
        let mut wheel = TimingWheel::new();
        let mut slab_ids = Vec::new();
        let mut wheel_ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let at = SimTime::from_millis(t);
            slab_ids.push(slab.schedule(at, i));
            wheel_ids.push(wheel.schedule(at, i));
            // Cancel-heavy: the mask plus this unconditional arm cancels
            // well over half of all scheduled events.
            if cancels[i] || i % 2 == 0 {
                let victim = (i * 7 + 3) % slab_ids.len();
                prop_assert_eq!(slab.cancel(slab_ids[victim]), wheel.cancel(wheel_ids[victim]));
            }
            if i % pop_every == 0 {
                prop_assert_eq!(slab.pop(), wheel.pop());
            }
        }
        loop {
            let (a, b) = (slab.pop(), wheel.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(slab.is_empty());
    }

    /// Max–min fairness: (1) no link exceeds capacity; (2) no flow exceeds
    /// its cap; (3) every flow is pinned by its cap or by a saturated link.
    #[test]
    fn fluid_solver_invariants(
        caps in prop::collection::vec(1.0f64..1000.0, 1..8),
        flow_specs in prop::collection::vec(
            (prop::collection::vec(0usize..8, 1..4), prop::option::of(1.0f64..500.0)),
            1..20,
        ),
    ) {
        let flows: Vec<FlowSpec> = flow_specs
            .iter()
            .map(|(links, cap)| FlowSpec {
                links: links.iter().map(|&l| l % caps.len()).collect(),
                cap: *cap,
            })
            .collect();
        let rates = max_min_rates(&caps, &flows);
        prop_assert_eq!(rates.len(), flows.len());

        let eps = 1e-6;
        // (1) feasibility
        let mut used = vec![0.0; caps.len()];
        for (f, r) in flows.iter().zip(&rates) {
            prop_assert!(*r >= -eps);
            let mut links = f.links.clone();
            links.sort_unstable();
            links.dedup();
            for l in links {
                used[l] += r;
            }
        }
        for (l, &u) in used.iter().enumerate() {
            prop_assert!(u <= caps[l] + 1e-3, "link {} over capacity: {} > {}", l, u, caps[l]);
        }
        // (2) cap respected, (3) bottleneck saturation
        for (f, r) in flows.iter().zip(&rates) {
            if let Some(c) = f.cap {
                prop_assert!(*r <= c + 1e-3);
            }
            let at_cap = f.cap.is_some_and(|c| *r >= c - 1e-3);
            let saturated = f
                .links
                .iter()
                .any(|&l| used[l] >= caps[l] - 1e-3);
            prop_assert!(
                at_cap || saturated,
                "flow got {} but nothing pins it (cap={:?})",
                r,
                f.cap
            );
        }
    }

    /// A token bucket never goes negative and never exceeds its burst.
    #[test]
    fn token_bucket_bounds(
        rate in 1.0f64..100.0,
        burst in 1.0f64..1000.0,
        ops in prop::collection::vec((0u64..10_000, 0.0f64..100.0), 1..100),
    ) {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut now_ms = 0;
        for (advance, amount) in ops {
            now_ms += advance;
            let now = SimTime::from_millis(now_ms);
            bucket.try_consume(now, amount);
            let avail = bucket.available(now);
            prop_assert!(avail >= -1e-9 && avail <= burst + 1e-9);
        }
    }

    /// Online stats agree with batch formulas on arbitrary data.
    #[test]
    fn online_stats_match_batch(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-4 * var.abs().max(1.0));
    }

    /// Duration round-trips through seconds within 1 ms.
    #[test]
    fn duration_seconds_roundtrip(ms in 0u64..10_000_000_000) {
        let d = SimDuration::from_millis(ms);
        let rt = SimDuration::from_secs_f64(d.as_secs_f64());
        let diff = rt.as_millis().abs_diff(d.as_millis());
        prop_assert!(diff <= 1, "{} vs {}", rt.as_millis(), d.as_millis());
    }
}
