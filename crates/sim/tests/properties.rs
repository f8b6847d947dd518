//! Property-based tests for the simulation engine's core invariants.

use odx_sim::fluid::{max_min_rates, FlowSpec};
use odx_sim::{SimDuration, SimTime, TimingWheel, TokenBucket};
use proptest::prelude::*;

/// The timing wheel's reference: a naive future-event list. Each entry is
/// `(time, payload, live)` and its index is its sequence number, so `pop`
/// takes the live entry with the least `(time, index)`, and an id (the
/// index) cancels only while its entry is live — one id per schedule,
/// never reused, so no generation is needed.
#[derive(Default)]
struct Model {
    events: Vec<(SimTime, u64, bool)>,
}

impl Model {
    fn schedule(&mut self, at: SimTime, payload: u64) -> usize {
        self.events.push((at, payload, true));
        self.events.len() - 1
    }

    fn cancel(&mut self, id: usize) -> bool {
        std::mem::replace(&mut self.events[id].2, false)
    }

    fn head(&self) -> Option<usize> {
        (0..self.events.len()).filter(|&i| self.events[i].2).min_by_key(|&i| (self.events[i].0, i))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let i = self.head()?;
        self.events[i].2 = false;
        Some((self.events[i].0, self.events[i].1))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|i| self.events[i].0)
    }

    fn len(&self) -> usize {
        self.events.iter().filter(|e| e.2).count()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule(u64),
    Cancel(usize),
    Pop,
    Peek,
}

/// Drive the wheel and the model through one interleaved op script and
/// assert identical pops, peeks, cancel results and `len()` throughout.
fn lockstep(ops: &[Op]) {
    let mut model = Model::default();
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut ids = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Schedule(ms) => {
                let at = SimTime::from_millis(ms);
                ids.push((model.schedule(at, i as u64), wheel.schedule(at, i as u64)));
            }
            Op::Cancel(idx) => {
                if !ids.is_empty() {
                    // Cancel-after-fire included: ids are kept forever,
                    // so stale handles hit both alike.
                    let (mid, wid) = ids[idx % ids.len()];
                    assert_eq!(model.cancel(mid), wheel.cancel(wid));
                }
            }
            Op::Pop => assert_eq!(model.pop(), wheel.pop()),
            Op::Peek => assert_eq!(model.peek_time(), wheel.peek_time()),
        }
        assert_eq!(model.len(), wheel.len());
    }
    drain_in_lockstep(&mut model, &mut wheel);
}

/// Pop both to empty, asserting the same sequence.
fn drain_in_lockstep(model: &mut Model, wheel: &mut TimingWheel<u64>) {
    loop {
        let (a, b) = (model.pop(), wheel.pop());
        assert_eq!(a, b);
        assert_eq!(model.len(), wheel.len());
        if a.is_none() {
            break;
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted by arm duplication (the vendored proptest's `prop_oneof!`
    // is unweighted). Time span crosses several wheel levels; the small
    // modulus forces same-timestamp bursts.
    prop_oneof![
        (0u64..3_000_000).prop_map(Op::Schedule),
        (0u64..3_000_000).prop_map(Op::Schedule),
        (0u64..64).prop_map(|ms| Op::Schedule(ms % 7)),
        any::<usize>().prop_map(Op::Cancel),
        any::<usize>().prop_map(Op::Cancel),
        Just(Op::Pop),
        Just(Op::Peek),
    ]
}

#[test]
fn wheel_matches_the_model_under_heavy_cancellation() {
    // ≥50 % cancels interleaved with pops: same pops, same cancel results.
    let mut model = Model::default();
    let mut wheel = TimingWheel::new();
    let mut ids = Vec::new();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut step = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 33
    };
    for i in 0..4000u64 {
        let at = SimTime::from_millis(step() % 10_000);
        ids.push((model.schedule(at, i), wheel.schedule(at, i)));
    }
    for (i, &(mid, wid)) in ids.iter().enumerate() {
        if i % 5 != 0 && i % 5 != 3 {
            assert_eq!(model.cancel(mid), wheel.cancel(wid));
        }
        if i % 97 == 0 {
            assert_eq!(model.pop(), wheel.pop());
        }
    }
    drain_in_lockstep(&mut model, &mut wheel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random schedule/cancel/pop/peek interleavings (cancel-after-fire
    /// and same-timestamp bursts included).
    #[test]
    fn wheel_matches_the_model_on_random_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        lockstep(&ops);
    }

    /// Far-future times exercise the overflow list and its re-deal.
    #[test]
    fn wheel_matches_the_model_across_the_overflow_horizon(
        ops in proptest::collection::vec(
            prop_oneof![
                (0u64..10_000).prop_map(Op::Schedule),
                ((1u64 << 31)..(1 << 34)).prop_map(Op::Schedule),
                any::<usize>().prop_map(Op::Cancel),
                Just(Op::Pop),
            ],
            1..200,
        ),
    ) {
        lockstep(&ops);
    }
}

proptest! {
    /// Events pop in the model's order: non-decreasing time, with FIFO
    /// tie-break.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut model = Model::default();
        let mut wheel = TimingWheel::new();
        for (i, &t) in times.iter().enumerate() {
            model.schedule(SimTime::from_millis(t), i as u64);
            wheel.schedule(SimTime::from_millis(t), i as u64);
        }
        drain_in_lockstep(&mut model, &mut wheel);
    }

    /// Cancelled events never pop; everything else does, exactly once, in
    /// the model's order.
    #[test]
    fn cancellation_is_exact(
        n in 1usize..100,
        cancel_mask in prop::collection::vec(any::<bool>(), 100),
    ) {
        let mut model = Model::default();
        let mut wheel = TimingWheel::new();
        for (i, &cancel) in cancel_mask[..n].iter().enumerate() {
            let at = SimTime::from_millis((i % 13) as u64);
            let (mid, wid) = (model.schedule(at, i as u64), wheel.schedule(at, i as u64));
            if cancel {
                prop_assert!(model.cancel(mid));
                prop_assert!(wheel.cancel(wid));
            }
        }
        prop_assert_eq!(wheel.len(), n - cancel_mask[..n].iter().filter(|&&c| c).count());
        drain_in_lockstep(&mut model, &mut wheel);
    }

    /// The wheel pops the model's sequence and agrees with it on every
    /// `cancel` result under cancel-heavy churn (≥50 % of events
    /// cancelled) with pops interleaved.
    #[test]
    fn slab_queue_matches_wheel_oracle_under_churn(
        times in prop::collection::vec(0u64..5_000, 1..300),
        cancels in prop::collection::vec(any::<bool>(), 300),
        pop_every in 2usize..9,
    ) {
        let mut model = Model::default();
        let mut wheel = TimingWheel::new();
        let mut ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let at = SimTime::from_millis(t);
            ids.push((model.schedule(at, i as u64), wheel.schedule(at, i as u64)));
            // Cancel-heavy: the mask plus this unconditional arm cancels
            // well over half of all scheduled events.
            if cancels[i] || i % 2 == 0 {
                let (mid, wid) = ids[(i * 7 + 3) % ids.len()];
                prop_assert_eq!(model.cancel(mid), wheel.cancel(wid));
            }
            if i % pop_every == 0 {
                prop_assert_eq!(model.pop(), wheel.pop());
            }
        }
        drain_in_lockstep(&mut model, &mut wheel);
        prop_assert!(wheel.is_empty());
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

    /// Duration round-trips through seconds within 1 ms.
    #[test]
    fn duration_seconds_roundtrip(ms in 0u64..10_000_000_000) {
        let d = SimDuration::from_millis(ms);
        let rt = SimDuration::from_secs_f64(d.as_secs_f64());
        let diff = rt.as_millis().abs_diff(d.as_millis());
        prop_assert!(diff <= 1, "{} vs {}", rt.as_millis(), d.as_millis());
    }
}
