//! Max–min fair bandwidth allocation ("fluid" flow model).
//!
//! Concurrent transfers are modeled as fluid flows over capacitated links.
//! Each flow crosses a set of links and may carry its own rate cap (e.g. an
//! application-level limit). The solver implements *progressive filling*:
//! grow every unfrozen flow's rate uniformly; whenever a link saturates,
//! freeze the flows crossing it; repeat. The result is the unique max–min
//! fair allocation, which is the standard first-order model of many TCP
//! flows sharing a path.
//!
//! The allocator is used for LAN fetch contention and for upload-server
//! sharing, and is property-tested for its two defining invariants:
//! feasibility (no link over capacity) and bottleneck saturation (every flow
//! is limited by its own cap or by at least one saturated link).

/// Index of a link in the network passed to [`max_min_rates`].
pub type LinkId = usize;

/// A fluid flow: the set of links it crosses plus an optional rate cap in the
/// same unit as link capacities.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Links this flow traverses. Duplicates are ignored.
    pub links: Vec<LinkId>,
    /// Per-flow rate ceiling (KBps); `None` means unbounded.
    pub cap: Option<f64>,
}

impl FlowSpec {
    /// A flow over the given links with no individual cap.
    pub fn over(links: Vec<LinkId>) -> Self {
        FlowSpec { links, cap: None }
    }

    /// A flow over the given links with an individual rate cap.
    pub fn capped(links: Vec<LinkId>, cap: f64) -> Self {
        FlowSpec { links, cap: Some(cap) }
    }
}

/// Compute the max–min fair rate for each flow.
///
/// `link_caps[i]` is the capacity of link `i` (KBps). Flows crossing no links
/// get their own cap (or `f64::INFINITY` if uncapped). Links with
/// non-positive capacity pin their flows to zero. Panics if a flow references
/// a link out of range.
pub fn max_min_rates(link_caps: &[f64], flows: &[FlowSpec]) -> Vec<f64> {
    for f in flows {
        for &l in &f.links {
            assert!(l < link_caps.len(), "flow references unknown link {l}");
        }
    }

    let mut rates = vec![0.0_f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    // Remaining capacity per link, and the number of unfrozen flows on it.
    let mut remaining: Vec<f64> = link_caps.to_vec();
    let mut active_count = vec![0usize; link_caps.len()];
    for f in flows {
        for &l in dedup(&f.links).iter() {
            active_count[l] += 1;
        }
    }

    // Flows on a dead (<= 0 capacity) link are stuck at zero.
    for (i, f) in flows.iter().enumerate() {
        if f.links.iter().any(|&l| link_caps[l] <= 0.0) {
            freeze(i, flows, &mut frozen, &mut active_count);
            rates[i] = 0.0;
        } else if f.links.is_empty() {
            frozen[i] = true;
            rates[i] = f.cap.unwrap_or(f64::INFINITY);
        }
    }

    // Progressive filling: each round, raise all unfrozen flows by the
    // largest uniform increment any constraint allows.
    loop {
        let unfrozen: Vec<usize> = (0..flows.len()).filter(|&i| !frozen[i]).collect();
        if unfrozen.is_empty() {
            break;
        }

        // Tightest link constraint: remaining capacity shared by its active flows.
        let mut delta = f64::INFINITY;
        for (l, &rem) in remaining.iter().enumerate() {
            if active_count[l] > 0 {
                delta = delta.min(rem / active_count[l] as f64);
            }
        }
        // Tightest per-flow cap constraint.
        for &i in &unfrozen {
            if let Some(cap) = flows[i].cap {
                delta = delta.min(cap - rates[i]);
            }
        }
        debug_assert!(delta.is_finite(), "some constraint must bind");
        let delta = delta.max(0.0);

        // Apply the increment.
        for &i in &unfrozen {
            rates[i] += delta;
            for &l in dedup(&flows[i].links).iter() {
                remaining[l] -= delta;
            }
        }

        // Freeze flows at their cap or on a saturated link.
        let eps = 1e-9;
        let mut any_frozen = false;
        for &i in &unfrozen {
            let at_cap = flows[i].cap.is_some_and(|c| rates[i] >= c - eps);
            let on_saturated =
                flows[i].links.iter().any(|&l| remaining[l] <= eps * link_caps[l].max(1.0));
            if at_cap || on_saturated {
                freeze(i, flows, &mut frozen, &mut active_count);
                any_frozen = true;
            }
        }
        if !any_frozen {
            // No progress possible without freezing (delta was 0 and nothing
            // saturated — can only happen with degenerate caps); freeze all.
            for &i in &unfrozen {
                freeze(i, flows, &mut frozen, &mut active_count);
            }
        }
    }

    rates
}

fn freeze(i: usize, flows: &[FlowSpec], frozen: &mut [bool], active_count: &mut [usize]) {
    if frozen[i] {
        return;
    }
    frozen[i] = true;
    for &l in dedup(&flows[i].links).iter() {
        active_count[l] -= 1;
    }
}

fn dedup(links: &[LinkId]) -> Vec<LinkId> {
    let mut v = links.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn single_link_split_evenly() {
        let rates = max_min_rates(&[100.0], &[FlowSpec::over(vec![0]), FlowSpec::over(vec![0])]);
        assert_close(rates[0], 50.0);
        assert_close(rates[1], 50.0);
    }

    #[test]
    fn caps_redistribute_leftover() {
        let rates = max_min_rates(
            &[100.0],
            &[FlowSpec::capped(vec![0], 10.0), FlowSpec::over(vec![0]), FlowSpec::over(vec![0])],
        );
        assert_close(rates[0], 10.0);
        assert_close(rates[1], 45.0);
        assert_close(rates[2], 45.0);
    }

    #[test]
    fn classic_three_flow_two_link_example() {
        // f0 crosses both links, f1 only link0, f2 only link1.
        // link0=100, link1=60: max-min gives f0=min share, then leftovers.
        let rates = max_min_rates(
            &[100.0, 60.0],
            &[FlowSpec::over(vec![0, 1]), FlowSpec::over(vec![0]), FlowSpec::over(vec![1])],
        );
        // Fill to 30 (link1 saturates: 2 flows × 30 = 60). f0, f2 freeze.
        // f1 continues to 100 - 30 = 70.
        assert_close(rates[0], 30.0);
        assert_close(rates[1], 70.0);
        assert_close(rates[2], 30.0);
    }

    #[test]
    fn empty_path_flow_gets_its_cap() {
        let rates = max_min_rates(&[], &[FlowSpec::capped(vec![], 42.0)]);
        assert_close(rates[0], 42.0);
    }

    #[test]
    fn dead_link_pins_flow_to_zero() {
        let rates =
            max_min_rates(&[0.0, 50.0], &[FlowSpec::over(vec![0, 1]), FlowSpec::over(vec![1])]);
        assert_close(rates[0], 0.0);
        assert_close(rates[1], 50.0);
    }

    #[test]
    fn duplicate_links_counted_once() {
        let rates = max_min_rates(&[100.0], &[FlowSpec::over(vec![0, 0, 0])]);
        assert_close(rates[0], 100.0);
    }

    #[test]
    fn no_flows_is_fine() {
        assert!(max_min_rates(&[5.0], &[]).is_empty());
    }
}
