//! Property-based tests for the scenario-spec subsystem: the canonical
//! dump round-trips byte-identically for arbitrary valid specs, layering
//! is order-free with respect to validation, and axis expansion is a
//! deterministic cross product.

use odx_config::{ApSpec, Json, ScenarioSpec};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy for arbitrary *valid* scenario specs: every field inside its
/// validated bound, axes drawn from the sweepable numeric paths with
/// distinct values.
fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    let name = "[a-z0-9\\-]{1,16}";
    let summary = "[a-zA-Z0-9 ,.\\-]{0,40}";
    let backend = (
        0.0f64..1.0,
        0.1f64..10.0,
        (1u32..=100).prop_map(|n| f64::from(n) / 100.0),
        (1u32..=100).prop_map(|n| f64::from(n) / 100.0),
        10.0f64..10_000.0,
    );
    let cache = "[a-z0-9]{1,8}";
    let fleet = prop::collection::vec(
        ("[a-z]{2,8}", "[a-z\\-]{1,8}", "[a-z]{2,4}").prop_map(|(model, device, fs)| ApSpec {
            model,
            device,
            fs,
        }),
        3,
    );
    let axes = prop::collection::btree_map(
        prop_oneof![
            Just("demand_factor".to_owned()),
            Just("cache_capacity_factor".to_owned()),
            Just("backend.warm_cache_pivot".to_owned()),
        ],
        prop::collection::vec(1u32..50, 1..4).prop_map(|mut values| {
            values.sort_unstable();
            values.dedup();
            values.into_iter().map(|n| Json::Num(f64::from(n) / 4.0)).collect::<Vec<_>>()
        }),
        0..3,
    );
    (
        (name, summary, backend, cache),
        (
            any::<bool>(),
            0.01f64..100.0,
            any::<bool>(),
            0.01f64..100.0,
            prop::option::of(0.0f64..0.999),
            fleet,
            axes,
        ),
    )
        .prop_map(
            |(
                (name, summary, backend, cache),
                (
                    cache_enabled,
                    cache_capacity_factor,
                    privileged_paths,
                    demand_factor,
                    cernet_share,
                    ap_fleet,
                    axes,
                ),
            )| {
                let mut spec = ScenarioSpec::baseline(&name, &summary);
                (
                    spec.backend.dynamics_probability,
                    spec.backend.warm_cache_pivot,
                    spec.backend.retry_decay,
                    spec.backend.cloud_retry_factor,
                    spec.backend.line_payload_kbps,
                ) = backend;
                spec.cache.policy = cache;
                spec.cache_enabled = cache_enabled;
                spec.cache_capacity_factor = cache_capacity_factor;
                spec.privileged_paths = privileged_paths;
                spec.demand_factor = demand_factor;
                spec.cernet_share = cernet_share;
                spec.ap_fleet = ap_fleet;
                spec.axes = axes;
                spec
            },
        )
}

proptest! {
    /// dump → parse → dump is the identity on bytes for every valid spec.
    #[test]
    fn canonical_dump_round_trips_byte_identically(spec in arb_spec()) {
        prop_assert!(spec.validate().is_ok(), "strategy must yield valid specs");
        let dump = spec.to_canonical_json();
        let parsed = ScenarioSpec::from_json(&Json::parse(&dump).unwrap())
            .expect("own dump re-parses");
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.to_canonical_json(), dump);
    }

    /// Applying a spec's own dump as a delta over an unrelated baseline
    /// reproduces the spec exactly — the dump is a complete delta.
    #[test]
    fn dump_is_a_complete_delta(spec in arb_spec()) {
        let dump = Json::parse(&spec.to_canonical_json()).unwrap();
        let mut other = ScenarioSpec::baseline("other", "unrelated starting point");
        other.set_path("demand_factor", &Json::Num(7.5)).unwrap();
        other.apply_delta(&dump).unwrap();
        prop_assert_eq!(other, spec);
    }

    /// Axis expansion is the full cross product, deterministic, and every
    /// expanded spec validates with no axes of its own.
    #[test]
    fn axis_expansion_is_a_deterministic_cross_product(spec in arb_spec()) {
        let grid = spec.expand_axes().unwrap();
        let want: usize = spec.axes.values().map(Vec::len).product();
        prop_assert_eq!(grid.len(), want.max(1));
        prop_assert_eq!(&grid, &spec.expand_axes().unwrap());
        let names: BTreeSet<&str> = grid.iter().map(|s| s.name.as_str()).collect();
        prop_assert_eq!(names.len(), grid.len(), "expanded names are distinct");
        for cell in &grid {
            prop_assert!(cell.axes.is_empty());
            prop_assert!(cell.validate().is_ok());
        }
    }

    /// The canonical form never depends on formatting of the input
    /// document: parsing a pretty-printed variant yields the same bytes.
    #[test]
    fn canonical_form_is_whitespace_insensitive(spec in arb_spec()) {
        let dump = spec.to_canonical_json();
        // Pad characters the string strategies never produce (`{`, `}`,
        // `:`) so string contents survive while every structural boundary
        // gains whitespace.
        let pretty = dump.replace('{', "{\n  ").replace('}', "\n}").replace(':', ": ");
        let reparsed = ScenarioSpec::from_json(&Json::parse(&pretty).unwrap()).unwrap();
        prop_assert_eq!(reparsed.to_canonical_json(), dump);
    }
}
