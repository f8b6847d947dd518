//! Cross-crate integration: the paper's headline claim is that the two
//! conventional approaches have complementary bottlenecks and that ODR
//! inherits the best of both. This test runs the entire pipeline — workload
//! generation, cloud week replay, smart-AP benchmark, ODR evaluation — and
//! asserts the comparative story end to end.

use odx::backend::ApBenchReport;
use odx::cloud::WeekReport;
use odx::odr::replay::OdrEvalReport;
use odx::telemetry::{Observers, Registry};
use odx::Study;

// Unobserved `paper-default` runs into a fresh registry.
fn replay_cloud(study: &Study) -> WeekReport {
    study.replay_cloud(&Study::paper_default(), &Registry::new(), Observers::default()).0
}

fn replay_smart_aps(study: &Study, n: usize) -> ApBenchReport {
    study.replay_smart_aps(n, &Study::paper_default(), &Registry::new(), Observers::default()).0
}

fn replay_odr(study: &Study, n: usize) -> OdrEvalReport {
    study.replay_odr(n, &Study::paper_default(), &Registry::new(), Observers::default()).0
}

#[test]
fn odr_beats_both_baselines_on_their_own_bottlenecks() {
    let study = Study::generate(0.02, 31_415);
    let cloud = replay_cloud(&study);
    let aps = replay_smart_aps(&study, 3000);
    let odr = replay_odr(&study, 3000);

    // Bottleneck 1: ODR cuts the impeded-fetch ratio sharply (28 % → 9 %).
    let base_impeded = cloud.impeded_ratio();
    let odr_impeded = odr.impeded_ratio();
    assert!(
        odr_impeded < 0.55 * base_impeded,
        "B1: cloud {base_impeded:.3} vs ODR {odr_impeded:.3}"
    );
    assert!(odr_impeded < 0.15, "ODR impeded {odr_impeded:.3}");

    // Bottleneck 2: ODR sheds roughly a third of the cloud's upload bytes.
    let upload_fraction = odr.cloud_upload_fraction();
    assert!(
        (0.5..0.8).contains(&upload_fraction),
        "B2: ODR cloud-upload fraction {upload_fraction:.3}"
    );

    // Bottleneck 3: unpopular files fail like the cloud (≈13 %), not like
    // the APs (≈42 %).
    let ap_unpopular = aps.unpopular_failure_ratio();
    let odr_unpopular = odr.unpopular_failure_ratio();
    assert!((ap_unpopular - 0.42).abs() < 0.08, "AP unpopular failure {ap_unpopular:.3}");
    assert!(
        odr_unpopular < 0.55 * ap_unpopular,
        "B3: AP {ap_unpopular:.3} vs ODR {odr_unpopular:.3}"
    );

    // Bottleneck 4: ODR nearly eliminates storage-restricted transfers.
    assert!(odr.storage_limited_ratio() < 0.02, "B4: {}", odr.storage_limited_ratio());
    assert!(odr.baseline_b4_ratio() > odr.storage_limited_ratio() * 3.0);

    // Fig 17: the ODR fetch-speed distribution dominates the cloud's at the
    // median while staying under the test environment's line cap.
    let cloud_median = cloud.fetch_speed_ecdf().median().unwrap();
    let odr_median = odr.fetch_speed_ecdf().median().unwrap();
    assert!(
        odr_median > cloud_median,
        "Fig 17: ODR median {odr_median:.0} should beat cloud {cloud_median:.0}"
    );
    assert!(odr.fetch_speed_ecdf().max().unwrap() <= 2370.0 + 1e-9);
}

#[test]
fn cloud_and_ap_predownload_speeds_are_close_in_shape() {
    // §5.2 / Fig 13: the AP speed CDF tracks the cloud's because both use
    // the same sources with similar tooling.
    let study = Study::generate(0.02, 27_182);
    let cloud = replay_cloud(&study);
    let aps = replay_smart_aps(&study, 3000);

    let cloud_speed = cloud.predownload_speed_ecdf();
    let ap_speed = aps.speed_ecdf();
    let cm = cloud_speed.mean().unwrap();
    let am = ap_speed.mean().unwrap();
    assert!(
        (cm - am).abs() / cm.max(am) < 0.5,
        "pre-download speed means should be the same order: cloud {cm:.0} vs AP {am:.0}"
    );

    // …while the failure ratios differ sharply on unpopular files — the
    // paper's complementarity argument.
    let ap_unpopular = aps.unpopular_failure_ratio();
    assert!(ap_unpopular > 0.3, "AP unpopular failure {ap_unpopular}");
    assert!(cloud.failure_ratio() < 0.12, "cloud overall failure {}", cloud.failure_ratio());
}

#[test]
fn popularity_skew_drives_everything() {
    // The workload's popularity skew is the root cause of B2 and B3: a tiny
    // file population carries a large request share, and the request-level
    // class mix matches §4.1.
    let study = Study::generate(0.02, 16_180);
    let (hot_files, hot_requests) =
        study.catalog.class_shares(odx::trace::PopularityClass::HighlyPopular);
    let (unpop_files, unpop_requests) =
        study.catalog.class_shares(odx::trace::PopularityClass::Unpopular);
    assert!(hot_files < 0.012, "highly popular files {hot_files}");
    assert!(hot_requests > 0.30, "highly popular requests {hot_requests}");
    assert!(unpop_files > 0.92, "unpopular files {unpop_files}");
    assert!((0.28..0.44).contains(&unpop_requests), "unpopular requests {unpop_requests}");

    // And the Zipf/SE comparison of Figs 6–7 holds on the generated counts:
    // SE fits at least as well as Zipf.
    let ranked = odx::stats::fit::rank_frequency(&study.catalog.weekly_counts());
    let zipf = odx::stats::fit::fit_zipf(&ranked);
    let se = odx::stats::fit::fit_se_best_c(&ranked, &[0.005, 0.01, 0.02, 0.05]);
    assert!(
        se.avg_rel_error <= zipf.avg_rel_error,
        "SE ({:.3}) should fit no worse than Zipf ({:.3})",
        se.avg_rel_error,
        zipf.avg_rel_error
    );
}

// One registry per run: every `backend.*`, `cache.*` and `cloud.*` metric
// of a replay lands in the registry the caller passed, and the ODR
// evaluation's embedded all-AP baseline keeps its own.

#[test]
fn odr_backend_requests_sum_to_odr_tasks_in_the_run_registry() {
    let study = Study::generate(0.005, 2_718);
    let registry = Registry::new();
    study.replay_odr(400, &Study::paper_default(), &registry, Observers::default());
    let snap = registry.snapshot();
    let proxies: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("backend.") && name.ends_with(".requests"))
        .map(|(_, &n)| n)
        .sum();
    assert_eq!(snap.counters["odr.tasks"], 400);
    assert_eq!(proxies, snap.counters["odr.tasks"], "{:?}", snap.counters);
}

#[test]
fn smart_ap_backend_requests_equal_ap_tasks_in_the_run_registry() {
    let study = Study::generate(0.005, 2_718);
    let registry = Registry::new();
    study.replay_smart_aps(300, &Study::paper_default(), &registry, Observers::default());
    let snap = registry.snapshot();
    assert_eq!(snap.counters["ap.tasks"], 300);
    assert_eq!(snap.counters["backend.smart-ap.requests"], snap.counters["ap.tasks"]);
    // The bench's own attempt counter lands in the same run registry.
    assert_eq!(snap.counters["smartap.attempts"], snap.counters["backend.smart-ap.requests"]);
}
