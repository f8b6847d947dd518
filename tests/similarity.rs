//! Distribution-level cross-system checks using the KS machinery.

use odx::backend::ApBenchReport;
use odx::cloud::WeekReport;
use odx::odr::replay::OdrEvalReport;
use odx::stats::ks::ks_distance;
use odx::stats::Ecdf;
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
fn cloud_and_ap_predownload_speed_cdfs_are_close() {
    // Fig 13 overlays the AP and cloud pre-download speed CDFs and argues
    // they nearly coincide ("smart APs work in a similar way as the
    // pre-downloaders"). Quantify with the KS distance over the *nonzero*
    // (successful) parts of both distributions — the failure masses differ
    // by construction (the cloud only pre-downloads cache misses).
    let study = Study::generate(0.02, 404);
    let cloud = replay_cloud(&study);
    let aps = replay_smart_aps(&study, 4000);

    let cloud_speeds: Vec<f64> = cloud
        .predownloads
        .iter()
        .filter(|r| !r.cache_hit && r.success)
        .map(|r| r.avg_kbps)
        .collect();
    let ap_speeds: Vec<f64> =
        aps.records().iter().filter(|r| r.success).map(|r| r.rate_kbps).collect();

    let d = ks_distance(&Ecdf::new(cloud_speeds), &Ecdf::new(ap_speeds));
    assert!(d < 0.35, "cloud vs AP pre-download speed KS distance {d:.3}");
}

#[test]
fn odr_fetch_cdf_dominates_cloud_fetch_cdf_through_the_body() {
    // Fig 17: the ODR curve sits to the right of the plain-cloud curve
    // through the distribution body (first-order-ish dominance between the
    // 20th and 80th percentiles).
    let study = Study::generate(0.02, 405);
    let cloud = replay_cloud(&study).fetch_speed_ecdf();
    let odr = replay_odr(&study, 4000).fetch_speed_ecdf();
    for q in [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8] {
        let c = cloud.quantile(q).unwrap();
        let o = odr.quantile(q).unwrap();
        assert!(o >= 0.85 * c, "ODR q{q}: {o:.0} should not fall below cloud's {c:.0}");
    }
    assert!(odr.median().unwrap() > cloud.median().unwrap());
}

#[test]
fn streaming_viability_matches_the_impeded_complement() {
    // §4.2's threshold, wired through the streaming model: the fraction of
    // fetches that can view-as-download equals 1 − impeded ratio.
    use odx::cloud::streaming::{streamable_fraction, PlaybackConfig};
    let study = Study::generate(0.01, 406);
    let report = replay_cloud(&study);
    let speeds: Vec<f64> = report.fetches.iter().map(|f| f.avg_kbps).collect();
    let streamable = streamable_fraction(&speeds, &PlaybackConfig::default());
    assert!((streamable - (1.0 - report.impeded_ratio())).abs() < 1e-9);
    assert!((0.55..0.85).contains(&streamable), "{streamable}");
}
