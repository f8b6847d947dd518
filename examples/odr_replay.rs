//! The §6.2 evaluation: replay a sampled workload through ODR and print the
//! Figure 16 bottleneck comparison and Figure 17 fetch-speed statistics.
//!
//! ```sh
//! cargo run --release -p odx --example odr_replay -- [requests]
//! ```

use odx::telemetry::{Observers, Registry};
use odx::Study;

fn main() {
    let n: usize =
        std::env::args().nth(1).map(|s| s.parse().expect("request count")).unwrap_or(4000);

    println!("replaying {n} sampled requests through ODR …");
    let study = Study::generate(0.05, 623);
    let scenario = Study::paper_default();
    let (cloud, _) = study.replay_cloud(&scenario, &Registry::new(), Observers::default());
    let (eval, _) = study.replay_odr(n, &scenario, &Registry::new(), Observers::default());

    println!("\n— Fig 16: the four bottlenecks, baseline vs ODR —");
    println!(
        "B1 impeded fetches        {:>5.1}%  →  {:>5.1}%   (paper: 28% → 9%)",
        100.0 * cloud.impeded_ratio(),
        100.0 * eval.impeded_ratio()
    );
    let peak = cloud.peak_burden_gbps();
    let cap =
        odx::net::kbps_to_gbps(odx::cloud::CloudConfig::at_scale(study.scale).scaled_upload_kbps());
    let odr_peak = peak * eval.cloud_upload_fraction();
    println!(
        "B2 purchased/peak burden  {:>5.2}   →  {:>5.2}    (paper: 30/34 = 0.88 → 30/22 = 1.36)",
        cap / peak,
        cap / odr_peak
    );
    println!(
        "B3 unpopular AP failures  {:>5.1}%  →  {:>5.1}%   (paper: 42% → 13%)",
        100.0 * eval.baseline_ap().unpopular_failure_ratio(),
        100.0 * eval.unpopular_failure_ratio()
    );
    println!(
        "B4 storage restrictions   {:>5.1}%  →  {:>5.1}%   (paper: \"almost completely avoided\")",
        100.0 * eval.baseline_b4_ratio(),
        100.0 * eval.storage_limited_ratio()
    );

    println!("\n— Fig 17: ODR fetching speeds (KBps) —");
    let s = eval.fetch_speed_ecdf().summary().unwrap();
    println!("median {:>6.0}   (paper: 368; Xuanfeng alone: 287)", s.median);
    println!("mean   {:>6.0}   (paper: 509; Xuanfeng alone: 504)", s.mean);
    println!("max    {:>6.0}   (paper: 2370 — capped by the ADSL test lines)", s.max);

    println!("\n— §6.2: cloud upload burden —");
    println!(
        "cloud bytes under ODR: {:.0}% of the all-cloud baseline (paper: −35% → 65%)",
        100.0 * eval.cloud_upload_fraction()
    );

    println!("\n— decision mix —");
    let mut counts: Vec<_> = eval.decision_counts().into_iter().collect();
    counts.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    for (decision, count) in counts {
        println!(
            "  {:<18} {:>6}  ({:.1}%)",
            decision.to_string(),
            count,
            100.0 * count as f64 / n as f64
        );
    }
    println!("\nincorrect redirections: {:.2}%   (paper: < 1%)", 100.0 * eval.incorrect_ratio());
}
