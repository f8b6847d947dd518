//! Replay the measurement week on the cloud-based system (§4) and print the
//! statistics behind Figures 8, 9, 10 and 11.
//!
//! ```sh
//! cargo run --release -p odx --example cloud_week -- [scale]
//! ```
//!
//! `scale` defaults to 0.05 (≈ 200k tasks); 1.0 reproduces the paper's full
//! 4.08 M-task week: 12–13 s wall and a 416 MiB peak RSS, end to end, on a
//! shared 2-vCPU host.

use odx::net::kbps_to_gbps;
use odx::telemetry::{Observers, Registry};
use odx::Study;

fn main() {
    let scale: f64 =
        std::env::args().nth(1).map(|s| s.parse().expect("scale must be a number")).unwrap_or(0.05);
    println!("replaying one week on the Xuanfeng model at scale {scale} …");
    let study = Study::generate(scale, 2015);
    let scenario = Study::paper_default();
    let (report, _) = study.replay_cloud(&scenario, &Registry::new(), Observers::default());
    let c = &report.counters;

    println!("\n— headline (§2.1 / §4.1) —");
    println!("requests                      {:>10}", c.requests);
    println!("cache hit ratio               {:>9.1}%   (paper: 89%)", 100.0 * report.hit_ratio());
    println!(
        "pre-download failure ratio    {:>9.1}%   (paper: 8.7%)",
        100.0 * report.failure_ratio()
    );
    println!(
        "pre-download traffic overhead {:>9.0}%   (paper: 196%)",
        100.0 * report.traffic_overhead_factor()
    );

    println!("\n— Fig 8: speeds (KBps) —");
    let pd = report.predownload_speed_ecdf().summary().unwrap();
    let fetch = report.fetch_speed_ecdf().summary().unwrap();
    let e2e = report.end_to_end_speed_ecdf().summary().unwrap();
    println!(
        "pre-downloading  median {:>6.0}  mean {:>6.0}  max {:>6.0}   (paper: 25 / 69 / 2370)",
        pd.median, pd.mean, pd.max
    );
    println!(
        "fetching         median {:>6.0}  mean {:>6.0}  max {:>6.0}   (paper: 287 / 504 / 6100)",
        fetch.median, fetch.mean, fetch.max
    );
    println!(
        "end-to-end       median {:>6.0}  mean {:>6.0}  max {:>6.0}   (paper: 233 / 380 / 6100)",
        e2e.median, e2e.mean, e2e.max
    );

    println!("\n— Fig 9: delays (minutes) —");
    let pdd = report.predownload_delay_ecdf().summary().unwrap();
    let fd = report.fetch_delay_ecdf().summary().unwrap();
    let ed = report.end_to_end_delay_ecdf().summary().unwrap();
    println!(
        "pre-downloading  median {:>6.0}  mean {:>6.0}   (paper: 82 / 370)",
        pdd.median, pdd.mean
    );
    println!("fetching         median {:>6.1}  mean {:>6.1}   (paper: 7 / 27)", fd.median, fd.mean);
    println!(
        "end-to-end       median {:>6.1}  mean {:>6.1}   (paper: 10 / 68)",
        ed.median, ed.mean
    );

    println!("\n— §4.2: Bottleneck 1 decomposition —");
    let fetches = report.fetches.len() as f64;
    println!(
        "impeded fetches (< 125 KBps)  {:>9.1}%   (paper: 28%)",
        100.0 * report.impeded_ratio()
    );
    println!(
        "  ISP barrier                 {:>9.1}%   (paper: 9.6%)",
        100.0 * c.impeded_barrier as f64 / fetches
    );
    println!(
        "  low access bandwidth        {:>9.1}%   (paper: 10.8%)",
        100.0 * c.impeded_low_access as f64 / fetches
    );
    println!(
        "  rejected (no upload bw)     {:>9.1}%   (paper: 1.5%)",
        100.0 * report.rejection_ratio()
    );
    println!(
        "  network dynamics/unknown    {:>9.1}%   (paper: 6.1%)",
        100.0 * c.impeded_dynamics as f64 / fetches
    );

    println!("\n— Fig 10: popularity vs failure ratio —");
    for (w, ratio) in report.failure_by_popularity.iter().take(10) {
        println!("  ~{:>5.0} req/wk: {:>5.1}%", w, 100.0 * ratio);
    }

    println!("\n— Fig 11: upload bandwidth burden —");
    let cap = kbps_to_gbps(odx::cloud::CloudConfig::at_scale(scale).scaled_upload_kbps());
    let (peak_bin, _) = report.burden_kbps.peak_bin();
    println!(
        "peak {:.2} Gbps on day {} (capacity {:.2} Gbps; paper: peak 34 on day 7, capacity 30)",
        report.peak_burden_gbps(),
        peak_bin * 300 / 86_400 + 1,
        cap
    );
    println!(
        "highly-popular files' share of the burden: {:.0}%   (paper: ≈40%)",
        100.0 * report.hot_burden_fraction()
    );

    // A compact day-by-day view of the burden series.
    println!("\nburden by day (mean Gbps): ");
    let bins = report.burden_kbps.values();
    for day in 0..7 {
        let day_bins = &bins[day * 288..((day + 1) * 288).min(bins.len())];
        let mean = day_bins.iter().sum::<f64>() / day_bins.len() as f64;
        let bar = "#".repeat((kbps_to_gbps(mean) / cap * 40.0) as usize);
        println!("  day {}: {:>6.2}  {}", day + 1, kbps_to_gbps(mean), bar);
    }
}
