//! The §5 smart-AP benchmarks: replay the sampled workload on HiWiFi,
//! MiWiFi and Newifi (Figs 13–14), then sweep storage devices and
//! filesystems (Table 2).
//!
//! ```sh
//! cargo run --release -p odx --example smartap_bench -- [requests]
//! ```

use odx::smartap::{table2, ApModel};
use odx::telemetry::{Observers, Registry};
use odx::Study;

fn main() {
    let n: usize =
        std::env::args().nth(1).map(|s| s.parse().expect("request count")).unwrap_or(1000);

    println!("sampling {n} Unicom requests and replaying on three ADSL lines …");
    let study = Study::generate(0.05, 522);
    let scenario = Study::paper_default();
    let (report, _) = study.replay_smart_aps(n, &scenario, &Registry::new(), Observers::default());

    println!("\n— Fig 13: pre-downloading speeds (KBps) —");
    let speed = report.speed_ecdf().summary().unwrap();
    println!("median {:>6.0}   (paper: 27)", speed.median);
    println!("mean   {:>6.0}   (paper: 64)", speed.mean);
    for ap in ApModel::ALL {
        println!(
            "max on {:<7} {:>7.0}   (paper: HiWiFi/MiWiFi 2370, Newifi 930)",
            ap.to_string(),
            report.max_speed_kbps(ap)
        );
    }

    println!("\n— Fig 14: pre-downloading delay (minutes) —");
    let delay = report.delay_ecdf().summary().unwrap();
    println!("median {:>6.0}   (paper: 77)", delay.median);
    println!("mean   {:>6.0}   (paper: 402)", delay.mean);

    println!("\n— §5.2: failures —");
    println!("overall failure ratio    {:>5.1}%   (paper: 16.8%)", 100.0 * report.failure_ratio());
    println!(
        "unpopular-file failures  {:>5.1}%   (paper: 42%)",
        100.0 * report.unpopular_failure_ratio()
    );
    let [seeds, conn, bug] = report.cause_shares();
    println!(
        "failure causes: {:.0}% insufficient seeds / {:.0}% poor connection / {:.0}% bugs",
        100.0 * seeds,
        100.0 * conn,
        100.0 * bug
    );
    println!("(paper: 86% / 10% / 4%)");

    println!("\n— Table 2: max pre-download speed and iowait per (device, fs) —");
    println!("{:<8} {:<22} {:<6} {:>12} {:>9}", "AP", "device", "fs", "speed (MBps)", "iowait");
    for row in table2::table2() {
        println!(
            "{:<8} {:<22} {:<6} {:>12.2} {:>8.1}%",
            row.ap.to_string(),
            row.device.to_string(),
            row.fs.to_string(),
            row.max_speed_mbps,
            100.0 * row.iowait
        );
    }
    let best = table2::best_newifi_setup();
    println!(
        "\nbest Newifi setup (§5.2's recommendation): {} + {} → {:.2} MBps",
        best.device, best.fs, best.max_speed_mbps
    );
}
