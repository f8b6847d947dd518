//! The paper's tables and figures (Tables 1–2, Figs 5–17), the §4/§5.2/§6.2
//! headlines, and the dataset's trace export.

use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

use odx::cloud::{CloudConfig, WeekReport};
use odx::net::kbps_to_gbps;
use odx::smartap::{table2, ApModel};
use odx::stats::fit::{fit_se, fit_zipf, rank_frequency};
use odx::stats::Ecdf;
use odx::storage::{DeviceKind, FsKind};
use odx_bench::{mmmm, peak_rss_mb, rel};

use crate::{check_write, export, print_row, section, Ctx};

/// Under `--out DIR`, write `ecdf` as a `value\tcdf` TSV named `name`.
fn dump_cdf(ctx: &Ctx, name: &str, ecdf: &Ecdf) {
    let Some(dir) = ctx.opts.out_dir() else { return };
    let mut tsv = String::from("value\tcdf\n");
    for (x, p) in ecdf.curve(512) {
        let _ = writeln!(tsv, "{x}\t{p}");
    }
    export("series", &[(dir.join(name), tsv)], "");
}

pub fn table1(_: &Ctx) {
    section("Table 1 — smart AP hardware configurations");
    println!(
        "  {:<8} {:>9} {:>8}  {:<40} {:<28}",
        "AP", "CPU (MHz)", "RAM (MB)", "storage", "WiFi"
    );
    for ap in ApModel::ALL {
        let s = ap.bench_storage();
        let wifi = if ap.has_80211ac() {
            "802.11 b/g/n/ac @ 2.4/5.0 GHz"
        } else {
            "802.11 b/g/n @ 2.4 GHz"
        };
        println!(
            "  {:<8} {:>9.0} {:>8}  {:<40} {:<28}",
            ap.to_string(),
            ap.cpu_mhz(),
            ap.ram_mb(),
            format!("{} ({})", s.device, s.fs),
            wifi
        );
    }
}

pub fn fig5(ctx: &Ctx) {
    section("Fig 5 — CDF of requested file size (MB)");
    let ecdf = Ecdf::new(ctx.study().catalog.sizes_mb());
    let s = ecdf.summary().unwrap();
    print_row("median", "115 MB", format!("{:.0} MB ({})", s.median, rel(s.median, 115.0)));
    print_row("average", "390 MB", format!("{:.0} MB ({})", s.mean, rel(s.mean, 390.0)));
    print_row("max", "4 GB", format!("{:.0} MB", s.max));
    print_row("fraction below 8 MB", "25%", format!("{:.1}%", 100.0 * ecdf.fraction_below(8.0)));
    dump_cdf(ctx, "fig5_file_size_cdf.tsv", &ecdf);
}

pub fn fig6_fig7(ctx: &Ctx) {
    section("Figs 6–7 — popularity rank-frequency: Zipf vs stretched-exponential");
    let ranked = rank_frequency(&ctx.study().catalog.weekly_counts());
    let zipf = fit_zipf(&ranked);
    let se = fit_se(&ranked, 0.01);
    print_row("Zipf avg rel. fit error", "15.3%", format!("{:.1}%", 100.0 * zipf.avg_rel_error));
    print_row("Zipf exponent a1", "1.034", format!("{:.3}", zipf.a));
    print_row(
        "SE (c=0.01) avg rel. fit error",
        "13.7%",
        format!("{:.1}%", 100.0 * se.avg_rel_error),
    );
    print_row(
        "SE fits better than Zipf",
        "yes",
        if se.avg_rel_error <= zipf.avg_rel_error { "yes".into() } else { "NO".to_string() },
    );
    if let Some(dir) = ctx.opts.out_dir() {
        let mut tsv = String::from("rank\tcount\tzipf_fit\tse_fit\n");
        for (i, y) in ranked.iter().enumerate() {
            let x = (i + 1) as f64;
            let _ = writeln!(tsv, "{x}\t{y}\t{}\t{}", zipf.predict(x), se.predict(x));
        }
        export("series", &[(dir.join("fig6_7_rank_frequency.tsv"), tsv)], "");
    }
}

pub fn fig8(ctx: &Ctx) {
    let report = ctx.cloud();
    section("Fig 8 — CDFs of cloud speeds (KBps)");
    let pd = report.predownload_speed_ecdf();
    let fetch = report.fetch_speed_ecdf();
    let e2e = report.end_to_end_speed_ecdf();
    print_row("pre-downloading (misses)", "med 25 / mean 69", mmmm(pd.summary()));
    print_row("fetching", "med 287 / mean 504", mmmm(fetch.summary()));
    print_row("end-to-end", "med 233 / mean 380", mmmm(e2e.summary()));
    dump_cdf(ctx, "fig8_predownload_speed_cdf.tsv", &pd);
    dump_cdf(ctx, "fig8_fetch_speed_cdf.tsv", &fetch);
    dump_cdf(ctx, "fig8_end_to_end_speed_cdf.tsv", &e2e);
}

pub fn fig9(ctx: &Ctx) {
    let report = ctx.cloud();
    section("Fig 9 — CDFs of cloud delays (minutes)");
    let pd = report.predownload_delay_ecdf();
    let fetch = report.fetch_delay_ecdf();
    let e2e = report.end_to_end_delay_ecdf();
    print_row("pre-downloading (misses)", "med 82 / mean 370", mmmm(pd.summary()));
    print_row("fetching", "med 7 / mean 27", mmmm(fetch.summary()));
    print_row("end-to-end", "med 10 / mean 68", mmmm(e2e.summary()));
    dump_cdf(ctx, "fig9_predownload_delay_cdf.tsv", &pd);
    dump_cdf(ctx, "fig9_fetch_delay_cdf.tsv", &fetch);
    dump_cdf(ctx, "fig9_end_to_end_delay_cdf.tsv", &e2e);
}

pub fn fig10(ctx: &Ctx) {
    let report = ctx.cloud();
    section("Fig 10 — request popularity vs pre-downloading failure ratio");
    println!("  (unpopular < 7/wk, popular 7–84, highly popular > 84; cloud with cache)");
    for (w, ratio) in &report.failure_by_popularity {
        let class = if *w < 7.0 {
            "unpopular"
        } else if *w <= 84.0 {
            "popular"
        } else {
            "highly popular"
        };
        println!("  ~{:>5.0} req/wk  {:>5.1}%  ({class})", w, 100.0 * ratio);
    }
    let first = report.failure_by_popularity.first().map(|p| p.1).unwrap_or(0.0);
    let last = report.failure_by_popularity.last().map(|p| p.1).unwrap_or(0.0);
    print_row(
        "failure falls with popularity",
        "yes",
        if first > last { "yes".into() } else { "NO".into() },
    );
}

pub fn fig11(ctx: &Ctx) {
    let report = ctx.cloud();
    section("Fig 11 — cloud upload bandwidth burden over the week (5-min bins)");
    let cap_gbps = 30.0 * report_scale(report);
    let (peak_bin, _) = report.burden_kbps.peak_bin();
    print_row(
        "peak burden vs 30 Gbps purchased (scaled)",
        "34 Gbps (exceeds)",
        format!("{:.2} Gbps vs {:.2} Gbps cap", report.peak_burden_gbps(), cap_gbps),
    );
    print_row("peak lands on day", "7", format!("{}", peak_bin * 300 / 86_400 + 1));
    print_row(
        "burden share of highly popular files",
        "≈40%",
        format!("{:.0}%", 100.0 * report.hot_burden_fraction()),
    );
    print_row(
        "rejected fetch requests",
        "1.5%",
        format!("{:.2}%", 100.0 * report.rejection_ratio()),
    );
    if let Some(dir) = ctx.opts.out_dir() {
        let mut tsv = String::from("t_secs\tburden_gbps\thot_gbps\n");
        for ((t, all), (_, hot)) in
            report.burden_kbps.points().into_iter().zip(report.burden_hot_kbps.points())
        {
            let _ = writeln!(tsv, "{t}\t{}\t{}", kbps_to_gbps(all), kbps_to_gbps(hot));
        }
        export("series", &[(dir.join("fig11_burden.tsv"), tsv)], "");
    }
}

/// Infer the replay scale from the report (capacity scaling is linear).
fn report_scale(report: &WeekReport) -> f64 {
    // requests / paper tasks
    report.counters.requests as f64 / 4_084_417.0
}

pub fn headline_cloud(ctx: &Ctx) {
    let report = ctx.cloud();
    section("§4 headline statistics (cloud)");
    print_row("cache hit ratio", "89%", format!("{:.1}%", 100.0 * report.hit_ratio()));
    print_row(
        "pre-download failure ratio",
        "8.7%",
        format!("{:.1}%", 100.0 * report.failure_ratio()),
    );
    print_row(
        "pre-download traffic / payload",
        "196%",
        format!("{:.0}%", 100.0 * report.traffic_overhead_factor()),
    );
    print_row(
        "impeded fetches (< 125 KBps)",
        "28%",
        format!("{:.1}%", 100.0 * report.impeded_ratio()),
    );
    let fetches = report.fetches.len() as f64;
    print_row(
        "  of which ISP barrier",
        "9.6%",
        format!("{:.1}%", 100.0 * report.counters.impeded_barrier as f64 / fetches),
    );
    print_row(
        "  of which low access bandwidth",
        "10.8%",
        format!("{:.1}%", 100.0 * report.counters.impeded_low_access as f64 / fetches),
    );
    print_row("  of which rejected", "1.5%", format!("{:.2}%", 100.0 * report.rejection_ratio()));
    print_row(
        "  of which dynamics/unknown",
        "6.1%",
        format!("{:.1}%", 100.0 * report.counters.impeded_dynamics as f64 / fetches),
    );
    if let (Some(wall), Some(eps)) =
        (ctx.metrics.wall("sim.wall_secs"), ctx.metrics.wall("sim.events_per_sec"))
    {
        let rss = peak_rss_mb().map_or(String::new(), |mb| format!(" — peak RSS {mb:.0} MB"));
        println!("  perf: cloud replay {wall:.2}s wall — {eps:.0} events/sec{rss} (wall section, excluded from --metrics)");
    }
}

pub fn fig13(ctx: &Ctx) {
    let report = ctx.aps();
    section("Fig 13 — smart AP pre-downloading speed CDF (KBps)");
    let ecdf = report.speed_ecdf();
    print_row("all APs", "med 27 / mean 64", mmmm(ecdf.summary()));
    for ap in ApModel::ALL {
        let paper = if ap == ApModel::Newifi { "930" } else { "2370" };
        print_row(&format!("max on {ap}"), paper, format!("{:.0}", report.max_speed_kbps(ap)));
    }
    dump_cdf(ctx, "fig13_ap_speed_cdf.tsv", &ecdf);
}

pub fn fig14(ctx: &Ctx) {
    let report = ctx.aps();
    section("Fig 14 — smart AP pre-downloading delay CDF (minutes)");
    let ecdf = report.delay_ecdf();
    print_row("all APs", "med 77 / mean 402", mmmm(ecdf.summary()));
    dump_cdf(ctx, "fig14_ap_delay_cdf.tsv", &ecdf);
}

pub fn headline_aps(ctx: &Ctx) {
    let report = ctx.aps();
    section("§5.2 headline statistics (smart APs)");
    print_row("overall failure ratio", "16.8%", format!("{:.1}%", 100.0 * report.failure_ratio()));
    print_row(
        "unpopular-file failure ratio",
        "42%",
        format!("{:.1}%", 100.0 * report.unpopular_failure_ratio()),
    );
    let [seeds, conn, bug] = report.cause_shares();
    print_row(
        "failure causes (seeds/connection/bugs)",
        "86% / 10% / 4%",
        format!("{:.0}% / {:.0}% / {:.0}%", 100.0 * seeds, 100.0 * conn, 100.0 * bug),
    );
}

/// The §6.2 headline, then the cloud replay's fault/retry taxonomy.
pub fn headline_odr(ctx: &Ctx) {
    use odx::odr::Decision;
    let eval = ctx.odr();
    section("§6.2 headline statistics (ODR)");
    print_row("impeded fetches", "9%", format!("{:.1}%", 100.0 * eval.impeded_ratio()));
    print_row(
        "cloud upload bytes vs all-cloud",
        "-35%",
        format!("{:+.0}%", 100.0 * (eval.cloud_upload_fraction() - 1.0)),
    );
    print_row("incorrect redirections", "<1%", format!("{:.2}%", 100.0 * eval.incorrect_ratio()));
    let counts = eval.decision_counts();
    println!("  decisions per proxy:");
    for d in [
        Decision::UserDevice,
        Decision::Cloud,
        Decision::SmartAp,
        Decision::CloudThenSmartAp,
        Decision::CloudPredownload,
    ] {
        println!("    {:<18} {:>6}", d.to_string(), counts.get(&d).copied().unwrap_or(0));
    }
    fault_taxonomy(ctx.cloud());
}

/// The fault/retry taxonomy of the cloud replay, printed next to the
/// §6.2 decision counts when — and only when — a fault plan or retry
/// policy actually fired. Default runs inject nothing and print nothing,
/// keeping the headline output byte-identical to pre-fault builds.
fn fault_taxonomy(report: &WeekReport) {
    let c = &report.counters;
    if c.fault_windows == 0 && c.retry_attempts == 0 {
        return;
    }
    section("fault injection & recovery (active plan)");
    println!("    {:<34} {:>8}", "injected fault windows", c.fault_windows);
    println!("    {:<34} {:>8}", "  forced pre-download failures", c.fault_forced_failures);
    println!("    {:<34} {:>8}", "  slowed pre-downloads", c.fault_slowed_predownloads);
    println!("    {:<34} {:>8}", "  degraded fetches", c.fault_degraded_fetches);
    println!("    {:<34} {:>8}", "retries attempted", c.retry_attempts);
    println!("    {:<34} {:>8}", "  tasks rescued", c.retry_rescued);
    println!("    {:<34} {:>8}", "  retries exhausted", c.retry_exhausted);
}

pub fn table2(_: &Ctx) {
    section("Table 2 — max pre-download speed (MBps) and iowait per (device, fs)");
    let paper: &[(DeviceKind, FsKind, f64, f64)] = &[
        (DeviceKind::SdCard, FsKind::Fat, 2.37, 0.421),
        (DeviceKind::SataHdd, FsKind::Ext4, 2.37, 0.297),
        (DeviceKind::UsbFlash, FsKind::Fat, 2.12, 0.663),
        (DeviceKind::UsbFlash, FsKind::Ntfs, 0.93, 0.151),
        (DeviceKind::UsbFlash, FsKind::Ext4, 2.13, 0.55),
        (DeviceKind::UsbHdd, FsKind::Fat, 2.37, 0.42),
        (DeviceKind::UsbHdd, FsKind::Ntfs, 1.13, 0.098),
        (DeviceKind::UsbHdd, FsKind::Ext4, 2.37, 0.174),
    ];
    println!(
        "  {:<8} {:<22} {:<6} {:>14} {:>16}",
        "AP", "device", "fs", "speed (paper)", "iowait (paper)"
    );
    for r in table2::table2() {
        let reference = paper.iter().find(|(d, f, _, _)| *d == r.device && *f == r.fs);
        let (ps, pi) = reference.map(|(_, _, s, i)| (*s, *i)).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "  {:<8} {:<22} {:<6} {:>6.2} ({:>5.2}) {:>8.1}% ({:>5.1}%)",
            r.ap.to_string(),
            r.device.to_string(),
            r.fs.to_string(),
            r.max_speed_mbps,
            ps,
            100.0 * r.iowait,
            100.0 * pi
        );
    }
    let best = table2::best_newifi_setup();
    print_row("best Newifi setup", "USB HDD + EXT4", format!("{} + {}", best.device, best.fs));
}

pub fn fig15(_: &Ctx) {
    section("Fig 15 — ODR decision table (the workflow state machine)");
    use odx::odr::{ApContext, OdrEngine, OdrRequest};
    use odx::trace::{PopularityClass, Protocol};
    let engine = OdrEngine::default();
    println!(
        "  {:<15} {:<10} {:<7} {:<8} {:>7}  decision",
        "popularity", "protocol", "cached", "isp", "access"
    );
    let grid = [
        (
            PopularityClass::HighlyPopular,
            Protocol::BitTorrent,
            true,
            odx::net::Isp::Telecom,
            2500.0,
        ),
        (PopularityClass::HighlyPopular, Protocol::BitTorrent, true, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::HighlyPopular, Protocol::Http, true, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::HighlyPopular, Protocol::Http, false, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::Popular, Protocol::BitTorrent, true, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::Popular, Protocol::BitTorrent, true, odx::net::Isp::Other, 400.0),
        (PopularityClass::Popular, Protocol::BitTorrent, true, odx::net::Isp::Telecom, 80.0),
        (PopularityClass::Unpopular, Protocol::BitTorrent, false, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::Unpopular, Protocol::Ftp, true, odx::net::Isp::Telecom, 400.0),
    ];
    for (pop, proto, cached, isp, access) in grid {
        let verdict = engine.decide(&OdrRequest {
            popularity: pop,
            protocol: proto,
            cached_in_cloud: cached,
            isp,
            access_kbps: access,
            ap: Some(ApContext::bench(ApModel::Newifi)),
        });
        println!(
            "  {:<15} {:<10} {:<7} {:<8} {:>7.0}  {}",
            pop.to_string(),
            proto.to_string(),
            cached,
            isp.to_string(),
            access,
            verdict.decision
        );
    }
}

pub fn fig16(ctx: &Ctx) {
    let (cloud, eval) = (ctx.cloud(), ctx.odr());
    section("Fig 16 — the four bottlenecks: baseline vs ODR");
    print_row(
        "B1 impeded fetches",
        "28% → 9%",
        format!("{:.1}% → {:.1}%", 100.0 * cloud.impeded_ratio(), 100.0 * eval.impeded_ratio()),
    );
    let cap = kbps_to_gbps(CloudConfig::at_scale(ctx.opts.scale).scaled_upload_kbps());
    let peak = cloud.peak_burden_gbps();
    let odr_peak = peak * eval.cloud_upload_fraction();
    print_row(
        "B2 purchased / peak burden",
        "0.88 → 1.36",
        format!("{:.2} → {:.2}", cap / peak, cap / odr_peak),
    );
    print_row(
        "B2 cloud upload bytes (vs all-cloud)",
        "-35%",
        format!("{:+.0}%", 100.0 * (eval.cloud_upload_fraction() - 1.0)),
    );
    print_row(
        "B3 unpopular failures (AP → ODR)",
        "42% → 13%",
        format!(
            "{:.1}% → {:.1}%",
            100.0 * eval.baseline_ap().unpopular_failure_ratio(),
            100.0 * eval.unpopular_failure_ratio()
        ),
    );
    print_row(
        "B4 storage restrictions (at-risk → ODR)",
        "avoided",
        format!(
            "{:.1}% → {:.1}%",
            100.0 * eval.baseline_b4_ratio(),
            100.0 * eval.storage_limited_ratio()
        ),
    );
    print_row("incorrect redirections", "<1%", format!("{:.2}%", 100.0 * eval.incorrect_ratio()));
}

pub fn fig17(ctx: &Ctx) {
    section("Fig 17 — fetching speeds using ODR (KBps)");
    let ecdf = ctx.odr().fetch_speed_ecdf();
    print_row("ODR fetches", "med 368 / mean 509 / max 2370", mmmm(ecdf.summary()));
    dump_cdf(ctx, "fig17_odr_fetch_speed_cdf.tsv", &ecdf);
}

/// The workload, pre-download and fetch traces as TSV, into `--out DIR`
/// (default `out/`); the latter two from a `paper-default` replay.
pub fn export_traces(ctx: &Ctx) {
    section("Export — the dataset's three traces as TSV");
    let dir = ctx.opts.out_dir().unwrap_or(Path::new("out"));
    check_write(dir, std::fs::create_dir_all(dir));
    let study = ctx.study();
    let report = ctx.replay(ctx.preset("paper-default"));
    // Every trace streams row by row from its source; none is collected.
    let workload_records = study.workload.requests().iter().map(|r| {
        let user = study.population.user(r.user);
        let file = study.catalog.file(r.file);
        odx::trace::records::WorkloadRecord {
            user_id: r.user,
            isp: user.isp,
            access_kbps: user.reports_bandwidth.then_some(user.access_kbps),
            request_time: r.at,
            file_type: file.ftype,
            size_mb: file.size_mb,
            source_link: file.source_link(),
            protocol: file.protocol,
        }
    });
    write_trace(dir, "workload_trace.tsv", workload_records);
    write_trace(dir, "predownload_trace.tsv", report.predownloads.iter());
    write_trace(dir, "fetch_trace.tsv", report.fetches.iter());
}

/// Stream `records` into `dir/name` as one TSV trace.
fn write_trace<R: odx::trace::io::ToTsv>(
    dir: &Path,
    name: &str,
    records: impl IntoIterator<Item = R>,
) {
    let path = dir.join(name);
    let file = check_write(&path, std::fs::File::create(&path));
    let mut f = std::io::BufWriter::new(file);
    check_write(&path, odx::trace::io::write_tsv(&mut f, records).and_then(|()| f.flush()));
    println!("  wrote {}", path.display());
}
