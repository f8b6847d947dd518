//! The ablations and extensions: counterfactual replays that switch one
//! mechanism off or sweep one knob, each printed against the baseline.

use odx::cloud::CloudConfig;
use odx::net::kbps_to_gbps;
use odx::smartap::ApModel;
use odx::storage::{DeviceKind, FsKind};

use crate::{print_row, section, Ctx};

pub fn cache(ctx: &Ctx) {
    let baseline = ctx.cloud();
    section("Ablation — remove the cloud storage pool (§4.1 counterfactual)");
    let report = ctx.replay(ctx.preset("ablate-cache"));
    print_row(
        "failure ratio with pool",
        "8.7%",
        format!("{:.1}%", 100.0 * baseline.failure_ratio()),
    );
    print_row(
        "failure ratio without pool",
        "16.4%",
        format!("{:.1}%", 100.0 * report.failure_ratio()),
    );
}

pub fn privileged(ctx: &Ctx) {
    let baseline = ctx.cloud();
    section("Ablation — disable privileged-path construction");
    let report = ctx.replay(ctx.preset("ablate-privileged"));
    print_row(
        "impeded fetches, privileged paths on",
        "28%",
        format!("{:.1}%", 100.0 * baseline.impeded_ratio()),
    );
    print_row(
        "impeded fetches, every fetch cross-ISP",
        "(not measured)",
        format!("{:.1}%", 100.0 * report.impeded_ratio()),
    );
    print_row(
        "fetch median, privileged on → off",
        "287 → (collapses)",
        format!(
            "{:.0} → {:.0} KBps",
            baseline.fetch_speed_ecdf().median().unwrap(),
            report.fetch_speed_ecdf().median().unwrap()
        ),
    );
}

pub fn storage(_: &Ctx) {
    section("Ablation — storage sweep: when does the write path bind?");
    println!("  effective rate (MBps) by offered network rate, Newifi-class CPU (580 MHz):");
    println!(
        "  {:<22} {:<6} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "device", "fs", "0.5", "1.0", "2.37", "5.0", "10.0"
    );
    for device in DeviceKind::ALL {
        for fs in FsKind::ALL {
            let rates: Vec<String> = [0.5, 1.0, 2.37, 5.0, 10.0]
                .iter()
                .map(|&offered| {
                    let eff =
                        odx::storage::effective_rate_kbps(device, fs, 580.0, offered * 1000.0)
                            / 1000.0;
                    format!("{eff:>7.2}")
                })
                .collect();
            println!("  {:<22} {:<6} {}", device.to_string(), fs.to_string(), rates.join(""));
        }
    }
    println!("  (cells < offered indicate the storage path, not the network, is binding)");
}

pub fn sweep_userbase(ctx: &Ctx) {
    section("Extension — user-base growth vs fetch rejections (Bottleneck 2's trend)");
    println!("  demand grows while the purchased 30 Gbps (scaled) stays fixed:");
    let preset = ctx.preset("sweep-userbase");
    for factor in [1.0_f64, 1.25, 1.5, 2.0] {
        // Same workload, proportionally less capacity = proportionally more
        // demand per unit capacity.
        let mut scenario = preset.clone();
        scenario.demand_factor = factor;
        let report = ctx.replay(&scenario);
        println!(
            "  demand ×{factor:<4} → rejected {:>5.2}%   impeded {:>5.1}%",
            100.0 * report.rejection_ratio(),
            100.0 * report.impeded_ratio()
        );
    }
    println!("  (paper: \"the cloud will have to reject more (>1.5%) fetching requests\")");
}

pub fn dedup(ctx: &Ctx) {
    let study = ctx.study();
    section("Ablation — chunk-level vs file-level deduplication (§2.1)");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
    let est = odx::cloud::dedup::estimate(
        &study.catalog,
        &odx::cloud::dedup::DedupConfig::default(),
        &mut rng,
    );
    print_row(
        "extra saving of chunk-level dedup",
        "< 1%",
        format!("{:.2}%", 100.0 * est.extra_saving()),
    );
    print_row(
        "index entries: chunks vs files",
        "(much larger)",
        format!("{} vs {}", est.chunk_count, study.catalog.len()),
    );
}

pub fn ledbat(ctx: &Ctx) {
    section("Extension — LEDBAT-style cloud seeding of hot swarms (§6.1 discussion)");
    use odx::p2p::multiplier::{BandwidthMultiplier, SeedGovernor};
    use odx::sim::SimTime;
    let report = ctx.replay(ctx.preset("paper-default"));
    let cap_kbps = CloudConfig::at_scale(ctx.opts.scale).scaled_upload_kbps();
    let mult = BandwidthMultiplier::default();
    let mut governor = SeedGovernor::new(cap_kbps, 300.0);

    // Walk the measured burden series: whatever headroom the fetch traffic
    // leaves becomes background seeding budget, which the multiplier turns
    // into aggregate swarm distribution bandwidth.
    let mut seed_amount_kb = 0.0;
    let mut distributed_kb = 0.0;
    let swarm_size = 120.0; // a typical highly-popular swarm
    for (t, burden) in report.burden_kbps.points() {
        let now = SimTime::from_millis((t * 1000.0) as u64);
        let allowance = governor.allowance_kbps(now, burden);
        let kb = allowance * report.burden_kbps.bin_width();
        if governor.consume(now, kb) {
            seed_amount_kb += kb;
            distributed_kb += kb * mult.multiplier(swarm_size);
        }
    }
    let week_secs = 7.0 * 86_400.0;
    print_row(
        "idle capacity usable for seeding",
        "(unquantified)",
        format!("{:.2} Gbps average", kbps_to_gbps(seed_amount_kb / week_secs)),
    );
    print_row(
        "aggregate distribution via multiplier",
        "(unquantified)",
        format!(
            "{:.1} Gbps average ({:.1}x the seeding spend)",
            kbps_to_gbps(distributed_kb / week_secs),
            mult.multiplier(swarm_size)
        ),
    );
    println!("  (LEDBAT yields to foreground fetches, so rejections are unaffected)");
}

pub fn concurrency(ctx: &Ctx) {
    section("Extension — sequential vs concurrent AP replay (aria2 job slots)");
    use odx::smartap::concurrent::replay_concurrent;
    let study = ctx.study();
    let sample = study.benchmark_sample(ctx.opts.sample.min(300));
    println!(
        "  ({} tasks on MiWiFi; same pre-drawn sources, only concurrency varies)",
        sample.len()
    );
    for slots in [1usize, 2, 4, 8] {
        let report =
            replay_concurrent(ApModel::MiWiFi, &sample, slots, &study.rngs.child("concurrency"));
        println!(
            "  {slots} slot(s): makespan {:>9}  failure {:>5.1}%",
            format!("{}", report.makespan),
            100.0 * report.failure_ratio()
        );
    }
    println!("  (the paper's sequential §5.1 methodology = 1 slot)");
}

pub fn sweep_cache(ctx: &Ctx) {
    section("Extension — storage-pool size vs cache hits and failures");
    println!("  (the paper's pool is 2 PB ≈ catalog-sized; how small could it be?)");
    let mut scenario = ctx.preset("paper-default").clone();
    for fraction in [0.0001_f64, 0.001, 0.01, 0.1, 1.0] {
        scenario.cache_capacity_factor = fraction;
        let report = ctx.replay(&scenario);
        println!(
            "  pool ×{fraction:<7}: hit {:>5.1}%  failure {:>4.1}%  impeded {:>5.1}%",
            100.0 * report.hit_ratio(),
            100.0 * report.failure_ratio(),
            100.0 * report.impeded_ratio()
        );
    }
    println!("  (hits collapse once the LRU can no longer hold the working set)");
}
