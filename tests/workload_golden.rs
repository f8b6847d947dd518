//! Golden pin for the generated measurement week. At seed 2015, the
//! request stream `Study::generate` builds, as `(user, file, at)` records
//! of little-endian `u32`, `u32` and `u64` milliseconds, hashes to a fixed
//! FNV-1a-64 digest over a fixed request count. The pins were taken before
//! the arrival sampler gained its per-minute squeeze. Scale 0.05 runs with
//! the suite; the full-scale week (3.8 M requests at this seed) is
//! `#[ignore]`d, and ci.sh runs it with
//! `cargo test --release -p odx --test workload_golden -- --ignored`.

use odx::Study;

/// FNV-1a, 64-bit. Written out because std's `DefaultHasher` is not
/// stable across Rust releases.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `(FNV-1a-64 digest, request count)` of the seed-2015 week at `scale`.
fn workload_pin(scale: f64) -> (u64, usize) {
    let study = Study::generate(scale, 2015);
    let requests = study.workload.requests();
    let digest = requests.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, r| {
        let h = fnv1a64(h, &r.user.to_le_bytes());
        let h = fnv1a64(h, &r.file.to_le_bytes());
        fnv1a64(h, &r.at.as_millis().to_le_bytes())
    });
    (digest, requests.len())
}

#[test]
fn scale_0_05_week_matches_the_golden() {
    assert_eq!(workload_pin(0.05), (0x2f73_050b_5f85_e827, 193_029), "scale-0.05 workload drifted");
}

#[test]
#[ignore = "full-scale week; run with --release -- --ignored"]
fn full_scale_week_matches_the_golden() {
    assert_eq!(workload_pin(1.0), (0x3163_964d_7849_e669, 3_792_362), "scale-1.0 workload drifted");
}
