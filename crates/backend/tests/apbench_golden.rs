//! Golden per-record outcomes of the §5.1 smart-AP benchmark (seed 4243,
//! scale 0.02, 60 sampled tasks), captured before the benchmark was moved
//! onto the shared `ProxyBackend` layer. A diff here means the refactor
//! changed the replayed outcomes, not just the code structure.

use odx_backend::{ApContext, SmartApBenchmark};
use odx_faults::FaultsConfig;
use odx_sim::RngFactory;
use odx_telemetry::{Observers, Registry};
use odx_trace::{
    sample_benchmark_workload, Catalog, CatalogConfig, Population, PopulationConfig, Workload,
    WorkloadConfig,
};
use rand::SeedableRng;

/// Token-wise comparison: float fields (`key=1.23e4`) within 1e-8 relative,
/// everything else exact.
fn assert_line_matches(actual: &str, golden: &str) {
    let (a, g): (Vec<&str>, Vec<&str>) =
        (actual.split_whitespace().collect(), golden.split_whitespace().collect());
    assert_eq!(a.len(), g.len(), "token count: `{actual}` vs `{golden}`");
    for (at, gt) in a.iter().zip(&g) {
        if at == gt {
            continue;
        }
        let parse = |t: &str| t.split_once('=').and_then(|(_, v)| v.parse::<f64>().ok());
        match (parse(at), parse(gt)) {
            (Some(av), Some(gv)) if (av - gv).abs() <= 1e-8 * gv.abs().max(1.0) => {}
            _ => panic!("golden mismatch: `{actual}` vs `{golden}`"),
        }
    }
}

const GOLDEN_RECORDS: &str = "\
brec 0: ap=HiWiFi success=true cause=None rate=1.7330987055e1 dur_ms=461543 traffic=1.5892771862e1 iowait=3.0783280736e-3 stor=false\n\
brec 1: ap=MiWiFi success=true cause=None rate=2.0247361935e1 dur_ms=43856700 traffic=1.7851673348e3 iowait=2.5372634003e-3 stor=false\n\
brec 2: ap=Newifi success=true cause=None rate=2.8120953026e1 dur_ms=26309 traffic=1.5614357202e0 iowait=4.6868255044e-3 stor=false\n\
brec 3: ap=HiWiFi success=true cause=None rate=4.1518112516e1 dur_ms=2445228 traffic=1.9251699536e2 iowait=7.3744427204e-3 stor=false\n\
brec 4: ap=MiWiFi success=true cause=None rate=6.1395360081e1 dur_ms=2210795 traffic=2.7693375809e2 iowait=7.6936541455e-3 stor=false\n\
brec 5: ap=Newifi success=true cause=None rate=6.5705565920e1 dur_ms=1012048 traffic=7.1225682732e1 iowait=1.0950927653e-2 stor=false\n\
brec 6: ap=HiWiFi success=true cause=None rate=2.5856838549e1 dur_ms=12334841 traffic=6.6604104221e2 iowait=4.5926889074e-3 stor=false\n\
brec 7: ap=MiWiFi success=true cause=None rate=3.8108134943e1 dur_ms=888718 traffic=7.0982249400e1 iowait=4.7754555066e-3 stor=false\n\
brec 8: ap=Newifi success=true cause=None rate=2.5748606959e1 dur_ms=9534549 traffic=4.4120986116e2 iowait=4.2914344932e-3 stor=false\n\
brec 9: ap=HiWiFi success=true cause=None rate=8.2892824066e2 dur_ms=1810 traffic=1.6297319702e0 iowait=1.4723414577e-1 stor=false\n\
brec 10: ap=MiWiFi success=true cause=None rate=2.4822621600e1 dur_ms=40234137 traffic=1.9858055860e3 iowait=3.1106042105e-3 stor=false\n\
brec 11: ap=Newifi success=false cause=Some(InsufficientSeeds) rate=0.0000000000e0 dur_ms=5666101 traffic=2.9392441750e1 iowait=0.0000000000e0 stor=false\n\
brec 12: ap=HiWiFi success=true cause=None rate=1.2891207013e1 dur_ms=6331992 traffic=1.5866989681e2 iowait=2.2897348158e-3 stor=false\n\
brec 13: ap=MiWiFi success=true cause=None rate=4.1424028404e1 dur_ms=1630196 traffic=1.6303827922e2 iowait=5.1909810031e-3 stor=false\n\
brec 14: ap=Newifi success=true cause=None rate=1.6349734230e1 dur_ms=19854256 traffic=5.2551270899e2 iowait=2.7249557050e-3 stor=false\n\
brec 15: ap=HiWiFi success=true cause=None rate=4.0845349015e1 dur_ms=1724209 traffic=1.2351383828e2 iowait=7.2549465390e-3 stor=false\n\
brec 16: ap=MiWiFi success=false cause=Some(InsufficientSeeds) rate=0.0000000000e0 dur_ms=3701360 traffic=6.3606755168e1 iowait=0.0000000000e0 stor=false\n\
brec 17: ap=Newifi success=true cause=None rate=6.9807567201e1 dur_ms=39421 traffic=2.9886802124e0 iowait=1.1634594533e-2 stor=false\n\
brec 18: ap=HiWiFi success=true cause=None rate=2.3975058598e2 dur_ms=11469 traffic=5.0056248492e0 iowait=4.2584473531e-2 stor=false\n\
brec 19: ap=MiWiFi success=true cause=None rate=2.6846706962e1 dur_ms=8256 traffic=3.7110962306e-1 iowait=3.3642489927e-3 stor=false\n\
brec 20: ap=Newifi success=true cause=None rate=5.0550139597e1 dur_ms=24004 traffic=1.9291014461e0 iowait=8.4250232662e-3 stor=false\n\
brec 21: ap=HiWiFi success=true cause=None rate=1.7750722331e1 dur_ms=6007630 traffic=2.2397008300e2 iowait=3.1528814088e-3 stor=false\n\
brec 22: ap=MiWiFi success=true cause=None rate=6.3841320551e1 dur_ms=1535600 traffic=1.4778041567e2 iowait=8.0001654826e-3 stor=false\n\
brec 23: ap=Newifi success=true cause=None rate=1.1009432608e2 dur_ms=5533 traffic=6.5585125427e-1 iowait=1.8349054347e-2 stor=false\n\
brec 24: ap=HiWiFi success=true cause=None rate=6.9654719317e0 dur_ms=1148379 traffic=1.2490770795e1 iowait=1.2372063822e-3 stor=false\n\
brec 25: ap=MiWiFi success=true cause=None rate=6.7163206158e2 dur_ms=109039 traffic=7.9533076119e1 iowait=8.4164418744e-2 stor=false\n\
brec 26: ap=Newifi success=true cause=None rate=2.5563925622e1 dur_ms=1275850 traffic=6.1680450311e1 iowait=4.2606542703e-3 stor=false\n\
brec 27: ap=HiWiFi success=true cause=None rate=2.6355442932e2 dur_ms=1250016 traffic=3.5950695020e2 iowait=4.6812509649e-2 stor=false\n\
brec 28: ap=MiWiFi success=true cause=None rate=8.8223454035e1 dur_ms=339363 traffic=3.2883427441e1 iowait=1.1055570681e-2 stor=false\n\
brec 29: ap=Newifi success=true cause=None rate=1.0450318908e1 dur_ms=118387 traffic=2.9673562840e0 iowait=1.7417198179e-3 stor=false\n\
brec 30: ap=HiWiFi success=true cause=None rate=1.6072902575e1 dur_ms=8968377 traffic=2.8588794777e2 iowait=2.8548672425e-3 stor=false\n\
brec 31: ap=MiWiFi success=true cause=None rate=6.4595847843e1 dur_ms=1029434 traffic=7.1664700643e1 iowait=8.0947177749e-3 stor=false\n\
brec 32: ap=Newifi success=false cause=Some(InsufficientSeeds) rate=0.0000000000e0 dur_ms=5735781 traffic=8.0669840189e0 iowait=0.0000000000e0 stor=false\n\
brec 33: ap=HiWiFi success=true cause=None rate=5.4001506402e0 dur_ms=319489 traffic=3.9372379435e0 iowait=9.5917418120e-4 stor=false\n\
brec 34: ap=MiWiFi success=true cause=None rate=4.1247056948e1 dur_ms=1707417 traffic=1.2562065365e2 iowait=5.1688041289e-3 stor=false\n\
brec 35: ap=Newifi success=true cause=None rate=4.6885804892e1 dur_ms=20289631 traffic=1.5873008970e3 iowait=7.8143008153e-3 stor=false\n\
brec 36: ap=HiWiFi success=true cause=None rate=4.4145869564e1 dur_ms=45089399 traffic=4.6108082612e3 iowait=7.8411846473e-3 stor=false\n\
brec 37: ap=MiWiFi success=true cause=None rate=3.1315959371e1 dur_ms=95335959 traffic=6.9348702789e3 iowait=3.9243056856e-3 stor=false\n\
brec 38: ap=Newifi success=true cause=None rate=1.0559118018e2 dur_ms=3749016 traffic=7.7278336014e2 iowait=1.7598530030e-2 stor=false\n\
brec 39: ap=HiWiFi success=true cause=None rate=5.1734279919e2 dur_ms=15462 traffic=8.7529730228e0 iowait=9.1890372857e-2 stor=false\n\
brec 40: ap=MiWiFi success=true cause=None rate=1.0150301611e1 dur_ms=18970 traffic=3.8821197522e-1 iowait=1.2719676204e-3 stor=false\n\
brec 41: ap=Newifi success=true cause=None rate=1.6011090389e2 dur_ms=49959 traffic=1.6251822514e1 iowait=2.6685150649e-2 stor=false\n\
brec 42: ap=HiWiFi success=false cause=Some(InsufficientSeeds) rate=0.0000000000e0 dur_ms=6706050 traffic=7.1855604299e1 iowait=0.0000000000e0 stor=false\n\
brec 43: ap=MiWiFi success=true cause=None rate=5.1374285788e1 dur_ms=932472 traffic=9.5257121261e1 iowait=6.4378804245e-3 stor=false\n\
brec 44: ap=Newifi success=true cause=None rate=4.5685915965e2 dur_ms=8965564 traffic=4.3854679322e3 iowait=7.6143193276e-2 stor=false\n\
brec 45: ap=HiWiFi success=false cause=Some(SystemBug) rate=0.0000000000e0 dur_ms=3032124 traffic=2.5408936899e-1 iowait=0.0000000000e0 stor=false\n\
brec 46: ap=MiWiFi success=true cause=None rate=3.3654914838e1 dur_ms=11220 traffic=6.4207483497e-1 iowait=4.2174078744e-3 stor=false\n\
brec 47: ap=Newifi success=true cause=None rate=1.1653820309e1 dur_ms=148092 traffic=1.8837896651e0 iowait=1.9423033848e-3 stor=false\n\
brec 48: ap=HiWiFi success=true cause=None rate=1.8371179377e1 dur_ms=4524919 traffic=1.9619639457e2 iowait=3.2630869231e-3 stor=false\n\
brec 49: ap=MiWiFi success=true cause=None rate=2.9149617645e2 dur_ms=164342 traffic=9.0539415703e1 iowait=3.6528342913e-2 stor=false\n\
brec 50: ap=Newifi success=true cause=None rate=8.3857760926e1 dur_ms=3274 traffic=5.4764606300e-1 iowait=1.3976293488e-2 stor=false\n\
brec 51: ap=HiWiFi success=true cause=None rate=3.6473752024e1 dur_ms=3994533 traffic=1.5592379952e2 iowait=6.4784639475e-3 stor=false\n\
brec 52: ap=MiWiFi success=true cause=None rate=1.3908029716e2 dur_ms=655898 traffic=1.5792583840e2 iowait=1.7428608667e-2 stor=false\n\
brec 53: ap=Newifi success=true cause=None rate=2.0265782326e2 dur_ms=470856 traffic=1.7650575504e2 iowait=3.3776303877e-2 stor=false\n\
brec 54: ap=HiWiFi success=true cause=None rate=1.4220194722e0 dur_ms=198433250 traffic=4.7035850958e2 iowait=2.5257894710e-4 stor=false\n\
brec 55: ap=MiWiFi success=true cause=None rate=6.7278583022e0 dur_ms=8134379 traffic=1.2315822712e2 iowait=8.4309001281e-4 stor=false\n\
brec 56: ap=Newifi success=true cause=None rate=3.3030069371e1 dur_ms=976287 traffic=4.8984586913e1 iowait=5.5050115619e-3 stor=false\n\
brec 57: ap=HiWiFi success=false cause=Some(InsufficientSeeds) rate=0.0000000000e0 dur_ms=4237981 traffic=2.5693755024e0 iowait=0.0000000000e0 stor=false\n\
brec 58: ap=MiWiFi success=true cause=None rate=2.1694843873e1 dur_ms=2402287 traffic=1.1449717894e2 iowait=2.7186521144e-3 stor=false\n\
brec 59: ap=Newifi success=false cause=Some(InsufficientSeeds) rate=0.0000000000e0 dur_ms=5309772 traffic=7.5052897731e1 iowait=0.0000000000e0 stor=false\n\
";

#[test]
fn ap_benchmark_matches_pre_refactor_goldens() {
    let seed = 4243u64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
    let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
    let workload = Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
    let sample = sample_benchmark_workload(&workload, &catalog, &population, 60, &mut rng);
    let (report, _) = SmartApBenchmark::replay_observed(
        &sample,
        &ApContext::bench_fleet(),
        &FaultsConfig::default(),
        &RngFactory::new(seed),
        &Registry::new(),
        Observers::default(),
    );

    let golden: Vec<&str> = GOLDEN_RECORDS.lines().collect();
    assert_eq!(report.records().len(), golden.len());
    for (i, (r, line)) in report.records().iter().zip(&golden).enumerate() {
        let actual = format!(
            "brec {i}: ap={:?} success={} cause={:?} rate={:.10e} dur_ms={} traffic={:.10e} iowait={:.10e} stor={}",
            r.ap,
            r.success,
            r.cause,
            r.rate_kbps,
            r.duration.as_millis(),
            r.traffic_mb,
            r.iowait,
            r.storage_limited
        );
        assert_line_matches(&actual, line);
    }
}
