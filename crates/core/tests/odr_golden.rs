//! Golden per-task outcomes of the §6.2 ODR replay (seed 4242, scale 0.02,
//! 160 sampled tasks), captured from the inline simulation paths before
//! they were unified behind `ProxyBackend`. Every decision, success flag
//! and outcome figure must keep matching: a diff here means the refactored
//! backends changed behaviour, not just structure.

use odx_odr::replay::OdrReplay;
use odx_sim::RngFactory;
use odx_telemetry::{Observers, Registry};
use odx_trace::{
    sample_eval_workload, Catalog, CatalogConfig, Population, PopulationConfig, Workload,
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

const GOLDEN_TASKS: &str = "\
task 0: dec=CloudPredownload success=true rate=2.0898607212e2 cloud_mb=2.1310741494e2 stor=false b4=false\n\
task 1: dec=SmartAp success=true rate=2.5295187732e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 2: dec=CloudPredownload success=true rate=9.7578596201e2 cloud_mb=1.1233918253e2 stor=false b4=true\n\
task 3: dec=CloudThenSmartAp success=true rate=2.3700000000e3 cloud_mb=1.3379863877e-1 stor=false b4=false\n\
task 4: dec=Cloud success=true rate=4.8888897667e2 cloud_mb=3.1313852255e0 stor=false b4=false\n\
task 5: dec=Cloud success=true rate=1.0304145012e2 cloud_mb=1.0305590049e3 stor=false b4=false\n\
task 6: dec=Cloud success=true rate=1.8024695094e2 cloud_mb=1.6095980164e-2 stor=false b4=false\n\
task 7: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 8: dec=UserDevice success=true rate=9.2317099572e2 cloud_mb=0.0000000000e0 stor=false b4=true\n\
task 9: dec=CloudThenSmartAp success=true rate=2.1925945939e3 cloud_mb=3.5059593451e2 stor=false b4=false\n\
task 10: dec=SmartAp success=true rate=3.0072739661e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 11: dec=UserDevice success=true rate=1.0081641963e3 cloud_mb=0.0000000000e0 stor=false b4=true\n\
task 12: dec=Cloud success=true rate=7.1061818844e2 cloud_mb=3.2950132064e2 stor=false b4=false\n\
task 13: dec=SmartAp success=true rate=1.6908024699e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 14: dec=Cloud success=true rate=7.5093880101e2 cloud_mb=4.6700736115e2 stor=false b4=false\n\
task 15: dec=Cloud success=true rate=8.8099350264e2 cloud_mb=8.3990504529e1 stor=false b4=false\n\
task 16: dec=SmartAp success=true rate=4.3783364826e1 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 17: dec=CloudThenSmartAp success=true rate=9.5923261391e2 cloud_mb=5.0895710584e2 stor=false b4=false\n\
task 18: dec=CloudThenSmartAp success=true rate=2.3700000000e3 cloud_mb=2.8563493952e2 stor=false b4=false\n\
task 19: dec=CloudPredownload success=true rate=1.5530378203e2 cloud_mb=1.8169551110e2 stor=false b4=false\n\
task 20: dec=SmartAp success=true rate=5.4931221559e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 21: dec=Cloud success=true rate=4.0210253804e1 cloud_mb=9.9362160281e2 stor=false b4=false\n\
task 22: dec=SmartAp success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 23: dec=SmartAp success=true rate=2.8751687094e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 24: dec=Cloud success=true rate=1.7137999412e2 cloud_mb=8.3217016473e2 stor=false b4=false\n\
task 25: dec=SmartAp success=true rate=3.5138537625e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 26: dec=CloudThenSmartAp success=true rate=9.5923261391e2 cloud_mb=2.0358963975e2 stor=false b4=false\n\
task 27: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 28: dec=SmartAp success=true rate=2.3691178706e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 29: dec=Cloud success=true rate=1.9953398347e3 cloud_mb=5.0682096505e2 stor=false b4=true\n\
task 30: dec=Cloud success=true rate=1.4866582974e2 cloud_mb=1.7223063988e0 stor=false b4=false\n\
task 31: dec=Cloud success=true rate=7.3943771939e2 cloud_mb=8.1393474503e0 stor=false b4=false\n\
task 32: dec=CloudThenSmartAp success=true rate=9.5923261391e2 cloud_mb=1.4503995726e2 stor=false b4=false\n\
task 33: dec=Cloud success=true rate=8.2800270627e2 cloud_mb=3.7880587740e-1 stor=false b4=false\n\
task 34: dec=Cloud success=true rate=7.6255025044e2 cloud_mb=2.0242976681e2 stor=false b4=false\n\
task 35: dec=SmartAp success=true rate=6.9600550349e1 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 36: dec=SmartAp success=true rate=1.1451166629e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 37: dec=SmartAp success=true rate=2.4669276219e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 38: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 39: dec=Cloud success=true rate=4.2332090588e2 cloud_mb=3.1782809762e2 stor=false b4=false\n\
task 40: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 41: dec=Cloud success=true rate=2.9794782875e2 cloud_mb=5.1171444766e1 stor=false b4=false\n\
task 42: dec=Cloud success=true rate=3.3669231835e2 cloud_mb=1.0260159926e2 stor=false b4=false\n\
task 43: dec=Cloud success=true rate=4.0415183675e2 cloud_mb=7.9119475826e1 stor=false b4=false\n\
task 44: dec=Cloud success=true rate=1.1009453706e3 cloud_mb=1.8252999608e-1 stor=false b4=true\n\
task 45: dec=SmartAp success=true rate=1.7584294563e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 46: dec=Cloud success=true rate=1.6170515723e2 cloud_mb=1.3806033387e3 stor=false b4=false\n\
task 47: dec=CloudPredownload success=true rate=1.6169245458e2 cloud_mb=1.9795396525e3 stor=false b4=false\n\
task 48: dec=SmartAp success=true rate=4.3862423473e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 49: dec=Cloud success=true rate=2.8407205365e2 cloud_mb=4.9474254634e2 stor=false b4=false\n\
task 50: dec=CloudPredownload success=true rate=3.7467962410e2 cloud_mb=2.9997094470e2 stor=false b4=false\n\
task 51: dec=CloudPredownload success=true rate=2.3515361302e3 cloud_mb=1.7556385270e2 stor=false b4=false\n\
task 52: dec=SmartAp success=true rate=2.4833848498e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 53: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 54: dec=Cloud success=true rate=4.3043954052e2 cloud_mb=2.0538127059e2 stor=false b4=false\n\
task 55: dec=SmartAp success=true rate=4.7423475082e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 56: dec=SmartAp success=true rate=4.6086375071e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 57: dec=Cloud success=true rate=2.9548758005e2 cloud_mb=2.4854146938e0 stor=false b4=false\n\
task 58: dec=Cloud success=true rate=3.9885753324e2 cloud_mb=1.6390960772e2 stor=false b4=false\n\
task 59: dec=CloudThenSmartAp success=true rate=9.5923261391e2 cloud_mb=6.6487751512e2 stor=false b4=false\n\
task 60: dec=SmartAp success=true rate=2.3700000000e3 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 61: dec=CloudPredownload success=true rate=2.6516289730e2 cloud_mb=8.7853425125e1 stor=false b4=false\n\
task 62: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 63: dec=Cloud success=true rate=3.4519408654e2 cloud_mb=7.8273843568e2 stor=false b4=false\n\
task 64: dec=Cloud success=true rate=8.1752505177e2 cloud_mb=2.6644681929e3 stor=false b4=false\n\
task 65: dec=Cloud success=true rate=2.6631236507e2 cloud_mb=2.3324468741e2 stor=false b4=false\n\
task 66: dec=SmartAp success=true rate=4.3835932039e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 67: dec=SmartAp success=true rate=4.5315956008e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 68: dec=Cloud success=true rate=1.1699420113e3 cloud_mb=7.9283951816e2 stor=false b4=true\n\
task 69: dec=CloudPredownload success=true rate=1.6296678372e2 cloud_mb=5.9466687684e-1 stor=false b4=false\n\
task 70: dec=SmartAp success=true rate=3.0836447061e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 71: dec=SmartAp success=true rate=4.9381712823e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 72: dec=Cloud success=true rate=1.7459005159e3 cloud_mb=4.3013028607e2 stor=false b4=false\n\
task 73: dec=Cloud success=true rate=9.8193215080e1 cloud_mb=2.1633607611e0 stor=false b4=false\n\
task 74: dec=Cloud success=true rate=1.9297111052e2 cloud_mb=3.2730498560e2 stor=false b4=false\n\
task 75: dec=CloudPredownload success=true rate=1.1487876100e2 cloud_mb=6.7055864762e-2 stor=false b4=false\n\
task 76: dec=SmartAp success=true rate=8.1527855683e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 77: dec=SmartAp success=true rate=5.7269138162e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 78: dec=SmartAp success=true rate=5.6144684277e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 79: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 80: dec=CloudPredownload success=true rate=6.8970297579e2 cloud_mb=1.8786263407e2 stor=false b4=false\n\
task 81: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 82: dec=Cloud success=true rate=4.7868194300e2 cloud_mb=2.0538127059e2 stor=false b4=false\n\
task 83: dec=SmartAp success=true rate=4.2099367224e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 84: dec=SmartAp success=true rate=4.8671185443e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 85: dec=Cloud success=true rate=8.4621116786e1 cloud_mb=3.1782809762e2 stor=false b4=false\n\
task 86: dec=CloudThenSmartAp success=true rate=9.5923261391e2 cloud_mb=1.6474822888e1 stor=false b4=false\n\
task 87: dec=CloudThenSmartAp success=true rate=2.2402583510e3 cloud_mb=4.4313821076e2 stor=false b4=false\n\
task 88: dec=Cloud success=true rate=1.2926140895e3 cloud_mb=6.8695465803e2 stor=false b4=false\n\
task 89: dec=SmartAp success=true rate=1.6857214933e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 90: dec=SmartAp success=true rate=3.4155931267e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 91: dec=Cloud success=true rate=7.9902546053e1 cloud_mb=5.4800041114e0 stor=false b4=false\n\
task 92: dec=Cloud success=true rate=2.8293961647e2 cloud_mb=2.9849181826e2 stor=false b4=false\n\
task 93: dec=SmartAp success=true rate=1.5583091892e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 94: dec=SmartAp success=true rate=1.6035563224e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 95: dec=Cloud success=true rate=7.1465272748e2 cloud_mb=3.0507339031e2 stor=false b4=false\n\
task 96: dec=CloudThenSmartAp success=true rate=1.9294724816e3 cloud_mb=1.9338030430e0 stor=false b4=false\n\
task 97: dec=CloudThenSmartAp success=true rate=2.1030760671e3 cloud_mb=1.8153697213e2 stor=false b4=false\n\
task 98: dec=Cloud success=true rate=1.2007559305e2 cloud_mb=2.3083346895e3 stor=false b4=false\n\
task 99: dec=CloudThenSmartAp success=true rate=2.1968842874e3 cloud_mb=6.7380339364e-1 stor=false b4=false\n\
task 100: dec=SmartAp success=true rate=7.5578819617e1 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 101: dec=Cloud success=true rate=4.5663837316e1 cloud_mb=7.9990000000e0 stor=false b4=false\n\
task 102: dec=CloudThenSmartAp success=true rate=1.9575852151e3 cloud_mb=2.5674584501e-1 stor=false b4=false\n\
task 103: dec=Cloud success=true rate=2.2599902267e2 cloud_mb=1.9026051162e1 stor=false b4=false\n\
task 104: dec=CloudPredownload success=true rate=9.5923261391e2 cloud_mb=4.2457853012e2 stor=false b4=true\n\
task 105: dec=SmartAp success=true rate=2.4600446407e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 106: dec=SmartAp success=true rate=6.5509532398e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 107: dec=Cloud success=true rate=1.4317549013e3 cloud_mb=1.4475813358e2 stor=false b4=true\n\
task 108: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 109: dec=CloudPredownload success=true rate=3.2094829041e2 cloud_mb=8.3586667560e-1 stor=false b4=false\n\
task 110: dec=CloudPredownload success=true rate=4.2199393594e2 cloud_mb=6.6088529630e0 stor=false b4=false\n\
task 111: dec=SmartAp success=true rate=1.7879835158e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 112: dec=Cloud success=true rate=4.3585930603e2 cloud_mb=7.9990000000e0 stor=false b4=false\n\
task 113: dec=CloudPredownload success=true rate=4.5147754425e2 cloud_mb=1.6004374563e2 stor=false b4=false\n\
task 114: dec=Cloud success=true rate=3.5701765911e2 cloud_mb=2.0538127059e2 stor=false b4=false\n\
task 115: dec=Cloud success=true rate=1.0330432233e3 cloud_mb=3.0886796709e1 stor=false b4=false\n\
task 116: dec=SmartAp success=true rate=1.5121533642e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 117: dec=SmartAp success=true rate=9.6244895665e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 118: dec=CloudPredownload success=true rate=1.7826432990e2 cloud_mb=3.5646430331e2 stor=false b4=false\n\
task 119: dec=UserDevice success=true rate=1.7472768799e2 cloud_mb=0.0000000000e0 stor=false b4=true\n\
task 120: dec=CloudPredownload success=true rate=7.6848224310e2 cloud_mb=3.1447046428e0 stor=false b4=false\n\
task 121: dec=SmartAp success=true rate=4.7596445744e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 122: dec=CloudPredownload success=true rate=1.7649059837e2 cloud_mb=6.7185706692e1 stor=false b4=false\n\
task 123: dec=SmartAp success=true rate=1.1684622813e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 124: dec=SmartAp success=true rate=3.9049754390e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 125: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=true\n\
task 126: dec=Cloud success=true rate=3.7205293293e2 cloud_mb=3.1782809762e2 stor=false b4=false\n\
task 127: dec=SmartAp success=true rate=1.9252167470e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 128: dec=CloudPredownload success=true rate=1.2059938797e3 cloud_mb=3.3810680545e2 stor=false b4=true\n\
task 129: dec=SmartAp success=true rate=1.8309565741e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 130: dec=Cloud success=true rate=2.7546003208e2 cloud_mb=1.7673737979e3 stor=false b4=false\n\
task 131: dec=CloudThenSmartAp success=true rate=9.5923261391e2 cloud_mb=1.1095057653e2 stor=false b4=false\n\
task 132: dec=Cloud success=true rate=8.8766357100e1 cloud_mb=3.1782809762e2 stor=false b4=false\n\
task 133: dec=CloudPredownload success=true rate=4.5471817878e2 cloud_mb=1.8368164657e2 stor=false b4=false\n\
task 134: dec=SmartAp success=true rate=4.9687613499e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 135: dec=SmartAp success=true rate=4.0424387735e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 136: dec=CloudThenSmartAp success=true rate=2.3700000000e3 cloud_mb=3.7663360891e0 stor=false b4=false\n\
task 137: dec=Cloud success=true rate=1.6264343962e2 cloud_mb=6.3627351994e2 stor=false b4=false\n\
task 138: dec=SmartAp success=true rate=8.6449734986e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 139: dec=SmartAp success=true rate=2.6803712087e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 140: dec=Cloud success=true rate=4.6974505826e2 cloud_mb=7.7802517548e1 stor=false b4=false\n\
task 141: dec=CloudPredownload success=true rate=1.3807579871e2 cloud_mb=7.9990000000e0 stor=false b4=false\n\
task 142: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 143: dec=Cloud success=true rate=3.3536920142e2 cloud_mb=7.3053121652e0 stor=false b4=true\n\
task 144: dec=SmartAp success=true rate=1.4891689824e2 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 145: dec=CloudPredownload success=true rate=1.8045632850e2 cloud_mb=8.1999234291e2 stor=false b4=false\n\
task 146: dec=Cloud success=true rate=5.0677324328e2 cloud_mb=3.1313852255e0 stor=false b4=false\n\
task 147: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 148: dec=Cloud success=true rate=2.3775063162e2 cloud_mb=7.3036056380e2 stor=false b4=false\n\
task 149: dec=Cloud success=true rate=9.0920094538e2 cloud_mb=2.4463068311e3 stor=false b4=false\n\
task 150: dec=CloudPredownload success=false rate=0.0000000000e0 cloud_mb=0.0000000000e0 stor=false b4=false\n\
task 151: dec=Cloud success=true rate=6.2326458860e2 cloud_mb=2.4854146938e0 stor=false b4=false\n\
task 152: dec=CloudPredownload success=true rate=1.6661447911e2 cloud_mb=3.3018812282e2 stor=false b4=false\n\
task 153: dec=Cloud success=true rate=2.2946951858e2 cloud_mb=8.6754338874e-1 stor=false b4=false\n\
task 154: dec=Cloud success=true rate=4.8104549768e2 cloud_mb=2.1207189130e2 stor=false b4=false\n\
task 155: dec=CloudThenSmartAp success=true rate=9.5923261391e2 cloud_mb=2.8902538950e3 stor=false b4=false\n\
task 156: dec=CloudPredownload success=true rate=4.0646488684e2 cloud_mb=2.5523675891e2 stor=false b4=false\n\
task 157: dec=Cloud success=true rate=3.8803137316e2 cloud_mb=1.2719329839e0 stor=false b4=false\n\
task 158: dec=Cloud success=true rate=1.0342872612e3 cloud_mb=4.4978907453e1 stor=false b4=true\n\
task 159: dec=Cloud success=true rate=3.5317992998e2 cloud_mb=1.9901151912e2 stor=false b4=false\n\
";

#[test]
fn odr_replay_matches_pre_refactor_goldens() {
    let seed = 4242u64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
    let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
    let workload = Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
    let sample = sample_eval_workload(&workload, &catalog, &population, 160, &mut rng);
    let (report, _) = OdrReplay::default().replay_observed(
        &sample,
        &RngFactory::new(seed),
        &Registry::new(),
        Observers::default(),
    );

    let golden: Vec<&str> = GOLDEN_TASKS.lines().collect();
    assert_eq!(report.tasks().len(), golden.len());
    for (i, (t, line)) in report.tasks().iter().zip(&golden).enumerate() {
        let actual = format!(
            "task {i}: dec={:?} success={} rate={:.10e} cloud_mb={:.10e} stor={} b4={}",
            t.verdict.decision,
            t.success,
            t.fetch_kbps,
            t.cloud_upload_mb,
            t.storage_limited,
            t.b4_at_risk
        );
        assert_line_matches(&actual, line);
    }
}
