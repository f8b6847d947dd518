//! Named experiment scenarios: specs resolved into one runnable value that
//! configures backends, workload tweaks, and the AP fleet.
//!
//! Since the scenarios-as-data refactor every scenario — built-in preset or
//! user file — starts life as an `odx_config::ScenarioSpec` (pure strings
//! and numbers) and becomes a [`Scenario`] only through
//! [`Scenario::from_spec`], which validates numeric bounds (in
//! `odx-config`) and resolves enum names (here, where the vocabularies
//! live). `repro --scenario NAME` resolves in the [`ScenarioRegistry`];
//! `repro --scenario-file f.json` loads user specs into the same registry
//! via [`ScenarioRegistry::load_json`].

use odx_cache::{CacheConfig, PolicyKind};
use odx_config::{ConfigError, Json, ScenarioSpec};
use odx_faults::{FaultsConfig, RetryConfig, RetryKind};
use odx_net::IspMix;
use odx_smartap::ApModel;
use odx_storage::{DeviceKind, FsKind};

use crate::{ApContext, BackendConfig};

/// One named experiment configuration.
///
/// A scenario bundles everything that distinguishes an experiment from the
/// paper's baseline: backend tuning ([`BackendConfig`]), cloud-side feature
/// flags (cache, privileged paths), workload scaling (user-base sweeps),
/// ISP-mix overrides, and the smart-AP fleet under test. The evaluators
/// take a scenario instead of a loose bag of flags, so every run is
/// reproducible from its name — and since the spec refactor, from its
/// canonical JSON dump.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry key (what `repro --scenario` takes).
    pub name: String,
    /// One-line description shown by `repro list`.
    pub summary: String,
    /// Backend tuning knobs.
    pub backend: BackendConfig,
    /// Whether the cloud's collaborative cache is enabled (the §4.3
    /// ablation turns it off).
    pub cache_enabled: bool,
    /// The pool's replacement policy (`repro cache-compare` sweeps it;
    /// every preset defaults to LRU).
    pub cache: CacheConfig,
    /// Multiplier on the pool's byte budget. `1.0` is the paper's 2 PB at
    /// scale 1.0; the `cache-pressure` preset shrinks it so replacement
    /// policies actually differ (at full capacity nothing ever evicts).
    pub cache_capacity_factor: f64,
    /// Whether the cloud's privileged intra-ISP paths are enabled (the
    /// §4.2 ablation turns them off).
    pub privileged_paths: bool,
    /// User-base multiplier: the cloud's per-user upload capacity shrinks
    /// by this factor (the §4 what-if sweep).
    pub demand_factor: f64,
    /// Override for CERNET's share of the user population; the other ISPs'
    /// shares are rescaled proportionally. `None` keeps the default mix.
    pub cernet_share: Option<f64>,
    /// Fault-injection knobs (`faults.*`; zero intensity — no injection —
    /// in every preset, keeping default replays byte-identical).
    pub faults: FaultsConfig,
    /// Retry/backoff knobs (`retry.*`; policy `none` in every preset,
    /// matching the paper's observed no-retry behaviour).
    pub retry: RetryConfig,
    /// The three-AP fleet used by the AP benchmark and ODR's round-robin
    /// AP assignment.
    pub ap_fleet: [ApContext; 3],
    /// Virtual seconds between metric-series samples (`--set
    /// telemetry.series_interval_s=60`). Only consulted by runs that
    /// record a series; it never perturbs the simulated system.
    pub series_interval_s: f64,
}

impl Scenario {
    /// Resolve a validated spec into a runnable scenario: numeric bounds
    /// via [`ScenarioSpec::validate`], then every enum name (cache policy,
    /// AP model, device, filesystem) against its vocabulary — unknown names
    /// fail with the field path and the nearest valid alternative.
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Scenario, ConfigError> {
        spec.validate()?;
        let policy = PolicyKind::parse(&spec.cache.policy).ok_or_else(|| {
            ConfigError::unknown(
                "cache.policy",
                "cache policy",
                &spec.cache.policy,
                PolicyKind::ALL.map(PolicyKind::name),
            )
        })?;
        let retry_kind = RetryKind::parse(&spec.retry.policy).ok_or_else(|| {
            ConfigError::unknown(
                "retry.policy",
                "retry policy",
                &spec.retry.policy,
                RetryKind::ALL.map(RetryKind::name),
            )
        })?;
        let mut fleet = Vec::with_capacity(3);
        for (i, ap) in spec.ap_fleet.iter().enumerate() {
            let model = ApModel::parse(&ap.model).ok_or_else(|| {
                ConfigError::unknown(
                    format!("ap_fleet.{i}.model"),
                    "AP model",
                    &ap.model,
                    ApModel::ALL.map(ApModel::name),
                )
            })?;
            let device = DeviceKind::parse(&ap.device).ok_or_else(|| {
                ConfigError::unknown(
                    format!("ap_fleet.{i}.device"),
                    "storage device",
                    &ap.device,
                    DeviceKind::ALL.map(DeviceKind::name),
                )
            })?;
            let fs = FsKind::parse(&ap.fs).ok_or_else(|| {
                ConfigError::unknown(
                    format!("ap_fleet.{i}.fs"),
                    "filesystem",
                    &ap.fs,
                    FsKind::ALL.map(FsKind::name),
                )
            })?;
            fleet.push(ApContext { model, device, fs });
        }
        Ok(Scenario {
            name: spec.name.clone(),
            summary: spec.summary.clone(),
            backend: BackendConfig {
                dynamics_probability: spec.backend.dynamics_probability,
                warm_cache_pivot: spec.backend.warm_cache_pivot,
                retry_decay: spec.backend.retry_decay,
                cloud_retry_factor: spec.backend.cloud_retry_factor,
                line_payload_kbps: spec.backend.line_payload_kbps,
            },
            cache_enabled: spec.cache_enabled,
            cache: CacheConfig { policy },
            cache_capacity_factor: spec.cache_capacity_factor,
            privileged_paths: spec.privileged_paths,
            demand_factor: spec.demand_factor,
            cernet_share: spec.cernet_share,
            faults: FaultsConfig {
                intensity: spec.faults.intensity,
                window_s: spec.faults.window_s,
                net_slowdown: spec.faults.net_slowdown,
                cloud_slowdown: spec.faults.cloud_slowdown,
                ap_slowdown: spec.faults.ap_slowdown,
            },
            retry: RetryConfig {
                kind: retry_kind,
                base_delay_s: spec.retry.base_delay_s,
                max_attempts: spec.retry.max_attempts,
                jitter: spec.retry.jitter,
            },
            ap_fleet: [fleet[0], fleet[1], fleet[2]],
            series_interval_s: spec.telemetry.series_interval_s,
        })
    }

    /// The spec this scenario resolves from (axes are a registry-level
    /// concern, so the emitted spec has none). `to_spec` → `from_spec` is
    /// the identity.
    pub fn to_spec(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::baseline(&self.name, &self.summary);
        spec.backend.dynamics_probability = self.backend.dynamics_probability;
        spec.backend.warm_cache_pivot = self.backend.warm_cache_pivot;
        spec.backend.retry_decay = self.backend.retry_decay;
        spec.backend.cloud_retry_factor = self.backend.cloud_retry_factor;
        spec.backend.line_payload_kbps = self.backend.line_payload_kbps;
        spec.cache_enabled = self.cache_enabled;
        spec.cache.policy = self.cache.policy.name().to_owned();
        spec.cache_capacity_factor = self.cache_capacity_factor;
        spec.privileged_paths = self.privileged_paths;
        spec.demand_factor = self.demand_factor;
        spec.cernet_share = self.cernet_share;
        spec.faults.intensity = self.faults.intensity;
        spec.faults.window_s = self.faults.window_s;
        spec.faults.net_slowdown = self.faults.net_slowdown;
        spec.faults.cloud_slowdown = self.faults.cloud_slowdown;
        spec.faults.ap_slowdown = self.faults.ap_slowdown;
        spec.retry.policy = self.retry.kind.name().to_owned();
        spec.retry.base_delay_s = self.retry.base_delay_s;
        spec.retry.max_attempts = self.retry.max_attempts;
        spec.retry.jitter = self.retry.jitter;
        for (slot, ctx) in spec.ap_fleet.iter_mut().zip(self.ap_fleet) {
            slot.model = ctx.model.name().to_owned();
            slot.device = ctx.device.name().to_owned();
            slot.fs = ctx.fs.name().to_owned();
        }
        spec.telemetry.series_interval_s = self.series_interval_s;
        spec
    }

    /// The series sampling cadence in engine milliseconds (rounded,
    /// clamped to at least 1 ms so a scenario built by hand, which skips
    /// validation, cannot produce a zero-interval recorder).
    pub fn series_interval_ms(&self) -> u64 {
        (self.series_interval_s * 1000.0).round().max(1.0) as u64
    }

    /// The population's ISP mix under this scenario: the default 2015 mix,
    /// or — when [`Scenario::cernet_share`] is set — CERNET pinned to that
    /// share with every other ISP rescaled proportionally (so the mix still
    /// sums to 1). The share is guaranteed in `[0, 1)` by spec validation.
    pub fn isp_mix(&self) -> IspMix {
        match self.cernet_share {
            Some(cernet) => IspMix::with_cernet_share(cernet),
            None => IspMix::default(),
        }
    }
}

/// Reasons a scenario name is rejected at registration: names key the
/// sweep's `(scenario, seed)` merge and its CSV rows, so the characters
/// the axis expander and the CSV writer reserve are banned.
fn check_name(name: &str) -> Result<(), ConfigError> {
    if name.is_empty() {
        return Err(ConfigError::at("name", "scenario name must not be empty"));
    }
    if name == "all" {
        return Err(ConfigError::at("name", "`all` is the reserved sweep selector"));
    }
    if let Some(bad) = name.chars().find(|c| *c == '/' || *c == ',' || c.is_whitespace()) {
        return Err(ConfigError::at(
            "name",
            format!("scenario name must not contain `{bad}` (reserved for axis expansion and CSV)"),
        ));
    }
    Ok(())
}

/// The scenario registry: built-in presets plus any user specs loaded from
/// scenario files. Every entry is stored as its spec *and* its resolved
/// base scenario (axes stripped), both validated at registration — lookups
/// after that are infallible.
#[derive(Debug, Clone)]
pub struct ScenarioRegistry {
    specs: Vec<ScenarioSpec>,
    scenarios: Vec<Scenario>,
}

impl Default for ScenarioRegistry {
    fn default() -> Self {
        ScenarioRegistry::builtin()
    }
}

impl ScenarioRegistry {
    /// The built-in presets: the paper baseline, the ablations the repro
    /// harness always ran, the what-ifs, and the cache-pressure stress.
    /// Every preset is authored as a delta over [`ScenarioSpec::baseline`]
    /// and resolved through the same pipeline as user scenario files.
    pub fn builtin() -> ScenarioRegistry {
        let mut cernet_heavy = ScenarioSpec::baseline(
            "cernet-heavy",
            "what-if: CERNET serves 30 % of users (campus-dominated population)",
        );
        cernet_heavy.cernet_share = Some(0.30);

        let mut usb3_aps = ScenarioSpec::baseline(
            "usb3-aps",
            "what-if: every benchmark AP upgraded to a USB hard disk formatted EXT4",
        );
        for slot in &mut usb3_aps.ap_fleet {
            slot.device = DeviceKind::UsbHdd.name().to_owned();
            slot.fs = FsKind::Ext4.name().to_owned();
        }

        let mut ablate_cache = ScenarioSpec::baseline(
            "ablate-cache",
            "ablation: cloud collaborative cache disabled (every request re-fetches)",
        );
        ablate_cache.cache_enabled = false;

        let mut ablate_privileged = ScenarioSpec::baseline(
            "ablate-privileged",
            "ablation: privileged intra-ISP upload paths disabled (all fetches cross the barrier)",
        );
        ablate_privileged.privileged_paths = false;

        let mut sweep_userbase = ScenarioSpec::baseline(
            "sweep-userbase",
            "stress: user base grown 1.5x with the same cloud upload capacity",
        );
        sweep_userbase.demand_factor = 1.5;

        let mut cache_pressure = ScenarioSpec::baseline(
            "cache-pressure",
            "stress: pool shrunk to 2 % of the paper's budget (replacement policies diverge)",
        );
        cache_pressure.cache_capacity_factor = 0.02;

        let mut reg = ScenarioRegistry { specs: Vec::new(), scenarios: Vec::new() };
        for spec in [
            ScenarioSpec::baseline(
                "paper-default",
                "the paper's measured configuration (all headline numbers)",
            ),
            ablate_cache,
            ablate_privileged,
            sweep_userbase,
            cernet_heavy,
            usb3_aps,
            cache_pressure,
        ] {
            reg.register(spec).expect("built-in presets always validate");
        }
        reg
    }

    /// Register one spec: the name is checked against the reserved
    /// characters, duplicates are rejected, and the whole axis grid is
    /// trial-resolved so *every* cell a later sweep will run is validated
    /// now — after `register` succeeds, `resolve` cannot fail.
    pub fn register(&mut self, spec: ScenarioSpec) -> Result<(), ConfigError> {
        if self.get(&spec.name).is_some() {
            return Err(ConfigError::at(
                "name",
                format!("scenario `{}` is already defined", spec.name),
            ));
        }
        self.insert(spec)
    }

    /// Validate a spec (name charset plus the whole axis grid) and insert
    /// it, replacing any same-name entry in place.
    fn insert(&mut self, spec: ScenarioSpec) -> Result<(), ConfigError> {
        check_name(&spec.name)?;
        for cell in spec.expand_axes()? {
            Scenario::from_spec(&cell)?;
        }
        let base = Scenario::from_spec(&spec.without_axes())?;
        match self.specs.iter().position(|s| s.name == spec.name) {
            Some(i) => {
                self.specs[i] = spec;
                self.scenarios[i] = base;
            }
            None => {
                self.specs.push(spec);
                self.scenarios.push(base);
            }
        }
        Ok(())
    }

    /// Load a scenario file into the registry: either one scenario object
    /// or an array of them. Each object is a delta over
    /// [`ScenarioSpec::baseline`], or — when it carries a `"base": NAME`
    /// key — over that registered scenario's spec (axes included, so a
    /// file can re-sweep a preset). Later definitions win: a file entry
    /// whose name matches a registered scenario (a built-in preset, or an
    /// earlier file's entry) replaces it in place. Returns how many
    /// scenarios the file defined.
    pub fn load_json(&mut self, text: &str) -> Result<usize, ConfigError> {
        let doc = Json::parse(text)
            .map_err(|e| ConfigError::doc(format!("scenario file is not valid JSON: {e}")))?;
        let entries: Vec<&Json> = match &doc {
            Json::Arr(items) => items.iter().collect(),
            other => vec![other],
        };
        if entries.is_empty() {
            return Err(ConfigError::doc("scenario file declares no scenarios"));
        }
        let mut defined = 0;
        for entry in entries {
            let mut spec = match entry.get("base") {
                Some(Json::Str(base)) => self
                    .spec(base)
                    .cloned()
                    .ok_or_else(|| ConfigError::unknown("base", "scenario", base, self.names()))?,
                Some(other) => {
                    return Err(ConfigError::at(
                        "base",
                        format!("expected a scenario name string (got {other})"),
                    ))
                }
                None => ScenarioSpec::baseline("", ""),
            };
            spec.apply_delta(entry)?;
            self.insert(spec)?;
            defined += 1;
        }
        Ok(defined)
    }

    /// Look up a scenario's resolved base configuration by name (axes
    /// stripped — sweeps expand them via [`ScenarioRegistry::resolve`]).
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Look up a scenario's spec by name (axes included).
    pub fn spec(&self, name: &str) -> Option<&ScenarioSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// All resolved base scenarios, in listing order (paper-default first).
    pub fn all(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// All specs, in listing order (what `scenario dump --all` emits).
    pub fn all_specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// All scenario names, in listing order.
    pub fn names(&self) -> Vec<String> {
        self.scenarios.iter().map(|s| s.name.clone()).collect()
    }

    /// Expand a sweep selector into concrete scenarios: a scenario name
    /// gives that scenario's axis grid (a single cell when it declares no
    /// axes), the reserved selector `all` gives every registered
    /// scenario's grid in listing order, and an unknown name gives `None`.
    /// This is the grid axis `repro sweep --scenario` is expanded with.
    pub fn resolve(&self, selector: &str) -> Option<Vec<Scenario>> {
        let selected: Vec<&ScenarioSpec> = if selector == "all" {
            self.specs.iter().collect()
        } else {
            vec![self.spec(selector)?]
        };
        let mut out = Vec::new();
        for spec in selected {
            for cell in spec.expand_axes().expect("validated at register") {
                out.push(Scenario::from_spec(&cell).expect("validated at register"));
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use odx_cache::PolicyKind;
    use odx_net::Isp;

    use super::*;

    #[test]
    fn registry_resolves_every_documented_preset() {
        let reg = ScenarioRegistry::builtin();
        for name in [
            "paper-default",
            "ablate-cache",
            "ablate-privileged",
            "sweep-userbase",
            "cernet-heavy",
            "usb3-aps",
            "cache-pressure",
        ] {
            assert!(reg.get(name).is_some(), "missing scenario {name}");
            assert!(reg.spec(name).is_some(), "missing spec {name}");
        }
        assert!(reg.get("no-such-scenario").is_none());
        assert_eq!(reg.names()[0], "paper-default");
    }

    #[test]
    fn resolve_expands_all_and_rejects_unknowns() {
        let reg = ScenarioRegistry::builtin();
        let all = reg.resolve("all").unwrap();
        assert_eq!(all.len(), reg.all().len());
        assert_eq!(all[0].name, "paper-default");
        let one = reg.resolve("ablate-cache").unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name, "ablate-cache");
        assert!(reg.resolve("no-such-scenario").is_none());
    }

    #[test]
    fn paper_default_is_the_baseline() {
        let reg = ScenarioRegistry::builtin();
        let s = reg.get("paper-default").unwrap();
        assert!(s.cache_enabled && s.privileged_paths);
        assert_eq!(s.demand_factor, 1.0);
        assert_eq!(s.backend, BackendConfig::default());
        assert_eq!(s.ap_fleet, ApContext::bench_fleet());
        let mix = s.isp_mix();
        let total: f64 = mix.shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    /// The spec baseline in `odx-config` duplicates the engine defaults by
    /// value (it cannot depend on the engine crates); this pin keeps the
    /// two from drifting apart.
    #[test]
    fn spec_baseline_resolves_to_the_engine_defaults() {
        let s = Scenario::from_spec(&ScenarioSpec::baseline("b", "s")).unwrap();
        assert_eq!(s.backend, BackendConfig::default());
        assert_eq!(s.cache, CacheConfig::default());
        assert_eq!(s.ap_fleet, ApContext::bench_fleet());
        assert!(s.cache_enabled && s.privileged_paths);
        assert_eq!((s.cache_capacity_factor, s.demand_factor), (1.0, 1.0));
        assert_eq!(s.cernet_share, None);
    }

    #[test]
    fn spec_round_trips_through_scenario() {
        let reg = ScenarioRegistry::builtin();
        for spec in reg.all_specs() {
            let scenario = Scenario::from_spec(spec).unwrap();
            assert_eq!(&scenario.to_spec(), spec, "{} drifts", spec.name);
            assert_eq!(Scenario::from_spec(&scenario.to_spec()).unwrap(), scenario);
        }
    }

    #[test]
    fn from_spec_rejects_unknown_enum_names_with_suggestions() {
        let mut spec = ScenarioSpec::baseline("x", "");
        spec.cache.policy = "lrru".into();
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert_eq!(err.path, "cache.policy");
        assert!(err.message.contains("did you mean `lru`?"), "{err}");

        let mut spec = ScenarioSpec::baseline("x", "");
        spec.ap_fleet[1].device = "sata-hd".into();
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert_eq!(err.path, "ap_fleet.1.device");
        assert!(err.message.contains("did you mean `sata-hdd`?"), "{err}");

        let mut spec = ScenarioSpec::baseline("x", "");
        spec.ap_fleet[2].fs = "ex4".into();
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert_eq!(err.path, "ap_fleet.2.fs");
        assert!(err.message.contains("did you mean `ext4`?"), "{err}");

        let mut spec = ScenarioSpec::baseline("x", "");
        spec.ap_fleet[0].model = "hiwify".into();
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert_eq!(err.path, "ap_fleet.0.model");
        assert!(err.message.contains("did you mean `hiwifi`?"), "{err}");

        let mut spec = ScenarioSpec::baseline("x", "");
        spec.retry.policy = "exp".into();
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert_eq!(err.path, "retry.policy");
        assert!(err.message.contains("did you mean `expo`?"), "{err}");
    }

    #[test]
    fn every_preset_injects_no_faults_and_never_retries() {
        let reg = ScenarioRegistry::builtin();
        for s in reg.all() {
            assert!(!s.faults.is_active(), "{} injects faults", s.name);
            assert_eq!(s.retry.kind, RetryKind::None, "{} retries", s.name);
        }
        let mut spec = ScenarioSpec::baseline("x", "");
        spec.faults.intensity = 0.2;
        spec.retry.policy = "expo".into();
        let s = Scenario::from_spec(&spec).unwrap();
        assert!(s.faults.is_active());
        assert_eq!(s.retry.kind, RetryKind::Expo);
    }

    #[test]
    fn register_rejects_reserved_and_duplicate_names() {
        let mut reg = ScenarioRegistry::builtin();
        for bad in ["", "all", "a/b", "a,b", "a b"] {
            let err = reg.register(ScenarioSpec::baseline(bad, "")).unwrap_err();
            assert_eq!(err.path, "name", "{bad:?} must fail on the name");
        }
        let err = reg.register(ScenarioSpec::baseline("paper-default", "")).unwrap_err();
        assert!(err.message.contains("already defined"), "{err}");
    }

    #[test]
    fn register_validates_the_whole_axis_grid_up_front() {
        let mut reg = ScenarioRegistry::builtin();
        let mut spec = ScenarioSpec::baseline("bad-grid", "");
        spec.axes
            .insert("cache.policy".into(), vec![Json::Str("lru".into()), Json::Str("lrru".into())]);
        let err = reg.register(spec).unwrap_err();
        assert!(err.message.contains("lrru"), "{err}");
        assert!(reg.get("bad-grid").is_none(), "failed registration must not leak");
    }

    #[test]
    fn load_json_layers_deltas_over_base_scenarios() {
        let mut reg = ScenarioRegistry::builtin();
        let before = reg.all().len();
        reg.load_json(
            r#"[
                {"name": "campus", "base": "cache-pressure", "cernet_share": 0.3},
                {"name": "grid", "demand_factor": 2,
                 "axes": {"cache.policy": ["lru", "gdsf"]}}
            ]"#,
        )
        .unwrap();
        assert_eq!(reg.all().len(), before + 2);
        let campus = reg.get("campus").unwrap();
        assert_eq!(campus.cache_capacity_factor, 0.02, "inherits cache-pressure");
        assert_eq!(campus.cernet_share, Some(0.3));
        let grid = reg.resolve("grid").unwrap();
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].name, "grid/cache.policy=lru");
        assert_eq!(grid[1].cache.policy, PolicyKind::Gdsf);
        assert_eq!(grid[1].demand_factor, 2.0);
        // `all` now includes the user grid's cells.
        assert_eq!(reg.resolve("all").unwrap().len(), before + 1 + 2);
    }

    #[test]
    fn load_json_replaces_same_name_scenarios_in_place() {
        let mut reg = ScenarioRegistry::builtin();
        let names_before = reg.names();
        let defined = reg.load_json(r#"{"name": "paper-default", "demand_factor": 3}"#).unwrap();
        assert_eq!(defined, 1);
        assert_eq!(reg.names(), names_before, "override keeps listing order");
        assert_eq!(reg.get("paper-default").unwrap().demand_factor, 3.0);
        // Re-feeding a full dump back in (what `scenario check` does) is
        // fine: every entry just replaces itself.
        let dump: Vec<String> = reg.all_specs().iter().map(|s| s.to_canonical_json()).collect();
        let doc = format!("[{}]", dump.join(","));
        let mut fresh = ScenarioRegistry::builtin();
        assert_eq!(fresh.load_json(&doc).unwrap(), names_before.len());
        assert_eq!(fresh.get("paper-default").unwrap().demand_factor, 3.0);
    }

    #[test]
    fn load_json_rejects_bad_documents_with_field_paths() {
        let mut reg = ScenarioRegistry::builtin();
        let err = reg.load_json("{not json").unwrap_err();
        assert!(err.message.contains("not valid JSON"), "{err}");
        let err = reg.load_json(r#"{"name": "x", "base": "cache-presure"}"#).unwrap_err();
        assert_eq!(err.path, "base");
        assert!(err.message.contains("did you mean `cache-pressure`?"), "{err}");
        let err = reg.load_json(r#"{"name": "x", "demand_fator": 2}"#).unwrap_err();
        assert!(err.message.contains("did you mean `demand_factor`?"), "{err}");
        let err = reg.load_json(r#"{"demand_factor": 2}"#).unwrap_err();
        assert_eq!(err.path, "name", "missing name must fail on the name");
    }

    #[test]
    fn cernet_heavy_rescales_the_rest_of_the_mix() {
        let reg = ScenarioRegistry::builtin();
        let mix = reg.get("cernet-heavy").unwrap().isp_mix();
        let cernet: f64 =
            mix.shares.iter().filter(|(isp, _)| *isp == Isp::Cernet).map(|(_, s)| s).sum();
        assert!((cernet - 0.30).abs() < 1e-12);
        let total: f64 = mix.shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Relative proportions among the other ISPs are preserved.
        let telecom = mix.shares.iter().find(|(i, _)| *i == Isp::Telecom).unwrap().1;
        let unicom = mix.shares.iter().find(|(i, _)| *i == Isp::Unicom).unwrap().1;
        assert!((telecom / unicom - 0.42 / 0.28).abs() < 1e-12);
    }

    /// Regression: `cernet_share` outside `[0, 1)` used to silently produce
    /// negative ISP shares; now it never reaches `isp_mix`.
    #[test]
    fn out_of_range_cernet_share_cannot_reach_the_mix() {
        let mut spec = ScenarioSpec::baseline("x", "");
        spec.cernet_share = Some(1.5);
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert_eq!(err.path, "cernet_share");
        spec.cernet_share = Some(0.999);
        let mix = Scenario::from_spec(&spec).unwrap().isp_mix();
        assert!(mix.shares.iter().all(|(_, s)| *s >= 0.0), "no negative shares");
    }

    #[test]
    fn usb3_fleet_keeps_models_but_swaps_storage() {
        let reg = ScenarioRegistry::builtin();
        let fleet = reg.get("usb3-aps").unwrap().ap_fleet;
        for (ctx, stock) in fleet.iter().zip(ApContext::bench_fleet()) {
            assert_eq!(ctx.model, stock.model);
            assert_eq!(ctx.device, DeviceKind::UsbHdd);
            assert_eq!(ctx.fs, FsKind::Ext4);
        }
    }

    #[test]
    fn ablations_flip_exactly_one_flag() {
        let reg = ScenarioRegistry::builtin();
        assert!(!reg.get("ablate-cache").unwrap().cache_enabled);
        assert!(reg.get("ablate-cache").unwrap().privileged_paths);
        assert!(!reg.get("ablate-privileged").unwrap().privileged_paths);
        assert!(reg.get("ablate-privileged").unwrap().cache_enabled);
        assert_eq!(reg.get("sweep-userbase").unwrap().demand_factor, 1.5);
    }

    #[test]
    fn series_interval_defaults_to_one_sim_hour_and_converts_to_ms() {
        let reg = ScenarioRegistry::builtin();
        for s in reg.all() {
            assert_eq!(s.series_interval_s, 3600.0, "{} interval", s.name);
            assert_eq!(s.series_interval_ms(), 3_600_000);
        }
        let mut spec = ScenarioSpec::baseline("x", "");
        spec.telemetry.series_interval_s = 60.0;
        let s = Scenario::from_spec(&spec).unwrap();
        assert_eq!(s.series_interval_ms(), 60_000);
        // Sub-second cadences are rejected at load: a 1 ms grid is 604.8 M
        // samples per simulated week.
        spec.telemetry.series_interval_s = 0.0001;
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert_eq!(err.path, "telemetry.series_interval_s");
    }

    #[test]
    fn every_preset_defaults_to_lru() {
        let reg = ScenarioRegistry::builtin();
        for s in reg.all() {
            assert_eq!(s.cache.policy, PolicyKind::Lru, "{} policy", s.name);
        }
    }

    #[test]
    fn cache_pressure_shrinks_only_the_pool() {
        let reg = ScenarioRegistry::builtin();
        let s = reg.get("cache-pressure").unwrap();
        assert_eq!(s.cache_capacity_factor, 0.02);
        assert!(s.cache_enabled && s.privileged_paths);
        assert_eq!(s.demand_factor, 1.0);
        assert_eq!(reg.get("paper-default").unwrap().cache_capacity_factor, 1.0);
    }
}
