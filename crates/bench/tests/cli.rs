//! CLI-contract tests for the `repro` binary: usage errors exit 2 and
//! name the offending field plus the nearest valid alternative, and the
//! `scenario` inspector keeps stdout pipe-clean canonical JSON.
//!
//! These run the real binary (`CARGO_BIN_EXE_repro`), so they cover the
//! argument parsing and layering that the library tests cannot reach.

use std::path::Path;
use std::process::{Command, Output, Stdio};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_scenario_exits_2_with_a_suggestion() {
    let out = repro(&["headline", "--scenario", "cache-presure"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown scenario `cache-presure`"), "{err}");
    assert!(err.contains("did you mean `cache-pressure`?"), "{err}");
}

#[test]
fn unreadable_scenario_file_exits_2_naming_the_file() {
    let out = repro(&["--scenario-file", "/nonexistent/nope.json", "list"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot read scenario file `/nonexistent/nope.json`"));
}

#[test]
fn bad_set_path_and_value_exit_2_with_field_paths() {
    let out = repro(&["headline", "--set", "demand_fator=2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown config path `demand_fator`"), "{err}");
    assert!(err.contains("did you mean `demand_factor`?"), "{err}");

    let out = repro(&["headline", "--set", "demand_factor=-1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("`demand_factor`"), "{err}");
    assert!(err.contains("must be > 0"), "{err}");

    // Rejected at load, whatever the command: a 1 ms series grid grows
    // without bound over a simulated week.
    let out = repro(&["headline", "--scale", "1e-5", "--set", "telemetry.series_interval_s=0.001"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("`telemetry.series_interval_s`"), "{err}");
    assert!(err.contains("must be >= 1"), "{err}");

    let out = repro(&["headline", "--set", "no-equals-sign"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--set needs dotted.path=value"));
}

#[test]
fn removed_scheduler_knob_exits_2() {
    // The engine has one future-event list and the pool one policy
    // instance; both old knobs are unknown paths.
    for (set, path) in
        [("sim.scheduler=wheel", "sim.scheduler"), ("cache.shards=4", "cache.shards")]
    {
        let out = repro(&["headline", "--set", set]);
        assert_eq!(out.status.code(), Some(2), "--set {set}");
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown config path `{path}`")), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn unknown_subcommand_still_exits_2() {
    // `bench` is gone: perfbench/ is the one timing harness.
    for cmd in ["figg8", "bench"] {
        let out = repro(&[cmd]);
        assert_eq!(out.status.code(), Some(2), "`repro {cmd}`");
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown subcommand `{cmd}`")), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn missing_or_malformed_flag_values_exit_2_naming_the_flag() {
    let valued = [
        "--scenario",
        "--scenario-file",
        "--set",
        "--policy",
        "--scale",
        "--seed",
        "--seeds",
        "--jobs",
        "--sample",
        "--trace-sample",
        "--out",
        "--metrics",
        "--json",
    ];
    for flag in valued {
        let out = repro(&["list", flag]);
        assert_eq!(out.status.code(), Some(2), "`repro list {flag}`: {}", stderr(&out));
        assert!(stderr(&out).contains(&format!("{flag} needs a value")), "{}", stderr(&out));
    }
    for flag in ["--scale", "--seed", "--seeds", "--jobs", "--sample", "--trace-sample"] {
        let out = repro(&["list", flag, "abc"]);
        assert_eq!(out.status.code(), Some(2), "`repro list {flag} abc`: {}", stderr(&out));
        assert!(stderr(&out).contains(&format!("{flag}: invalid value `abc`")), "{}", stderr(&out));
    }
    // Parsable but out of range: no study can be built at these.
    for (flag, value) in [
        ("--scale", "0"),
        ("--scale", "-1"),
        ("--scale", "nan"),
        ("--scale", "inf"),
        ("--sample", "0"),
    ] {
        let out = repro(&["list", flag, value]);
        assert_eq!(out.status.code(), Some(2), "`repro list {flag} {value}`: {}", stderr(&out));
        assert!(stderr(&out).contains(&format!("{flag} must be")), "{}", stderr(&out));
    }
}

#[test]
fn scenario_show_prints_canonical_json_only() {
    let out = repro(&["scenario", "show", "paper-default"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.starts_with('{') && text.ends_with("}\n"), "stdout must be bare JSON: {text}");
    assert!(text.contains("\"name\":\"paper-default\""));
    // Byte-stable: two invocations agree.
    assert_eq!(text, stdout(&repro(&["scenario", "show", "paper-default"])));

    let out = repro(&["scenario", "show", "paper-defalt"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("did you mean `paper-default`?"));
}

#[test]
fn scenario_dump_all_round_trips_through_check() {
    let dump = repro(&["scenario", "dump", "--all"]);
    assert_eq!(dump.status.code(), Some(0));
    let text = stdout(&dump);
    assert!(text.starts_with('[') && text.ends_with("]\n"), "stdout must be a JSON array");

    let mut check = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["scenario", "check"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro scenario check");
    use std::io::Write;
    check.stdin.take().unwrap().write_all(text.as_bytes()).unwrap();
    let out = check.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("ok: 7 scenario(s)"));
}

#[test]
fn scenario_check_rejects_invalid_documents_with_exit_2() {
    let dir = std::env::temp_dir().join("repro-cli-check");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, r#"{"name": "x", "cernet_share": 2}"#).unwrap();
    let out = repro(&["scenario", "check", "--json", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cernet_share"));
}

#[test]
fn example_scenario_file_drives_the_sweep() {
    let example = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campus-pressure.json");
    let out = repro(&[
        "--scenario-file",
        example.to_str().unwrap(),
        "sweep",
        "--scenario",
        "campus-pressure",
        "--seeds",
        "1",
        "--scale",
        "0.0005",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    for cell in ["cache.policy=lru/demand_factor=1", "cache.policy=gdsf/demand_factor=1.5"] {
        assert!(text.contains(cell), "axis cell `{cell}` missing from sweep output:\n{text}");
    }
}

#[test]
fn unwritable_output_paths_exit_2_naming_the_path() {
    // A path inside a regular file can be neither created nor written.
    let dir = std::env::temp_dir().join(format!("repro-cli-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("plain-file");
    std::fs::write(&file, "not a directory").unwrap();
    let target = file.join("m.json");
    let target = target.to_str().unwrap();
    for flag in ["--metrics", "--out"] {
        let out = repro(&["table1", "--scale", "0.0005", flag, target]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = stderr(&out);
        assert!(err.contains("repro: cannot write"), "{flag}: {err}");
        assert!(err.contains(file.to_str().unwrap()), "{flag}: {err}");
        assert!(!err.contains("panicked"), "{flag}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unwritable_metrics_path_fails_before_any_study_runs() {
    let dir = std::env::temp_dir().join(format!("repro-cli-early-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("plain-file");
    std::fs::write(&file, "not a directory").unwrap();
    let target = file.join("m.json");
    let out = repro(&["table1", "--scale", "0.0005", "--metrics", target.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("repro: cannot write"), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(!text.contains("==="), "a section ran before the path was checked:\n{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unreadable_check_trace_input_exits_2_naming_the_file() {
    let out = repro(&["check-trace", "--json", "/nonexistent/t.json"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("repro: cannot read /nonexistent/t.json: "), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn every_figure_command_survives_a_tiny_scale() {
    // At scale 1e-5 the week has a handful of tasks, so some of a figure's
    // CDFs are empty; the row prints an empty measurement instead of
    // panicking.
    let dir = std::env::temp_dir().join(format!("repro-cli-tiny-{}", std::process::id()));
    let commands = [
        "table1",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "headline",
        "fig13",
        "fig14",
        "table2",
        "fig15",
        "fig16",
        "fig17",
        "ablate-cache",
        "ablate-privileged",
        "ablate-storage",
        "ablate-dedup",
        "ablate-ledbat",
        "ablate-concurrency",
        "sweep-userbase",
        "sweep-cache",
        "export-traces",
        "attribute",
    ];
    for cmd in commands {
        let out = repro(&[cmd, "--scale", "1e-5", "--sample", "1", "--out", dir.to_str().unwrap()]);
        let (code, err) = (out.status.code(), stderr(&out));
        assert!(matches!(code, Some(0 | 2)), "`repro {cmd}` exited {code:?}: {err}");
        assert!(!err.contains("panicked"), "`repro {cmd}`: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_all_stdout_matches_the_golden() {
    // Everything but the wall-clock `perf:` line is a pure function of
    // (scenario, scale, seed, sample).
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/repro_all_s2015_scale0005.txt");
    let golden = std::fs::read_to_string(golden).expect("read golden");
    let out = repro(&["all", "--scale", "0.005"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text: String = stdout(&out)
        .lines()
        .filter(|line| !line.starts_with("  perf: "))
        .flat_map(|line| [line, "\n"])
        .collect();
    assert_eq!(text, golden, "`repro all --scale 0.005` stdout drifted from the golden");
}
