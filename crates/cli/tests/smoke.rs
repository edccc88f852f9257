//! End-to-end smoke tests of the `wms` binary.
//!
//! Modeled on the `assert_cmd` help/usage-assertion idiom; since the
//! build environment is offline (see `DESIGN.md` § "Offline dependency
//! policy"), a small fluent [`Assert`] helper over
//! [`std::process::Command`] stands in for the real crate. Cargo points
//! `CARGO_BIN_EXE_wms` at the freshly built binary.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the `wms` binary with the given arguments.
fn wms(args: &[&str]) -> Assert {
    let out = Command::new(env!("CARGO_BIN_EXE_wms"))
        .args(args)
        .output()
        .expect("spawn wms binary");
    Assert {
        out,
        argv: args.iter().map(|s| s.to_string()).collect(),
    }
}

/// Fluent assertions over one finished invocation (assert_cmd style).
struct Assert {
    out: Output,
    argv: Vec<String>,
}

impl Assert {
    fn context(&self) -> String {
        format!(
            "argv: {:?}\nstatus: {:?}\nstdout:\n{}\nstderr:\n{}",
            self.argv,
            self.out.status.code(),
            String::from_utf8_lossy(&self.out.stdout),
            String::from_utf8_lossy(&self.out.stderr),
        )
    }

    fn success(self) -> Self {
        assert!(
            self.out.status.success(),
            "expected success\n{}",
            self.context()
        );
        self
    }

    fn code(self, expected: i32) -> Self {
        assert_eq!(
            self.out.status.code(),
            Some(expected),
            "wrong exit code\n{}",
            self.context()
        );
        self
    }

    fn stdout_contains(self, needle: &str) -> Self {
        let text = String::from_utf8_lossy(&self.out.stdout);
        assert!(
            text.contains(needle),
            "stdout missing {needle:?}\n{}",
            self.context()
        );
        self
    }

    fn stderr_contains(self, needle: &str) -> Self {
        let text = String::from_utf8_lossy(&self.out.stderr);
        assert!(
            text.contains(needle),
            "stderr missing {needle:?}\n{}",
            self.context()
        );
        self
    }

    fn stdout_str(&self) -> String {
        String::from_utf8_lossy(&self.out.stdout).into_owned()
    }
}

/// Fresh per-test scratch directory under the system temp dir.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("wms-smoke-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    wms(&[])
        .code(2)
        .stderr_contains("missing command")
        .stderr_contains("USAGE:");
}

#[test]
fn help_lists_every_subcommand() {
    let a = wms(&["help"]).success().stdout_contains("USAGE:");
    let text = a.stdout_str();
    for cmd in [
        "generate",
        "embed",
        "detect",
        "attack",
        "inspect",
        "engine",
        "daemon",
        "send",
        "resilience",
        "help",
    ] {
        assert!(
            text.contains(cmd),
            "usage text missing subcommand {cmd:?}:\n{text}"
        );
    }
}

#[test]
fn leading_flag_is_rejected_with_hint() {
    wms(&["--help"])
        .code(2)
        .stderr_contains("expected a command")
        .stderr_contains("try `wms help`");
}

// Dispatch-level errors print through the command's output writer
// (stdout); only argv parse errors go to stderr.

#[test]
fn unknown_command_fails_with_usage() {
    wms(&["frobnicate"])
        .code(2)
        .stdout_contains("unknown command");
}

#[test]
fn missing_required_flag_is_reported() {
    wms(&["generate", "--kind", "irtf"])
        .code(2)
        .stdout_contains("--output");
}

#[test]
fn unknown_flag_is_reported() {
    wms(&["inspect", "--input", "x.csv", "--widnow", "4"])
        .code(2)
        .stdout_contains("widnow");
}

#[test]
fn ring_capacity_is_not_a_flag() {
    // The per-shard ring depth is a constant of the engine, not a knob:
    // both commands reject the flag before opening any file or socket.
    let dir = Scratch::new("ring-capacity");
    let (input, out) = (dir.path("in.csv"), dir.path("out.csv"));
    let sock = format!("unix:{}", dir.path("wmsd.sock"));
    for (cmd, source, at) in [("engine", "--input", &input), ("daemon", "--listen", &sock)] {
        let argv = [
            cmd,
            source,
            at,
            "--output",
            &out,
            "--key",
            "7",
            "--ring-capacity",
            "4",
        ];
        wms(&argv)
            .code(2)
            .stdout_contains(&format!("unknown flag(s) for `{cmd}`: --ring-capacity"));
    }
    assert!(!std::path::Path::new(&out).exists());
}

#[test]
fn generate_embed_detect_round_trip() {
    let dir = Scratch::new("roundtrip");
    let (sensor, licensed, cal) = (
        dir.path("sensor.csv"),
        dir.path("licensed.csv"),
        dir.path("cal.txt"),
    );

    wms(&[
        "generate", "--kind", "irtf", "--n", "6000", "--seed", "7", "--output", &sensor,
    ])
    .success()
    .stdout_contains("wrote 6000 irtf readings");

    wms(&[
        "embed",
        "--input",
        &sensor,
        "--output",
        &licensed,
        "--key",
        "3203239",
        "--calibration",
        &cal,
    ])
    .success()
    .stdout_contains("major extremes");

    wms(&[
        "detect",
        "--input",
        &licensed,
        "--key",
        "3203239",
        "--calibration",
        &cal,
    ])
    .success()
    .stdout_contains("WATERMARK PRESENT");

    // The wrong key must not find Alice's mark.
    wms(&[
        "detect",
        "--input",
        &licensed,
        "--key",
        "999",
        "--calibration",
        &cal,
    ])
    .success()
    .stdout_contains("no watermark evidence");
}

#[test]
fn engine_usage_errors_and_happy_path() {
    // Missing required flags report precisely.
    wms(&["engine", "--input", "x.csv"])
        .code(2)
        .stdout_contains("--output");

    // Happy path on a tiny interleaved flow: two sine streams, small
    // window so the engine has something to embed into.
    let dir = Scratch::new("engine");
    let (flow, marked) = (dir.path("flow.csv"), dir.path("marked.csv"));
    let mut rows = String::from("# stream,value\n");
    for i in 0..900 {
        for id in [1u64, 2] {
            let t = i as f64 + id as f64 * 3.0;
            let v = 2.0 * (t * std::f64::consts::TAU / 45.0).sin()
                + 0.3 * (t * std::f64::consts::TAU / 13.0).sin();
            rows.push_str(&format!("{id},{v}\n"));
        }
    }
    std::fs::write(&flow, rows).expect("write flow");
    wms(&[
        "engine",
        "--input",
        &flow,
        "--output",
        &marked,
        "--key",
        "77",
        "--workers",
        "2",
        "--window",
        "128",
        "--degree",
        "3",
        "--min-active",
        "12",
    ])
    .success()
    .stdout_contains("streams")
    .stdout_contains("stream 1:")
    .stdout_contains("stream 2:");
    assert!(std::path::Path::new(&marked).exists());
}

#[test]
fn resilience_campaign_prints_verdicts() {
    let dir = Scratch::new("resilience");
    let json = dir.path("cells.json");
    wms(&[
        "resilience",
        "--attacks",
        "identity+summarize:2",
        "--items",
        "1600",
        "--trials",
        "2",
        "--path",
        "both",
        "--json",
        &json,
    ])
    .success()
    .stdout_contains("resilience campaign: 4 cells")
    .stdout_contains("summarize:2")
    .stdout_contains("RESILIENT");
    let written = std::fs::read_to_string(&json).expect("json artifact");
    assert!(written.contains("\"schema\": \"wms-bench-resilience/v1\""));

    // Bad attack specs are rejected with a hint.
    wms(&["resilience", "--attacks", "melt:2"])
        .code(2)
        .stdout_contains("unknown attack");
}

#[test]
fn inspect_reports_fluctuation_statistics() {
    let dir = Scratch::new("inspect");
    let sensor = dir.path("sensor.csv");
    wms(&[
        "generate", "--kind", "gaussian", "--n", "4000", "--seed", "11", "--output", &sensor,
    ])
    .success();
    wms(&["inspect", "--input", &sensor])
        .success()
        .stdout_contains("readings:")
        .stdout_contains("extremes");
}

/// The kill-and-resume smoke: a run that checkpoints and "crashes"
/// mid-flight, then resumes, must write a byte-identical output to an
/// uninterrupted run (the CI "Checkpoint smoke" job drives the same flow
/// from the shell).
#[test]
fn engine_kill_and_resume_smoke() {
    let dir = Scratch::new("ck");
    let (flow, full, resumed, ck) = (
        dir.path("flow.csv"),
        dir.path("full.csv"),
        dir.path("resumed.csv"),
        dir.path("state.ck"),
    );
    std::fs::write(
        &flow,
        wms_bench::testkit::offset_sine_flow(&[1, 2, 5], 1200),
    )
    .expect("write flow");
    let base = |output: &str| {
        vec![
            "engine".to_string(),
            "--input".into(),
            flow.clone(),
            "--output".into(),
            output.to_string(),
            "--key".into(),
            "77".into(),
            "--workers".into(),
            "2".into(),
            "--batch".into(),
            "128".into(),
            "--window".into(),
            "256".into(),
            "--degree".into(),
            "3".into(),
            "--min-active".into(),
            "12".into(),
        ]
    };
    // Uninterrupted reference.
    let mut argv = base(&full);
    wms(&argv.iter().map(String::as_str).collect::<Vec<_>>())
        .success()
        .stdout_contains("WATERMARK PRESENT");

    // Crash after 7 batches (checkpoint every 2 → one unreplayed batch).
    argv = base(&resumed);
    argv.extend(
        [
            "--checkpoint-every",
            "2",
            "--checkpoint",
            &ck,
            "--stop-after",
            "7",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    wms(&argv.iter().map(String::as_str).collect::<Vec<_>>())
        .success()
        .stdout_contains("crash simulation");

    // Resume to completion.
    argv = base(&resumed);
    argv.extend(["--resume", &ck].iter().map(|s| s.to_string()));
    wms(&argv.iter().map(String::as_str).collect::<Vec<_>>())
        .success()
        .stdout_contains("resumed from")
        .stdout_contains("WATERMARK PRESENT");

    wms_bench::testkit::assert_byte_identical(
        std::path::Path::new(&full),
        std::path::Path::new(&resumed),
        "engine resumed output vs uninterrupted run",
    );
}
