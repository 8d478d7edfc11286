//! End-to-end tests of the `ptmap` command-line compiler.

use std::io::Write;
use std::process::Command;

fn ptmap() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ptmap"))
}

fn write_kernel(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ptmap-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(text.as_bytes()).unwrap();
    path
}

const KERNEL: &str = r#"
    int A[32][32]; int B[32][32]; int C[32][32];
    #pragma PTMAP
    for (i = 0; i < 32; i++) {
        for (j = 0; j < 32; j++) {
            for (k = 0; k < 32; k++) {
                C[i][j] = C[i][j] + A[i][k] * B[k][j];
            }
        }
    }
    #pragma ENDMAP
"#;

#[test]
fn archs_lists_presets() {
    let out = ptmap().arg("archs").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["S4", "R4", "H6", "SL8", "HReA4"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn parse_round_trips() {
    let path = write_kernel("parse.c", KERNEL);
    let out = ptmap()
        .args(["parse", "--source"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("for (i = 0; i < 32; i++)"));
    assert!(text.contains("; 1 PNLs"));
}

#[test]
fn compile_reports_cycles() {
    let path = write_kernel("compile.c", KERNEL);
    let out = ptmap()
        .args(["compile", "--source"])
        .arg(&path)
        .args(["--arch", "S4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycles"), "{text}");
    assert!(text.contains("PNL 0"));
}

#[test]
fn compile_emit_contexts_disassembles() {
    let path = write_kernel("ctx.c", KERNEL);
    let out = ptmap()
        .args(["compile", "--source"])
        .arg(&path)
        .args(["--arch", "S4", "--emit-contexts"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("context image, II ="));
    assert!(text.contains("mul"));
}

#[test]
fn unknown_arch_fails_cleanly() {
    let path = write_kernel("bad.c", KERNEL);
    let out = ptmap()
        .args(["compile", "--source"])
        .arg(&path)
        .args(["--arch", "Z9"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown architecture"));
}

#[test]
fn parse_error_is_reported() {
    let path = write_kernel(
        "syntax.c",
        "int A[4]; for (i = 1; i < 4; i++) { A[i] = 0; }",
    );
    let out = ptmap()
        .args(["parse", "--source"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("normalized"));
}

#[test]
fn equals_form_flags_accepted() {
    let path = write_kernel("eq.c", KERNEL);
    let out = ptmap()
        .arg("compile")
        .arg(format!("--source={}", path.display()))
        .arg("--arch=S4")
        .arg("--mode=performance")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("cycles"));
}

#[test]
fn unrecognized_flag_is_usage_error() {
    let path = write_kernel("unk.c", KERNEL);
    for extra in ["--frobnicate", "--frobnicate=3", "stray-positional"] {
        let out = ptmap()
            .args(["compile", "--source"])
            .arg(&path)
            .args(["--arch", "S4", extra])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "arg {extra} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
    // A removed flag is as unrecognized as an invented one.
    for (removed, value) in [("--speculate", "auto"), ("--eval-workers", "2")] {
        let out = ptmap()
            .args(["batch", "--manifest", "does-not-matter.json"])
            .args([removed, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "batch {removed} must exit 2");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn trace_sample_without_trace_dir_is_usage_error() {
    for flag in ["--trace-sample=0.5", "--trace-slow-ms=100"] {
        let out = ptmap()
            .args(["batch", "--manifest", "does-not-matter.json", flag])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("require --trace-dir"), "{flag}: {err}");
        assert!(err.contains("usage:"), "{flag}: {err}");
    }
}

#[test]
fn value_flag_without_value_is_usage_error() {
    let out = ptmap().args(["compile", "--source"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--source needs a value"));
}

#[test]
fn help_and_version_exit_zero() {
    for arg in ["help", "--help", "-h"] {
        let out = ptmap().arg(arg).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{arg}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("usage: ptmap"), "{arg}: {text}");
        assert!(text.contains("serve"), "{arg} must list serve: {text}");
    }
    for arg in ["version", "--version", "-V"] {
        let out = ptmap().arg(arg).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{arg}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("ptmap "));
    }
}

#[test]
fn unknown_subcommand_exits_two_with_usage() {
    for args in [vec!["frobnicate"], vec![]] {
        let out = ptmap().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "usage goes to stderr, not stdout");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: ptmap"));
    }
}

#[test]
fn serve_bad_flags_exit_two() {
    let cases: &[&[&str]] = &[
        &["serve", "--workers", "zero"],
        &["serve", "--deadline", "-3"],
        &["serve", "--frobnicate"],
        &["serve", "--learn"],
        &["serve", "--model-dir", "/tmp/models"],
        &["serve", "--train-threshold", "8"],
        &["serve", "--shadow-window", "8"],
        &["serve", "--promote-margin", "0.05"],
        &["serve", "--speculate", "auto"],
        &["serve", "--queue-cap", "8"],
        &["serve", "--max-inflight", "8"],
    ];
    for args in cases {
        let out = ptmap().args(*args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn gateway_bad_flags_exit_two() {
    let cases: &[&[&str]] = &[
        // --peers is mandatory.
        &["gateway"],
        // Empty entries in the peer list are rejected.
        &["gateway", "--peers", "127.0.0.1:7100,,127.0.0.1:7101"],
        &[
            "gateway",
            "--peers",
            "127.0.0.1:7100",
            "--max-retries",
            "many",
        ],
        &["gateway", "--peers", "127.0.0.1:7100", "--frobnicate"],
        &[
            "gateway",
            "--peers",
            "127.0.0.1:7100",
            "--speculate",
            "auto",
        ],
        // Removed knobs: hedging, the stitched-trace export, the
        // backoff step (now a fixed 25 ms), the shared cache tier.
        &[
            "gateway",
            "--peers",
            "127.0.0.1:7100",
            "--hedge-after-ms",
            "5",
        ],
        &[
            "gateway",
            "--peers",
            "127.0.0.1:7100",
            "--trace-dir",
            "/tmp/x",
        ],
        &["gateway", "--peers", "127.0.0.1:7100", "--backoff-ms", "10"],
        &[
            "gateway",
            "--peers",
            "127.0.0.1:7100",
            "--cache-dir",
            "/tmp/x",
        ],
    ];
    for args in cases {
        let out = ptmap().args(*args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
}

#[test]
fn loadtest_bad_flags_exit_two() {
    let cases: &[&[&str]] = &[
        &["loadtest", "--workers", "zero"],
        &["loadtest", "--requests", "-1"],
        &["loadtest", "--frobnicate"],
    ];
    for args in cases {
        let out = ptmap().args(*args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
}

#[test]
fn help_lists_gateway_and_loadtest() {
    let out = ptmap().arg("help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gateway"), "{text}");
    assert!(text.contains("loadtest"), "{text}");
    assert!(text.contains("--peers"), "{text}");
}

#[test]
fn loadtest_against_nothing_exits_nonzero_with_report() {
    // Port 1 is never listening; every request must fail as a connect
    // error and the exit code must reflect it.
    let out = ptmap()
        .args([
            "loadtest",
            "--target",
            "127.0.0.1:1",
            "--workers",
            "2",
            "--requests",
            "4",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "failures must exit nonzero");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("loadtest sent: 4"), "{text}");
    assert!(text.contains("loadtest failed: 4"), "{text}");
    assert!(text.contains("error connect:"), "{text}");
}

#[test]
fn batch_runs_manifest_and_warms_cache() {
    let dir = std::env::temp_dir().join(format!("ptmap-cli-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("jobs.json");
    std::fs::write(
        &manifest,
        r#"{"jobs": [
            {"kernel": "gemm:24", "arch": "S4"},
            {"kernel": "gemm:24", "arch": "R4"},
            {"kernel": "vecsum:64", "arch": "S4", "mode": "pareto"}
        ]}"#,
    )
    .unwrap();
    let cache = dir.join("cache");
    let metrics = dir.join("metrics.json");
    let run = |jobs: &str| {
        ptmap()
            .arg("batch")
            .arg(format!("--manifest={}", manifest.display()))
            .args(["--jobs", jobs])
            .arg(format!("--cache-dir={}", cache.display()))
            .arg(format!("--metrics={}", metrics.display()))
            .output()
            .unwrap()
    };

    let cold = run("2");
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let text = String::from_utf8_lossy(&cold.stdout);
    assert!(text.contains("gemm:24@S4"), "{text}");
    assert!(text.contains("0 cache hits, 3 misses"), "{text}");
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics_text.contains("\"cache_misses\": 3"),
        "{metrics_text}"
    );
    assert!(metrics_text.contains("explore_seconds"), "{metrics_text}");

    // Second run: the on-disk cache satisfies every job.
    let warm = run("1");
    assert!(warm.status.success());
    let text = String::from_utf8_lossy(&warm.stdout);
    assert!(text.contains("3 cache hits, 0 misses"), "{text}");
    assert!(text.contains("[cached]"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_bad_manifest_fails_cleanly() {
    let path = write_kernel("notjson.json", "{ nope");
    let out = ptmap()
        .args(["batch", "--manifest"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("manifest"));
}
