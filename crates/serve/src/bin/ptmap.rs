//! The `ptmap` command-line compiler.
//!
//! ```text
//! ptmap compile --source kernel.c --arch S4 [--mode pareto]
//!               [--predictor analytical|oracle] [--emit-contexts]
//! ptmap batch   --manifest jobs.json [--jobs N]
//!               [--backend {heuristic|exact|portfolio}]
//!               [--cache-dir DIR] [--metrics out.json] [--out out.json]
//!               [--trace-dir DIR [--trace-sample P] [--trace-slow-ms MS]]
//! ptmap serve   [SERVICE FLAGS] [--workers N] [--queue-cap N]
//!               [--max-inflight N] [--cache-dir DIR] [--max-retries N]
//!               [--trace-sample P] [--trace-slow-ms MS]
//! ptmap gateway --peers HOST:PORT,HOST:PORT,... [SERVICE FLAGS]
//!               [--probe-interval-ms MS] [--failure-threshold N]
//!               [--cooldown-ms MS] [--max-retries N]
//!   SERVICE FLAGS: [--addr HOST:PORT] [--deadline SECS]
//!               [--drain-timeout SECS] [--validate]
//!               [--default-backend {heuristic|exact|portfolio}]
//!               [--log-format {text|json}] [--log-level LEVEL]
//! ptmap loadtest [--target HOST:PORT] [--workers N] [--requests N]
//!                [--seed N] [--distinct N] [--deadline-ms MS]
//!                [--log-format {text|json}] [--log-level LEVEL]
//! ptmap archs
//! ptmap parse --source kernel.c
//! ```
//!
//! `kernel.c` is the C-like `#pragma PTMAP` dialect accepted by
//! `ptmap_ir::parse`. Flags accept both `--flag value` and
//! `--flag=value`; unrecognized arguments are usage errors (exit 2).
//! The GNN-assisted flow needs a trained model: `compile` ships the
//! analytical and oracle predictors, while `batch` manifests may also
//! reference checkpoints with `"predictor": "gnn:<model.json>"`.
//! `serve` (the compile daemon) and `gateway` (its sharding front)
//! share one set of service flags and one boot-and-drain path.

use ptmap_arch::{presets, CgraArch};
use ptmap_core::{PtMap, PtMapConfig};
use ptmap_eval::{AnalyticalPredictor, IiPredictor, OraclePredictor, RankMode};
use ptmap_ir::dfg::build_dfg;
use ptmap_ir::parse::parse_program;
use ptmap_mapper::{generate_contexts, map_dfg, MapperConfig};
use ptmap_pipeline::{run_batch, BatchConfig, Manifest};
use ptmap_serve::{Gateway, Server};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compile") => compile(&args[1..]),
        Some("batch") => batch(&args[1..]),
        Some("serve") => service(&args[1..], false),
        Some("gateway") => service(&args[1..], true),
        Some("loadtest") => loadtest(&args[1..]),
        Some("parse") => parse(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{}", usage_text());
            ExitCode::SUCCESS
        }
        Some("version" | "--version" | "-V") => {
            println!("ptmap {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        Some("archs") => {
            if let Err(e) = Flags::parse(&args[1..], &[], &[]) {
                return usage_error(&e);
            }
            for a in presets::evaluation_suite()
                .iter()
                .chain([&presets::hrea4()])
            {
                println!(
                    "{:<6} {}x{} PEs, CB {} contexts, DB {} KiB",
                    a.name(),
                    a.rows(),
                    a.cols(),
                    a.cb_capacity(),
                    a.db_bytes() / 1024
                );
            }
            ExitCode::SUCCESS
        }
        _ => {
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn usage_text() -> &'static str {
    "usage: ptmap <compile|batch|serve|gateway|loadtest|parse|archs|help|version> [options]\n\
     \x20 compile --source FILE --arch {S4|R4|H6|SL8|HReA4}\n\
     \x20         [--arch-file custom.json]\n\
     \x20         [--mode {performance|pareto}]\n\
     \x20         [--predictor {analytical|oracle}] [--emit-contexts]\n\
     \x20 batch   --manifest jobs.json [--jobs N]\n\
     \x20         [--backend {heuristic|exact|portfolio}]\n\
     \x20         [--cache-dir DIR] [--metrics out.json] [--out out.json]\n\
     \x20         [--validate] [--deadline SECS] [--job-timeout SECS]\n\
     \x20         [--max-retries N]\n\
     \x20         [--trace-dir DIR [--trace-sample P] [--trace-slow-ms MS]]\n\
     \x20 serve   [SERVICE FLAGS] [--workers N] [--queue-cap N]\n\
     \x20         [--max-inflight N] [--cache-dir DIR] [--max-retries N]\n\
     \x20         [--trace-sample P] [--trace-slow-ms MS]\n\
     \x20 gateway --peers HOST:PORT,HOST:PORT,... [SERVICE FLAGS]\n\
     \x20         [--probe-interval-ms MS] [--failure-threshold N]\n\
     \x20         [--cooldown-ms MS] [--max-retries N]\n\
     \x20   SERVICE FLAGS: [--addr HOST:PORT] [--deadline SECS]\n\
     \x20         [--drain-timeout SECS] [--validate]\n\
     \x20         [--default-backend {heuristic|exact|portfolio}]\n\
     \x20         [--log-format {text|json}] [--log-level {debug|info|warn|error}]\n\
     \x20 loadtest [--target HOST:PORT] [--workers N] [--requests N]\n\
     \x20         [--seed N] [--distinct N] [--deadline-ms MS]\n\
     \x20         [--log-format {text|json}] [--log-level {debug|info|warn|error}]\n\
     \x20 parse   --source FILE"
}

fn print_usage() {
    eprintln!("{}", usage_text());
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    print_usage();
    ExitCode::from(2)
}

/// Strictly parsed flags: every argument must be a declared value flag
/// (`--flag value` or `--flag=value`) or boolean flag; anything else is
/// a usage error.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Flags, String> {
        let mut values = BTreeMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(body) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg}"));
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (body, None),
            };
            let flag = format!("--{name}");
            if value_flags.contains(&flag.as_str()) {
                let value = match inline {
                    Some(v) => v.to_string(),
                    None => {
                        i += 1;
                        args.get(i)
                            .cloned()
                            .ok_or_else(|| format!("{flag} needs a value"))?
                    }
                };
                if values.insert(flag.clone(), value).is_some() {
                    return Err(format!("{flag} given twice"));
                }
            } else if bool_flags.contains(&flag.as_str()) {
                if inline.is_some() {
                    return Err(format!("{flag} takes no value"));
                }
                switches.push(flag);
            } else {
                return Err(format!("unrecognized flag {flag}"));
            }
            i += 1;
        }
        Ok(Flags { values, switches })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }
}

fn load_source(flags: &Flags) -> Result<ptmap_ir::Program, String> {
    let path = flags.get("--source").ok_or("missing --source FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("kernel");
    parse_program(name, &text).map_err(|e| format!("{path}: {e}"))
}

fn load_arch(flags: &Flags) -> Result<CgraArch, String> {
    if let Some(path) = flags.get("--arch-file") {
        return ptmap_arch::io::load(path).map_err(|e| e.to_string());
    }
    ptmap_pipeline::manifest::resolve_arch(flags.get("--arch").unwrap_or("S4"))
}

fn parse(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args, &["--source"], &[]) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    match load_source(&flags) {
        Ok(p) => {
            println!("{}", p.to_pseudo_c());
            println!("; {} PNLs", p.perfect_nests().len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compile(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(
        args,
        &["--source", "--arch", "--arch-file", "--mode", "--predictor"],
        &["--emit-contexts"],
    ) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let result = (|| -> Result<(), String> {
        let program = load_source(&flags)?;
        let arch = load_arch(&flags)?;
        let mode = match flags.get("--mode").unwrap_or("performance") {
            "performance" => RankMode::Performance,
            "pareto" => RankMode::Pareto,
            other => return Err(format!("unknown mode {other}")),
        };
        let predictor: Box<dyn IiPredictor + Send + Sync> =
            match flags.get("--predictor").unwrap_or("analytical") {
                "analytical" => Box::new(AnalyticalPredictor),
                "oracle" => Box::new(OraclePredictor::default()),
                other => return Err(format!("unknown predictor {other}")),
            };
        let config = PtMapConfig {
            mode,
            ..PtMapConfig::default()
        };
        let ptmap = PtMap::new(predictor, config);
        let report = ptmap.compile(&program, &arch).map_err(|e| e.to_string())?;
        println!("{report}");
        if flags.has("--emit-contexts") {
            // Re-map the identity nests to show concrete context images
            // for each PNL of the *original* program (the chosen
            // transformed contexts are embedded in the report's PNLs).
            for (i, nest) in program.perfect_nests().iter().enumerate() {
                let dfg = build_dfg(&program, nest, &[]).map_err(|e| e.to_string())?;
                let mapping =
                    map_dfg(&dfg, &arch, &MapperConfig::default()).map_err(|e| e.to_string())?;
                println!("; ---- PNL {i} (identity mapping) ----");
                println!("{}", generate_contexts(&dfg, &mapping, &arch));
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn batch(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(
        args,
        &[
            "--manifest",
            "--jobs",
            "--backend",
            "--cache-dir",
            "--metrics",
            "--out",
            "--deadline",
            "--job-timeout",
            "--max-retries",
            "--trace-dir",
            "--trace-sample",
            "--trace-slow-ms",
        ],
        &["--validate"],
    ) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    // Flag-combination errors are usage errors (exit 2), like any other
    // bad flag — catch them before the runtime closure (exit 1).
    if flags.get("--trace-dir").is_none()
        && (flags.get("--trace-sample").is_some() || flags.get("--trace-slow-ms").is_some())
    {
        return usage_error("--trace-sample / --trace-slow-ms require --trace-dir");
    }
    let result = (|| -> Result<bool, String> {
        let path = flags.get("--manifest").ok_or("missing --manifest FILE")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let jobs = Manifest::from_json(&text)?.resolve()?;
        let workers = parse_count(flags.get("--jobs"), "--jobs", 1)?;
        let mut base = PtMapConfig::default();
        // Run the mapping invariant validator on every accepted mapping.
        // Part of the cache key, so validated and unvalidated runs do
        // not share entries.
        base.mapper.validate = flags.has("--validate");
        // Mapper backend (heuristic / exact / portfolio). Also part of
        // the cache key: exact results never alias heuristic entries.
        if let Some(b) = parse_backend(flags.get("--backend"), "--backend")? {
            base.mapper.backend = b;
        }
        let budget = match parse_seconds(flags.get("--deadline"), "--deadline")? {
            Some(d) => ptmap_governor::Budget::with_deadline(d),
            None => ptmap_governor::Budget::unlimited(),
        };
        let defaults = BatchConfig::default();
        let config = BatchConfig {
            workers,
            cache_dir: flags.get("--cache-dir").map(Into::into),
            base,
            job_timeout: parse_seconds(flags.get("--job-timeout"), "--job-timeout")?,
            budget,
            max_retries: parse_retries(&flags, defaults.max_retries)?,
            trace: match flags.get("--trace-dir") {
                Some(dir) => Some(ptmap_pipeline::TraceSettings {
                    dir: Some(dir.into()),
                    sample: parse_sample(flags.get("--trace-sample"), "--trace-sample")?
                        .unwrap_or(1.0),
                    slow_ms: parse_ms(flags.get("--trace-slow-ms"), "--trace-slow-ms")?,
                }),
                None => None,
            },
        };
        let batch = run_batch(&jobs, &config);
        for (o, m) in batch.outcomes.iter().zip(&batch.metrics.jobs) {
            match (&o.report, &o.error) {
                (Some(r), _) => println!(
                    "{:<24} {:>12} cycles  EDP {:>10.3e}  {:>6.2}s{}{}",
                    o.name,
                    r.cycles,
                    r.edp,
                    m.wall_seconds,
                    if o.cache_hit { "  [cached]" } else { "" },
                    match &o.degraded {
                        Some(d) => format!("  [degraded: {d}]"),
                        None => String::new(),
                    }
                ),
                (None, Some(e)) => println!("{:<24} FAILED: {e}", o.name),
                (None, None) => unreachable!("outcome without report or error"),
            }
        }
        println!(
            "{} jobs in {:.2}s ({} workers): {} cache hits, {} misses{}",
            batch.outcomes.len(),
            batch.metrics.wall_seconds,
            batch.metrics.workers,
            batch.metrics.cache_hits,
            batch.metrics.cache_misses,
            if batch.metrics.cache_quarantines > 0 {
                format!(", {} quarantined", batch.metrics.cache_quarantines)
            } else {
                String::new()
            }
        );
        if let Some(out) = flags.get("--out") {
            write_json(out, &batch.outcomes)?;
        }
        if let Some(out) = flags.get("--metrics") {
            write_json(out, &batch.metrics)?;
        }
        let failed: Vec<_> = batch
            .outcomes
            .iter()
            .filter(|o| o.report.is_none())
            .collect();
        if !failed.is_empty() {
            eprintln!("{} of {} jobs failed:", failed.len(), batch.outcomes.len());
            for o in &failed {
                eprintln!(
                    "  {:<24} class={:<18} retries={}{}  {}",
                    o.name,
                    o.error_class.as_deref().unwrap_or("unknown"),
                    o.retries,
                    match &o.degraded {
                        Some(d) => format!(" degraded={d}"),
                        None => String::new(),
                    },
                    o.error.as_deref().unwrap_or("")
                );
            }
        }
        Ok(failed.is_empty())
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Value flags `serve` and `gateway` share.
const SERVICE_FLAGS: [&str; 6] = [
    "--addr",
    "--deadline",
    "--drain-timeout",
    "--default-backend",
    "--log-format",
    "--log-level",
];

/// `ptmap serve` and `ptmap gateway`: parse the flags, bind, print the
/// boot line, serve until SIGTERM/SIGINT, drain, exit 0.
fn service(args: &[String], gateway: bool) -> ExitCode {
    let (own, switches): (&[&str], &[&str]) = if gateway {
        (
            &[
                "--peers",
                "--probe-interval-ms",
                "--failure-threshold",
                "--cooldown-ms",
                "--max-retries",
            ],
            &["--validate"],
        )
    } else {
        (
            &[
                "--workers",
                "--queue-cap",
                "--max-inflight",
                "--cache-dir",
                "--max-retries",
                "--trace-sample",
                "--trace-slow-ms",
            ],
            &["--validate"],
        )
    };
    let flags = match Flags::parse(args, &[&SERVICE_FLAGS[..], own].concat(), switches) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    // Config errors are usage errors (exit 2) and are caught before
    // anything binds.
    let booted = if gateway {
        gateway_config(&flags).map(|c| boot(Gateway::bind(c), Gateway::local_addr, Gateway::run))
    } else {
        serve_config(&flags).map(|c| boot(Server::bind(c), Server::local_addr, Server::run))
    };
    booted.unwrap_or_else(|e| usage_error(&e))
}

/// Prints the boot line of a bound service and runs it to the end of
/// its drain.
fn boot<S, R>(
    bound: std::io::Result<S>,
    local_addr: fn(&S) -> std::io::Result<std::net::SocketAddr>,
    run: fn(S) -> R,
) -> ExitCode {
    let (service, addr) = match bound.and_then(|s| Ok((local_addr(&s)?, s))) {
        Ok((addr, s)) => (s, addr),
        Err(e) => {
            eprintln!("error: binding listener: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The boot line is the contract with supervisors and tests: with
    // `--addr ...:0` it is the only way to learn the port.
    println!("listening on {addr}");
    ptmap_serve::signal::install_handlers();
    // Bind installed the process-wide event log; a panic should dump
    // the flight recorder before the backtrace.
    ptmap_trace::obs::install_panic_hook();
    run(service);
    ExitCode::SUCCESS
}

/// The settings both services take from [`SERVICE_FLAGS`] and
/// `--validate`.
struct Shared {
    addr: String,
    base: PtMapConfig,
    default_timeout: std::time::Duration,
    drain_timeout: std::time::Duration,
    log_level: ptmap_trace::obs::Level,
    log_format: ptmap_trace::obs::LogFormat,
}

/// Parses the shared service flags over the service's own defaults.
fn shared(
    flags: &Flags,
    addr: &str,
    default_timeout: std::time::Duration,
    drain_timeout: std::time::Duration,
) -> Result<Shared, String> {
    // The gateway computes request keys under the same base config, so
    // its flags must match the peers' or routing and caches disagree.
    let mut base = PtMapConfig::default();
    base.mapper.validate = flags.has("--validate");
    // Service-wide default quality tier; clients may override it per
    // request with the `X-Ptmap-Quality` header.
    if let Some(b) = parse_backend(flags.get("--default-backend"), "--default-backend")? {
        base.mapper.backend = b;
    }
    Ok(Shared {
        addr: flags.get("--addr").unwrap_or(addr).to_string(),
        base,
        default_timeout: parse_seconds(flags.get("--deadline"), "--deadline")?
            .unwrap_or(default_timeout),
        drain_timeout: parse_seconds(flags.get("--drain-timeout"), "--drain-timeout")?
            .unwrap_or(drain_timeout),
        log_level: parse_log_level(flags.get("--log-level"))?,
        log_format: parse_log_format(flags.get("--log-format"))?,
    })
}

/// Parses `--max-retries`, falling back to `default`.
fn parse_retries(flags: &Flags, default: u32) -> Result<u32, String> {
    match flags.get("--max-retries") {
        Some(t) => t
            .parse::<u32>()
            .map_err(|_| format!("--max-retries must be a non-negative integer, got {t}")),
        None => Ok(default),
    }
}

/// Builds the daemon configuration from `serve` flags.
fn serve_config(flags: &Flags) -> Result<ptmap_serve::ServeConfig, String> {
    let defaults = ptmap_serve::ServeConfig::default();
    let shared = shared(
        flags,
        &defaults.addr,
        defaults.default_timeout,
        defaults.drain_timeout,
    )?;
    let count = |flag: &str, default: usize| parse_count(flags.get(flag), flag, default);
    Ok(ptmap_serve::ServeConfig {
        addr: shared.addr,
        workers: count("--workers", defaults.workers)?,
        queue_cap: count("--queue-cap", defaults.queue_cap)?,
        max_inflight: count("--max-inflight", defaults.max_inflight)?,
        cache_dir: flags.get("--cache-dir").map(Into::into),
        base: shared.base,
        max_retries: parse_retries(flags, defaults.max_retries)?,
        default_timeout: shared.default_timeout,
        drain_timeout: shared.drain_timeout,
        trace_sample: parse_sample(flags.get("--trace-sample"), "--trace-sample")?
            .unwrap_or(defaults.trace_sample),
        trace_slow_ms: parse_ms(flags.get("--trace-slow-ms"), "--trace-slow-ms")?,
        log_level: shared.log_level,
        log_format: shared.log_format,
    })
}

/// Builds the gateway configuration from `gateway` flags.
fn gateway_config(flags: &Flags) -> Result<ptmap_serve::GatewayConfig, String> {
    let defaults = ptmap_serve::GatewayConfig::default();
    let mut peers: Vec<String> = Vec::new();
    for entry in flags
        .get("--peers")
        .ok_or("missing --peers HOST:PORT,...")?
        .split(',')
    {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err("--peers has an empty entry (double comma?)".to_string());
        }
        peers.push(entry.to_string());
    }
    if peers.is_empty() {
        return Err("--peers needs at least one HOST:PORT".to_string());
    }
    let shared = shared(
        flags,
        &defaults.addr,
        defaults.default_timeout,
        defaults.drain_timeout,
    )?;
    Ok(ptmap_serve::GatewayConfig {
        addr: shared.addr,
        peers,
        probe_interval: parse_ms(flags.get("--probe-interval-ms"), "--probe-interval-ms")?
            .map(std::time::Duration::from_millis)
            .unwrap_or(defaults.probe_interval),
        failure_threshold: match flags.get("--failure-threshold") {
            Some(t) => t.parse::<u32>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                format!("--failure-threshold must be a positive integer, got {t}")
            })?,
            None => defaults.failure_threshold,
        },
        cooldown: parse_ms(flags.get("--cooldown-ms"), "--cooldown-ms")?
            .map(std::time::Duration::from_millis)
            .unwrap_or(defaults.cooldown),
        max_retries: parse_retries(flags, defaults.max_retries)?,
        base: shared.base,
        default_timeout: shared.default_timeout,
        drain_timeout: shared.drain_timeout,
        log_level: shared.log_level,
        log_format: shared.log_format,
    })
}

fn loadtest(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(
        args,
        &[
            "--target",
            "--workers",
            "--requests",
            "--seed",
            "--distinct",
            "--deadline-ms",
            "--log-format",
            "--log-level",
        ],
        &[],
    ) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let config = match loadtest_config(&flags) {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    let (level, format) = match (
        parse_log_level(flags.get("--log-level")),
        parse_log_format(flags.get("--log-format")),
    ) {
        (Ok(l), Ok(f)) => (l, f),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    ptmap_trace::obs::install(std::sync::Arc::new(ptmap_trace::obs::EventLog::new(
        "loadtest", level, format,
    )));
    ptmap_trace::obs::install_panic_hook();
    let report = ptmap_serve::run_loadtest(&config);
    print!("{}", report.render());
    // Exit status is the verdict: any failed request fails the run, so
    // CI can assert "zero dropped requests" without parsing output.
    if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds the loadtest configuration from `loadtest` flags.
fn loadtest_config(flags: &Flags) -> Result<ptmap_serve::LoadtestConfig, String> {
    let defaults = ptmap_serve::LoadtestConfig::default();
    let parse_u64 = |flag: &str, default: u64| -> Result<u64, String> {
        match flags.get(flag) {
            None => Ok(default),
            Some(t) => t
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a non-negative integer, got {t}")),
        }
    };
    Ok(ptmap_serve::LoadtestConfig {
        target: flags
            .get("--target")
            .unwrap_or(defaults.target.as_str())
            .to_string(),
        workers: parse_count(flags.get("--workers"), "--workers", defaults.workers)?,
        requests: parse_u64("--requests", defaults.requests)?,
        seed: parse_u64("--seed", defaults.seed)?,
        distinct: parse_u64("--distinct", defaults.distinct)?.max(1),
        deadline_ms: match flags.get("--deadline-ms") {
            Some(_) => parse_ms(flags.get("--deadline-ms"), "--deadline-ms")?,
            None => defaults.deadline_ms,
        },
    })
}

/// Parses an optional mapper-backend flag
/// (`heuristic` / `exact` / `portfolio`).
fn parse_backend(
    text: Option<&str>,
    flag: &str,
) -> Result<Option<ptmap_mapper::BackendKind>, String> {
    match text {
        None => Ok(None),
        Some(t) => t.parse().map(Some).map_err(|e| format!("{flag}: {e}")),
    }
}

/// Parses an optional `--log-level` flag (`debug|info|warn|error`).
fn parse_log_level(text: Option<&str>) -> Result<ptmap_trace::obs::Level, String> {
    match text {
        None => Ok(ptmap_trace::obs::Level::Info),
        Some(t) => ptmap_trace::obs::Level::parse(t)
            .ok_or_else(|| format!("--log-level must be debug|info|warn|error, got {t}")),
    }
}

/// Parses an optional `--log-format` flag (`text|json`).
fn parse_log_format(text: Option<&str>) -> Result<ptmap_trace::obs::LogFormat, String> {
    match text {
        None => Ok(ptmap_trace::obs::LogFormat::Text),
        Some(t) => ptmap_trace::obs::LogFormat::parse(t)
            .ok_or_else(|| format!("--log-format must be text or json, got {t}")),
    }
}

/// Parses an optional sampling probability flag in `[0, 1]`.
fn parse_sample(text: Option<&str>, flag: &str) -> Result<Option<f64>, String> {
    match text {
        None => Ok(None),
        Some(t) => match t.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => Ok(Some(p)),
            _ => Err(format!("{flag} must be a probability in [0, 1], got {t}")),
        },
    }
}

/// Parses an optional non-negative millisecond flag (`0` means "keep
/// every trace", a handy override in smoke tests).
fn parse_ms(text: Option<&str>, flag: &str) -> Result<Option<u64>, String> {
    match text {
        None => Ok(None),
        Some(t) => match t.parse::<u64>() {
            Ok(ms) => Ok(Some(ms)),
            Err(_) => Err(format!(
                "{flag} must be a non-negative integer of milliseconds, got {t}"
            )),
        },
    }
}

/// Parses an optional positive-integer flag, `default` when absent.
fn parse_count(text: Option<&str>, flag: &str, default: usize) -> Result<usize, String> {
    match text {
        None => Ok(default),
        Some(t) => match t.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{flag} must be a positive integer, got {t}")),
        },
    }
}

/// Parses an optional duration flag given in (possibly fractional)
/// seconds.
fn parse_seconds(text: Option<&str>, flag: &str) -> Result<Option<std::time::Duration>, String> {
    match text {
        None => Ok(None),
        Some(t) => match t.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => Ok(Some(std::time::Duration::from_secs_f64(s))),
            _ => Err(format!(
                "{flag} must be a positive number of seconds, got {t}"
            )),
        },
    }
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}
