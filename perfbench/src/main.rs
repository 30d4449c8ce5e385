//! QIRANA end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ssb-cold|tpch-cold|market-read|market-churn|all> \
//!     --seed N --seconds N --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! Each workload runs in its own process and prints one line per metric
//! (name, value, unit, sample count) and, as its last line, one JSON object
//! `{"correct","attempted","failed","metrics"}`. With `--trace 0` the JSON
//! metrics are the gated end-to-end set ([`END_TO_END`]); with `--trace 1`
//! the run repeats the workload with telemetry on, probes every layer
//! through its public functions and reports [`PER_LAYER`]. Any wrong price
//! or failed operation makes the run exit nonzero. `--workload all` runs
//! every workload as a child process. See `perfbench/README.md`.

// Benchmark binary: aborting with a message on a broken fixture is the
// intended failure mode, as in the repository's bench binaries.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod cold;
mod http;
mod layers;
mod market;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use qirana_bench::json::{self, Json};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["ssb-cold", "tpch-cold", "market-read", "market-churn"];

/// End-to-end metrics every workload reports with `--trace 0`, as listed
/// in `BENCHMARK.json`.
pub const END_TO_END: [&str; 4] = ["setup_s", "quotes_per_s", "quote_geomean_ms", "peak_rss_mb"];

/// Per-layer metrics every workload reports with `--trace 1`, as listed in
/// `BENCHMARK.json`.
pub const PER_LAYER: [&str; 32] = [
    "sqlengine.prepare_ms",
    "sqlengine.exec_ms",
    "sqlengine.result_rows",
    "engine.price_ms",
    "engine.batched_price_ms",
    "engine.price_over_exec",
    "engine.batched_mismatches",
    "engine.neighbors_evaluated",
    "delta.build_ms",
    "delta.probes",
    "delta.short_circuits",
    "delta.fallbacks",
    "delta.fallback_ratio",
    "support.gen_ms",
    "weights.solve_ms",
    "cache.hit_ratio",
    "cache.invalidations",
    "cache.evictions",
    "broker.quote_hit_ms",
    "broker.quote_miss_ms",
    "broker.buy_ms",
    "broker.update_ms",
    "broker.post_commit_quote_ms",
    "ledger.append_p50_us",
    "ledger.append_p99_us",
    "ledger.bytes_per_event",
    "ledger.fsyncs_per_commit",
    "server.overhead_p50_us",
    "server.overhead_p99_us",
    "server.rejections",
    "loadgen.lateness_ms",
    "trace.overhead_pct",
];

/// One measured figure with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (quotes, buys, updates, replay comparisons).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong price.
    pub failed: u64,
    /// Why the run is wrong, if it is.
    pub problems: Vec<String>,
    /// End-to-end figures of this run.
    pub end_to_end: Vec<Metric>,
    /// Per-layer figures (traced runs only).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Records a figure; `None` (too few samples, no positive value) is
    /// printed as omitted and left out.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: Option<f64>, samples: usize) {
        push(&mut self.end_to_end, name, unit, value, samples);
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: Option<f64>, samples: usize) {
        push(&mut self.per_layer, name, unit, value, samples);
    }

    /// Counts one failed operation and remembers the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }
}

fn push(
    into: &mut Vec<Metric>,
    name: &str,
    unit: &'static str,
    value: Option<f64>,
    samples: usize,
) {
    match value {
        Some(value) if value.is_finite() => {
            println!("metric {name} = {value:.6} {unit} (n={samples})");
            into.push(Metric {
                name: name.to_string(),
                unit,
                value,
                samples,
            });
        }
        _ => println!("metric {name} omitted (n={samples})"),
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// A temporary directory under the checkout, removed on drop.
pub struct TempDir(pub std::path::PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir = std::path::PathBuf::from(".perfbench_tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temporary directory");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent in place while a sibling run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// splitmix64: the seeded stream every workload draws its inputs from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_9E2A_B1E5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.selftest && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: u64, trace: bool) -> Option<Report> {
    let secs = Duration::from_secs(seconds);
    Some(match name {
        "ssb-cold" => cold::run(&cold::SSB, seed, secs, trace),
        "tpch-cold" => cold::run(&cold::TPCH, seed, secs, trace),
        "market-read" => market::run(&market::READ, seed, secs, trace),
        "market-churn" => market::run(&market::CHURN, seed, secs, trace),
        _ => return None,
    })
}

/// Prints the result line; returns whether the run is correct.
fn finish(report: &Report, trace: bool) -> bool {
    let (wanted, have): (&[&str], &[Metric]) = if trace {
        (&PER_LAYER, &report.per_layer)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    let mut problems = report.problems.clone();
    let mut metrics = Vec::new();
    for name in wanted {
        match have.iter().find(|m| m.name == *name) {
            Some(m) => metrics.push((
                m.name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            )),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    let attempted = report.attempted.max(1);
    println!(
        "metric error_rate = {:.6} ratio (n={attempted})",
        report.failed as f64 / attempted as f64
    );
    let correct = problems.is_empty() && report.failed == 0;
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(report.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", json::render(&line));
    correct
}

/// Runs every workload in a child process of its own, so set-up time and
/// peak memory belong to one workload, and prints a summary.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    let mut summary = Vec::new();
    for w in WORKLOADS {
        println!("== {w} ==");
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn workload process");
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        ok &= out.status.success();
        summary.push((
            w,
            out.status.success(),
            text.lines().last().unwrap_or("").to_string(),
        ));
    }
    println!("== summary (seed {}, {} s) ==", args.seed, args.seconds);
    for (w, success, last) in summary {
        println!("{w:<13} {} {last}", if success { "ok  " } else { "FAIL" });
    }
    ok
}

/// `BENCHMARK.json` (when run from the repository root) must list exactly
/// the metrics this benchmark reports.
fn check_manifest() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    for (key, want) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<&str> = doc
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect();
        if listed != want {
            return Err(format!(
                "BENCHMARK.json {key} lists {listed:?}, the benchmark reports {want:?}"
            ));
        }
    }
    Ok(())
}

fn selftest(seed: u64) -> bool {
    let mut ok = true;
    match check_manifest() {
        Ok(()) => println!("selftest BENCHMARK.json metric lists: ok"),
        Err(e) => {
            println!("selftest BENCHMARK.json metric lists: FAILED ({e})");
            ok = false;
        }
    }
    match stats::self_check() {
        Ok(()) => println!("selftest statistics: ok"),
        Err(e) => {
            println!("selftest statistics: FAILED ({e})");
            ok = false;
        }
    }
    match market::one_connection_replay(seed) {
        Ok(n) => {
            println!("selftest market-churn one-connection replay: ok ({n} prices bitwise equal)")
        }
        Err(e) => {
            println!("selftest market-churn one-connection replay: FAILED ({e})");
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.selftest {
        selftest(args.seed)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        match run_workload(&args.workload, args.seed, args.seconds, args.trace) {
            Some(report) => finish(&report, args.trace),
            None => {
                eprintln!(
                    "unknown workload {}; one of {WORKLOADS:?} or all",
                    args.workload
                );
                return ExitCode::from(2);
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
