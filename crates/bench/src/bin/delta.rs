//! Incremental (delta) support evaluation versus full re-execution for the
//! entropy family: time to compute a query's per-neighbor output
//! fingerprints (`query_partition`) over a neighborhood support set,
//! sweeping the support size S.
//!
//! `cargo run -p qirana-bench --bin delta --release -- [--seed N] [--json PATH]`
//!
//! Full evaluation re-executes the plan once per neighbor, so the sweep is
//! O(S · plan cost). The delta evaluator executes the plan once on the base
//! instance, materializes per-relation probe state, and then answers each
//! neighbor with a constant-size fingerprint adjustment (or a short-circuit
//! when the changed columns miss the query's footprint) — O(plan cost + S).
//! Both paths are asserted bitwise-identical at every point, so the curve
//! is free of semantic drift. (The coverage family does not use delta: it
//! prices with the batched Algorithms 4–6, which `fig5` measures.)
//!
//! Runs with telemetry enabled and writes `BENCH_8.json` (schema
//! `qirana-bench/v1`) by default; `--json PATH` redirects the artifact,
//! `--json ""` disables it. Pass `--validate PATH` to schema-check an
//! existing artifact and exit.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_bench::{validate_bench_json, Args, Harness};
use qirana_core::engine::query_partition;
use qirana_core::{generate_support, prepare_query, EngineOptions, SupportConfig, SupportSet};
use qirana_datagen::world;

const SWEEP: [usize; 4] = [16, 64, 256, 1024];

const WORKLOADS: [(&str, &str); 3] = [
    (
        "city_filter",
        "SELECT Name, Population FROM City WHERE Population > 200000",
    ),
    (
        "country_city_join",
        "SELECT Country.Name, City.Name FROM Country, City \
         WHERE Country.Code = City.CountryCode AND City.Population > 500000",
    ),
    (
        "city_agg",
        "SELECT CountryCode, count(*), sum(Population) FROM City GROUP BY CountryCode",
    ),
];

fn main() {
    let args = Args::parse();
    let validate: String = args.get("validate", String::new());
    if !validate.is_empty() {
        let text = std::fs::read_to_string(&validate)
            .unwrap_or_else(|e| panic!("reading {validate}: {e}"));
        match validate_bench_json(&text) {
            Ok(()) => {
                println!("{validate}: schema-valid ({})", qirana_bench::SCHEMA);
                return;
            }
            Err(e) => {
                eprintln!("{validate}: INVALID — {e}");
                std::process::exit(1);
            }
        }
    }

    let seed: u64 = args.get("seed", 1);

    let mut h = Harness::from_args("delta", &args, Some("BENCH_8.json"));
    h.param("seed", seed);
    h.param("sweep", "16,64,256,1024");

    let full_opts = EngineOptions::default()
        .with_delta(false)
        .with_telemetry(h.telemetry());
    let delta_opts = EngineOptions::default().with_telemetry(h.telemetry());

    let db = world::generate(seed);
    println!("== Delta vs full entropy-family support evaluation (world dataset) ==");
    println!(
        "{:<20} {:>6} {:>12} {:>12} {:>9}",
        "workload", "S", "full(s)", "delta(s)", "speedup"
    );

    for (name, sql) in WORKLOADS {
        let q = prepare_query(&db, sql).unwrap();
        for s in SWEEP {
            let support = SupportSet::Neighborhood(generate_support(
                &db,
                &SupportConfig {
                    size: s,
                    seed,
                    ..Default::default()
                },
            ));
            let label = format!("{name}/S={s}");
            let (full_fps, tf) = h.time(&format!("full_{name}"), &label, || {
                query_partition(&db, &q, &support, &full_opts).unwrap()
            });
            let (delta_fps, td) = h.time(&format!("delta_{name}"), &label, || {
                query_partition(&db, &q, &support, &delta_opts).unwrap()
            });
            assert_eq!(
                full_fps, delta_fps,
                "delta and full fingerprints diverged on {name} at S={s}"
            );
            let speedup = tf / td;
            h.record(&format!("speedup_{name}"), &format!("S={s}"), speedup);
            println!("{name:<20} {s:>6} {tf:>12.5} {td:>12.5} {speedup:>8.2}x");
        }
    }

    let tel = h.telemetry();
    if let Some(sink) = tel.sink() {
        println!(
            "delta: {} builds, {} probes, {} short-circuits, {} fallbacks",
            sink.counter("delta_builds_total"),
            sink.counter("delta_probes_total"),
            sink.counter("delta_short_circuits_total"),
            sink.counter("delta_fallbacks_total"),
        );
    }
    if let Some(path) = h.finish().expect("bench artifact") {
        println!("wrote {}", path.display());
    }
}
