//! `ssb-cold` and `tpch-cold`: the paper's Fig. 5 queries quoted in
//! process by one closed-loop client. Quotes never insert into the pricing
//! cache, so every quote runs the full pricing engine over the support set.

use std::time::{Duration, Instant};

use qirana::datagen::queries::{ssb_queries, tpch_queries};
use qirana::datagen::{ssb, tpch};
use qirana::{
    Database, EngineOptions, Parallelism, PricingFunction, Qirana, QiranaConfig, SupportConfig,
    Telemetry,
};

use crate::layers;
use crate::stats::{geomean, median, percentile};
use crate::{ms, peak_rss_mb, timed, Report, Rng};

pub struct ColdSpec {
    pub name: &'static str,
    /// Scale factor of the generated dataset.
    pub sf: f64,
    /// Neighborhood support size `S`.
    pub support: usize,
    /// Generator seed of the dataset, fixed like the scale factor.
    data_seed: u64,
    generate: fn(f64, u64) -> Database,
    queries: fn(f64) -> Vec<(String, String)>,
    /// A point `UPDATE` for the traced run's commit probes; `{v}` is
    /// replaced by a value and `{k}` by a key.
    update: &'static str,
}

pub const SSB: ColdSpec = ColdSpec {
    name: "ssb-cold",
    sf: 0.002,
    support: 200,
    data_seed: 5,
    generate: ssb::generate,
    queries: ssb_query_list,
    update: "UPDATE customer SET c_phone = '{v}' WHERE c_custkey = {k}",
};

pub const TPCH: ColdSpec = ColdSpec {
    name: "tpch-cold",
    sf: 0.002,
    support: 200,
    data_seed: 5,
    generate: tpch::generate,
    queries: tpch_query_list,
    update: "UPDATE customer SET c_phone = '{v}' WHERE c_custkey = {k}",
};

fn ssb_query_list(_sf: f64) -> Vec<(String, String)> {
    ssb_queries()
        .into_iter()
        .map(|(n, q)| (n.to_string(), q.to_string()))
        .collect()
}

fn tpch_query_list(sf: f64) -> Vec<(String, String)> {
    tpch_queries(sf)
        .into_iter()
        .map(|(n, q)| (n.to_string(), q))
        .collect()
}

/// Broker set-ups per core per run; `setup_s` is the mean over cores of
/// their median, for the reason given at [`quote_passes`].
const SETUP_REPEATS: usize = 5;
/// Fewest passes per core, so every query has a median on every core even
/// when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

/// The support set is the broker's default draw, the same in every run.
/// How much work a quote does depends on which neighbors were drawn: two
/// draws of a few hundred neighbors differ by more than the change a
/// benchmark must resolve, and averaging over enough draws would need a
/// naive reference pricing per draw, several times the timed region. The
/// run seed orders the quotes instead.
fn config(spec: &ColdSpec, engine: EngineOptions) -> QiranaConfig {
    QiranaConfig {
        total_price: 100.0,
        support: SupportConfig {
            size: spec.support,
            ..Default::default()
        },
        function: PricingFunction::WeightedCoverage,
        engine,
        ..Default::default()
    }
}

/// Per-query quote latencies over the passes of one run.
pub struct Passes {
    /// `[core][query][pass]` latency in ms.
    per_core: Vec<Vec<Vec<f64>>>,
    /// Price bits of each query, identical in every pass.
    pub prices: Vec<Option<u64>>,
    pub quotes: usize,
    /// Longest time the client took between one answer and its next
    /// quote: the closed loop's lateness.
    pub max_gap: Duration,
}

impl Passes {
    /// Each query's latency: the mean over cores of its median on that
    /// core. A median over the pooled samples would fall between the
    /// cores' clusters and jump with their proportions.
    pub fn medians_ms(&self) -> Vec<f64> {
        (0..self.prices.len())
            .map(|q| mean_of_medians(self.per_core.iter().map(|core| core[q].as_slice())))
            .collect()
    }

    /// Geometric mean over queries of each query's latency, so every query
    /// counts equally, as in TPC-H's power metric.
    pub fn geomean_ms(&self) -> Option<f64> {
        geomean(&self.medians_ms())
    }

    /// Quotes per second of one pass over the query set at each query's
    /// latency; unlike the geomean, the slowest queries dominate it.
    pub fn quotes_per_s(&self) -> f64 {
        let medians = self.medians_ms();
        medians.len() as f64 / (medians.iter().sum::<f64>() / 1e3)
    }

    /// Every latency sample.
    pub fn all_ms(&self) -> Vec<f64> {
        self.per_core.iter().flatten().flatten().copied().collect()
    }
}

/// Quotes every query once per pass, in a seeded order, until `budget` has
/// elapsed and at least [`MIN_PASSES`] passes are done on every core.
///
/// The client moves to the next core the process may use at every pass. A
/// single-threaded client otherwise stays on the core the scheduler gave
/// it, and on a shared host the two cores of a 2-core machine ran the same
/// quotes up to 30% apart for minutes (measured with the client pinned to
/// each in turn), so a run's figure depended on its core.
fn quote_passes(
    broker: &Qirana,
    queries: &[(String, String)],
    seed: u64,
    budget: Duration,
    report: &mut Report,
) -> Passes {
    let cores = Cores::new();
    let mut p = Passes {
        per_core: vec![vec![Vec::new(); queries.len()]; cores.len()],
        prices: vec![None; queries.len()],
        quotes: 0,
        max_gap: Duration::ZERO,
    };
    let mut answered: Option<Instant> = None;
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let t0 = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES * cores.len() || t0.elapsed() < budget {
        let slot = cores.pin(passes);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &i in &order {
            let (name, sql) = &queries[i];
            report.attempted += 1;
            let sent = Instant::now();
            if let Some(answered) = answered {
                p.max_gap = p.max_gap.max(sent - answered);
            }
            let price = broker.quote(std::hint::black_box(sql));
            let done = Instant::now();
            answered = Some(done);
            match price {
                Ok(price) => {
                    p.quotes += 1;
                    p.per_core[slot][i].push(ms(done - sent));
                    match p.prices[i] {
                        None => p.prices[i] = Some(price.to_bits()),
                        Some(b) if b != price.to_bits() => {
                            report.fail(format!("{name}: price changed between passes"))
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => report.fail(format!("{name}: quote failed: {e}")),
            }
        }
        passes += 1;
    }
    cores.restore();
    p
}

/// The mean over cores of the median of each core's samples.
fn mean_of_medians<'a>(per_core: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let m: Vec<f64> = per_core.into_iter().filter_map(median).collect();
    m.iter().sum::<f64>() / m.len() as f64
}

/// The cores the process may run on, for moving a thread round robin.
struct Cores {
    /// The calling thread's affinity mask (Linux `cpu_set_t`, 1024 cores)
    /// when it was read; `None` where the kernel refused.
    start: Option<[u64; 16]>,
    ids: Vec<usize>,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl Cores {
    fn new() -> Cores {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // live for the whole call; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Cores {
                start: None,
                ids: vec![0],
            };
        }
        let ids = (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Cores {
            start: Some(mask),
            ids,
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Moves the calling thread to the core whose turn `k` is; returns the
    /// core's slot in `0..len()`. A refusal leaves the thread where it was.
    fn pin(&self, k: usize) -> usize {
        let slot = k % self.ids.len();
        if self.start.is_some() {
            let mut mask = [0u64; 16];
            mask[self.ids[slot] / 64] |= 1 << (self.ids[slot] % 64);
            set_affinity(&mask);
        }
        slot
    }

    /// Gives the calling thread back the mask it started with.
    fn restore(&self) {
        if let Some(mask) = &self.start {
            set_affinity(mask);
        }
    }
}

fn set_affinity(mask: &[u64; 16]) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, live
    // for the whole call; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr());
    }
}

pub fn run(spec: &ColdSpec, seed: u64, budget: Duration, trace: bool) -> Report {
    let db = (spec.generate)(spec.sf, spec.data_seed);
    let queries = (spec.queries)(spec.sf);
    let engine = EngineOptions::default();
    let cfg = config(spec, engine.clone());
    let cores = Cores::new();
    println!(
        "config workload={} sf={} data_seed={} support=neighborhood S={} support_seed={:#x} \
         seed={seed} (quote order) function={:?} total_price={} engine=[optimize={} batch={} \
         reduce={} delta={} parallelism={:?} cache={}x{}] price_points=0 ledger=none \
         client=closed-loop x1 client_cores={} queries={}",
        spec.name,
        spec.sf,
        spec.data_seed,
        spec.support,
        cfg.support.seed,
        cfg.function,
        cfg.total_price,
        engine.optimize,
        engine.batch,
        engine.reduce,
        engine.delta,
        engine.parallelism,
        engine.cache.enabled,
        engine.cache.capacity,
        match cores.start {
            Some(_) => format!("{:?}", cores.ids),
            None => "unpinned".to_string(),
        },
        queries.len(),
    );
    let mut report = Report::default();

    let mut setups = vec![Vec::new(); cores.len()];
    let mut broker = None;
    for k in 0..SETUP_REPEATS * cores.len() {
        let slot = cores.pin(k);
        let replica = db.clone();
        drop(broker.take());
        let (b, t) = timed(|| Qirana::new(replica, cfg.clone()));
        setups[slot].push(t.as_secs_f64());
        broker = Some(b.expect("broker construction"));
    }
    cores.restore();
    let broker = broker.expect("at least one set-up");
    if broker.is_degraded() {
        report.fail("broker degraded to uniform weights".into());
    }

    let passes = quote_passes(&broker, &queries, seed, budget, &mut report);
    let rss = peak_rss_mb();
    let all = passes.all_ms();
    report.e2e(
        "setup_s",
        "s",
        Some(mean_of_medians(setups.iter().map(Vec::as_slice))),
        SETUP_REPEATS * cores.len(),
    );
    report.e2e(
        "quotes_per_s",
        "1/s",
        Some(passes.quotes_per_s()),
        all.len(),
    );
    report.e2e("quote_geomean_ms", "ms", passes.geomean_ms(), all.len());
    report.e2e("peak_rss_mb", "MiB", rss, 1);
    report.e2e("quote_p50_ms", "ms", percentile(&all, 50.0), all.len());

    check_against_naive(spec, &db, &queries, &passes, &mut report);

    let mut zero = 0;
    println!("record query price rows quote_median_ms");
    let medians = passes.medians_ms();
    for (i, (name, sql)) in queries.iter().enumerate() {
        let price = passes.prices[i].map_or(f64::NAN, f64::from_bits);
        zero += usize::from(price == 0.0);
        let rows = broker.answer(sql).map_or(0, |o| o.rows.len());
        println!("record {name} {price:.6} {rows} {:.3}", medians[i]);
    }
    println!("record zero_priced {zero}/{}", queries.len());

    if trace {
        traced(
            spec,
            seed,
            &db,
            &queries,
            budget,
            &passes,
            broker,
            &mut report,
        );
    }
    report
}

/// Every quote must equal, bit for bit, the price of the unoptimized
/// engine (`EngineOptions::naive()`, which re-executes the query on every
/// neighbor) on the same support set. Quotes of one query are already
/// checked equal across passes. Computed after the timed region, on both
/// cores.
fn check_against_naive(
    spec: &ColdSpec,
    db: &Database,
    queries: &[(String, String)],
    passes: &Passes,
    report: &mut Report,
) {
    let naive = EngineOptions::naive().with_parallelism(Parallelism::Threads(2));
    let t0 = Instant::now();
    let reference = match Qirana::new(db.clone(), config(spec, naive)) {
        Ok(b) => b,
        Err(e) => return report.fail(format!("naive reference broker: {e}")),
    };
    let mut checked = 0;
    for ((name, sql), bits) in queries.iter().zip(&passes.prices) {
        let Some(bits) = bits else { continue };
        match reference.quote(sql) {
            Ok(p) if p.to_bits() == *bits => checked += 1,
            Ok(p) => report.fail(format!(
                "{name}: price {} != naive reference {p}",
                f64::from_bits(*bits)
            )),
            Err(e) => report.fail(format!("{name}: naive reference failed: {e}")),
        }
    }
    println!(
        "check {checked}/{} queries price bitwise equal to the naive reference ({:.1} s)",
        queries.len(),
        t0.elapsed().as_secs_f64()
    );
}

/// The traced run: the same passes with telemetry on for half the time
/// (for the engine's counters and the tracing overhead), then the layer
/// probes.
#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &ColdSpec,
    seed: u64,
    db: &Database,
    queries: &[(String, String)],
    budget: Duration,
    untraced: &Passes,
    broker: Qirana,
    report: &mut Report,
) {
    let tel = Telemetry::enabled();
    let traced_broker = Qirana::new(
        db.clone(),
        config(spec, EngineOptions::default().with_telemetry(tel.clone())),
    )
    .expect("traced broker construction");
    let traced = quote_passes(&traced_broker, queries, seed, budget / 2, report);
    drop(traced_broker);
    if traced.prices != untraced.prices {
        report.fail("prices differ with telemetry on".into());
    }
    layers::trace_overhead(report, untraced.geomean_ms(), traced.geomean_ms());
    layers::engine_counters(report, &tel);

    let support = config(spec, EngineOptions::default()).support;
    let records = layers::engine_probes(
        report,
        db,
        queries,
        &support,
        PricingFunction::WeightedCoverage,
        100.0,
        &[],
    );

    let mut rng = Rng::new(seed);
    let updates: Vec<String> = (0..queries.len())
        .map(|_| {
            spec.update
                .replace("{v}", &format!("{:010}", rng.below(1_000_000_000)))
                .replace("{k}", &(1 + rng.below(30)).to_string())
        })
        .collect();
    let mut events = Vec::new();
    let mut broker = broker;
    let probed = layers::broker_probes(report, &mut broker, queries, &updates, &mut events);
    let stats = broker.cache_stats();
    layers::cache_stats(
        report,
        stats.hits,
        stats.misses,
        stats.invalidations,
        stats.evictions,
    );
    layers::server_probe(report, broker, queries, &probed);
    layers::ledger_probe(report, &events, None);
    report.layer("server.rejections", "count", Some(0.0), 0);
    report.layer(
        "loadgen.lateness_ms",
        "ms",
        Some(ms(untraced.max_gap)),
        untraced.quotes,
    );

    let price_ms: Vec<f64> = records.iter().map(|r| r.price_ms).collect();
    let prepare_ms: Vec<f64> = records.iter().map(|r| r.prepare_ms).collect();
    println!(
        "breakdown quote_geomean_ms {:.3} = sqlengine.prepare {:.3} + engine.price {:.3} + rest",
        untraced.geomean_ms().unwrap_or(f64::NAN),
        geomean(&prepare_ms).unwrap_or(f64::NAN),
        geomean(&price_ms).unwrap_or(f64::NAN),
    );
    layers::print_records(&records, &untraced.medians_ms());
}
