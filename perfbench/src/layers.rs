//! Per-layer probes for the traced run. Each probe times calls into one
//! module's public functions from outside the program; the engine's own
//! counters are read from the `Telemetry` handle it already exports.

use std::time::Instant;

use qirana::core::engine::query_partition;
use qirana::core::ledger::encode_record;
use qirana::core::{delta, try_generate_support, SupportSet};
use qirana::solver::SolverOptions;
use qirana::{
    Database, EngineOptions, Ledger, LedgerConfig, LedgerEvent, PricePoint, PricingFunction,
    Qirana, SupportConfig, Telemetry,
};
use qirana_server::{PricingServer, ServerConfig};

use crate::http::Conn;
use crate::stats::{geomean, median, percentile};
use crate::{ms, timed, Report, TempDir};

/// One query's engine-level figures, printed as the workload record.
pub struct QueryRecord {
    pub name: String,
    pub prepare_ms: f64,
    pub exec_ms: f64,
    pub rows: usize,
    pub price_ms: f64,
    pub batched_price_ms: f64,
}

/// `trace.overhead_pct`: traced over untraced quote geomean, minus one.
pub fn trace_overhead(report: &mut Report, untraced: Option<f64>, traced: Option<f64>) {
    println!(
        "traced quote_geomean_ms {:.3} vs untraced {:.3}",
        traced.unwrap_or(f64::NAN),
        untraced.unwrap_or(f64::NAN)
    );
    let pct = untraced.zip(traced).map(|(u, t)| (t / u - 1.0) * 100.0);
    report.layer("trace.overhead_pct", "%", pct, 2);
}

/// Engine counters the traced workload accumulated.
pub fn engine_counters(report: &mut Report, tel: &Telemetry) {
    let sink = tel.sink().expect("traced runs enable telemetry");
    let c = |name: &str| sink.counter(name) as f64;
    let probes = c("delta_probes_total");
    report.layer(
        "engine.neighbors_evaluated",
        "count",
        Some(c("neighbors_evaluated_total")),
        1,
    );
    report.layer("delta.probes", "count", Some(probes), 1);
    report.layer(
        "delta.short_circuits",
        "count",
        Some(c("delta_short_circuits_total")),
        1,
    );
    report.layer(
        "delta.fallbacks",
        "count",
        Some(c("delta_fallbacks_total")),
        1,
    );
    let ratio = if probes > 0.0 {
        c("delta_fallbacks_total") / probes
    } else {
        0.0
    };
    report.layer(
        "delta.fallback_ratio",
        "ratio",
        Some(ratio),
        probes as usize,
    );
}

fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, t) = timed(&mut f);
        times.push(ms(t));
        last = Some(out);
    }
    (last.expect("reps > 0"), median(&times).expect("reps > 0"))
}

/// `sqlengine.*`, `engine.*` (except the counters), `delta.build_ms`,
/// `support.gen_ms` and `weights.solve_ms`, measured by direct calls on
/// the workload's database, support configuration and queries.
pub fn engine_probes(
    report: &mut Report,
    db: &Database,
    queries: &[(String, String)],
    support_cfg: &SupportConfig,
    function: PricingFunction,
    total_price: f64,
    points: &[PricePoint],
) -> Vec<QueryRecord> {
    let (support, gen_ms) = median_of(3, || {
        try_generate_support(db, support_cfg).expect("support generation")
    });
    let support = SupportSet::Neighborhood(support);
    report.layer("support.gen_ms", "ms", Some(gen_ms), 3);
    let mut scratch = db.clone();
    let (weights, solve) = timed(|| {
        qirana::core::assign_weights_with(
            &mut scratch,
            &support,
            total_price,
            points,
            &EngineOptions::default(),
            &SolverOptions::default(),
        )
    });
    if let Err(e) = weights {
        report.fail(format!("weight solve failed: {e}"));
    }
    report.layer("weights.solve_ms", "ms", Some(ms(solve)), 1);

    let default = EngineOptions::default();
    let batched = EngineOptions::default().with_delta(false);
    let mut records = Vec::new();
    let mut build_ms = Vec::new();
    let mut mismatches = 0;
    for (name, sql) in queries {
        let (q, prepare_ms) = median_of(5, || qirana::core::prepare_query(db, sql));
        let q = match q {
            Ok(q) => q,
            Err(e) => {
                report.fail(format!("{name}: prepare failed: {e}"));
                continue;
            }
        };
        let (out, exec_ms) = median_of(3, || {
            qirana::sqlengine::execute(&q.plan, &qirana::sqlengine::ExecContext::new(db))
        });
        let rows = out.map(|o| o.rows.len()).unwrap_or(0);
        let (state, t) = timed(|| delta::build(db, &q));
        if state.is_ok_and(|s| s.is_usable()) {
            build_ms.push(ms(t));
        }
        let mut price = |opts: &EngineOptions| {
            timed(|| {
                if function.needs_partition() {
                    query_partition(&mut scratch, &q, &support, opts)
                        .map(|fps| fps.iter().map(|f| f.0).collect::<Vec<_>>())
                } else {
                    qirana::core::bundle_disagreements(&mut scratch, &[&q], &support, opts, None)
                        .map(|bits| bits.iter().map(|&b| u128::from(b)).collect())
                }
            })
        };
        let (with_delta, price_t) = price(&default);
        let (without, batched_t) = price(&batched);
        // The quotes are checked against the naive engine; here a
        // disagreement of the batched engine is counted and shown, since it
        // is the configuration a dispatch change would route queries to.
        match (with_delta, without) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => {
                mismatches += 1;
                println!(
                    "defect {name}: the batched engine (delta off) disagrees with the default"
                );
            }
            (Err(e), _) | (_, Err(e)) => report.fail(format!("{name}: engine failed: {e}")),
        }
        records.push(QueryRecord {
            name: name.clone(),
            prepare_ms,
            exec_ms,
            rows,
            price_ms: ms(price_t),
            batched_price_ms: ms(batched_t),
        });
    }
    let col = |f: fn(&QueryRecord) -> f64| records.iter().map(f).collect::<Vec<f64>>();
    let n = records.len();
    report.layer(
        "sqlengine.prepare_ms",
        "ms",
        geomean(&col(|r| r.prepare_ms)),
        n,
    );
    report.layer("sqlengine.exec_ms", "ms", geomean(&col(|r| r.exec_ms)), n);
    let rows: usize = records.iter().map(|r| r.rows).sum();
    report.layer("sqlengine.result_rows", "count", Some(rows as f64), n);
    report.layer("engine.price_ms", "ms", geomean(&col(|r| r.price_ms)), n);
    report.layer(
        "engine.batched_price_ms",
        "ms",
        geomean(&col(|r| r.batched_price_ms)),
        n,
    );
    report.layer(
        "engine.price_over_exec",
        "ratio",
        geomean(&col(|r| r.price_ms / r.exec_ms)),
        n,
    );
    report.layer(
        "engine.batched_mismatches",
        "count",
        Some(f64::from(mismatches)),
        n,
    );
    report.layer(
        "delta.build_ms",
        "ms",
        Some(geomean(&build_ms).unwrap_or(0.0)),
        build_ms.len(),
    );
    records
}

/// What [`broker_probes`] leaves for the server probe: each query's
/// direct cache-hit quote time and price.
pub struct Probed {
    pub hit_ms: Vec<f64>,
    pub hit_price: Vec<f64>,
}

/// `broker.*` by direct in-process calls, in an order that leaves every
/// query cached: a cold quote of each query; per query a commit followed
/// by two quotes (the first pays for re-cloning the scratch database);
/// one purchase of each query; then repeated cache-hit quotes.
pub fn broker_probes(
    report: &mut Report,
    broker: &mut Qirana,
    queries: &[(String, String)],
    updates: &[String],
    events: &mut Vec<LedgerEvent>,
) -> Probed {
    let mut miss = Vec::new();
    for (_, sql) in queries {
        let (r, t) = timed(|| broker.quote(sql));
        ok(report, "probe quote", r);
        miss.push(ms(t));
    }
    let mut update_ms = Vec::new();
    let mut post_commit = Vec::new();
    for ((_, sql), update) in queries.iter().zip(updates) {
        let (r, t) = timed(|| broker.commit_update(update));
        if let Some(changed) = ok(report, "probe update", r) {
            events.push(LedgerEvent::UpdateCommitted {
                sql: update.clone(),
                changed: changed as u64,
            });
        }
        update_ms.push(ms(t));
        let (a, first) = timed(|| broker.quote(sql));
        let (b, next) = timed(|| broker.quote(sql));
        ok(report, "post-commit quote", a);
        ok(report, "post-commit quote", b);
        post_commit.push(ms(first) - ms(next));
    }
    let mut buy_ms = Vec::new();
    for (_, sql) in queries {
        let (r, t) = timed(|| broker.buy("probe", sql));
        if let Some(p) = ok(report, "probe buy", r) {
            events.push(LedgerEvent::PurchaseCommitted {
                buyer: "probe".into(),
                sql: sql.clone(),
                price: p.price,
                total_paid: p.total_paid,
            });
        }
        buy_ms.push(ms(t));
    }
    let mut hit_ms = Vec::new();
    let mut hit_price = Vec::new();
    for (_, sql) in queries {
        let (r, t) = median_of(5, || broker.quote(sql));
        hit_price.push(ok(report, "probe hit quote", r).unwrap_or(f64::NAN));
        hit_ms.push(t);
    }
    let n = queries.len();
    report.layer("broker.quote_miss_ms", "ms", median(&miss), n);
    report.layer("broker.quote_hit_ms", "ms", median(&hit_ms), n);
    report.layer("broker.buy_ms", "ms", median(&buy_ms), n);
    report.layer(
        "broker.update_ms",
        "ms",
        median(&update_ms),
        update_ms.len(),
    );
    report.layer(
        "broker.post_commit_quote_ms",
        "ms",
        median(&post_commit),
        post_commit.len(),
    );
    Probed { hit_ms, hit_price }
}

fn ok<T, E: std::fmt::Display>(report: &mut Report, what: &str, r: Result<T, E>) -> Option<T> {
    report.attempted += 1;
    match r {
        Ok(v) => Some(v),
        Err(e) => {
            report.fail(format!("{what}: {e}"));
            None
        }
    }
}

/// `server.overhead_*`: the HTTP round trip of a cache-hit quote minus the
/// direct broker call for the same query, over at least 1,100 requests on
/// one keep-alive connection.
pub fn server_probe(
    report: &mut Report,
    broker: Qirana,
    queries: &[(String, String)],
    probed: &Probed,
) {
    let server = PricingServer::start(broker, ServerConfig::default(), Telemetry::disabled())
        .expect("server start");
    let mut conn = Conn::open(server.addr()).expect("connect");
    let rounds = 1100usize.div_ceil(queries.len());
    let mut overhead_us = Vec::with_capacity(rounds * queries.len());
    for _ in 0..rounds {
        for (i, (name, sql)) in queries.iter().enumerate() {
            report.attempted += 1;
            let t0 = Instant::now();
            let r = conn.post("/v1/quote", vec![("sql", sql)]);
            let t = t0.elapsed();
            match r {
                Ok(resp) if resp.status == 200 => {
                    if resp.num("price").map(f64::to_bits) != Some(probed.hit_price[i].to_bits()) {
                        report.fail(format!("{name}: HTTP price differs from the direct call"));
                    }
                    overhead_us.push((ms(t) - probed.hit_ms[i]) * 1e3);
                }
                Ok(resp) => report.fail(format!("{name}: HTTP status {}", resp.status)),
                Err(e) => report.fail(format!("{name}: {e}")),
            }
        }
    }
    drop(conn);
    server.shutdown();
    let n = overhead_us.len();
    report.layer(
        "server.overhead_p50_us",
        "us",
        percentile(&overhead_us, 50.0),
        n,
    );
    report.layer(
        "server.overhead_p99_us",
        "us",
        percentile(&overhead_us, 99.0),
        n,
    );
}

/// `cache.*` from a broker's cumulative cache statistics.
pub fn cache_stats(
    report: &mut Report,
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
) {
    let lookups = hits + misses;
    let ratio = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };
    report.layer("cache.hit_ratio", "ratio", Some(ratio), lookups as usize);
    report.layer(
        "cache.invalidations",
        "count",
        Some(invalidations as f64),
        1,
    );
    report.layer("cache.evictions", "count", Some(evictions as f64), 1);
}

/// `ledger.*`: the workload's events appended, cycling, at least 1,100
/// times to a standalone ledger with the default policy (fsync on every
/// append). `fsyncs_per_commit` comes from the served broker's counters
/// when the workload commits through a ledger, else from this ledger.
pub fn ledger_probe(report: &mut Report, events: &[LedgerEvent], fsyncs_per_commit: Option<f64>) {
    if events.is_empty() {
        report.fail("no ledger events to replay".into());
        return;
    }
    let dir = TempDir::new("ledger-probe");
    let tel = Telemetry::enabled();
    let mut ledger = Ledger::create(LedgerConfig::new(&dir.0)).expect("ledger create");
    ledger.set_telemetry(tel.clone());
    let n = events.len().max(1100);
    let mut append_us = Vec::with_capacity(n);
    let mut bytes = 0usize;
    for i in 0..n {
        let ev = &events[i % events.len()];
        bytes += encode_record(ledger.next_seq(), ev)
            .map(|r| r.len())
            .unwrap_or(0);
        let (r, t) = timed(|| ledger.append(ev));
        ok(report, "ledger append", r);
        append_us.push(ms(t) * 1e3);
    }
    drop(ledger);
    let sink = tel.sink().expect("enabled");
    let standalone = sink.counter("ledger_fsyncs_total") as f64
        / sink.counter("ledger_appends_total").max(1) as f64;
    report.layer(
        "ledger.append_p50_us",
        "us",
        percentile(&append_us, 50.0),
        n,
    );
    report.layer(
        "ledger.append_p99_us",
        "us",
        percentile(&append_us, 99.0),
        n,
    );
    report.layer(
        "ledger.bytes_per_event",
        "B",
        Some(bytes as f64 / n as f64),
        n,
    );
    report.layer(
        "ledger.fsyncs_per_commit",
        "ratio",
        Some(fsyncs_per_commit.unwrap_or(standalone)),
        n,
    );
}

/// Prints each query's engine record next to its end-to-end quote time.
pub fn print_records(records: &[QueryRecord], quote_ms: &[f64]) {
    println!(
        "record query rows exec_ms prepare_ms price_ms batched_price_ms price_over_exec quote_ms"
    );
    for (r, q) in records.iter().zip(quote_ms) {
        println!(
            "record {} {} {:.3} {:.3} {:.3} {:.3} {:.1} {:.3}",
            r.name,
            r.rows,
            r.exec_ms,
            r.prepare_ms,
            r.price_ms,
            r.batched_price_ms,
            r.price_ms / r.exec_ms,
            q
        );
    }
}
