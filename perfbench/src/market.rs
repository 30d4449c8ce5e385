//! `market-read` and `market-churn`: the pricing service over the world
//! dataset, driven open loop by two keep-alive connections at a fixed
//! offered rate.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use qirana::datagen::world;
use qirana::{
    Database, EngineOptions, LedgerConfig, LedgerEvent, PricePoint, PricingFunction, Qirana,
    QiranaConfig, SupportConfig, Telemetry,
};
use qirana_server::{PricingServer, ServerConfig};

use crate::http::Conn;
use crate::layers;
use crate::stats::{geomean, latency_from_due, lateness, median, percentile};
use crate::{ms, peak_rss_mb, timed, Report, Rng, TempDir};

pub struct MarketSpec {
    pub name: &'static str,
    pub function: PricingFunction,
    /// Every this many requests, connection 0 sends an admin `UPDATE`
    /// instead; 0 for none.
    pub update_every: usize,
    /// Offered load across both connections, requests per second.
    pub rate: f64,
}

pub const READ: MarketSpec = MarketSpec {
    name: "market-read",
    function: PricingFunction::WeightedCoverage,
    update_every: 0,
    rate: 300.0,
};

pub const CHURN: MarketSpec = MarketSpec {
    name: "market-churn",
    function: PricingFunction::ShannonEntropy,
    update_every: 20,
    rate: 40.0,
};

/// The service's query pool (the loadgen's): selections, projections,
/// aggregates and a join-free scan over all three world tables. Twelve
/// plans fit the 1,024-entry pricing cache many times over.
const POOL: [&str; 12] = [
    "SELECT * FROM Country WHERE ID < 100",
    "SELECT Name FROM Country WHERE Continent = 'Asia'",
    "SELECT Name FROM Country WHERE Continent = 'Europe'",
    "SELECT Name FROM Country WHERE Population > 10000000",
    "SELECT ID, GNP FROM Country",
    "SELECT Continent, count(*) FROM Country GROUP BY Continent",
    "SELECT AVG(Population) FROM Country",
    "SELECT Region FROM Country",
    "SELECT * FROM CountryLanguage",
    "SELECT ID, Name, Continent, Population FROM Country",
    "SELECT Name, Population FROM City WHERE Population > 200000",
    "SELECT CountryCode, count(*), sum(Population) FROM City GROUP BY CountryCode",
];

/// Generator seed of the world dataset (the loadgen's), fixed like the
/// cold workloads' datasets.
const WORLD_SEED: u64 = 7;
/// Neighborhood support size: large enough that the seller's price points
/// make the weight solve real work during set-up.
const SUPPORT: usize = 1000;
const CONNECTIONS: usize = 2;
const BUYERS_PER_CONNECTION: usize = 4;
/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

fn price_points() -> Vec<PricePoint> {
    vec![
        PricePoint::new("SELECT * FROM Country", 60.0),
        PricePoint::new("SELECT ID, Population FROM Country", 20.0),
        PricePoint::new("SELECT * FROM City", 25.0),
    ]
}

/// The support set is the broker's default draw, as in the cold
/// workloads: the cost of market-churn's cold quotes depends on which
/// neighbors were drawn. The run seed draws the request log.
fn config(spec: &MarketSpec, tel: Telemetry) -> QiranaConfig {
    QiranaConfig {
        total_price: 100.0,
        support: SupportConfig {
            size: SUPPORT,
            ..Default::default()
        },
        function: spec.function,
        price_points: price_points(),
        engine: EngineOptions::default().with_telemetry(tel),
        ..Default::default()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Quote(usize),
    Buy(usize, String),
    Update(String),
}

#[derive(Debug, Clone)]
struct Request {
    conn: usize,
    /// Due time, as an offset from the start of the run.
    due: Duration,
    op: Op,
}

fn update_sql(rng: &mut Rng) -> String {
    format!(
        "UPDATE Country SET Population = {} WHERE ID = {}",
        100_000 + rng.below(100_000_000),
        1 + rng.below(world::NUM_COUNTRIES)
    )
}

/// The run's request log: global request `k` is due at `k / rate` and
/// goes out on connection `k % 2`. market-read draws ~75% quotes and ~25%
/// history-aware buys at random. market-churn runs fixed cycles: an admin
/// `UPDATE`, then quotes, then buys in the cycle's last quarter. Every quote
/// therefore follows a commit with no buy in between to re-fill the cache,
/// so its cost is the write path's (fresh replica, engine re-run) instead
/// of a seed-dependent mix of cold and cached quotes.
fn schedule(spec: &MarketSpec, seed: u64, budget: Duration) -> Vec<Request> {
    let n = (spec.rate * budget.as_secs_f64()).round() as usize;
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|k| {
            let conn = k % CONNECTIONS;
            let buy = if spec.update_every > 0 {
                k % spec.update_every >= spec.update_every * 3 / 4
            } else {
                rng.below(4) == 0
            };
            let op = if spec.update_every > 0 && k % spec.update_every == 0 {
                Op::Update(update_sql(&mut rng))
            } else if buy {
                let buyer = format!("c{conn}b{}", rng.below(BUYERS_PER_CONNECTION));
                Op::Buy(rng.below(POOL.len()), buyer)
            } else {
                Op::Quote(rng.below(POOL.len()))
            };
            Request {
                conn,
                due: Duration::from_secs_f64(k as f64 / spec.rate),
                op,
            }
        })
        .collect()
}

/// One served request as the client saw it.
#[derive(Debug, Clone)]
struct Outcome {
    status: u16,
    price: Option<f64>,
    total_paid: Option<f64>,
    /// From the due time to the end of the response.
    latency: Duration,
    lateness: Duration,
    error: Option<String>,
}

/// Builds the broker with its durable ledger, buys the pool once so every
/// plan is cached, and starts the server. Returns the server and the time
/// all of that took.
fn setup(
    spec: &MarketSpec,
    db: &Database,
    tel: Telemetry,
    dir: &TempDir,
) -> (PricingServer, Duration) {
    let replica = db.clone();
    let (server, t) = timed(|| {
        let mut broker = Qirana::open(
            replica,
            config(spec, tel.clone()),
            LedgerConfig::new(&dir.0),
        )
        .expect("broker construction");
        for sql in POOL {
            broker.buy("warm", sql).expect("cache warm-up buy");
        }
        PricingServer::start(broker, ServerConfig::default(), tel).expect("server start")
    });
    (server, t)
}

/// Waits for `due` without oversleeping: sleeps to just short of it, then
/// spins, so the sender's own wake-up jitter stays out of the latencies.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn send(conn: &mut Conn, op: &Op) -> Result<crate::http::Response, String> {
    match op {
        Op::Quote(i) => conn.post("/v1/quote", vec![("sql", POOL[*i])]),
        Op::Buy(i, buyer) => conn.post("/v1/buy", vec![("buyer", buyer), ("sql", POOL[*i])]),
        Op::Update(sql) => conn.post("/v1/admin/update", vec![("sql", sql)]),
    }
}

/// Drives the log open loop: each connection sends its requests at their
/// due times (late ones immediately) and waits for each response.
fn drive(addr: SocketAddr, reqs: &[Request]) -> Vec<Outcome> {
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(addr).expect("connect"))
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let mut out: Vec<Option<Outcome>> = vec![None; reqs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for (k, r) in reqs.iter().enumerate().filter(|(_, r)| r.conn == c) {
                        let due = start + r.due;
                        wait_until(due);
                        let sent = Instant::now();
                        let resp = send(conn, &r.op);
                        let done = Instant::now();
                        let (status, price, total_paid, error) = match resp {
                            Ok(resp) => (
                                resp.status,
                                resp.num("price"),
                                resp.num("total_paid"),
                                (resp.status != 200).then(|| format!("{:?}", resp.body)),
                            ),
                            Err(e) => (0, None, None, Some(e)),
                        };
                        mine.push((
                            k,
                            Outcome {
                                status,
                                price,
                                total_paid,
                                latency: latency_from_due(due, done),
                                lateness: lateness(due, sent),
                                error,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (k, o) in h.join().expect("client thread") {
                out[k] = Some(o);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every request sent"))
        .collect()
}

/// Latency summaries of one driven log.
struct Served {
    quote_ms_by_query: Vec<Vec<f64>>,
    quote_ms: Vec<f64>,
    buy_ms: Vec<f64>,
    update_ms: Vec<f64>,
    max_lateness_ms: f64,
    span: Duration,
}

fn summarize(reqs: &[Request], outs: &[Outcome]) -> Served {
    let mut s = Served {
        quote_ms_by_query: vec![Vec::new(); POOL.len()],
        quote_ms: Vec::new(),
        buy_ms: Vec::new(),
        update_ms: Vec::new(),
        max_lateness_ms: 0.0,
        span: Duration::ZERO,
    };
    for (r, o) in reqs.iter().zip(outs) {
        let l = ms(o.latency);
        s.max_lateness_ms = s.max_lateness_ms.max(ms(o.lateness));
        s.span = s.span.max(r.due + o.latency);
        if o.status != 200 {
            continue;
        }
        match r.op {
            Op::Quote(i) => {
                s.quote_ms_by_query[i].push(l);
                s.quote_ms.push(l);
            }
            Op::Buy(..) => s.buy_ms.push(l),
            Op::Update(_) => s.update_ms.push(l),
        }
    }
    s
}

impl Served {
    fn geomean_ms(&self) -> Option<f64> {
        let medians: Option<Vec<f64>> = self.quote_ms_by_query.iter().map(|v| median(v)).collect();
        geomean(&medians?)
    }
}

pub fn run(spec: &MarketSpec, seed: u64, budget: Duration, trace: bool) -> Report {
    let db = world::generate(WORLD_SEED);
    let reqs = schedule(spec, seed, budget);
    let engine = EngineOptions::default();
    println!(
        "config workload={} dataset=world data_seed={WORLD_SEED} support=neighborhood S={SUPPORT} \
         support_seed={:#x} seed={seed} (request log) \
         function={:?} total_price=100 price_points={} engine=[optimize={} batch={} reduce={} \
         delta={} parallelism={:?} cache={}x{}] ledger=[fsync={:?} snapshot_every={}] \
         server={:?} load=open-loop rate={}/s connections={CONNECTIONS} \
         buyers_per_connection={BUYERS_PER_CONNECTION} update_every={} requests={} pool={}",
        spec.name,
        SupportConfig::default().seed,
        spec.function,
        price_points().len(),
        engine.optimize,
        engine.batch,
        engine.reduce,
        engine.delta,
        engine.parallelism,
        engine.cache.enabled,
        engine.cache.capacity,
        LedgerConfig::new(".").fsync,
        LedgerConfig::new(".").snapshot_every,
        ServerConfig::default(),
        spec.rate,
        spec.update_every,
        reqs.len(),
        POOL.len(),
    );
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut served = None;
    for i in 0..SETUP_REPEATS {
        let dir = TempDir::new(&format!("{}-{i}", spec.name));
        let (server, t) = setup(spec, &db, Telemetry::disabled(), &dir);
        setups.push(t.as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            server.shutdown();
        } else {
            served = Some((server, dir));
        }
    }
    let (server, dir) = served.expect("at least one set-up");

    let outs = drive(server.addr(), &reqs);
    let rss = peak_rss_mb();
    let accounts = read_accounts(server.addr(), &reqs, &mut report);
    server.shutdown();
    drop(dir);

    let s = summarize(&reqs, &outs);
    report.e2e("setup_s", "s", median(&setups), setups.len());
    report.e2e("quote_geomean_ms", "ms", s.geomean_ms(), s.quote_ms.len());
    report.e2e(
        "quote_p50_ms",
        "ms",
        percentile(&s.quote_ms, 50.0),
        s.quote_ms.len(),
    );
    report.e2e(
        "quotes_per_s",
        "1/s",
        Some(s.quote_ms.len() as f64 / s.span.as_secs_f64()),
        s.quote_ms.len(),
    );
    report.e2e("peak_rss_mb", "MiB", rss, 1);
    report.e2e(
        "quote_p99_ms",
        "ms",
        percentile(&s.quote_ms, 99.0),
        s.quote_ms.len(),
    );
    report.e2e(
        "buy_p50_ms",
        "ms",
        percentile(&s.buy_ms, 50.0),
        s.buy_ms.len(),
    );
    report.e2e(
        "buy_p99_ms",
        "ms",
        percentile(&s.buy_ms, 99.0),
        s.buy_ms.len(),
    );
    if spec.update_every > 0 {
        report.e2e(
            "update_p50_ms",
            "ms",
            percentile(&s.update_ms, 50.0),
            s.update_ms.len(),
        );
    }
    println!(
        "metric loadgen.max_lateness = {:.3} ms (n={})",
        s.max_lateness_ms,
        reqs.len()
    );

    check_outcomes(&reqs, &outs, &accounts, &mut report);
    if spec.update_every == 0 {
        replay_check(spec, &db, &reqs, &outs, &mut report);
    }
    record_pool(spec, &db, &s);

    if trace {
        traced(spec, seed, &db, &reqs, &s, &mut report);
    }
    report
}

/// `GET /v1/account/<buyer>` for every buyer that bought something.
fn read_accounts(addr: SocketAddr, reqs: &[Request], report: &mut Report) -> BTreeMap<String, f64> {
    let mut conn = Conn::open(addr).expect("connect");
    let mut paid = BTreeMap::new();
    for r in reqs {
        if let Op::Buy(_, buyer) = &r.op {
            if paid.contains_key(buyer) {
                continue;
            }
            report.attempted += 1;
            match conn.get(&format!("/v1/account/{buyer}")) {
                Ok(resp) if resp.status == 200 => {
                    paid.insert(buyer.clone(), resp.num("paid").unwrap_or(f64::NAN));
                }
                Ok(resp) => report.fail(format!("account {buyer}: status {}", resp.status)),
                Err(e) => report.fail(format!("account {buyer}: {e}")),
            }
        }
    }
    paid
}

/// Every response is 200 with a finite price in `[0, total_price]`, and
/// each buyer's account equals its purchases: `paid` is bitwise the last
/// purchase's `total_paid` and, to rounding, the sum of its prices.
fn check_outcomes(
    reqs: &[Request],
    outs: &[Outcome],
    accounts: &BTreeMap<String, f64>,
    report: &mut Report,
) {
    let mut sums: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (k, (r, o)) in reqs.iter().zip(outs).enumerate() {
        report.attempted += 1;
        if o.status != 200 {
            report.fail(format!(
                "request {k} {:?}: status {} {}",
                r.op,
                o.status,
                o.error.as_deref().unwrap_or("")
            ));
            continue;
        }
        if matches!(r.op, Op::Update(_)) {
            continue;
        }
        match o.price {
            Some(p) if p.is_finite() && (0.0..=100.0).contains(&p) => {}
            other => report.fail(format!("request {k} {:?}: price {other:?}", r.op)),
        }
        if let (Op::Buy(_, buyer), Some(p), Some(total)) = (&r.op, o.price, o.total_paid) {
            let e = sums.entry(buyer).or_default();
            e.0 += p;
            e.1 = total;
        }
    }
    for (buyer, (sum, last_total)) in sums {
        let paid = accounts.get(buyer).copied().unwrap_or(f64::NAN);
        if paid.to_bits() != last_total.to_bits() || (paid - sum).abs() > 1e-9 * paid.max(1.0) {
            report.fail(format!(
                "account {buyer}: paid {paid} vs purchases sum {sum}, last total {last_total}"
            ));
        }
    }
}

/// market-read's prices must equal, bitwise, an in-process broker
/// replaying each connection's log in order. Buyers are per connection
/// and nothing writes, so the interleaving cannot change a price.
fn replay_check(
    spec: &MarketSpec,
    db: &Database,
    reqs: &[Request],
    outs: &[Outcome],
    report: &mut Report,
) {
    let (mut broker, t) = timed(|| {
        let mut b =
            Qirana::new(db.clone(), config(spec, Telemetry::disabled())).expect("replay broker");
        for sql in POOL {
            b.buy("warm", sql).expect("warm-up buy");
        }
        b
    });
    let t0 = Instant::now();
    let mut checked = 0;
    for c in 0..CONNECTIONS {
        for (k, (r, o)) in reqs
            .iter()
            .zip(outs)
            .enumerate()
            .filter(|(_, (r, _))| r.conn == c)
        {
            let direct = match &r.op {
                Op::Quote(i) => broker.quote(POOL[*i]).map_err(|e| e.to_string()),
                Op::Buy(i, buyer) => broker
                    .buy(buyer, POOL[*i])
                    .map(|p| p.price)
                    .map_err(|e| e.to_string()),
                Op::Update(_) => continue,
            };
            match (direct, o.price) {
                (Ok(d), Some(p)) if d.to_bits() == p.to_bits() => checked += 1,
                (d, p) => report.fail(format!("request {k}: served {p:?}, replay {d:?}")),
            }
        }
    }
    println!(
        "check {checked}/{} served prices equal an in-process replay bitwise ({:.1} s)",
        reqs.len(),
        (t + t0.elapsed()).as_secs_f64()
    );
}

/// Prints each pool query's price, answer size and median served quote
/// latency.
fn record_pool(spec: &MarketSpec, db: &Database, s: &Served) {
    let broker = match Qirana::new(db.clone(), config(spec, Telemetry::disabled())) {
        Ok(b) => b,
        Err(e) => {
            println!("record unavailable: {e}");
            return;
        }
    };
    println!("record query price rows quote_p50_ms");
    let mut zero = 0;
    for (i, sql) in POOL.iter().enumerate() {
        let price = broker.quote(sql).unwrap_or(f64::NAN);
        zero += usize::from(price == 0.0);
        let rows = broker.answer(sql).map(|o| o.rows.len()).unwrap_or(0);
        println!(
            "record q{i} {price:.6} {rows} {:.3} {sql}",
            median(&s.quote_ms_by_query[i]).unwrap_or(f64::NAN)
        );
    }
    println!("record zero_priced {zero}/{}", POOL.len());
}

/// The traced run: the first half of the same log against a
/// telemetry-enabled server, then the layer probes on an identically
/// configured in-process broker.
fn traced(
    spec: &MarketSpec,
    seed: u64,
    db: &Database,
    reqs: &[Request],
    untraced: &Served,
    report: &mut Report,
) {
    let tel = Telemetry::enabled();
    let dir = TempDir::new(&format!("{}-traced", spec.name));
    let (server, _) = setup(spec, db, tel.clone(), &dir);
    let reqs = &reqs[..reqs.len() / 2];
    let outs = drive(server.addr(), reqs);
    let mut conn = Conn::open(server.addr()).expect("connect");
    let stats = conn.get("/v1/stats").expect("stats");
    drop(conn);
    server.shutdown();
    drop(dir);
    let traced = summarize(reqs, &outs);
    layers::trace_overhead(report, untraced.geomean_ms(), traced.geomean_ms());
    layers::engine_counters(report, &tel);
    let stats_json = stats.json();
    let cache = stats_json.as_ref().and_then(|j| j.get("cache"));
    let field = |k: &str| {
        cache
            .and_then(|c| c.get(k))
            .and_then(|v| v.as_num())
            .unwrap_or(0.0) as u64
    };
    layers::cache_stats(
        report,
        field("hits"),
        field("misses"),
        field("invalidations"),
        field("evictions"),
    );
    report.layer("server.rejections", "count", stats.num("rejected_total"), 1);
    report.layer(
        "loadgen.lateness_ms",
        "ms",
        Some(traced.max_lateness_ms),
        reqs.len(),
    );

    let mut events = Vec::new();
    for (r, o) in reqs.iter().zip(&outs) {
        match (&r.op, o.price, o.total_paid) {
            (Op::Buy(i, buyer), Some(price), Some(total_paid)) => {
                events.push(LedgerEvent::PurchaseCommitted {
                    buyer: buyer.clone(),
                    sql: POOL[*i].to_string(),
                    price,
                    total_paid,
                })
            }
            (Op::Update(sql), ..) => events.push(LedgerEvent::UpdateCommitted {
                sql: sql.clone(),
                changed: 1,
            }),
            _ => {}
        }
    }
    let sink = tel.sink().expect("enabled");
    let fsyncs = sink.counter("ledger_fsyncs_total") as f64
        / sink.counter("ledger_appends_total").max(1) as f64;

    let queries: Vec<(String, String)> = POOL
        .iter()
        .enumerate()
        .map(|(i, q)| (format!("q{i}"), q.to_string()))
        .collect();
    let cfg = config(spec, Telemetry::disabled());
    let records = layers::engine_probes(
        report,
        db,
        &queries,
        &cfg.support,
        spec.function,
        cfg.total_price,
        &cfg.price_points,
    );
    let probe_dir = TempDir::new(&format!("{}-probe", spec.name));
    let mut broker =
        Qirana::open(db.clone(), cfg, LedgerConfig::new(&probe_dir.0)).expect("probe broker");
    let mut rng = Rng::new(seed ^ 0xB0B);
    let updates: Vec<String> = (0..queries.len()).map(|_| update_sql(&mut rng)).collect();
    let mut probe_events = Vec::new();
    let probed = layers::broker_probes(report, &mut broker, &queries, &updates, &mut probe_events);
    layers::server_probe(report, broker, &queries, &probed);
    drop(probe_dir);
    layers::ledger_probe(report, &events, Some(fsyncs));

    let layer = |name: &str| {
        report
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    // market-read's quotes are cache hits; market-churn's follow a commit.
    let broker_part = if spec.update_every > 0 {
        format!(
            "broker.quote_miss {:.3} + broker.post_commit_quote {:.3}",
            layer("broker.quote_miss_ms"),
            layer("broker.post_commit_quote_ms")
        )
    } else {
        format!("broker.quote_hit {:.3}", layer("broker.quote_hit_ms"))
    };
    println!(
        "breakdown quote_p50_ms {:.3} = server.overhead_p50 {:.3} + {broker_part} + queueing",
        percentile(&untraced.quote_ms, 50.0).unwrap_or(f64::NAN),
        layer("server.overhead_p50_us") / 1e3,
    );
    let medians: Vec<f64> = untraced
        .quote_ms_by_query
        .iter()
        .map(|v| median(v).unwrap_or(f64::NAN))
        .collect();
    layers::print_records(&records, &medians);
}

/// A one-connection churn run checked against a direct in-process replay:
/// with a single connection the order of quotes, buys and updates is the
/// log's order, so every price must match bitwise.
pub fn one_connection_replay(seed: u64) -> Result<usize, String> {
    let spec = &CHURN;
    let db = world::generate(WORLD_SEED);
    let reqs: Vec<Request> = schedule(spec, seed, Duration::from_secs(2))
        .into_iter()
        .map(|r| Request { conn: 0, ..r })
        .collect();
    let dir = TempDir::new("selftest");
    let (server, _) = setup(spec, &db, Telemetry::disabled(), &dir);
    let outs = drive(server.addr(), &reqs);
    server.shutdown();
    let mut broker =
        Qirana::new(db, config(spec, Telemetry::disabled())).map_err(|e| e.to_string())?;
    for sql in POOL {
        broker.buy("warm", sql).map_err(|e| e.to_string())?;
    }
    let mut compared = 0;
    for (k, (r, o)) in reqs.iter().zip(&outs).enumerate() {
        let direct = match &r.op {
            Op::Quote(i) => broker.quote(POOL[*i]).map_err(|e| e.to_string())?,
            Op::Buy(i, buyer) => {
                broker
                    .buy(buyer, POOL[*i])
                    .map_err(|e| e.to_string())?
                    .price
            }
            Op::Update(sql) => {
                broker.commit_update(sql).map_err(|e| e.to_string())?;
                continue;
            }
        };
        if o.price.map(f64::to_bits) != Some(direct.to_bits()) {
            return Err(format!(
                "request {k} {:?}: served {:?}, direct {direct}",
                r.op, o.price
            ));
        }
        compared += 1;
    }
    Ok(compared)
}
