//! Differential tests of the disagreement engine's evaluation strategies.
//!
//! The engine has five ways to compute the same semantics: the naive
//! re-execution loop, the static/dynamic optimized checks (batched and
//! unbatched), the incremental delta evaluator, and the parallel executor
//! layered over each. On randomized databases, support sets, and
//! SPJ/aggregate queries, every strategy must produce *identical*
//! disagreement bits and partition fingerprints — and therefore
//! bitwise-identical prices.

use proptest::prelude::*;
use qirana_core::{
    bundle_disagreements, bundle_partition, generate_support, generate_uniform_worlds,
    prepare_query,
    pricing::{shannon_entropy, weighted_coverage},
    uniform_weights, CacheConfig, EngineOptions, Parallelism, PricingFunction, Qirana,
    QiranaConfig, SupportConfig, SupportSet, SupportUpdate, Telemetry, TestClock,
};
use qirana_sqlengine::{
    ColumnDef, DataType, Database, EngineError, ExecBudget, TableSchema, Value,
};
use std::time::Duration;

const GROUPS: [&str; 3] = ["a", "b", "c"];

/// Builds the two-table database under test: `T(id, grp, v)` and a child
/// relation `U(uid, t_id, w)` for join-shaped queries.
fn build_db(t_rows: &[(u8, i16)], u_rows: &[(u8, i16)]) -> Database {
    let mut db = Database::new();
    db.add_table(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("grp", DataType::Str),
                ColumnDef::new("v", DataType::Int),
            ],
            &["id"],
        ),
        t_rows
            .iter()
            .enumerate()
            .map(|(i, (g, v))| {
                vec![
                    (i as i64).into(),
                    GROUPS[*g as usize % GROUPS.len()].into(),
                    (*v as i64).into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    db.add_table(
        TableSchema::new(
            "U",
            vec![
                ColumnDef::new("uid", DataType::Int),
                ColumnDef::new("t_id", DataType::Int),
                ColumnDef::new("w", DataType::Int),
            ],
            &["uid"],
        ),
        u_rows
            .iter()
            .enumerate()
            .map(|(i, (t, w))| {
                vec![
                    (i as i64).into(),
                    (*t as i64 % t_rows.len().max(1) as i64).into(),
                    (*w as i64).into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    db
}

/// The query pool: SPJ, join, and aggregate shapes, parameterized by a
/// random constant so predicates land on both sides of the data.
fn query_pool(c: i16) -> Vec<String> {
    vec![
        format!("SELECT v FROM T WHERE v > {c}"),
        "SELECT grp FROM T".to_string(),
        format!("SELECT count(*) FROM T WHERE v <= {c}"),
        "SELECT grp, count(*), sum(v) FROM T GROUP BY grp".to_string(),
        "SELECT min(v), max(v), avg(v) FROM T".to_string(),
        format!("SELECT T.grp, U.w FROM T, U WHERE T.id = U.t_id AND U.w > {c}"),
        "SELECT T.grp, sum(U.w) FROM T, U WHERE T.id = U.t_id GROUP BY T.grp".to_string(),
    ]
}

const PAR: Parallelism = Parallelism::Threads(4);

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Naive, unbatched-optimized, batched-optimized, and parallel
    /// evaluation all yield identical disagreement bits — and identical
    /// coverage prices, to the last bit of the f64.
    #[test]
    fn all_strategies_agree_on_disagreement_bits(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..20),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..12),
        c in -40i16..40,
        seed in any::<u64>(),
        query_idx in 0usize..7,
    ) {
        let db = build_db(&t_rows, &u_rows);
        let sql = &query_pool(c)[query_idx];
        let q = prepare_query(&db, sql).unwrap();
        let support = SupportSet::Neighborhood(generate_support(
            &db,
            &SupportConfig { size: 96, seed, ..Default::default() },
        ));

        // Coverage ignores the delta flag: `default()` and
        // `default().with_delta(false)` both run the batched optimizer for
        // SPJ/aggregate shapes, so the pair pins that the flag is inert
        // here.
        let configs = [
            EngineOptions::naive(),
            EngineOptions::no_batching(),
            EngineOptions::default().with_delta(false),
            EngineOptions::default(),
            EngineOptions::naive().with_parallelism(PAR),
            EngineOptions::no_batching().with_parallelism(PAR),
            EngineOptions::default().with_delta(false).with_parallelism(PAR),
            EngineOptions::default().with_parallelism(PAR),
        ];
        let reference =
            bundle_disagreements(&db, &[&q], &support, &configs[0], None).unwrap();
        let weights = uniform_weights(support.len(), 100.0);
        let ref_price = weighted_coverage(&weights, &reference);
        for opts in &configs[1..] {
            let bits = bundle_disagreements(&db, &[&q], &support, opts, None).unwrap();
            prop_assert_eq!(&bits, &reference, "bits diverge for {} under {:?}", sql, opts);
            prop_assert_eq!(
                weighted_coverage(&weights, &bits).to_bits(),
                ref_price.to_bits(),
                "price diverges for {}", sql
            );
        }
    }

    /// Sequential and parallel partition refinement produce identical
    /// fingerprint vectors, hence bitwise-identical entropy prices.
    #[test]
    fn parallel_partition_is_bitwise_identical(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..20),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..12),
        c in -40i16..40,
        seed in any::<u64>(),
        query_idx in 0usize..7,
    ) {
        let db = build_db(&t_rows, &u_rows);
        let sql = &query_pool(c)[query_idx];
        let q = prepare_query(&db, sql).unwrap();
        let support = SupportSet::Neighborhood(generate_support(
            &db,
            &SupportConfig { size: 96, seed, ..Default::default() },
        ));

        // Full execution (delta off) is the reference; the delta path must
        // reproduce it bitwise, sequentially and in parallel.
        let full = bundle_partition(
            &db,
            &[&q],
            &support,
            &EngineOptions::default().with_delta(false),
        )
        .unwrap();
        let seq =
            bundle_partition(&db, &[&q], &support, &EngineOptions::default()).unwrap();
        prop_assert_eq!(&seq, &full, "delta partition diverges for {}", sql);
        let par = bundle_partition(
            &db,
            &[&q],
            &support,
            &EngineOptions::default().with_parallelism(PAR),
        )
        .unwrap();
        prop_assert_eq!(&seq, &par, "partition diverges for {}", sql);

        let weights = uniform_weights(support.len(), 100.0);
        prop_assert_eq!(
            shannon_entropy(100.0, &weights, &seq).to_bits(),
            shannon_entropy(100.0, &weights, &par).to_bits()
        );
    }

    /// Incremental history-aware pricing: over a random purchase session
    /// (repeats included), brokers with the pricing cache on and off — and
    /// under sequential and parallel executors — charge bitwise-identical
    /// prices at every step, for both pricing families. The cached broker
    /// must actually exercise the memo (hits > 0 whenever the session
    /// repeats a query).
    #[test]
    fn cached_and_uncached_sessions_are_bitwise_identical(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..16),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..10),
        c in -40i16..40,
        seed in any::<u64>(),
        session in prop::collection::vec(0usize..7, 1..6),
        entropy in any::<bool>(),
    ) {
        let function = if entropy {
            PricingFunction::ShannonEntropy
        } else {
            PricingFunction::WeightedCoverage
        };
        let pool = query_pool(c);
        let broker = |cache: CacheConfig, parallelism: Parallelism| {
            Qirana::new(
                build_db(&t_rows, &u_rows),
                QiranaConfig {
                    function,
                    support: SupportConfig { size: 96, seed, ..Default::default() },
                    engine: EngineOptions::default()
                        .with_cache(cache)
                        .with_parallelism(parallelism),
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let mut variants = [
            broker(CacheConfig::default(), Parallelism::Sequential),
            broker(CacheConfig::disabled(), Parallelism::Sequential),
            broker(CacheConfig::default(), PAR),
            broker(CacheConfig::disabled(), PAR),
        ];
        for &idx in &session {
            let sql = &pool[idx];
            let reference = variants[0].buy("p", sql).unwrap();
            for (v, variant) in variants.iter_mut().enumerate().skip(1) {
                let got = variant.buy("p", sql).unwrap();
                prop_assert_eq!(
                    got.price.to_bits(),
                    reference.price.to_bits(),
                    "variant {} diverges on {} ({:?})", v, sql, function
                );
                prop_assert_eq!(got.total_paid.to_bits(), reference.total_paid.to_bits());
            }
        }
        let repeats = session.len()
            != session.iter().collect::<std::collections::HashSet<_>>().len();
        if repeats {
            prop_assert!(variants[0].cache_stats().hits > 0, "repeat session must hit");
        }
        prop_assert_eq!(variants[1].cache_stats().hits, 0, "disabled cache never hits");
    }

    /// The incremental delta evaluator is observationally identical to full
    /// re-execution: over a random purchase session, brokers with the delta
    /// path on and off — crossed with sequential/parallel executors, with the
    /// pricing cache enabled so delta state is built once and reused — charge
    /// bitwise-identical prices at every step, for both pricing families.
    #[test]
    fn delta_and_full_sessions_are_bitwise_identical(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..16),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..10),
        c in -40i16..40,
        seed in any::<u64>(),
        session in prop::collection::vec(0usize..7, 1..6),
        entropy in any::<bool>(),
    ) {
        let function = if entropy {
            PricingFunction::ShannonEntropy
        } else {
            PricingFunction::WeightedCoverage
        };
        let pool = query_pool(c);
        let broker = |delta: bool, parallelism: Parallelism| {
            Qirana::new(
                build_db(&t_rows, &u_rows),
                QiranaConfig {
                    function,
                    support: SupportConfig { size: 96, seed, ..Default::default() },
                    engine: EngineOptions::default()
                        .with_delta(delta)
                        .with_parallelism(parallelism),
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let mut variants = [
            broker(false, Parallelism::Sequential),
            broker(true, Parallelism::Sequential),
            broker(false, PAR),
            broker(true, PAR),
        ];
        for &idx in &session {
            let sql = &pool[idx];
            let reference = variants[0].buy("p", sql).unwrap();
            for (v, variant) in variants.iter_mut().enumerate().skip(1) {
                let got = variant.buy("p", sql).unwrap();
                prop_assert_eq!(
                    got.price.to_bits(),
                    reference.price.to_bits(),
                    "delta variant {} diverges on {} ({:?})", v, sql, function
                );
                prop_assert_eq!(got.total_paid.to_bits(), reference.total_paid.to_bits());
            }
        }
    }

    /// Telemetry is observationally free: with tracing and metrics enabled
    /// versus disabled, under the sequential and the parallel executor, a
    /// purchase session charges bitwise-identical prices for both pricing
    /// families — and the deterministic engine counters
    /// (`neighbors_evaluated_total`, `disagreements_found_total`) agree
    /// between the sequential and parallel instrumented runs, so the
    /// telemetry itself is reproducible, not just harmless.
    #[test]
    fn telemetry_on_off_sessions_are_bitwise_identical(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..16),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..10),
        c in -40i16..40,
        seed in any::<u64>(),
        session in prop::collection::vec(0usize..7, 1..5),
        entropy in any::<bool>(),
    ) {
        let function = if entropy {
            PricingFunction::ShannonEntropy
        } else {
            PricingFunction::WeightedCoverage
        };
        let pool = query_pool(c);
        let broker = |telemetry: Telemetry, parallelism: Parallelism| {
            Qirana::new(
                build_db(&t_rows, &u_rows),
                QiranaConfig {
                    function,
                    support: SupportConfig { size: 96, seed, ..Default::default() },
                    engine: EngineOptions::default()
                        .with_telemetry(telemetry)
                        .with_parallelism(parallelism),
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let seq_tel = Telemetry::with_clock(Box::new(TestClock::stepping(10)));
        let par_tel = Telemetry::with_clock(Box::new(TestClock::stepping(10)));
        let mut variants = [
            broker(Telemetry::disabled(), Parallelism::Sequential),
            broker(seq_tel.clone(), Parallelism::Sequential),
            broker(Telemetry::disabled(), PAR),
            broker(par_tel.clone(), PAR),
        ];
        for &idx in &session {
            let sql = &pool[idx];
            let reference = variants[0].buy("p", sql).unwrap();
            for (v, variant) in variants.iter_mut().enumerate().skip(1) {
                let got = variant.buy("p", sql).unwrap();
                prop_assert_eq!(
                    got.price.to_bits(),
                    reference.price.to_bits(),
                    "variant {} diverges on {} ({:?})", v, sql, function
                );
                prop_assert_eq!(got.total_paid.to_bits(), reference.total_paid.to_bits());
            }
        }
        // The instrumented runs recorded real work...
        let seq_sink = seq_tel.sink().unwrap();
        let par_sink = par_tel.sink().unwrap();
        prop_assert_eq!(seq_sink.counter("purchases_total"), session.len() as u64);
        prop_assert!(!seq_sink.spans().is_empty(), "enabled run must record spans");
        // ...and the work counters are themselves deterministic: the
        // parallel executor evaluates exactly the same neighbors and finds
        // exactly the same disagreements as the sequential one.
        for counter in ["neighbors_evaluated_total", "disagreements_found_total"] {
            prop_assert_eq!(
                seq_sink.counter(counter),
                par_sink.counter(counter),
                "{} differs between sequential and parallel runs", counter
            );
        }
    }

    /// Uniform-world supports: the read-only shared-reference parallel path
    /// agrees with the sequential loop.
    #[test]
    fn parallel_uniform_worlds_agree(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..16),
        seed in any::<u64>(),
        query_idx in 0usize..5,
    ) {
        let db = build_db(&t_rows, &[]);
        let sql = &query_pool(0)[query_idx];
        let q = prepare_query(&db, sql).unwrap();
        let support = SupportSet::Uniform(generate_uniform_worlds(&db, 80, seed));

        let seq = bundle_disagreements(
            &db, &[&q], &support, &EngineOptions::default(), None,
        ).unwrap();
        let par = bundle_disagreements(
            &db, &[&q], &support, &EngineOptions::default().with_parallelism(PAR), None,
        ).unwrap();
        prop_assert_eq!(seq, par, "uniform bits diverge for {}", sql);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The quote path is `&self`: N sessions quoting the same broker
    /// concurrently (shared reference, no external locking) must price
    /// bitwise-identically to quoting sequentially — for both pricing
    /// families, with the pricing cache populated and disabled. Cached
    /// quotes run as generation-checked peeks and misses price on pooled
    /// scratch databases, so any shared mutable state leaking between
    /// concurrent sessions shows up here as a flipped bit. Quotes must
    /// also leave no trace: the memo's entry count is unchanged after
    /// the concurrent burst.
    #[test]
    fn concurrent_quote_sessions_match_sequential_bitwise(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..16),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..10),
        c in -40i16..40,
        seed in any::<u64>(),
        entropy in any::<bool>(),
        cached in any::<bool>(),
    ) {
        let function = if entropy {
            PricingFunction::ShannonEntropy
        } else {
            PricingFunction::WeightedCoverage
        };
        let cache = if cached { CacheConfig::default() } else { CacheConfig::disabled() };
        let pool = query_pool(c);
        let mut broker = Qirana::new(
            build_db(&t_rows, &u_rows),
            QiranaConfig {
                function,
                support: SupportConfig { size: 96, seed, ..Default::default() },
                engine: EngineOptions::default().with_cache(cache),
                ..Default::default()
            },
        )
        .unwrap();
        // Warm the memo through buys (quotes are peek-only and never
        // insert), so the cached runs exercise concurrent hits as well
        // as concurrent misses.
        for sql in pool.iter().step_by(2) {
            broker.buy("warm", sql).unwrap();
        }
        let broker = broker; // frozen: everything below is `&self`

        let sequential: Vec<u64> = pool
            .iter()
            .map(|sql| broker.quote(sql).unwrap().to_bits())
            .collect();
        let entries_before = broker.cache_len();

        const SESSIONS: usize = 4;
        let concurrent: Vec<Vec<(usize, u64)>> = std::thread::scope(|scope| {
            let broker = &broker;
            let pool = &pool;
            let handles: Vec<_> = (0..SESSIONS)
                .map(|t| {
                    scope.spawn(move || {
                        // Each session walks the pool from its own
                        // offset, so hits and misses interleave across
                        // sessions instead of marching in lockstep.
                        (0..pool.len())
                            .map(|j| {
                                let idx = (t + j) % pool.len();
                                (idx, broker.quote(&pool[idx]).unwrap().to_bits())
                            })
                            .collect::<Vec<(usize, u64)>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (session, results) in concurrent.iter().enumerate() {
            for &(idx, bits) in results {
                prop_assert_eq!(
                    bits,
                    sequential[idx],
                    "session {} diverged from sequential on {} ({:?}, cached={})",
                    session, pool[idx], function, cached
                );
            }
        }
        prop_assert_eq!(
            broker.cache_len(),
            entries_before,
            "concurrent quotes must not populate or evict the memo"
        );
    }
}

// ---------------------------------------------------------------------------
// Regressions
// ---------------------------------------------------------------------------

/// Regression: integers beyond 2^53 used to be fingerprinted through a
/// lossy f64 cast, so a support update swapping `2^53` for `2^53 + 1`
/// produced an identical result fingerprint — the engine saw no
/// disagreement and the buyer got that bit of information for free.
#[test]
fn pricing_detects_update_between_adjacent_large_ints() {
    const BIG: i64 = 1 << 53;
    let mut db = Database::new();
    db.add_table(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            &["id"],
        ),
        (0..4i64)
            .map(|i| vec![i.into(), BIG.into()])
            .collect::<Vec<_>>(),
    );
    let q = prepare_query(&db, "SELECT v FROM T").unwrap();
    let support = SupportSet::Neighborhood(vec![SupportUpdate::Row {
        table: 0,
        row: 1,
        changes: vec![(1, Value::Int(BIG + 1))],
    }]);
    for opts in [EngineOptions::naive(), EngineOptions::default()] {
        let bits = bundle_disagreements(&db, &[&q], &support, &opts, None).unwrap();
        assert_eq!(
            bits,
            vec![true],
            "2^53 -> 2^53+1 must be a visible disagreement ({opts:?})"
        );
    }
}

/// An expired execution budget must surface as `BudgetExceeded` through the
/// parallel fan-out, not hang, panic, or report partial bits.
#[test]
fn budget_trip_propagates_through_parallel_path() {
    let t_rows: Vec<(u8, i16)> = (0..16).map(|i| (i as u8, i as i16)).collect();
    let db = build_db(&t_rows, &[]);
    let q = prepare_query(&db, "SELECT grp, sum(v) FROM T GROUP BY grp").unwrap();
    let support = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: 200,
            ..Default::default()
        },
    ));
    let opts = EngineOptions::naive()
        .with_parallelism(PAR)
        .with_budget(ExecBudget::default().with_timeout(Duration::ZERO));
    let err = bundle_disagreements(&db, &[&q], &support, &opts, None).unwrap_err();
    assert!(
        matches!(err, EngineError::BudgetExceeded { .. }),
        "expected BudgetExceeded, got {err:?}"
    );
}
