//! Pricing-engine orchestration.
//!
//! A pricing call reduces to one of two primitives over the support set:
//!
//! * [`bundle_disagreements`] — for the coverage-family functions: one bit
//!   per support instance, "does the bundle's output change on `Dᵢ`?"
//!   (Algorithm 1 / 3). This is where §4's optimizations apply: SPJ and
//!   aggregate shapes run the batched Algorithms 4–6 ([`crate::optimized`]),
//!   everything else per-instance execution.
//! * [`bundle_partition`] — for the entropy-family functions: the bundle
//!   output fingerprint per instance (Algorithm 2). This inherently
//!   requires the queries' outputs per instance — the paper's reason
//!   weighted coverage is the recommended default — but the incremental
//!   evaluator ([`crate::delta`]) derives those outputs from memoized base
//!   state for SPJ/aggregate shapes instead of re-executing, falling back
//!   to full per-instance execution everywhere else.

use crate::cache::{CacheConfig, PricingCache};
use crate::delta::{self, DeltaState, ProbeStats};
use crate::fault;
use crate::naive;
use crate::normal_form::{Prepared, Shape};
use crate::optimized;
use crate::parallel::Parallelism;
use crate::support::SupportSet;
use crate::telemetry::{Stage, Telemetry};
use crate::update::SupportUpdate;
use qirana_sqlengine::{Database, EngineError, ExecBudget, Fingerprint, QueryOutput};
use std::borrow::Borrow;
use std::sync::Arc;

/// Engine knobs mirroring the paper's evaluated configurations, plus the
/// execution budget every pricing query runs under.
///
/// Carries the [`Telemetry`] handle, so the struct is `Clone` (an `Arc`
/// bump) but no longer `Copy`; engine entry points take it by reference.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Use the §4.1 static/dynamic disagreement checks instead of
    /// re-executing the query per support instance.
    pub optimize: bool,
    /// Batch the dynamic checks into a constant number of queries per
    /// relation (§4.2). Only meaningful when `optimize` is on.
    pub batch: bool,
    /// Run the naive path against per-relation *reduced instances*
    /// (Appendix A's instance reduction). Only used when `optimize` is off
    /// and the query is SPJ-shaped.
    pub reduce: bool,
    /// Selects the entropy family's evaluator: incremental (delta) support
    /// evaluation executes the plan once on the base instance, materializes
    /// per-operator state, and answers each neighbor as a delta
    /// ([`crate::delta`]) inside [`bundle_partition`] and
    /// [`query_partition`]. There the alternative is full per-neighbor
    /// re-execution, which is ~60× slower on the churn market. Opaque
    /// shapes, uniform supports, budget-limited runs, and any neighbor that
    /// trips a delta guard fall back to full execution.
    ///
    /// The coverage family ignores the flag: [`bundle_disagreements`]
    /// always prices SPJ/aggregate shapes with the batched Algorithms 4–6,
    /// which beat delta probes by 3–31× on the Fig. 5 queries (SSB Q3.2
    /// 13 ms against 417 ms). Prices are bitwise identical with the flag
    /// on or off.
    pub delta: bool,
    /// Execution budget applied to every query the pricing engine runs
    /// (base executions, per-instance re-executions, batched probes).
    /// Trips surface as [`EngineError::BudgetExceeded`]. Unlimited by
    /// default.
    pub budget: ExecBudget,
    /// Worker-pool size for the per-support-instance loops (naive
    /// disagreements, partition fingerprints, and the optimizer's
    /// per-update dynamic checks). Results are bitwise identical to the
    /// sequential path for any setting; see [`crate::parallel`].
    pub parallelism: Parallelism,
    /// Incremental history-aware pricing: memoize per-query disagreement
    /// bitmaps and partition blocks in the broker's [`PricingCache`], so a
    /// purchase evaluates only the new query (O(S)) instead of the whole
    /// accumulated bundle (O(H·S)). Prices are bitwise identical with the
    /// cache on or off; see [`crate::cache`].
    pub cache: CacheConfig,
    /// Observability hooks (spans + metrics). Disabled by default; the
    /// disabled path is a single branch on a null sink, and prices are
    /// bitwise identical with telemetry on or off (see
    /// [`crate::telemetry`]).
    pub telemetry: Telemetry,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            optimize: true,
            batch: true,
            reduce: false,
            delta: true,
            budget: ExecBudget::UNLIMITED,
            parallelism: Parallelism::Sequential,
            cache: CacheConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

impl EngineOptions {
    /// The paper's "no batching" configuration (Figure 5): static checks
    /// on, per-update dynamic queries.
    pub fn no_batching() -> Self {
        EngineOptions {
            optimize: true,
            batch: false,
            delta: false,
            ..Default::default()
        }
    }

    /// The unoptimized baseline: run the query per support instance.
    pub fn naive() -> Self {
        EngineOptions {
            optimize: false,
            batch: false,
            delta: false,
            ..Default::default()
        }
    }

    /// Toggles the incremental (delta) evaluation path.
    pub fn with_delta(mut self, delta: bool) -> Self {
        self.delta = delta;
        self
    }

    /// Replaces the execution budget.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the worker-pool configuration.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Replaces the pricing-cache configuration.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Replaces the telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Forwards an engine result, counting budget trips in the telemetry
/// registry on the way through.
fn meter_trips<T>(t: &Telemetry, r: Result<T, EngineError>) -> Result<T, EngineError> {
    if t.is_enabled() {
        if let Err(e) = &r {
            if e.is_budget_exceeded() {
                t.counter_add("budget_trips_total", 1);
            }
        }
    }
    r
}

/// Bag fingerprint of an output: display order ignored (see
/// [`crate::normal_form`] for why agreement is bag-based).
pub fn bag_fp(mut out: QueryOutput) -> Fingerprint {
    out.ordered = false;
    qirana_sqlengine::fingerprint(&out)
}

/// Combines per-query fingerprints into a bundle fingerprint
/// (order-sensitive: a bundle is a vector of queries).
pub fn combine_bundle(fps: &[Fingerprint]) -> Fingerprint {
    let mut acc: u128 = 0x5153_4cb9;
    for fp in fps {
        acc = acc.rotate_left(5) ^ fp.0.wrapping_mul(3);
    }
    Fingerprint(acc)
}

/// Folds per-query fingerprint vectors instance by instance with
/// [`combine_bundle`], in member order.
pub(crate) fn fold_bundle<V: Borrow<Vec<Fingerprint>>>(
    per_query: &[V],
    n: usize,
) -> Vec<Fingerprint> {
    let mut row = vec![Fingerprint(0); per_query.len()];
    (0..n)
        .map(|i| {
            for (slot, fps) in row.iter_mut().zip(per_query) {
                *slot = fps.borrow()[i];
            }
            combine_bundle(&row)
        })
        .collect()
}

/// True when the delta evaluator may serve this query: the flag is on, no
/// execution budget is in force (delta probes skip whole executions, so
/// budget trips could not fire deterministically), and the shape has delta
/// rules. Support-set kind is checked at the call sites (neighborhood
/// arms only).
fn delta_applies(q: &Prepared, opts: &EngineOptions) -> bool {
    opts.delta && opts.budget.is_unlimited() && matches!(q.shape, Shape::Spj(_) | Shape::Agg(_))
}

/// Obtains the query's delta state: from the pricing cache when one is
/// supplied (keyed by plan fingerprint + database generation, like every
/// other artifact), building — and memoizing — it otherwise. Build errors
/// are base-execution errors, which every full path reproduces.
fn delta_state_for(
    db: &Database,
    q: &Prepared,
    opts: &EngineOptions,
    cache: Option<&mut PricingCache>,
) -> Result<Arc<DeltaState>, EngineError> {
    let tel = &opts.telemetry;
    let mut cache = cache;
    if let Some(c) = &mut cache {
        if let Some(state) = c.get_delta(q.plan_fp) {
            return Ok(state);
        }
    }
    let span = tel.span(Stage::DeltaBuild);
    let state = Arc::new(delta::build(db, q)?);
    drop(span);
    tel.counter_add("delta_builds_total", 1);
    if let Some(c) = &mut cache {
        c.insert_delta(q.plan_fp, Arc::clone(&state));
    }
    Ok(state)
}

/// Folds one delta probe sweep's tallies into the metrics registry.
fn record_probe_stats(tel: &Telemetry, stats: ProbeStats) {
    if tel.is_enabled() {
        tel.counter_add("delta_probes_total", stats.probes);
        tel.counter_add("delta_short_circuits_total", stats.short_circuits);
        tel.counter_add("delta_fallbacks_total", stats.fallbacks);
    }
}

/// Computes, for every support instance, whether the bundle's output on it
/// differs from the output on the stored database.
///
/// Over a neighborhood support, SPJ and aggregate members run the paper's
/// Algorithms 4–6 with §4.2 batching ([`crate::optimized`]); opaque members
/// run per-neighbor execution. The delta evaluator never serves this
/// family: on the Fig. 5 queries its per-probe re-execution of the joined
/// core lost to batching by 3–31× (SSB Q2.1 219 ms against 9.6 ms, TPC-H Q5
/// 798 ms against 90 ms), so `opts.delta` is ignored here.
///
/// `skip[i] = true` excludes instance `i` from evaluation (its bit stays
/// `false`): history-aware pricing passes the already-charged bitmap here
/// (Algorithm 3), which also makes repeat pricing *faster*, as §5.3
/// observes.
///
/// Neighbors are read through row patches, so `db` is only read.
pub fn bundle_disagreements(
    db: &Database,
    bundle: &[&Prepared],
    support: &SupportSet,
    opts: &EngineOptions,
    skip: Option<&[bool]>,
) -> Result<Vec<bool>, EngineError> {
    fault::check(fault::ENGINE_EXECUTE)
        .map_err(|f| EngineError::Eval(format!("injected fault: {f}")))?;
    let n = support.len();
    if let Some(s) = skip {
        assert_eq!(s.len(), n, "skip bitmap must cover the support set");
    }
    let tel = &opts.telemetry;
    let mut disagree = vec![false; n];
    // active[i]: still needs evaluation for the remaining queries.
    let mut active: Vec<bool> = match skip {
        Some(s) => s.iter().map(|&b| !b).collect(),
        None => vec![true; n],
    };

    for q in bundle {
        let span = if tel.is_enabled() {
            let s = tel.span_with(Stage::Disagreement, "coverage".into());
            // Deterministic per-query work measure: instances still active
            // going into this member — identical sequential vs parallel.
            s.count("neighbors", active.iter().filter(|&&a| a).count() as u64);
            s
        } else {
            tel.span(Stage::Disagreement)
        };
        // One `evaluator_*_total` count per member: `batched` is the §4
        // optimizer (batched unless `batch` is off), `full` per-instance
        // execution.
        let (evaluator, bits) = match support {
            SupportSet::Uniform(worlds) => (
                "evaluator_full_total",
                naive::disagreements_uniform(db, q, worlds, &active, opts),
            ),
            SupportSet::Neighborhood(updates) => match &q.shape {
                Shape::Spj(s) if opts.optimize => (
                    "evaluator_batched_total",
                    optimized::spj_disagreements(db, s, updates, &active, opts),
                ),
                Shape::Agg(s) if opts.optimize => (
                    "evaluator_batched_total",
                    optimized::agg_disagreements(db, q, s, updates, &active, opts),
                ),
                Shape::Spj(_) if opts.reduce => (
                    "evaluator_reduced_total",
                    naive::reduced_disagreements(db, q, updates, &active, opts.budget),
                ),
                _ => (
                    "evaluator_full_total",
                    naive::disagreements_nbrs(db, q, updates, &active, opts),
                ),
            },
        };
        tel.counter_add(evaluator, 1);
        let bits = meter_trips(tel, bits)?;
        let mut found = 0u64;
        for i in 0..n {
            if bits[i] {
                disagree[i] = true;
                // A later bundle member cannot change the verdict.
                active[i] = false;
                found += 1;
            }
        }
        if tel.is_enabled() {
            span.count("disagreements", found);
            tel.counter_add("neighbors_evaluated_total", n as u64);
            tel.counter_add("disagreements_found_total", found);
        }
        drop(span);
    }
    Ok(disagree)
}

/// Computes the bundle output fingerprint on every support instance
/// (Algorithm 2's dictionary keys). Skipped instances fingerprint as the
/// base output.
///
/// Honors `opts.budget` on every execution and fans the per-instance
/// executions out across `opts.parallelism` workers (fingerprints are
/// identical for any worker count; see [`crate::parallel`]).
pub fn bundle_partition(
    db: &Database,
    bundle: &[&Prepared],
    support: &SupportSet,
    opts: &EngineOptions,
) -> Result<Vec<Fingerprint>, EngineError> {
    bundle_partition_impl(db, bundle, support, opts, None)
}

/// One query's per-neighbor output fingerprints, served by the delta
/// evaluator when it applies and by full per-instance execution otherwise.
fn query_fps_neighborhood(
    db: &Database,
    q: &Prepared,
    updates: &[SupportUpdate],
    opts: &EngineOptions,
    cache: Option<&mut PricingCache>,
) -> Result<Vec<Fingerprint>, EngineError> {
    let tel = &opts.telemetry;
    let workers = opts.parallelism.workers(updates.len());
    if delta_applies(q, opts) {
        let state = delta_state_for(db, q, opts, cache)?;
        if state.is_usable() {
            let probe_span = tel.span_with(Stage::DeltaProbe, "entropy".into());
            let (fps, stats) = delta::query_fps_nbrs(db, q, &state, updates, workers, tel)?;
            if tel.is_enabled() {
                probe_span.count("probes", stats.probes);
                probe_span.count("short_circuits", stats.short_circuits);
                probe_span.count("fallbacks", stats.fallbacks);
            }
            record_probe_stats(tel, stats);
            tel.counter_add("evaluator_delta_total", 1);
            return Ok(fps);
        }
    }
    tel.counter_add("evaluator_full_total", 1);
    meter_trips(tel, naive::query_fps_nbrs(db, q, updates, opts))
}

/// [`bundle_partition`] with an optional pricing cache for delta-state
/// reuse.
fn bundle_partition_impl(
    db: &Database,
    bundle: &[&Prepared],
    support: &SupportSet,
    opts: &EngineOptions,
    mut cache: Option<&mut PricingCache>,
) -> Result<Vec<Fingerprint>, EngineError> {
    fault::check(fault::ENGINE_EXECUTE)
        .map_err(|f| EngineError::Eval(format!("injected fault: {f}")))?;
    let tel = &opts.telemetry;
    let n = support.len();
    let _span = if tel.is_enabled() {
        let s = tel.span_with(Stage::Disagreement, "entropy".into());
        s.count("neighbors", n as u64);
        tel.counter_add("neighbors_evaluated_total", n as u64);
        s
    } else {
        tel.span(Stage::Disagreement)
    };
    // Delta-eligible members price per query and fold with the same
    // order-sensitive combiner the monolithic path applies per instance —
    // bitwise identical by the combiner's definition (the differential
    // suite pins this equivalence).
    if let SupportSet::Neighborhood(updates) = support {
        if bundle.iter().any(|q| delta_applies(q, opts)) {
            let mut per_query = Vec::with_capacity(bundle.len());
            for q in bundle {
                per_query.push(query_fps_neighborhood(
                    db,
                    q,
                    updates,
                    opts,
                    cache.as_deref_mut(),
                )?);
            }
            return Ok(fold_bundle(&per_query, n));
        }
    }
    tel.counter_add("evaluator_full_total", bundle.len() as u64);
    meter_trips(
        tel,
        match support {
            SupportSet::Neighborhood(updates) => naive::partition_nbrs(db, bundle, updates, opts),
            SupportSet::Uniform(worlds) => naive::partition_uniform(bundle, worlds, opts),
        },
    )
}

/// A single query's full (unmasked) disagreement bitmap, memoized in
/// `cache` under the query's plan fingerprint.
///
/// This is the coverage-family cache primitive: history-aware `buy` masks
/// the shared full bitmap with the buyer's charged bits *after* lookup,
/// which is bitwise identical to passing the charged bits as `skip` to
/// [`bundle_disagreements`] — per-instance verdicts are independent, so
/// skipping an instance only suppresses its evaluation, never changes
/// another's bit.
pub fn query_disagreements_cached(
    db: &Database,
    q: &Prepared,
    support: &SupportSet,
    opts: &EngineOptions,
    cache: &mut PricingCache,
) -> Result<Arc<Vec<bool>>, EngineError> {
    let tel = &opts.telemetry;
    {
        let lookup = tel.span_with(Stage::CacheLookup, String::new());
        if let Some(bits) = cache.get_bits(q.plan_fp) {
            lookup.count("hit", 1);
            return Ok(bits);
        }
        lookup.count("miss", 1);
    }
    let bits = Arc::new(bundle_disagreements(db, &[q], support, opts, None)?);
    cache.insert_bits(q.plan_fp, Arc::clone(&bits));
    Ok(bits)
}

/// Cache-aware [`bundle_disagreements`]: the OR of the members' memoized
/// full bitmaps.
///
/// Bitwise identical to the uncached path: the uncached active-set
/// short-circuit only skips instances already known to disagree, and a
/// skipped instance's bit is already `true` in the OR.
pub fn bundle_disagreements_cached(
    db: &Database,
    bundle: &[&Prepared],
    support: &SupportSet,
    opts: &EngineOptions,
    cache: &mut PricingCache,
) -> Result<Vec<bool>, EngineError> {
    fault::check(fault::ENGINE_EXECUTE)
        .map_err(|f| EngineError::Eval(format!("injected fault: {f}")))?;
    let n = support.len();
    let mut disagree = vec![false; n];
    for q in bundle {
        let bits = query_disagreements_cached(db, q, support, opts, cache)?;
        for (d, &b) in disagree.iter_mut().zip(bits.iter()) {
            *d |= b;
        }
    }
    Ok(disagree)
}

/// A single query's per-instance output fingerprints (the entropy-family
/// cache primitive), computed without memoization.
pub fn query_partition(
    db: &Database,
    q: &Prepared,
    support: &SupportSet,
    opts: &EngineOptions,
) -> Result<Vec<Fingerprint>, EngineError> {
    query_partition_impl(db, q, support, opts, None)
}

/// [`query_partition`] with an optional pricing cache for delta-state
/// reuse.
fn query_partition_impl(
    db: &Database,
    q: &Prepared,
    support: &SupportSet,
    opts: &EngineOptions,
    cache: Option<&mut PricingCache>,
) -> Result<Vec<Fingerprint>, EngineError> {
    fault::check(fault::ENGINE_EXECUTE)
        .map_err(|f| EngineError::Eval(format!("injected fault: {f}")))?;
    let tel = &opts.telemetry;
    let n = support.len();
    let _span = if tel.is_enabled() {
        let s = tel.span_with(Stage::Disagreement, "entropy".into());
        s.count("neighbors", n as u64);
        tel.counter_add("neighbors_evaluated_total", n as u64);
        s
    } else {
        tel.span(Stage::Disagreement)
    };
    match support {
        SupportSet::Neighborhood(updates) => query_fps_neighborhood(db, q, updates, opts, cache),
        SupportSet::Uniform(worlds) => {
            tel.counter_add("evaluator_full_total", 1);
            meter_trips(tel, naive::query_fps_uniform(q, worlds, opts))
        }
    }
}

/// [`query_partition`], memoized in `cache` under the query's plan
/// fingerprint.
pub fn query_fingerprints_cached(
    db: &Database,
    q: &Prepared,
    support: &SupportSet,
    opts: &EngineOptions,
    cache: &mut PricingCache,
) -> Result<Arc<Vec<Fingerprint>>, EngineError> {
    let tel = &opts.telemetry;
    {
        let lookup = tel.span_with(Stage::CacheLookup, String::new());
        if let Some(fps) = cache.get_blocks(q.plan_fp) {
            lookup.count("hit", 1);
            return Ok(fps);
        }
        lookup.count("miss", 1);
    }
    let fps = Arc::new(query_partition_impl(db, q, support, opts, Some(cache))?);
    cache.insert_blocks(q.plan_fp, Arc::clone(&fps));
    Ok(fps)
}

/// Cache-aware [`bundle_partition`]: folds the members' memoized per-query
/// fingerprint vectors instance-by-instance with [`combine_bundle`].
///
/// Bitwise identical to the uncached path: on every instance each member's
/// fingerprint is its own output fingerprint there (an update leaving a
/// member's referenced tables untouched cannot change its output, so base
/// reuse and execution agree), and the fold applies the same
/// order-sensitive combiner to the same member order.
pub fn bundle_partition_cached(
    db: &Database,
    bundle: &[&Prepared],
    support: &SupportSet,
    opts: &EngineOptions,
    cache: &mut PricingCache,
) -> Result<Vec<Fingerprint>, EngineError> {
    fault::check(fault::ENGINE_EXECUTE)
        .map_err(|f| EngineError::Eval(format!("injected fault: {f}")))?;
    let mut per_query = Vec::with_capacity(bundle.len());
    for q in bundle {
        per_query.push(query_fingerprints_cached(db, q, support, opts, cache)?);
    }
    Ok(fold_bundle(&per_query, support.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal_form::prepare_query;
    use crate::support::{generate_support, SupportConfig};
    use qirana_sqlengine::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "User",
                vec![
                    ColumnDef::new("uid", DataType::Int),
                    ColumnDef::new("gender", DataType::Str),
                    ColumnDef::new("age", DataType::Int),
                ],
                &["uid"],
            ),
            vec![
                vec![1.into(), "m".into(), 25.into()],
                vec![2.into(), "f".into(), 13.into()],
                vec![3.into(), "m".into(), 45.into()],
                vec![4.into(), "f".into(), 19.into()],
            ],
        );
        db
    }

    /// The core cross-check: every engine configuration must produce the
    /// same disagreement bits as the naive baseline.
    #[test]
    fn optimizer_matches_naive_on_bundle() {
        let database = db();
        let support = SupportSet::Neighborhood(generate_support(
            &database,
            &SupportConfig {
                size: 300,
                ..Default::default()
            },
        ));
        let queries = [
            "select count(*) from User where gender = 'f'",
            "select gender from User where age > 18",
            "select gender, avg(age) from User group by gender",
        ];
        let prepared: Vec<_> = queries
            .iter()
            .map(|q| prepare_query(&database, q).unwrap())
            .collect();
        let bundle: Vec<&Prepared> = prepared.iter().collect();

        let naive =
            bundle_disagreements(&database, &bundle, &support, &EngineOptions::naive(), None)
                .unwrap();
        for opts in [EngineOptions::default(), EngineOptions::no_batching()] {
            let got = bundle_disagreements(&database, &bundle, &support, &opts, None).unwrap();
            assert_eq!(got, naive, "mismatch under {opts:?}");
        }
    }

    #[test]
    fn skip_suppresses_evaluation() {
        let database = db();
        let support = SupportSet::Neighborhood(generate_support(
            &database,
            &SupportConfig {
                size: 50,
                ..Default::default()
            },
        ));
        let q = prepare_query(&database, "select * from User").unwrap();
        let skip = vec![true; 50];
        let bits = bundle_disagreements(
            &database,
            &[&q],
            &support,
            &EngineOptions::default(),
            Some(&skip),
        )
        .unwrap();
        assert!(bits.iter().all(|&b| !b), "all skipped → all false");
    }

    #[test]
    fn full_dataset_query_disagrees_everywhere() {
        let database = db();
        let support = SupportSet::Neighborhood(generate_support(
            &database,
            &SupportConfig {
                size: 200,
                ..Default::default()
            },
        ));
        let q = prepare_query(&database, "select * from User").unwrap();
        let bits =
            bundle_disagreements(&database, &[&q], &support, &EngineOptions::default(), None)
                .unwrap();
        assert!(
            bits.iter().all(|&b| b),
            "every neighbor differs from D, so Q_all must disagree everywhere"
        );
    }

    #[test]
    fn untouched_relation_never_disagrees() {
        let mut database = db();
        database.add_table(
            TableSchema::new(
                "Other",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                &["id"],
            ),
            vec![vec![1.into(), 2.into()]],
        );
        let support = SupportSet::Neighborhood(generate_support(
            &database,
            &SupportConfig {
                size: 100,
                ..Default::default()
            },
        ));
        let q = prepare_query(&database, "select 1 from Other where v = 2").unwrap();
        let bits =
            bundle_disagreements(&database, &[&q], &support, &EngineOptions::default(), None)
                .unwrap();
        // Only updates touching Other can flip bits; verify against which
        // updates touch table index 1.
        let SupportSet::Neighborhood(updates) = &support else {
            unreachable!()
        };
        for (i, up) in updates.iter().enumerate() {
            if up.table() == 0 {
                assert!(!bits[i], "User update cannot change a query on Other");
            }
        }
    }

    #[test]
    fn cached_paths_match_uncached_bitwise() {
        let database = db();
        let support = SupportSet::Neighborhood(generate_support(
            &database,
            &SupportConfig {
                size: 250,
                ..Default::default()
            },
        ));
        let queries = [
            "select count(*) from User where gender = 'f'",
            "select gender from User where age > 18",
            "select gender, avg(age) from User group by gender",
        ];
        let prepared: Vec<_> = queries
            .iter()
            .map(|q| prepare_query(&database, q).unwrap())
            .collect();
        let bundle: Vec<&Prepared> = prepared.iter().collect();
        let opts = EngineOptions::default();
        let mut cache = PricingCache::new(64);

        let bits = bundle_disagreements(&database, &bundle, &support, &opts, None).unwrap();
        // Cold (all misses) and warm (all hits) must both agree bitwise.
        for round in 0..2 {
            let cached =
                bundle_disagreements_cached(&database, &bundle, &support, &opts, &mut cache)
                    .unwrap();
            assert_eq!(cached, bits, "round {round}");
        }
        let part = bundle_partition(&database, &bundle, &support, &opts).unwrap();
        for round in 0..2 {
            let cached =
                bundle_partition_cached(&database, &bundle, &support, &opts, &mut cache).unwrap();
            assert_eq!(cached, part, "round {round}");
        }
        let s = cache.stats();
        assert_eq!(s.misses, 6, "3 bitmap + 3 blocks cold misses");
        assert_eq!(s.hits, 6, "warm rounds are pure hits");
    }

    /// The delta evaluator is a pure accelerator: both families must be
    /// bitwise identical with it on or off, sequentially and in parallel,
    /// cached and uncached.
    #[test]
    fn delta_paths_match_full_bitwise() {
        let database = db();
        let support = SupportSet::Neighborhood(generate_support(
            &database,
            &SupportConfig {
                size: 250,
                ..Default::default()
            },
        ));
        let queries = [
            "select count(*) from User where gender = 'f'",
            "select gender from User where age > 18",
            "select gender, avg(age) from User group by gender",
            "select distinct gender from User", // opaque: per-neighbor fallback path
        ];
        let prepared: Vec<_> = queries
            .iter()
            .map(|q| prepare_query(&database, q).unwrap())
            .collect();
        let bundle: Vec<&Prepared> = prepared.iter().collect();

        let off = EngineOptions::default().with_delta(false);
        let bits_full = bundle_disagreements(&database, &bundle, &support, &off, None).unwrap();
        let part_full = bundle_partition(&database, &bundle, &support, &off).unwrap();

        for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let on = EngineOptions::default().with_parallelism(par);
            let bits = bundle_disagreements(&database, &bundle, &support, &on, None).unwrap();
            assert_eq!(bits, bits_full, "coverage mismatch under {par:?}");
            let part = bundle_partition(&database, &bundle, &support, &on).unwrap();
            assert_eq!(part, part_full, "entropy mismatch under {par:?}");

            let mut cache = PricingCache::new(64);
            for round in 0..2 {
                let cached =
                    bundle_disagreements_cached(&database, &bundle, &support, &on, &mut cache)
                        .unwrap();
                assert_eq!(cached, bits_full, "cached coverage, round {round}");
                let cached =
                    bundle_partition_cached(&database, &bundle, &support, &on, &mut cache).unwrap();
                assert_eq!(cached, part_full, "cached entropy, round {round}");
            }
        }
    }

    /// The delta telemetry counters move, and cached delta states are
    /// built once per plan rather than once per purchase.
    #[test]
    fn delta_counters_and_cached_builds() {
        let database = db();
        let support = SupportSet::Neighborhood(generate_support(
            &database,
            &SupportConfig {
                size: 120,
                ..Default::default()
            },
        ));
        let q = prepare_query(&database, "select gender from User where age > 18").unwrap();
        let opts = EngineOptions::default().with_telemetry(Telemetry::enabled());
        let mut cache = PricingCache::new(16);
        for _ in 0..3 {
            query_fingerprints_cached(&database, &q, &support, &opts, &mut cache).unwrap();
        }
        let sink = opts.telemetry.sink().map(Arc::clone).unwrap();
        assert_eq!(
            sink.counter("delta_builds_total"),
            1,
            "state reused from the cache after the first build"
        );
        assert_eq!(sink.counter("delta_probes_total"), 120);
        assert!(
            sink.counter("delta_short_circuits_total") + sink.counter("delta_fallbacks_total")
                <= sink.counter("delta_probes_total")
        );
        // The delta artifact is counter-quiet: the three rounds above are
        // 1 blocks miss + 2 blocks hits, exactly as without delta.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    /// Dispatch regression: with default options the coverage family runs
    /// the batched Algorithms 4–6 and never touches the delta evaluator,
    /// while the entropy family probes every neighbor through delta.
    #[test]
    fn coverage_is_batched_and_entropy_is_delta() {
        const S: usize = 150;
        let database = db();
        let support = SupportSet::Neighborhood(generate_support(
            &database,
            &SupportConfig {
                size: S,
                ..Default::default()
            },
        ));
        let spj = prepare_query(&database, "select gender from User where age > 18").unwrap();
        let agg = prepare_query(
            &database,
            "select gender, count(*) from User group by gender",
        )
        .unwrap();
        assert!(matches!(spj.shape, Shape::Spj(_)) && matches!(agg.shape, Shape::Agg(_)));
        let bundle = [&spj, &agg];

        let opts = EngineOptions::default().with_telemetry(Telemetry::enabled());
        let sink = opts.telemetry.sink().map(Arc::clone).unwrap();
        bundle_disagreements(&database, &bundle, &support, &opts, None).unwrap();
        assert_eq!(sink.counter("delta_builds_total"), 0);
        assert_eq!(sink.counter("delta_probes_total"), 0);
        assert_eq!(sink.counter("evaluator_batched_total"), 2, "one per member");
        assert_eq!(sink.counter("evaluator_delta_total"), 0);
        assert_eq!(sink.counter("evaluator_full_total"), 0);

        bundle_partition(&database, &bundle, &support, &opts).unwrap();
        assert_eq!(sink.counter("delta_builds_total"), 2);
        assert_eq!(
            sink.counter("delta_probes_total"),
            (S * bundle.len()) as u64,
            "S probes per member"
        );
        assert_eq!(sink.counter("evaluator_delta_total"), 2);
        assert_eq!(sink.counter("evaluator_batched_total"), 2);
        assert_eq!(sink.counter("evaluator_full_total"), 0);
        assert_eq!(sink.counter("evaluator_reduced_total"), 0);
    }

    #[test]
    fn combine_bundle_is_order_sensitive() {
        let a = Fingerprint(1);
        let b = Fingerprint(2);
        assert_ne!(combine_bundle(&[a, b]), combine_bundle(&[b, a]));
        assert_eq!(combine_bundle(&[a, b]), combine_bundle(&[a, b]));
    }
}
