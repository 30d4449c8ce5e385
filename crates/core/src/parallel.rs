//! Parallel pricing executor: fans per-support-instance query executions
//! out across a scoped worker pool.
//!
//! The support loop is the system's single hottest path — O(|support| ×
//! query cost), and every iteration is independent of the others. Every
//! per-instance loop in the engine is one call to [`run_indexed`], which
//! runs inline for one worker and otherwise gives near-linear multicore
//! speedup while preserving three guarantees:
//!
//! * **Determinism.** Results are collected *index-ordered*: each support
//!   instance's verdict lands in its own slot regardless of which worker
//!   computed it or when, so disagreement bits — and therefore prices —
//!   are bitwise identical to the sequential path for any worker count.
//! * **Budget enforcement.** Every per-instance execution runs under the
//!   same [`ExecBudget`](qirana_sqlengine::ExecBudget) for any worker count
//!   (one fresh meter per execution, deadline measured from that
//!   execution's start). The first
//!   [`EngineError::BudgetExceeded`] — or any other error — raises a
//!   cooperative stop flag; workers abandon their queues at the next
//!   instance boundary and the lowest-index error is returned.
//! * **Shared, read-only state.** Workers share the stored database, the
//!   plans and any uniform worlds by reference: a neighborhood instance is
//!   read through its update's row patch
//!   ([`crate::update::SupportUpdate::patch`]), never written. `Database`
//!   is `Sync` (asserted at compile time in `qirana-sqlengine`), and all
//!   interior-mutable execution state lives in per-execution
//!   `ExecContext`s.
//!
//! Work is distributed by chunked atomic stealing: workers grab
//! [`CHUNK`]-sized index ranges from a shared counter, which balances load
//! when per-instance cost is skewed (e.g. a handful of updates hit a large
//! joining relation) without affecting determinism — only *who* computes a
//! slot varies, never *what* lands in it.

use crate::telemetry::Telemetry;
use qirana_sqlengine::EngineError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How many support instances a worker claims per steal. Large enough to
/// amortize the atomic, small enough to load-balance skewed instances.
const CHUNK: usize = 16;

/// Below this many instances per worker the fan-out overhead (thread
/// spawn, result merge) outweighs the win; [`Parallelism::workers`]
/// shrinks the pool accordingly.
const MIN_ITEMS_PER_WORKER: usize = 32;

/// Degree of parallelism for the pricing executor, threaded through
/// [`crate::EngineOptions`] and honored by every support-loop primitive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded (the default): every loop runs inline on the
    /// caller's thread.
    #[default]
    Sequential,
    /// A fixed worker-pool size (values 0 and 1 mean sequential).
    Threads(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// Worker count for a support loop of `items` instances: the
    /// configured cap, shrunk so each worker has at least
    /// [`MIN_ITEMS_PER_WORKER`] instances (1 = run sequentially).
    pub fn workers(&self, items: usize) -> usize {
        let cap = match self {
            Parallelism::Sequential => return 1,
            Parallelism::Threads(n) => (*n).max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        cap.min(items / MIN_ITEMS_PER_WORKER).max(1)
    }
}

/// Runs `f(i)` for every `i in 0..n` and returns the results
/// index-ordered: inline on the caller's thread when `workers <= 1`
/// (recording no `parallel_*` telemetry), across `workers` scoped threads
/// otherwise.
///
/// Any error stops the loop — in the pool it raises the stop flag, and
/// remaining workers abandon their queues at the next chunk boundary — and
/// the error with the lowest index wins deterministically among those
/// raised.
pub(crate) fn run_indexed<T, F>(
    n: usize,
    workers: usize,
    f: F,
    tel: &Telemetry,
) -> Result<Vec<T>, EngineError>
where
    T: Send,
    F: Fn(usize) -> Result<T, EngineError> + Sync,
{
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    if tel.is_enabled() {
        tel.counter_add("parallel_fanouts_total", 1);
        tel.gauge_set("parallel_workers", workers as u64);
    }

    let per_worker: Vec<WorkerResult<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out: Vec<(usize, T)> = Vec::with_capacity(n / workers + CHUNK);
                    let mut err: Option<(usize, EngineError)> = None;
                    let mut chunks = 0u64;
                    'steal: while !stop.load(Ordering::Relaxed) {
                        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        chunks += 1;
                        for i in start..(start + CHUNK).min(n) {
                            match f(i) {
                                Ok(v) => out.push((i, v)),
                                Err(e) => {
                                    stop.store(true, Ordering::Relaxed);
                                    err = Some((i, e));
                                    break 'steal;
                                }
                            }
                        }
                    }
                    if tel.is_enabled() {
                        // Error-free pools claim exactly ceil(n / CHUNK)
                        // chunks in total; the per-worker split is the
                        // load-balance picture.
                        tel.counter_add("parallel_chunks_claimed_total", chunks);
                        tel.observe("parallel_worker_chunks", chunks);
                    }
                    (out, err)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise the worker's own panic payload on the caller
                // thread instead of replacing it with a generic message.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut first_err: Option<(usize, EngineError)> = None;
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (out, err) in per_worker {
        for (i, v) in out {
            slots[i] = Some(v);
        }
        if let Some((i, e)) = err {
            if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                first_err = Some((i, e));
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    // Every index in 0..n is claimed exactly once by the chunked atomic
    // counter (the loom model in crates/core/tests/loom.rs exercises this
    // invariant under perturbed schedules), so every slot is filled — and
    // if that invariant ever breaks, the broker degrades instead of
    // aborting mid-purchase.
    slots
        .into_iter()
        .map(|s| s.ok_or_else(|| EngineError::internal("worker pool left a result slot unfilled")))
        .collect()
}

type WorkerResult<T> = (Vec<(usize, T)>, Option<(usize, EngineError)>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::naive;
    use crate::normal_form::prepare_query;
    use crate::support::{generate_support, generate_uniform_worlds, SupportConfig};
    use qirana_sqlengine::{ColumnDef, DataType, Database, ExecBudget, TableSchema};
    use std::time::Duration;

    fn db() -> Database {
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
            (0..30i64)
                .map(|i| {
                    vec![
                        i.into(),
                        if i % 3 == 0 { "a" } else { "b" }.into(),
                        (i * 5).into(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        db
    }

    /// Options running the per-instance loops on `workers` threads.
    fn threads(workers: usize) -> EngineOptions {
        EngineOptions::naive().with_parallelism(Parallelism::Threads(workers))
    }

    #[test]
    fn workers_respects_caps() {
        assert_eq!(Parallelism::Sequential.workers(1_000_000), 1);
        assert_eq!(Parallelism::Threads(0).workers(10_000), 1);
        assert_eq!(Parallelism::Threads(4).workers(10_000), 4);
        assert_eq!(Parallelism::Threads(4).workers(40), 1);
        assert_eq!(Parallelism::Threads(4).workers(64), 2);
        assert!(Parallelism::Auto.workers(1_000_000) >= 1);
    }

    #[test]
    fn parallel_nbrs_matches_sequential() {
        let database = db();
        let updates = generate_support(
            &database,
            &SupportConfig {
                size: 400,
                ..Default::default()
            },
        );
        let active = vec![true; updates.len()];
        for sql in [
            "select v from T where grp = 'a'",
            "select grp, sum(v) from T group by grp",
        ] {
            let q = prepare_query(&database, sql).unwrap();
            let seq =
                naive::disagreements_nbrs(&database, &q, &updates, &active, &threads(1)).unwrap();
            for workers in [2, 3, 8] {
                let par =
                    naive::disagreements_nbrs(&database, &q, &updates, &active, &threads(workers))
                        .unwrap();
                assert_eq!(seq, par, "worker count {workers} changed bits for {sql}");
            }
        }
    }

    #[test]
    fn parallel_uniform_matches_sequential() {
        let database = db();
        let worlds = generate_uniform_worlds(&database, 64, 9);
        let active = vec![true; worlds.len()];
        let q = prepare_query(&database, "select grp, v from T").unwrap();
        let seq =
            naive::disagreements_uniform(&database, &q, &worlds, &active, &threads(1)).unwrap();
        let par =
            naive::disagreements_uniform(&database, &q, &worlds, &active, &threads(4)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_partition_matches_sequential() {
        let database = db();
        let updates = generate_support(
            &database,
            &SupportConfig {
                size: 300,
                ..Default::default()
            },
        );
        let q1 = prepare_query(&database, "select count(*) from T where v > 40").unwrap();
        let q2 = prepare_query(&database, "select grp from T").unwrap();
        let bundle = [&q1, &q2];
        let seq = naive::partition_nbrs(&database, &bundle, &updates, &threads(1)).unwrap();
        let par = naive::partition_nbrs(&database, &bundle, &updates, &threads(4)).unwrap();
        assert_eq!(seq, par);

        let worlds = generate_uniform_worlds(&database, 64, 5);
        let seq_u = naive::partition_uniform(&bundle, &worlds, &threads(1)).unwrap();
        let par_u = naive::partition_uniform(&bundle, &worlds, &threads(4)).unwrap();
        assert_eq!(seq_u, par_u);
    }

    #[test]
    fn parallel_query_fps_match_sequential() {
        let database = db();
        let updates = generate_support(
            &database,
            &SupportConfig {
                size: 300,
                ..Default::default()
            },
        );
        let q = prepare_query(&database, "select grp, sum(v) from T group by grp").unwrap();
        let seq = naive::query_fps_nbrs(&database, &q, &updates, &threads(1)).unwrap();
        for workers in [2, 4] {
            let par = naive::query_fps_nbrs(&database, &q, &updates, &threads(workers)).unwrap();
            assert_eq!(seq, par, "worker count {workers} changed fingerprints");
        }

        let worlds = generate_uniform_worlds(&database, 64, 5);
        let seq_u = naive::query_fps_uniform(&q, &worlds, &threads(1)).unwrap();
        let par_u = naive::query_fps_uniform(&q, &worlds, &threads(4)).unwrap();
        assert_eq!(seq_u, par_u);
    }

    #[test]
    fn budget_trip_aborts_fan_out() {
        let database = db();
        let updates = generate_support(
            &database,
            &SupportConfig {
                size: 300,
                ..Default::default()
            },
        );
        let q = prepare_query(&database, "select * from T").unwrap();
        // An already-expired deadline trips on the first execution of
        // whichever worker gets there first; the pool must abort promptly
        // and surface BudgetExceeded rather than hang or panic.
        let budget = ExecBudget::default().with_timeout(Duration::ZERO);
        let err = naive::disagreements_nbrs(
            &database,
            &q,
            &updates,
            &vec![true; updates.len()],
            &threads(4).with_budget(budget),
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::BudgetExceeded { .. }),
            "expected BudgetExceeded, got {err:?}"
        );
    }

    #[test]
    fn run_indexed_returns_lowest_index_error() {
        // Deterministic error selection: index 7 and 200 both fail; the
        // lowest must win no matter which worker hits which first.
        for workers in std::iter::once(1).chain([4; 8]) {
            let err = run_indexed(
                256,
                workers,
                |i| {
                    if i == 7 || i == 200 {
                        Err(EngineError::Eval(format!("boom {i}")))
                    } else {
                        Ok(i)
                    }
                },
                &Telemetry::disabled(),
            )
            .unwrap_err();
            // Index 7 is in the very first chunk, claimed before any
            // worker can reach 200 and stop the pool.
            assert!(err.to_string().ends_with("boom 7"), "{err}");
        }
    }

    #[test]
    fn inline_run_records_no_pool_telemetry() {
        let tel = Telemetry::enabled();
        let out = run_indexed(100, 1, |i| Ok(i * 2), &tel).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        let sink = tel.sink().unwrap();
        assert_eq!(sink.counter("parallel_fanouts_total"), 0);
        run_indexed(100, 2, |i| Ok(i * 2), &tel).unwrap();
        assert_eq!(sink.counter("parallel_fanouts_total"), 1);
    }
}
