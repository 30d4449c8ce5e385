//! Naive pricing evaluation: run the query on every support instance
//! (Algorithms 1 and 2 verbatim), plus Appendix A's *instance reduction*
//! optimization of that baseline.
//!
//! A neighbor is read through its update's row patch
//! ([`SupportUpdate::patch`]) and never written, so each loop takes
//! `&Database` and runs on [`run_indexed`]: inline for one worker, across
//! `opts.parallelism` workers otherwise, with identical results.

use crate::engine::{bag_fp, combine_bundle, EngineOptions};
use crate::normal_form::{Prepared, Shape};
use crate::parallel::run_indexed;
use crate::update::SupportUpdate;
use qirana_sqlengine::{execute, Database, EngineError, ExecBudget, ExecContext, Fingerprint, Row};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Bag fingerprint of `q` on the neighboring instance `up` produces, read
/// through a row patch: the stored database is never written.
pub(crate) fn neighbor_fp(
    db: &Database,
    q: &Prepared,
    up: &SupportUpdate,
    budget: ExecBudget,
) -> Result<Fingerprint, EngineError> {
    let patch = up.patch(db);
    let ctx = ExecContext::new(db).with_patch(up.table(), &patch);
    Ok(bag_fp(execute(&q.plan, &ctx.with_budget(budget))?))
}

/// Bag fingerprint of `q` on `db` as stored.
pub(crate) fn base_fp(
    db: &Database,
    q: &Prepared,
    budget: ExecBudget,
) -> Result<Fingerprint, EngineError> {
    Ok(bag_fp(execute(
        &q.plan,
        &ExecContext::new(db).with_budget(budget),
    )?))
}

/// Per-update naive disagreement bits over a neighborhood support set.
///
/// Every query execution — the base run and each per-instance re-run —
/// happens under `opts.budget`; a trip surfaces as
/// [`EngineError::BudgetExceeded`]. The per-instance runs fan out across
/// `opts.parallelism` workers with index-ordered results.
pub fn disagreements_nbrs(
    db: &Database,
    q: &Prepared,
    updates: &[SupportUpdate],
    active: &[bool],
    opts: &EngineOptions,
) -> Result<Vec<bool>, EngineError> {
    let refs = q.referenced_tables();
    let base = base_fp(db, q, opts.budget)?;
    run_indexed(
        updates.len(),
        opts.parallelism.workers(updates.len()),
        |i| {
            let up = &updates[i];
            if !active[i] || !refs.contains(&up.table()) {
                return Ok(false);
            }
            Ok(neighbor_fp(db, q, up, opts.budget)? != base)
        },
        &opts.telemetry,
    )
}

/// Naive disagreement bits over a uniform support set (whole databases).
pub fn disagreements_uniform(
    db: &Database,
    q: &Prepared,
    worlds: &[Database],
    active: &[bool],
    opts: &EngineOptions,
) -> Result<Vec<bool>, EngineError> {
    let base = base_fp(db, q, opts.budget)?;
    run_indexed(
        worlds.len(),
        opts.parallelism.workers(worlds.len()),
        |i| Ok(active[i] && base_fp(&worlds[i], q, opts.budget)? != base),
        &opts.telemetry,
    )
}

/// Bundle output fingerprints per neighborhood instance (Algorithm 2's
/// dictionary keys).
///
/// An update touching a relation the bundle never references cannot change
/// any member's output, so its instance fingerprints as the base — computed
/// once and reused instead of re-executing the bundle (mirroring the
/// unreferenced-relation short-circuit in [`disagreements_nbrs`]).
pub fn partition_nbrs(
    db: &Database,
    bundle: &[&Prepared],
    updates: &[SupportUpdate],
    opts: &EngineOptions,
) -> Result<Vec<Fingerprint>, EngineError> {
    let refs = bundle_refs(bundle);
    let base = if updates.iter().any(|u| !refs.contains(&u.table())) {
        Some(bundle_fps(&ExecContext::new(db), bundle, opts.budget)?)
    } else {
        None
    };
    run_indexed(
        updates.len(),
        opts.parallelism.workers(updates.len()),
        |i| {
            let up = &updates[i];
            match base {
                Some(fp) if !refs.contains(&up.table()) => Ok(fp),
                _ => {
                    let patch = up.patch(db);
                    let ctx = ExecContext::new(db).with_patch(up.table(), &patch);
                    bundle_fps(&ctx, bundle, opts.budget)
                }
            }
        },
        &opts.telemetry,
    )
}

/// Union of the relations referenced by any bundle member.
fn bundle_refs(bundle: &[&Prepared]) -> HashSet<usize> {
    bundle.iter().flat_map(|q| q.referenced_tables()).collect()
}

/// A single query's output fingerprint per neighborhood instance — the
/// memoizable building block of [`partition_nbrs`]: folding the per-query
/// vectors of a bundle's members instance-by-instance with
/// [`combine_bundle`] reproduces the bundle fingerprints bitwise, because
/// an update that leaves a member's referenced tables untouched cannot
/// change that member's output (its fingerprint *is* the base, whether
/// short-circuited or executed).
pub fn query_fps_nbrs(
    db: &Database,
    q: &Prepared,
    updates: &[SupportUpdate],
    opts: &EngineOptions,
) -> Result<Vec<Fingerprint>, EngineError> {
    let refs = q.referenced_tables();
    let base = base_fp(db, q, opts.budget)?;
    run_indexed(
        updates.len(),
        opts.parallelism.workers(updates.len()),
        |i| {
            let up = &updates[i];
            if !refs.contains(&up.table()) {
                return Ok(base);
            }
            neighbor_fp(db, q, up, opts.budget)
        },
        &opts.telemetry,
    )
}

/// A single query's output fingerprint per uniform world (the per-query
/// counterpart of [`partition_uniform`]).
pub fn query_fps_uniform(
    q: &Prepared,
    worlds: &[Database],
    opts: &EngineOptions,
) -> Result<Vec<Fingerprint>, EngineError> {
    run_indexed(
        worlds.len(),
        opts.parallelism.workers(worlds.len()),
        |i| base_fp(&worlds[i], q, opts.budget),
        &opts.telemetry,
    )
}

/// Bundle output fingerprints per uniform instance.
pub fn partition_uniform(
    bundle: &[&Prepared],
    worlds: &[Database],
    opts: &EngineOptions,
) -> Result<Vec<Fingerprint>, EngineError> {
    run_indexed(
        worlds.len(),
        opts.parallelism.workers(worlds.len()),
        |i| bundle_fps(&ExecContext::new(&worlds[i]), bundle, opts.budget),
        &opts.telemetry,
    )
}

/// The bundle fingerprint of the instance `ctx` reads, each member executed
/// under its own fresh `budget` meter.
fn bundle_fps(
    ctx: &ExecContext<'_>,
    bundle: &[&Prepared],
    budget: ExecBudget,
) -> Result<Fingerprint, EngineError> {
    let mut fps = Vec::with_capacity(bundle.len());
    for q in bundle {
        fps.push(bag_fp(execute(&q.plan, &ctx.clone().with_budget(budget))?));
    }
    Ok(combine_bundle(&fps))
}

/// Instance reduction (Appendix A, Lemma A.3): for an SPJ query, the
/// disagreement verdict of an update touching relation `R` is unchanged if
/// `R` is first restricted to just the tuples the support set touches. The
/// naive loop then runs over a much smaller relation.
///
/// Implemented with table overrides — no copy of the full database is made;
/// only the touched rows of each relation are materialized.
pub fn reduced_disagreements(
    db: &Database,
    q: &Prepared,
    updates: &[SupportUpdate],
    active: &[bool],
    budget: ExecBudget,
) -> Result<Vec<bool>, EngineError> {
    // Callers route non-SPJ shapes through the full-execution path;
    // reaching here with one is a caller bug — but a routing bug must
    // degrade to a typed error the broker can fall back from (priced
    // slower via full execution), never a crash mid-purchase.
    let Shape::Spj(shape) = &q.shape else {
        return Err(EngineError::Eval(
            "instance reduction requires an SPJ shape".into(),
        ));
    };
    let mut bits = vec![false; updates.len()];

    // Group updates by touched relation (ignoring relations not in the
    // query, which trivially agree).
    // BTreeMap: iterated below; process relations in table order so
    // the probe sequence (and any budget cutoff) is deterministic.
    let mut by_rel: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, up) in updates.iter().enumerate() {
        if !active[i] {
            continue;
        }
        if shape.relations.iter().any(|r| r.table == up.table()) {
            by_rel.entry(up.table()).or_default().push(i);
        }
    }

    for (table, idxs) in by_rel {
        // Collect the touched row indices of this relation, in order.
        let mut touched: Vec<usize> = idxs
            .iter()
            .flat_map(|&i| match &updates[i] {
                SupportUpdate::Row { row, .. } => vec![*row],
                SupportUpdate::Swap { row_a, row_b, .. } => vec![*row_a, *row_b],
            })
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let remap: HashMap<usize, usize> = touched
            .iter()
            .enumerate()
            .map(|(new, &orig)| (orig, new))
            .collect();
        let mut reduced: Vec<Row> = touched
            .iter()
            .map(|&r| db.table_at(table).rows[r].clone())
            .collect();

        // Base fingerprint on the reduced instance.
        let base = {
            let ctx = ExecContext::with_override(db, table, &reduced).with_budget(budget);
            bag_fp(execute(&q.plan, &ctx)?)
        };

        for &i in &idxs {
            // Apply the update to the reduced rows in place.
            let restore: Vec<(usize, usize, qirana_sqlengine::Value)>;
            match &updates[i] {
                SupportUpdate::Row { row, changes, .. } => {
                    let r = remap[row];
                    restore = changes
                        .iter()
                        .map(|(c, v)| {
                            let old = std::mem::replace(&mut reduced[r][*c], v.clone());
                            (r, *c, old)
                        })
                        .collect();
                }
                SupportUpdate::Swap {
                    row_a, row_b, cols, ..
                } => {
                    let (a, b) = (remap[row_a], remap[row_b]);
                    let mut saved = Vec::with_capacity(cols.len() * 2);
                    for &c in cols {
                        saved.push((a, c, reduced[a][c].clone()));
                        saved.push((b, c, reduced[b][c].clone()));
                        let tmp = reduced[a][c].clone();
                        reduced[a][c] = reduced[b][c].clone();
                        reduced[b][c] = tmp;
                    }
                    restore = saved;
                }
            }
            let fp = {
                let ctx = ExecContext::with_override(db, table, &reduced).with_budget(budget);
                bag_fp(execute(&q.plan, &ctx)?)
            };
            for (r, c, v) in restore.into_iter().rev() {
                reduced[r][c] = v;
            }
            bits[i] = fp != base;
        }
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal_form::prepare_query;
    use crate::support::{generate_support, generate_uniform_worlds, SupportConfig};
    use qirana_sqlengine::update::apply_writes;
    use qirana_sqlengine::{ColumnDef, DataType, TableSchema};

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
            (0..20i64)
                .map(|i| {
                    vec![
                        i.into(),
                        if i % 2 == 0 { "a" } else { "b" }.into(),
                        (i * 3).into(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        db
    }

    #[test]
    fn reduction_matches_plain_naive() {
        let database = db();
        let updates = generate_support(
            &database,
            &SupportConfig {
                size: 200,
                ..Default::default()
            },
        );
        let active = vec![true; updates.len()];
        for sql in [
            "select v from T where grp = 'a'",
            "select id, grp from T where v > 12",
            "select * from T",
        ] {
            let q = prepare_query(&database, sql).unwrap();
            let plain =
                disagreements_nbrs(&database, &q, &updates, &active, &EngineOptions::naive())
                    .unwrap();
            let reduced =
                reduced_disagreements(&database, &q, &updates, &active, ExecBudget::UNLIMITED)
                    .unwrap();
            assert_eq!(plain, reduced, "reduction changed verdicts for {sql}");
        }
    }

    #[test]
    fn reduction_on_non_spj_shape_is_a_typed_error() {
        // Routing an aggregate (non-SPJ) query here used to panic; it must
        // now surface as a recoverable EngineError so callers can fall back
        // to full execution.
        let database = db();
        let updates = generate_support(
            &database,
            &SupportConfig {
                size: 10,
                ..Default::default()
            },
        );
        let active = vec![true; updates.len()];
        let q = prepare_query(&database, "select grp, sum(v) from T group by grp").unwrap();
        let err = reduced_disagreements(&database, &q, &updates, &active, ExecBudget::UNLIMITED)
            .unwrap_err();
        assert!(matches!(err, EngineError::Eval(_)), "got {err:?}");
        // The same query still prices through the full-execution path.
        disagreements_nbrs(&database, &q, &updates, &active, &EngineOptions::naive()).unwrap();
    }

    #[test]
    fn uniform_worlds_mostly_disagree_on_touching_queries() {
        let database = db();
        let worlds = generate_uniform_worlds(&database, 20, 3);
        let q = prepare_query(&database, "select grp, v from T").unwrap();
        let bits = disagreements_uniform(
            &database,
            &q,
            &worlds,
            &vec![true; worlds.len()],
            &EngineOptions::naive(),
        )
        .unwrap();
        let frac = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        assert!(
            frac > 0.9,
            "a uniformly random world almost surely differs: {frac}"
        );
    }

    #[test]
    fn partition_skips_unreferenced_tables() {
        // A bundle over T only; updates touch both T and an unrelated
        // table U. Unreferenced-table instances must fingerprint exactly
        // as the brute-force apply-execute-undo loop says (the base).
        let mut database = db();
        database.add_table(
            TableSchema::new(
                "U",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("w", DataType::Int),
                ],
                &["id"],
            ),
            (0..10i64)
                .map(|i| vec![i.into(), (i * 7).into()])
                .collect::<Vec<_>>(),
        );
        let updates = generate_support(
            &database,
            &SupportConfig {
                size: 120,
                ..Default::default()
            },
        );
        assert!(
            updates.iter().any(|u| u.table() == 1),
            "support must touch U for this test to bite"
        );
        let q = prepare_query(&database, "select grp, v from T where v > 9").unwrap();
        let fast = partition_nbrs(&database, &[&q], &updates, &EngineOptions::naive()).unwrap();
        // Brute force: always apply and re-execute.
        let mut brute = Vec::with_capacity(updates.len());
        for up in &updates {
            let undo = up.apply(&mut database);
            let fp = bundle_fps(&ExecContext::new(&database), &[&q], ExecBudget::UNLIMITED);
            apply_writes(&mut database, &undo);
            brute.push(fp.unwrap());
        }
        assert_eq!(fast, brute, "skip path changed partition fingerprints");
    }

    #[test]
    fn per_query_fps_fold_to_bundle_partition() {
        // The cache's reconstruction identity: folding per-query fingerprint
        // vectors instance-by-instance must equal the monolithic bundle
        // partition bitwise — including instances whose update touches a
        // table only one member (or no member) references.
        let mut database = db();
        database.add_table(
            TableSchema::new(
                "U",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("w", DataType::Int),
                ],
                &["id"],
            ),
            (0..10i64)
                .map(|i| vec![i.into(), (i * 7).into()])
                .collect::<Vec<_>>(),
        );
        let updates = generate_support(
            &database,
            &SupportConfig {
                size: 150,
                ..Default::default()
            },
        );
        let q1 = prepare_query(&database, "select count(*) from T where v > 30").unwrap();
        let q2 = prepare_query(&database, "select w from U where w > 14").unwrap();
        let bundle = [&q1, &q2];
        let opts = EngineOptions::naive();
        let whole = partition_nbrs(&database, &bundle, &updates, &opts).unwrap();
        let f1 = query_fps_nbrs(&database, &q1, &updates, &opts).unwrap();
        let f2 = query_fps_nbrs(&database, &q2, &updates, &opts).unwrap();
        let folded: Vec<Fingerprint> = (0..updates.len())
            .map(|i| combine_bundle(&[f1[i], f2[i]]))
            .collect();
        assert_eq!(whole, folded, "per-query fold diverged from bundle path");
    }

    #[test]
    fn partition_refines_disagreements() {
        let database = db();
        let updates = generate_support(
            &database,
            &SupportConfig {
                size: 100,
                ..Default::default()
            },
        );
        let q = prepare_query(&database, "select count(*) from T where v > 30").unwrap();
        let active = vec![true; updates.len()];
        let opts = EngineOptions::naive();
        let bits = disagreements_nbrs(&database, &q, &updates, &active, &opts).unwrap();
        let fps = partition_nbrs(&database, &[&q], &updates, &opts).unwrap();
        let base = {
            let out = execute(&q.plan, &ExecContext::new(&database)).unwrap();
            combine_bundle(&[bag_fp(out)])
        };
        for i in 0..bits.len() {
            assert_eq!(
                bits[i],
                fps[i] != base,
                "bit {i} inconsistent with partition"
            );
        }
    }
}
