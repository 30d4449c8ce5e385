//! Row patches ([`ExecContext::with_patch`]) against the reference they
//! replace: for every row update and swap update of a small instance,
//! executing under the patch must give exactly the output of applying the
//! update, executing, and undoing it — rows, row order and float bits.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_sqlengine::update::{apply_writes, CellWrite};
use qirana_sqlengine::{
    execute, prepare, ColumnDef, DataType, Database, ExecContext, Row, TableSchema, Value,
};

fn db() -> Database {
    let mut db = Database::new();
    db.add_table(
        TableSchema::new(
            "O",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("prio", DataType::Str),
                ColumnDef::new("cust", DataType::Int),
            ],
            &["id"],
        ),
        (0..6i64)
            .map(|i| {
                vec![
                    i.into(),
                    ["high", "low", "mid"][i as usize % 3].into(),
                    (i % 4).into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    db.add_table(
        TableSchema::new(
            "L",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("oid", DataType::Int),
                ColumnDef::new("qty", DataType::Int),
                ColumnDef::new("price", DataType::Float),
            ],
            &["id"],
        ),
        (0..9i64)
            .map(|i| {
                vec![
                    i.into(),
                    (i % 5).into(),
                    (i * 7 % 11).into(),
                    Value::Float(i as f64 * 0.1 + 0.3),
                ]
            })
            .collect::<Vec<_>>(),
    );
    db
}

/// Every row update (one non-key cell set to a value another row holds)
/// and every single-column swap of two rows, as cell writes.
fn neighbors(db: &Database) -> Vec<Vec<CellWrite>> {
    let mut out = Vec::new();
    for t in 0..db.num_tables() {
        let table = db.table_at(t);
        let rows = &table.rows;
        for c in 1..table.schema.arity() {
            for (i, row) in rows.iter().enumerate() {
                for other in rows {
                    if other[c] != row[c] {
                        out.push(vec![CellWrite {
                            table: t,
                            row: i,
                            col: c,
                            value: other[c].clone(),
                        }]);
                    }
                }
                for (j, partner) in rows.iter().enumerate().skip(i + 1) {
                    out.push(vec![
                        CellWrite {
                            table: t,
                            row: i,
                            col: c,
                            value: partner[c].clone(),
                        },
                        CellWrite {
                            table: t,
                            row: j,
                            col: c,
                            value: row[c].clone(),
                        },
                    ]);
                }
            }
        }
    }
    out
}

/// The patch a list of writes to one table amounts to: each touched row,
/// with its writes applied.
fn patch_of(db: &Database, writes: &[CellWrite]) -> Vec<(usize, Row)> {
    let mut patch: Vec<(usize, Row)> = Vec::new();
    for w in writes {
        if !patch.iter().any(|(r, _)| *r == w.row) {
            patch.push((w.row, db.table_at(w.table).rows[w.row].clone()));
        }
        if let Some((_, row)) = patch.iter_mut().find(|(r, _)| *r == w.row) {
            row[w.col] = w.value.clone();
        }
    }
    patch
}

fn assert_patch_matches_apply(sql: &str) {
    let mut db = db();
    let plan = prepare(&db, sql).unwrap();
    let stored = db.clone();
    let updates = neighbors(&db);
    assert!(updates.len() > 100, "too few neighbors to bite");
    let mut changed = 0;
    let base = execute(&plan, &ExecContext::new(&db)).unwrap();
    for writes in &updates {
        let table = writes[0].table;
        let patch = patch_of(&db, writes);
        let patched = execute(&plan, &ExecContext::new(&db).with_patch(table, &patch)).unwrap();

        let undo = apply_writes(&mut db, writes);
        let applied = execute(&plan, &ExecContext::new(&db)).unwrap();
        apply_writes(&mut db, &undo);

        assert_eq!(patched, applied, "{sql} under {writes:?}");
        // Float bits too: `Value`'s equality would let -0.0 == 0.0 slip.
        let bits = |rows: &[Row]| format!("{rows:?}");
        assert_eq!(bits(&patched.rows), bits(&applied.rows), "{sql}");
        changed += usize::from(applied != base);
    }
    assert!(
        changed > 0,
        "no neighbor changed {sql}; the check is vacuous"
    );
    for t in 0..db.num_tables() {
        assert_eq!(db.table_at(t).rows, stored.table_at(t).rows);
    }
}

#[test]
fn self_join_sees_the_patch_in_both_bindings() {
    assert_patch_matches_apply(
        "select a.id, b.id from L a, L b where a.oid = b.oid and a.qty < b.qty",
    );
    assert_patch_matches_apply("select count(*) from O x join O y on x.cust = y.cust");
}

#[test]
fn correlated_exists_over_the_patched_table() {
    // TPC-H Q4's shape: outer orders, EXISTS over their line items.
    assert_patch_matches_apply(
        "select prio, count(*) from O where exists \
         (select * from L where L.oid = O.id and L.qty > 4) group by prio order by prio",
    );
}

#[test]
fn correlated_scalar_subquery_over_the_patched_table() {
    // TPC-H Q17's shape: compare each line item against an aggregate of
    // its own order's line items.
    assert_patch_matches_apply(
        "select sum(l.price) from L l where l.qty < \
         (select 0.8 * avg(l2.qty) from L l2 where l2.oid = l.oid)",
    );
}

#[test]
fn derived_table_reads_the_patch() {
    assert_patch_matches_apply(
        "select count(*), sum(s) from (select oid, sum(price) as s from L group by oid) d \
         where s > 0.5",
    );
}

#[test]
fn order_by_output_order_matches() {
    assert_patch_matches_apply("select id, qty, price from L where qty > 2 order by qty desc");
    assert_patch_matches_apply(
        "select O.prio, L.price from O, L where O.id = L.oid order by L.price, O.prio",
    );
}

#[test]
fn patch_replaces_an_earlier_override_of_the_table() {
    let db = db();
    let plan = prepare(&db, "select qty from L where id = 0").unwrap();
    let alt: Vec<Row> = vec![vec![0.into(), 0.into(), 99.into(), Value::Float(1.0)]];
    let mut ctx = ExecContext::with_override(&db, 1, &alt);
    assert_eq!(
        execute(&plan, &ctx).unwrap().rows,
        vec![vec![Value::Int(99)]]
    );
    let patch = vec![(0, vec![0.into(), 0.into(), 42.into(), Value::Float(1.0)])];
    ctx = ctx.with_patch(1, &patch);
    assert_eq!(
        execute(&plan, &ctx).unwrap().rows,
        vec![vec![Value::Int(42)]]
    );
}
