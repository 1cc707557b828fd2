//! Layer replays: a workload's own captured inputs pushed through the
//! public layer functions the simulation cannot time separately — the
//! store scan, the row→column pivot, the filter kernel, the group fold,
//! join build/probe, and the columnar wire encoding.  Each replay reports a
//! work count beside its time.

use crate::run::Capture;
use crate::stats::median;
use crate::workloads::Workload;
use pier_core::dataflow::join::{probe_joined, JoinBuild};
use pier_core::dataflow::ops::GroupAggregator;
use pier_core::prelude::*;
use pier_core::{AggExpr, Catalog, ColumnarBatch, ColumnarWire, Expr, Kernel, Planner, TupleBlock};
use pier_simnet::WireSize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Minimum wall time each replay is repeated for.
const REPLAY_SECS: f64 = 0.15;

/// Time `f` repeatedly for at least `REPLAY_SECS` (and three rounds);
/// returns the median seconds of one round.
fn time_rounds(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 3 || started.elapsed().as_secs_f64() < REPLAY_SECS {
        let t = Instant::now();
        f();
        rounds.push(t.elapsed().as_secs_f64());
    }
    median(&rounds)
}

fn rate(work: f64, secs: f64) -> f64 {
    if work == 0.0 || secs == 0.0 {
        0.0
    } else {
        work / secs
    }
}

/// One replay result: a rate or cost, with the work it was measured over.
pub struct Replayed {
    /// Metric name.
    pub name: &'static str,
    /// Metric unit.
    pub unit: &'static str,
    /// Metric value.
    pub value: f64,
    /// Work done in one round, in `work_unit`.
    pub work: f64,
    /// Unit of `work`.
    pub work_unit: &'static str,
    /// Median seconds of one round.
    pub secs: f64,
}

/// Every replay's result, in report order.
pub type Replays = Vec<Replayed>;

fn push(
    out: &mut Replays,
    name: &'static str,
    unit: &'static str,
    value: f64,
    work: (f64, &'static str),
    secs: f64,
) {
    out.push(Replayed { name, unit, value, work: work.0, work_unit: work.1, secs });
}

/// Run every replay that applies to the workload (the others report 0
/// work, and so rate 0).
pub fn run(wl: &Workload, cap: &Capture) -> Replays {
    let mut out = Replays::new();
    let mut catalog = Catalog::new();
    for def in wl.tables() {
        catalog.register(def);
    }
    let kinds: Vec<QueryKind> = wl
        .queries
        .iter()
        .map(|(_, sql)| {
            let stmt = pier_core::sql::parse_select(sql).expect("workload SQL parses");
            Planner::new(&catalog).plan_select(&stmt).expect("workload SQL plans").kind
        })
        .collect();

    // Store scan: one scan per (node, scanned table) of the captured window.
    let tables: Vec<String> = wl.tables().into_iter().map(|d| d.name).collect();
    let mut windows: Vec<Vec<Tuple>> = Vec::new();
    let (mut live_items, mut rows_out, mut scans) = (0usize, 0usize, 0usize);
    for store in &cap.stores {
        for t in &tables {
            live_items += store.lscan(t, cap.now).len();
            let rows: Vec<Tuple> = store
                .lscan_since(t, cap.now, cap.since)
                .into_iter()
                .flat_map(|item| item.value.tuples().to_vec())
                .collect();
            rows_out += rows.len();
            scans += 1;
            if !rows.is_empty() {
                windows.push(rows);
            }
        }
    }
    let scan_s = time_rounds(|| {
        for store in &cap.stores {
            for t in &tables {
                black_box(store.lscan_since(t, cap.now, cap.since));
            }
        }
    });
    let scan_us = 1e6 * scan_s / scans.max(1) as f64;
    push(&mut out, "store.scan_us", "us", scan_us, (scans as f64, "scans"), scan_s);
    let per_row = if rows_out == 0 { 0.0 } else { live_items as f64 / rows_out as f64 };
    push(&mut out, "store.items_per_row", "items/row", per_row, (rows_out as f64, "rows"), scan_s);

    // Pivot every scanned window into a columnar batch.
    let window_rows: usize = windows.iter().map(|w| w.len()).sum();
    let pivot_s = time_rounds(|| {
        for w in &windows {
            black_box(ColumnarBatch::from_rows(w));
        }
    });
    let work = (window_rows as f64, "rows");
    push(&mut out, "column.pivot_rows_per_s", "rows/s", rate(work.0, pivot_s), work, pivot_s);

    // Filter kernels and group folds of the single-table queries, each over
    // every window of its table.
    let batches: Vec<ColumnarBatch> = windows.iter().map(|w| ColumnarBatch::from_rows(w)).collect();
    type Fold = (Vec<Expr>, Vec<AggExpr>);
    let plans: Vec<(Option<Kernel>, Option<Fold>)> = kinds
        .iter()
        .map(|kind| match kind {
            QueryKind::Select { filter, .. } => (filter.as_ref().map(Kernel::compile), None),
            QueryKind::Aggregate { filter, group_exprs, aggs, .. } => {
                (filter.as_ref().map(Kernel::compile), Some((group_exprs.clone(), aggs.clone())))
            }
            _ => (None, None),
        })
        .collect();
    let select = |k: &Option<Kernel>, b: &ColumnarBatch| match k {
        Some(k) => k.filter(b, &b.full_selection()),
        None => b.full_selection(),
    };
    let sels: Vec<Vec<Vec<u32>>> =
        plans.iter().map(|(k, _)| batches.iter().map(|b| select(k, b)).collect()).collect();
    let filtered: usize = plans
        .iter()
        .filter(|(k, _)| k.is_some())
        .map(|_| batches.iter().map(|b| b.num_rows()).sum::<usize>())
        .sum();
    let folded: usize = plans
        .iter()
        .zip(&sels)
        .filter(|((_, g), _)| g.is_some())
        .map(|(_, sel)| sel.iter().map(|s| s.len()).sum::<usize>())
        .sum();
    let filter_s = time_rounds(|| {
        for (k, _) in plans.iter().filter(|(k, _)| k.is_some()) {
            for b in &batches {
                black_box(select(k, b));
            }
        }
    });
    let work = (filtered as f64, "rows");
    push(&mut out, "kernel.filter_rows_per_s", "rows/s", rate(work.0, filter_s), work, filter_s);
    let fold_s = time_rounds(|| {
        for ((_, fold), sel) in plans.iter().zip(&sels) {
            let Some((group, aggs)) = fold else { continue };
            let mut acc = GroupAggregator::new(group.clone(), aggs.clone());
            for (b, s) in batches.iter().zip(sel) {
                acc.update_batch(b, s);
            }
            black_box(acc.group_count());
        }
    });
    let work = (folded as f64, "rows");
    push(&mut out, "aggregate.fold_rows_per_s", "rows/s", rate(work.0, fold_s), work, fold_s);

    // Join build/probe over the captured window's rehashed first stage:
    // `netstats` chunks keyed by host against `links` chunks keyed by src.
    let chunks = rehash_chunks(wl, cap);
    let join_rows: usize = chunks.iter().map(|(_, l, r)| l.len() + r.len()).sum();
    let join_s = time_rounds(|| {
        let mut build = JoinBuild::default();
        let mut out_rows = 0;
        for (key, left, right) in &chunks {
            let l = build.insert(0, key, left);
            out_rows += probe_joined(&l, 0, build.matches(1, key), 3, None).len();
            let r = build.insert(1, key, right);
            out_rows += probe_joined(&r, 1, build.matches(0, key), 3, None).len();
        }
        black_box(out_rows);
    });
    let work = (join_rows as f64, "rows");
    push(&mut out, "join.build_probe_rows_per_s", "rows/s", rate(work.0, join_s), work, join_s);

    // Wire encoding of the blocks the workload ships: the rehashed chunks
    // for a join, otherwise the scanned windows.
    let blocks: Vec<Vec<Tuple>> = if chunks.is_empty() {
        windows.clone()
    } else {
        chunks.iter().flat_map(|(_, l, r)| [l.clone(), r.clone()]).collect()
    };
    let plain: usize =
        blocks.iter().map(|b| 4 + b.iter().map(|t| t.wire_size()).sum::<usize>()).sum();
    let encoded: usize = blocks.iter().map(|b| TupleBlock::columnar(b.clone()).wire_size()).sum();
    let encode_s = time_rounds(|| {
        for b in &blocks {
            black_box(ColumnarWire::encode(b));
        }
    });
    let wires: Vec<ColumnarWire> = blocks.iter().map(|b| ColumnarWire::encode(b)).collect();
    let decode_s = time_rounds(|| {
        for w in &wires {
            black_box(w.decode());
        }
    });
    let mb = plain as f64 / 1e6;
    let work = (mb, "MB");
    push(&mut out, "encoding.encode_mb_per_s", "MB/s", rate(mb, encode_s), work, encode_s);
    push(&mut out, "encoding.decode_mb_per_s", "MB/s", rate(mb, decode_s), work, decode_s);
    let ratio = if plain == 0 { 0.0 } else { encoded as f64 / plain as f64 };
    push(
        &mut out,
        "encoding.columnar_bytes_ratio",
        "ratio",
        ratio,
        (blocks.len() as f64, "blocks"),
        encode_s,
    );
    out
}

/// The join's first-stage inputs inside the captured window, as the
/// rehash would group them: one `(key, netstats rows, links rows)` chunk
/// per host.  Empty for workloads without the join.
fn rehash_chunks(wl: &Workload, cap: &Capture) -> Vec<(Value, Vec<Tuple>, Vec<Tuple>)> {
    let mut by_key: BTreeMap<String, (Value, Vec<Tuple>, Vec<Tuple>)> = BTreeMap::new();
    if !wl.tables().iter().any(|d| d.name == "links") {
        return Vec::new();
    }
    for l in wl.log.iter().filter(|l| l.at >= cap.since && l.at <= cap.now) {
        let key = l.row.get(0).clone();
        let entry = by_key.entry(format!("{key}")).or_insert_with(|| (key, Vec::new(), Vec::new()));
        match l.table {
            "netstats" => entry.1.push(l.row.clone()),
            "links" => entry.2.push(l.row.clone()),
            _ => {}
        }
    }
    by_key.into_values().filter(|(_, l, r)| !l.is_empty() && !r.is_empty()).collect()
}
