//! The distributed executor.
//!
//! A logical plan runs as per-slice fragments joined by exchanges:
//! scans/filters/joins execute on every slice in parallel (std scoped
//! threads via `testkit::par` — one slice per core, as in §2.1),
//! aggregation runs
//! partial-per-slice then final-at-leader, and sorts/limits finish at the
//! leader, which "performs final aggregation of results when required".
//! Exchange operators count the bytes they move so experiment E11 can
//! report broadcast vs redistribution traffic.

use crate::expr::{eval, eval_predicate};
use crate::hashkey::HKey;
use redsim_testkit::par;
use redsim_testkit::sync::Mutex;
use redsim_common::{
    ColumnData, DataType, FxHashMap, FxHashSet, Result, Row, RsError, Value,
};
use redsim_distribution::{style::dist_hash, JoinDistStrategy};
use redsim_sql::ast::JoinType;
use redsim_sql::plan::{AggExpr, AggFunc, BoundExpr, LogicalPlan, OutCol};
use redsim_storage::stats::KmvSketch;
use redsim_storage::table::{ScanOutput, ScanPredicate};

/// One column batch (all columns share a length).
pub type Batch = Vec<ColumnData>;

/// Storage access the executor needs; implemented by the compute layer.
pub trait TableProvider: Sync {
    fn num_slices(&self) -> usize;

    /// Scan one slice of a table with projection + pruning predicate.
    fn scan_slice(
        &self,
        table: &str,
        slice: usize,
        projection: &[usize],
        pred: &ScanPredicate,
    ) -> Result<ScanOutput>;
}

/// Execution telemetry (surfaced through EXPLAIN-style reports and the
/// E10/E11 benches).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Bytes shipped by broadcast exchanges.
    pub bytes_broadcast: u64,
    /// Bytes shipped by hash-redistribution exchanges.
    pub bytes_redistributed: u64,
    pub blocks_read: usize,
    pub bytes_read: u64,
    pub groups_total: usize,
    pub groups_skipped: usize,
    pub rows_scanned: u64,
    /// Time the query waited for a WLM concurrency slot before running
    /// (leader-side admission control; 0 when a slot was free).
    pub queue_wait_ns: u64,
    /// Wall-clock execution time (the `query.exec` span's extent;
    /// backfilled leader-side, 0 inside the executor itself).
    pub exec_ns: u64,
    /// Plan-compilation time, 0 on a plan-cache hit (the `query.compile`
    /// span's extent; backfilled leader-side).
    pub compile_ns: u64,
}

impl ExecMetrics {
    /// Fold another metrics bag into this one (field-wise sum). Public
    /// so callers merging per-slice or per-query metrics don't re-sum
    /// the fields by hand.
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.bytes_broadcast += other.bytes_broadcast;
        self.bytes_redistributed += other.bytes_redistributed;
        self.blocks_read += other.blocks_read;
        self.bytes_read += other.bytes_read;
        self.groups_total += other.groups_total;
        self.groups_skipped += other.groups_skipped;
        self.rows_scanned += other.rows_scanned;
        self.queue_wait_ns += other.queue_wait_ns;
        self.exec_ns += other.exec_ns;
        self.compile_ns += other.compile_ns;
    }

    /// Total interconnect traffic (broadcast + redistribution) — the
    /// quantity E11 and the colocation tests actually assert on.
    pub fn exchange_bytes(&self) -> u64 {
        self.bytes_broadcast + self.bytes_redistributed
    }
}

/// One operator's execution footprint on one slice: the unit row of
/// `svl_query_report`. `step` is the plan node's pre-order index
/// (1-based, matching `LogicalPlan::explain` line order), so step N
/// annotates EXPLAIN line N.
#[derive(Debug, Clone)]
pub struct StepProfile {
    pub step: usize,
    /// Operator label (`LogicalPlan::node_label`).
    pub label: String,
    pub slice: usize,
    /// Rows this operator emitted on this slice. Leader-materialized
    /// operators (Sort/Limit/final Aggregate) report on slice 0 only.
    pub rows: u64,
    /// Bytes of those output rows (in-memory column footprint).
    pub bytes: u64,
    /// Inclusive wall-clock time of the operator subtree. Slices run
    /// the fragment in lockstep, so every slice row of a step carries
    /// the same elapsed time.
    pub elapsed_ns: u64,
}

/// A completed query.
#[derive(Debug)]
pub struct QueryOutput {
    pub columns: Vec<OutCol>,
    pub rows: Vec<Row>,
    pub metrics: ExecMetrics,
    /// Per-step, per-slice profile; empty unless
    /// [`Executor::with_profiling`] enabled it.
    pub profile: Vec<StepProfile>,
}

/// Data placement during execution.
enum DataSet {
    /// One batch list per slice.
    Slices(Vec<Vec<Batch>>),
    /// Materialized at the leader.
    Leader(Vec<Batch>),
}

/// Executes optimized logical plans against a [`TableProvider`].
pub struct Executor<'a> {
    provider: &'a dyn TableProvider,
    metrics: Mutex<ExecMetrics>,
    /// Per-step profile rows; `None` when profiling is off (the check
    /// per plan node is one branch, so default-on is affordable — the
    /// profiler-overhead bench keeps this honest).
    profile: Option<Mutex<Vec<StepProfile>>>,
    /// Parent span for per-slice detail spans (`RSIM_TRACE=2`).
    trace: Option<&'a redsim_obs::Span>,
    /// Failpoint registry consulted at the per-slice scan seam
    /// (`exec.scan_slice`); `None` skips the check entirely.
    faults: Option<std::sync::Arc<redsim_faultkit::FaultRegistry>>,
}

impl<'a> Executor<'a> {
    pub fn new(provider: &'a dyn TableProvider) -> Self {
        Executor {
            provider,
            metrics: Mutex::new(ExecMetrics::default()),
            profile: None,
            trace: None,
            faults: None,
        }
    }

    /// Attach a parent span; slice-level scan spans become its children.
    pub fn with_trace(mut self, span: &'a redsim_obs::Span) -> Self {
        self.trace = Some(span);
        self
    }

    /// Enable (or disable) per-step, per-slice profiling. Off by
    /// default; the cluster turns it on per `profile_queries` config and
    /// always for `EXPLAIN ANALYZE`.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profile = if on { Some(Mutex::new(Vec::new())) } else { None };
        self
    }

    /// Consult `registry` at the `exec.scan_slice` seam. The cluster
    /// passes its shared registry so chaos configs reach the executor.
    pub fn with_faults(mut self, registry: std::sync::Arc<redsim_faultkit::FaultRegistry>) -> Self {
        self.faults = Some(registry);
        self
    }

    /// Snapshot of the executor-wide metrics accumulated so far. Lets
    /// tests assert what a *failed* run left behind (a successful run
    /// reports through [`QueryOutput::metrics`] instead).
    pub fn metrics_snapshot(&self) -> ExecMetrics {
        self.metrics.lock().clone()
    }

    /// Run a plan to completion, materializing rows at the leader.
    pub fn run(&self, plan: &LogicalPlan) -> Result<QueryOutput> {
        let columns = plan.output();
        let ds = self.exec(plan, 1)?;
        let batches = self.gather(ds);
        let width = columns.len();
        let mut rows = Vec::new();
        for b in &batches {
            debug_assert_eq!(b.len(), width);
            let n = b.first().map_or(0, |c| c.len());
            for i in 0..n {
                rows.push(Row::new(b.iter().map(|c| c.get(i)).collect()));
            }
        }
        let mut profile =
            self.profile.as_ref().map_or_else(Vec::new, |p| std::mem::take(&mut p.lock()));
        profile.sort_by_key(|s| (s.step, s.slice));
        Ok(QueryOutput { columns, rows, metrics: self.metrics.lock().clone(), profile })
    }

    fn gather(&self, ds: DataSet) -> Vec<Batch> {
        match ds {
            DataSet::Leader(b) => b,
            DataSet::Slices(per_slice) => per_slice.into_iter().flatten().collect(),
        }
    }

    /// Execute one plan node (pre-order step id `step`), recording a
    /// [`StepProfile`] row per slice when profiling is on. Timing is
    /// inclusive of the subtree, like `EXPLAIN ANALYZE` actual-time.
    fn exec(&self, plan: &LogicalPlan, step: usize) -> Result<DataSet> {
        let Some(profile) = &self.profile else {
            return self.exec_node(plan, step);
        };
        let t0 = std::time::Instant::now();
        let ds = self.exec_node(plan, step)?;
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        let n = self.provider.num_slices();
        let label = plan.node_label();
        // Output footprint per slice; leader-materialized results count
        // on slice 0, other slices report the step with zero rows.
        let totals: Vec<(u64, u64)> = match &ds {
            DataSet::Slices(per_slice) => per_slice.iter().map(|b| batch_totals(b)).collect(),
            DataSet::Leader(batches) => {
                let mut v = vec![(0u64, 0u64); n.max(1)];
                v[0] = batch_totals(batches);
                v
            }
        };
        let mut rows = profile.lock();
        for (slice, (r, bytes)) in totals.into_iter().enumerate() {
            rows.push(StepProfile {
                step,
                label: label.clone(),
                slice,
                rows: r,
                bytes,
                elapsed_ns,
            });
        }
        drop(rows);
        Ok(ds)
    }

    fn exec_node(&self, plan: &LogicalPlan, step: usize) -> Result<DataSet> {
        match plan {
            LogicalPlan::Scan { table, projection, filter, pruning, .. } => {
                self.exec_scan(table, projection, filter.as_ref(), pruning)
            }
            LogicalPlan::Filter { input, predicate } => {
                let ds = self.exec(input, step + 1)?;
                self.map_batches(ds, |batch| {
                    let rows = batch.first().map_or(0, |c| c.len());
                    let sel = eval_predicate(predicate, &batch, rows)?;
                    Ok(batch.iter().map(|c| c.filter(&sel)).collect())
                })
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let ds = self.exec(input, step + 1)?;
                self.map_batches(ds, |batch| {
                    let rows = batch.first().map_or(0, |c| c.len());
                    exprs.iter().map(|e| eval(e, &batch, rows)).collect()
                })
            }
            LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy } => {
                self.exec_join(left, right, *join_type, *left_key, *right_key, residual.as_ref(), *strategy, step)
            }
            LogicalPlan::Aggregate { input, group_by, aggs, output } => {
                self.exec_aggregate(input, group_by, aggs, output, step)
            }
            LogicalPlan::Sort { input, keys } => {
                let ds = self.exec(input, step + 1)?;
                let batches = self.gather(ds);
                let width = input.output().len();
                let all = concat_batches(width, batches);
                let rows = all.first().map_or(0, |c| c.len());
                let key_cols: Vec<ColumnData> =
                    keys.iter().map(|(k, _)| eval(k, &all, rows)).collect::<Result<_>>()?;
                let mut idx: Vec<u32> = (0..rows as u32).collect();
                idx.sort_by(|&a, &b| {
                    for ((_, desc), kc) in keys.iter().zip(&key_cols) {
                        let o = kc.get(a as usize).cmp_sql(&kc.get(b as usize));
                        let o = if *desc { o.reverse() } else { o };
                        if o != std::cmp::Ordering::Equal {
                            return o;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                let sorted: Batch = all.iter().map(|c| c.gather(&idx)).collect();
                Ok(DataSet::Leader(vec![sorted]))
            }
            LogicalPlan::Limit { input, n } => {
                let ds = self.exec(input, step + 1)?;
                let batches = self.gather(ds);
                let width = input.output().len();
                let all = concat_batches(width, batches);
                let rows = all.first().map_or(0, |c| c.len());
                let take = (*n as usize).min(rows);
                let truncated: Batch = all.iter().map(|c| c.slice(0, take)).collect();
                Ok(DataSet::Leader(vec![truncated]))
            }
        }
    }

    fn exec_scan(
        &self,
        table: &str,
        projection: &[usize],
        filter: Option<&BoundExpr>,
        pruning: &ScanPredicate,
    ) -> Result<DataSet> {
        let n = self.provider.num_slices();
        let results: Vec<Result<(Vec<Batch>, ExecMetrics)>> =
            par::map_indexed(n, |slice| {
                if let Some(faults) = &self.faults {
                    use redsim_faultkit::{fp, Outcome};
                    match faults.fire(fp::EXEC_SCAN_SLICE) {
                        Outcome::Proceed => {}
                        Outcome::Err(class) => {
                            return Err(RsError::FaultInjected(format!(
                                "injected {} at {} (slice {slice})",
                                class.as_str(),
                                fp::EXEC_SCAN_SLICE,
                            )))
                        }
                        // A dropped scan fragment yields an empty slice:
                        // lost-work semantics, not an error.
                        Outcome::Drop => return Ok((Vec::new(), ExecMetrics::default())),
                    }
                }
                let mut span = match self.trace {
                    Some(parent) => parent.child(redsim_obs::LVL_DETAIL, "exec.slice"),
                    None => redsim_obs::Span::disabled(),
                };
                let out = self.provider.scan_slice(table, slice, projection, pruning)?;
                let mut m = ExecMetrics {
                    blocks_read: out.blocks_read,
                    bytes_read: out.bytes_read,
                    groups_total: out.groups_total,
                    groups_skipped: out.groups_skipped,
                    ..Default::default()
                };
                let mut batches = Vec::with_capacity(out.batches.len());
                for batch in out.batches {
                    let rows = batch.first().map_or(0, |c| c.len());
                    m.rows_scanned += rows as u64;
                    match filter {
                        Some(f) => {
                            let sel = eval_predicate(f, &batch, rows)?;
                            if sel.iter().any(|&b| b) {
                                batches.push(batch.iter().map(|c| c.filter(&sel)).collect());
                            }
                        }
                        None => batches.push(batch),
                    }
                }
                if span.is_recording() {
                    span.attr("table", table);
                    span.attr("slice", slice);
                    span.attr("rows_scanned", m.rows_scanned);
                    span.attr("blocks_read", m.blocks_read);
                    span.attr("bytes_read", m.bytes_read);
                    span.attr("groups_skipped", m.groups_skipped);
                }
                Ok((batches, m))
            });
        // Unwrap every slice result BEFORE absorbing any metrics: a scan
        // that fails on slice k must not pollute svl_query_metrics /
        // stl_query with partial rows/bytes from slices 0..k. The `?`
        // below therefore runs to completion (or propagates the first
        // error with the shared counters untouched) before the absorb
        // loop starts.
        let mut per_slice = Vec::with_capacity(n);
        let mut slice_metrics = Vec::with_capacity(n);
        for r in results {
            let (batches, m) = r?;
            slice_metrics.push(m);
            per_slice.push(batches);
        }
        let mut metrics = self.metrics.lock();
        for m in &slice_metrics {
            metrics.absorb(m);
        }
        drop(metrics);
        Ok(DataSet::Slices(per_slice))
    }

    fn map_batches(
        &self,
        ds: DataSet,
        f: impl Fn(Batch) -> Result<Batch> + Sync,
    ) -> Result<DataSet> {
        match ds {
            DataSet::Leader(batches) => {
                let out: Result<Vec<Batch>> = batches.into_iter().map(&f).collect();
                Ok(DataSet::Leader(out?))
            }
            DataSet::Slices(per_slice) => {
                let results: Vec<Result<Vec<Batch>>> = par::map(per_slice, |batches| {
                    batches.into_iter().map(&f).collect()
                });
                Ok(DataSet::Slices(results.into_iter().collect::<Result<_>>()?))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        join_type: JoinType,
        left_key: usize,
        right_key: usize,
        residual: Option<&BoundExpr>,
        strategy: JoinDistStrategy,
        step: usize,
    ) -> Result<DataSet> {
        let lw = left.output().len();
        let right_types: Vec<DataType> = right.output().iter().map(|c| c.ty).collect();
        let l_ds = self.exec(left, step + 1)?;
        let r_ds = self.exec(right, step + 1 + left.num_steps())?;
        let n = self.provider.num_slices();
        let l_slices = self.to_slices(l_ds, n);
        let mut r_slices = self.to_slices(r_ds, n);
        // (shadowed mutable below for strategies that re-expand a side)

        let mut l_slices = l_slices;
        match strategy {
            JoinDistStrategy::DistNone => {}
            JoinDistStrategy::AllNone { all_side_left } => {
                // The ALL side's copy exists on every node; its scan
                // reported it once (slice 0). Re-expand it locally —
                // no network bytes move.
                if all_side_left {
                    let all_left: Vec<Batch> = l_slices.into_iter().flatten().collect();
                    l_slices = (0..n).map(|_| all_left.clone()).collect();
                } else {
                    let all_right: Vec<Batch> = r_slices.into_iter().flatten().collect();
                    r_slices = (0..n).map(|_| all_right.clone()).collect();
                }
            }
            JoinDistStrategy::BcastInner => {
                // Ship every inner batch to every slice.
                let all_right: Vec<Batch> = r_slices.into_iter().flatten().collect();
                let bytes: u64 = all_right
                    .iter()
                    .map(|b| b.iter().map(|c| c.byte_size() as u64).sum::<u64>())
                    .sum();
                self.metrics.lock().bytes_broadcast += bytes * (n as u64).saturating_sub(1);
                r_slices = (0..n).map(|_| all_right.clone()).collect();
            }
            JoinDistStrategy::DistBoth => {
                let (l2, lb) = self.redistribute(l_slices, left_key, n)?;
                let (r2, rb) = self.redistribute(r_slices, right_key, n)?;
                self.metrics.lock().bytes_redistributed += lb + rb;
                return self.local_joins(
                    l2, r2, lw, &right_types, join_type, left_key, right_key, residual,
                );
            }
        }
        self.local_joins(l_slices, r_slices, lw, &right_types, join_type, left_key, right_key, residual)
    }

    fn to_slices(&self, ds: DataSet, n: usize) -> Vec<Vec<Batch>> {
        match ds {
            DataSet::Slices(s) => s,
            DataSet::Leader(batches) => {
                // Leader data participates as slice 0 (rare; e.g. joins over
                // leader-materialized inputs).
                let mut out = vec![Vec::new(); n];
                out[0] = batches;
                out
            }
        }
    }

    /// Hash-partition every row by its key column; returns the new
    /// placement and the bytes that crossed slices.
    fn redistribute(
        &self,
        per_slice: Vec<Vec<Batch>>,
        key: usize,
        n: usize,
    ) -> Result<(Vec<Vec<Batch>>, u64)> {
        let mut out: Vec<Vec<Batch>> = vec![Vec::new(); n];
        let mut moved = 0u64;
        for (src, batches) in per_slice.into_iter().enumerate() {
            for batch in batches {
                let rows = batch.first().map_or(0, |c| c.len());
                if rows == 0 {
                    continue;
                }
                let mut dest_idx: Vec<Vec<u32>> = vec![Vec::new(); n];
                for i in 0..rows {
                    let d = (dist_hash_column(&batch[key], i) % n as u64) as usize;
                    dest_idx[d].push(i as u32);
                }
                let row_bytes =
                    batch.iter().map(|c| c.byte_size()).sum::<usize>() as u64 / rows.max(1) as u64;
                for (d, idx) in dest_idx.into_iter().enumerate() {
                    if idx.is_empty() {
                        continue;
                    }
                    if d != src {
                        moved += row_bytes * idx.len() as u64;
                    }
                    out[d].push(batch.iter().map(|c| c.gather(&idx)).collect());
                }
            }
        }
        Ok((out, moved))
    }

    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments)]
    fn local_joins(
        &self,
        l_slices: Vec<Vec<Batch>>,
        r_slices: Vec<Vec<Batch>>,
        lw: usize,
        right_types: &[DataType],
        join_type: JoinType,
        left_key: usize,
        right_key: usize,
        residual: Option<&BoundExpr>,
    ) -> Result<DataSet> {
        let pairs: Vec<(Vec<Batch>, Vec<Batch>)> =
            l_slices.into_iter().zip(r_slices).collect();
        let results: Vec<Result<Vec<Batch>>> = par::map(pairs, |(lb, rb)| {
            hash_join_local(lb, rb, lw, right_types, join_type, left_key, right_key, residual)
        });
        Ok(DataSet::Slices(results.into_iter().collect::<Result<_>>()?))
    }

    fn exec_aggregate(
        &self,
        input: &LogicalPlan,
        group_by: &[BoundExpr],
        aggs: &[AggExpr],
        output: &[OutCol],
        step: usize,
    ) -> Result<DataSet> {
        let ds = self.exec(input, step + 1)?;
        // Partial aggregation per slice, in parallel.
        let partials: Vec<Result<GroupTable>> = match ds {
            DataSet::Slices(per_slice) => par::map(per_slice, |batches| {
                let mut table = GroupTable::default();
                for batch in batches {
                    update_groups(&mut table, &batch, group_by, aggs)?;
                }
                Ok(table)
            }),
            DataSet::Leader(batches) => {
                let mut table = GroupTable::default();
                for batch in batches {
                    update_groups(&mut table, &batch, group_by, aggs)?;
                }
                vec![Ok(table)]
            }
        };
        // Final merge at the leader.
        let mut merged = GroupTable::default();
        for p in partials {
            let p = p?;
            for (k, states) in p.0 {
                match merged.0.entry(k) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        for (a, b) in e.get_mut().iter_mut().zip(states) {
                            a.merge(b);
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(states);
                    }
                }
            }
        }
        // Global aggregate over zero rows still yields one group.
        if group_by.is_empty() && merged.0.is_empty() {
            merged
                .0
                .insert(GroupKey::Empty, aggs.iter().map(AggState::init).collect());
        }
        // Emit one leader batch.
        let mut cols: Vec<ColumnData> = output
            .iter()
            .map(|c| ColumnData::new(c.ty))
            .collect();
        for (key, states) in merged.0 {
            for (i, hk) in GroupTable::key_values(&key).into_iter().enumerate() {
                cols[i].push_value(&hkey_to_value(hk, output[i].ty))?;
            }
            for (j, st) in states.into_iter().enumerate() {
                let slot = group_by.len() + j;
                cols[slot].push_value(&st.finish().coerce_to(output[slot].ty)?)?;
            }
        }
        Ok(DataSet::Leader(vec![cols]))
    }
}

/// Composite group key without a heap allocation for the common 0/1/2
/// column cases.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    Empty,
    One(HKey),
    Two(HKey, HKey),
    Many(Vec<HKey>),
}

/// group key -> agg states.
#[derive(Default)]
struct GroupTable(FxHashMap<GroupKey, Vec<AggState>>);

impl GroupTable {
    fn key_values(key: &GroupKey) -> Vec<&HKey> {
        match key {
            GroupKey::Empty => Vec::new(),
            GroupKey::One(a) => vec![a],
            GroupKey::Two(a, b) => vec![a, b],
            GroupKey::Many(v) => v.iter().collect(),
        }
    }
}

/// Precompute one column's `HKey` per row, sharing `Arc<str>` allocations
/// across repeated string values within the batch.
fn hkeys_of_column(c: &ColumnData, rows: usize) -> Vec<HKey> {
    if let ColumnData::Str { data, .. } = c {
        let mut memo: FxHashMap<&str, HKey> = FxHashMap::default();
        return (0..rows)
            .map(|i| {
                if c.is_null(i) {
                    HKey::Null
                } else {
                    memo.entry(data.get(i))
                        .or_insert_with(|| HKey::from_column(c, i))
                        .clone()
                }
            })
            .collect();
    }
    (0..rows).map(|i| HKey::from_column(c, i)).collect()
}

fn update_groups(
    table: &mut GroupTable,
    batch: &Batch,
    group_by: &[BoundExpr],
    aggs: &[AggExpr],
) -> Result<()> {
    let rows = batch.first().map_or(0, |c| c.len());
    if rows == 0 {
        return Ok(());
    }
    let key_cols: Vec<ColumnData> =
        group_by.iter().map(|g| eval(g, batch, rows)).collect::<Result<_>>()?;
    let key_hkeys: Vec<Vec<HKey>> =
        key_cols.iter().map(|c| hkeys_of_column(c, rows)).collect();
    let arg_cols: Vec<Option<ColumnData>> = aggs
        .iter()
        .map(|a| a.arg.as_ref().map(|e| eval(e, batch, rows)).transpose())
        .collect::<Result<_>>()?;
    for i in 0..rows {
        let key = match key_hkeys.len() {
            0 => GroupKey::Empty,
            1 => GroupKey::One(key_hkeys[0][i].clone()),
            2 => GroupKey::Two(key_hkeys[0][i].clone(), key_hkeys[1][i].clone()),
            _ => GroupKey::Many(key_hkeys.iter().map(|col| col[i].clone()).collect()),
        };
        let states = table
            .0
            .entry(key)
            .or_insert_with(|| aggs.iter().map(AggState::init).collect());
        for ((st, a), arg_col) in states.iter_mut().zip(aggs).zip(&arg_cols) {
            st.update_from_column(a, arg_col.as_ref(), i)?;
        }
    }
    Ok(())
}

fn hkey_to_value(k: &HKey, ty: DataType) -> Value {
    match k {
        HKey::Null => Value::Null,
        HKey::Bool(b) => Value::Bool(*b),
        HKey::Int(i) => match ty {
            DataType::Date => Value::Date(*i as i32),
            DataType::Timestamp => Value::Timestamp(*i),
            DataType::Int2 => Value::Int2(*i as i16),
            DataType::Int4 => Value::Int4(*i as i32),
            _ => Value::Int8(*i),
        },
        HKey::Float(bits) => Value::Float8(f64::from_bits(*bits)),
        HKey::Str(s) => Value::Str(s.to_string()),
        HKey::Decimal(u, s) => Value::Decimal { units: *u, scale: *s },
    }
}

/// One aggregate's running state.
pub(crate) enum AggState {
    Count(i64),
    SumInt { sum: i128, seen: bool },
    SumFloat { sum: f64, seen: bool },
    SumDec { sum: i128, scale: u8, seen: bool },
    Avg { sum: f64, n: i64 },
    MinMax { best: Option<Value>, is_min: bool },
    Distinct(FxHashSet<HKey>),
    Approx(KmvSketch),
}

impl AggState {
    pub(crate) fn init(a: &AggExpr) -> AggState {
        match a.func {
            AggFunc::CountStar => AggState::Count(0),
            AggFunc::Count => {
                if a.distinct {
                    AggState::Distinct(FxHashSet::default())
                } else {
                    AggState::Count(0)
                }
            }
            AggFunc::Sum => match a.arg.as_ref().map(|e| e.ty()) {
                Some(DataType::Float8) => AggState::SumFloat { sum: 0.0, seen: false },
                Some(DataType::Decimal(_, s)) => {
                    AggState::SumDec { sum: 0, scale: s, seen: false }
                }
                _ => AggState::SumInt { sum: 0, seen: false },
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::MinMax { best: None, is_min: true },
            AggFunc::Max => AggState::MinMax { best: None, is_min: false },
            AggFunc::ApproxCountDistinct => AggState::Approx(KmvSketch::new(256)),
        }
    }

    /// Typed fast path used by the vectorized engine: reads the argument
    /// straight from the column, avoiding a `Value` per row for the
    /// numeric aggregates.
    pub(crate) fn update_from_column(
        &mut self,
        spec: &AggExpr,
        col: Option<&ColumnData>,
        i: usize,
    ) -> Result<()> {
        match (&mut *self, col) {
            (AggState::Count(n), col) => {
                if spec.func == AggFunc::CountStar || col.is_some_and(|c| !c.is_null(i)) {
                    *n += 1;
                }
                Ok(())
            }
            (AggState::SumInt { sum, seen }, Some(c)) => {
                if let Some(x) = c.get_i64(i) {
                    *sum += x as i128;
                    *seen = true;
                }
                Ok(())
            }
            (AggState::SumFloat { sum, seen }, Some(c)) => {
                if let Some(x) = c.get_f64(i) {
                    *sum += x;
                    *seen = true;
                }
                Ok(())
            }
            (AggState::Avg { sum, n }, Some(c)) => {
                if let Some(x) = c.get_f64(i) {
                    *sum += x;
                    *n += 1;
                }
                Ok(())
            }
            (AggState::Distinct(set), Some(c)) => {
                if !c.is_null(i) {
                    set.insert(HKey::from_column(c, i));
                }
                Ok(())
            }
            (AggState::MinMax { best, is_min }, Some(c)) => {
                // Compare the slot against the running best in place;
                // materialize a `Value` only when it improves (strings
                // stop allocating once the extremum stabilizes).
                if !c.is_null(i) {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            let o = crate::kernels::cmp_slot_value(c, i, b);
                            if *is_min {
                                o == std::cmp::Ordering::Less
                            } else {
                                o == std::cmp::Ordering::Greater
                            }
                        }
                    };
                    if better {
                        *best = Some(c.get(i));
                    }
                }
                Ok(())
            }
            // Decimal sums and sketches keep the general path.
            (_, col) => {
                let v = col.map(|c| c.get(i));
                self.update(spec, v.as_ref())
            }
        }
    }

    pub(crate) fn update(&mut self, spec: &AggExpr, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                if spec.func == AggFunc::CountStar || v.is_some_and(|x| !x.is_null()) {
                    *n += 1;
                }
            }
            AggState::SumInt { sum, seen } => {
                if let Some(v) = v {
                    if let Some(x) = v.as_i64() {
                        *sum += x as i128;
                        *seen = true;
                    }
                }
            }
            AggState::SumFloat { sum, seen } => {
                if let Some(v) = v {
                    if let Some(x) = v.as_f64() {
                        *sum += x;
                        *seen = true;
                    }
                }
            }
            AggState::SumDec { sum, scale, seen } => {
                if let Some(Value::Decimal { units, scale: s }) = v {
                    *sum += redsim_common::types::rescale(*units, *s, *scale)?;
                    *seen = true;
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = v {
                    if let Some(x) = v.as_f64() {
                        *sum += x;
                        *n += 1;
                    }
                }
            }
            AggState::MinMax { best, is_min } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = match best {
                            None => true,
                            Some(b) => {
                                let o = v.cmp_sql(b);
                                if *is_min {
                                    o == std::cmp::Ordering::Less
                                } else {
                                    o == std::cmp::Ordering::Greater
                                }
                            }
                        };
                        if better {
                            *best = Some(v.clone());
                        }
                    }
                }
            }
            AggState::Distinct(set) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        set.insert(HKey::from_value(v));
                    }
                }
            }
            AggState::Approx(sketch) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        sketch.insert_value(v);
                    }
                }
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumInt { sum: a, seen: sa }, AggState::SumInt { sum: b, seen: sb }) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::SumFloat { sum: a, seen: sa }, AggState::SumFloat { sum: b, seen: sb }) => {
                *a += b;
                *sa |= sb;
            }
            (
                AggState::SumDec { sum: a, seen: sa, .. },
                AggState::SumDec { sum: b, seen: sb, .. },
            ) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::Avg { sum: a, n: na }, AggState::Avg { sum: b, n: nb }) => {
                *a += b;
                *na += nb;
            }
            (AggState::MinMax { best: a, is_min }, AggState::MinMax { best: b, .. }) => {
                if let Some(bv) = b {
                    let better = match a {
                        None => true,
                        Some(av) => {
                            let o = bv.cmp_sql(av);
                            if *is_min {
                                o == std::cmp::Ordering::Less
                            } else {
                                o == std::cmp::Ordering::Greater
                            }
                        }
                    };
                    if better {
                        *a = Some(bv);
                    }
                }
            }
            (AggState::Distinct(a), AggState::Distinct(b)) => a.extend(b),
            (AggState::Approx(a), AggState::Approx(b)) => a.merge(&b),
            _ => unreachable!("mismatched aggregate states"),
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int8(n),
            AggState::SumInt { sum, seen } => {
                if seen {
                    Value::Int8(sum as i64)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat { sum, seen } => {
                if seen {
                    Value::Float8(sum)
                } else {
                    Value::Null
                }
            }
            AggState::SumDec { sum, scale, seen } => {
                if seen {
                    Value::Decimal { units: sum, scale }
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, n } => {
                if n > 0 {
                    Value::Float8(sum / n as f64)
                } else {
                    Value::Null
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::Distinct(set) => Value::Int8(set.len() as i64),
            AggState::Approx(sketch) => Value::Int8(sketch.estimate().round() as i64),
        }
    }
}

/// Per-slice hash join over local batches.
#[allow(clippy::too_many_arguments)]
fn hash_join_local(
    left_batches: Vec<Batch>,
    right_batches: Vec<Batch>,
    lw: usize,
    right_types: &[DataType],
    join_type: JoinType,
    left_key: usize,
    right_key: usize,
    residual: Option<&BoundExpr>,
) -> Result<Vec<Batch>> {
    // Build on the right side.
    let right_all = concat_batches_opt(right_batches);
    let mut table: FxHashMap<HKey, Vec<u32>> = FxHashMap::default();
    if let Some(r) = &right_all {
        let n = r.first().map_or(0, |c| c.len());
        for i in 0..n {
            let k = HKey::from_column(&r[right_key], i);
            if k.is_null() {
                continue; // NULL never matches
            }
            table.entry(k).or_default().push(i as u32);
        }
    }
    let mut out = Vec::new();
    for lb in left_batches {
        let n = lb.first().map_or(0, |c| c.len());
        if n == 0 {
            continue;
        }
        let mut l_idx: Vec<u32> = Vec::new();
        let mut r_idx: Vec<u32> = Vec::new();
        let mut unmatched: Vec<u32> = Vec::new();
        for i in 0..n {
            let k = HKey::from_column(&lb[left_key], i);
            let matches = if k.is_null() { None } else { table.get(&k) };
            match matches {
                Some(list) => {
                    for &j in list {
                        l_idx.push(i as u32);
                        r_idx.push(j);
                    }
                }
                None => {
                    if join_type == JoinType::Left {
                        unmatched.push(i as u32);
                    }
                }
            }
        }
        // Materialize matched rows (an absent build side still yields
        // typed, empty right columns so output width stays stable).
        let mut combined: Batch = Vec::with_capacity(lw + right_types.len());
        for c in &lb {
            combined.push(c.gather(&l_idx));
        }
        match &right_all {
            Some(r) => {
                for c in r {
                    combined.push(c.gather(&r_idx));
                }
            }
            None => {
                for &ty in right_types {
                    combined.push(ColumnData::new(ty));
                }
            }
        }
        // Residual filter on matched rows only.
        let mut kept = if let Some(res) = residual {
            let rows = combined.first().map_or(0, |c| c.len());
            let sel = eval_predicate(res, &combined, rows)?;
            let filtered: Batch = combined.iter().map(|c| c.filter(&sel)).collect();
            // LEFT JOIN: rows failing the residual revert to unmatched.
            if join_type == JoinType::Left {
                for (pos, &li) in l_idx.iter().enumerate() {
                    if !sel[pos] {
                        unmatched.push(li);
                    }
                }
                // A left row may have several candidate matches; only add
                // it to unmatched when *none* survived.
                let survivors: FxHashSet<u32> = l_idx
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| sel[*p])
                    .map(|(_, &li)| li)
                    .collect();
                unmatched.retain(|li| !survivors.contains(li));
                unmatched.sort_unstable();
                unmatched.dedup();
            }
            filtered
        } else {
            combined
        };
        // NULL-extended unmatched left rows.
        if join_type == JoinType::Left && !unmatched.is_empty() {
            let mut pad: Batch = Vec::with_capacity(lw + right_types.len());
            for c in &lb {
                pad.push(c.gather(&unmatched));
            }
            for &ty in right_types {
                let mut nulls = ColumnData::new(ty);
                for _ in 0..unmatched.len() {
                    nulls.push_null();
                }
                pad.push(nulls);
            }
            // Append pad to kept.
            for (k, p) in kept.iter_mut().zip(&pad) {
                k.append(p);
            }
        }
        if kept.first().map_or(0, |c| c.len()) > 0 {
            out.push(kept);
        }
    }
    Ok(out)
}

/// Routing hash of one column slot without materializing a `Value`
/// (matches `redsim_distribution::style::dist_hash` semantics).
fn dist_hash_column(c: &ColumnData, i: usize) -> u64 {
    if c.is_null(i) {
        return 0;
    }
    match c {
        ColumnData::Str { data, .. } => redsim_common::fx_hash64(data.get(i)),
        other => dist_hash(&other.get(i)),
    }
}

/// Total (rows, bytes) across a batch list — a profiled step's output
/// footprint on one slice.
fn batch_totals(batches: &[Batch]) -> (u64, u64) {
    let mut rows = 0u64;
    let mut bytes = 0u64;
    for b in batches {
        rows += b.first().map_or(0, |c| c.len()) as u64;
        bytes += b.iter().map(|c| c.byte_size() as u64).sum::<u64>();
    }
    (rows, bytes)
}

/// Concatenate batches of a known width into one batch.
pub fn concat_batches(width: usize, batches: Vec<Batch>) -> Batch {
    match concat_batches_opt(batches) {
        Some(b) => b,
        None => (0..width).map(|_| ColumnData::new(DataType::Int8)).collect(),
    }
}

fn concat_batches_opt(batches: Vec<Batch>) -> Option<Batch> {
    let mut iter = batches.into_iter().filter(|b| b.first().map_or(0, |c| c.len()) > 0 || !b.is_empty());
    let mut acc = iter.next()?;
    for b in iter {
        for (a, c) in acc.iter_mut().zip(&b) {
            a.append(c);
        }
    }
    Some(acc)
}

#[cfg(test)]
mod metrics_tests {
    use super::ExecMetrics;

    /// `absorb` must cover *every* field. The struct literal below has
    /// no `..Default::default()` escape hatch on purpose: adding a field
    /// to [`ExecMetrics`] without updating this test (and, by checklist,
    /// `absorb`) is a compile error, and a field missing from `absorb`
    /// fails the doubling assertion. The remaining manual `+=` sites in
    /// this file (broadcast/redistribute accounting, per-slice row
    /// counts) are deliberate single-field increments, not merges.
    #[test]
    fn absorb_covers_every_field() {
        let all_nonzero = ExecMetrics {
            bytes_broadcast: 1,
            bytes_redistributed: 2,
            blocks_read: 3,
            bytes_read: 4,
            groups_total: 5,
            groups_skipped: 6,
            rows_scanned: 7,
            queue_wait_ns: 8,
            exec_ns: 9,
            compile_ns: 10,
        };
        let mut acc = ExecMetrics::default();
        acc.absorb(&all_nonzero);
        acc.absorb(&all_nonzero);
        assert_eq!(acc.bytes_broadcast, 2);
        assert_eq!(acc.bytes_redistributed, 4);
        assert_eq!(acc.blocks_read, 6);
        assert_eq!(acc.bytes_read, 8);
        assert_eq!(acc.groups_total, 10);
        assert_eq!(acc.groups_skipped, 12);
        assert_eq!(acc.rows_scanned, 14);
        assert_eq!(acc.queue_wait_ns, 16);
        assert_eq!(acc.exec_ns, 18);
        assert_eq!(acc.compile_ns, 20);
        assert_eq!(acc.exchange_bytes(), 6);
    }
}
