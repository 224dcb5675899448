//! What every workload shares: repeated set-up, the counter snapshots
//! taken around the measured window, and the per-step executor profile.

use crate::inputs::{self, Env, Inputs};
use crate::ops::{copy_batch, LoadProbe, Rec};
use crate::speed::{Stopwatch, Timing};
use crate::trace::Tracer;
use redshift_sim::common::Value;
use redshift_sim::core::{Cluster, WlmAccounting};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up runs this many times per run; `setup_s` is their median and
/// the workload runs on the last cluster.
pub const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload hands back for reporting.
pub struct Run {
    pub rec: Rec,
    pub setups: Vec<Timing>,
    /// The measured window.
    pub window: Timing,
    /// Closed-loop clients, whose statements tile the window back to
    /// back; `None` when a schedule paces the run.
    pub closed_loop: Option<usize>,
    pub before: Snapshot,
    pub after: Snapshot,
    /// Mean self time per executed statement by executor step kind, µs
    /// (traced run).
    pub step_us: BTreeMap<&'static str, f64>,
}

/// Cluster counters read before and after the measured window.
#[derive(Clone, Copy)]
pub struct Snapshot {
    pub result_cache: (u64, u64),
    pub plan_cache: (u64, u64),
    pub wlm: WlmAccounting,
}

impl Snapshot {
    pub fn take(c: &Cluster) -> Snapshot {
        Snapshot {
            result_cache: c.result_cache_stats(),
            plan_cache: c.plan_cache_stats(),
            wlm: c.wlm_accounting(),
        }
    }
}

/// Run set-up `SETUPS` times, timing each, and keep the last cluster.
/// Each set-up COPYs the seed batches through `copy_batch`, so their
/// latencies and checks land in the returned `Rec`.
pub fn set_up(
    args: &Args,
    inputs: &Inputs,
    epoch: Instant,
) -> Result<(Env, Vec<Timing>, Rec), String> {
    let mut rec = Rec::new(Tracer::new(args.trace, epoch, 0));
    let mut times = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..SETUPS {
        if let Some(old) = env.take() {
            old.shutdown();
        }
        let mut probe = LoadProbe::default();
        let sw = Stopwatch::start();
        let e = inputs::setup(inputs, args.seed, |env, b| {
            copy_batch(&mut rec, env, &mut probe, b, b.index)
        })?;
        times.push(sw.stop());
        env = Some(e);
    }
    Ok((env.expect("at least one set-up"), times, rec))
}

/// Assert the WLM books balance on the quiesced cluster.
pub fn check_wlm(rec: &mut Rec, c: &Cluster) {
    let w = c.wlm_accounting();
    rec.check(w.balanced(), || format!("WLM books unbalanced: {w:?}"));
}

fn step_kind(label: &str) -> &'static str {
    if label.starts_with("Seq Scan") {
        "scan"
    } else if label.starts_with("Filter") {
        "filter"
    } else if label.starts_with("HashAggregate") {
        "aggregate"
    } else if label.starts_with("Hash Join") {
        "join"
    } else if label.starts_with("Sort") {
        "sort"
    } else {
        "other"
    }
}

/// Mean self time per step kind over the statements in `rec.plans`, from
/// `svl_query_report`. A step's elapsed time there includes its inputs,
/// so self time is its time (slowest slice) minus its children's, with
/// the tree read off the plan text's indentation (steps are numbered in
/// plan-line order). Statements are matched to `stl_query` by text; a
/// text that ran several times counts with the mean over its runs.
pub fn step_self_times(c: &Cluster, rec: &mut Rec) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = ["scan", "filter", "aggregate", "join", "sort"]
        .into_iter()
        .map(|k| (k, 0.0))
        .collect();
    if rec.plans.is_empty() {
        return out;
    }
    let read = |sql: &str| c.query(sql).map(|r| r.rows);
    let (Ok(queries), Ok(report)) = (
        read("SELECT query, querytxt FROM stl_query"),
        read("SELECT query, step, slice, label, elapsed_us FROM svl_query_report"),
    ) else {
        rec.check(false, || {
            "system tables stl_query / svl_query_report unreadable".into()
        });
        return out;
    };
    let int = |v: &Value| v.as_i64().unwrap_or(-1);
    // query id -> step -> (label, slowest slice µs)
    let mut steps: BTreeMap<i64, BTreeMap<i64, (String, i64)>> = BTreeMap::new();
    for r in &report {
        let e = steps
            .entry(int(r.get(0)))
            .or_default()
            .entry(int(r.get(1)))
            .or_default();
        e.0 = r.get(3).as_str().unwrap_or("").to_string();
        e.1 = e.1.max(int(r.get(4)));
    }
    let mut runs: BTreeMap<&str, Vec<i64>> = BTreeMap::new();
    for r in &queries {
        if let (Some(text), q) = (r.get(1).as_str(), int(r.get(0))) {
            if steps.contains_key(&q) {
                runs.entry(text).or_default().push(q);
            }
        }
    }
    let mut by_text: BTreeMap<&str, (usize, &str)> = BTreeMap::new();
    for (sql, plan) in &rec.plans {
        by_text.entry(sql.as_str()).or_insert((0, plan.as_str())).0 += 1;
    }
    let mut n = 0usize;
    for (sql, (count, plan)) in by_text {
        let depths: Vec<usize> = plan
            .lines()
            .map(|l| (l.len() - l.trim_start().len()) / 2)
            .collect();
        let mut per_text: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut matched = 0usize;
        for q in runs.get(sql).into_iter().flatten() {
            let st = &steps[q];
            if st.len() != depths.len() {
                continue;
            }
            matched += 1;
            let elapsed: Vec<i64> = st.values().map(|s| s.1).collect();
            for (i, (label, _)) in st.values().enumerate() {
                // Direct children: following lines one level deeper,
                // until the indentation returns to this step's level.
                let kids: i64 = (i + 1..depths.len())
                    .take_while(|&j| depths[j] > depths[i])
                    .filter(|&j| depths[j] == depths[i] + 1)
                    .map(|j| elapsed[j])
                    .sum();
                *per_text.entry(step_kind(label)).or_default() += (elapsed[i] - kids).max(0) as f64;
            }
        }
        if matched == 0 {
            continue;
        }
        n += count;
        for (k, v) in per_text {
            *out.entry(k).or_default() += v / matched as f64 * count as f64;
        }
    }
    for v in out.values_mut() {
        *v /= n.max(1) as f64;
    }
    out.remove("other");
    out
}
