//! `etl_fleet`: writes beside reads.
//!
//! A writer `Session` COPYs fixed-size click batches (continuing the ts
//! order) on the fixed cadence of a `redsim_workload::Schedule`, checks a
//! panel right after each commit, and runs the schedule's ETL transforms
//! over the batch it just loaded. A reader `Session` on a second thread
//! refreshes dashboard panels over the same table: after each commit it
//! sees, `VIEWERS` dashboard viewers in turn refresh all `PANELS` panels,
//! so the first refresh misses the result cache and the rest hit. The
//! loader, encoding, statistics refresh, WAL, MVCC publish and the
//! result-cache invalidation on each commit all do their work, and the
//! table grows 7.7× per run: every run loads the same batches whatever
//! its speed, so cost growth shows.

use crate::harness::{self, Args, Run, Snapshot};
use crate::inputs::{mirror, ts_literal, Env, Inputs, BATCH_ROWS, BATCH_SECS};
use crate::ops::{copy_batch, LoadProbe, Rec};
use crate::shapes::{self, BIGINT_FILTER, COUNT, GROUP_BIGINT, JOIN_AGG};
use crate::speed::Stopwatch;
use crate::trace::Tracer;
use redshift_sim::core::SessionOpts;
use redshift_sim::frontdoor::WireClient;
use redshift_sim::simkit::{SimRng, SimTime};
use redshift_sim::workload::{
    ArrivalCurve, ClassConfig, OpKind, QueryClass, Schedule, WorkloadConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SEED_BATCHES: usize = 6;
/// 30k seed rows grow to 230k. The schedule leaves the writer slack at
/// the sizes reached here, so the same loads, transforms and panel reads
/// happen on every run and the mix does not depend on speed.
const LOADS: usize = 40;
/// ETL transforms per hour of schedule time; the schedule loads one
/// batch a minute, so about two transforms per load.
const TRANSFORMS_PER_HOUR: f64 = 120.0;
/// A COUNT(*) panel and nine of the cheaper ad-hoc shapes (no sorts of
/// large inputs), so the first refresh after a commit fits between two
/// commits.
const PANELS: [&str; 10] = [
    COUNT,
    BIGINT_FILTER,
    BIGINT_FILTER,
    BIGINT_FILTER,
    BIGINT_FILTER,
    BIGINT_FILTER,
    BIGINT_FILTER,
    BIGINT_FILTER,
    GROUP_BIGINT,
    JOIN_AGG,
];
/// Refreshes per commit. One in five panel reads misses by construction,
/// so p50 sits among result-cache hits and p95 among misses, with
/// margin for a commit that lands mid-refresh.
const VIEWERS: usize = 5;
const PANEL_SEED: u64 = 0xE7_1DA5;

/// The writer's timeline: one COPY per schedule minute, ETL transforms
/// arriving as a Poisson stream between them.
fn schedule(seed: u64) -> Schedule {
    Schedule::synthesize(&WorkloadConfig {
        seed,
        tenants: 1,
        tenant_skew: 1.0,
        horizon: SimTime::from_mins(LOADS as u64 + 1),
        start_hour: 0.0,
        seed_rows: 0,
        sqa_max_cost: 0,
        classes: vec![ClassConfig {
            class: QueryClass::Etl,
            arrival: ArrivalCurve::flat(TRANSFORMS_PER_HOUR),
            repeat_pool: 2,
            zipf_skew: 0.0,
            copy_every: Some(SimTime::from_mins(1)),
            copy_rows: BATCH_ROWS as u32,
        }],
    })
}

/// The transform over batch `b`: a roll-up or a row count of its window.
/// The schedule draws ETL texts from a two-entry repeat pool
/// (`workload::synth::template_sql`: rank 0 is a self-join, rank 1 an
/// aggregate over `events`); each maps onto one shape here.
fn transform(template: &str, b: usize) -> (&'static str, String) {
    let (lo, hi) = (
        ts_literal(b as i64 * BATCH_SECS),
        ts_literal((b as i64 + 1) * BATCH_SECS),
    );
    if template.contains("JOIN") {
        (
            "etl_count",
            format!("SELECT COUNT(*) FROM clicks WHERE ts >= {lo} AND ts < {hi}"),
        )
    } else {
        (
            "etl_rollup",
            format!(
                "SELECT product_id, COUNT(*) AS n, SUM(bytes) AS b FROM clicks \
                 WHERE ts >= {lo} AND ts < {hi} GROUP BY product_id ORDER BY n DESC, product_id LIMIT 10"
            ),
        )
    }
}

pub fn run(args: &Args, epoch: Instant) -> Result<Run, String> {
    let inputs = Inputs::generate(args.seed, SEED_BATCHES + LOADS, SEED_BATCHES);
    let final_rows = ((SEED_BATCHES + LOADS) * BATCH_ROWS) as u64;
    let mut rng = SimRng::new(PANEL_SEED, 0);
    let panels: Vec<(&'static str, String)> = PANELS
        .iter()
        .map(|&s| (s, shapes::statement(s, &mut rng, final_rows)))
        .collect();
    let schedule = schedule(args.seed);

    let (mut env, setups, mut setup_rec) = harness::set_up(args, &inputs, epoch)?;
    // Set-up loads are checked but not timed: this workload's load
    // figures come from the loads it makes itself.
    setup_rec.loads.clear();
    let mut rec = Rec::new(Tracer::new(args.trace, epoch, 1));
    rec.merge(setup_rec);
    let e = |x: redshift_sim::common::RsError| x.to_string();
    let start_rows = env.cluster.rows_estimate("clicks").unwrap_or(0);
    let reader = env.cluster.connect(SessionOpts::new("dash")).map_err(e)?;
    let mut pinger = match args.trace {
        true => Some(WireClient::connect(env.fd.addr(), "probe", None).map_err(e)?),
        false => None,
    };
    // Committed rows, published by the writer before and after each COPY
    // so the reader can tell which counts are possible.
    let (floor, ceil) = (
        AtomicU64::new(inputs.seed_rows()),
        AtomicU64::new(inputs.seed_rows()),
    );
    let done = AtomicBool::new(false);
    let commits = AtomicU64::new(0);

    let before = Snapshot::take(&env.cluster);
    // Schedule minutes map onto the run's seconds; a writer behind
    // schedule runs its next operation at once.
    let tick = Duration::from_secs(args.seconds).as_secs_f64()
        / SimTime::from_mins(LOADS as u64 + 1).as_micros() as f64;
    let cluster = env.cluster.clone();
    let window = Stopwatch::start();
    let t0 = Instant::now();
    let reader_rec = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let mut rec = Rec::new(Tracer::new(args.trace, epoch, 2));
            let (mut seen, mut last) = (0, 0);
            while !done.load(Ordering::Acquire) {
                let c = commits.load(Ordering::Acquire);
                if c == seen {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                seen = c;
                for _ in 0..VIEWERS {
                    for (shape, sql) in &panels {
                        let lo = floor.load(Ordering::Acquire);
                        let catalog = mirror(&cluster);
                        let r = rec.session_select(&catalog, &reader, sql, shape, true);
                        let hi = ceil.load(Ordering::Acquire);
                        if let (Some(r), true) = (r, *shape == COUNT) {
                            let n = r.rows[0].get(0).as_i64().unwrap_or(-1) as u64;
                            let ok = n >= lo.max(last)
                                && n <= hi
                                && (n - lo).is_multiple_of(BATCH_ROWS as u64);
                            rec.check(ok, || {
                                format!("panel count {n} outside committed range [{lo}, {hi}]")
                            });
                            last = n;
                        }
                    }
                }
            }
            rec
        });
        let r = write(
            &mut env,
            &inputs,
            &schedule,
            &mut rec,
            &mut pinger,
            [&floor, &ceil, &commits],
            t0,
            tick,
        );
        done.store(true, Ordering::Release);
        let reader_rec = h.join().expect("reader thread panicked");
        r.map(|_| reader_rec)
    })?;
    let window = window.stop();
    rec.merge(reader_rec);
    let after = Snapshot::take(&env.cluster);

    match env.writer.query("SELECT COUNT(*) FROM clicks") {
        Ok(r) => {
            let n = r.rows[0].get(0).as_i64().unwrap_or(-1);
            rec.check(n == final_rows as i64, || {
                format!("final COUNT(*) {n}, expected {final_rows}")
            });
            rec.check(n as u64 >= 5 * start_rows, || {
                format!("self-check: table grew {start_rows} -> {n} rows, less than 5x")
            });
        }
        Err(x) => rec.check(false, || format!("final COUNT(*): {x}")),
    }
    let step_us = harness::step_self_times(&env.cluster, &mut rec);
    if let Some(p) = pinger {
        p.bye().map_err(e)?;
    }
    harness::check_wlm(&mut rec, &env.cluster);
    drop(reader);
    env.shutdown();
    Ok(Run {
        rec,
        setups,
        window,
        closed_loop: None,
        before,
        after,
        step_us,
    })
}

/// The writer's side: follow the schedule, load, check, transform.
#[allow(clippy::too_many_arguments)]
fn write(
    env: &mut Env,
    inputs: &Inputs,
    schedule: &Schedule,
    rec: &mut Rec,
    pinger: &mut Option<WireClient>,
    [floor, ceil, commits]: [&AtomicU64; 3],
    t0: Instant,
    tick: f64,
) -> Result<(), String> {
    let mut probe = LoadProbe::default();
    let mut loaded = 0usize;
    for op in schedule.ops() {
        let due = t0 + Duration::from_secs_f64(op.at.as_micros() as f64 * tick);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let last = inputs.seed_batches + loaded;
        match &op.kind {
            OpKind::Copy { .. } => {
                let batch = &inputs.batches[last];
                ceil.fetch_add(BATCH_ROWS as u64, Ordering::AcqRel);
                let r = copy_batch(rec, env, &mut probe, batch, loaded);
                if r.is_ok() {
                    loaded += 1;
                    floor.fetch_add(BATCH_ROWS as u64, Ordering::AcqRel);
                }
                env.refresh_catalog();
                // A panel read right after the commit must see it.
                let want = floor.load(Ordering::Acquire) as i64;
                if let Some(r) =
                    rec.session_select(&env.catalog, &env.writer, shapes::COUNT_SQL, COUNT, true)
                {
                    let n = r.rows[0].get(0).as_i64().unwrap_or(-1);
                    rec.check(n == want, || {
                        format!("stale panel after commit: COUNT(*) {n}, expected {want}")
                    });
                }
                commits.fetch_add(1, Ordering::AcqRel);
                if let Some(p) = pinger.as_mut() {
                    rec.ping(p);
                }
            }
            OpKind::Query { sql } => {
                let (shape, t) = transform(sql, last - 1);
                if let Some(r) = rec.session_select(&env.catalog, &env.writer, &t, shape, true) {
                    if shape == "etl_count" {
                        let n = r.rows[0].get(0).as_i64().unwrap_or(-1);
                        rec.check(n == BATCH_ROWS as i64, || {
                            format!("batch window holds {n} rows: {t}")
                        });
                    }
                }
            }
        }
    }
    Ok(())
}
