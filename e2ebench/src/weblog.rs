//! `weblog_adhoc`: the paper's §1 analytics on one in-process `Session`.
//!
//! A closed loop of statements that never repeat (fresh literals every
//! time), round-robin over the ad-hoc shapes, over ~200k clicks and 10k
//! products. The result cache and the plan cache always miss and the wire
//! is absent, so parsing, planning, compilation, execution and storage
//! scans do the work. A front-door or result-cache change should leave
//! this workload unchanged.

use crate::harness::{self, Args, Run, Snapshot};
use crate::inputs::{Inputs, BATCH_ROWS};
use crate::ops::{same_rows, Rec};
use crate::shapes::{self, ADHOC, TS_WINDOW};
use crate::speed::Stopwatch;
use crate::trace::Tracer;
use redshift_sim::common::Row;
use redshift_sim::core::SessionOpts;
use redshift_sim::frontdoor::WireClient;
use redshift_sim::simkit::SimRng;
use redshift_sim::workload::QueryClass;
use std::collections::HashSet;
use std::time::{Duration, Instant};

const BATCHES: usize = 40;
/// Statements per shape kept for the oracle check after the window.
const ORACLE_PER_SHAPE: usize = 2;

pub fn run(args: &Args, epoch: Instant) -> Result<Run, String> {
    let inputs = Inputs::generate(args.seed, BATCHES, BATCHES);
    let rows = (BATCHES * BATCH_ROWS) as u64;
    let (env, setups, setup_rec) = harness::set_up(args, &inputs, epoch)?;
    let mut rec = Rec::new(Tracer::new(args.trace, epoch, 1));
    rec.merge(setup_rec);
    let e = |x: redshift_sim::common::RsError| x.to_string();
    let group = QueryClass::AdHoc
        .user_group()
        .expect("the ad-hoc class has a user group");
    let session = env
        .cluster
        .connect(SessionOpts::new("analyst").user_group(group))
        .map_err(e)?;
    let mut pinger = match args.trace {
        true => Some(WireClient::connect(env.fd.addr(), "probe", None).map_err(e)?),
        false => None,
    };

    let mut rng = SimRng::new(args.seed, 200);
    let mut seen = HashSet::new();
    let mut fresh = |shape: &str| loop {
        let sql = shapes::statement(shape, &mut rng, rows);
        if seen.insert(sql.clone()) {
            return sql;
        }
    };
    // One untimed statement per shape first, so lazy first-touch work
    // is not timed.
    for shape in ADHOC {
        rec.session_select(&env.catalog, &session, &fresh(shape), shape, false);
    }

    let before = Snapshot::take(&env.cluster);
    let mut oracle: Vec<(String, Vec<Row>)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let window = Stopwatch::start();
    let mut k = 0usize;
    while Instant::now() < deadline {
        let shape = ADHOC[k % ADHOC.len()];
        let sql = fresh(shape);
        if let Some(r) = rec.session_select(&env.catalog, &session, &sql, shape, true) {
            if k / ADHOC.len() < ORACLE_PER_SHAPE {
                oracle.push((sql, r.rows));
            }
        }
        if let Some(p) = pinger.as_mut().filter(|_| k.is_multiple_of(20)) {
            rec.ping(p);
        }
        k += 1;
    }
    let window = window.stop();
    let after = Snapshot::take(&env.cluster);

    for (sql, rows) in &oracle {
        match env.cluster.query_interpreted(sql) {
            Ok(o) => rec.check(same_rows(rows, &o), || {
                format!("answer differs from the oracle: {sql}")
            }),
            Err(x) => rec.check(false, || format!("oracle {sql}: {x}")),
        }
    }
    let hits = after.result_cache.0 - before.result_cache.0;
    rec.check(hits == 0, || {
        format!("self-check: {hits} result-cache hits on never-repeating text")
    });
    let windows = rec.shape_us.get(TS_WINDOW).map_or(0, Vec::len);
    rec.check(windows > 0, || {
        "self-check: no TIMESTAMP-window statements ran".into()
    });
    let step_us = harness::step_self_times(&env.cluster, &mut rec);
    if let Some(p) = pinger {
        p.bye().map_err(e)?;
    }
    harness::check_wlm(&mut rec, &env.cluster);
    drop(session);
    env.shutdown();
    Ok(Run {
        rec,
        setups,
        window,
        closed_loop: Some(1),
        before,
        after,
        step_us,
    })
}
