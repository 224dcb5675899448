//! `bi_wire`: BI dashboards over the front door.
//!
//! Two `WireClient` connections run a closed loop of panels drawn
//! Zipf-skewed from a fixed pool of 40 texts that fits the 256-entry
//! result cache; one draw in ten is an export panel returning ~5k rows.
//! The front door's framing and encode path and the result-cache hit
//! path do nearly all the work; the executor almost none.

use crate::harness::{self, Args, Run, Snapshot};
use crate::inputs::{Inputs, BATCH_ROWS};
use crate::ops::{same_rows, share, Rec};
use crate::shapes::{self, ADHOC, EXPORT};
use crate::speed::Stopwatch;
use crate::trace::Tracer;
use redshift_sim::common::Row;
use redshift_sim::core::SessionOpts;
use redshift_sim::frontdoor::WireClient;
use redshift_sim::simkit::{SimRng, Zipf};
use std::time::{Duration, Instant};

const BATCHES: usize = 40;
const DASHBOARDS: usize = 38;
const EXPORTS: usize = 2;
/// Share of draws that are export panels. p95 sits well inside the
/// export regime, so it tracks the large-result path rather than
/// flipping between regimes from run to run.
const EXPORT_SHARE: f64 = 0.10;
const ZIPF_SKEW: f64 = 1.1;
const CLIENTS: u64 = 2;
/// Pool literals are fixed: the same 40 texts on every seed.
const POOL_SEED: u64 = 0xB1_DA5B;
/// Panels the answer oracle re-runs: every export and this many
/// dashboards spread over the shapes.
const ORACLE_DASHBOARDS: usize = 6;

pub fn run(args: &Args, epoch: Instant) -> Result<Run, String> {
    let inputs = Inputs::generate(args.seed, BATCHES, BATCHES);
    let rows = (BATCHES * BATCH_ROWS) as u64;
    let mut rng = SimRng::new(POOL_SEED, 0);
    let pool: Vec<(&'static str, String)> = (0..DASHBOARDS)
        .map(|i| ADHOC[i % ADHOC.len()])
        .chain(std::iter::repeat_n(EXPORT, EXPORTS))
        .map(|s| (s, shapes::statement(s, &mut rng, rows)))
        .collect();

    let (env, setups, setup_rec) = harness::set_up(args, &inputs, epoch)?;
    let mut rec = Rec::new(Tracer::new(args.trace, epoch, 1));
    rec.merge(setup_rec);
    let addr = env.fd.addr().to_string();
    let e = |x: redshift_sim::common::RsError| x.to_string();

    // Warm the result cache through the wire, and check each answer:
    // wire rows against a cold in-process execution, and a sample against
    // the row-engine oracle.
    let cold = env
        .cluster
        .connect(SessionOpts::new("bi").result_cache(false))
        .map_err(e)?;
    let mut client = WireClient::connect(addr.as_str(), "bi", None).map_err(e)?;
    let mut expected: Vec<Vec<Row>> = Vec::new();
    for (i, (shape, sql)) in pool.iter().enumerate() {
        let wire = rec.wire_select(&env.catalog, &mut client, &cold, sql, shape, false);
        let wire = wire.map(|w| w.rows).unwrap_or_default();
        match cold.query(sql) {
            Ok(r) => rec.check(same_rows(&wire, &r.rows), || {
                format!("wire rows differ from in-process rows: {sql}")
            }),
            Err(x) => rec.check(false, || format!("in-process {sql}: {x}")),
        }
        if *shape == EXPORT || i < ORACLE_DASHBOARDS {
            match env.cluster.query_interpreted(sql) {
                Ok(o) => rec.check(same_rows(&wire, &o), || {
                    format!("answer differs from the oracle: {sql}")
                }),
                Err(x) => rec.check(false, || format!("oracle {sql}: {x}")),
            }
        }
        expected.push(wire);
    }
    client.bye().map_err(e)?;
    drop(cold);

    let before = Snapshot::take(&env.cluster);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let window = Stopwatch::start();
    let lanes: Vec<Result<Rec, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|lane| {
                let (pool, expected, env, addr) = (&pool, &expected, &env, &addr);
                s.spawn(move || -> Result<Rec, String> {
                    let mut rec = Rec::new(Tracer::new(args.trace, epoch, 2 + lane));
                    let mut client = WireClient::connect(addr.as_str(), "bi", None).map_err(e)?;
                    let local = env.fd.local_session(SessionOpts::new("bi")).map_err(e)?;
                    let mut rng = SimRng::new(args.seed, 100 + lane);
                    let zipf = Zipf::new(DASHBOARDS, ZIPF_SKEW);
                    let mut k = 0u64;
                    while Instant::now() < deadline {
                        let i = if rng.next_f64() < EXPORT_SHARE {
                            DASHBOARDS + rng.gen_range(EXPORTS as u64) as usize
                        } else {
                            rng.zipf(&zipf)
                        };
                        let (shape, sql) = &pool[i];
                        if let Some(w) =
                            rec.wire_select(&env.catalog, &mut client, &local, sql, shape, true)
                        {
                            rec.check(same_rows(&w.rows, &expected[i]), || {
                                format!("wire answer changed: {sql}")
                            });
                        }
                        if rec.trace() && k.is_multiple_of(10) {
                            rec.ping(&mut client);
                        }
                        k += 1;
                    }
                    client.bye().map_err(e)?;
                    Ok(rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = window.stop();
    for lane in lanes {
        rec.merge(lane?);
    }
    let after = Snapshot::take(&env.cluster);

    let hits = share(
        after.result_cache.0 - before.result_cache.0,
        after.result_cache.1 - before.result_cache.1,
    );
    rec.check(hits >= 0.9, || {
        format!("self-check: result-cache hit ratio {hits:.3} < 0.9")
    });
    let step_us = harness::step_self_times(&env.cluster, &mut rec);
    harness::check_wlm(&mut rec, &env.cluster);
    env.shutdown();
    Ok(Run {
        rec,
        setups,
        window,
        closed_loop: Some(CLIENTS as usize),
        before,
        after,
        step_us,
    })
}
