//! The operations every workload is built from, each timed from the
//! client's side, and — on the traced run — broken into layers by timing
//! calls into each layer's public functions.

use crate::inputs::{Batch, Env, BATCH_ROWS};
use crate::speed::{Stopwatch, Timing};
use crate::stats::ratio;
use crate::trace::{Op, Tracer};
use redshift_sim::common::{Row, RsError, Value};
use redshift_sim::core::{loader, QueryResult, Session};
use redshift_sim::engine::compile::plan_signature;
use redshift_sim::faultkit::FaultRegistry;
use redshift_sim::frontdoor::wire::{decode_response, encode_response};
use redshift_sim::frontdoor::{Response, WireClient, WireRows};
use redshift_sim::sql::catalog::StaticCatalog;
use redshift_sim::sql::{optimizer, Binder, Statement};
use redshift_sim::storage::analyzer::DEFAULT_SAMPLE_ROWS;
use redshift_sim::storage::{analyze_compression, encode_column, Wal};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A full `ANALYZE clicks` is timed after every this many loads on the
/// traced run.
const ANALYZE_EVERY: usize = 10;
/// Retries of a COPY that lost a first-committer-wins race.
const MAX_RETRIES: usize = 10;

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// What one thread of a workload observed. Merged at the end of a run.
pub struct Rec {
    pub tracer: Tracer,
    /// Client-observed SELECT latency, timed window only.
    pub queries: Vec<Timing>,
    /// Per-COPY latency, keyed by the load's position in the table's
    /// load order (so growth can be read off, and the same load of
    /// several set-ups matched up).
    pub loads: Vec<(usize, Timing)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-layer samples (traced run).
    pub layer: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer counters (traced run).
    pub sums: BTreeMap<&'static str, f64>,
    /// Client-observed latency per statement shape, µs.
    pub shape_us: BTreeMap<&'static str, Vec<f64>>,
    /// Zone-map `(groups_skipped, groups_total)` per statement shape.
    pub zonemap: BTreeMap<&'static str, (u64, u64)>,
    /// Plan text of executed statements by SQL text, to attribute the
    /// per-step profile in `svl_query_report` (traced run).
    pub plans: Vec<(String, String)>,
    /// Sum of operation wall time and of the measured calls inside it
    /// (traced run): their ratio is the tracing overhead.
    pub op_ns: f64,
    pub call_ns: f64,
}

impl Rec {
    pub fn new(tracer: Tracer) -> Rec {
        Rec {
            tracer,
            queries: Vec::new(),
            loads: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            layer: BTreeMap::new(),
            sums: BTreeMap::new(),
            shape_us: BTreeMap::new(),
            zonemap: BTreeMap::new(),
            plans: Vec::new(),
            op_ns: 0.0,
            call_ns: 0.0,
        }
    }

    pub fn trace(&self) -> bool {
        self.tracer.on()
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Count an answer check: one attempted operation, failed if `ok`
    /// is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.layer.entry(name).or_default().push(v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    pub fn merge(&mut self, o: Rec) {
        self.tracer.spans.extend(o.tracer.spans);
        self.queries.extend(o.queries);
        self.loads.extend(o.loads);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.failures.extend(o.failures);
        for (k, v) in o.layer {
            self.layer.entry(k).or_default().extend(v);
        }
        for (k, v) in o.sums {
            self.add(k, v);
        }
        for (k, v) in o.shape_us {
            self.shape_us.entry(k).or_default().extend(v);
        }
        for (k, (s, t)) in o.zonemap {
            let e = self.zonemap.entry(k).or_default();
            e.0 += s;
            e.1 += t;
        }
        self.plans.extend(o.plans);
        self.op_ns += o.op_ns;
        self.call_ns += o.call_ns;
    }

    fn finish_op(&mut self, op: Op, call: Duration) {
        if self.trace() {
            self.op_ns += op.elapsed().as_nanos() as f64;
            self.call_ns += call.as_nanos() as f64;
        }
        self.tracer.end(op);
    }

    /// Time `redsim_sql::parse`, `Binder::bind_select`,
    /// `optimizer::optimize` and `compile::plan_signature` on `sql`
    /// against the planner-catalog mirror; returns their total µs.
    fn sql_probe(&mut self, op: &Op, catalog: &StaticCatalog, sql: &str) -> f64 {
        let (stmt, t_parse) = self
            .tracer
            .time(op, "sql.parse", || redshift_sim::sql::parse(sql));
        let Ok(Statement::Select(sel)) = stmt else {
            return us(t_parse);
        };
        let (bound, t_bind) = self
            .tracer
            .time(op, "sql.bind", || Binder::new(catalog).bind_select(&sel));
        let Ok(bound) = bound else {
            return us(t_parse + t_bind);
        };
        let (plan, t_opt) = self
            .tracer
            .time(op, "sql.optimize", || optimizer::optimize(bound, catalog));
        let (sig, t_sig) = self
            .tracer
            .time(op, "compile.signature", || plan_signature(&plan));
        std::hint::black_box(sig);
        self.sample("sql.parse_us", us(t_parse));
        self.sample("sql.bind_us", us(t_bind));
        self.sample("sql.optimize_us", us(t_opt));
        self.sample("compile.signature_us", us(t_sig));
        us(t_parse + t_bind + t_opt + t_sig)
    }

    /// Time `wire::encode_response` and `decode_response` on a result;
    /// returns their total µs.
    fn wire_probe(&mut self, op: &Op, rows: WireRows) -> f64 {
        let n = rows.rows.len();
        let resp = Response::Rows(rows);
        let (bytes, t_enc) = self
            .tracer
            .time(op, "frontdoor.encode", || encode_response(&resp));
        let (back, t_dec) = self
            .tracer
            .time(op, "frontdoor.decode", || decode_response(&bytes));
        if back.as_ref().ok() != Some(&resp) {
            self.check(false, || {
                "wire encode/decode round trip changed the result".into()
            });
        }
        self.sample("frontdoor.encode_us", us(t_enc));
        self.sample("frontdoor.decode_us", us(t_dec));
        self.add("frontdoor.frame_bytes", bytes.len() as f64);
        self.add("frontdoor.frame_rows", n as f64);
        us(t_enc + t_dec)
    }

    /// Per-layer figures `QueryResult.metrics` reports for an executed
    /// (not result-cache) statement.
    fn exec_metrics(
        &mut self,
        op: &Op,
        call: u32,
        t0: Instant,
        t1: Instant,
        r: &QueryResult,
        shape: &'static str,
    ) -> f64 {
        let m = &r.metrics;
        self.tracer.derived(
            op,
            call,
            t0,
            t1,
            &[
                ("wlm.queue_wait", m.queue_wait_ns),
                ("compile", m.compile_ns),
                ("exec", m.exec_ns),
            ],
        );
        self.sample("wlm.queue_wait_us", m.queue_wait_ns as f64 / 1e3);
        self.sample("compile.compile_us", m.compile_ns as f64 / 1e3);
        self.sample("exec.exec_us", m.exec_ns as f64 / 1e3);
        self.sample("exec.rows_scanned", m.rows_scanned as f64);
        self.sample("exec.exchange_bytes", m.exchange_bytes() as f64);
        self.add("exec.rows_scanned", m.rows_scanned as f64);
        self.add("exec.exec_ns", m.exec_ns as f64);
        let z = self.zonemap.entry(shape).or_default();
        z.0 += m.groups_skipped as u64;
        z.1 += m.groups_total as u64;
        let z = self.zonemap.entry("all").or_default();
        z.0 += m.groups_skipped as u64;
        z.1 += m.groups_total as u64;
        (m.queue_wait_ns + m.compile_ns + m.exec_ns) as f64 / 1e3
    }

    /// A SELECT through an in-process `Session`. `timed` statements count
    /// towards the end-to-end query metrics.
    pub fn session_select(
        &mut self,
        catalog: &StaticCatalog,
        s: &Session,
        sql: &str,
        shape: &'static str,
        timed: bool,
    ) -> Option<QueryResult> {
        let op = self.tracer.begin();
        let sw = Stopwatch::start();
        let r = s.query(sql);
        let timing = sw.stop();
        let (t0, t1) = (timing.start, timing.start + timing.wall);
        let call = self.tracer.child(&op, op.root, "session.query", t0, t1);
        self.attempted += 1;
        let lat = t1 - t0;
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("{sql}: {e}"));
                self.finish_op(op, lat);
                return None;
            }
        };
        if timed {
            self.queries.push(timing);
            self.shape_us.entry(shape).or_default().push(us(lat));
        }
        if self.trace() {
            let mut layers = 0.0;
            if r.result_cache_hit {
                self.sample("result_cache.hit_us", us(lat));
            } else {
                self.sample("result_cache.miss_us", us(lat));
                let inside = self.exec_metrics(&op, call, t0, t1, &r, shape);
                self.sample("session.leader_us", us(lat) - inside);
                layers += inside + self.sql_probe(&op, catalog, sql);
                self.plans.push((sql.to_string(), r.plan.clone()));
            }
            let wire = WireRows {
                columns: r.columns.clone(),
                rows: r.rows.clone(),
                cache_hit: r.cache_hit,
                result_cache_hit: r.result_cache_hit,
            };
            self.wire_probe(&op, wire);
            self.sample("ledger.unattributed_frac", 1.0 - layers / us(lat));
        }
        self.finish_op(op, lat);
        Some(r)
    }

    /// A SELECT over the wire. On the traced run the same text is also run
    /// through `local`, an in-process session of the same user group, to
    /// time the leader's share of the round trip.
    pub fn wire_select(
        &mut self,
        catalog: &StaticCatalog,
        client: &mut WireClient,
        local: &Session,
        sql: &str,
        shape: &'static str,
        timed: bool,
    ) -> Option<WireRows> {
        let op = self.tracer.begin();
        let sw = Stopwatch::start();
        let r = client.query(sql);
        let timing = sw.stop();
        let (t0, t1) = (timing.start, timing.start + timing.wall);
        self.tracer.child(&op, op.root, "wire.query", t0, t1);
        self.attempted += 1;
        let lat = t1 - t0;
        let rows = match r {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("wire {sql}: {e}"));
                self.finish_op(op, lat);
                return None;
            }
        };
        if timed {
            self.queries.push(timing);
            self.shape_us.entry(shape).or_default().push(us(lat));
        }
        if self.trace() {
            let (lr, t_local) = self.tracer.time(&op, "session.query", || local.query(sql));
            let mut layers = us(t_local);
            match lr {
                Ok(lr) if lr.result_cache_hit => self.sample("result_cache.hit_us", us(t_local)),
                Ok(_) => self.sample("result_cache.miss_us", us(t_local)),
                Err(e) => self.check(false, || format!("in-process {sql}: {e}")),
            }
            self.sql_probe(&op, catalog, sql);
            layers += self.wire_probe(&op, rows.clone());
            self.sample("ledger.unattributed_frac", 1.0 - layers / us(lat));
        }
        self.finish_op(op, lat);
        Some(rows)
    }

    /// A front-door `Ping` round trip (traced run).
    pub fn ping(&mut self, client: &mut WireClient) {
        let op = self.tracer.begin();
        let (r, t) = self.tracer.time(&op, "frontdoor.ping", || client.ping());
        self.attempted += 1;
        match r {
            Ok(()) => self.sample("frontdoor.ping_us", us(t)),
            Err(e) => self.fail(format!("ping: {e}")),
        }
        self.finish_op(op, t);
    }
}

/// The benchmark-side half of a COPY's layers on the traced run: a
/// standalone redo log for the commit cost, and the running byte counts.
pub struct LoadProbe {
    wal: Wal,
    payload: Vec<u8>,
    txn: u64,
}

impl Default for LoadProbe {
    fn default() -> Self {
        LoadProbe {
            wal: Wal::new(Arc::new(FaultRegistry::new(0))),
            payload: Vec::new(),
            txn: 0,
        }
    }
}

/// COPY one batch into `clicks` through the env's writer session, check
/// the row count, and record its latency as load number `seq`. Retries a
/// retryable `Serializable` conflict.
pub fn copy_batch(
    rec: &mut Rec,
    env: &Env,
    probe: &mut LoadProbe,
    batch: &Batch,
    seq: usize,
) -> Result<(), String> {
    let sql = format!("COPY clicks FROM 's3://{}'", batch.key);
    let op = rec.tracer.begin();
    let sw = Stopwatch::start();
    let mut r = env.writer.execute(&sql);
    for _ in 0..MAX_RETRIES {
        if !matches!(r, Err(RsError::Serializable(_))) {
            break;
        }
        rec.add("txn.retries", 1.0);
        r = env.writer.execute(&sql);
    }
    let timing = sw.stop();
    let (t0, t1) = (timing.start, timing.start + timing.wall);
    rec.tracer.child(&op, op.root, "session.copy", t0, t1);
    rec.attempted += 1;
    let lat = t1 - t0;
    let result = match r {
        Ok(s) if s.rows_affected == BATCH_ROWS as u64 => {
            rec.loads.push((seq, timing));
            Ok(())
        }
        Ok(s) => Err(format!(
            "{sql}: {} rows affected, expected {BATCH_ROWS}",
            s.rows_affected
        )),
        Err(e) => Err(format!("{sql}: {e}")),
    };
    if let Err(m) = &result {
        rec.fail(m.clone());
    }
    if rec.trace() && result.is_ok() {
        let layers = load_layers(rec, env, probe, &op, batch);
        rec.sample("ledger.unattributed_frac", 1.0 - layers / us(lat));
        if (seq + 1).is_multiple_of(ANALYZE_EVERY) {
            let (a, t) = rec.tracer.time(&op, "storage.analyze", || {
                env.writer.execute("ANALYZE clicks")
            });
            match a {
                Ok(_) => rec.sample("storage.analyze_ms", us(t) / 1e3),
                Err(e) => rec.fail(format!("ANALYZE clicks: {e}")),
            }
        }
    }
    rec.finish_op(op, lat);
    result
}

/// Time `loader::parse_csv`, `analyze_compression` + `encode_column`, and
/// a WAL delta append + sync + commit of the encoded size on one batch;
/// returns their total µs.
fn load_layers(rec: &mut Rec, env: &Env, probe: &mut LoadProbe, op: &Op, batch: &Batch) -> f64 {
    let clicks = env.catalog.tables.iter().find(|t| t.name == "clicks");
    let schema = &clicks.expect("the catalog mirror has clicks").schema;
    let krows = BATCH_ROWS as f64 / 1e3;
    let (cols, t_parse) = rec.tracer.time(op, "loader.parse_csv", || {
        loader::parse_csv(&batch.csv, ',', schema)
    });
    let Ok(cols) = cols else {
        rec.check(false, || {
            format!("loader::parse_csv rejected batch {}", batch.key)
        });
        return us(t_parse);
    };
    let (encoded, t_enc) = rec.tracer.time(op, "storage.encode", || {
        cols.iter()
            .map(|c| {
                encode_column(c, analyze_compression(c, DEFAULT_SAMPLE_ROWS)).map_or(0, |b| b.len())
            })
            .sum::<usize>()
    });
    probe.payload.resize(encoded, 0xA5);
    probe.txn += 1;
    let (w, t_wal) = rec.tracer.time(op, "wal.commit", || {
        probe.wal.append_delta(probe.txn, &probe.payload)?;
        probe.wal.sync()?;
        probe.wal.commit(probe.txn)
    });
    if let Err(e) = w.and_then(|_| probe.wal.truncate()) {
        rec.check(false, || format!("standalone WAL: {e}"));
    }
    rec.sample("loader.parse_us_per_krow", us(t_parse) / krows);
    rec.sample("storage.encode_us_per_krow", us(t_enc) / krows);
    rec.sample("wal.commit_us", us(t_wal));
    rec.add("storage.encoded_bytes", encoded as f64);
    rec.add("storage.csv_bytes", batch.csv.len() as f64);
    us(t_parse + t_enc + t_wal)
}

/// Order-insensitive comparison of two result sets. Floats compare with
/// a relative tolerance; everything else exactly.
pub fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && sorted(a).iter().zip(sorted(b)).all(|(x, y)| {
            x.len() == y.len()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(p, q)| same_value(p, q))
        })
}

fn sorted(rows: &[Row]) -> Vec<&Row> {
    let mut v: Vec<&Row> = rows.iter().collect();
    v.sort_by(|x, y| {
        x.values()
            .iter()
            .zip(y.values())
            .map(|(p, q)| p.cmp_sql(q))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    v
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float8(x), Value::Float8(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b || a.eq_sql(b),
    }
}

/// Share of `num` in `num + den` counters, as a ratio.
pub fn share(num: u64, other: u64) -> f64 {
    ratio(num as f64, (num + other) as f64)
}
