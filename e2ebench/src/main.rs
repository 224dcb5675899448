//! End-to-end benchmark of redshift-sim.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <bi_wire|weblog_adhoc|etl_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run launches fresh clusters, runs one workload against the last
//! of them, checks every answer, and prints its metrics one per line and
//! then, as the last line, one JSON object. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the same workload with the
//! benchmark's per-layer probes and spans on and prints the per-layer
//! metrics. Times are reported at reference host speed (see `speed`), with
//! the wall-clock figures printed beside them. Results and spans are also
//! written under `e2ebench/out/`.
//! See README.md for what each workload and metric is for.

mod bi_wire;
mod etl;
mod harness;
mod inputs;
mod ops;
mod shapes;
mod speed;
mod stats;
mod trace;
mod weblog;

use harness::{Args, Run};
use ops::share;
use speed::{Speed, Timing};
use stats::{median, quantile, ratio};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["bi_wire", "weblog_adhoc", "etl_fleet"];

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {val}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (0 for counters and ratios of counters).
    n: usize,
}

struct Report {
    metrics: Vec<Metric>,
    /// A metric had no samples to be computed from.
    missing: Vec<String>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str, n: usize) {
        let name = name.into();
        let value = match value {
            Some(v) if v.is_finite() => v,
            _ => {
                self.missing.push(name.clone());
                0.0
            }
        };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Each load's latency in ms, in load order. The read workloads load the
/// same batches in each of their set-ups: each load counts with its
/// median over the set-ups, so a spike in one set-up does not move the
/// figures (etl_fleet has one sequence of its own loads).
fn load_costs(rec: &ops::Rec, ms: &dyn Fn(&Timing) -> f64) -> Vec<f64> {
    let mut by_load: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for l in &rec.loads {
        by_load.entry(l.0).or_default().push(ms(&l.1));
    }
    by_load.values().filter_map(|v| median(v)).collect()
}

/// The end-to-end metrics, with `secs` giving each timed operation's
/// duration in seconds.
fn end_to_end(run: &Run, secs: &dyn Fn(&Timing) -> f64, r: &mut Report) {
    let rec = &run.rec;
    let ms = |t: &Timing| secs(t) * 1e3;
    let setup: Vec<f64> = run.setups.iter().map(secs).collect();
    r.put("setup_s", median(&setup), "s", setup.len());
    let q: Vec<f64> = rec.queries.iter().map(ms).collect();
    r.put("query_p50_ms", quantile(&q, 0.5), "ms", q.len());
    r.put("query_p95_ms", quantile(&q, 0.95), "ms", q.len());
    // A closed loop's statements tile the window back to back, so the
    // window stretches or shrinks with them; a schedule fixes it.
    let window = match run.closed_loop {
        Some(clients) => {
            let extra: f64 = rec
                .queries
                .iter()
                .map(|t| secs(t) - t.wall.as_secs_f64())
                .sum();
            run.window.wall.as_secs_f64() + extra / clients as f64
        }
        None => run.window.wall.as_secs_f64(),
    };
    r.put(
        "queries_per_s",
        Some(q.len() as f64 / window),
        "1/s",
        q.len(),
    );
    // Load cost grows with the table in steps, and the middle of the
    // load sequence sits near one, so the typical load is the mean, not
    // the median.
    let loads = load_costs(rec, &ms);
    let mean = (!loads.is_empty()).then(|| loads.iter().sum::<f64>() / loads.len() as f64);
    r.put("load_mean_ms", mean, "ms", rec.loads.len());
    let ok = 1.0 - ratio(rec.failed as f64, rec.attempted as f64);
    r.put("ok_frac", Some(ok), "frac", rec.attempted as usize);
    r.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

fn per_layer(run: &Run, speed: &Speed, r: &mut Report) {
    let rec = &run.rec;
    let (b, a) = (&run.before, &run.after);
    let layer = |name: &str| rec.layer.get(name).map_or(&[][..], |v| v.as_slice());
    let sum = |name: &str| rec.sums.get(name).copied().unwrap_or(0.0);
    // Median of a layer's samples; 0 with n = 0 where the workload never
    // crosses that layer.
    let med = |r: &mut Report, name: &'static str, unit| {
        let v = layer(name);
        r.put(name, Some(median(v).unwrap_or(0.0)), unit, v.len());
    };
    med(r, "frontdoor.ping_us", "us");
    // Mean, not median: the rare export panels carry most of the encode
    // and decode work.
    for name in ["frontdoor.encode_us", "frontdoor.decode_us"] {
        let v = layer(name);
        r.put(
            name,
            Some(v.iter().sum::<f64>() / v.len().max(1) as f64),
            "us",
            v.len(),
        );
    }
    let rows = sum("frontdoor.frame_rows");
    r.put(
        "frontdoor.frame_bytes_per_row",
        Some(ratio(sum("frontdoor.frame_bytes"), rows)),
        "B",
        rows as usize,
    );

    let (hits, misses) = (
        a.result_cache.0 - b.result_cache.0,
        a.result_cache.1 - b.result_cache.1,
    );
    r.put(
        "result_cache.hit_ratio",
        Some(share(hits, misses)),
        "frac",
        (hits + misses) as usize,
    );
    med(r, "result_cache.hit_us", "us");
    med(r, "result_cache.miss_us", "us");

    med(r, "wlm.queue_wait_us", "us");
    let admitted = a.wlm.admitted - b.wlm.admitted;
    let sqa = a.wlm.sqa_admits - b.wlm.sqa_admits;
    r.put(
        "wlm.sqa_frac",
        Some(ratio(sqa as f64, admitted as f64)),
        "frac",
        admitted as usize,
    );
    r.put(
        "wlm.refused",
        Some((a.wlm.rejected - b.wlm.rejected) as f64),
        "count",
        0,
    );

    med(r, "sql.parse_us", "us");
    med(r, "sql.bind_us", "us");
    med(r, "sql.optimize_us", "us");
    med(r, "compile.signature_us", "us");
    med(r, "compile.compile_us", "us");
    let (ph, pm) = (
        a.plan_cache.0 - b.plan_cache.0,
        a.plan_cache.1 - b.plan_cache.1,
    );
    r.put(
        "compile.plan_cache_hit_ratio",
        Some(share(ph, pm)),
        "frac",
        (ph + pm) as usize,
    );

    med(r, "exec.exec_us", "us");
    med(r, "exec.rows_scanned", "rows");
    let mrows = ratio(sum("exec.rows_scanned"), sum("exec.exec_ns")) * 1e3;
    r.put(
        "exec.scan_mrows_per_s",
        Some(mrows),
        "Mrows/s",
        layer("exec.exec_us").len(),
    );
    med(r, "exec.exchange_bytes", "B");
    for (name, shape) in [
        ("exec.zonemap_skip_frac", "all"),
        ("exec.zonemap_skip_frac.ts_window", shapes::TS_WINDOW),
        (
            "exec.zonemap_skip_frac.bigint_filter",
            shapes::BIGINT_FILTER,
        ),
    ] {
        let (s, t) = rec.zonemap.get(shape).copied().unwrap_or((0, 0));
        r.put(name, Some(ratio(s as f64, t as f64)), "frac", t as usize);
    }
    for (kind, us) in &run.step_us {
        r.put(
            format!("exec.step_us.{kind}"),
            Some(*us),
            "us",
            rec.plans.len(),
        );
    }

    med(r, "loader.parse_us_per_krow", "us");
    med(r, "storage.encode_us_per_krow", "us");
    let csv = sum("storage.csv_bytes");
    r.put(
        "storage.bytes_per_user_byte",
        Some(ratio(sum("storage.encoded_bytes"), csv)),
        "B/B",
        0,
    );
    med(r, "storage.analyze_ms", "ms");
    med(r, "wal.commit_us", "us");

    r.put("txn.retries", Some(sum("txn.retries")), "count", 0);
    // Loads are numbered in the table's load order; compare the first
    // and the last fifth of that order.
    let n = rec.loads.iter().map(|l| l.0 + 1).max().unwrap_or(0);
    let fifth = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
        rec.loads
            .iter()
            .filter(|l| keep(l.0))
            .map(|l| speed.at_ref(&l.1))
            .collect()
    };
    let (first, last) = (fifth(&|i| i < n / 5), fifth(&|i| i >= n - n / 5));
    let growth = median(&last).zip(median(&first)).map(|(l, f)| l / f);
    r.put("load_growth_x", growth, "x", first.len() + last.len());
    // The highest percentile with ten of the 40 loads beyond it.
    let loads = load_costs(rec, &|t| speed.at_ref(t) * 1e3);
    r.put("load_p75_ms", quantile(&loads, 0.75), "ms", rec.loads.len());
    med(r, "session.leader_us", "us");
    med(r, "ledger.unattributed_frac", "frac");
    for (name, shape) in [
        ("shape.ts_window.p50_us", shapes::TS_WINDOW),
        ("shape.bigint_filter.p50_us", shapes::BIGINT_FILTER),
    ] {
        let v = rec.shape_us.get(shape).map_or(&[][..], |v| v.as_slice());
        r.put(name, Some(median(v).unwrap_or(0.0)), "us", v.len());
    }
    r.put(
        "trace.overhead_frac",
        Some(ratio(rec.op_ns, rec.call_ns) - 1.0),
        "frac",
        rec.queries.len(),
    );
    let q: Vec<f64> = rec.queries.iter().map(|t| speed.at_ref(t) * 1e3).collect();
    r.put(
        "trace.query_p50_ms",
        Some(median(&q).unwrap_or(0.0)),
        "ms",
        q.len(),
    );
}

/// `git rev-parse HEAD` without running git: read `.git/HEAD` and the ref
/// it names, if the benchmark sits in a git checkout.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(r))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn machine(args: &Args, root: &Path, speed: &Speed) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (kernel_us, samples) = speed.summary();
    let kernel_us: Vec<String> = kernel_us.iter().map(|k| format!("{k:.1}")).collect();
    format!(
        "{{\"nproc\":{nproc},\"available_workers\":{},\"profile\":\"{}\",\"git_commit\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"kernel_us\":[{}],\"kernel_samples\":{samples}}}",
        redshift_sim::testkit::par::available_workers(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit(root),
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        kernel_us.join(","),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let speed = Speed::new();
    let run = std::thread::scope(|s| {
        for i in 0..speed.samplers() {
            let speed = &speed;
            s.spawn(move || speed.sample(i));
        }
        let _stop = speed.guard();
        match args.workload.as_str() {
            "bi_wire" => bi_wire::run(&args, epoch),
            "weblog_adhoc" => weblog::run(&args, epoch),
            _ => etl::run(&args, epoch),
        }
    });
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let mut report = Report {
        metrics: Vec::new(),
        missing: Vec::new(),
    };
    if args.trace {
        per_layer(&run, &speed, &mut report);
    } else {
        end_to_end(&run, &|t| speed.at_ref(t), &mut report);
    }
    let rec = &run.rec;
    for f in &rec.failures {
        eprintln!("e2ebench: FAILED {f}");
    }
    for m in &report.missing {
        eprintln!("e2ebench: no samples for {m}");
    }
    let correct = rec.failed == 0 && report.missing.is_empty();

    let pkg = Path::new(env!("CARGO_MANIFEST_DIR"));
    let machine = machine(&args, pkg.parent().unwrap_or(pkg), &speed);
    let mut metrics_json = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        println!("{:<40} {:>14.4} {:<8} n={}", m.name, m.value, m.unit, m.n);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics_json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to string");
    }
    if !args.trace {
        let mut wall = Report {
            metrics: Vec::new(),
            missing: Vec::new(),
        };
        end_to_end(&run, &|t| t.wall.as_secs_f64(), &mut wall);
        println!("# the same on the wall clock, not at reference speed:");
        for m in wall
            .metrics
            .iter()
            .filter(|m| matches!(m.unit, "s" | "ms" | "1/s"))
        {
            println!("#   {:<36} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("# wall-clock client latency per statement shape (p50 us, p95 us, statements):");
    for (shape, v) in &rec.shape_us {
        let q = |p| quantile(v, p).unwrap_or(0.0);
        println!(
            "#   {shape:<28} {:>12.1} {:>12.1} {:>8}",
            q(0.5),
            q(0.95),
            v.len()
        );
    }
    if args.trace {
        println!("# self time per span name (median us, spans):");
        for (name, (us, n)) in trace::self_time_summary(&rec.tracer.spans) {
            println!("#   {name:<28} {us:>12.1} {n:>8}");
        }
    }
    println!("# machine {machine}");
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        rec.attempted,
        rec.failed + report.missing.len() as u64
    );
    write_out(pkg, &args, &machine, &result, rec);
    println!("{result}");
}

/// Keep the result, with the machine and inputs, and on the traced run
/// the span file, under `e2ebench/out/`.
fn write_out(pkg: &Path, args: &Args, machine: &str, result: &str, rec: &ops::Rec) {
    let dir = pkg.join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let write = |name: String, body: &str| {
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(&name), body))
        {
            eprintln!("e2ebench: could not write {name}: {e}");
        }
    };
    write(
        format!("{stem}.json"),
        &format!("{{\"machine\": {machine}, \"result\": {result}}}\n"),
    );
    if args.trace {
        write(
            format!("{stem}.spans.jsonl"),
            &trace::spans_jsonl(&rec.tracer.spans),
        );
    }
}
