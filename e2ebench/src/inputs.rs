//! Inputs and cluster set-up. Everything is generated from the seed by
//! `redsim_bench::datagen`; the program only ever sees the SQL and the
//! staged CSV objects.

use redshift_sim::common::{ColumnDef, Schema};
use redshift_sim::core::{Cluster, ClusterConfig, Session, SessionOpts};
use redshift_sim::distribution::DistStyle;
use redshift_sim::frontdoor::{FrontDoor, ServerOpts};
use redshift_sim::sql::ast::{DistStyleSpec, SortKeyAst};
use redshift_sim::sql::catalog::{StaticCatalog, TableMeta};
use redshift_sim::sql::Statement;
use redshift_sim::storage::SortKeySpec;
use redshift_sim::workload::{QueryClass, WorkloadConfig};
use redsim_bench::datagen;
use std::sync::Arc;

pub const PRODUCTS: i64 = 10_000;
/// Rows per COPY batch, in set-up and in `etl_fleet` alike.
pub const BATCH_ROWS: usize = 5_000;
/// 2015-05-01 00:00:00 UTC in µs: `datagen::clicks`' first timestamp.
pub const BASE_TS_US: i64 = 1_430_438_400_000_000;
/// Rendered click timestamps are whole seconds; one click per ms, so a
/// batch of `BATCH_ROWS` covers exactly this many seconds.
pub const BATCH_SECS: i64 = (BATCH_ROWS / 1_000) as i64;

/// One staged COPY object of `BATCH_ROWS` clicks.
pub struct Batch {
    pub key: String,
    pub csv: String,
    /// Index of the batch in load order; its clicks cover the seconds
    /// `[index * BATCH_SECS, (index + 1) * BATCH_SECS)` after `BASE_TS_US`.
    pub index: usize,
}

pub struct Inputs {
    pub products_csv: String,
    pub batches: Vec<Batch>,
    /// Batches COPYd during set-up; the rest are left to the workload.
    pub seed_batches: usize,
}

impl Inputs {
    /// `total_batches` batches of one continuous click stream (ts keeps
    /// increasing across batches), of which the first `seed_batches` are
    /// loaded at set-up.
    pub fn generate(seed: u64, total_batches: usize, seed_batches: usize) -> Inputs {
        let clicks = datagen::clicks(total_batches * BATCH_ROWS, PRODUCTS, seed);
        let batches = clicks
            .chunks(BATCH_ROWS)
            .enumerate()
            .map(|(index, chunk)| Batch {
                key: format!("bench/clicks/b{index:05}"),
                csv: datagen::clicks_csv(chunk, 1).pop().expect("one part"),
                index,
            })
            .collect();
        let products_csv = datagen::products_csv(PRODUCTS, seed, 1)
            .pop()
            .expect("one part");
        Inputs {
            products_csv,
            batches,
            seed_batches,
        }
    }

    pub fn seed_rows(&self) -> u64 {
        (self.seed_batches * BATCH_ROWS) as u64
    }
}

/// `TIMESTAMP '…'` literal for `secs` seconds after the first click.
pub fn ts_literal(secs: i64) -> String {
    format!(
        "TIMESTAMP '{}'",
        datagen::micros_to_ts(BASE_TS_US + secs * 1_000_000)
    )
}

/// A launched cluster with the web-log tables, its front door, and a
/// writer session.
pub struct Env {
    pub cluster: Arc<Cluster>,
    pub fd: FrontDoor,
    pub writer: Session,
    pub catalog: StaticCatalog,
}

impl Env {
    /// Refresh the row estimates of the planner-catalog mirror.
    pub fn refresh_catalog(&mut self) {
        self.catalog = mirror(&self.cluster);
    }

    /// Drain the front door (joining its threads) and shut the cluster
    /// down.
    pub fn shutdown(self) {
        drop(self.writer);
        self.fd.shutdown();
    }
}

/// The cluster every workload runs on: 2 nodes × 2 slices, the fleet
/// driver's WLM layout (SQA lane plus user-group queues) and a 256-entry
/// result cache.
pub fn cluster_config(seed: u64) -> ClusterConfig {
    WorkloadConfig::fleet(1).with_seed(seed).cluster("e2ebench")
}

/// Launch, create the tables, stage every batch, COPY the products and
/// hand the seed batches to `load` (which times and checks each COPY),
/// then start the front door.
pub fn setup(
    inputs: &Inputs,
    seed: u64,
    mut load: impl FnMut(&mut Env, &Batch) -> Result<(), String>,
) -> Result<Env, String> {
    let e = |x: redshift_sim::common::RsError| x.to_string();
    let cluster = Cluster::launch(cluster_config(seed)).map_err(e)?;
    cluster.execute(datagen::CLICKS_DDL).map_err(e)?;
    cluster.execute(datagen::PRODUCTS_DDL).map_err(e)?;
    cluster.put_s3_object(
        "bench/products/p0",
        inputs.products_csv.clone().into_bytes(),
    );
    for b in &inputs.batches {
        cluster.put_s3_object(&b.key, b.csv.clone().into_bytes());
    }
    let etl_group = QueryClass::Etl
        .user_group()
        .expect("the ETL class has a user group");
    let writer = cluster
        .connect(SessionOpts::new("etl").user_group(etl_group))
        .map_err(e)?;
    let n = writer
        .execute("COPY products FROM 's3://bench/products/'")
        .map_err(e)?
        .rows_affected;
    if n != PRODUCTS as u64 {
        return Err(format!(
            "products COPY loaded {n} rows, expected {PRODUCTS}"
        ));
    }
    let fd = FrontDoor::serve(cluster.clone(), ServerOpts::default()).map_err(e)?;
    let catalog = mirror(&cluster);
    let mut env = Env {
        cluster,
        fd,
        writer,
        catalog,
    };
    for b in &inputs.batches[..inputs.seed_batches] {
        load(&mut env, b)?;
    }
    env.refresh_catalog();
    Ok(env)
}

/// A `StaticCatalog` mirror of the leader's planner catalog: the
/// web-log tables with the cluster's current row estimates.
pub fn mirror(cluster: &Cluster) -> StaticCatalog {
    let tables = [datagen::CLICKS_DDL, datagen::PRODUCTS_DDL]
        .into_iter()
        .map(|ddl| {
            let mut t = table_meta(ddl);
            t.rows = cluster.rows_estimate(&t.name).unwrap_or(0);
            t
        })
        .collect();
    StaticCatalog {
        tables,
        slices: cluster.topology().total_slices(),
    }
}

/// Planner metadata for a table, derived from its DDL the way the
/// leader's catalog derives it (rows are filled in from the cluster).
fn table_meta(ddl: &str) -> TableMeta {
    let Ok(Statement::CreateTable(ct)) = redshift_sim::sql::parse(ddl) else {
        panic!("benchmark DDL must parse as CREATE TABLE")
    };
    let cols = ct
        .columns
        .iter()
        .map(|c| {
            let d = ColumnDef::new(c.name.clone(), c.data_type);
            if c.not_null {
                d.not_null()
            } else {
                d
            }
        })
        .collect();
    let schema = Schema::new(cols).expect("benchmark DDL has a valid schema");
    let idx = |c: &String| schema.index_of(c).expect("key column exists");
    let dist_style = match &ct.dist_style {
        DistStyleSpec::Auto | DistStyleSpec::Even => DistStyle::Even,
        DistStyleSpec::All => DistStyle::All,
        DistStyleSpec::Key(c) => DistStyle::Key(idx(c)),
    };
    let sort_key = match &ct.sort_key {
        SortKeyAst::None => SortKeySpec::None,
        SortKeyAst::Compound(cs) => SortKeySpec::Compound(cs.iter().map(idx).collect()),
        SortKeyAst::Interleaved(cs) => SortKeySpec::Interleaved(cs.iter().map(idx).collect()),
    };
    TableMeta {
        name: ct.name,
        schema,
        dist_style,
        sort_key,
        rows: 0,
    }
}
