//! The cluster: leader + compute nodes + managed-service operations.

use crate::autonomics::{self, MaintenanceAction, MaintenancePolicy, UsageStats};
use crate::catalog::{Catalog, PlannerCatalog, TableEntry, TableVersion};
use crate::config::ClusterConfig;
use crate::encstore::EncryptedBlockStore;
use crate::loader;
use crate::result_cache::{CachedResult, ResultCache};
use crate::session::{Session, SessionCtx, SessionManager, SessionOpts};
use crate::systables::{self, SystemTables};
use crate::wlm::{QmrStats, WlmController, WlmGuard};
use redsim_obs::{AttrValue, Span, TraceSink, LVL_CORE, LVL_DETAIL, LVL_PHASE};
use redsim_testkit::par;
use redsim_testkit::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use redsim_testkit::rng::Pcg32;
use redsim_common::codec::{Reader, Writer};
use redsim_common::{ColumnData, DataType, Result, RetryPolicy, Row, RsError, Schema, Value};
use redsim_crypto::{ClusterKeyring, HsmSim, KeyId, WrappedKey};
use redsim_distribution::{ClusterTopology, DistStyle, NodeId, RowRouter};
use redsim_engine::baseline;
use redsim_engine::compile::CompiledQuery;
use redsim_engine::exec::{ExecMetrics, Executor, QueryOutput, StepProfile, TableProvider};
use redsim_engine::PlanCache;
use redsim_replication::{
    BackupManager, ReplicatedStore, S3Sim, SnapshotInfo, SnapshotKind, StreamingRestoreStore,
};
use redsim_sql::ast::{self, Statement};
use redsim_sql::plan::{LogicalPlan, OutCol};
use redsim_sql::{optimizer, Binder, CatalogView};
use redsim_common::FxHashMap;
use redsim_storage::stats::TableStats;
use redsim_storage::table::{ScanOutput, ScanPredicate, SliceTable, SortKeySpec, WriteCheckpoint};
use redsim_storage::wal::{self, Wal};
use redsim_storage::{BlockId, BlockStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster availability state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterState {
    Available,
    /// Source side of an in-flight resize: reads only (§3.1).
    ReadOnly,
    /// Replaced by a resize target; rejects everything.
    Decommissioned,
}

/// How a SELECT is being run: for real, plan-only (`EXPLAIN`), or for
/// real with the annotated plan as the result (`EXPLAIN ANALYZE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SelectMode {
    Execute,
    ExplainOnly,
    ExplainAnalyze,
}

impl SelectMode {
    /// The statement kind, as usage telemetry and errors name it.
    fn name(self) -> &'static str {
        match self {
            SelectMode::Execute => "SELECT",
            SelectMode::ExplainOnly => "EXPLAIN",
            SelectMode::ExplainAnalyze => "EXPLAIN ANALYZE",
        }
    }
}

/// Does any join in the plan carry a non-equi residual predicate? That
/// is this repo's analogue of QMR's `nested_loop_join` condition: the
/// residual is evaluated row-by-row after the hash match.
fn plan_has_residual_join(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => false,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => plan_has_residual_join(input),
        LogicalPlan::Join { left, right, residual, .. } => {
            residual.is_some() || plan_has_residual_join(left) || plan_has_residual_join(right)
        }
    }
}

/// Result of a SELECT (or EXPLAIN).
#[derive(Debug)]
pub struct QueryResult {
    pub columns: Vec<OutCol>,
    pub rows: Vec<Row>,
    pub metrics: ExecMetrics,
    /// EXPLAIN-style plan text.
    pub plan: String,
    /// Did the compiled-plan cache hit?
    pub cache_hit: bool,
    /// Was the whole result served from the leader result cache (no
    /// WLM admission, compile, or execution)?
    pub result_cache_hit: bool,
}

/// Result of a non-SELECT statement.
#[derive(Debug, Clone)]
pub struct ExecSummary {
    pub rows_affected: u64,
    pub message: String,
}

/// The WLM admission books, snapshotted from the cluster's counters by
/// [`Cluster::wlm_accounting`]. Read-only; the workload replay driver
/// and the property suites use it for exactly-once accounting checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WlmAccounting {
    pub admitted: u64,
    pub completed: u64,
    pub aborted: u64,
    pub evicted: u64,
    pub rejected: u64,
    pub hops: u64,
    pub sqa_admits: u64,
    pub queued_admits: u64,
    pub rule_actions: u64,
}

impl WlmAccounting {
    /// `admitted == completed + aborted + evicted` — every admission
    /// reaches exactly one terminal state.
    pub fn balanced(&self) -> bool {
        self.admitted == self.completed + self.aborted + self.evicted
    }
}

/// A running cluster.
pub struct Cluster {
    config: ClusterConfig,
    topology: ClusterTopology,
    s3: Arc<S3Sim>,
    storage: Storage,
    /// Per-node block store handles (encryption-wrapped when enabled).
    node_stores: Vec<Arc<dyn BlockStore>>,
    keys: Option<ClusterKeys>,
    catalog: RwLock<Catalog>,
    /// Monotonic transaction ids (1-based; 0 marks bootstrap versions).
    txn_seq: AtomicU64,
    /// Write-ahead redo log: committed writes are replayable from it
    /// after a crash. See [`redsim_storage::wal`].
    wal: Wal,
    /// Rows loaded per table since its last ANALYZE (maintenance advisor).
    loads_since_analyze: Mutex<FxHashMap<String, u64>>,
    backup: BackupManager,
    plan_cache: PlanCache,
    state: RwLock<ClusterState>,
    /// The leader's *global* transaction serialization point. Only
    /// catalog-shaped statements (DDL, VACUUM, ANALYZE, redistribute,
    /// snapshot, key rotation) queue here; per-table writers (COPY /
    /// INSERT) claim their table's `writer` flag instead and run
    /// concurrently across tables. Taken only by [`CatalogWrite::begin`].
    write_txn: Mutex<()>,
    /// Structural lock over table *storage*. Readers and per-table
    /// writers hold it shared — reads are isolated by MVCC snapshots
    /// ([`TableEntry::snapshot`]), not by excluding writers. Only
    /// operations that rewrite storage in place (DROP, VACUUM,
    /// redistribute) or need a frozen catalog image (checkpoint) take it
    /// exclusively.
    data_lock: RwLock<()>,
    /// Armed by [`Cluster::crash`] (and by tests via
    /// [`Cluster::arm_hard_crash`]): in-flight [`TableWrite`] rollbacks
    /// become no-ops, modeling a process that died mid-statement and
    /// left orphan blocks for recovery to scrub.
    hard_crash: AtomicBool,
    rng: Mutex<Pcg32>,
    /// §5 future work: usage statistics by feature and plan shape.
    usage: UsageStats,
    /// Per-cluster telemetry sink; `stl_*` / `svl_*` system tables are
    /// materialized from it (verbosity via `RSIM_TRACE=0|1|2`).
    trace: Arc<TraceSink>,
    /// Monotonic query ids for `stl_query` (1-based, SELECTs only).
    query_seq: AtomicU64,
    /// Leader-side WLM admission controller (§2.1): every SELECT holds a
    /// service-class concurrency slot for its whole execution.
    wlm: Arc<WlmController>,
    /// Live sessions + connection log (`stv_sessions`,
    /// `stl_connection_log`); the sessionless API registers implicit
    /// sessions here too.
    sessions: SessionManager,
    /// Leader result cache, keyed on (normalized SQL, user group,
    /// catalog version). See `crate::result_cache`.
    result_cache: ResultCache,
    /// Bumped by every *committed* mutating statement; never by a
    /// rollback. Result-cache entries are pinned to the version they
    /// were produced under, so a bump is the invalidation.
    catalog_version: AtomicU64,
}

/// Where a cluster's blocks live.
enum Storage {
    /// Launched or recovered clusters.
    Replicated(Arc<ReplicatedStore>),
    /// Snapshot-restored clusters, for their whole life.
    Restoring(Arc<StreamingRestoreStore>),
}

impl Storage {
    /// Wire the storage into the cluster's trace and retry schedule, and
    /// hand out one block store per node, encryption-wrapped when `keys`
    /// is set. A restore shares one store across its nodes.
    fn node_stores(&self, boot: &Boot, keys: Option<&ClusterKeys>) -> Vec<Arc<dyn BlockStore>> {
        let config = boot.config;
        match self {
            Storage::Replicated(r) => {
                r.set_trace(Arc::clone(boot.trace));
                r.set_retry_policy(boot.retry);
                let node_store = |n| Arc::new(r.node_store(NodeId(n)));
                (0..config.nodes)
                    .map(|n| encrypt_if(node_store(n), keys, config.seed ^ (n as u64 + 1)))
                    .collect()
            }
            Storage::Restoring(r) => {
                let shared = encrypt_if(Arc::clone(r), keys, config.seed);
                (0..config.nodes).map(|_| Arc::clone(&shared)).collect()
            }
        }
    }
}

/// Wrap `store` in block encryption under `keys`, if the cluster has them.
fn encrypt_if<S: BlockStore + 'static>(
    store: Arc<S>,
    keys: Option<&ClusterKeys>,
    nonce_seed: u64,
) -> Arc<dyn BlockStore> {
    match keys {
        Some(k) => {
            Arc::new(EncryptedBlockStore::<S>::new(store, Arc::clone(&k.keyring), nonce_seed))
        }
        None => store,
    }
}

/// An encrypted cluster's key material (§3.2).
#[derive(Clone)]
struct ClusterKeys {
    hsm: Arc<HsmSim>,
    master: KeyId,
    keyring: Arc<ClusterKeyring>,
}

impl ClusterKeys {
    /// Write a snapshot's encryption envelope.
    fn encode_envelope(keys: Option<&ClusterKeys>, w: &mut Writer) {
        let Some(k) = keys else {
            w.put_bool(false);
            return;
        };
        w.put_bool(true);
        w.put_u64(k.master.0);
        w.put_bytes(&k.keyring.wrapped_cluster_key().to_bytes());
        let block_keys = k.keyring.export_block_keys();
        w.put_u32(block_keys.len() as u32);
        for (id, wk) in block_keys {
            w.put_u64(id);
            w.put_raw(&wk.to_bytes());
        }
    }

    /// Read the envelope [`ClusterKeys::encode_envelope`] wrote.
    fn decode_envelope(r: &mut Reader, hsm: Option<Arc<HsmSim>>) -> Result<Option<ClusterKeys>> {
        if !r.get_bool()? {
            return Ok(None);
        }
        let hsm = hsm.ok_or_else(|| {
            RsError::Crypto("encrypted snapshot requires the HSM holding its master key".into())
        })?;
        let master = KeyId(r.get_u64()?);
        let wrapped = WrappedKey::from_bytes(r.get_bytes()?)?;
        let keyring = Arc::new(ClusterKeyring::open(&hsm, master, wrapped)?);
        let n = r.get_u32()? as usize;
        let mut block_keys = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u64()?;
            let wk = WrappedKey::from_bytes(r.get_raw(28)?)?;
            block_keys.push((id, wk));
        }
        keyring.import_block_keys(block_keys);
        Ok(Some(ClusterKeys { hsm, master, keyring }))
    }
}

/// What an entry point's `open` step gets from [`Cluster::assemble`].
struct Boot<'a> {
    config: &'a ClusterConfig,
    topology: &'a ClusterTopology,
    s3: &'a Arc<S3Sim>,
    trace: &'a Arc<TraceSink>,
    /// One retry schedule per cluster: jitter is derived from the
    /// cluster seed so chaos runs replay bit-for-bit.
    retry: RetryPolicy,
}

/// The durable state an entry point opens, creates or recovers.
struct Durable {
    storage: Storage,
    keys: Option<ClusterKeys>,
    catalog: Catalog,
    wal: Wal,
    /// Highest transaction id the log already holds.
    txn_seq: u64,
    loads_since_analyze: FxHashMap<String, u64>,
}

impl Cluster {
    /// Launch a cluster with its own private S3.
    pub fn launch(config: ClusterConfig) -> Result<Arc<Cluster>> {
        Self::launch_with_s3(config, Arc::new(S3Sim::new()))
    }

    /// Launch against a shared S3 (restore drills, DR, resize).
    pub fn launch_with_s3(config: ClusterConfig, s3: Arc<S3Sim>) -> Result<Arc<Cluster>> {
        Self::assemble(config, s3, |boot, rng| {
            let c = boot.config;
            let replicated = ReplicatedStore::new(
                c.nodes,
                c.cohort_size.min(c.nodes.max(1)).max(2.min(c.nodes)),
                Arc::clone(boot.s3),
                c.region.clone(),
                c.name.clone(),
            )?;
            let keys = if c.encryption {
                let hsm = Arc::new(HsmSim::new());
                let master = hsm.create_master(rng);
                let keyring = Arc::new(ClusterKeyring::create(&hsm, master, rng)?);
                Some(ClusterKeys { hsm, master, keyring })
            } else {
                None
            };
            Ok(Durable {
                storage: Storage::Replicated(replicated),
                keys,
                catalog: Catalog::new(),
                wal: Wal::new(Arc::clone(boot.s3.faults())),
                txn_seq: 0,
                loads_since_analyze: FxHashMap::default(),
            })
        })
    }

    /// The one place a `Cluster` is built: `open` supplies the durable
    /// state, and the compute services are built around it here.
    fn assemble(
        config: ClusterConfig,
        s3: Arc<S3Sim>,
        open: impl FnOnce(&Boot, &mut Pcg32) -> Result<Durable>,
    ) -> Result<Arc<Cluster>> {
        let topology = ClusterTopology::new(config.nodes, config.slices_per_node)?;
        let trace = Arc::new(TraceSink::from_env());
        s3.set_trace(Arc::clone(&trace));
        let retry = config.retry.with_seed(config.seed);
        let mut rng = Pcg32::seed_from_u64(config.seed);
        let boot = Boot { config: &config, topology: &topology, s3: &s3, trace: &trace, retry };
        let durable = open(&boot, &mut rng)?;
        let node_stores = durable.storage.node_stores(&boot, durable.keys.as_ref());
        let backup = BackupManager::new(
            Arc::clone(&s3),
            config.region.clone(),
            config.name.clone(),
            config.dr_region.clone(),
            config.system_snapshot_retention,
        )
        .with_retry(retry);
        Ok(Arc::new(Cluster {
            topology,
            storage: durable.storage,
            node_stores,
            keys: durable.keys,
            catalog: RwLock::new(durable.catalog),
            txn_seq: AtomicU64::new(durable.txn_seq),
            wal: durable.wal,
            loads_since_analyze: Mutex::new(durable.loads_since_analyze),
            backup,
            plan_cache: PlanCache::with_policy(
                config.plan_cache_capacity,
                config.compile_work_per_node,
                config.plan_cache_eviction,
            ),
            state: RwLock::new(ClusterState::Available),
            write_txn: Mutex::new(()),
            data_lock: RwLock::new(()),
            hard_crash: AtomicBool::new(false),
            rng: Mutex::new(rng),
            usage: UsageStats::default(),
            query_seq: AtomicU64::new(0),
            wlm: Arc::new(WlmController::new(&config.wlm, Arc::clone(&trace))),
            sessions: SessionManager::new(Arc::clone(&trace)),
            result_cache: ResultCache::new(
                config.result_cache_capacity,
                config.result_cache_max_rows,
            ),
            catalog_version: AtomicU64::new(0),
            trace,
            s3,
            config,
        }))
    }

    /// The cluster's telemetry sink (spans, counters, gauges; exportable
    /// as text/JSON). System tables are views over this.
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    pub fn s3(&self) -> &Arc<S3Sim> {
        &self.s3
    }

    /// The failpoint registry shared by everything riding on this
    /// cluster's S3 (mirroring, backup, restore, the COPY loader).
    /// Configure it programmatically or via `RSIM_FAILPOINTS`.
    pub fn faults(&self) -> &Arc<redsim_faultkit::FaultRegistry> {
        self.s3.faults()
    }

    /// The catalog's cheap running row count for `table` (`None` for an
    /// unknown table). Maintained by COPY/INSERT, rewritten by ANALYZE,
    /// and rolled back with the rest of the slice state when a write
    /// statement aborts — exactness tests key on it. Reads the last
    /// *committed* table version, so an in-flight writer's uncommitted
    /// progress is never visible here.
    pub fn rows_estimate(&self, table: &str) -> Option<u64> {
        self.catalog.read().get(table).map(|e| e.snapshot().rows_estimate)
    }

    /// Rows loaded into `table` since its last ANALYZE (drives the
    /// auto-analyze maintenance trigger; `0` for unknown tables).
    pub fn loads_since_analyze(&self, table: &str) -> u64 {
        self.loads_since_analyze.lock().get(&table.to_ascii_lowercase()).copied().unwrap_or(0)
    }

    pub fn state(&self) -> ClusterState {
        *self.state.read()
    }

    pub fn replicated_store(&self) -> Option<&Arc<ReplicatedStore>> {
        match &self.storage {
            Storage::Replicated(r) => Some(r),
            Storage::Restoring(_) => None,
        }
    }

    /// A restored cluster reads through its restore store for life, even
    /// once fully hydrated, so it cannot take snapshots or crash images.
    fn require_replicated(&self) -> Result<&Arc<ReplicatedStore>> {
        self.replicated_store().ok_or_else(|| {
            RsError::InvalidState(
                "snapshots and crash images are not supported on a restored cluster".into(),
            )
        })
    }

    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plan_cache.stats()
    }

    pub fn hsm(&self) -> Option<&Arc<HsmSim>> {
        self.keys.as_ref().map(|k| &k.hsm)
    }

    /// Stage an object into this cluster's S3 (test/demo data for COPY).
    pub fn put_s3_object(&self, key: &str, bytes: Vec<u8>) {
        self.s3.put(&self.config.region, key, bytes);
    }

    /// Stage an LZSS-compressed object (`COPY … LZSS` ingests it).
    pub fn put_s3_object_compressed(&self, key: &str, bytes: &[u8]) {
        self.s3.put(&self.config.region, key, redsim_storage::lzss::compress(bytes));
    }

    /// Stage a client-side-encrypted object; returns the hex key to pass
    /// as `COPY … ENCRYPTED '<hex>'`.
    pub fn put_s3_object_encrypted(&self, key: &str, bytes: &[u8]) -> String {
        let mut rng = self.rng.lock();
        let k = redsim_crypto::Key::generate(&mut *rng);
        let enc = redsim_crypto::encrypt_payload(&k, bytes, &mut *rng);
        self.s3.put(&self.config.region, key, enc.serialize());
        key_to_hex(&k)
    }

    fn store_for_slice(&self, slice: usize) -> &Arc<dyn BlockStore> {
        let node = self.topology.node_of(redsim_distribution::SliceId(slice as u32));
        &self.node_stores[node.0 as usize]
    }

    fn check_writable(&self) -> Result<()> {
        match self.state() {
            ClusterState::Available => Ok(()),
            ClusterState::ReadOnly => Err(RsError::InvalidState(
                "cluster is read-only while a resize is in flight".into(),
            )),
            ClusterState::Decommissioned => {
                Err(RsError::InvalidState("cluster has been decommissioned".into()))
            }
        }
    }

    fn check_readable(&self) -> Result<()> {
        if self.state() == ClusterState::Decommissioned {
            return Err(RsError::InvalidState("cluster has been decommissioned".into()));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // SQL endpoint
    // ------------------------------------------------------------------

    /// Open a session: the front door's unit of connection. The session
    /// carries the authenticated user, the user group WLM routes by, and
    /// per-session settings; it disconnects on drop. Statements on one
    /// session are serialized; open more sessions for concurrency.
    pub fn connect(self: &Arc<Self>, opts: SessionOpts) -> Result<Session> {
        self.check_readable()?;
        Ok(Session::open(Arc::clone(self), opts))
    }

    /// The live-session registry (`stv_sessions` / `stl_connection_log`
    /// materialize from it).
    pub fn session_manager(&self) -> &SessionManager {
        &self.sessions
    }

    /// Current catalog version: bumped by every *committed* mutating
    /// statement, never by a rollback. The result cache keys on it.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version.load(std::sync::atomic::Ordering::Acquire)
    }

    fn bump_catalog_version(&self) {
        self.catalog_version.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    /// `(hits, misses)` of the leader result cache since launch.
    pub fn result_cache_stats(&self) -> (u64, u64) {
        self.result_cache.stats()
    }

    /// Execute any statement; returns a row-count summary.
    pub fn execute(&self, sql: &str) -> Result<ExecSummary> {
        self.execute_with_ctx(sql, &SessionCtx::unregistered())
    }

    pub(crate) fn execute_with_ctx(&self, sql: &str, ctx: &SessionCtx) -> Result<ExecSummary> {
        let result = self.execute_inner(sql, ctx);
        if let Err(e) = &result {
            self.usage.record_error(e.code());
        }
        result
    }

    fn execute_inner(&self, sql: &str, ctx: &SessionCtx) -> Result<ExecSummary> {
        let (stmt, parse_ns) = timed_parse(sql)?;
        match stmt {
            Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_) => {
                self.check_readable()?;
                let r = self.run_select(sql, stmt, parse_ns, ctx)?;
                Ok(ExecSummary {
                    rows_affected: r.rows.len() as u64,
                    message: format!("SELECT {}", r.rows.len()),
                })
            }
            Statement::CreateTable(ct) => {
                self.usage.record_feature("CREATE TABLE");
                self.run_create_table(ct)
            }
            Statement::DropTable { name, if_exists } => {
                self.usage.record_feature("DROP TABLE");
                self.run_drop_table(&name, if_exists)
            }
            Statement::Insert(ins) => {
                self.usage.record_feature("INSERT");
                self.run_insert(ins)
            }
            Statement::Copy(c) => {
                self.usage.record_feature("COPY");
                self.run_copy(c, ctx)
            }
            Statement::Vacuum { table } => {
                self.usage.record_feature("VACUUM");
                self.run_vacuum(table.as_deref())
            }
            Statement::Analyze { table } => {
                self.usage.record_feature("ANALYZE");
                self.run_analyze(table.as_deref())
            }
        }
    }

    /// Run a SELECT (or EXPLAIN) and return rows, through an implicit
    /// single-statement session (so `stv_sessions`, the `sessions.active`
    /// gauge, WLM routing, and `stl_query`'s session columns behave exactly
    /// as for a real session) with the result cache off (callers assert on
    /// cold-execution telemetry).
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let shared = self.sessions.register("default", None, true);
        let ctx = SessionCtx {
            session_id: shared.id(),
            userid: shared.userid(),
            ..SessionCtx::unregistered()
        };
        let r = self.query_with_ctx(sql, &ctx);
        self.sessions.unregister(&shared);
        r
    }

    pub(crate) fn query_with_ctx(&self, sql: &str, ctx: &SessionCtx) -> Result<QueryResult> {
        self.check_readable()?;
        let (stmt, parse_ns) = timed_parse(sql)?;
        self.run_select(sql, stmt, parse_ns, ctx)
    }

    /// The WLM admission controller (drain control, live queue state).
    pub fn wlm(&self) -> &Arc<WlmController> {
        &self.wlm
    }

    /// Point-in-time snapshot of the WLM admission books, read from the
    /// cluster's own counters. The invariant every quiesced cluster
    /// upholds — and the workload replay harness asserts — is
    /// `admitted == completed + aborted + evicted`: each admission ends
    /// in exactly one terminal state (rejections never admit).
    pub fn wlm_accounting(&self) -> WlmAccounting {
        let c = |name| self.trace.counter_value(name);
        WlmAccounting {
            admitted: c("wlm.admitted"),
            completed: c("wlm.completed"),
            aborted: c("wlm.aborted"),
            evicted: c("wlm.evicted"),
            rejected: c("wlm.rejected"),
            hops: c("wlm.hops"),
            sqa_admits: c("wlm.sqa_admits"),
            queued_admits: c("wlm.queued_admits"),
            rule_actions: c("wlm.rule_actions"),
        }
    }

    /// Estimated cost for WLM routing: total logical rows across the
    /// referenced tables, scaled by the table count (joins are
    /// superlinear). Deliberately cheap — a short catalog read before
    /// admission, no planning.
    fn estimate_cost(&self, refs: &[&str]) -> u64 {
        let catalog = self.catalog.read();
        let total: u64 =
            refs.iter().filter_map(|t| catalog.get(t)).map(|e| e.logical_rows()).sum();
        total.saturating_mul(refs.len().max(1) as u64)
    }

    /// Run a parsed SELECT, EXPLAIN or EXPLAIN ANALYZE, one call per stage
    /// (DESIGN.md §17).
    fn run_select(
        &self,
        sql: &str,
        stmt: Statement,
        parse_ns: u64,
        ctx: &SessionCtx,
    ) -> Result<QueryResult> {
        let (stmt, mode) = match stmt {
            Statement::Explain(inner) => (*inner, SelectMode::ExplainOnly),
            Statement::ExplainAnalyze(inner) => (*inner, SelectMode::ExplainAnalyze),
            stmt => (stmt, SelectMode::Execute),
        };
        let sel = match stmt {
            Statement::Select(sel) => sel,
            _ if mode == SelectMode::Execute => {
                return Err(RsError::Analysis("not a query; use execute()".into()))
            }
            _ => return Err(RsError::Unsupported(format!("{} supports SELECT only", mode.name()))),
        };
        let refs = sel.referenced_tables();
        if reads_system_tables(&refs)? {
            return self.run_system_select(&sel, &refs, mode);
        }
        // EXPLAIN (both flavors) and system-table reads never take part in
        // the result cache; a session can opt out, and `query` always does.
        let cacheable = mode == SelectMode::Execute && ctx.use_result_cache;
        if cacheable {
            if let Some(hit) = self.probe_result_cache(sql, ctx) {
                return Ok(hit);
            }
        }
        let mut run = SelectRun::admit(self, sql, ctx, mode, &refs, parse_ns)?;
        let snap = self.read_snapshot(&refs);
        let (plan, plan_text) = run.plan(&snap, &sel)?;
        if mode == SelectMode::ExplainOnly {
            return Ok(explain_result(plan_text, None, ExecMetrics::default(), false));
        }
        let (compiled, cache_hit, compile_ns) = run.compile(plan);
        let mut out = run.execute(&snap, &compiled.plan)?;
        out.metrics.queue_wait_ns = run.queue_wait_ns();
        out.metrics.compile_ns = compile_ns;
        // Query ids go to logged (executed) queries only, shared between
        // the `stl_query` row and its `svl_query_report` step rows.
        let qid = run.next_query_id();
        run.monitor(qid, &out.metrics, &compiled.plan)?;
        if mode == SelectMode::ExplainAnalyze {
            let actuals = step_actuals(&out.profile, compiled.plan.num_steps());
            return Ok(explain_result(plan_text, Some(&actuals), out.metrics, cache_hit));
        }
        run.record_executed(qid, &out, cache_hit, cacheable, &plan_text);
        if cacheable {
            // Keyed on the version captured *before* the table snapshots.
            // A writer may have committed (and bumped the version) while
            // we executed; the entry is then at worst unreachable (probes
            // use the newer version), never stale for its key.
            let entry = CachedResult {
                columns: out.columns.clone(),
                rows: out.rows.clone(),
                plan: plan_text.clone(),
            };
            self.result_cache.put(sql, ctx.user_group.as_deref(), snap.catalog_version, entry);
        }
        Ok(QueryResult {
            columns: out.columns,
            rows: out.rows,
            metrics: out.metrics,
            plan: plan_text,
            cache_hit,
            result_cache_hit: false,
        })
    }

    /// Stage 2: probed before WLM admission, planning, or any data lock —
    /// a hit costs one hash lookup, plus an `stl_query` row so dashboards
    /// still see their queries. The absence of `query.compile` /
    /// `query.exec` children under that span is how tests verify the skip.
    fn probe_result_cache(&self, sql: &str, ctx: &SessionCtx) -> Option<QueryResult> {
        let group = ctx.user_group.as_deref();
        let Some(hit) = self.result_cache.get(sql, group, self.catalog_version()) else {
            self.trace.counter("result_cache.misses").incr();
            return None;
        };
        self.trace.counter("result_cache.hits").incr();
        let qspan = self.trace.span(LVL_CORE, "query");
        let mut run =
            SelectRun { cluster: self, sql, ctx, mode: SelectMode::Execute, qspan, wlm: None };
        let qid = run.next_query_id();
        run.record(qid, hit.rows.len(), |_, _| {}, Some(("hit", &hit.plan)));
        drop(run);
        self.usage.record_feature("SELECT");
        Some(QueryResult {
            columns: hit.columns.clone(),
            rows: hit.rows.clone(),
            metrics: ExecMetrics::default(),
            plan: hit.plan.clone(),
            cache_hit: false,
            result_cache_hit: true,
        })
    }

    /// MVCC read point: the catalog version *before* the table snapshots,
    /// then each referenced table's committed version. Writers commit
    /// concurrently (they hold the data lock shared); this statement keeps
    /// scanning the versions captured here.
    fn read_snapshot(&self, refs: &[&str]) -> ReadSnapshot<'_> {
        let storage = self.data_lock.read();
        let catalog = self.catalog.read();
        let catalog_version = self.catalog_version();
        // Unknown names are skipped — binding reports them as missing.
        let tables = refs
            .iter()
            .filter_map(|t| catalog.get(t).map(|e| (t.to_ascii_lowercase(), e.snapshot())))
            .collect();
        ReadSnapshot { cluster: self, _storage: storage, catalog, catalog_version, tables }
    }

    /// Leader-local execution over the virtual system tables: one slice,
    /// no plan cache, no self-recording in `stl_query`.
    fn run_system_select(
        &self,
        sel: &ast::Select,
        refs: &[&str],
        mode: SelectMode,
    ) -> Result<QueryResult> {
        let sys = SystemTables::capture(
            &self.trace,
            Some(&self.wlm),
            Some(self.s3.faults()),
            Some(&self.sessions),
            refs,
        );
        let plan = plan_select(&sys, sel)?;
        let plan_text = plan.explain();
        self.usage.record_feature("SYSTEM TABLE");
        if mode == SelectMode::ExplainOnly {
            return Ok(explain_result(plan_text, None, ExecMetrics::default(), false));
        }
        let out = Executor::new(&sys).run(&plan)?;
        Ok(QueryResult {
            columns: out.columns,
            rows: out.rows,
            metrics: out.metrics,
            plan: plan_text,
            cache_hit: false,
            result_cache_hit: false,
        })
    }

    /// Run a SELECT through the row-at-a-time interpreter (the
    /// non-compiled path; experiment E7's comparator).
    pub fn query_interpreted(&self, sql: &str) -> Result<Vec<Row>> {
        self.check_readable()?;
        let sel = match redsim_sql::parse(sql)? {
            Statement::Select(s) => s,
            _ => return Err(RsError::Analysis("not a SELECT".into())),
        };
        let snap = self.read_snapshot(&sel.referenced_tables());
        let plan = plan_select(&snap.planner_catalog(), &sel)?;
        baseline::run_plan(&plan, &snap)
    }

    // ------------------------------------------------------------------
    // DDL / DML
    // ------------------------------------------------------------------

    fn run_create_table(&self, ct: ast::CreateTable) -> Result<ExecSummary> {
        self.check_writable()?;
        let mut w = CatalogWrite::begin(self);
        let schema = Schema::new(
            ct.columns
                .iter()
                .map(|c| {
                    let mut d = redsim_common::ColumnDef::new(c.name.clone(), c.data_type);
                    if c.not_null {
                        d = d.not_null();
                    }
                    d
                })
                .collect(),
        )?;
        let dist_style = match &ct.dist_style {
            ast::DistStyleSpec::Auto | ast::DistStyleSpec::Even => DistStyle::Even,
            ast::DistStyleSpec::All => DistStyle::All,
            ast::DistStyleSpec::Key(col) => DistStyle::Key(
                schema
                    .index_of(col)
                    .ok_or_else(|| RsError::Analysis(format!("DISTKEY column {col:?} unknown")))?,
            ),
        };
        let resolve = |cols: &[String]| -> Result<Vec<usize>> {
            cols.iter()
                .map(|c| {
                    schema
                        .index_of(c)
                        .ok_or_else(|| RsError::Analysis(format!("SORTKEY column {c:?} unknown")))
                })
                .collect()
        };
        let sort_key = match &ct.sort_key {
            ast::SortKeyAst::None => SortKeySpec::None,
            ast::SortKeyAst::Compound(cols) => SortKeySpec::Compound(resolve(cols)?),
            ast::SortKeyAst::Interleaved(cols) => SortKeySpec::Interleaved(resolve(cols)?),
        };
        let entry = TableEntry::new(
            ct.name.clone(),
            schema,
            dist_style,
            sort_key,
            &self.topology,
            self.config.rows_per_group,
        )?;
        let name = entry.name.clone();
        self.catalog.write().create(entry)?;
        w.on_undo(move || {
            let _ = self.catalog.write().drop_table(&name);
        });
        w.commit(&[], Plans::Invalidate, Vec::new())?;
        Ok(ExecSummary { rows_affected: 0, message: format!("CREATE TABLE {}", ct.name) })
    }

    fn run_drop_table(&self, name: &str, if_exists: bool) -> Result<ExecSummary> {
        self.check_writable()?;
        let mut w = CatalogWrite::begin(self);
        let entry = match self.catalog.write().drop_table(name) {
            Ok(e) => e,
            Err(_) if if_exists => {
                return Ok(ExecSummary { rows_affected: 0, message: "DROP TABLE (skipped)".into() })
            }
            Err(e) => return Err(e),
        };
        let blocks = entry.block_ids();
        w.on_undo(move || {
            let _ = self.catalog.write().create(entry);
        });
        w.commit(&[], Plans::Invalidate, blocks)?;
        Ok(ExecSummary { rows_affected: 0, message: format!("DROP TABLE {name}") })
    }

    fn run_insert(&self, ins: ast::Insert) -> Result<ExecSummary> {
        self.check_writable()?;
        let w = TableWrite::begin(self, &ins.table)?;
        let entry = &w.entry;
        // Map the column list (or full schema order).
        let target_cols: Vec<usize> = match &ins.columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    entry
                        .schema
                        .index_of(c)
                        .ok_or_else(|| RsError::Analysis(format!("unknown column {c:?}")))
                })
                .collect::<Result<_>>()?,
            None => (0..entry.schema.len()).collect(),
        };
        let view =
            PlannerCatalog { catalog: &w.catalog, total_slices: self.topology.total_slices() };
        let binder = Binder::new(&view);
        let mut batch: Vec<ColumnData> =
            entry.schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
        let n_rows = ins.rows.len() as u64;
        for row in &ins.rows {
            if row.len() != target_cols.len() {
                return Err(RsError::Analysis("VALUES arity mismatch".into()));
            }
            let mut full: Vec<Value> = vec![Value::Null; entry.schema.len()];
            for (expr, &ci) in row.iter().zip(&target_cols) {
                let bound = binder.bind_standalone(expr)?;
                let v = redsim_engine::interp::eval_row(&bound, &[])?;
                full[ci] = v.coerce_to(entry.schema.column(ci).data_type)?;
            }
            for (ci, v) in full.iter().enumerate() {
                if v.is_null() && !entry.schema.column(ci).nullable {
                    return Err(RsError::Analysis(format!(
                        "NULL in NOT NULL column {:?}",
                        entry.schema.column(ci).name
                    )));
                }
                batch[ci].push_value(v)?;
            }
        }
        self.append_distributed(entry, batch, true)?;
        *entry.rows_estimate.write() += n_rows;
        w.commit()?;
        Ok(ExecSummary { rows_affected: n_rows, message: format!("INSERT 0 {n_rows}") })
    }

    /// Append `entry`'s [`TableExtras`] to a redo record.
    fn encode_table_extras(&self, entry: &TableEntry, w: &mut Writer) {
        w.put_u32(entry.router.lock().cursor());
        match entry.stats.read().as_ref() {
            Some(s) => {
                w.put_bool(true);
                s.encode(w);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.loads_since_analyze(&entry.name));
    }

    /// Route a batch by the table's distribution style and append to the
    /// slice tables (optionally flushing buffered rows — INSERT flushes;
    /// COPY flushes once at the end).
    fn append_distributed(
        &self,
        entry: &TableEntry,
        batch: Vec<ColumnData>,
        flush: bool,
    ) -> Result<()> {
        let per_slice = entry.router.lock().route(&batch)?;
        // Per-slice appends are independent; run them on worker threads
        // ("COPY is parallelized across slices", §2.1).
        let results: Vec<Result<()>> =
            par::map(per_slice.into_iter().enumerate().collect(), |(slice, cols)| {
                let store = self.store_for_slice(slice);
                let mut t = entry.slices[slice].lock();
                t.append(&cols, store.as_ref())?;
                if flush {
                    t.flush(store.as_ref())?;
                }
                Ok(())
            });
        for r in results {
            r?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // COPY
    // ------------------------------------------------------------------

    /// Run a COPY, one call per stage (DESIGN.md §17). All-or-nothing
    /// ("data loads are transactional", §2.1): any error before the
    /// commit drops the [`TableWrite`], which rolls every touched slice,
    /// the router cursor and the catalog counters back and deletes the
    /// statement's blocks from every replica.
    fn run_copy(&self, c: ast::Copy, ctx: &SessionCtx) -> Result<ExecSummary> {
        self.check_writable()?;
        let (mut run, keys) = CopyRun::begin(self, &c, ctx)?;
        let parsed = run.fetch(keys)?;
        run.append(parsed)?;
        run.seal()?;
        run.account()?;
        run.commit()
    }

    // ------------------------------------------------------------------
    // VACUUM / ANALYZE
    // ------------------------------------------------------------------

    fn run_vacuum(&self, table: Option<&str>) -> Result<ExecSummary> {
        self.check_writable()?;
        let w = CatalogWrite::begin(self);
        let targets = self.catalog.read().targets(table)?;
        // The rewrite installs new blocks but keeps the old ones until
        // the commit's checkpoint is durable (deferred deletion).
        let mut old_blocks = Vec::new();
        let mut rewritten = 0u64;
        for entry in &targets {
            let results: Vec<Result<(u64, Vec<redsim_storage::BlockId>)>> =
                par::map_indexed(entry.slices.len(), |slice| {
                    entry.slices[slice].lock().vacuum_deferred(self.store_for_slice(slice).as_ref())
                });
            for r in results {
                let (rows, blocks) = r?;
                rewritten += rows;
                old_blocks.extend(blocks);
            }
        }
        // VACUUM re-sorts without changing visible rows, but the blocks
        // behind a cached plan's zone maps did change; conservatively
        // treat every committed mutating statement the same way.
        w.commit(&targets, Plans::Keep, old_blocks)?;
        Ok(ExecSummary { rows_affected: rewritten, message: format!("VACUUM {rewritten}") })
    }

    fn run_analyze(&self, table: Option<&str>) -> Result<ExecSummary> {
        self.check_readable()?;
        // A catalog write, so the refreshed stats and the checkpoint that
        // makes them durable are a consistent image. (A COPY's STATUPDATE
        // analyze instead rides the COPY's own table write and delta.)
        let mut w = CatalogWrite::begin(self);
        let targets = self.catalog.read().targets(table)?;
        let mut saved: Vec<_> =
            targets.iter().map(|e| (Arc::clone(e), TableImage::capture(self, e))).collect();
        w.on_undo(move || saved.iter_mut().for_each(|(e, image)| image.restore(self, e)));
        for entry in &targets {
            self.analyze_entry(entry)?;
        }
        w.commit(&targets, Plans::Keep, Vec::new())?;
        let analyzed = targets.len() as u64;
        Ok(ExecSummary { rows_affected: analyzed, message: format!("ANALYZE {analyzed} tables") })
    }

    fn analyze_entry(&self, entry: &TableEntry) -> Result<()> {
        // ALL-distributed tables: stats from one slice (each holds a copy).
        let n = if matches!(entry.dist_style, DistStyle::All) { 1 } else { entry.slices.len() };
        let builders: Vec<Result<redsim_storage::stats::StatsBuilder>> =
            par::map_indexed(n, |slice| {
                entry.slices[slice].lock().analyze(self.store_for_slice(slice).as_ref())
            });
        let mut merged: Option<redsim_storage::stats::StatsBuilder> = None;
        for b in builders {
            let b = b?;
            match &mut merged {
                None => merged = Some(b),
                Some(m) => m.merge(&b),
            }
        }
        if let Some(m) = merged {
            let stats = m.finish();
            *entry.rows_estimate.write() = stats.rows;
            *entry.stats.write() = Some(stats);
        }
        self.loads_since_analyze.lock().remove(&entry.name.to_ascii_lowercase());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Snapshots / restore
    // ------------------------------------------------------------------

    /// Take a snapshot (system snapshots age out; user snapshots persist).
    pub fn create_snapshot(&self, id: &str, kind: SnapshotKind) -> Result<SnapshotInfo> {
        self.check_readable()?;
        let replicated = self.require_replicated()?;
        // A catalog write waits out in-flight table writers, so the
        // manifest only ever references committed blocks.
        let _w = CatalogWrite::begin(self);
        let mut span = self.trace.span(LVL_PHASE, "snapshot");
        let catalog = self.catalog.read();
        let blocks: Vec<_> = catalog.tables().flat_map(|t| t.block_ids()).collect();
        if span.is_recording() {
            span.attr("id", id);
            span.attr("blocks", blocks.len());
        }
        let mut w = Writer::new();
        // Encryption envelope first, then the catalog.
        ClusterKeys::encode_envelope(self.keys.as_ref(), &mut w);
        catalog.encode(&mut w);
        self.backup.take_snapshot(id, kind, replicated, blocks, &w.into_bytes())
    }

    /// Restore a snapshot into a new cluster. The returned cluster is
    /// queryable immediately (streaming restore); use
    /// [`Cluster::hydrate_step`] / [`Cluster::hydration_progress`] to
    /// drive and observe the background download.
    ///
    /// `region` picks which copy to restore from — pass the DR region for
    /// a disaster drill. `hsm` must be the HSM holding the master key for
    /// encrypted snapshots.
    pub fn restore_from_snapshot(
        config: ClusterConfig,
        s3: Arc<S3Sim>,
        region: &str,
        bucket: &str,
        snapshot_id: &str,
        hsm: Option<Arc<HsmSim>>,
    ) -> Result<Arc<Cluster>> {
        Self::assemble(config, s3, |boot, _| {
            let mut rspan = boot.trace.span(LVL_PHASE, "restore.open");
            let mgr = BackupManager::new(Arc::clone(boot.s3), region, bucket, None, 4)
                .with_retry(boot.retry);
            let (_kind, metadata, blocks) = mgr.load_manifest(region, snapshot_id)?;
            if rspan.is_recording() {
                rspan.attr("snapshot", snapshot_id);
                rspan.attr("blocks", blocks.len());
            }
            let mut r = Reader::new(&metadata);
            let keys = ClusterKeys::decode_envelope(&mut r, hsm)?;
            let catalog = Catalog::decode(&mut r, boot.topology)?;
            let restoring =
                StreamingRestoreStore::open(Arc::clone(boot.s3), region, bucket, blocks)
                    .with_trace(Arc::clone(boot.trace))
                    .with_retry(boot.retry);
            rspan.finish(); // open for SQL: metadata + catalog only (§2.2)
            Ok(Durable {
                storage: Storage::Restoring(Arc::new(restoring)),
                keys,
                catalog,
                wal: Wal::new(Arc::clone(boot.s3.faults())),
                txn_seq: 0,
                loads_since_analyze: FxHashMap::default(),
            })
        })
    }

    /// Drive background hydration (restored clusters). Returns blocks
    /// fetched; 0 = complete.
    pub fn hydrate_step(&self, k: usize) -> Result<usize> {
        self.restoring().map_or(Ok(0), |r| r.hydrate_step(k))
    }

    /// Fraction of a restore's blocks present locally (1.0 = done, and
    /// for normally-launched clusters).
    pub fn hydration_progress(&self) -> f64 {
        self.restoring().map_or(1.0, |r| r.hydration_progress())
    }

    /// Page faults served during/after restore.
    pub fn restore_page_faults(&self) -> u64 {
        self.restoring().map_or(0, |r| r.page_fault_count())
    }

    fn restoring(&self) -> Option<&StreamingRestoreStore> {
        match &self.storage {
            Storage::Restoring(r) => Some(r),
            Storage::Replicated(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // Resize
    // ------------------------------------------------------------------

    /// Elastic resize (§3.1): provision a target cluster, put this one in
    /// read-only mode, run a parallel copy, then decommission the source.
    /// Returns the target; the source answers reads until the copy
    /// completes (then rejects everything).
    pub fn resize(&self, new_nodes: u32, new_slices_per_node: u32) -> Result<Arc<Cluster>> {
        self.check_writable()?;
        // Drain WLM first: stop admitting, evict queued queries with a
        // retryable error, and let in-flight queries finish before the
        // topology changes underneath them.
        self.wlm.begin_drain();
        self.wlm.wait_idle(std::time::Duration::from_secs(30));
        {
            let mut st = self.state.write();
            *st = ClusterState::ReadOnly;
        }
        let result = self.resize_inner(new_nodes, new_slices_per_node);
        match &result {
            Ok(_) => *self.state.write() = ClusterState::Decommissioned,
            Err(_) => {
                // Roll back: the source keeps serving, so WLM must
                // accept queries again.
                *self.state.write() = ClusterState::Available;
                self.wlm.reopen();
            }
        }
        result
    }

    /// Graceful shutdown: drain WLM (reject new queries, evict waiters,
    /// wait for in-flight queries to finish), then decommission. Used by
    /// DR failover drills before promoting the standby.
    pub fn shutdown(&self) {
        self.wlm.begin_drain();
        self.wlm.wait_idle(std::time::Duration::from_secs(30));
        *self.state.write() = ClusterState::Decommissioned;
    }

    fn resize_inner(&self, new_nodes: u32, new_slices_per_node: u32) -> Result<Arc<Cluster>> {
        let mut cfg = self.config.clone();
        cfg.name = format!("{}-resized", self.config.name);
        cfg.nodes = new_nodes;
        cfg.slices_per_node = new_slices_per_node;
        cfg.seed = self.config.seed.wrapping_add(1);
        let target = Cluster::launch_with_s3(cfg, Arc::clone(&self.s3))?;
        let catalog = self.catalog.read();
        for entry in catalog.tables() {
            let new_entry = self.rebuild_table(entry, &target, entry.dist_style.clone())?;
            target.catalog.write().create(Arc::clone(&new_entry))?;
            // Make the copied data visible to the target's MVCC readers.
            new_entry.publish(0);
        }
        // Seed the target's redo log so a crash right after cutover
        // recovers the migrated data rather than an empty catalog.
        target.checkpoint_now();
        Ok(target)
    }

    /// Copy `entry` into a new, uninstalled table on `target` (which may
    /// be this cluster): every source slice streams its batches and the
    /// router redistributes them. ALL tables copy from one slice (the
    /// target re-duplicates).
    fn rebuild_table(
        &self,
        entry: &TableEntry,
        target: &Cluster,
        dist: DistStyle,
    ) -> Result<Arc<TableEntry>> {
        let new_entry = TableEntry::new(
            entry.name.clone(),
            entry.schema.clone(),
            dist,
            entry.sort_key.clone(),
            &target.topology,
            target.config.rows_per_group,
        )?;
        let replicated = matches!(entry.dist_style, DistStyle::All);
        let src_slices = if replicated { 1 } else { entry.slices.len() };
        let all_cols: Vec<usize> = (0..entry.schema.len()).collect();
        let scans: Vec<Result<ScanOutput>> = par::map_indexed(src_slices, |slice| {
            entry.slices[slice].lock().scan(self.store_for_slice(slice).as_ref(), &all_cols, None)
        });
        for scan in scans.into_iter().collect::<Result<Vec<_>>>()? {
            for batch in scan.batches {
                target.append_distributed(&new_entry, batch, false)?;
            }
        }
        let flushes: Vec<Result<()>> = par::map_indexed(new_entry.slices.len(), |slice| {
            new_entry.slices[slice].lock().flush(target.store_for_slice(slice).as_ref())
        });
        flushes.into_iter().collect::<Result<()>>()?;
        *new_entry.rows_estimate.write() = *entry.rows_estimate.read();
        *new_entry.stats.write() = entry.stats.read().clone();
        Ok(new_entry)
    }

    // ------------------------------------------------------------------
    // Autonomics (the paper's §3.2/§4/§5 "future work", implemented)
    // ------------------------------------------------------------------

    /// Usage telemetry collected by the leader (§5 future work).
    pub fn usage_stats(&self) -> &UsageStats {
        &self.usage
    }

    /// Self-maintenance pass (§3.2 future work): inspect every table and
    /// VACUUM/ANALYZE the ones whose telemetry crosses the policy's
    /// thresholds. Returns the actions taken. Intended to be called "when
    /// load is otherwise light" — e.g. from a host-manager idle hook.
    pub fn maintenance_tick(&self, policy: &MaintenancePolicy) -> Result<Vec<MaintenanceAction>> {
        self.check_writable()?;
        let mut actions = Vec::new();
        let candidates: Vec<(String, bool, bool)> = {
            let catalog = self.catalog.read();
            catalog
                .tables()
                .map(|t| {
                    let total: u64 = t.slices.iter().map(|s| s.lock().row_count()).sum();
                    let unsorted: u64 =
                        t.slices.iter().map(|s| s.lock().unsorted_rows()).sum();
                    let needs_vacuum = total > 0
                        && !matches!(t.sort_key, SortKeySpec::None)
                        && (unsorted as f64 / total as f64) > policy.vacuum_unsorted_fraction;
                    let analyzed_rows =
                        t.stats.read().as_ref().map(|s| s.rows).unwrap_or(0);
                    let fresh_loads = self.loads_since_analyze(&t.name);
                    let needs_analyze = fresh_loads > 0
                        && (analyzed_rows == 0
                            || (fresh_loads as f64 / analyzed_rows as f64)
                                > policy.analyze_staleness_fraction);
                    (t.name.clone(), needs_vacuum, needs_analyze)
                })
                .collect()
        };
        for (name, needs_vacuum, needs_analyze) in candidates {
            if needs_vacuum {
                self.run_vacuum(Some(&name))?;
                self.usage.record_feature("AUTO VACUUM");
                actions.push(MaintenanceAction::Vacuum { table: name.clone() });
            }
            if needs_analyze {
                self.run_analyze(Some(&name))?;
                self.usage.record_feature("AUTO ANALYZE");
                actions.push(MaintenanceAction::Analyze { table: name });
            }
        }
        // EVEN → ALL for small, stable dimension tables: joins against a
        // replicated copy are DS_DIST_ALL_NONE (no interconnect traffic).
        if let Some(max_rows) = policy.auto_all_max_rows {
            let small_even: Vec<String> = {
                let catalog = self.catalog.read();
                catalog
                    .tables()
                    .filter(|t| {
                        matches!(t.dist_style, DistStyle::Even)
                            && t.stats.read().is_some() // only analyzed (stable) tables
                            && t.logical_rows() > 0
                            && t.logical_rows() <= max_rows
                    })
                    .map(|t| t.name.clone())
                    .collect()
            };
            for name in small_even {
                self.redistribute_all(&name)?;
                self.usage.record_feature("AUTO DISTSTYLE ALL");
                actions.push(MaintenanceAction::RedistributeAll { table: name });
            }
        }
        Ok(actions)
    }

    /// Convert a table to DISTSTYLE ALL in place (used by the maintenance
    /// advisor; also callable directly).
    pub fn redistribute_all(&self, table: &str) -> Result<()> {
        self.check_writable()?;
        let mut w = CatalogWrite::begin(self);
        let entry = self.catalog.read().require(table)?;
        if matches!(entry.dist_style, DistStyle::All) {
            return Ok(());
        }
        // Read every row, rebuild under ALL, swap into the catalog.
        let new_entry = self.rebuild_table(&entry, self, DistStyle::All)?;
        if !matches!(new_entry.sort_key, SortKeySpec::None) {
            // Preserve sortedness: the rebuild appended into the unsorted
            // region; re-sort so zone maps keep working.
            for (slice, st) in new_entry.slices.iter().enumerate() {
                st.lock().vacuum(self.store_for_slice(slice).as_ref())?;
            }
        }
        let swap = |out: &Arc<TableEntry>, into: &Arc<TableEntry>| {
            let mut catalog = self.catalog.write();
            let _ = catalog.drop_table(&out.name);
            catalog.create(Arc::clone(into))
        };
        swap(&entry, &new_entry)?;
        let old_blocks = entry.block_ids();
        let installed = Arc::clone(&new_entry);
        w.on_undo(move || {
            let _ = swap(&installed, &entry);
            for (slice, st) in installed.slices.iter().enumerate() {
                st.lock().drop_storage(self.store_for_slice(slice).as_ref());
            }
        });
        // The table changed distribution: plans compiled against the old
        // layout are stale.
        w.commit(&[new_entry], Plans::Invalidate, old_blocks)
    }

    /// Auto-relationalize semi-structured data (§4 future work): infer a
    /// relational schema from JSON-lines objects under `s3://prefix`,
    /// create `table` with it, and COPY the data in. Returns the inferred
    /// DDL and rows loaded.
    pub fn relationalize_json(&self, table: &str, s3_uri: &str) -> Result<(String, u64)> {
        self.check_writable()?;
        let prefix = s3_uri
            .strip_prefix("s3://")
            .ok_or_else(|| RsError::Unsupported("sources must be s3:// URIs".into()))?;
        let keys = self.s3.list(&self.config.region, prefix);
        if keys.is_empty() {
            return Err(RsError::NotFound(format!("no objects under {s3_uri}")));
        }
        // Infer over every object (schemas may drift across files — §1's
        // "machine-generated logs that mutate over time").
        let mut corpus = String::new();
        for key in &keys {
            let bytes = self.s3.get(&self.config.region, key)?;
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| RsError::Analysis(format!("{key}: not UTF-8")))?;
            corpus.push_str(text);
            corpus.push('\n');
        }
        let schema = autonomics::infer_json_schema(&corpus)?;
        let ddl = autonomics::schema_to_ddl(table, &schema);
        // Create + load through the normal paths (auto-compression,
        // statistics, distribution all apply).
        self.execute(&ddl)?;
        let loaded = self.execute(&format!("COPY {table} FROM '{s3_uri}' FORMAT JSON"))?;
        self.usage.record_feature("RELATIONALIZE");
        Ok((ddl, loaded.rows_affected))
    }

    // ------------------------------------------------------------------
    // Key management
    // ------------------------------------------------------------------

    /// Rotate the cluster key (re-wraps block keys only; §3.2).
    /// A crashed (or resizing) handle refuses: its keyring is shared with
    /// the cluster recovered from its [`CrashImage`].
    pub fn rotate_cluster_key(&self) -> Result<()> {
        self.check_writable()?;
        let Some(ClusterKeys { keyring, hsm, .. }) = &self.keys else {
            return Err(RsError::Crypto("cluster is not encrypted".into()));
        };
        // The catalog write serializes all key users; the keyring rotates
        // through interior mutability.
        let _w = CatalogWrite::begin(self);
        keyring.rotate_cluster_key(hsm, &mut *self.rng.lock())
    }

    // ------------------------------------------------------------------
    // Crash / recovery
    // ------------------------------------------------------------------

    /// Arm the hard-crash flag *without* tearing the cluster down yet:
    /// from here on, failed statements skip their in-memory rollback
    /// (and leave their blocks behind), exactly as if the process died
    /// mid-statement. Pair with [`Cluster::crash`] +
    /// [`Cluster::recover`]; only recovery's orphan scrub cleans up.
    pub fn arm_hard_crash(&self) {
        self.hard_crash.store(true, Ordering::Release);
    }

    /// Simulate a process crash: every in-memory structure — catalog,
    /// MVCC versions, caches, sessions, the WAL's unsynced tail — is
    /// gone. What survives is the "disk": the replicated block stores,
    /// S3, the WAL's durable prefix, and the HSM. The old handle is
    /// decommissioned (every statement on it now fails); feed the image
    /// to [`Cluster::recover`].
    pub fn crash(&self) -> Result<CrashImage> {
        let replicated = Arc::clone(self.require_replicated()?);
        self.arm_hard_crash();
        *self.state.write() = ClusterState::Decommissioned;
        Ok(CrashImage {
            config: self.config.clone(),
            s3: Arc::clone(&self.s3),
            replicated,
            wal: self.wal.durable_bytes(),
            keys: self.keys.clone(),
        })
    }

    /// Recover a crashed cluster from its surviving disk state: replay
    /// the redo log (last committed checkpoint, then committed deltas in
    /// log order), rebuild the catalog and MVCC versions, scrub orphan
    /// blocks that no recovered manifest references, and compact the
    /// log. Uncommitted writes — anything without a commit mark in the
    /// durable prefix — are invisible afterwards.
    pub fn recover(image: CrashImage) -> Result<Arc<Cluster>> {
        let CrashImage { config, s3, replicated, wal: durable, keys } = image;
        let cluster = Self::assemble(config, s3, |boot, _| {
            let mut rspan = boot.trace.span(LVL_PHASE, "recovery");
            let log = wal::replay(&durable)?;
            let (catalog, txn_seq, loads_since_analyze) = replay_wal(&log, boot.topology)?;
            let replayed = log.deltas.len() as u64;
            // Orphan scrub: any placed block no recovered manifest
            // references was written by an uncommitted statement (or
            // superseded by a committed rewrite whose deferred deletion
            // never ran). Delete it everywhere — committed state never
            // references it again.
            let referenced: std::collections::BTreeSet<_> =
                catalog.tables().flat_map(|t| t.block_ids()).map(|id| id.0).collect();
            let scrub_store = replicated.node_store(NodeId(0));
            let mut scrubbed = 0u64;
            for id in replicated.placed_block_ids() {
                if !referenced.contains(&id.0) {
                    scrub_store.delete(id);
                    scrubbed += 1;
                }
            }
            boot.trace.counter("recovery.orphan_blocks_scrubbed").add(scrubbed);
            boot.trace.counter("recovery.replayed_deltas").add(replayed);
            if rspan.is_recording() {
                rspan.attr("replayed_deltas", replayed);
                rspan.attr("orphan_blocks_scrubbed", scrubbed);
            }
            rspan.finish();
            Ok(Durable {
                storage: Storage::Replicated(replicated),
                keys,
                catalog,
                wal: Wal::from_durable(durable, Arc::clone(boot.s3.faults())),
                txn_seq,
                loads_since_analyze,
            })
        })?;
        // Compact: fold the replayed state into one fresh checkpoint so
        // repeated crash/recover cycles don't replay an ever-longer log.
        // Best-effort — on failure the old (still-correct) log remains.
        cluster.checkpoint_now();
        Ok(cluster)
    }

    /// Best-effort checkpoint outside any statement (bootstrap paths:
    /// resize targets, post-recovery log compaction). Failures are
    /// recorded, not surfaced — the existing log is still correct.
    fn checkpoint_now(&self) {
        if CatalogWrite::begin(self).commit(&[], Plans::Keep, Vec::new()).is_err() {
            self.trace.counter("wal.checkpoint_errors").incr();
        }
    }
}

/// Everything that survives a simulated process crash — the "disk":
/// the per-node block stores and their placement map, S3, the redo
/// log's durable prefix, and the key-management state. Produced by
/// [`Cluster::crash`], consumed by [`Cluster::recover`].
pub struct CrashImage {
    config: ClusterConfig,
    s3: Arc<S3Sim>,
    replicated: Arc<ReplicatedStore>,
    wal: Vec<u8>,
    keys: Option<ClusterKeys>,
}

impl CrashImage {
    /// Size of the surviving durable redo-log prefix in bytes.
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }
}

/// Replay a durable redo-log prefix into the catalog, the highest
/// transaction id, and the loads-since-ANALYZE map: the last committed
/// checkpoint seeds the catalog, then committed deltas after it overwrite
/// per-table state in log order.
fn replay_wal(
    log: &wal::Replay,
    topology: &ClusterTopology,
) -> Result<(Catalog, u64, FxHashMap<String, u64>)> {
    let mut max_txn = 0u64;
    let mut loads = FxHashMap::default();
    let catalog = match &log.checkpoint {
        Some((txn, payload)) => {
            max_txn = *txn;
            let mut r = Reader::new(payload);
            let catalog = Catalog::decode(&mut r, topology)?;
            let n = r.get_u32()? as usize;
            for _ in 0..n {
                let name = r.get_str()?;
                let extras = TableExtras::decode(&mut r)?;
                let entry = catalog.get(&name).ok_or_else(|| {
                    RsError::InvalidState(format!(
                        "redo checkpoint extras reference unknown table {name:?}"
                    ))
                })?;
                extras.apply(&entry, &mut loads);
            }
            catalog
        }
        None => Catalog::new(),
    };
    for (txn, payload) in &log.deltas {
        max_txn = max_txn.max(*txn);
        let mut r = Reader::new(payload);
        let name = r.get_str()?;
        let rows_estimate = r.get_u64()?;
        let extras = TableExtras::decode(&mut r)?;
        let n_slices = r.get_u32()? as usize;
        let entry = catalog.get(&name).ok_or_else(|| {
            RsError::InvalidState(format!("redo delta references unknown table {name:?}"))
        })?;
        if n_slices != entry.slices.len() {
            return Err(RsError::InvalidState(format!(
                "redo delta for {name:?} carries {n_slices} slices, table has {}",
                entry.slices.len()
            )));
        }
        for slice in &entry.slices {
            *slice.lock() = SliceTable::decode_meta(&mut r)?;
        }
        *entry.rows_estimate.write() = rows_estimate;
        extras.apply(&entry, &mut loads);
        entry.publish(*txn);
    }
    Ok((catalog, max_txn, loads))
}

/// The per-table state [`Catalog::encode`] omits, as both redo record
/// kinds carry it (written by [`Cluster::encode_table_extras`]).
struct TableExtras {
    cursor: u32,
    stats: Option<TableStats>,
    loads: u64,
}

impl TableExtras {
    fn decode(r: &mut Reader) -> Result<TableExtras> {
        let cursor = r.get_u32()?;
        let stats = if r.get_bool()? { Some(TableStats::decode(r)?) } else { None };
        Ok(TableExtras { cursor, stats, loads: r.get_u64()? })
    }

    fn apply(self, entry: &TableEntry, loads: &mut FxHashMap<String, u64>) {
        entry.router.lock().set_cursor(self.cursor);
        *entry.stats.write() = self.stats;
        set_loads(loads, &entry.name, Some(self.loads).filter(|&n| n > 0));
    }
}

/// Set `table`'s loads-since-ANALYZE entry; `None` removes it.
fn set_loads(loads: &mut FxHashMap<String, u64>, table: &str, n: Option<u64>) {
    let key = table.to_ascii_lowercase();
    match n {
        Some(n) => loads.insert(key, n),
        None => loads.remove(&key),
    };
}

/// One SELECT on its way through [`Cluster::run_select`]'s stages. Field
/// order is drop order: the `stl_query` span closes before the slot frees.
struct SelectRun<'a> {
    cluster: &'a Cluster,
    sql: &'a str,
    ctx: &'a SessionCtx,
    mode: SelectMode,
    /// Root span of the `stl_query` row; disabled for EXPLAIN.
    qspan: Span,
    /// The service-class slot; `None` for EXPLAIN and result-cache hits.
    wlm: Option<WlmGuard>,
}

impl<'a> SelectRun<'a> {
    /// Stage 3, WLM admission (§2.1): hold a service-class slot before
    /// taking any data lock, so a queued query starves neither writers nor
    /// the queries already running. EXPLAIN and EXPLAIN ANALYZE are
    /// diagnostics: they bypass admission (so monitoring rules, abort
    /// included, never fire on them) and are not logged, as the real
    /// STL_QUERY records executed queries only. System-table reads bypass
    /// it too, so queue state stays observable when every slot is busy.
    fn admit(
        cluster: &'a Cluster,
        sql: &'a str,
        ctx: &'a SessionCtx,
        mode: SelectMode,
        refs: &[&str],
        parse_ns: u64,
    ) -> Result<Self> {
        let (wlm, qspan) = if mode == SelectMode::Execute {
            let cost = cluster.estimate_cost(refs);
            let wlm = cluster.wlm.admit(cost, ctx.user_group.as_deref())?;
            // Root span for stl_query: LVL_CORE records even at RSIM_TRACE=0.
            (Some(wlm), cluster.trace.span(LVL_CORE, "query"))
        } else {
            (None, Span::disabled())
        };
        let run = SelectRun { cluster, sql, ctx, mode, qspan, wlm };
        run.qspan.child_completed(LVL_PHASE, "query.parse", parse_ns, &[]);
        if run.queue_wait_ns() > 0 {
            run.qspan.child_completed(LVL_PHASE, "wlm.wait", run.queue_wait_ns(), &[]);
        }
        Ok(run)
    }

    fn queue_wait_ns(&self) -> u64 {
        self.wlm.as_ref().map_or(0, |g| g.queue_wait_ns())
    }

    /// Stage 4: bind and optimize against the snapshot's catalog.
    fn plan(&self, snap: &ReadSnapshot, sel: &ast::Select) -> Result<(LogicalPlan, String)> {
        let pspan = self.qspan.child(LVL_PHASE, "query.plan");
        let plan = plan_select(&snap.planner_catalog(), sel)?;
        let plan_text = plan.explain();
        pspan.finish();
        self.cluster.usage.record_feature(self.mode.name());
        self.cluster.usage.record_plan_shape(autonomics::plan_shape(&plan_text));
        Ok((plan, plan_text))
    }

    /// Stage 5: compile through the plan cache; `(plan, hit, ns)`.
    fn compile(&self, plan: LogicalPlan) -> (Arc<CompiledQuery>, bool, u64) {
        let plan_cache = &self.cluster.plan_cache;
        let mut cspan = self.qspan.child(LVL_PHASE, "query.compile");
        let t0 = std::time::Instant::now();
        let (compiled, cache_hit) = plan_cache.get_or_compile(plan);
        let compile_ns = t0.elapsed().as_nanos() as u64;
        let counter = if cache_hit { "plan_cache.hits" } else { "plan_cache.misses" };
        self.cluster.trace.counter(counter).incr();
        cspan.attr("cache", if cache_hit { "hit" } else { "miss" });
        cspan.finish();
        (compiled, cache_hit, compile_ns)
    }

    /// Stage 6. Per-step profiling feeds `svl_query_report`; EXPLAIN
    /// ANALYZE needs it regardless of the cluster-wide setting.
    fn execute(&self, snap: &ReadSnapshot, plan: &LogicalPlan) -> Result<QueryOutput> {
        let cluster = self.cluster;
        let mut espan = self.qspan.child(LVL_PHASE, "query.exec");
        let profiling = self.mode == SelectMode::ExplainAnalyze
            || (self.mode == SelectMode::Execute && cluster.config.profile_queries);
        let t_exec = std::time::Instant::now();
        let mut out = Executor::new(snap)
            .with_trace(&espan)
            .with_profiling(profiling)
            .with_faults(Arc::clone(cluster.faults()))
            .run(plan)?;
        out.metrics.exec_ns = t_exec.elapsed().as_nanos() as u64;
        if espan.is_recording() {
            espan.attr("slices", cluster.topology.total_slices());
            espan.attr("rows_out", out.rows.len());
        }
        espan.finish();
        Ok(out)
    }

    /// A fresh `stl_query` id when this SELECT is logged, else 0.
    fn next_query_id(&self) -> u64 {
        if self.qspan.is_recording() {
            self.cluster.query_seq.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        }
    }

    /// Stage 7, query-monitoring rules: evaluated on the leader while the
    /// slot is still held, against the final execution metrics. A hop
    /// re-homes the slot; an abort releases it and fails the query after
    /// writing its aborted `stl_query` row (results are discarded
    /// leader-side — compute work is already sunk, as in the real QMR).
    fn monitor(&mut self, qid: u64, m: &ExecMetrics, plan: &LogicalPlan) -> Result<()> {
        let Some(guard) = self.wlm.as_mut() else {
            return Ok(());
        };
        let stats = QmrStats {
            exec_ns: m.exec_ns,
            queue_ns: m.queue_wait_ns,
            rows_scanned: m.rows_scanned,
            bytes_scanned: m.bytes_read,
            nested_loop_join: plan_has_residual_join(plan),
        };
        let verdict = guard.evaluate_rules(&stats);
        if verdict.is_err() {
            self.record(qid, 0, |q, _| q.attr("aborted", true), None);
        }
        verdict
    }

    /// Stage 8, for an executed SELECT.
    fn record_executed(
        &mut self,
        qid: u64,
        out: &QueryOutput,
        cache_hit: bool,
        cacheable: bool,
        plan_text: &str,
    ) {
        let trace = &self.cluster.trace;
        // Per-step report rows ride the trace as standalone spans so the
        // existing retention machinery bounds them like everything else.
        for s in &out.profile {
            trace.span_completed(
                LVL_CORE,
                "profile.step",
                s.elapsed_ns,
                &[
                    ("query", AttrValue::I64(qid as i64)),
                    ("step", AttrValue::U64(s.step as u64)),
                    ("slice", AttrValue::U64(s.slice as u64)),
                    ("label", AttrValue::Str(s.label.clone())),
                    ("rows", AttrValue::U64(s.rows)),
                    ("bytes", AttrValue::U64(s.bytes)),
                ],
            );
        }
        let m = &out.metrics;
        trace.histogram("query.exec_ns").record(m.exec_ns);
        let metrics = |q: &mut Span, wlm: Option<&WlmGuard>| {
            q.attr("compile_cache", if cache_hit { "hit" } else { "miss" });
            q.attr("compile_ns", m.compile_ns);
            q.attr("exec_ns", m.exec_ns);
            q.attr("rows_scanned", m.rows_scanned);
            q.attr("blocks_read", m.blocks_read);
            q.attr("bytes_read", m.bytes_read);
            q.attr("bytes_broadcast", m.bytes_broadcast);
            q.attr("bytes_redistributed", m.bytes_redistributed);
            q.attr("groups_total", m.groups_total);
            q.attr("groups_skipped", m.groups_skipped);
            q.attr("queue_wait_us", m.queue_wait_ns / 1_000);
            if let Some(g) = wlm {
                q.attr("service_class", g.service_class());
            }
        };
        let result_cache = if cacheable { "miss" } else { "off" };
        self.record(qid, out.rows.len(), metrics, Some((result_cache, plan_text)));
    }

    /// The one `stl_query` recorder (executed, QMR-aborted, cache hit):
    /// `outcome` adds that path's own columns; `cache` is the
    /// `(result_cache, plan)` pair every path but an abort carries.
    fn record(
        &mut self,
        qid: u64,
        rows: usize,
        outcome: impl FnOnce(&mut Span, Option<&WlmGuard>),
        cache: Option<(&str, &str)>,
    ) {
        let SelectRun { sql, ctx, qspan: q, wlm, .. } = self;
        if !q.is_recording() {
            return;
        }
        q.attr("query", qid);
        q.attr("querytxt", *sql);
        q.attr("rows", rows);
        outcome(q, wlm.as_ref());
        q.attr("userid", ctx.userid);
        q.attr("session", ctx.session_id);
        if let Some((result_cache, plan)) = cache {
            q.attr("result_cache", result_cache);
            q.attr("plan", plan);
        }
    }
}

/// A statement's MVCC read point (see [`Cluster::read_snapshot`]).
struct ReadSnapshot<'a> {
    cluster: &'a Cluster,
    _storage: RwLockReadGuard<'a, ()>,
    catalog: RwLockReadGuard<'a, Catalog>,
    catalog_version: u64,
    tables: FxHashMap<String, Arc<TableVersion>>,
}

impl ReadSnapshot<'_> {
    fn planner_catalog(&self) -> PlannerCatalog<'_> {
        let total_slices = self.cluster.topology.total_slices();
        PlannerCatalog { catalog: &self.catalog, total_slices }
    }

    /// `table`'s version, and whether it is DISTSTYLE ALL (each slice
    /// holds a full copy, so only slice 0 scans).
    fn table(&self, table: &str) -> Result<(&TableVersion, bool)> {
        let entry = self.catalog.require(table)?;
        let version = self
            .tables
            .get(&table.to_ascii_lowercase())
            .ok_or_else(|| RsError::NotFound(format!("relation {table:?}")))?;
        Ok((version, matches!(entry.dist_style, DistStyle::All)))
    }
}

/// Parse `sql`, timing it for the `query.parse` span.
fn timed_parse(sql: &str) -> Result<(Statement, u64)> {
    let t = std::time::Instant::now();
    let stmt = redsim_sql::parse(sql)?;
    Ok((stmt, t.elapsed().as_nanos() as u64))
}

/// Stage 1, routing: system tables run leader-local against the
/// telemetry sink (and are not themselves recorded).
fn reads_system_tables(refs: &[&str]) -> Result<bool> {
    if !refs.iter().any(|t| systables::is_system_table(t)) {
        return Ok(false);
    }
    if !refs.iter().all(|t| systables::is_system_table(t)) {
        return Err(RsError::Unsupported(
            "joining system tables with user tables is not supported".into(),
        ));
    }
    Ok(true)
}

/// Bind and optimize: the one planner entry for every SELECT path.
fn plan_select(catalog: &dyn CatalogView, sel: &ast::Select) -> Result<LogicalPlan> {
    let bound = Binder::new(catalog).bind_select(sel)?;
    Ok(optimizer::optimize(bound, catalog))
}

/// EXPLAIN ANALYZE's `(rows, ns)` per step (index `i` is step `i + 1`):
/// rows sum across slices; elapsed is inclusive wall time, so the max.
fn step_actuals(profile: &[StepProfile], n_steps: usize) -> Vec<(u64, u64)> {
    let mut steps = vec![(0u64, 0u64); n_steps];
    for s in profile {
        if let Some((rows, ns)) = s.step.checked_sub(1).and_then(|i| steps.get_mut(i)) {
            *rows += s.rows;
            *ns = (*ns).max(s.elapsed_ns);
        }
    }
    steps
}

/// The one `QUERY PLAN` renderer; `actuals` annotates EXPLAIN ANALYZE.
fn explain_result(
    plan: String,
    actuals: Option<&[(u64, u64)]>,
    metrics: ExecMetrics,
    cache_hit: bool,
) -> QueryResult {
    let line_row = |(i, line): (usize, &str)| {
        let text = match actuals {
            None => line.to_string(),
            Some(a) => {
                let (rows, ns) = a.get(i).copied().unwrap_or((0, 0));
                format!("{line} (actual rows={rows} time={:.3}ms)", ns as f64 / 1e6)
            }
        };
        Row::new(vec![Value::Str(text)])
    };
    QueryResult {
        columns: vec![OutCol { name: "QUERY PLAN".into(), ty: DataType::Varchar }],
        rows: plan.lines().enumerate().map(line_row).collect(),
        metrics,
        plan,
        cache_hit,
        result_cache_hit: false,
    }
}

/// The compute fabric: executes scans against the statement's MVCC
/// snapshot. Scans never touch the live slice tables, so a concurrent
/// writer's uncommitted (or newly committed) state is invisible to a
/// query that has already started.
impl TableProvider for ReadSnapshot<'_> {
    fn num_slices(&self) -> usize {
        self.cluster.topology.total_slices() as usize
    }

    fn scan_slice(
        &self,
        table: &str,
        slice: usize,
        projection: &[usize],
        pred: &ScanPredicate,
    ) -> Result<ScanOutput> {
        let (version, replicated) = self.table(table)?;
        if replicated && slice != 0 {
            return Ok(ScanOutput::default());
        }
        let store = self.cluster.store_for_slice(slice);
        version.slices[slice].scan(store.as_ref(), projection, Some(pred))
    }
}

/// Row source for the interpreted path: scans all slices sequentially,
/// against the same MVCC snapshot as the compiled path.
impl baseline::RowSource for ReadSnapshot<'_> {
    fn scan_rows(&self, table: &str, projection: &[usize]) -> Result<Vec<Row>> {
        let (version, replicated) = self.table(table)?;
        let slices = if replicated { 1 } else { version.slices.len() };
        let mut rows = Vec::new();
        for slice in 0..slices {
            let store = self.cluster.store_for_slice(slice);
            let out = version.slices[slice].scan(store.as_ref(), projection, None)?;
            for batch in out.batches {
                let n = batch.first().map_or(0, |c| c.len());
                for i in 0..n {
                    rows.push(Row::new(batch.iter().map(|c| c.get(i)).collect()));
                }
            }
        }
        Ok(rows)
    }
}

/// Hex-encode a 128-bit key for `COPY … ENCRYPTED`.
fn key_to_hex(k: &redsim_crypto::Key) -> String {
    k.0.iter().map(|w| format!("{w:08x}")).collect()
}

/// Parse the hex form back into a key.
fn parse_hex_key(hex: &str) -> Result<redsim_crypto::Key> {
    let hex = hex.trim();
    if hex.len() != 32 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(RsError::Crypto("ENCRYPTED expects a 32-hex-digit (128-bit) key".into()));
    }
    let mut words = [0u32; 4];
    for (i, w) in words.iter_mut().enumerate() {
        *w = u32::from_str_radix(&hex[i * 8..i * 8 + 8], 16)
            .map_err(|_| RsError::Crypto("invalid hex key".into()))?;
    }
    Ok(redsim_crypto::Key(words))
}

/// One COPY on its way through [`Cluster::run_copy`]'s stages. Field
/// order is drop order: the `copy` span closes before an uncommitted
/// write rolls back.
struct CopyRun<'a> {
    span: Span,
    write: TableWrite<'a>,
    stmt: &'a ast::Copy,
    loaded: u64,
    started: std::time::Instant,
}

impl<'a> CopyRun<'a> {
    /// Stage 1: open the table write, list the `s3://` source objects,
    /// and apply the statement's COMPUPDATE — automatic compression
    /// analysis on first load; an unspecified statement falls back to the
    /// session's default (`SET compupdate`). It is a per-statement
    /// override: the write restores the flag on commit and rollback.
    fn begin(
        cluster: &'a Cluster,
        stmt: &'a ast::Copy,
        ctx: &SessionCtx,
    ) -> Result<(Self, Vec<String>)> {
        let write = TableWrite::begin(cluster, &stmt.table)?;
        let prefix = stmt
            .source
            .strip_prefix("s3://")
            .ok_or_else(|| RsError::Unsupported("COPY sources must be s3:// URIs".into()))?;
        let keys = cluster.s3.list(&cluster.config.region, prefix);
        if keys.is_empty() {
            return Err(RsError::NotFound(format!("no objects under s3://{prefix}")));
        }
        let started = std::time::Instant::now();
        let mut span = cluster.trace.span(LVL_PHASE, "copy");
        if span.is_recording() {
            span.attr("table", stmt.table.clone());
            span.attr("objects", keys.len());
        }
        let comp_update = stmt.comp_update.unwrap_or(ctx.comp_update_default);
        for s in &write.entry.slices {
            s.lock().set_auto_compress(comp_update);
        }
        if comp_update {
            // First flush samples the data and locks per-column encodings.
            let attrs = [("table", AttrValue::Str(stmt.table.clone()))];
            span.event_with(LVL_PHASE, "copy.encoding_sample", &attrs);
        }
        Ok((CopyRun { span, write, stmt, loaded: 0, started }, keys))
    }

    /// Stage 2: fetch, decode and parse every object in parallel (each
    /// slice "reading data in parallel", §2.1). Fetches go through the
    /// `copy.fetch_object` failpoint with the cluster retry policy:
    /// transient S3 flakiness is absorbed with backoff, permanent faults
    /// surface typed.
    fn fetch(&self, keys: Vec<String>) -> Result<Vec<Result<Vec<ColumnData>>>> {
        let (cluster, c, span) = (self.write.cluster, self.stmt, &self.span);
        let entry = &self.write.entry;
        // Client-side encrypted sources carry a hex key in the statement.
        let source_key = c.decrypt_key.as_deref().map(parse_hex_key).transpose()?;
        Ok(par::map(keys, |key| {
            let mut ospan = span.child(LVL_DETAIL, "copy.object");
            if ospan.is_recording() {
                ospan.attr("object", key.clone());
            }
            let raw = cluster.config.retry.with_seed(cluster.config.seed).run_observed(
                "copy.fetch_object",
                || {
                    redsim_replication::fire_no_skip(
                        cluster.s3.faults(),
                        Some(&cluster.trace),
                        redsim_faultkit::fp::COPY_FETCH_OBJECT,
                    )?;
                    cluster.s3.get(&cluster.config.region, &key)
                },
                redsim_replication::retry_observer(Some(Arc::clone(&cluster.trace))),
            )?;
            // Undo source-side transforms: decrypt, then decompress
            // ("COPY also directly supports ingestion of … data that is
            // encrypted and/or compressed", §2.1).
            let mut bytes: Vec<u8> = raw.to_vec();
            if let Some(k) = &source_key {
                let enc = redsim_crypto::EncryptedPayload::deserialize(&bytes)
                    .map_err(|e| RsError::Analysis(format!("{key}: {e}")))?;
                bytes = redsim_crypto::decrypt_payload(k, &enc)
                    .map_err(|e| RsError::Analysis(format!("{key}: {e}")))?;
            }
            if c.compressed {
                bytes = redsim_storage::lzss::decompress(&bytes)
                    .map_err(|e| RsError::Analysis(format!("{key}: {e}")))?;
            }
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| RsError::Analysis(format!("{key}: not UTF-8")))?;
            let parsed = match c.format {
                ast::CopyFormat::Csv => loader::parse_csv(text, c.delimiter, &entry.schema),
                ast::CopyFormat::Json => loader::parse_json_lines(text, &entry.schema),
            };
            if ospan.is_recording() {
                if let Ok(cols) = &parsed {
                    ospan.attr("rows", cols.first().map_or(0, |col| col.len()));
                }
            }
            parsed
        }))
    }

    /// Stage 3: route and append each parsed object, in listing order.
    fn append(&mut self, parsed: Vec<Result<Vec<ColumnData>>>) -> Result<()> {
        let mut aspan = self.span.child(LVL_PHASE, "copy.append");
        for batch in parsed {
            let batch = batch?;
            self.loaded += batch.first().map_or(0, |col| col.len()) as u64;
            self.write.cluster.append_distributed(&self.write.entry, batch, false)?;
        }
        aspan.attr("rows", self.loaded);
        Ok(())
    }

    /// Stage 4: flush buffered tails on every slice, which seals row
    /// groups into encoded blocks. Per-slice failures are aggregated
    /// instead of dropping all but the first: the error names every
    /// failed slice, and its variant (→ retry class) is inherited from
    /// the first failure so THROTTLE exhaustion stays visibly transient.
    fn seal(&self) -> Result<()> {
        let (cluster, entry) = (self.write.cluster, &self.write.entry);
        let seal_span = self.span.child(LVL_PHASE, "copy.seal");
        let results: Vec<Result<()>> = par::map_indexed(entry.slices.len(), |slice| {
            let mut sspan = seal_span.child(LVL_DETAIL, "copy.slice_seal");
            if sspan.is_recording() {
                sspan.attr("slice", slice);
            }
            entry.slices[slice].lock().flush(cluster.store_for_slice(slice).as_ref())
        });
        seal_span.finish();
        let failures: Vec<(usize, RsError)> = results
            .into_iter()
            .enumerate()
            .filter_map(|(slice, r)| r.err().map(|e| (slice, e)))
            .collect();
        if failures.is_empty() {
            return Ok(());
        }
        cluster.trace.counter("copy.seal_errors").add(failures.len() as u64);
        let detail = failures
            .iter()
            .map(|(slice, e)| format!("slice {slice}: {e}"))
            .collect::<Vec<_>>()
            .join("; ");
        let (n, total) = (failures.len(), entry.slices.len());
        let first = failures.into_iter().next().expect("non-empty").1;
        Err(first.with_note(&format!(" (COPY seal failed on {n} of {total} slices: [{detail}])")))
    }

    /// Stage 5: account the load in the catalog counters and, under
    /// STATUPDATE, refresh optimizer statistics (§2.1: "By default,
    /// compression scheme and optimizer statistics are updated with
    /// load").
    fn account(&self) -> Result<()> {
        let (cluster, entry) = (self.write.cluster, &self.write.entry);
        *entry.rows_estimate.write() += self.loaded;
        let mut loads = cluster.loads_since_analyze.lock();
        *loads.entry(entry.name.to_ascii_lowercase()).or_insert(0) += self.loaded;
        drop(loads);
        if self.stmt.stat_update {
            let aspan = self.span.child(LVL_PHASE, "copy.analyze");
            cluster.analyze_entry(entry)?;
            aspan.finish();
        }
        Ok(())
    }

    /// Stage 6: close the `copy` span and commit. A COPY that rolled back
    /// never gets here, so it never bumps the catalog version (the
    /// result cache stays valid) or `copy.rows_loaded`.
    fn commit(self) -> Result<ExecSummary> {
        let CopyRun { mut span, write, loaded, started, .. } = self;
        if span.is_recording() {
            span.attr("rows", loaded);
        }
        span.finish();
        let trace = &write.cluster.trace;
        write.commit()?;
        trace.counter("copy.rows_loaded").add(loaded);
        trace.histogram("copy.duration_ns").record(started.elapsed().as_nanos() as u64);
        Ok(ExecSummary { rows_affected: loaded, message: format!("COPY {loaded}") })
    }
}

/// A COPY or INSERT transaction on one table (DESIGN.md §15).
/// [`TableWrite::begin`] takes the shared `data_lock`, the catalog read
/// and the table's first-committer-wins writer claim, then the rollback
/// image of everything the statement can mutate (DESIGN.md §11): each
/// slice's buffered tail, group manifests, encodings and COMPUPDATE flag,
/// plus the [`TableImage`]. [`TableWrite::commit`] is the only way to
/// make the write durable and visible. Dropping it uncommitted — any `?`
/// in the statement, or a panic — rolls all of it back and deletes the
/// statement's blocks from every replica before the locks release, so an
/// aborted COPY/INSERT is observationally invisible.
struct TableWrite<'a> {
    cluster: &'a Cluster,
    txn: u64,
    entry: Arc<TableEntry>,
    checkpoints: Vec<WriteCheckpoint>,
    image: TableImage,
    committed: bool,
    catalog: RwLockReadGuard<'a, Catalog>,
    _shared: RwLockReadGuard<'a, ()>,
}

impl<'a> TableWrite<'a> {
    /// Writers on different tables proceed in parallel under the shared
    /// `data_lock` while readers keep their MVCC snapshots; a second
    /// writer on the same table fails fast with a retryable
    /// [`RsError::Serializable`] instead of queueing, recorded in
    /// `txn.conflicts` / `stl_tr_conflict`.
    fn begin(cluster: &'a Cluster, table: &str) -> Result<Self> {
        let shared = cluster.data_lock.read();
        let catalog = cluster.catalog.read();
        let entry = catalog.require(table)?;
        let txn = cluster.txn_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if entry.writer.swap(true, Ordering::Acquire) {
            cluster.trace.counter("txn.conflicts").incr();
            let attrs =
                [("table", AttrValue::Str(entry.name.clone())), ("xact_id", AttrValue::U64(txn))];
            cluster.trace.span_completed(LVL_CORE, "tr_conflict", 0, &attrs);
            return Err(RsError::Serializable(format!(
                "1023: serializable isolation violation on table {:?} — a \
                 concurrent write transaction is in progress; retry the statement",
                entry.name
            )));
        }
        Ok(TableWrite {
            cluster,
            txn,
            checkpoints: entry.slices.iter().map(|s| s.lock().begin_write()).collect(),
            image: TableImage::capture(cluster, &entry),
            entry,
            committed: false,
            catalog,
            _shared: shared,
        })
    }

    /// Durability first — redo record, fsync, commit mark — then
    /// visibility: restore each slice's COMPUPDATE flag, publish the new
    /// committed version, bump the catalog version (the result cache's
    /// invalidation). Called after the final flush, so every slice's
    /// buffer is empty and `encode_meta` is a lossless image. A WAL
    /// failure returns before anything is published and the drop rolls
    /// the write back: an unlogged write is never visible.
    fn commit(mut self) -> Result<()> {
        let (cluster, entry) = (self.cluster, &self.entry);
        let mut w = Writer::new();
        w.put_str(&entry.name);
        w.put_u64(*entry.rows_estimate.read());
        cluster.encode_table_extras(entry, &mut w);
        w.put_u32(entry.slices.len() as u32);
        for s in &entry.slices {
            s.lock().encode_meta(&mut w);
        }
        cluster.wal.append_delta(self.txn, &w.into_bytes())?;
        cluster.wal.sync()?;
        cluster.wal.commit(self.txn)?;
        cluster.trace.counter("wal.commits").incr();
        self.committed = true;
        for (slice, cp) in self.checkpoints.iter().enumerate() {
            entry.slices[slice].lock().set_auto_compress(cp.auto_compress());
        }
        entry.publish(self.txn);
        cluster.bump_catalog_version();
        Ok(())
    }
}

impl Drop for TableWrite<'_> {
    fn drop(&mut self) {
        // A hard crash means the process died before it could roll back:
        // leave the half-written state (and its orphan blocks) in place
        // for recovery to resolve. Without this gate the harness's
        // unwind would tidy up the very mess recovery must handle.
        if !self.committed && !self.cluster.hard_crash.load(Ordering::Acquire) {
            let mut blocks = 0usize;
            for (slice, cp) in std::mem::take(&mut self.checkpoints).into_iter().enumerate() {
                let store = self.cluster.store_for_slice(slice);
                blocks += self.entry.slices[slice].lock().rollback_write(cp, store.as_ref());
            }
            self.image.restore(self.cluster, &self.entry);
            self.cluster.trace.counter("write_txn.rollbacks").add(1);
            self.cluster.trace.counter("write_txn.blocks_dropped").add(blocks as u64);
        }
        self.entry.writer.store(false, Ordering::Release);
    }
}

/// The catalog state of one table that a write can move besides its
/// slices — router cursor, `rows_estimate`, optimizer stats,
/// loads-since-ANALYZE — captured before the write, restored if it ends
/// uncommitted.
struct TableImage {
    /// The router's EVEN round-robin cursor advances per routed batch.
    router: RowRouter,
    rows_estimate: u64,
    stats: Option<TableStats>,
    /// `None` = no loads-since-ANALYZE entry.
    loads: Option<u64>,
}

impl TableImage {
    fn capture(cluster: &Cluster, entry: &TableEntry) -> TableImage {
        let key = entry.name.to_ascii_lowercase();
        let loads = cluster.loads_since_analyze.lock().get(&key).copied();
        TableImage {
            router: entry.router.lock().clone(),
            rows_estimate: *entry.rows_estimate.read(),
            stats: entry.stats.read().clone(),
            loads,
        }
    }

    fn restore(&mut self, cluster: &Cluster, entry: &TableEntry) {
        *entry.router.lock() = self.router.clone();
        *entry.rows_estimate.write() = self.rows_estimate;
        *entry.stats.write() = self.stats.take();
        set_loads(&mut cluster.loads_since_analyze.lock(), &entry.name, self.loads);
    }
}

/// Whether a catalog write's commit drops every compiled plan.
enum Plans {
    Keep,
    /// The statement changed a table's schema or layout: a plan compiled
    /// against the old catalog must never run against the new one, even
    /// when a re-created table yields a Debug-identical plan signature.
    Invalidate,
}

/// A catalog-shaped transaction (DESIGN.md §15): DDL, VACUUM, ANALYZE,
/// redistribution, snapshot, key rotation and bootstrap checkpoints.
/// [`CatalogWrite::begin`] takes the global `write_txn` mutex and the
/// exclusive `data_lock`, which waits out readers and in-flight table
/// writers, so live state equals committed state and a full-catalog
/// checkpoint taken under it is consistent. The statement mutates live
/// state and registers how to take that back with
/// [`CatalogWrite::on_undo`]; the undo runs if the write ends
/// uncommitted — a failed checkpoint included — before the locks
/// release, so a failed statement is invisible.
struct CatalogWrite<'a> {
    cluster: &'a Cluster,
    txn: u64,
    undo: Option<Box<dyn FnOnce() + 'a>>,
    _global: MutexGuard<'a, ()>,
    _excl: RwLockWriteGuard<'a, ()>,
}

impl<'a> CatalogWrite<'a> {
    fn begin(cluster: &'a Cluster) -> Self {
        let txn = cluster.txn_seq.fetch_add(1, Ordering::Relaxed) + 1;
        CatalogWrite {
            cluster,
            txn,
            undo: None,
            _global: cluster.write_txn.lock(),
            _excl: cluster.data_lock.write(),
        }
    }

    fn on_undo(&mut self, undo: impl FnOnce() + 'a) {
        self.undo = Some(Box::new(undo));
    }

    /// Durability first: a full-catalog checkpoint ([`Catalog::encode`]
    /// plus the per-table extras it omits) and its commit mark; on
    /// failure the error returns and the undo runs. Visibility second:
    /// publish the `publish` tables' new committed versions, drop the
    /// compiled plans if asked, bump the catalog version. Only then are
    /// the `superseded` blocks deleted (deferred deletion): a crash on
    /// either side of the commit mark leaves one complete block set
    /// behind the recovered manifests, and recovery scrubs the other as
    /// orphans.
    fn commit(
        mut self,
        publish: &[Arc<TableEntry>],
        plans: Plans,
        superseded: Vec<BlockId>,
    ) -> Result<()> {
        let c = self.cluster;
        let mut w = Writer::new();
        {
            let catalog = c.catalog.read();
            catalog.encode(&mut w);
            w.put_u32(catalog.tables().count() as u32);
            for t in catalog.tables() {
                w.put_str(&t.name);
                c.encode_table_extras(t, &mut w);
            }
        }
        c.wal.append_checkpoint(self.txn, &w.into_bytes())?;
        c.wal.commit(self.txn)?;
        c.trace.counter("wal.commits").incr();
        self.undo = None;
        // Truncation is pure space reclamation: the checkpoint above is
        // already durable, so a failure here (injected) must not fail the
        // statement — the log is just longer than it needs to be.
        match c.wal.truncate() {
            Ok(0) => {}
            Ok(reclaimed) => c.trace.counter("wal.bytes_reclaimed").add(reclaimed as u64),
            Err(_) => c.trace.counter("wal.truncate_errors").incr(),
        }
        for entry in publish {
            entry.publish(self.txn);
        }
        if matches!(plans, Plans::Invalidate) {
            c.plan_cache.invalidate_all();
        }
        c.bump_catalog_version();
        if let Some(store) = c.node_stores.first() {
            for id in superseded {
                store.delete(id);
            }
        }
        Ok(())
    }
}

impl Drop for CatalogWrite<'_> {
    fn drop(&mut self) {
        if let Some(undo) = self.undo.take() {
            undo();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Arc<Cluster> {
        Cluster::launch(ClusterConfig::new("t").nodes(2).slices_per_node(2)).unwrap()
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR) DISTKEY(a)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)").unwrap();
        let r = c.query("SELECT a, b FROM t ORDER BY a").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].get(0).as_i64(), Some(1));
        assert_eq!(r.rows[1].get(1).as_str(), Some("y"));
        assert!(r.rows[2].get(1).is_null());
    }

    #[test]
    fn aggregates_and_joins_across_slices() {
        let c = small();
        c.execute("CREATE TABLE orders (id BIGINT, cust BIGINT, total FLOAT8) DISTKEY(cust)")
            .unwrap();
        c.execute("CREATE TABLE custs (id BIGINT, region VARCHAR) DISTKEY(id)").unwrap();
        for i in 0..50 {
            c.execute(&format!(
                "INSERT INTO orders VALUES ({i}, {}, {})",
                i % 5,
                (i as f64) * 1.5
            ))
            .unwrap();
        }
        for i in 0..5 {
            c.execute(&format!("INSERT INTO custs VALUES ({i}, 'r{}')", i % 2)).unwrap();
        }
        let r = c
            .query(
                "SELECT c.region, COUNT(*) AS n, SUM(o.total) AS s
                 FROM orders o JOIN custs c ON o.cust = c.id
                 GROUP BY c.region ORDER BY c.region",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let n0 = r.rows[0].get(1).as_i64().unwrap();
        let n1 = r.rows[1].get(1).as_i64().unwrap();
        assert_eq!(n0 + n1, 50);
    }

    #[test]
    fn colocated_join_moves_no_bytes() {
        let c = small();
        c.execute("CREATE TABLE a (k BIGINT, v BIGINT) DISTKEY(k)").unwrap();
        c.execute("CREATE TABLE b (k BIGINT, w BIGINT) DISTKEY(k)").unwrap();
        for i in 0..40 {
            c.execute(&format!("INSERT INTO a VALUES ({i}, {i})")).unwrap();
            c.execute(&format!("INSERT INTO b VALUES ({i}, {})", i * 2)).unwrap();
        }
        c.execute("ANALYZE").unwrap();
        let r = c.query("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(40));
        assert_eq!(r.metrics.exchange_bytes(), 0);
        assert!(r.plan.contains("DS_DIST_NONE"), "{}", r.plan);
    }

    #[test]
    fn non_colocated_join_moves_bytes() {
        let c = small();
        c.execute("CREATE TABLE a (k BIGINT, j BIGINT)").unwrap(); // EVEN
        c.execute("CREATE TABLE b (k BIGINT)").unwrap(); // EVEN
        for i in 0..60 {
            c.execute(&format!("INSERT INTO a VALUES ({i}, {})", i % 10)).unwrap();
        }
        for i in 0..60 {
            c.execute(&format!("INSERT INTO b VALUES ({})", i % 10)).unwrap();
        }
        c.execute("ANALYZE").unwrap();
        let r = c.query("SELECT COUNT(*) FROM a JOIN b ON a.j = b.k").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(360));
        assert!(r.metrics.exchange_bytes() > 0, "{:?}", r.metrics);
    }

    #[test]
    fn copy_csv_from_s3() {
        let c = small();
        c.execute("CREATE TABLE logs (id BIGINT, url VARCHAR, d DATE) COMPOUND SORTKEY(id)")
            .unwrap();
        let mut csv1 = String::new();
        let mut csv2 = String::new();
        for i in 0..500 {
            let line = format!("{i},http://site/{},2015-05-{:02}\n", i % 7, (i % 28) + 1);
            if i % 2 == 0 {
                csv1.push_str(&line);
            } else {
                csv2.push_str(&line);
            }
        }
        c.put_s3_object("load/part-0001", csv1.into_bytes());
        c.put_s3_object("load/part-0002", csv2.into_bytes());
        let s = c.execute("COPY logs FROM 's3://load/'").unwrap();
        assert_eq!(s.rows_affected, 500);
        let r = c.query("SELECT COUNT(*), MIN(id), MAX(id) FROM logs").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(500));
        assert_eq!(r.rows[0].get(1).as_i64(), Some(0));
        assert_eq!(r.rows[0].get(2).as_i64(), Some(499));
        // STATUPDATE ran: stats exist.
        let cat = c.catalog.read();
        assert!(cat.get("logs").unwrap().stats.read().is_some());
    }

    #[test]
    fn copy_json_from_s3() {
        let c = small();
        c.execute("CREATE TABLE ev (user_id BIGINT, action VARCHAR, ok BOOLEAN)").unwrap();
        let json = r#"{"user_id": 1, "action": "click", "ok": true}
{"user_id": 2, "action": "view"}
{"user_id": 3, "ok": false}"#;
        c.put_s3_object("j/events", json.as_bytes().to_vec());
        let s = c.execute("COPY ev FROM 's3://j/' FORMAT JSON").unwrap();
        assert_eq!(s.rows_affected, 3);
        let r = c.query("SELECT COUNT(*) FROM ev WHERE action IS NULL").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(1));
    }

    #[test]
    fn vacuum_enables_pruning() {
        let c = Cluster::launch(
            ClusterConfig::new("v").nodes(1).slices_per_node(1).rows_per_group(128),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT, v BIGINT) COMPOUND SORTKEY(k)").unwrap();
        let mut csv = String::new();
        // Load in hash-scattered order so unsorted zone maps are useless;
        // only VACUUM's sort makes pruning effective.
        for j in 0..2048u64 {
            let i = (j * 2_654_435_761) % 2048;
            csv.push_str(&format!("{i},{}\n", i * 2));
        }
        c.put_s3_object("d/x", csv.into_bytes());
        c.execute("COPY t FROM 's3://d/'").unwrap();
        let before = c.query("SELECT v FROM t WHERE k BETWEEN 100 AND 110").unwrap();
        c.execute("VACUUM t").unwrap();
        let after = c.query("SELECT v FROM t WHERE k BETWEEN 100 AND 110").unwrap();
        assert_eq!(before.rows.len(), after.rows.len());
        assert!(after.metrics.groups_skipped > before.metrics.groups_skipped);
    }

    #[test]
    fn explain_output() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        let r = c.query("EXPLAIN SELECT COUNT(*) FROM t WHERE a > 5").unwrap();
        let text: Vec<String> = r.rows.iter().map(|row| row.get(0).to_string()).collect();
        let joined = text.join("\n");
        assert!(joined.contains("Seq Scan"), "{joined}");
        assert!(joined.contains("HashAggregate"), "{joined}");
    }

    #[test]
    fn plan_cache_hits_on_repeat() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        let r1 = c.query("SELECT a FROM t").unwrap();
        assert!(!r1.cache_hit);
        let r2 = c.query("SELECT a FROM t").unwrap();
        assert!(r2.cache_hit);
        // Different literal → different plan signature → miss.
        let r3 = c.query("SELECT a FROM t WHERE a > 1").unwrap();
        assert!(!r3.cache_hit);
    }

    #[test]
    fn interpreted_matches_compiled() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
        for i in 0..30 {
            c.execute(&format!("INSERT INTO t VALUES ({i}, 'v{}')", i % 3)).unwrap();
        }
        let sql = "SELECT b, COUNT(*) AS n FROM t WHERE a >= 10 GROUP BY b ORDER BY b";
        let compiled = c.query(sql).unwrap();
        let interp = c.query_interpreted(sql).unwrap();
        assert_eq!(compiled.rows, interp);
    }

    #[test]
    fn snapshot_restore_preserves_data() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR) DISTKEY(a) COMPOUND SORTKEY(a)")
            .unwrap();
        for i in 0..200 {
            c.execute(&format!("INSERT INTO t VALUES ({i}, 'r{i}')")).unwrap();
        }
        c.create_snapshot("snap-1", SnapshotKind::User).unwrap();
        let restored = Cluster::restore_from_snapshot(
            ClusterConfig::new("t2").nodes(2).slices_per_node(2),
            Arc::clone(c.s3()),
            "us-east-1",
            "t",
            "snap-1",
            None,
        )
        .unwrap();
        // Query before hydration: page faults serve reads.
        assert!(restored.hydration_progress() < 1.0);
        let r = restored.query("SELECT COUNT(*), MAX(a) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(200));
        assert_eq!(r.rows[0].get(1).as_i64(), Some(199));
        assert!(restored.restore_page_faults() > 0);
        // Background hydration completes.
        while restored.hydrate_step(16).unwrap() > 0 {}
        assert!((restored.hydration_progress() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn restored_cluster_refuses_snapshot_and_crash_after_hydration() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        c.create_snapshot("snap-1", SnapshotKind::User).unwrap();
        let restored = Cluster::restore_from_snapshot(
            ClusterConfig::new("t2").nodes(2).slices_per_node(2),
            Arc::clone(c.s3()),
            "us-east-1",
            "t",
            "snap-1",
            None,
        )
        .unwrap();
        while restored.hydrate_step(16).unwrap() > 0 {}
        assert!((restored.hydration_progress() - 1.0).abs() < 1e-9);
        let msg = "snapshots and crash images are not supported on a restored cluster";
        let snap = restored.create_snapshot("snap-2", SnapshotKind::User).unwrap_err();
        assert_eq!(snap.to_string(), RsError::InvalidState(msg.into()).to_string());
        let crash = restored.crash().err().expect("crash must be refused");
        assert_eq!(crash.to_string(), RsError::InvalidState(msg.into()).to_string());
    }

    #[test]
    fn encrypted_cluster_end_to_end() {
        let c = Cluster::launch(
            ClusterConfig::new("enc").nodes(2).slices_per_node(1).encrypted(true),
        )
        .unwrap();
        c.execute("CREATE TABLE s (x BIGINT, secret VARCHAR)").unwrap();
        c.execute("INSERT INTO s VALUES (1, 'TOPSECRETVALUE9999')").unwrap();
        let r = c.query("SELECT secret FROM s").unwrap();
        assert_eq!(r.rows[0].get(0).as_str(), Some("TOPSECRETVALUE9999"));
        // Snapshot + restore through the HSM.
        c.create_snapshot("esnap", SnapshotKind::User).unwrap();
        // S3 bytes contain no plaintext.
        let keys = c.s3().list("us-east-1", "enc/blocks/");
        assert!(!keys.is_empty());
        for k in &keys {
            let bytes = c.s3().get("us-east-1", k).unwrap();
            assert!(!bytes.windows(10).any(|w| w == b"TOPSECRETV"), "plaintext in S3");
        }
        let hsm = Arc::clone(c.hsm().unwrap());
        let restored = Cluster::restore_from_snapshot(
            ClusterConfig::new("enc2").nodes(2).slices_per_node(1).encrypted(true),
            Arc::clone(c.s3()),
            "us-east-1",
            "enc",
            "esnap",
            Some(hsm),
        )
        .unwrap();
        let r = restored.query("SELECT secret FROM s").unwrap();
        assert_eq!(r.rows[0].get(0).as_str(), Some("TOPSECRETVALUE9999"));
        // Key rotation leaves data readable.
        c.rotate_cluster_key().unwrap();
        let r = c.query("SELECT secret FROM s").unwrap();
        assert_eq!(r.rows[0].get(0).as_str(), Some("TOPSECRETVALUE9999"));
    }

    #[test]
    fn resize_preserves_data_and_decommissions_source() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR) DISTKEY(a)").unwrap();
        for i in 0..100 {
            c.execute(&format!("INSERT INTO t VALUES ({i}, 'x{i}')")).unwrap();
        }
        let target = c.resize(4, 2).unwrap();
        assert_eq!(c.state(), ClusterState::Decommissioned);
        assert!(c.query("SELECT 1 FROM t").is_err());
        let r = target.query("SELECT COUNT(*), MIN(a), MAX(a) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(100));
        assert_eq!(r.rows[0].get(2).as_i64(), Some(99));
        assert_eq!(target.topology().total_slices(), 8);
        // Writes continue on the target.
        target.execute("INSERT INTO t VALUES (100, 'new')").unwrap();
        let r = target.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(101));
    }

    #[test]
    fn diststyle_all_replicates_and_scans_once() {
        let c = small();
        c.execute("CREATE TABLE dim (id BIGINT, name VARCHAR) DISTSTYLE ALL").unwrap();
        c.execute("INSERT INTO dim VALUES (1, 'a'), (2, 'b')").unwrap();
        let r = c.query("SELECT COUNT(*) FROM dim").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(2), "no duplicate rows from copies");
        c.execute("CREATE TABLE f (id BIGINT, d BIGINT)").unwrap();
        for i in 0..20 {
            c.execute(&format!("INSERT INTO f VALUES ({i}, {})", (i % 2) + 1)).unwrap();
        }
        c.execute("ANALYZE").unwrap();
        let r = c
            .query("SELECT d.name, COUNT(*) FROM f JOIN dim d ON f.d = d.id GROUP BY d.name ORDER BY d.name")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].get(1).as_i64(), Some(10));
    }

    #[test]
    fn node_failure_is_transparent_to_queries() {
        let c = Cluster::launch(ClusterConfig::new("ha").nodes(4).slices_per_node(1)).unwrap();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        for i in 0..100 {
            c.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        // Kill a node; reads fall through to secondaries.
        let store = c.replicated_store().unwrap();
        store.kill_node(NodeId(1));
        let r = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(100));
        let (sec_reads, _) = store.fallthrough_stats();
        assert!(sec_reads > 0, "secondary replicas served reads");
        // Re-replication restores redundancy.
        let (blocks, _) = store.re_replicate(NodeId(1)).unwrap();
        assert!(blocks > 0);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let c = small();
        assert!(c.execute("CREATE TABLE t (a BIGINT, a VARCHAR)").is_err());
        assert!(c.query("SELECT * FROM missing").is_err());
        c.execute("CREATE TABLE t (a BIGINT NOT NULL)").unwrap();
        assert!(c.execute("INSERT INTO t VALUES (NULL)").is_err());
        assert!(c.execute("COPY t FROM 's3://nothing/'").is_err());
        assert!(c.execute("SELECT nope FROM t").is_err());
        // The cluster is still healthy after all those failures.
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64(), Some(1));
    }

    #[test]
    fn drop_table_frees_storage() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        for i in 0..50 {
            c.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let before = c.replicated_store().unwrap().local_bytes();
        assert!(before > 0);
        c.execute("DROP TABLE t").unwrap();
        assert_eq!(c.replicated_store().unwrap().local_bytes(), 0);
        assert!(c.execute("DROP TABLE if exists t").is_ok());
    }
}

#[cfg(test)]
mod observability_tests {
    use super::*;

    fn small() -> Arc<Cluster> {
        Cluster::launch(ClusterConfig::new("obs").nodes(2).slices_per_node(2)).unwrap()
    }

    #[test]
    fn stl_query_distinguishes_cache_hit_from_miss() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        c.query("SELECT COUNT(*) FROM t").unwrap(); // cold: compile
        c.query("SELECT COUNT(*) FROM t").unwrap(); // warm: cache hit
        let r = c
            .query("SELECT query, querytxt, compile_cache, rows FROM stl_query ORDER BY query")
            .unwrap();
        assert_eq!(r.rows.len(), 2, "two executed queries logged");
        assert_eq!(r.rows[0].get(2).as_str(), Some("miss"));
        assert_eq!(r.rows[1].get(2).as_str(), Some("hit"));
        assert_eq!(r.rows[0].get(1).as_str(), Some("SELECT COUNT(*) FROM t"));
        assert_eq!(r.rows[0].get(3).as_i64(), Some(1));
        // Counters agree with the system table.
        assert_eq!(c.trace().counter_value("plan_cache.hits"), 1);
        assert_eq!(c.trace().counter_value("plan_cache.misses"), 1);
        // System-table queries are not themselves recorded.
        let again = c.query("SELECT COUNT(*) FROM stl_query").unwrap();
        assert_eq!(again.rows[0].get(0).as_i64(), Some(2));
    }

    #[test]
    fn stl_explain_and_svl_query_metrics() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b BIGINT)").unwrap();
        for i in 0..40 {
            c.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 2)).unwrap();
        }
        c.query("SELECT SUM(b) FROM t WHERE a > 4").unwrap();
        let ex = c
            .query("SELECT query, step, plannode FROM stl_explain WHERE query = 1 ORDER BY step")
            .unwrap();
        assert!(ex.rows.len() >= 2, "plan has multiple nodes: {:?}", ex.rows);
        let joined: String =
            ex.rows.iter().map(|r| r.get(2).to_string()).collect::<Vec<_>>().join("\n");
        assert!(joined.contains("Seq Scan"), "{joined}");
        let m = c
            .query("SELECT rows_scanned, blocks_read FROM svl_query_metrics WHERE query = 1")
            .unwrap();
        assert_eq!(m.rows.len(), 1);
        // Post-pruning scan count: positive, bounded by the table size.
        let scanned = m.rows[0].get(0).as_i64().unwrap();
        assert!((1..=40).contains(&scanned), "{scanned}");
    }

    #[test]
    fn system_tables_join_and_aggregate() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        for _ in 0..3 {
            c.query("SELECT a FROM t").unwrap();
        }
        // System tables join with each other (leader-local).
        let r = c
            .query(
                "SELECT q.query, m.rows_scanned FROM stl_query q \
                 JOIN svl_query_metrics m ON q.query = m.query ORDER BY q.query",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        // But not with user tables.
        let err = c.query("SELECT * FROM stl_query q JOIN t ON q.query = t.a");
        assert!(err.is_err(), "mixed system/user join must be rejected");
    }

    #[test]
    fn query_spans_all_close_and_nest() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (7)").unwrap();
        c.query("SELECT a FROM t").unwrap();
        let sink = c.trace();
        assert_eq!(sink.open_spans(), 0, "no dangling spans");
        let roots = sink.records_named("query");
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        // Phase children parent to the root and fit inside it.
        for name in ["query.plan", "query.compile", "query.exec"] {
            let phases = sink.records_named(name);
            assert_eq!(phases.len(), 1, "{name}");
            assert_eq!(phases[0].parent, root.id, "{name} parents to query");
            assert!(phases[0].dur_ns <= root.dur_ns, "{name} fits in parent");
        }
    }

    #[test]
    fn copy_spans_record_ingest_phases() {
        let c = small();
        c.execute("CREATE TABLE logs (id BIGINT, msg VARCHAR)").unwrap();
        let mut csv = String::new();
        for i in 0..100 {
            csv.push_str(&format!("{i},m{i}\n"));
        }
        c.put_s3_object("in/part-0", csv.into_bytes());
        c.execute("COPY logs FROM 's3://in/'").unwrap();
        let sink = c.trace();
        let copies = sink.records_named("copy");
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].attr_u64("rows"), Some(100));
        assert_eq!(copies[0].attr_u64("objects"), Some(1));
        assert!(!sink.records_named("copy.append").is_empty());
        assert!(!sink.records_named("copy.seal").is_empty());
        assert!(!sink.records_named("copy.encoding_sample").is_empty());
        assert_eq!(sink.counter_value("copy.rows_loaded"), 100);
        assert_eq!(sink.open_spans(), 0);
    }

    #[test]
    fn restore_trace_records_page_faults_and_hydration() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        for i in 0..200 {
            c.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        c.create_snapshot("obs-snap", SnapshotKind::User).unwrap();
        let restored = Cluster::restore_from_snapshot(
            ClusterConfig::new("obs2").nodes(2).slices_per_node(2),
            Arc::clone(c.s3()),
            "us-east-1",
            "obs",
            "obs-snap",
            None,
        )
        .unwrap();
        let sink = Arc::clone(restored.trace());
        assert!(!sink.records_named("restore.open").is_empty());
        // Query before hydration: demand reads must page-fault.
        restored.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(
            sink.counter_value("restore.page_faults") > 0,
            "streaming restore serves early queries by faulting blocks"
        );
        assert!(!sink.records_named("restore.page_fault").is_empty());
        // Background hydration records steps and a blocks counter.
        while restored.hydrate_step(16).unwrap() > 0 {}
        assert!(!sink.records_named("restore.hydrate_step").is_empty());
        let faulted = sink.counter_value("restore.page_faults");
        let hydrated = sink.counter_value("restore.blocks_hydrated");
        assert!(faulted + hydrated > 0);
        assert_eq!(sink.open_spans(), 0);
        // The source cluster's mirror telemetry saw the backup drain.
        assert!(c.trace().counter_value("mirror.blocks_backed_up") > 0);
        assert_eq!(c.trace().gauge_value("mirror.backup_backlog"), 0);
    }

    #[test]
    fn explain_and_interpreted_queries_not_logged() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        c.query("EXPLAIN SELECT a FROM t").unwrap();
        c.query_interpreted("SELECT a FROM t").unwrap();
        let r = c.query("SELECT COUNT(*) FROM stl_query").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(0));
    }

    #[test]
    fn trace_exports_render() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        c.query("SELECT a FROM t").unwrap();
        let text = c.trace().export_text();
        assert!(text.contains("query"), "{text}");
        let json = c.trace().export_json();
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"name\": \"query\""), "{json}");
    }
}

#[cfg(test)]
mod autonomics_tests {
    use super::*;
    use crate::autonomics::{MaintenanceAction, MaintenancePolicy};

    #[test]
    fn maintenance_tick_vacuums_and_analyzes_when_needed() {
        let c = Cluster::launch(
            ClusterConfig::new("auto").nodes(1).slices_per_node(1).rows_per_group(64),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT) COMPOUND SORTKEY(k)").unwrap();
        let mut csv = String::new();
        for j in 0..1_024u64 {
            csv.push_str(&format!("{}\n", (j * 2_654_435_761) % 1_024));
        }
        c.put_s3_object("a/1", csv.into_bytes());
        // STATUPDATE OFF leaves stats stale; the load is fully unsorted.
        c.execute("COPY t FROM 's3://a/' STATUPDATE OFF").unwrap();
        let actions = c.maintenance_tick(&MaintenancePolicy::default()).unwrap();
        assert!(
            actions.contains(&MaintenanceAction::Vacuum { table: "t".into() }),
            "{actions:?}"
        );
        assert!(
            actions.contains(&MaintenanceAction::Analyze { table: "t".into() }),
            "{actions:?}"
        );
        // A second tick is a no-op: the system healed itself.
        let again = c.maintenance_tick(&MaintenancePolicy::default()).unwrap();
        assert!(again.is_empty(), "{again:?}");
        // And pruning now works (the point of the §3.2 future work).
        let r = c.query("SELECT COUNT(*) FROM t WHERE k BETWEEN 10 AND 20").unwrap();
        assert!(r.metrics.groups_skipped > 0);
    }

    #[test]
    fn maintenance_skips_healthy_tables() {
        let c = Cluster::launch(ClusterConfig::new("auto2").nodes(1).slices_per_node(1)).unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap(); // no sort key
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        let actions = c.maintenance_tick(&MaintenancePolicy::default()).unwrap();
        // No sort key → nothing to vacuum; INSERT is not COPY-tracked.
        assert!(actions.iter().all(|a| !matches!(a, MaintenanceAction::Vacuum { .. })));
    }

    #[test]
    fn relationalize_json_end_to_end() {
        let c = Cluster::launch(ClusterConfig::new("rel").nodes(2).slices_per_node(2)).unwrap();
        let logs = r#"{"user_id": 7, "event": "click", "amount": 1.25, "at": "2015-05-31 10:00:00"}
{"user_id": 8, "event": "view", "at": "2015-05-31 10:00:01"}
{"user_id": 9, "event": "buy", "amount": 15, "promo": true}"#;
        c.put_s3_object("lake/events-0.json", logs.as_bytes().to_vec());
        let (ddl, loaded) = c.relationalize_json("events", "s3://lake/").unwrap();
        assert_eq!(loaded, 3);
        assert!(ddl.contains("user_id BIGINT"), "{ddl}");
        assert!(ddl.contains("amount DOUBLE PRECISION"), "{ddl}");
        assert!(ddl.contains("at TIMESTAMP"), "{ddl}");
        assert!(ddl.contains("promo BOOLEAN"), "{ddl}");
        let r = c
            .query("SELECT COUNT(*), SUM(amount) FROM events WHERE user_id >= 8")
            .unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(2));
        assert_eq!(r.rows[0].get(1).as_f64(), Some(15.0));
    }

    #[test]
    fn usage_stats_collected() {
        let c = Cluster::launch(ClusterConfig::new("usage").nodes(1).slices_per_node(1)).unwrap();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        for _ in 0..3 {
            c.query("SELECT COUNT(*) FROM t").unwrap();
        }
        c.query("SELECT a FROM t ORDER BY a LIMIT 1").unwrap();
        let _ = c.execute("SELECT broken FROM t"); // error → telemetry
        let features = c.usage_stats().top_features();
        assert_eq!(features[0].0, "SELECT");
        assert_eq!(features[0].1, 4);
        let shapes = c.usage_stats().top_plan_shapes();
        assert!(shapes.iter().any(|(s, _)| s.contains("HashAggregate")), "{shapes:?}");
        assert!(shapes.iter().any(|(s, _)| s.contains("Limit")), "{shapes:?}");
        let errors = c.usage_stats().top_errors();
        assert_eq!(errors[0].0, "ANALYSIS");
    }
}

#[cfg(test)]
mod redistribution_tests {
    use super::*;
    use crate::autonomics::{MaintenanceAction, MaintenancePolicy};

    #[test]
    fn small_even_dimension_converts_to_all_and_join_goes_local() {
        let c = Cluster::launch(ClusterConfig::new("red").nodes(2).slices_per_node(2)).unwrap();
        c.execute("CREATE TABLE dim (id BIGINT, label VARCHAR)").unwrap(); // EVEN
        c.execute("CREATE TABLE fact (id BIGINT, d BIGINT) DISTKEY(id)").unwrap();
        for i in 0..50 {
            c.execute(&format!("INSERT INTO dim VALUES ({i}, 'l{i}')")).unwrap();
        }
        for i in 0..400 {
            c.execute(&format!("INSERT INTO fact VALUES ({i}, {})", i % 50)).unwrap();
        }
        c.execute("ANALYZE").unwrap();
        // Before: joining on a non-distkey column moves bytes.
        let before = c
            .query("SELECT COUNT(*) FROM fact f JOIN dim d ON f.d = d.id")
            .unwrap();
        assert_eq!(before.rows[0].get(0).as_i64(), Some(400));
        assert!(before.metrics.exchange_bytes() > 0, "{:?}", before.metrics);
        // Maintenance converts the small dimension to ALL.
        let actions = c.maintenance_tick(&MaintenancePolicy::default()).unwrap();
        assert!(
            actions.contains(&MaintenanceAction::RedistributeAll { table: "dim".into() }),
            "{actions:?}"
        );
        let after = c
            .query("SELECT COUNT(*) FROM fact f JOIN dim d ON f.d = d.id")
            .unwrap();
        assert_eq!(after.rows[0].get(0).as_i64(), Some(400), "same answer");
        assert_eq!(
            after.metrics.exchange_bytes(),
            0,
            "join is now DS_DIST_ALL_NONE: {}",
            after.plan
        );
        // Idempotent: a second tick does nothing (dim is already ALL;
        // fact is too big… unless below the threshold — use a tight one).
        let again = c
            .maintenance_tick(&MaintenancePolicy {
                auto_all_max_rows: Some(10),
                ..Default::default()
            })
            .unwrap();
        assert!(again.is_empty(), "{again:?}");
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use crate::session::SessionOpts;
    use redsim_faultkit::{fp, ErrClass, FaultSpec};

    fn small() -> Arc<Cluster> {
        Cluster::launch(ClusterConfig::new("sess").nodes(2).slices_per_node(2)).unwrap()
    }

    fn seed(c: &Arc<Cluster>) {
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
    }

    #[test]
    fn result_cache_hit_skips_wlm_compile_and_exec() {
        let c = small();
        seed(&c);
        let s = c.connect(SessionOpts::new("ada")).unwrap();
        let admitted = c.trace().counter_value("wlm.admitted");
        let compiles = c.trace().records_named("query.compile").len();
        let execs = c.trace().records_named("query.exec").len();
        let cold = s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(!cold.result_cache_hit);
        // Whitespace/case differences and a trailing ';' still hit.
        let warm = s.query("select   COUNT(*)  from T ;").unwrap();
        assert!(warm.result_cache_hit);
        assert!(!warm.cache_hit, "plan-cache flag stays false on a result-cache hit");
        assert_eq!(cold.rows, warm.rows);
        assert_eq!(cold.columns, warm.columns);
        // Only the cold run went through admission, compile and exec.
        assert_eq!(c.trace().counter_value("wlm.admitted"), admitted + 1);
        assert_eq!(c.trace().records_named("query.compile").len(), compiles + 1);
        assert_eq!(c.trace().records_named("query.exec").len(), execs + 1);
        assert_eq!(c.result_cache_stats(), (1, 1));
        assert_eq!(s.result_cache_hits(), 1);
        // stl_query distinguishes the two, and attributes both to the session.
        let stl = c
            .query("SELECT result_cache, session, userid FROM stl_query ORDER BY query")
            .unwrap();
        assert_eq!(stl.rows.len(), 2);
        assert_eq!(stl.rows[0].get(0).as_str(), Some("miss"));
        assert_eq!(stl.rows[1].get(0).as_str(), Some("hit"));
        assert_eq!(stl.rows[1].get(1).as_i64(), Some(s.id() as i64));
        assert_eq!(stl.rows[1].get(2).as_i64(), Some(s.userid() as i64));
    }

    #[test]
    fn commits_invalidate_but_rolled_back_copy_does_not() {
        let c = small();
        seed(&c);
        let s = c.connect(SessionOpts::new("ada")).unwrap();
        let v0 = c.catalog_version();
        s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        // A COPY that dies mid-load rolls back; the cache must survive.
        c.put_s3_object("in/rows.csv", b"9,q\n".to_vec());
        c.faults()
            .configure(fp::COPY_FETCH_OBJECT, FaultSpec::err(ErrClass::NotFound).once());
        assert!(s.execute("COPY t FROM 's3://in/'").is_err());
        assert_eq!(c.catalog_version(), v0, "rolled-back write must not bump");
        assert!(s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        // A COPY against a missing prefix fails before the txn even opens.
        assert!(s.execute("COPY t FROM 's3://nowhere/'").is_err());
        assert!(s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        // The same COPY, committed, invalidates: the re-run sees new rows.
        s.execute("COPY t FROM 's3://in/'").unwrap();
        assert!(c.catalog_version() > v0);
        let fresh = s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(!fresh.result_cache_hit);
        assert_eq!(fresh.rows[0].get(0).as_i64(), Some(4));
    }

    #[test]
    fn cache_partitions_by_user_group_and_respects_opt_out() {
        let c = small();
        seed(&c);
        let s = c.connect(SessionOpts::new("ada").result_cache(false)).unwrap();
        s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(!s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        assert_eq!(c.result_cache_stats(), (0, 0), "opted-out sessions never probe");
        // SET enable_result_cache_for_session on → fills, then hits.
        s.set("enable_result_cache_for_session", "on").unwrap();
        s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        // A session in a WLM group has a different cache key.
        let g = c.connect(SessionOpts::new("bob").user_group("etl_users")).unwrap();
        assert!(!g.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        assert!(g.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        assert!(s.set("nonsense_setting", "on").is_err());
        assert!(s.set("compupdate", "sideways").is_err());
    }

    #[test]
    fn compupdate_session_default_applies_when_copy_omits_it() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
        c.put_s3_object("in/rows.csv", b"1,x\n2,y\n".to_vec());
        let s = c.connect(SessionOpts::new("etl").comp_update_default(false)).unwrap();
        s.execute("COPY t FROM 's3://in/'").unwrap();
        // COMPUPDATE off → no encoding-sample event was emitted.
        assert!(c.trace().records_named("copy.encoding_sample").is_empty());
        s.set("compupdate", "on").unwrap();
        s.execute("COPY t FROM 's3://in/'").unwrap();
        assert_eq!(c.trace().records_named("copy.encoding_sample").len(), 1);
        // An explicit COMPUPDATE OFF overrides the (now-on) default.
        s.execute("COPY t FROM 's3://in/' COMPUPDATE OFF").unwrap();
        assert_eq!(c.trace().records_named("copy.encoding_sample").len(), 1);
    }

    #[test]
    fn sessions_surface_in_system_tables_and_clean_up_on_drop() {
        let c = small();
        let s1 = c.connect(SessionOpts::new("ada").user_group("analyst")).unwrap();
        let s2 = c.connect(SessionOpts::new("bob")).unwrap();
        assert_eq!(c.trace().gauge_value("sessions.active"), 2);
        assert_eq!(s1.userid(), 100);
        assert_eq!(s2.userid(), 101);
        // The observing query itself runs on an implicit session, which is
        // live while stv_sessions materializes — filter it out by name.
        let stv = c
            .query("SELECT user_name, user_group, state FROM stv_sessions WHERE user_name <> 'default' ORDER BY session")
            .unwrap();
        assert_eq!(stv.rows.len(), 2);
        assert_eq!(stv.rows[0].get(0).as_str(), Some("ada"));
        assert_eq!(stv.rows[0].get(1).as_str(), Some("analyst"));
        assert_eq!(stv.rows[0].get(2).as_str(), Some("idle"));
        drop(s1);
        assert_eq!(c.trace().gauge_value("sessions.active"), 1);
        drop(s2);
        assert_eq!(c.trace().gauge_value("sessions.active"), 0);
        assert_eq!(c.session_manager().active_count(), 0);
        // Two connects + two disconnects; implicit sessions never log.
        let log = c
            .query("SELECT event, user_name FROM stl_connection_log ORDER BY at_us")
            .unwrap();
        assert_eq!(log.rows.len(), 4);
        assert_eq!(log.rows[0].get(0).as_str(), Some("initiating session"));
        assert_eq!(log.rows[3].get(0).as_str(), Some("disconnecting session"));
        // Userids are stable across reconnects of the same user.
        let s3 = c.connect(SessionOpts::new("ada")).unwrap();
        assert_eq!(s3.userid(), 100);
    }

    #[test]
    fn sessionless_query_routes_through_implicit_session() {
        let c = small();
        seed(&c);
        let r = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(!r.result_cache_hit, "implicit sessions never use the result cache");
        assert_eq!(c.session_manager().active_count(), 0, "implicit session unregistered");
        // The stl_query row carries a real session id, the default userid,
        // and result_cache 'off' — identical telemetry shape to Session.
        let stl = c
            .query("SELECT session, userid, result_cache FROM stl_query ORDER BY query")
            .unwrap();
        assert!(stl.rows[0].get(0).as_i64().unwrap() > 0);
        assert_eq!(stl.rows[0].get(1).as_i64(), Some(100));
        assert_eq!(stl.rows[0].get(2).as_str(), Some("off"));
    }

    #[test]
    fn plan_cache_does_not_survive_schema_change() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
        let r1 = c.query("SELECT a FROM t").unwrap();
        assert_eq!(r1.rows[0].get(0).as_i64(), Some(1));
        // Same text, recompiled fresh each time the schema changes: drop
        // and re-create t with the column types swapped.
        c.execute("DROP TABLE t").unwrap();
        c.execute("CREATE TABLE t (a VARCHAR, b BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES ('y', 2)").unwrap();
        let (_, misses_before) = c.plan_cache_stats();
        let r2 = c.query("SELECT a FROM t").unwrap();
        assert!(!r2.cache_hit, "stale plan must not be reused across DDL");
        let (_, misses_after) = c.plan_cache_stats();
        assert_eq!(misses_after, misses_before + 1);
        assert_eq!(r2.rows[0].get(0).as_str(), Some("y"));
    }

    // ------------------------------------------------------------------
    // Multi-writer transactions + crash recovery
    // ------------------------------------------------------------------

    /// Writers on distinct tables no longer serialize on a global mutex:
    /// while one transaction holds table `a`'s writer lock, a COPY into
    /// table `b` commits on the same thread (it could not if a global
    /// lock were held), and a write to `a` fails first-committer-wins
    /// with a retryable serializable conflict logged to stl_tr_conflict.
    #[test]
    fn table_writers_are_independent_and_conflicts_are_serializable() {
        let c = small();
        c.execute("CREATE TABLE a (k BIGINT)").unwrap();
        c.execute("CREATE TABLE b (k BIGINT)").unwrap();
        c.put_s3_object("w/a", b"1\n2\n".to_vec());
        c.put_s3_object("w/b", b"3\n4\n".to_vec());

        let held = TableWrite::begin(&c, "a").unwrap();

        // Independent table: commits while `a`'s writer mutex is held.
        let s = c.execute("COPY b FROM 's3://w/b'").unwrap();
        assert_eq!(s.rows_affected, 2);

        // Same table: first committer wins, loser told to retry.
        let err = c.execute("COPY a FROM 's3://w/a'").unwrap_err();
        assert!(matches!(err, RsError::Serializable(_)), "{err}");
        assert!(err.is_retryable(), "serializable conflicts are retryable");
        assert_eq!(c.trace().counter_value("txn.conflicts"), 1);
        drop(held);

        // Once the holder releases, the same statement goes through.
        assert_eq!(c.execute("COPY a FROM 's3://w/a'").unwrap().rows_affected, 2);
        let log = c.query("SELECT table_name FROM stl_tr_conflict").unwrap();
        assert_eq!(log.rows.len(), 1);
        assert_eq!(log.rows[0].get(0).as_str(), Some("a"));
    }

    /// The acceptance criterion end to end: concurrent COPYs into
    /// different tables all commit with zero conflicts.
    #[test]
    fn concurrent_copies_into_distinct_tables_all_commit() {
        let c = small();
        for i in 0..4 {
            c.execute(&format!("CREATE TABLE t{i} (k BIGINT, v BIGINT) DISTKEY(k)")).unwrap();
            let mut csv = String::new();
            for r in 0..200 {
                csv.push_str(&format!("{r},{}\n", r * i));
            }
            c.put_s3_object(&format!("in{i}/rows"), csv.into_bytes());
        }
        let results = par::map((0..4).collect::<Vec<_>>(), |i| {
            c.execute(&format!("COPY t{i} FROM 's3://in{i}/'")).map(|s| s.rows_affected)
        });
        for r in results {
            assert_eq!(r.unwrap(), 200);
        }
        assert_eq!(c.trace().counter_value("txn.conflicts"), 0, "distinct tables never conflict");
        for i in 0..4 {
            let q = c.query(&format!("SELECT COUNT(*) FROM t{i}")).unwrap();
            assert_eq!(q.rows[0].get(0).as_i64(), Some(200));
        }
    }

    #[test]
    fn crash_recover_preserves_committed_writes() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT, v VARCHAR) COMPOUND SORTKEY(k)").unwrap();
        let mut csv = String::new();
        for i in 0..300 {
            csv.push_str(&format!("{i},row-{i}\n"));
        }
        c.put_s3_object("load/rows", csv.into_bytes());
        c.execute("COPY t FROM 's3://load/'").unwrap();
        c.execute("INSERT INTO t VALUES (1000, 'tail-a'), (1001, 'tail-b')").unwrap();
        let before = c.query("SELECT COUNT(*), SUM(k), MAX(v) FROM t").unwrap();

        let image = c.crash().unwrap();
        assert!(c.query("SELECT COUNT(*) FROM t").is_err(), "crashed cluster is gone");

        let r = Cluster::recover(image).unwrap();
        let after = r.query("SELECT COUNT(*), SUM(k), MAX(v) FROM t").unwrap();
        assert_eq!(after.rows[0].get(0).as_i64(), before.rows[0].get(0).as_i64());
        assert_eq!(after.rows[0].get(1).as_i64(), before.rows[0].get(1).as_i64());
        assert_eq!(after.rows[0].get(2).as_str(), before.rows[0].get(2).as_str());
        assert_eq!(r.rows_estimate("t"), Some(302));
        // Recovered clusters keep working as writers.
        r.execute("INSERT INTO t VALUES (2000, 'post-recovery')").unwrap();
        assert_eq!(r.rows_estimate("t"), Some(303));
    }

    #[test]
    fn crash_discards_uncommitted_write_and_scrubs_orphans() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.put_s3_object("a/rows", b"1\n2\n3\n".to_vec());
        c.execute("COPY t FROM 's3://a/'").unwrap();

        // The next COPY dies after its blocks hit the mirror but before
        // the WAL commit record: a hard crash mid-commit. The armed
        // crash flag keeps TableWrite::drop from rolling the blocks back —
        // exactly the state a real power cut leaves behind.
        c.arm_hard_crash();
        c.faults().configure(fp::WAL_COMMIT, FaultSpec::err(ErrClass::Fault).once());
        c.put_s3_object("b/rows", b"4\n5\n6\n7\n".to_vec());
        c.execute("COPY t FROM 's3://b/'").unwrap_err();

        let image = c.crash().unwrap();
        let r = Cluster::recover(image).unwrap();
        let q = r.query("SELECT COUNT(*), SUM(k) FROM t").unwrap();
        assert_eq!(q.rows[0].get(0).as_i64(), Some(3), "uncommitted COPY must be invisible");
        assert_eq!(q.rows[0].get(1).as_i64(), Some(6));
        assert_eq!(r.rows_estimate("t"), Some(3));
        assert!(
            r.trace().counter_value("recovery.orphan_blocks_scrubbed") > 0,
            "the torn COPY's blocks are orphans and must be scrubbed"
        );
    }

    #[test]
    fn recovery_replays_wal_deltas_after_last_checkpoint() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap(); // checkpoint
        c.execute("INSERT INTO t VALUES (1)").unwrap(); // delta
        c.execute("INSERT INTO t VALUES (2), (3)").unwrap(); // delta
        let image = c.crash().unwrap();
        assert!(image.wal_len() > 0, "the redo log must carry the deltas");
        let r = Cluster::recover(image).unwrap();
        assert!(r.trace().counter_value("recovery.replayed_deltas") >= 2);
        let q = r.query("SELECT SUM(k) FROM t").unwrap();
        assert_eq!(q.rows[0].get(0).as_i64(), Some(6));
        // Recovery compacts: a fresh crash image starts from the new
        // checkpoint with nothing left to replay.
        let again = Cluster::recover(r.crash().unwrap()).unwrap();
        assert_eq!(again.trace().counter_value("recovery.replayed_deltas"), 0);
        let q2 = again.query("SELECT SUM(k) FROM t").unwrap();
        assert_eq!(q2.rows[0].get(0).as_i64(), Some(6));
    }

    /// A crashed handle shares its keyring with the cluster recovered
    /// from its crash image, so it must refuse to rotate that key.
    #[test]
    fn crashed_handle_refuses_key_rotation() {
        let cfg = ClusterConfig::new("rot").nodes(2).slices_per_node(1).encrypted(true);
        let c = Cluster::launch(cfg).unwrap();
        c.execute("CREATE TABLE s (x BIGINT)").unwrap();
        c.execute("INSERT INTO s VALUES (7)").unwrap();
        let r = Cluster::recover(c.crash().unwrap()).unwrap();
        let wrapped =
            |c: &Cluster| c.keys.as_ref().unwrap().keyring.wrapped_cluster_key().to_bytes();
        let before = wrapped(&r);
        let err = c.rotate_cluster_key().unwrap_err();
        assert!(matches!(err, RsError::InvalidState(_)), "{err}");
        assert_eq!(wrapped(&r), before, "the recovered cluster's key must not move");
        r.rotate_cluster_key().unwrap();
        assert_ne!(wrapped(&r), before);
        assert_eq!(r.query("SELECT SUM(x) FROM s").unwrap().rows[0].get(0).as_i64(), Some(7));
    }

    /// ANALYZE's undo puts the old optimizer stats back when its
    /// checkpoint fails: stats that never became durable are not live.
    #[test]
    fn failed_analyze_restores_stats() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let entry = c.catalog.read().get("t").unwrap();
        assert!(entry.stats.read().is_none(), "INSERT does not analyze");
        c.faults().configure(fp::WAL_APPEND, FaultSpec::err(ErrClass::Fault).once());
        c.execute("ANALYZE t").unwrap_err();
        assert!(entry.stats.read().is_none(), "a failed ANALYZE left its stats live");
        c.execute("ANALYZE t").unwrap();
        assert_eq!(entry.stats.read().as_ref().map(|s| s.rows), Some(2));
    }

    /// Hit/miss attribution comes from each lookup's own outcome, so a
    /// concurrent session's hit never turns this query's miss into a hit.
    #[test]
    fn plan_cache_counters_match_cache_stats_under_concurrency() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        par::map(vec![0u64, 1], |w| {
            for i in 0..300u64 {
                c.query(&format!("SELECT COUNT(*) FROM t WHERE a > {}", (i * 7 + w) % 40)).unwrap();
            }
        });
        let (hits, misses) = c.plan_cache_stats();
        assert!(hits > 0 && misses > 0, "{hits}/{misses}");
        assert_eq!(c.trace().counter_value("plan_cache.hits"), hits);
        assert_eq!(c.trace().counter_value("plan_cache.misses"), misses);
    }
}
