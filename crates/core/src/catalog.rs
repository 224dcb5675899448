//! The leader node's catalog: table definitions and their per-slice
//! storage.

use redsim_testkit::sync::{Mutex, RwLock};
use redsim_common::codec::{Reader, Writer};
use redsim_common::{Result, RsError, Schema};
use redsim_distribution::{ClusterTopology, DistStyle, RowRouter};
use redsim_storage::stats::TableStats;
use redsim_storage::table::{SliceTable, SortKeySpec, TableConfig};
use redsim_storage::BlockId;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// An immutable, published snapshot of one table's storage state — the
/// unit of MVCC visibility. SELECT captures the `Arc` once at statement
/// start and scans it without ever touching the live slice mutexes, so
/// readers neither block on nor observe a half-applied concurrent write.
/// Cheap to build: slice *manifests* are cloned (group descriptors plus
/// the small unsealed buffer), never block payloads.
pub struct TableVersion {
    /// Transaction that published this version (0 = table creation).
    pub txn: u64,
    /// One sealed slice image per global slice id.
    pub slices: Vec<SliceTable>,
    pub rows_estimate: u64,
}

/// One table: definition + one [`SliceTable`] per slice.
pub struct TableEntry {
    pub name: String,
    pub schema: Schema,
    pub dist_style: DistStyle,
    pub sort_key: SortKeySpec,
    /// Per-slice storage, index = global slice id. This is the *live*
    /// write state; readers go through [`TableEntry::snapshot`].
    pub slices: Vec<Mutex<SliceTable>>,
    /// Row router (owns the EVEN round-robin cursor).
    pub router: Mutex<RowRouter>,
    /// ANALYZE output; also refreshed by COPY (STATUPDATE).
    pub stats: RwLock<Option<TableStats>>,
    /// Cheap running row count (kept even without ANALYZE).
    pub rows_estimate: RwLock<u64>,
    /// Last committed version (what SELECT sees).
    pub committed: RwLock<Arc<TableVersion>>,
    /// First-committer-wins writer claim: a COPY/INSERT sets this for
    /// the statement's duration; a second writer on the same table finds
    /// it set and fails with `RsError::Serializable` instead of queueing.
    /// Writers to *different* tables proceed in parallel. The claim is an
    /// `Acquire` swap and the release a `Release` store, so each writer
    /// sees everything the previous one did to the table.
    pub writer: AtomicBool,
}

impl TableEntry {
    pub fn new(
        name: String,
        schema: Schema,
        dist_style: DistStyle,
        sort_key: SortKeySpec,
        topology: &ClusterTopology,
        rows_per_group: usize,
    ) -> Result<Arc<TableEntry>> {
        let config = TableConfig {
            rows_per_group,
            sort_key: sort_key.clone(),
            auto_compress: true,
        };
        let slices = (0..topology.total_slices())
            .map(|_| Ok(Mutex::new(SliceTable::new(schema.clone(), config.clone())?)))
            .collect::<Result<Vec<_>>>()?;
        let v0 = TableVersion {
            txn: 0,
            slices: slices.iter().map(|s| s.lock().clone()).collect(),
            rows_estimate: 0,
        };
        Ok(Arc::new(TableEntry {
            router: Mutex::new(RowRouter::new(dist_style.clone(), topology)),
            name,
            schema,
            dist_style,
            sort_key,
            slices,
            stats: RwLock::new(None),
            rows_estimate: RwLock::new(0),
            committed: RwLock::new(Arc::new(v0)),
            writer: AtomicBool::new(false),
        }))
    }

    /// The committed version a SELECT should scan. One `Arc` clone; the
    /// caller holds it for the statement and never touches live slices.
    pub fn snapshot(&self) -> Arc<TableVersion> {
        self.committed.read().clone()
    }

    /// Publish the live slice state as the new committed version.
    /// Called with the table's `writer` claim held (or under the global
    /// exclusive `data_lock` for DDL/VACUUM paths), *after* the WAL
    /// commit mark — publish order is durability first, visibility
    /// second, so a crash between the two re-derives the version at
    /// recovery rather than losing it.
    pub fn publish(&self, txn: u64) {
        let v = TableVersion {
            txn,
            slices: self.slices.iter().map(|s| s.lock().clone()).collect(),
            rows_estimate: *self.rows_estimate.read(),
        };
        *self.committed.write() = Arc::new(v);
    }

    /// Every block the live slices reference.
    pub fn block_ids(&self) -> Vec<BlockId> {
        self.slices.iter().flat_map(|s| s.lock().block_ids()).collect()
    }

    /// Total rows across slices (ALL-distributed tables report one copy).
    pub fn logical_rows(&self) -> u64 {
        let total: u64 = self.slices.iter().map(|s| s.lock().row_count()).sum();
        if matches!(self.dist_style, DistStyle::All) {
            total / self.slices.len().max(1) as u64
        } else {
            total
        }
    }
}

/// The catalog: a name → table map behind the leader's serialization
/// point.
#[derive(Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<TableEntry>>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn create(&mut self, entry: Arc<TableEntry>) -> Result<()> {
        let key = entry.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(RsError::AlreadyExists(format!("relation {:?}", entry.name)));
        }
        self.tables.insert(key, entry);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<Arc<TableEntry>> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| RsError::NotFound(format!("relation {name:?}")))
    }

    pub fn get(&self, name: &str) -> Option<Arc<TableEntry>> {
        self.tables.get(&name.to_ascii_lowercase()).cloned()
    }

    /// [`Catalog::get`], with an unknown name as a `NotFound` error.
    pub(crate) fn require(&self, name: &str) -> Result<Arc<TableEntry>> {
        self.get(name).ok_or_else(|| RsError::NotFound(format!("relation {name:?}")))
    }

    /// The VACUUM / ANALYZE targets: `table`, or every table when `None`.
    pub(crate) fn targets(&self, table: Option<&str>) -> Result<Vec<Arc<TableEntry>>> {
        match table {
            Some(t) => Ok(vec![self.require(t)?]),
            None => Ok(self.tables().cloned().collect()),
        }
    }

    pub fn names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.name.clone()).collect()
    }

    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableEntry>> {
        self.tables.values()
    }

    /// Serialize the full catalog (definitions + slice-table metadata,
    /// not blocks) for snapshot manifests.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.tables.len() as u32);
        for t in self.tables.values() {
            w.put_str(&t.name);
            t.schema.encode(w);
            match &t.dist_style {
                DistStyle::Even => w.put_u8(0),
                DistStyle::Key(c) => {
                    w.put_u8(1);
                    w.put_u32(*c as u32);
                }
                DistStyle::All => w.put_u8(2),
            }
            match &t.sort_key {
                SortKeySpec::None => w.put_u8(0),
                SortKeySpec::Compound(cols) => {
                    w.put_u8(1);
                    w.put_u32(cols.len() as u32);
                    for &c in cols {
                        w.put_u32(c as u32);
                    }
                }
                SortKeySpec::Interleaved(cols) => {
                    w.put_u8(2);
                    w.put_u32(cols.len() as u32);
                    for &c in cols {
                        w.put_u32(c as u32);
                    }
                }
            }
            w.put_u64(*t.rows_estimate.read());
            w.put_u32(t.slices.len() as u32);
            for s in &t.slices {
                s.lock().encode_meta(w);
            }
        }
    }

    /// Rebuild a catalog from snapshot metadata. The restored cluster may
    /// have a different topology; slice tables beyond the new slice count
    /// are *merged round-robin* onto the new slices? No — restore keeps
    /// the snapshot's slice count (the paper restores to an equivalently
    /// sized cluster; resizing afterwards is a resize operation).
    pub fn decode(r: &mut Reader, topology: &ClusterTopology) -> Result<Catalog> {
        let n = r.get_u32()? as usize;
        let mut catalog = Catalog::new();
        for _ in 0..n {
            let name = r.get_str()?;
            let schema = Schema::decode(r)?;
            let dist_style = match r.get_u8()? {
                0 => DistStyle::Even,
                1 => DistStyle::Key(r.get_u32()? as usize),
                2 => DistStyle::All,
                t => return Err(RsError::Codec(format!("bad dist tag {t}"))),
            };
            let sort_key = match r.get_u8()? {
                0 => SortKeySpec::None,
                tag @ (1 | 2) => {
                    let k = r.get_u32()? as usize;
                    let mut cols = Vec::with_capacity(k);
                    for _ in 0..k {
                        cols.push(r.get_u32()? as usize);
                    }
                    if tag == 1 {
                        SortKeySpec::Compound(cols)
                    } else {
                        SortKeySpec::Interleaved(cols)
                    }
                }
                t => return Err(RsError::Codec(format!("bad sort tag {t}"))),
            };
            let rows_estimate = r.get_u64()?;
            let n_slices = r.get_u32()? as usize;
            if n_slices != topology.total_slices() as usize {
                return Err(RsError::InvalidState(format!(
                    "snapshot has {n_slices} slices; restore target has {} — restore to a \
                     matching configuration, then resize",
                    topology.total_slices()
                )));
            }
            let mut slices = Vec::with_capacity(n_slices);
            for _ in 0..n_slices {
                slices.push(Mutex::new(SliceTable::decode_meta(r)?));
            }
            let v0 = TableVersion {
                txn: 0,
                slices: slices.iter().map(|s| s.lock().clone()).collect(),
                rows_estimate,
            };
            catalog.create(Arc::new(TableEntry {
                router: Mutex::new(RowRouter::new(dist_style.clone(), topology)),
                name,
                schema,
                dist_style,
                sort_key,
                slices,
                stats: RwLock::new(None),
                rows_estimate: RwLock::new(rows_estimate),
                committed: RwLock::new(Arc::new(v0)),
                writer: AtomicBool::new(false),
            }))?;
        }
        Ok(catalog)
    }
}

/// `CatalogView` adapter for the SQL planner.
pub struct PlannerCatalog<'a> {
    pub catalog: &'a Catalog,
    pub total_slices: u32,
}

impl redsim_sql::CatalogView for PlannerCatalog<'_> {
    fn table(&self, name: &str) -> Option<redsim_sql::TableMeta> {
        self.catalog.get(name).map(|t| {
            let rows = t
                .stats
                .read()
                .as_ref()
                .map(|s| s.rows)
                .unwrap_or_else(|| *t.rows_estimate.read());
            redsim_sql::TableMeta {
                name: t.name.clone(),
                schema: t.schema.clone(),
                dist_style: t.dist_style.clone(),
                sort_key: t.sort_key.clone(),
                rows,
            }
        })
    }

    fn total_slices(&self) -> u32 {
        self.total_slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::{ColumnDef, DataType};

    fn topo() -> ClusterTopology {
        ClusterTopology::new(2, 2).unwrap()
    }

    fn entry(name: &str) -> Arc<TableEntry> {
        TableEntry::new(
            name.to_string(),
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int8),
                ColumnDef::new("v", DataType::Varchar),
            ])
            .unwrap(),
            DistStyle::Key(0),
            SortKeySpec::Compound(vec![0]),
            &topo(),
            1024,
        )
        .unwrap()
    }

    #[test]
    fn create_get_drop() {
        let mut c = Catalog::new();
        c.create(entry("T1")).unwrap();
        assert!(c.get("t1").is_some(), "case-insensitive");
        assert!(c.create(entry("t1")).is_err(), "duplicate rejected");
        c.drop_table("T1").unwrap();
        assert!(c.get("t1").is_none());
        assert!(c.drop_table("t1").is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut c = Catalog::new();
        c.create(entry("clicks")).unwrap();
        *c.get("clicks").unwrap().rows_estimate.write() = 123;
        let mut w = Writer::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let c2 = Catalog::decode(&mut Reader::new(&bytes), &topo()).unwrap();
        let t = c2.get("clicks").unwrap();
        assert_eq!(t.dist_style, DistStyle::Key(0));
        assert_eq!(t.sort_key, SortKeySpec::Compound(vec![0]));
        assert_eq!(*t.rows_estimate.read(), 123);
        assert_eq!(t.slices.len(), 4);
    }

    #[test]
    fn topology_mismatch_rejected() {
        let mut c = Catalog::new();
        c.create(entry("t")).unwrap();
        let mut w = Writer::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let bigger = ClusterTopology::new(4, 2).unwrap();
        assert!(Catalog::decode(&mut Reader::new(&bytes), &bigger).is_err());
    }
}
