//! # pscc-wal
//!
//! The logging substrate for the paper's **redo-at-server** update
//! propagation scheme (paper §3.3):
//!
//! * a client generates a [`LogRecord`] whenever it updates a cached
//!   object, storing it in its local [`LogCache`];
//! * log records are shipped to the owning server at commit (or earlier,
//!   when a dirty page is evicted from the client cache);
//! * the server's [`ServerLog`] assigns LSNs, and [`apply_redo`] installs
//!   the updates into the server's copy of the data — re-reading pages
//!   from disk when they are not resident (the cost the simulation
//!   charges);
//! * on abort, the server undoes already-shipped updates with
//!   [`apply_undo`], and the client simply discards its log cache and
//!   purges the updated objects (paper §3.3).
//!
//! Two-phase commit is represented by control records
//! ([`LogPayload::Prepare`], [`LogPayload::Commit`], [`LogPayload::Abort`])
//! whose forcing the engine charges as log-disk writes.
//!
//! # Restart recovery
//!
//! The server log is *replayable*: [`ServerLog::force`] appends every
//! newly durable record — and only those, so a force costs O(bytes
//! forced), not O(tail) — to a byte image of checksummed frames, each
//! holding one record in a fixed little-endian binary encoding (layout
//! in DESIGN.md §6), and
//! [`ServerLog::checkpoint`] takes a fuzzy checkpoint — a base volume
//! snapshot, the active-transaction table (with prepared flags), the
//! dirty page table, and the cumulative commit outcomes — then truncates
//! the image. [`ServerLog::crash_image`] yields the [`DurableState`]
//! that survives a crash; `pscc-recovery` runs ARIES-style
//! analysis → redo → undo over it ([`decode_log`] tolerates a torn tail,
//! [`redo_upto`] skips records already reflected in a page's LSN), and
//! [`ServerLog::after_recovery`] rebuilds the log with the surviving
//! in-doubt transactions. See DESIGN.md §6.
//!
//! # Examples
//!
//! ```
//! use pscc_wal::{LogCache, LogRecord};
//! use pscc_common::{Oid, PageId, FileId, VolId, TxnId, SiteId};
//!
//! let txn = TxnId::new(SiteId(1), 1);
//! let oid = Oid::new(PageId::new(FileId::new(VolId(0), 0), 3), 2);
//! let mut cache = LogCache::new();
//! cache.append(LogRecord::update(txn, oid, vec![0; 4], vec![1; 4]));
//! assert_eq!(cache.drain_txn(txn).len(), 1);
//! assert!(cache.drain_txn(txn).is_empty());
//! ```

use pscc_common::{FileId, Oid, PageId, PsccError, SiteId, TxnId, VolId};
use pscc_storage::{SlottedPage, Volume};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A log sequence number assigned by a server's log.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn{}", self.0)
    }
}

/// What a log record describes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogPayload {
    /// An object overwrite, with before- and after-images (the
    /// before-image enables server-side undo of shipped-but-uncommitted
    /// updates).
    Update {
        /// The updated object.
        oid: Oid,
        /// Its bytes before the update.
        before: Vec<u8>,
        /// Its bytes after the update.
        after: Vec<u8>,
    },
    /// Object creation.
    Create {
        /// The new object's id.
        oid: Oid,
        /// Its initial bytes.
        body: Vec<u8>,
    },
    /// Object deletion.
    Delete {
        /// The deleted object.
        oid: Oid,
        /// Its bytes before deletion (for undo).
        before: Vec<u8>,
    },
    /// 2PC: participant is prepared.
    Prepare,
    /// Transaction commit.
    Commit,
    /// Transaction abort.
    Abort,
    /// Ownership migration, source side: pages `[lo, hi)` are frozen and
    /// about to ship to `to`. A `MigrateBegin` with no later
    /// `MigrateCommit`/`MigrateRollback` is an in-doubt migration that
    /// restart recovery resolves by rolling it *back* (presumed abort —
    /// the source stays authoritative).
    MigrateBegin {
        /// First page number of the moving range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
        /// The destination site.
        to: SiteId,
    },
    /// Ownership migration, source side: the point of no return. Once
    /// this record is durable the range belongs to `to` at layout
    /// version `layout`, and restart recovery rolls the migration
    /// *forward* (re-activating the destination if needed).
    MigrateCommit {
        /// First page number of the moved range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
        /// The new owner.
        to: SiteId,
        /// The layout version the commit publishes.
        layout: u64,
    },
    /// Ownership migration, source side: the migration was abandoned
    /// before commit (supervisor abort or crash); the source remains
    /// authoritative.
    MigrateRollback {
        /// First page number of the range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
    },
    /// Ownership migration, source side: cleanup finished (the
    /// destination acknowledged activation). Purely an optimization —
    /// recovery treats a missing `MigrateEnd` after a `MigrateCommit`
    /// as "re-offer activation to the destination".
    MigrateEnd {
        /// First page number of the range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
    },
    /// Ownership migration, destination side: one transferred page
    /// image. Logged (and forced, with [`LogPayload::MigrateInEnd`])
    /// before the destination acknowledges the transfer, so a crashed
    /// destination can re-stage the images from its own log.
    MigrateIn {
        /// The migrating source.
        from: SiteId,
        /// The transferred page.
        page: PageId,
        /// Its full image at transfer time.
        image: SlottedPage,
    },
    /// Ownership migration, destination side: the transfer of `[lo, hi)`
    /// from `from` is complete (`n` pages) at prospective layout
    /// `layout`. An `InEnd` with no later [`LogPayload::MigrateLand`]
    /// is an in-doubt inbound migration: the restarted destination asks
    /// the source whether the commit record made it.
    MigrateInEnd {
        /// The migrating source.
        from: SiteId,
        /// First page number of the range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
        /// The layout version the migration will publish.
        layout: u64,
        /// Number of transferred pages.
        n: u32,
    },
    /// Ownership migration, destination side: the range is activated
    /// here at layout `layout` — this site is now the one authoritative
    /// owner.
    MigrateLand {
        /// The migrating source.
        from: SiteId,
        /// First page number of the range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
        /// The published layout version.
        layout: u64,
    },
}

impl LogPayload {
    /// The page a data payload touches (`None` for control records).
    pub fn page(&self) -> Option<PageId> {
        match self {
            LogPayload::Update { oid, .. }
            | LogPayload::Create { oid, .. }
            | LogPayload::Delete { oid, .. } => Some(oid.page),
            _ => None,
        }
    }
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogRecord {
    /// The transaction that generated it.
    pub txn: TxnId,
    /// What it describes.
    pub payload: LogPayload,
}

impl LogRecord {
    /// Builds an update record.
    pub fn update(txn: TxnId, oid: Oid, before: Vec<u8>, after: Vec<u8>) -> Self {
        LogRecord {
            txn,
            payload: LogPayload::Update { oid, before, after },
        }
    }

    /// Approximate wire size in bytes (network cost model).
    pub fn wire_size(&self) -> usize {
        24 + match &self.payload {
            LogPayload::Update { before, after, .. } => before.len() + after.len(),
            LogPayload::Create { body, .. } => body.len(),
            LogPayload::Delete { before, .. } => before.len(),
            LogPayload::MigrateIn { image, .. } => image.as_bytes().len(),
            _ => 0,
        }
    }
}

/// A client-side log cache: records accumulate per transaction and are
/// shipped at commit, or earlier for a page being evicted while dirty.
#[derive(Debug, Clone, Default)]
pub struct LogCache {
    records: Vec<LogRecord>,
}

impl LogCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn append(&mut self, rec: LogRecord) {
        self.records.push(rec);
    }

    /// Removes and returns all records of `txn`, in append order
    /// (commit-time shipping).
    pub fn drain_txn(&mut self, txn: TxnId) -> Vec<LogRecord> {
        let (take, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.records)
            .into_iter()
            .partition(|r| r.txn == txn);
        self.records = keep;
        take
    }

    /// Removes and returns all records touching `page` (early shipping on
    /// dirty-page eviction, paper §3.3).
    pub fn drain_page(&mut self, page: PageId) -> Vec<LogRecord> {
        let (take, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.records)
            .into_iter()
            .partition(|r| r.payload.page() == Some(page));
        self.records = keep;
        take
    }

    /// Discards all records of `txn` (client-side abort, paper §3.3:
    /// "when a transaction aborts, it deletes its log records from the
    /// log cache").
    pub fn discard_txn(&mut self, txn: TxnId) {
        self.records.retain(|r| r.txn != txn);
    }

    /// Records currently cached (diagnostics).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Pages with cached records for `txn` (used at commit to know what
    /// to mark clean).
    pub fn pages_of(&self, txn: TxnId) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .records
            .iter()
            .filter(|r| r.txn == txn)
            .filter_map(|r| r.payload.page())
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// One active-transaction-table entry in a fuzzy checkpoint: the
/// transaction's applied data records (undo information that would
/// otherwise be lost to log truncation) and whether it had prepared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttEntry {
    /// Applied data records, append order.
    pub records: Vec<LogRecord>,
    /// Whether a `Prepare` control record preceded the checkpoint.
    pub prepared: bool,
}

/// The serialized ownership layout carried in checkpoints: a layout
/// version plus `(lo, hi, owner)` page-number ranges. Structurally the
/// same image `pscc-core`'s ownership directory produces.
pub type LayoutImage = (u64, Vec<(u32, u32, SiteId)>);

/// A fuzzy checkpoint: everything restart analysis needs besides the
/// post-checkpoint log tail.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Volume snapshot as of the checkpoint (page LSNs included, so
    /// redo can skip records the base already reflects).
    pub base: Volume,
    /// All records with LSN ≤ this are reflected in `base` or `att`.
    pub base_lsn: Lsn,
    /// Active-transaction table: in-flight transactions at checkpoint.
    pub att: HashMap<TxnId, AttEntry>,
    /// Dirty page table: pages touched since the previous checkpoint
    /// with their recovery LSNs (first dirtying record).
    pub dpt: Vec<(PageId, Lsn)>,
    /// Cumulative commit outcomes (presumed abort makes this the only
    /// side the coordinator must be able to re-learn).
    pub committed: HashSet<TxnId>,
    /// The ownership layout as of the checkpoint, if migrations ever
    /// changed it here (`None` on layouts still at boot version). The
    /// restarted engine adopts it, then rolls forward any later
    /// `MigrateCommit`/`MigrateLand` records from the log tail.
    pub layout: Option<LayoutImage>,
}

/// What survives a server crash: the last checkpoint (if any) plus the
/// forced byte image of the log tail. Records appended but never forced
/// are lost, exactly as on a real machine.
#[derive(Debug, Clone, Default)]
pub struct DurableState {
    /// The last fuzzy checkpoint taken, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Encoded log records since that checkpoint (see [`decode_log`]).
    pub log: Vec<u8>,
}

/// The server-side log: assigns LSNs, tracks durability, and remembers
/// applied-but-uncommitted records per transaction so they can be undone
/// on abort. Forced records are additionally serialized into a durable
/// byte image so an owner crash is survivable (see [`DurableState`]).
#[derive(Debug, Default)]
pub struct ServerLog {
    next_lsn: u64,
    durable_lsn: u64,
    /// Applied data records of in-flight transactions, append order.
    in_flight: HashMap<TxnId, Vec<LogRecord>>,
    /// In-flight transactions that have logged a `Prepare`.
    prepared: HashSet<TxnId>,
    /// Transactions that have logged a `Commit` (cumulative).
    committed: HashSet<TxnId>,
    /// Records since the last checkpoint, append order (the volatile
    /// log tail; the prefix up to `durable_lsn` is also in `durable`).
    tail: Vec<(Lsn, LogRecord)>,
    /// Encoded image of the forced tail prefix.
    durable: Vec<u8>,
    /// The last fuzzy checkpoint.
    checkpoint: Option<Checkpoint>,
    /// The current ownership layout, stamped into future checkpoints
    /// (`None` until a migration first changes it).
    layout: Option<LayoutImage>,
}

impl ServerLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a log after restart recovery: LSN allocation resumes
    /// past everything in the durable image, the in-doubt transactions'
    /// records are re-registered in flight (with their prepared flag),
    /// and the recovered commit outcomes are retained for
    /// outcome queries. The caller should take a fresh checkpoint
    /// immediately so the new durable image is self-contained.
    pub fn after_recovery(
        max_lsn: Lsn,
        in_doubt: HashMap<TxnId, Vec<LogRecord>>,
        committed: HashSet<TxnId>,
    ) -> Self {
        ServerLog {
            next_lsn: max_lsn.0,
            durable_lsn: max_lsn.0,
            prepared: in_doubt.keys().copied().collect(),
            in_flight: in_doubt,
            committed,
            tail: Vec::new(),
            durable: Vec::new(),
            checkpoint: None,
            layout: None,
        }
    }

    /// Sets the ownership layout stamped into future checkpoints. The
    /// engine calls this whenever a migration changes its directory (and
    /// once after restart, with the rolled-forward layout).
    pub fn set_layout(&mut self, layout: LayoutImage) {
        self.layout = Some(layout);
    }

    /// Appends a record, returning its LSN. Data records are remembered
    /// for possible undo until [`ServerLog::end_txn`].
    pub fn append(&mut self, rec: LogRecord) -> Lsn {
        self.next_lsn += 1;
        let lsn = Lsn(self.next_lsn);
        match rec.payload {
            LogPayload::Update { .. } | LogPayload::Create { .. } | LogPayload::Delete { .. } => {
                self.in_flight.entry(rec.txn).or_default().push(rec.clone());
            }
            LogPayload::Prepare => {
                self.prepared.insert(rec.txn);
            }
            LogPayload::Commit => {
                self.committed.insert(rec.txn);
            }
            // Migration records carry a sentinel transaction and no undo
            // state; they matter only to the restart analysis pass.
            LogPayload::Abort
            | LogPayload::MigrateBegin { .. }
            | LogPayload::MigrateCommit { .. }
            | LogPayload::MigrateRollback { .. }
            | LogPayload::MigrateEnd { .. }
            | LogPayload::MigrateIn { .. }
            | LogPayload::MigrateInEnd { .. }
            | LogPayload::MigrateLand { .. } => {}
        }
        self.tail.push((lsn, rec));
        lsn
    }

    /// Forces the log to disk; returns `true` if anything needed writing
    /// (i.e. the engine should charge one log-disk I/O). Only the records
    /// appended since the last force are framed into the crash-surviving
    /// byte image: the tail is LSN-ordered, so the first unforced record
    /// is found by binary search, and the cost is O(bytes newly forced)
    /// rather than O(tail).
    pub fn force(&mut self) -> bool {
        if self.durable_lsn == self.next_lsn {
            return false;
        }
        let first = self
            .tail
            .partition_point(|(lsn, _)| lsn.0 <= self.durable_lsn);
        for (lsn, rec) in &self.tail[first..] {
            encode_frame(&mut self.durable, *lsn, rec);
        }
        self.durable_lsn = self.next_lsn;
        true
    }

    /// Takes a fuzzy checkpoint against `base` (the caller's current
    /// volume image, cloned) and truncates the log tail. Forces first;
    /// returns `true` if that force needed a log-disk write (the caller
    /// charges the I/O).
    pub fn checkpoint(&mut self, base: Volume) -> bool {
        let wrote = self.force();
        let mut dpt: HashMap<PageId, Lsn> = HashMap::new();
        for (lsn, rec) in &self.tail {
            if let Some(page) = rec.payload.page() {
                dpt.entry(page).or_insert(*lsn);
            }
        }
        let mut dpt: Vec<(PageId, Lsn)> = dpt.into_iter().collect();
        dpt.sort();
        let att = self
            .in_flight
            .iter()
            .map(|(t, recs)| {
                (
                    *t,
                    AttEntry {
                        records: recs.clone(),
                        prepared: self.prepared.contains(t),
                    },
                )
            })
            .collect();
        self.checkpoint = Some(Checkpoint {
            base,
            base_lsn: Lsn(self.durable_lsn),
            att,
            dpt,
            committed: self.committed.clone(),
            layout: self.layout.clone(),
        });
        self.tail.clear();
        self.durable.clear();
        wrote
    }

    /// The state that would survive a crash right now: the last
    /// checkpoint plus the *forced* portion of the log tail. Unforced
    /// records are lost, as they would be on a real machine.
    pub fn crash_image(&self) -> DurableState {
        DurableState {
            checkpoint: self.checkpoint.clone(),
            log: self.durable.clone(),
        }
    }

    /// The applied-but-unfinished records of `txn` (undo candidates).
    pub fn in_flight_of(&self, txn: TxnId) -> &[LogRecord] {
        self.in_flight.get(&txn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Forgets `txn`'s in-flight records (commit), or returns them in
    /// reverse order for undo (abort).
    pub fn end_txn(&mut self, txn: TxnId, abort: bool) -> Vec<LogRecord> {
        self.prepared.remove(&txn);
        let mut recs = self.in_flight.remove(&txn).unwrap_or_default();
        if abort {
            recs.reverse();
            recs
        } else {
            Vec::new()
        }
    }

    /// Highest assigned LSN.
    pub fn current_lsn(&self) -> Lsn {
        Lsn(self.next_lsn)
    }

    /// Highest LSN known durable (forced).
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable_lsn)
    }

    /// Records appended since the last checkpoint (its age in log
    /// records; the whole log if no checkpoint was ever taken).
    pub fn checkpoint_age(&self) -> u64 {
        let base = self.checkpoint.as_ref().map(|c| c.base_lsn.0).unwrap_or(0);
        self.next_lsn - base
    }

    /// Whether `txn` logged a `Commit` (here or before a recovered
    /// crash) — the coordinator-side answer to an outcome query.
    pub fn was_committed(&self, txn: TxnId) -> bool {
        self.committed.contains(&txn)
    }
}

/// Applies one record's redo (after-image) to the volume — the server
/// "redoes the operations indicated by the log records in order to
/// install the updates" (paper §3.3).
///
/// # Errors
///
/// Propagates storage errors (missing page/object, page full).
pub fn apply_redo(vol: &mut Volume, rec: &LogRecord) -> Result<(), PsccError> {
    match &rec.payload {
        LogPayload::Update { oid, after, .. } => vol.write_object(*oid, after),
        LogPayload::Create { oid, body } => {
            // Creation targeted a specific slot at the client; recreate at
            // the same slot if free, otherwise the home page decides.
            match vol.read_object(*oid) {
                Some(_) => vol.write_object(*oid, body),
                None => {
                    let got = vol.create_object(oid.page, body)?;
                    debug_assert_eq!(got.slot, oid.slot, "slot allocation diverged");
                    Ok(())
                }
            }
        }
        LogPayload::Delete { oid, .. } => vol.delete_object(*oid),
        _ => Ok(()),
    }
}

/// Applies one record's undo (before-image) to the volume — used when a
/// transaction aborts after some of its updates were already shipped
/// (paper §3.3: "any updates of the aborting transaction that have
/// already been shipped to the server are undone by the server").
///
/// # Errors
///
/// Propagates storage errors.
pub fn apply_undo(vol: &mut Volume, rec: &LogRecord) -> Result<(), PsccError> {
    match &rec.payload {
        LogPayload::Update { oid, before, .. } => vol.write_object(*oid, before),
        LogPayload::Create { oid, .. } => vol.delete_object(*oid),
        LogPayload::Delete { oid, before } => match vol.read_object(*oid) {
            Some(_) => vol.write_object(*oid, before),
            None => {
                let got = vol.create_object(oid.page, before)?;
                debug_assert_eq!(got.slot, oid.slot, "slot allocation diverged");
                Ok(())
            }
        },
        _ => Ok(()),
    }
}

/// FNV-1a over `bytes`, folded to 32 bits (per-frame checksum).
fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// Appends one `[len | checksum | payload]` frame to `buf`, encoding the
/// payload in place (see [`encode_record`]) so a force allocates nothing
/// beyond the image's own growth.
fn encode_frame(buf: &mut Vec<u8>, lsn: Lsn, rec: &LogRecord) {
    let header = buf.len();
    buf.extend_from_slice(&[0; 8]);
    encode_record(buf, lsn, rec);
    let payload = &buf[header + 8..];
    let len = (payload.len() as u32).to_le_bytes();
    let sum = fnv32(payload).to_le_bytes();
    buf[header..header + 4].copy_from_slice(&len);
    buf[header + 4..header + 8].copy_from_slice(&sum);
}

// One-byte `LogPayload` tags of the binary record encoding.
const TAG_UPDATE: u8 = 0;
const TAG_CREATE: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_PREPARE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_MIGRATE_BEGIN: u8 = 6;
const TAG_MIGRATE_COMMIT: u8 = 7;
const TAG_MIGRATE_ROLLBACK: u8 = 8;
const TAG_MIGRATE_END: u8 = 9;
const TAG_MIGRATE_IN: u8 = 10;
const TAG_MIGRATE_IN_END: u8 = 11;
const TAG_MIGRATE_LAND: u8 = 12;

/// Little-endian writer for the record encoding.
struct Enc<'a>(&'a mut Vec<u8>);

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn page(&mut self, p: PageId) {
        self.u32(p.file.vol.0);
        self.u32(p.file.file);
        self.u32(p.page);
    }
    fn oid(&mut self, o: Oid) {
        self.page(o.page);
        self.u16(o.slot);
    }
}

/// Appends the binary encoding of `(lsn, rec)` to `buf`: `lsn u64`,
/// `txn.site u32`, `txn.seq u64`, a one-byte payload tag, then the
/// variant's fields in declaration order — ids fixed-width, byte images
/// as `u32` length plus raw bytes. All integers are little-endian.
/// DESIGN.md §6 has the full layout.
fn encode_record(buf: &mut Vec<u8>, lsn: Lsn, rec: &LogRecord) {
    let mut e = Enc(buf);
    e.u64(lsn.0);
    e.u32(rec.txn.site.0);
    e.u64(rec.txn.seq);
    match &rec.payload {
        LogPayload::Update { oid, before, after } => {
            e.u8(TAG_UPDATE);
            e.oid(*oid);
            e.bytes(before);
            e.bytes(after);
        }
        LogPayload::Create { oid, body } => {
            e.u8(TAG_CREATE);
            e.oid(*oid);
            e.bytes(body);
        }
        LogPayload::Delete { oid, before } => {
            e.u8(TAG_DELETE);
            e.oid(*oid);
            e.bytes(before);
        }
        LogPayload::Prepare => e.u8(TAG_PREPARE),
        LogPayload::Commit => e.u8(TAG_COMMIT),
        LogPayload::Abort => e.u8(TAG_ABORT),
        LogPayload::MigrateBegin { lo, hi, to } => {
            e.u8(TAG_MIGRATE_BEGIN);
            e.u32(*lo);
            e.u32(*hi);
            e.u32(to.0);
        }
        LogPayload::MigrateCommit { lo, hi, to, layout } => {
            e.u8(TAG_MIGRATE_COMMIT);
            e.u32(*lo);
            e.u32(*hi);
            e.u32(to.0);
            e.u64(*layout);
        }
        LogPayload::MigrateRollback { lo, hi } => {
            e.u8(TAG_MIGRATE_ROLLBACK);
            e.u32(*lo);
            e.u32(*hi);
        }
        LogPayload::MigrateEnd { lo, hi } => {
            e.u8(TAG_MIGRATE_END);
            e.u32(*lo);
            e.u32(*hi);
        }
        LogPayload::MigrateIn { from, page, image } => {
            e.u8(TAG_MIGRATE_IN);
            e.u32(from.0);
            e.page(*page);
            e.bytes(image.as_bytes());
        }
        LogPayload::MigrateInEnd {
            from,
            lo,
            hi,
            layout,
            n,
        } => {
            e.u8(TAG_MIGRATE_IN_END);
            e.u32(from.0);
            e.u32(*lo);
            e.u32(*hi);
            e.u64(*layout);
            e.u32(*n);
        }
        LogPayload::MigrateLand {
            from,
            lo,
            hi,
            layout,
        } => {
            e.u8(TAG_MIGRATE_LAND);
            e.u32(from.0);
            e.u32(*lo);
            e.u32(*hi);
            e.u64(*layout);
        }
    }
}

/// Little-endian reader for the record encoding; every read is bounds
/// checked and yields `None` past the end.
struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }
    fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }
    fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }
    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        self.take(n).map(<[u8]>::to_vec)
    }
    fn site(&mut self) -> Option<SiteId> {
        self.u32().map(SiteId)
    }
    fn page(&mut self) -> Option<PageId> {
        let vol = VolId(self.u32()?);
        let file = self.u32()?;
        Some(PageId::new(FileId::new(vol, file), self.u32()?))
    }
    fn oid(&mut self) -> Option<Oid> {
        let page = self.page()?;
        Some(Oid::new(page, self.u16()?))
    }
}

/// Decodes one frame payload written by [`encode_record`]. `None` on an
/// unknown tag, a short field, or trailing bytes.
fn decode_record(payload: &[u8]) -> Option<(Lsn, LogRecord)> {
    let mut d = Dec(payload);
    let lsn = Lsn(d.u64()?);
    let site = d.site()?;
    let txn = TxnId::new(site, d.u64()?);
    let payload = match d.u8()? {
        TAG_UPDATE => LogPayload::Update {
            oid: d.oid()?,
            before: d.bytes()?,
            after: d.bytes()?,
        },
        TAG_CREATE => LogPayload::Create {
            oid: d.oid()?,
            body: d.bytes()?,
        },
        TAG_DELETE => LogPayload::Delete {
            oid: d.oid()?,
            before: d.bytes()?,
        },
        TAG_PREPARE => LogPayload::Prepare,
        TAG_COMMIT => LogPayload::Commit,
        TAG_ABORT => LogPayload::Abort,
        TAG_MIGRATE_BEGIN => LogPayload::MigrateBegin {
            lo: d.u32()?,
            hi: d.u32()?,
            to: d.site()?,
        },
        TAG_MIGRATE_COMMIT => LogPayload::MigrateCommit {
            lo: d.u32()?,
            hi: d.u32()?,
            to: d.site()?,
            layout: d.u64()?,
        },
        TAG_MIGRATE_ROLLBACK => LogPayload::MigrateRollback {
            lo: d.u32()?,
            hi: d.u32()?,
        },
        TAG_MIGRATE_END => LogPayload::MigrateEnd {
            lo: d.u32()?,
            hi: d.u32()?,
        },
        TAG_MIGRATE_IN => LogPayload::MigrateIn {
            from: d.site()?,
            page: d.page()?,
            image: SlottedPage::from_bytes(d.bytes()?),
        },
        TAG_MIGRATE_IN_END => LogPayload::MigrateInEnd {
            from: d.site()?,
            lo: d.u32()?,
            hi: d.u32()?,
            layout: d.u64()?,
            n: d.u32()?,
        },
        TAG_MIGRATE_LAND => LogPayload::MigrateLand {
            from: d.site()?,
            lo: d.u32()?,
            hi: d.u32()?,
            layout: d.u64()?,
        },
        _ => return None,
    };
    d.0.is_empty().then_some((lsn, LogRecord { txn, payload }))
}

/// Decodes a durable log image back into `(lsn, record)` pairs.
///
/// A crash can tear the tail of the image mid-frame; analysis must not
/// panic on it. Decoding stops at the first incomplete, checksum-corrupt
/// or undecodable frame (unknown tag, short field, trailing bytes) and
/// reports it through the second return value — the intact prefix is the
/// recoverable log.
pub fn decode_log(bytes: &[u8]) -> (Vec<(Lsn, LogRecord)>, bool) {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        if at + 8 > bytes.len() {
            return (out, true); // torn inside a frame header
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let start = at + 8;
        let Some(end) = start.checked_add(len).filter(|e| *e <= bytes.len()) else {
            return (out, true); // torn inside the payload
        };
        let payload = &bytes[start..end];
        if fnv32(payload) != sum {
            return (out, true); // corrupt frame
        }
        match decode_record(payload) {
            Some(pair) => out.push(pair),
            None => return (out, true),
        }
        at = end;
    }
    (out, false)
}

/// Stamps `page`'s header LSN after a redo application, never moving it
/// backwards (the monotone page LSN is what makes restart redo
/// idempotent).
pub fn stamp_page_lsn(vol: &mut Volume, page: PageId, lsn: Lsn) {
    if let Some(p) = vol.page_mut(page) {
        if p.lsn() < lsn.0 {
            p.set_lsn(lsn.0);
        }
    }
}

/// Restart redo of one record: skipped (returning `Ok(false)`) when the
/// target page's LSN shows the update already applied, else applied via
/// [`apply_redo`] and stamped.
///
/// # Errors
///
/// Propagates storage errors from [`apply_redo`].
pub fn redo_upto(vol: &mut Volume, rec: &LogRecord, lsn: Lsn) -> Result<bool, PsccError> {
    if let Some(page) = rec.payload.page() {
        if let Some(p) = vol.page(page) {
            if p.lsn() >= lsn.0 {
                return Ok(false);
            }
        }
        apply_redo(vol, rec)?;
        stamp_page_lsn(vol, page, lsn);
        Ok(true)
    } else {
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{SiteId, SystemConfig, VolId};

    fn setup() -> (Volume, Oid, TxnId) {
        let cfg = SystemConfig::small();
        let mut vol = Volume::create_database(VolId(0), &cfg);
        let file = vol.files()[0];
        let page = vol.file_pages(file).next().unwrap();
        let oid = Oid::new(page, 0);
        let body = vec![7u8; cfg.object_size() as usize];
        vol.write_object(oid, &body).unwrap();
        (vol, oid, TxnId::new(SiteId(1), 1))
    }

    #[test]
    fn redo_installs_after_image() {
        let (mut vol, oid, txn) = setup();
        let before = vol.read_object(oid).unwrap().to_vec();
        let after = vec![9u8; before.len()];
        let rec = LogRecord::update(txn, oid, before.clone(), after.clone());
        apply_redo(&mut vol, &rec).unwrap();
        assert_eq!(vol.read_object(oid), Some(&after[..]));
        apply_undo(&mut vol, &rec).unwrap();
        assert_eq!(vol.read_object(oid), Some(&before[..]));
    }

    #[test]
    fn create_and_delete_redo_undo() {
        let mut vol = Volume::new(VolId(0), 1024);
        let f = vol.create_file();
        let p = vol.allocate_page(f);
        let txn = TxnId::new(SiteId(1), 1);
        let oid = Oid::new(p, 0);

        let create = LogRecord {
            txn,
            payload: LogPayload::Create {
                oid,
                body: b"new".to_vec(),
            },
        };
        apply_redo(&mut vol, &create).unwrap();
        assert_eq!(vol.read_object(oid), Some(&b"new"[..]));
        apply_undo(&mut vol, &create).unwrap();
        assert_eq!(vol.read_object(oid), None);

        apply_redo(&mut vol, &create).unwrap();
        let del = LogRecord {
            txn,
            payload: LogPayload::Delete {
                oid,
                before: b"new".to_vec(),
            },
        };
        apply_redo(&mut vol, &del).unwrap();
        assert_eq!(vol.read_object(oid), None);
        apply_undo(&mut vol, &del).unwrap();
        assert_eq!(vol.read_object(oid), Some(&b"new"[..]));
    }

    #[test]
    fn log_cache_drains_by_txn_and_page() {
        let (_, oid, t1) = setup();
        let t2 = TxnId::new(SiteId(1), 2);
        let mut cache = LogCache::new();
        cache.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        cache.append(LogRecord::update(t2, oid, vec![3], vec![4]));
        let other = Oid::new(PageId::new(oid.page.file, oid.page.page + 1), 0);
        cache.append(LogRecord::update(t1, other, vec![5], vec![6]));

        assert_eq!(cache.pages_of(t1), {
            let mut v = vec![oid.page, other.page];
            v.sort();
            v
        });
        let by_page = cache.drain_page(oid.page);
        assert_eq!(by_page.len(), 2);
        let rest = cache.drain_txn(t1);
        assert_eq!(rest.len(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn discard_on_abort() {
        let (_, oid, t1) = setup();
        let mut cache = LogCache::new();
        cache.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        cache.discard_txn(t1);
        assert!(cache.is_empty());
    }

    #[test]
    fn server_log_tracks_in_flight_and_undo_order() {
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        let l1 = log.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        let l2 = log.append(LogRecord::update(t1, oid, vec![2], vec![3]));
        assert!(l1 < l2);
        assert_eq!(log.in_flight_of(t1).len(), 2);
        let undo = log.end_txn(t1, true);
        // Reverse order: newest first.
        assert!(
            matches!(&undo[0].payload, LogPayload::Update { before, .. } if before == &vec![2])
        );
        assert!(log.in_flight_of(t1).is_empty());
    }

    #[test]
    fn force_is_idempotent_until_new_records() {
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        log.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        assert!(log.force());
        assert!(!log.force());
        log.append(LogRecord {
            txn: t1,
            payload: LogPayload::Commit,
        });
        assert!(log.force());
    }

    #[test]
    fn control_records_are_not_in_flight() {
        let t1 = TxnId::new(SiteId(1), 1);
        let mut log = ServerLog::new();
        log.append(LogRecord {
            txn: t1,
            payload: LogPayload::Prepare,
        });
        assert!(log.in_flight_of(t1).is_empty());
    }

    #[test]
    fn wire_size_scales_with_images() {
        let (_, oid, t1) = setup();
        let small = LogRecord::update(t1, oid, vec![0; 4], vec![0; 4]);
        let big = LogRecord::update(t1, oid, vec![0; 400], vec![0; 400]);
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn durable_image_roundtrips_and_omits_unforced_tail() {
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        log.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        log.append(LogRecord {
            txn: t1,
            payload: LogPayload::Commit,
        });
        assert!(log.force());
        // Appended after the force: lost at a crash.
        log.append(LogRecord::update(t1, oid, vec![2], vec![3]));

        let image = log.crash_image();
        let (recs, torn) = decode_log(&image.log);
        assert!(!torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, Lsn(1));
        assert!(matches!(recs[1].1.payload, LogPayload::Commit));
    }

    #[test]
    fn torn_tail_truncates_instead_of_panicking() {
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        log.append(LogRecord::update(t1, oid, vec![1; 8], vec![2; 8]));
        log.append(LogRecord::update(t1, oid, vec![2; 8], vec![3; 8]));
        log.force();
        let full = log.crash_image().log;

        // Tear the image mid-way through the second frame.
        for cut in [full.len() - 1, full.len() - 9, 4] {
            let (recs, torn) = decode_log(&full[..cut]);
            assert!(torn, "cut at {cut} should report a torn tail");
            assert!(recs.len() <= 1);
        }
        // Flip a payload byte: checksum catches it, prefix survives.
        let mut corrupt = full.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let (recs, torn) = decode_log(&corrupt);
        assert!(torn);
        assert_eq!(recs.len(), 1);
    }

    /// Frames `payload` with its true length and checksum, so only the
    /// record decoder can reject it.
    fn checksummed_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&fnv32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn hostile_frames_decode_as_torn_with_prefix_kept() {
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        log.append(LogRecord::update(t1, oid, vec![1; 8], vec![2; 8]));
        log.append(LogRecord {
            txn: t1,
            payload: LogPayload::Commit,
        });
        log.force();
        let prefix = log.crash_image().log;

        let mut update = Vec::new();
        encode_record(
            &mut update,
            Lsn(3),
            &LogRecord::update(t1, oid, vec![3; 4], vec![4; 4]),
        );
        // lsn u64 + site u32 + seq u64, then the tag; the oid follows it.
        let tag_at = 20;
        let before_len_at = tag_at + 1 + 14;

        let mut unknown_tag = update.clone();
        unknown_tag[tag_at] = 13;
        let mut trailing = update.clone();
        trailing.push(0);
        let mut past_end = update.clone();
        past_end[before_len_at..before_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let hostile = [
            ("unknown tag", unknown_tag),
            ("truncated field", update[..update.len() - 1].to_vec()),
            ("truncated id", update[..tag_at - 3].to_vec()),
            ("trailing bytes", trailing),
            ("inner length past the frame", past_end),
        ];
        for (what, payload) in hostile {
            let mut image = prefix.clone();
            image.extend_from_slice(&checksummed_frame(&payload));
            let (recs, torn) = decode_log(&image);
            assert!(torn, "{what}: must decode as torn");
            assert_eq!(recs.len(), 2, "{what}: intact prefix must survive");
        }
    }

    #[test]
    fn every_truncation_of_every_variant_is_rejected() {
        let (vol, oid, t1) = setup();
        let payloads = [
            LogPayload::Update {
                oid,
                before: vec![1; 3],
                after: vec![],
            },
            LogPayload::Create { oid, body: vec![5] },
            LogPayload::Delete {
                oid,
                before: vec![],
            },
            LogPayload::Prepare,
            LogPayload::Commit,
            LogPayload::Abort,
            LogPayload::MigrateBegin {
                lo: 1,
                hi: 2,
                to: SiteId(3),
            },
            LogPayload::MigrateCommit {
                lo: 1,
                hi: 2,
                to: SiteId(3),
                layout: 4,
            },
            LogPayload::MigrateRollback { lo: 1, hi: 2 },
            LogPayload::MigrateEnd { lo: 1, hi: 2 },
            LogPayload::MigrateIn {
                from: SiteId(1),
                page: oid.page,
                image: vol.page(oid.page).unwrap().clone(),
            },
            LogPayload::MigrateInEnd {
                from: SiteId(1),
                lo: 1,
                hi: 2,
                layout: 4,
                n: 1,
            },
            LogPayload::MigrateLand {
                from: SiteId(1),
                lo: 1,
                hi: 2,
                layout: 4,
            },
        ];
        for payload in payloads {
            let rec = LogRecord { txn: t1, payload };
            let mut bytes = Vec::new();
            encode_record(&mut bytes, Lsn(9), &rec);
            assert_eq!(decode_record(&bytes), Some((Lsn(9), rec.clone())));
            for cut in 0..bytes.len() {
                assert_eq!(decode_record(&bytes[..cut]), None, "{rec:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn incremental_force_survives_checkpoint_and_recovery() {
        let (vol, oid, t1) = setup();
        let mut log = ServerLog::new();
        let mut durable: Vec<Lsn> = Vec::new();
        let append = |log: &mut ServerLog, n: u8| -> Vec<Lsn> {
            (0..n)
                .map(|i| log.append(LogRecord::update(t1, oid, vec![i], vec![i + 1])))
                .collect()
        };
        // Every forced record exactly once, in order; nothing unforced.
        let check = |log: &ServerLog, durable: &[Lsn]| {
            let (recs, torn) = decode_log(&log.crash_image().log);
            assert!(!torn);
            let lsns: Vec<Lsn> = recs.iter().map(|(l, _)| *l).collect();
            assert_eq!(lsns, durable);
        };
        // A force with nothing new writes nothing and changes no byte.
        let idle_force = |log: &mut ServerLog| {
            let before = log.crash_image().log;
            assert!(!log.force());
            assert_eq!(log.crash_image().log, before);
        };

        durable.extend(append(&mut log, 3));
        assert!(log.force());
        durable.extend(append(&mut log, 2));
        assert!(log.force());
        idle_force(&mut log);
        append(&mut log, 2); // unforced: absent from the image
        check(&log, &durable);

        // The checkpoint forces the two, then truncates the image.
        assert!(log.checkpoint(vol.clone()));
        durable.clear();
        check(&log, &durable);
        idle_force(&mut log);
        durable.extend(append(&mut log, 2));
        assert!(log.force());
        check(&log, &durable);
        idle_force(&mut log);
        append(&mut log, 1);
        check(&log, &durable);

        // Restart from the durable LSN: the unforced record is gone and
        // LSN allocation resumes past the image.
        let max = *durable.last().unwrap();
        let mut log = ServerLog::after_recovery(max, HashMap::new(), HashSet::new());
        durable.clear();
        idle_force(&mut log);
        let resumed = append(&mut log, 3);
        assert_eq!(resumed[0], Lsn(max.0 + 1));
        durable.extend(&resumed);
        assert!(log.force());
        check(&log, &durable);
        idle_force(&mut log);
        assert!(!log.checkpoint(vol), "nothing new to force");
        durable.clear();
        durable.extend(append(&mut log, 1));
        assert!(log.force());
        check(&log, &durable);
    }

    #[test]
    fn checkpoint_snapshots_att_and_truncates() {
        let (vol, oid, t1) = setup();
        let t2 = TxnId::new(SiteId(2), 1);
        let mut log = ServerLog::new();
        log.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        log.append(LogRecord {
            txn: t1,
            payload: LogPayload::Prepare,
        });
        log.append(LogRecord::update(t2, oid, vec![2], vec![3]));
        log.append(LogRecord {
            txn: t2,
            payload: LogPayload::Commit,
        });
        log.end_txn(t2, false);
        assert!(log.checkpoint(vol.clone()));

        let image = log.crash_image();
        let ckpt = image.checkpoint.expect("checkpoint taken");
        assert_eq!(ckpt.base_lsn, Lsn(4));
        assert_eq!(ckpt.att.len(), 1);
        assert!(ckpt.att[&t1].prepared);
        assert!(ckpt.committed.contains(&t2));
        assert_eq!(ckpt.dpt.len(), 1);
        assert_eq!(ckpt.dpt[0], (oid.page, Lsn(1)));
        // Tail truncated: nothing new to decode, nothing to force.
        assert!(decode_log(&image.log).0.is_empty());
        assert!(!log.force());
        assert_eq!(log.checkpoint_age(), 0);
    }

    #[test]
    fn migration_records_survive_the_durable_image() {
        let (vol, oid, _) = setup();
        let sentinel = TxnId::new(SiteId(3), u64::MAX);
        let mut log = ServerLog::new();
        log.append(LogRecord {
            txn: sentinel,
            payload: LogPayload::MigrateBegin {
                lo: 0,
                hi: 8,
                to: SiteId(2),
            },
        });
        let image = vol.page(oid.page).unwrap().clone();
        log.append(LogRecord {
            txn: sentinel,
            payload: LogPayload::MigrateIn {
                from: SiteId(1),
                page: oid.page,
                image: image.clone(),
            },
        });
        log.append(LogRecord {
            txn: sentinel,
            payload: LogPayload::MigrateCommit {
                lo: 0,
                hi: 8,
                to: SiteId(2),
                layout: 2,
            },
        });
        // Migration records are control records: never in flight, page-less.
        assert!(log.in_flight_of(sentinel).is_empty());
        assert!(log.force());

        let (recs, torn) = decode_log(&log.crash_image().log);
        assert!(!torn);
        assert_eq!(recs.len(), 3);
        assert!(recs.iter().all(|(_, r)| r.payload.page().is_none()));
        match &recs[1].1.payload {
            LogPayload::MigrateIn { image: got, .. } => assert_eq!(got, &image),
            other => panic!("unexpected {other:?}"),
        }
        assert!(recs[1].1.wire_size() > recs[0].1.wire_size());
    }

    #[test]
    fn checkpoint_carries_the_layout_image() {
        let (vol, _, _) = setup();
        let mut log = ServerLog::new();
        log.checkpoint(vol.clone());
        assert_eq!(
            log.crash_image().checkpoint.unwrap().layout,
            None,
            "boot layout is implicit"
        );
        let layout: LayoutImage = (3, vec![(0, 10, SiteId(2)), (10, 20, SiteId(1))]);
        log.set_layout(layout.clone());
        log.checkpoint(vol.clone());
        assert_eq!(log.crash_image().checkpoint.unwrap().layout, Some(layout));
    }

    #[test]
    fn redo_upto_skips_already_stamped_pages() {
        let (mut vol, oid, t1) = setup();
        let before = vol.read_object(oid).unwrap().to_vec();
        let after = vec![9u8; before.len()];
        let rec = LogRecord::update(t1, oid, before.clone(), after.clone());
        assert!(redo_upto(&mut vol, &rec, Lsn(5)).unwrap());
        assert_eq!(vol.page(oid.page).unwrap().lsn(), 5);

        // Same or older LSN: already applied, skipped.
        let older = LogRecord::update(t1, oid, before.clone(), vec![1u8; before.len()]);
        assert!(!redo_upto(&mut vol, &older, Lsn(5)).unwrap());
        assert!(!redo_upto(&mut vol, &older, Lsn(3)).unwrap());
        assert_eq!(vol.read_object(oid), Some(&after[..]));

        // Newer LSN: applies and advances the stamp.
        assert!(redo_upto(&mut vol, &older, Lsn(6)).unwrap());
        assert_eq!(vol.page(oid.page).unwrap().lsn(), 6);
    }

    #[test]
    fn after_recovery_resumes_lsns_and_outcomes() {
        let (_, oid, t1) = setup();
        let t2 = TxnId::new(SiteId(2), 7);
        let mut in_doubt = HashMap::new();
        in_doubt.insert(t1, vec![LogRecord::update(t1, oid, vec![1], vec![2])]);
        let mut log = ServerLog::after_recovery(Lsn(42), in_doubt, HashSet::from([t2]));
        assert_eq!(log.current_lsn(), Lsn(42));
        assert_eq!(log.durable_lsn(), Lsn(42));
        assert!(log.was_committed(t2));
        assert!(!log.was_committed(t1));
        assert_eq!(log.in_flight_of(t1).len(), 1);
        assert_eq!(
            log.append(LogRecord::update(t1, oid, vec![2], vec![3])),
            Lsn(43)
        );
    }
}
