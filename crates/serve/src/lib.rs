//! # twigserve — a concurrent shared-index query service
//!
//! Every engine in this workspace answers one query over one document.
//! This crate is the serving layer above them: a [`QueryService`] owns
//! an immutable [`Snapshot`] (document + index + path summary) and
//! evaluates many GTP queries against it concurrently, the way a
//! twig-join engine would sit inside an XML database. Four mechanisms,
//! per DESIGN.md §12:
//!
//! * **plan cache** — parsing is cheap but the summary-feasibility
//!   analysis behind the pruned streams is per-(query, index) work worth
//!   amortizing. Plans are cached behind the query's *canonical* form
//!   ([`gtpquery::serialize()`]), in a sharded LRU ([`cache`]), with
//!   hit/miss/eviction counters surfaced through [`ServiceStats`] and
//!   [`twigobs`];
//! * **session pool** — [`EvalContext`] arenas (hierarchical stacks,
//!   edge scratch) are pooled and recycled across requests, so steady
//!   state evaluation stops touching the allocator;
//! * **admission control** — a bounded gate admits at most
//!   `max_concurrency` evaluations with `max_waiting` queued behind
//!   them; beyond that the overload policy sheds load with a typed
//!   [`ServeError::Overloaded`] *before* doing any work. Admitted
//!   queries run under a per-query deadline ([`CancelToken`]) polled at
//!   stream-advance granularity, and every failure — I/O, deadline,
//!   cancellation, even a panic in the engine — comes back as a
//!   [`ServeError`] value, never a crashed worker;
//! * **batch API** — [`QueryService::execute_batch`] groups admitted
//!   queries that scan the same label set and feeds them from **one**
//!   merged stream scan ([`twig2stack::try_match_indexed_group`]),
//!   falling back to per-query evaluation when a shared scan fails so
//!   each query still reports its own typed error.
//!
//! Every plan runs the paper's engine, Twig²Stack, over the index's
//! streams. The one per-plan decision is its [`PruningPolicy`], taken
//! from the path summary by [`gtpquery::cost::pruning_policy`] on each
//! plan-cache miss (DESIGN.md §14): prune when the summary predicts it
//! saves at least 1/8 of the full scan.
//!
//! A fifth mechanism (DESIGN.md §15) makes the served document mutable
//! without ever making a snapshot mutable: [`QueryService::apply_edit`]
//! takes an [`xmldom::EditOp`], derives the post-edit document and index
//! (incrementally patched when the edit fits existing region gaps, fully
//! rebuilt otherwise), and **rotates** the result in as a new
//! [`Snapshot`] behind an [`Arc`] swap. In-flight queries keep reading
//! the snapshot they were admitted under — rotation never blocks or
//! tears a reader — and cached plans are invalidated precisely: a plan
//! survives an edit iff the index was patched (summary-id numbering
//! preserved) and the plan's scanned label set is disjoint from the
//! edit's changed labels.
//!
//! ```
//! use twigserve::{QueryService, ServiceConfig};
//!
//! let doc = xmldom::parse("<a><b><c/></b><b/></a>").unwrap();
//! let svc = QueryService::build(doc, ServiceConfig::default());
//! let rs = svc.execute("//a/b[c]").unwrap();
//! assert_eq!(rs.len(), 1);
//! svc.execute("//a/b[c]").unwrap(); // second run hits the plan cache
//! let stats = svc.stats();
//! assert_eq!(stats.plan_cache_hits, 1);
//! assert_eq!(stats.plan_cache_misses, 1);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod subscribe;

pub use cache::CachedPlan;
pub use catalog::{CatalogConfig, CatalogDoc, CatalogService, CatalogStats, DocHit, LabelBloom};
pub use subscribe::{SubNotification, SubscriptionId, SubscriptionService};

use cache::PlanCache;
use gtpquery::cost::pruning_policy;
use gtpquery::{parse_twig, serialize, CancelToken, Gtp, QueryError, QueryParseError, ResultSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, RwLock};
use std::time::Duration;
use twig2stack::{
    enumerate, try_match_indexed, try_match_indexed_group, EvalContext, IndexedPlan, MatchOptions,
};
use xmldom::{apply_op, Document, EditDelta, EditError, EditOp, Label};
use xmlindex::{
    EditApply, ElementIndex, IndexView, IndexedElement, MappedIndex, MappedOpenError,
    PruningPolicy, SummaryRef,
};

/// Tuning knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Evaluations allowed to run at once (≥ 1; the bounded worker pool).
    pub max_concurrency: usize,
    /// Admissions allowed to queue behind the running set before the
    /// overload policy sheds load with [`ServeError::Overloaded`].
    pub max_waiting: usize,
    /// Total cached plans across all shards; 0 disables the plan cache
    /// (every request re-runs the feasibility analysis — the Fig T
    /// "cache off" arm).
    pub plan_cache_capacity: usize,
    /// Independently locked cache shards (contention bound).
    pub plan_cache_shards: usize,
    /// Deadline applied to queries submitted without an explicit token;
    /// `None` means no implicit deadline.
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrency: 4,
            max_waiting: 16,
            plan_cache_capacity: 128,
            plan_cache_shards: 8,
            default_deadline: None,
        }
    }
}

/// A typed request failure. The service never panics at its boundary:
/// every failure mode — bad query text, shed load, evaluation errors,
/// even an engine panic — is a value.
#[derive(Debug)]
pub enum ServeError {
    /// The query text did not parse.
    Parse(QueryParseError),
    /// The overload policy shed this request before any work ran: the
    /// running set and the wait queue were both full.
    Overloaded {
        /// Evaluations running when the request was shed.
        running: usize,
        /// Admissions already queued when the request was shed.
        waiting: usize,
    },
    /// Evaluation failed (stream I/O, deadline, cancellation).
    Query(QueryError),
    /// The engine panicked; the panic was contained to this request and
    /// its message captured.
    Panicked(String),
    /// A document edit was rejected before anything changed: the current
    /// snapshot is untouched and keeps serving.
    Edit(EditError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(e) => write!(f, "query parse error: {e}"),
            ServeError::Overloaded { running, waiting } => write!(
                f,
                "service overloaded ({running} running, {waiting} waiting); request shed"
            ),
            ServeError::Query(e) => write!(f, "{e}"),
            ServeError::Panicked(msg) => write!(f, "evaluation panicked: {msg}"),
            ServeError::Edit(e) => write!(f, "edit rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Parse(e) => Some(e),
            ServeError::Query(e) => Some(e),
            ServeError::Edit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryParseError> for ServeError {
    fn from(e: QueryParseError) -> Self {
        ServeError::Parse(e)
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

impl From<EditError> for ServeError {
    fn from(e: EditError) -> Self {
        ServeError::Edit(e)
    }
}

/// A point-in-time snapshot of the service's own counters. These are
/// always live (plain atomics), independent of whether the [`twigobs`]
/// recording feature is compiled in — the service mirrors each value
/// into the matching `twigobs` counter as well.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Plan lookups served from the cache (analysis skipped).
    pub plan_cache_hits: u64,
    /// Plan lookups that had to run the feasibility analysis (the cost
    /// Fig T shows the cache amortizing).
    pub plan_cache_misses: u64,
    /// Cached plans evicted by the LRU policy.
    pub plan_cache_evictions: u64,
    /// Queries admitted past the concurrency gate.
    pub queries_admitted: u64,
    /// Queries shed by the overload policy.
    pub queries_rejected: u64,
    /// Admitted queries aborted by an expired deadline.
    pub deadline_exceeded: u64,
    /// Admitted queries aborted by explicit cancellation.
    pub cancelled: u64,
    /// Requests that drew a pooled [`EvalContext`] instead of
    /// allocating a fresh one.
    pub contexts_reused: u64,
    /// Document edits applied through [`QueryService::apply_edit`]
    /// (rejected edits do not count).
    pub edits_applied: u64,
    /// Snapshot rotations completed (== `edits_applied`: every applied
    /// edit publishes exactly one new snapshot).
    pub snapshot_rotations: u64,
    /// Cached plans invalidated by snapshot rotations (the complement of
    /// the plans whose analysis survived an edit).
    pub plan_cache_invalidations: u64,
}

#[derive(Debug, Default)]
struct StatsCell {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    deadline: AtomicU64,
    cancelled: AtomicU64,
    ctx_reused: AtomicU64,
    edits: AtomicU64,
    rotations: AtomicU64,
    invalidations: AtomicU64,
}

#[derive(Debug, Default)]
struct GateState {
    running: usize,
    waiting: usize,
}

/// The admission gate: a bounded running set with a bounded wait queue.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_running: usize,
    max_waiting: usize,
}

/// The overload policy's verdict: the running set and the wait queue
/// were both full. The only way [`Gate::admit`] fails; it becomes
/// [`ServeError::Overloaded`] at the service boundary.
#[derive(Debug, Clone, Copy)]
struct Shed {
    running: usize,
    waiting: usize,
}

impl From<Shed> for ServeError {
    fn from(s: Shed) -> Self {
        ServeError::Overloaded {
            running: s.running,
            waiting: s.waiting,
        }
    }
}

/// An admitted request's slot; releases (and wakes a waiter) on drop, so
/// a panicking evaluation still frees its slot.
#[derive(Debug)]
struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    fn new(max_running: usize, max_waiting: usize) -> Self {
        Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            max_running: max_running.max(1),
            max_waiting,
        }
    }

    fn admit(&self) -> Result<Permit<'_>, Shed> {
        let mut st = self.state.lock().expect("gate poisoned");
        if st.running < self.max_running {
            st.running += 1;
            return Ok(Permit { gate: self });
        }
        if st.waiting >= self.max_waiting {
            return Err(Shed {
                running: st.running,
                waiting: st.waiting,
            });
        }
        st.waiting += 1;
        while st.running >= self.max_running {
            st = self.cv.wait(st).expect("gate poisoned");
        }
        st.waiting -= 1;
        st.running += 1;
        Ok(Permit { gate: self })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.state.lock().expect("gate poisoned");
        st.running -= 1;
        drop(st);
        self.gate.cv.notify_one();
    }
}

/// The index backend behind a [`Snapshot`]: heap-built arrays or a
/// zero-copy mapped v3 file — same plans, same results, byte for byte.
///
/// The two arms converge on the first applied edit: a mapped file is
/// read-only, so editing a mapped service materializes the post-edit
/// index on the heap and every later snapshot is `Heap`.
pub enum ServeIndex {
    /// In-memory [`ElementIndex`].
    Heap(ElementIndex),
    /// Mapped v3 file ([`MappedIndex`]), served from the page cache.
    Mapped(MappedIndex),
}

impl ServeIndex {
    /// The mapped backend, if this snapshot still serves from a file.
    pub fn as_mapped(&self) -> Option<&MappedIndex> {
        match self {
            ServeIndex::Mapped(m) => Some(m),
            ServeIndex::Heap(_) => None,
        }
    }
}

impl IndexView for ServeIndex {
    fn elements(&self, label: Label) -> &[IndexedElement] {
        match self {
            ServeIndex::Heap(i) => i.elements(label),
            ServeIndex::Mapped(i) => i.elements(label),
        }
    }
    fn sids(&self, label: Label) -> &[u32] {
        match self {
            ServeIndex::Heap(i) => i.sids(label),
            ServeIndex::Mapped(i) => i.sids(label),
        }
    }
    fn blocks(&self, label: Label) -> &[u32] {
        match self {
            ServeIndex::Heap(i) => i.blocks(label),
            ServeIndex::Mapped(i) => i.blocks(label),
        }
    }
    fn summary(&self) -> SummaryRef<'_> {
        match self {
            ServeIndex::Heap(i) => i.summary(),
            ServeIndex::Mapped(i) => IndexView::summary(i),
        }
    }
    fn label_count(&self) -> usize {
        match self {
            ServeIndex::Heap(i) => IndexView::label_count(i),
            ServeIndex::Mapped(i) => IndexView::label_count(i),
        }
    }
    fn snapshot_version(&self) -> u64 {
        match self {
            ServeIndex::Heap(i) => i.version(),
            ServeIndex::Mapped(_) => 0,
        }
    }
}

/// One immutable generation of the served document: the document and
/// its index, frozen at a version. Queries evaluate against the snapshot
/// they were admitted under; edits never mutate a snapshot, they publish
/// the next one.
pub struct Snapshot {
    doc: Document,
    index: ServeIndex,
    version: u64,
}

impl Snapshot {
    /// The served document at this version.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The index backend at this version.
    pub fn index(&self) -> &ServeIndex {
        &self.index
    }

    /// Service-level snapshot version: 0 at construction, +1 per applied
    /// edit. Cached plans are valid only for the version they were
    /// computed against.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// What one applied edit did, returned by [`QueryService::apply_edit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditReceipt {
    /// Version of the snapshot the edit published.
    pub version: u64,
    /// The document-layer delta: splice coordinates, changed labels,
    /// whether the whole document was renumbered.
    pub delta: EditDelta,
    /// True when the index was rebuilt from scratch instead of patched
    /// (renumbering, a new path, an emptied path, or a mapped backend).
    pub rebuilt: bool,
    /// Cached plans this rotation invalidated.
    pub invalidated_plans: u64,
}

/// What one applied edit **batch** did, returned by
/// [`QueryService::apply_edits`]: N ops, one snapshot rotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEditReceipt {
    /// Version of the snapshot the batch published (unchanged when the
    /// batch was empty).
    pub version: u64,
    /// Edit ops the batch applied.
    pub ops_applied: usize,
    /// True when any step rebuilt the index from scratch (the whole
    /// plan cache was flushed in that case).
    pub rebuilt: bool,
    /// Cached plans the batch's single rotation invalidated.
    pub invalidated_plans: u64,
    /// One document-layer delta per applied op, in application order —
    /// delta `i` maps node ids of intermediate state `i` to state
    /// `i + 1`, so composing all of them carries a pre-batch id into the
    /// published snapshot (the subscription layer relies on this).
    pub deltas: Vec<EditDelta>,
}

/// A concurrent query service over an edit-rotated sequence of immutable
/// snapshots.
///
/// The service is `Sync`: share it by reference across scoped threads
/// (or wrap it in an [`Arc`]) and call
/// [`execute`](QueryService::execute) from as many threads as you like —
/// the gate bounds actual concurrency, the plan cache and context pool
/// are internally synchronized, and results are byte-identical to
/// serial, uncached evaluation (pinned by `tests/serve_differential.rs`).
/// [`apply_edit`](QueryService::apply_edit) may run concurrently with
/// readers: each request pins one [`Snapshot`] for its whole evaluation,
/// so a rotation mid-request is invisible to it (pinned by
/// `tests/serve_rotation.rs`).
pub struct QueryService {
    snapshot: RwLock<Arc<Snapshot>>,
    /// Serializes writers; readers never take it. Held across the whole
    /// derive-and-rotate sequence so concurrent edits see each other.
    edit_lock: Mutex<()>,
    config: ServiceConfig,
    cache: PlanCache,
    contexts: Mutex<Vec<EvalContext>>,
    gate: Gate,
    stats: StatsCell,
}

impl QueryService {
    /// Build the element index for `doc` and wrap it.
    pub fn build(doc: Document, config: ServiceConfig) -> Self {
        let index = ElementIndex::build(&doc);
        QueryService::new(doc, index, config)
    }

    /// Serve `doc` from the mapped v3 index at `path`: boot is `mmap` +
    /// checksum verification instead of an index build, and queries read
    /// postings straight out of the page cache. The file must describe
    /// the same document (`write_mapped_index` from the same parse).
    pub fn open_mapped(
        doc: Document,
        path: &Path,
        config: ServiceConfig,
    ) -> Result<Self, MappedOpenError> {
        let index = MappedIndex::open(path)?;
        Ok(QueryService::with_backend(
            doc,
            ServeIndex::Mapped(index),
            config,
        ))
    }

    /// Wrap an already-built index. `index` must have been built from
    /// `doc` (the constructor does not verify the pairing).
    pub fn new(doc: Document, index: ElementIndex, config: ServiceConfig) -> Self {
        QueryService::with_backend(doc, ServeIndex::Heap(index), config)
    }

    fn with_backend(doc: Document, index: ServeIndex, config: ServiceConfig) -> Self {
        let gate = Gate::new(config.max_concurrency, config.max_waiting);
        let cache = PlanCache::new(config.plan_cache_capacity, config.plan_cache_shards);
        let snapshot = Arc::new(Snapshot {
            doc,
            index,
            version: 0,
        });
        QueryService {
            snapshot: RwLock::new(snapshot),
            edit_lock: Mutex::new(()),
            config,
            cache,
            contexts: Mutex::new(Vec::new()),
            gate,
            stats: StatsCell::default(),
        }
    }

    /// Pin the current snapshot. The `Arc` keeps the whole generation
    /// (document and index) alive for as long as the caller holds it,
    /// no matter how many rotations happen meanwhile.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// Apply one subtree edit and rotate the resulting snapshot in.
    ///
    /// The new document and index are derived outside the snapshot lock
    /// (readers are never blocked by the derivation, only by the final
    /// pointer swap), then cached plans are invalidated: all of them if
    /// the index was rebuilt (summary-id numbering may have moved —
    /// always the case for a mapped backend, which is materialized to a
    /// heap index by its first edit), otherwise exactly the plans whose
    /// scanned labels intersect the edit's changed labels. Concurrent
    /// edits serialize; a rejected edit changes nothing.
    pub fn apply_edit(&self, op: &EditOp) -> Result<EditReceipt, ServeError> {
        let _writer = self.edit_lock.lock().expect("edit lock poisoned");
        let old = self.snapshot();
        let (doc, delta) = apply_op(&old.doc, op)?;
        let (index, how) = match &old.index {
            ServeIndex::Heap(ix) => {
                let (ix, how) = ix.apply_edit(&doc, &delta);
                (ServeIndex::Heap(ix), how)
            }
            // v3 files are read-only; materialize the post-edit index on
            // the heap. A rebuild, so every cached plan is stale.
            ServeIndex::Mapped(_) => {
                twigobs::add(twigobs::Counter::EditElementsReindexed, doc.len() as u64);
                (
                    ServeIndex::Heap(ElementIndex::build(&doc)),
                    EditApply::Rebuilt,
                )
            }
        };
        let version = old.version + 1;
        let next = Arc::new(Snapshot {
            doc,
            index,
            version,
        });
        *self.snapshot.write().expect("snapshot lock poisoned") = next;
        let rebuilt = how == EditApply::Rebuilt;
        let changed = (!rebuilt).then_some(delta.changed_labels.as_slice());
        let invalidated = self.cache.rotate(changed, version);
        self.stats.edits.fetch_add(1, Ordering::Relaxed);
        self.stats.rotations.fetch_add(1, Ordering::Relaxed);
        self.stats
            .invalidations
            .fetch_add(invalidated, Ordering::Relaxed);
        twigobs::bump(twigobs::Counter::SnapshotRotations);
        twigobs::add(twigobs::Counter::PlanCacheInvalidations, invalidated);
        Ok(EditReceipt {
            version,
            delta,
            rebuilt,
            invalidated_plans: invalidated,
        })
    }

    /// Apply a batch of subtree edits as **one** snapshot rotation
    /// (ROADMAP item 1a).
    ///
    /// Each op is expressed against the document produced by the ops
    /// before it — exactly the coordinates N sequential
    /// [`apply_edit`](Self::apply_edit) calls would use — and the final
    /// document and index are identical to that sequence's. What differs
    /// is the publication: readers see either the pre-batch snapshot or
    /// the fully edited one (never an intermediate), the plan cache pays
    /// one rotation whose changed-label set is the union over all ops
    /// (one full flush if any step rebuilt), and `snapshot_rotations`
    /// advances by exactly 1.
    ///
    /// All-or-nothing: a rejected op aborts the whole batch before
    /// anything is published. An empty batch is a no-op (no rotation).
    pub fn apply_edits(&self, ops: &[EditOp]) -> Result<BatchEditReceipt, ServeError> {
        let _writer = self.edit_lock.lock().expect("edit lock poisoned");
        let old = self.snapshot();
        if ops.is_empty() {
            return Ok(BatchEditReceipt {
                version: old.version,
                ops_applied: 0,
                rebuilt: false,
                invalidated_plans: 0,
                deltas: Vec::new(),
            });
        }
        let mut doc_cur: Option<Document> = None;
        let mut ix_cur: Option<ElementIndex> = None;
        let mut rebuilt = false;
        let mut changed: Vec<Label> = Vec::new();
        let mut deltas: Vec<EditDelta> = Vec::with_capacity(ops.len());
        for op in ops {
            let (next_doc, delta) = apply_op(doc_cur.as_ref().unwrap_or(&old.doc), op)?;
            let (next_ix, how) = match (&ix_cur, &old.index) {
                (Some(ix), _) => ix.apply_edit(&next_doc, &delta),
                (None, ServeIndex::Heap(ix)) => ix.apply_edit(&next_doc, &delta),
                // v3 files are read-only; the first op materializes the
                // post-edit index on the heap (see apply_edit).
                (None, ServeIndex::Mapped(_)) => {
                    twigobs::add(
                        twigobs::Counter::EditElementsReindexed,
                        next_doc.len() as u64,
                    );
                    (ElementIndex::build(&next_doc), EditApply::Rebuilt)
                }
            };
            rebuilt |= how == EditApply::Rebuilt;
            for &l in &delta.changed_labels {
                if !changed.contains(&l) {
                    changed.push(l);
                }
            }
            doc_cur = Some(next_doc);
            ix_cur = Some(next_ix);
            deltas.push(delta);
        }
        let version = old.version + 1;
        let next = Arc::new(Snapshot {
            doc: doc_cur.expect("non-empty batch"),
            index: ServeIndex::Heap(ix_cur.expect("non-empty batch")),
            version,
        });
        *self.snapshot.write().expect("snapshot lock poisoned") = next;
        let invalidated = self
            .cache
            .rotate((!rebuilt).then_some(changed.as_slice()), version);
        self.stats
            .edits
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        self.stats.rotations.fetch_add(1, Ordering::Relaxed);
        self.stats
            .invalidations
            .fetch_add(invalidated, Ordering::Relaxed);
        twigobs::bump(twigobs::Counter::SnapshotRotations);
        twigobs::add(twigobs::Counter::PlanCacheInvalidations, invalidated);
        Ok(BatchEditReceipt {
            version,
            ops_applied: ops.len(),
            rebuilt,
            invalidated_plans: invalidated,
            deltas,
        })
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.stats;
        ServiceStats {
            plan_cache_hits: s.hits.load(Ordering::Relaxed),
            plan_cache_misses: s.misses.load(Ordering::Relaxed),
            plan_cache_evictions: s.evictions.load(Ordering::Relaxed),
            queries_admitted: s.admitted.load(Ordering::Relaxed),
            queries_rejected: s.rejected.load(Ordering::Relaxed),
            deadline_exceeded: s.deadline.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            contexts_reused: s.ctx_reused.load(Ordering::Relaxed),
            edits_applied: s.edits.load(Ordering::Relaxed),
            snapshot_rotations: s.rotations.load(Ordering::Relaxed),
            plan_cache_invalidations: s.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Plan `query` (through the cache, without admission or
    /// evaluation) and return the pruning policy its plan runs with — the
    /// introspection hook the pinned planning tests and Fig S use.
    pub fn planned(&self, query: &str) -> Result<PruningPolicy, ServeError> {
        Ok(self.lookup_plan(&self.snapshot(), query)?.policy)
    }

    /// Evaluate one query under the config's default deadline (if any).
    pub fn execute(&self, query: &str) -> Result<ResultSet, ServeError> {
        self.execute_with(query, self.default_cancel())
    }

    /// Evaluate one query under an explicit cancellation token. The
    /// token is polled at stream-advance granularity, so cancellation
    /// and deadlines take effect mid-scan, not just between requests.
    /// The snapshot is pinned at admission: a concurrent edit never
    /// tears this evaluation across generations.
    pub fn execute_with(&self, query: &str, cancel: CancelToken) -> Result<ResultSet, ServeError> {
        let _span = twigobs::span(twigobs::Phase::Serve);
        let permit = self.admit(1)?;
        let snap = self.snapshot();
        let plan = self.lookup_plan(&snap, query)?;
        let out = self.eval_single(&snap, &plan, &cancel);
        drop(permit);
        out
    }

    /// Evaluate a batch, sharing one merged stream scan among admitted
    /// queries whose plans read the same label set. Returns one result
    /// per input query, in input order; each query fails independently
    /// (a shared-scan failure falls back to per-query evaluation so
    /// every member reports its own typed error). The whole batch runs
    /// against one pinned snapshot.
    pub fn execute_batch(&self, queries: &[&str]) -> Vec<Result<ResultSet, ServeError>> {
        let _span = twigobs::span(twigobs::Phase::Serve);
        let snap = self.snapshot();
        let mut out: Vec<Option<Result<ResultSet, ServeError>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut prepared: Vec<(usize, Arc<CachedPlan>)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            match self.lookup_plan(&snap, q) {
                Ok(p) => prepared.push((i, p)),
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        // Group by scanned label set: equal sets share one merged scan.
        type Group = (Vec<Label>, Vec<(usize, Arc<CachedPlan>)>);
        let mut groups: Vec<Group> = Vec::new();
        for (i, p) in prepared {
            let key = p.plan.labels();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push((i, p)),
                None => groups.push((key, vec![(i, p)])),
            }
        }
        for (_, members) in groups {
            let cancel = self.default_cancel();
            let permit = match self.admit(members.len() as u64) {
                Ok(p) => p,
                Err(shed) => {
                    for (i, _) in &members {
                        out[*i] = Some(Err(shed.into()));
                    }
                    continue;
                }
            };
            let shared = match members.as_slice() {
                [_] => None,
                _ => self.eval_group(&snap, &members, &cancel),
            };
            match shared {
                Some(results) => {
                    for ((i, _), rs) in members.iter().zip(results) {
                        out[*i] = Some(Ok(rs));
                    }
                }
                // Alone in its label set (the pooled single-query path),
                // or the shared scan failed (deadline, cancellation,
                // panic): evaluate members individually so each reports
                // its own typed error — and any member unaffected by a
                // per-query fault still succeeds.
                None => {
                    for (i, plan) in &members {
                        out[*i] = Some(self.eval_single(&snap, plan, &cancel));
                    }
                }
            }
            drop(permit);
        }
        out.into_iter()
            .map(|o| o.expect("every query resolved"))
            .collect()
    }

    fn default_cancel(&self) -> CancelToken {
        match self.config.default_deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::never(),
        }
    }

    /// Admit one unit of evaluation work covering `queries` queries.
    fn admit(&self, queries: u64) -> Result<Permit<'_>, Shed> {
        match self.gate.admit() {
            Ok(p) => {
                self.stats.admitted.fetch_add(queries, Ordering::Relaxed);
                twigobs::add(twigobs::Counter::QueriesAdmitted, queries);
                Ok(p)
            }
            Err(e) => {
                self.stats.rejected.fetch_add(queries, Ordering::Relaxed);
                twigobs::add(twigobs::Counter::QueriesRejected, queries);
                Err(e)
            }
        }
    }

    /// Parse `query`, canonicalize it, and fetch-or-compute its plan for
    /// `snap`'s generation (a cached plan from another generation is a
    /// miss, never served).
    fn lookup_plan(&self, snap: &Snapshot, query: &str) -> Result<Arc<CachedPlan>, ServeError> {
        let gtp = parse_twig(query)?;
        let key = serialize(&gtp);
        if let Some(hit) = self.cache.get(&key, snap.version) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            twigobs::bump(twigobs::Counter::PlanCacheHits);
            return Ok(hit);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        twigobs::bump(twigobs::Counter::PlanCacheMisses);
        let policy = pruning_policy(&gtp, snap.index().summary(), snap.doc.labels());
        let plan = IndexedPlan::compute(&gtp, snap.index(), snap.doc.labels(), policy);
        let cached = Arc::new(CachedPlan { gtp, plan, policy });
        let evicted = self.cache.insert(key, Arc::clone(&cached), snap.version);
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
            twigobs::add(twigobs::Counter::PlanCacheEvictions, evicted);
        }
        Ok(cached)
    }

    fn pop_context(&self) -> EvalContext {
        let pooled = self.contexts.lock().expect("context pool poisoned").pop();
        match pooled {
            Some(ctx) => {
                self.stats.ctx_reused.fetch_add(1, Ordering::Relaxed);
                ctx
            }
            None => EvalContext::new(),
        }
    }

    fn push_context(&self, ctx: EvalContext) {
        let mut pool = self.contexts.lock().expect("context pool poisoned");
        if pool.len() < self.config.max_concurrency {
            pool.push(ctx);
        }
    }

    fn note_query_error(&self, e: &QueryError) {
        match e {
            QueryError::DeadlineExceeded => {
                self.stats.deadline.fetch_add(1, Ordering::Relaxed);
                twigobs::bump(twigobs::Counter::DeadlineExceeded);
            }
            QueryError::Cancelled => {
                self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Per-query evaluation: the pooled-context Twig²Stack
    /// match-then-enumerate pipeline over the plan's streams.
    fn eval_single(
        &self,
        snap: &Snapshot,
        plan: &CachedPlan,
        cancel: &CancelToken,
    ) -> Result<ResultSet, ServeError> {
        let mut ctx = self.pop_context();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            try_match_indexed(
                &snap.doc,
                snap.index(),
                &plan.gtp,
                MatchOptions::default(),
                &plan.plan,
                Some(&mut ctx),
                cancel,
            )
            .map(|(tm, _stats)| (enumerate(&tm), tm))
        }));
        match outcome {
            Ok(Ok((rs, tm))) => {
                ctx.recycle(tm);
                self.push_context(ctx);
                Ok(rs)
            }
            Ok(Err(e)) => {
                // The matcher's arenas died with it, but the context is
                // structurally sound — keep pooling it.
                self.push_context(ctx);
                self.note_query_error(&e);
                Err(ServeError::Query(e))
            }
            // A panicked evaluation may have left `ctx` mid-surgery:
            // drop it instead of pooling.
            Err(payload) => Err(ServeError::Panicked(panic_message(payload))),
        }
    }

    /// Shared-scan evaluation of a label-set group. Returns `None` on
    /// any failure — the caller falls back to per-member evaluation for
    /// accurate per-query errors.
    fn eval_group(
        &self,
        snap: &Snapshot,
        members: &[(usize, Arc<CachedPlan>)],
        cancel: &CancelToken,
    ) -> Option<Vec<ResultSet>> {
        let refs: Vec<(&Gtp, &IndexedPlan)> =
            members.iter().map(|(_, p)| (&p.gtp, &p.plan)).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            try_match_indexed_group(
                &snap.doc,
                snap.index(),
                &refs,
                MatchOptions::default(),
                cancel,
            )
            .map(|v| {
                v.into_iter()
                    .map(|(tm, _)| enumerate(&tm))
                    .collect::<Vec<_>>()
            })
        }));
        match outcome {
            Ok(Ok(results)) => Some(results),
            Ok(Err(_)) | Err(_) => None,
        }
    }

    /// Number of plans currently cached (diagnostics).
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const DOC: &str =
        "<a><a><b><c/></b></a><b/><b><c/><c/></b><d><b><c/></b></d><b><y>2006</y></b></a>";

    fn service(config: ServiceConfig) -> QueryService {
        QueryService::build(xmldom::parse(DOC).unwrap(), config)
    }

    #[test]
    fn execute_matches_serial_evaluation() {
        let svc = service(ServiceConfig::default());
        // `b!` is a non-return node: a GTP extension no decomposition
        // baseline runs.
        for q in ["//a/b[c]", "//a//b", "//b/y", "//a/b[y='2006']", "//a/b!/c"] {
            let gtp = parse_twig(q).unwrap();
            let expected = twig2stack::evaluate(svc.snapshot().doc(), &gtp);
            assert_eq!(svc.execute(q).unwrap(), expected, "{q}");
        }
    }

    /// `//a[b[b[…]]]` with `depth` nested predicates.
    fn nested_query(depth: usize) -> String {
        format!("//a{}{}", "[b".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn predicate_nesting_past_the_limit_is_a_parse_error() {
        let svc = service(ServiceConfig::default());
        let err = svc.execute(&nested_query(40_000)).unwrap_err();
        assert!(matches!(err, ServeError::Parse(_)), "{err}");
        assert_eq!(svc.stats().plan_cache_misses, 0);
        // At the limit the query still plans and evaluates.
        let deep = nested_query(256);
        let expected = twig2stack::evaluate(svc.snapshot().doc(), &parse_twig(&deep).unwrap());
        assert_eq!(svc.execute(&deep).unwrap(), expected);
    }

    #[test]
    fn flat_path_past_the_depth_limit_is_a_parse_error_on_a_default_stack() {
        // 100,000 spine steps: building the plan-cache key would recurse
        // once per step, so the parser's depth limit must refuse the query
        // first, on a thread with the platform's default 2 MiB.
        let q = "//a".to_string() + &"/a".repeat(99_999);
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || service(ServiceConfig::default()).execute(&q).map(|rs| rs.len()))
            .unwrap()
            .join()
            .unwrap();
        assert!(matches!(outcome, Err(ServeError::Parse(_))), "{outcome:?}");
    }

    #[test]
    fn second_request_hits_the_plan_cache() {
        let svc = service(ServiceConfig::default());
        let a = svc.execute("//a/b[c]").unwrap();
        let b = svc.execute("//a/b[c]").unwrap();
        assert_eq!(a, b);
        let s = svc.stats();
        assert_eq!(s.plan_cache_misses, 1, "the hit skipped the analysis");
        assert_eq!(s.plan_cache_hits, 1);
        assert_eq!(s.queries_admitted, 2);
        assert_eq!(
            s.contexts_reused, 1,
            "second request reused the pooled context"
        );
        assert_eq!(svc.cached_plans(), 1);
    }

    #[test]
    fn equivalent_spellings_share_one_plan() {
        let svc = service(ServiceConfig::default());
        // The cache key is the canonical serialization, so the spine
        // spelling and its bracket-only canonical form share one entry.
        let spine = "//a/b[c]";
        let canonical = serialize(&parse_twig(spine).unwrap());
        assert_ne!(spine, canonical, "the two spellings differ as text");
        let a = svc.execute(spine).unwrap();
        let b = svc.execute(&canonical).unwrap();
        assert_eq!(a, b);
        let s = svc.stats();
        assert_eq!(s.plan_cache_misses, 1);
        assert_eq!(s.plan_cache_hits, 1);
        assert_eq!(svc.cached_plans(), 1);
    }

    #[test]
    fn cache_off_reruns_the_analysis() {
        let svc = service(ServiceConfig {
            plan_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        svc.execute("//a/b[c]").unwrap();
        svc.execute("//a/b[c]").unwrap();
        let s = svc.stats();
        assert_eq!(s.plan_cache_hits, 0);
        assert_eq!(s.plan_cache_misses, 2);
        assert_eq!(svc.cached_plans(), 0);
    }

    #[test]
    fn parse_errors_are_typed() {
        let svc = service(ServiceConfig::default());
        let err = svc.execute("//a[").unwrap_err();
        assert!(matches!(err, ServeError::Parse(_)));
        assert!(err.to_string().contains("parse"));
        // A rejected parse consumes an admission slot but never runs.
        assert_eq!(svc.stats().plan_cache_misses, 0);
    }

    #[test]
    fn expired_deadline_surfaces_as_typed_error() {
        let svc = service(ServiceConfig::default());
        let err = svc
            .execute_with("//a/b[c]", CancelToken::with_deadline(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Query(QueryError::DeadlineExceeded)
        ));
        assert_eq!(svc.stats().deadline_exceeded, 1);
    }

    #[test]
    fn cancellation_surfaces_as_typed_error() {
        let svc = service(ServiceConfig::default());
        let token = CancelToken::new();
        token.cancel();
        let err = svc.execute_with("//a/b[c]", token).unwrap_err();
        assert!(matches!(err, ServeError::Query(QueryError::Cancelled)));
        assert_eq!(svc.stats().cancelled, 1);
    }

    #[test]
    fn overload_policy_sheds_with_typed_rejection() {
        let gate = Gate::new(1, 0);
        let first = gate.admit().expect("first admission fits");
        let shed = gate.admit().expect_err("second admission must shed");
        match ServeError::from(shed) {
            ServeError::Overloaded { running, waiting } => {
                assert_eq!(running, 1);
                assert_eq!(waiting, 0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        drop(first);
        drop(gate.admit().expect("slot freed after release"));
    }

    #[test]
    fn waiters_are_admitted_when_a_slot_frees() {
        let gate = Arc::new(Gate::new(1, 4));
        let permit = gate.admit().unwrap();
        let (tx, rx) = mpsc::channel();
        let g = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            let p = g.admit().expect("waiter is queued, not shed");
            tx.send(()).unwrap();
            drop(p);
        });
        // The waiter is blocked until the slot frees.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        drop(permit);
        rx.recv_timeout(Duration::from_secs(5))
            .expect("waiter admitted");
        waiter.join().unwrap();
    }

    #[test]
    fn batch_matches_individual_execution() {
        let svc = service(ServiceConfig::default());
        let queries = ["//a/b[c]", "//a//b", "//b/c", "//a/b[c]", "bogus[", "//d/b"];
        let batch = svc.execute_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, r) in queries.iter().zip(&batch) {
            match *q {
                "bogus[" => assert!(matches!(r, Err(ServeError::Parse(_)))),
                q => {
                    let gtp = parse_twig(q).unwrap();
                    let expected = twig2stack::evaluate(svc.snapshot().doc(), &gtp);
                    assert_eq!(*r.as_ref().unwrap(), expected, "{q}");
                }
            }
        }
        // //a/b[c] and //b/c scan {b, c}; the duplicate //a/b[c] joins
        // them, so at least one shared scan formed.
        assert!(svc.stats().queries_admitted >= 5);
    }

    #[test]
    fn every_member_of_a_shed_batch_group_reports_the_gate_counts() {
        let svc = service(ServiceConfig {
            max_concurrency: 1,
            max_waiting: 0,
            ..ServiceConfig::default()
        });
        let held = svc.gate.admit().expect("the only slot");
        // Two label-set groups: {a, b, c} twice and {d} once.
        let batch = svc.execute_batch(&["//a/b[c]", "//d", "//a/b[c]"]);
        for r in &batch {
            assert!(
                matches!(r, Err(ServeError::Overloaded { running: 1, waiting: 0 })),
                "{r:?}"
            );
        }
        assert_eq!(svc.stats().queries_rejected, 3);
        drop(held);
        assert!(svc.execute_batch(&["//d"])[0].is_ok());
    }

    #[test]
    fn mapped_service_matches_heap_service() {
        let path =
            std::env::temp_dir().join(format!("twigserve-mapped-{}.t2s", std::process::id()));
        xmlindex::write_mapped_index(&xmldom::parse(DOC).unwrap(), &path).unwrap();
        let heap = service(ServiceConfig::default());
        let mapped =
            QueryService::open_mapped(xmldom::parse(DOC).unwrap(), &path, ServiceConfig::default())
                .unwrap();
        for q in ["//a/b[c]", "//a//b", "//b/y", "//a/b[y='2006']", "//*[b]/c"] {
            assert_eq!(mapped.execute(q).unwrap(), heap.execute(q).unwrap(), "{q}");
        }
        let s = mapped.stats();
        assert_eq!(s.plan_cache_misses, 5);
        let snap = mapped.snapshot();
        assert!(
            snap.index()
                .as_mapped()
                .expect("still file-backed")
                .file_bytes()
                > 0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_hammering_is_deterministic() {
        let svc = service(ServiceConfig {
            max_concurrency: 4,
            ..ServiceConfig::default()
        });
        let queries = ["//a/b[c]", "//a//b", "//b/y", "//a/b[y='2006']"];
        let expected: Vec<ResultSet> = queries
            .iter()
            .map(|q| twig2stack::evaluate(svc.snapshot().doc(), &parse_twig(q).unwrap()))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let svc = &svc;
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..20 {
                        let i = (t + round) % queries.len();
                        assert_eq!(svc.execute(queries[i]).unwrap(), expected[i]);
                    }
                });
            }
        });
        let s = svc.stats();
        assert_eq!(s.queries_admitted, 8 * 20);
        assert_eq!(
            s.queries_rejected, 0,
            "waiters queue; nothing sheds at this load"
        );
        assert_eq!(s.plan_cache_misses + s.plan_cache_hits, 8 * 20);
        assert!(s.plan_cache_hits >= 8 * 20 - 4 * 8, "most lookups hit");
    }

    #[test]
    fn apply_edit_rotates_and_queries_see_the_new_document() {
        let svc = service(ServiceConfig::default());
        let before = svc.execute("//a/b").unwrap();
        let root = svc.snapshot().doc().root();
        let receipt = svc
            .apply_edit(&EditOp::InsertSubtree {
                parent: Some(root),
                position: 0,
                subtree: xmldom::parse("<b><c/></b>").unwrap(),
            })
            .unwrap();
        assert_eq!(receipt.version, 1);
        assert!(
            receipt.delta.renumbered,
            "first insert into a dense document renumbers"
        );
        assert!(receipt.rebuilt);
        let after = svc.execute("//a/b").unwrap();
        assert_eq!(after.len(), before.len() + 1);
        let snap = svc.snapshot();
        assert_eq!(snap.version(), 1);
        let gtp = parse_twig("//a/b").unwrap();
        assert_eq!(
            after,
            twig2stack::evaluate(snap.doc(), &gtp),
            "index agrees with a DOM walk"
        );
        let s = svc.stats();
        assert_eq!(s.edits_applied, 1);
        assert_eq!(s.snapshot_rotations, 1);
    }

    #[test]
    fn rotation_invalidates_touched_plans_and_keeps_disjoint_ones() {
        let svc = service(ServiceConfig::default());
        let root = svc.snapshot().doc().root();
        // First edit renumbers (rebuild) and leaves stride-16 gaps, so
        // the second edit below can take the incremental patch path.
        svc.apply_edit(&EditOp::InsertSubtree {
            parent: Some(root),
            position: 0,
            subtree: xmldom::parse("<b><c/></b>").unwrap(),
        })
        .unwrap();
        svc.execute("//d").unwrap();
        svc.execute("//b/c").unwrap();
        assert_eq!(svc.cached_plans(), 2);
        let snap = svc.snapshot();
        let new_b = snap.doc().children(snap.doc().root()).next().unwrap();
        let receipt = svc
            .apply_edit(&EditOp::InsertSubtree {
                parent: Some(new_b),
                position: 1,
                subtree: xmldom::parse("<c/>").unwrap(),
            })
            .unwrap();
        assert!(
            !receipt.rebuilt,
            "gap-fitting insert on a known path patches"
        );
        assert_eq!(receipt.delta.changed_labels.len(), 1, "only c changed");
        assert_eq!(
            receipt.invalidated_plans, 1,
            "//b/c scans c; //d is disjoint"
        );
        let before = svc.stats();
        svc.execute("//d").unwrap();
        assert_eq!(
            svc.stats().plan_cache_hits,
            before.plan_cache_hits + 1,
            "//d survived"
        );
        svc.execute("//b/c").unwrap();
        assert_eq!(
            svc.stats().plan_cache_misses,
            before.plan_cache_misses + 1,
            "//b/c re-planned"
        );
        let gtp = parse_twig("//b/c").unwrap();
        let snap = svc.snapshot();
        assert_eq!(
            svc.execute("//b/c").unwrap(),
            twig2stack::evaluate(snap.doc(), &gtp)
        );
        assert_eq!(svc.stats().plan_cache_invalidations, 1);
    }

    #[test]
    fn pinned_snapshots_survive_rotation() {
        let svc = service(ServiceConfig::default());
        let pinned = svc.snapshot();
        let gtp = parse_twig("//a/b").unwrap();
        let old_rows = twig2stack::evaluate(pinned.doc(), &gtp);
        let root = pinned.doc().root();
        svc.apply_edit(&EditOp::DeleteSubtree {
            target: pinned.doc().children(root).nth(1).unwrap(),
        })
        .unwrap();
        // The pinned generation is untouched: same document, same rows.
        assert_eq!(pinned.version(), 0);
        assert_eq!(twig2stack::evaluate(pinned.doc(), &gtp), old_rows);
        assert_ne!(svc.execute("//a/b").unwrap().len(), old_rows.len());
    }

    #[test]
    fn editing_a_mapped_service_materializes_a_heap_snapshot() {
        let path =
            std::env::temp_dir().join(format!("twigserve-mapped-edit-{}.t2s", std::process::id()));
        xmlindex::write_mapped_index(&xmldom::parse(DOC).unwrap(), &path).unwrap();
        let svc =
            QueryService::open_mapped(xmldom::parse(DOC).unwrap(), &path, ServiceConfig::default())
                .unwrap();
        svc.execute("//a/b[c]").unwrap();
        let root = svc.snapshot().doc().root();
        let receipt = svc
            .apply_edit(&EditOp::InsertSubtree {
                parent: Some(root),
                position: 0,
                subtree: xmldom::parse("<b><c/></b>").unwrap(),
            })
            .unwrap();
        assert!(
            receipt.rebuilt,
            "a read-only mapped index is always rebuilt to the heap"
        );
        assert_eq!(receipt.invalidated_plans, 1);
        let snap = svc.snapshot();
        assert!(
            snap.index().as_mapped().is_none(),
            "post-edit snapshot is heap-backed"
        );
        let gtp = parse_twig("//a/b[c]").unwrap();
        assert_eq!(
            svc.execute("//a/b[c]").unwrap(),
            twig2stack::evaluate(snap.doc(), &gtp)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejected_edits_change_nothing() {
        let svc = service(ServiceConfig::default());
        svc.execute("//a/b[c]").unwrap();
        let missing = xmldom::NodeId::from_index(9_999);
        let err = svc
            .apply_edit(&EditOp::DeleteSubtree { target: missing })
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Edit(xmldom::EditError::InvalidNode(_))
        ));
        assert!(err.to_string().contains("edit rejected"));
        let s = svc.stats();
        assert_eq!(s.edits_applied, 0);
        assert_eq!(s.snapshot_rotations, 0);
        assert_eq!(svc.snapshot().version(), 0);
        assert_eq!(svc.cached_plans(), 1, "the cached plan is still there");
    }

    #[test]
    fn apply_edits_batches_n_ops_into_one_rotation() {
        let batched = service(ServiceConfig::default());
        let serial = service(ServiceConfig::default());
        batched.execute("//b/c").unwrap();
        let ops: Vec<EditOp> = (0..3)
            .map(|i| EditOp::InsertSubtree {
                parent: Some(batched.snapshot().doc().root()),
                position: i,
                subtree: xmldom::parse("<b><c/></b>").unwrap(),
            })
            .collect();
        let receipt = batched.apply_edits(&ops).unwrap();
        assert_eq!(receipt.ops_applied, 3);
        assert_eq!(receipt.version, 1, "one rotation for the whole batch");
        for op in &ops {
            serial.apply_edit(op).unwrap();
        }
        for q in ["//a/b", "//b/c", "//a//b", "//d//c"] {
            assert_eq!(
                batched.execute(q).unwrap(),
                serial.execute(q).unwrap(),
                "batch is equivalent to sequential application: {q}"
            );
        }
        let b = batched.stats();
        assert_eq!(b.edits_applied, 3);
        assert_eq!(b.snapshot_rotations, 1, "N ops, one snapshot swap");
        assert_eq!(batched.snapshot().version(), 1);
        let s = serial.stats();
        assert_eq!(s.edits_applied, 3);
        assert_eq!(
            s.snapshot_rotations, 3,
            "sequential application rotates per op"
        );
        assert_eq!(serial.snapshot().version(), 3);
    }

    #[test]
    fn apply_edits_is_all_or_nothing() {
        let svc = service(ServiceConfig::default());
        let before = svc.execute("//a/b[c]").unwrap();
        let root = svc.snapshot().doc().root();
        let ops = [
            EditOp::InsertSubtree {
                parent: Some(root),
                position: 0,
                subtree: xmldom::parse("<b><c/></b>").unwrap(),
            },
            EditOp::DeleteSubtree {
                target: xmldom::NodeId::from_index(9_999),
            },
        ];
        let err = svc.apply_edits(&ops).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Edit(xmldom::EditError::InvalidNode(_))
        ));
        let s = svc.stats();
        assert_eq!(s.edits_applied, 0, "the valid prefix was not published");
        assert_eq!(s.snapshot_rotations, 0);
        assert_eq!(svc.snapshot().version(), 0);
        assert_eq!(svc.execute("//a/b[c]").unwrap(), before);
    }

    #[test]
    fn empty_edit_batch_is_a_noop() {
        let svc = service(ServiceConfig::default());
        let receipt = svc.apply_edits(&[]).unwrap();
        assert_eq!(
            receipt,
            BatchEditReceipt {
                version: 0,
                ops_applied: 0,
                rebuilt: false,
                invalidated_plans: 0,
                deltas: Vec::new(),
            }
        );
        assert_eq!(svc.stats().snapshot_rotations, 0);
    }
}
