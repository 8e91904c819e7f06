//! Standing-query subscriptions over the edit-rotated service
//! (DESIGN.md §17): the serve-layer face of `twig2stack::subscribe`.
//!
//! A [`SubscriptionService`] wraps a [`QueryService`] and keeps a set of
//! registered GTP subscriptions. Edits applied through the wrapper
//! first rotate the snapshot exactly like
//! [`QueryService::apply_edit`] / [`QueryService::apply_edits`], then
//! drive **one** shared-automaton pass over the rotated document and
//! emit a [`SubNotification`] for every subscription whose match set
//! changed — the change-notification layer for the PR 8/9 write path.
//!
//! Notification semantics: per subscription the service remembers the
//! last published match set (the baseline is the snapshot at
//! registration time). After a rotation, `added` / `removed` are the
//! exact row-level delta against that memory, and the post-edit match
//! set always equals re-running the query solo on the rotated snapshot
//! (`tests/subscription_lifecycle.rs` pins this). Edits applied behind
//! the wrapper's back (directly on the inner [`QueryService`]) are
//! picked up by the next rotation or an explicit
//! [`poll`](SubscriptionService::poll): deltas then cover every
//! rotation since the last notification, never lost.

use crate::{BatchEditReceipt, EditReceipt, QueryService, ServeError, Snapshot};
use gtpquery::{parse_twig, Cell, Gtp, ResultSet};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use twig2stack::{run_subscriptions_doc, MatchOptions, SharedAutomaton};
use xmldom::{EditDelta, EditOp};

/// Handle for one registered subscription. Ids are never reused: an
/// unregistered id stays dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u32);

impl SubscriptionId {
    /// The id's registration ordinal.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One subscription's match-set change, emitted after a rotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubNotification {
    /// The subscription whose matches changed.
    pub sub: SubscriptionId,
    /// Snapshot version the delta was computed against.
    pub version: u64,
    /// Rows present now but not in the last published set; node ids
    /// resolve against the rotated snapshot.
    pub added: ResultSet,
    /// Rows present in the last published set but gone now; node ids
    /// refer to the *previous* snapshot (the elements no longer exist).
    pub removed: ResultSet,
}

/// A result cell keyed for cross-snapshot row identity.
///
/// `NodeId`s are dense preorder arena indices, so a raw id cannot
/// identify an element across rotations: a splice shifts every id at or
/// after the splice point. (Region tag positions are no better — a
/// splice that changes the node count moves every later tag position.)
/// What *is* exact is the edit layer's own bookkeeping: every
/// [`EditDelta`] records the splice coordinates, and
/// [`EditDelta::id_shift`] maps surviving pre-edit ids onto post-edit
/// ids. So keys hold node ids, and [`remap_keys`] carries a slot's
/// stored keys through each applied delta before diffing — regions are
/// irrelevant to this scheme.
/// `Gone` marks a key that referenced a deleted node; fresh keys never
/// contain it, so such rows always diff as removed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyCell {
    Node(u32),
    Null,
    Group(Vec<u32>),
    Gone,
}

type RowKey = Vec<KeyCell>;

/// Identity keys for every row of `rs`, in the node-id coordinates of
/// the snapshot the rows were computed on.
fn row_keys(rs: &ResultSet) -> Vec<RowKey> {
    rs.rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|c| match c {
                    Cell::Node(n) => KeyCell::Node(n.index() as u32),
                    Cell::Null => KeyCell::Null,
                    Cell::Group(g) => KeyCell::Group(g.iter().map(|n| n.index() as u32).collect()),
                })
                .collect()
        })
        .collect()
}

/// Carry stored row keys across one applied edit via
/// [`EditDelta::map_id`]: ids before the splice are unchanged, ids
/// inside the removed range become [`KeyCell::Gone`], ids after it
/// shift by [`EditDelta::id_shift`]. A group cell that loses any member
/// goes `Gone` wholesale — its row's grouping changed, which correctly
/// surfaces as removed + re-added.
fn remap_keys(keys: &mut [RowKey], delta: &EditDelta) {
    for key in keys {
        for cell in key {
            let mapped = match cell {
                KeyCell::Node(n) => delta.map_id(*n).map(KeyCell::Node),
                KeyCell::Group(g) => g
                    .iter()
                    .map(|&n| delta.map_id(n))
                    .collect::<Option<Vec<u32>>>()
                    .map(KeyCell::Group),
                KeyCell::Null => Some(KeyCell::Null),
                KeyCell::Gone => Some(KeyCell::Gone),
            };
            *cell = mapped.unwrap_or(KeyCell::Gone);
        }
    }
}

/// One registered subscription's standing state.
struct Slot {
    query: String,
    gtp: Gtp,
    /// The last published match set (registration baseline, then
    /// updated by every notification pass). Node ids refer to the
    /// snapshot the set was computed on.
    last: ResultSet,
    /// Identity keys for `last`, row-aligned, kept in the *current*
    /// snapshot's node-id coordinates by [`remap_keys`] on every edit
    /// applied through the wrapper — the basis of the delta diff.
    last_keys: Vec<RowKey>,
}

/// Registry + cached automaton. The automaton is invalidated by
/// register/unregister and rebuilt lazily on the next pass (build cost
/// is linear in total query size).
#[derive(Default)]
struct Registry {
    /// Index = subscription id; `None` = unregistered.
    slots: Vec<Option<Slot>>,
    /// Compiled automaton over the live slots plus the automaton-order →
    /// slot-index mapping.
    auto: Option<(SharedAutomaton, Vec<usize>)>,
}

impl Registry {
    fn live(&self) -> impl Iterator<Item = (usize, &Slot)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
    }

    /// The compiled automaton (rebuilding it if stale).
    fn automaton(&mut self) -> &(SharedAutomaton, Vec<usize>) {
        if self.auto.is_none() {
            let (gtps, map): (Vec<Gtp>, Vec<usize>) =
                self.live().map(|(i, s)| (s.gtp.clone(), i)).unzip();
            self.auto = Some((SharedAutomaton::build(gtps), map));
        }
        self.auto.as_ref().expect("just built")
    }
}

/// Continuous multi-query subscriptions over a [`QueryService`]
/// (ROADMAP item 2; DESIGN.md §17).
pub struct SubscriptionService {
    svc: Arc<QueryService>,
    registry: Mutex<Registry>,
}

impl SubscriptionService {
    /// Attach a subscription registry to `svc`. The service is shared:
    /// queries keep flowing through `svc` unchanged.
    pub fn new(svc: Arc<QueryService>) -> Self {
        SubscriptionService {
            svc,
            registry: Mutex::new(Registry::default()),
        }
    }

    /// The wrapped query service.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.svc
    }

    /// Register a standing query. The current snapshot's matches become
    /// the notification baseline: the first notification after an edit
    /// reports the delta against *this* moment.
    pub fn register(&self, query: &str) -> Result<SubscriptionId, ServeError> {
        let gtp = parse_twig(query)?;
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        let snap = self.svc.snapshot();
        let last = twig2stack::evaluate(snap.doc(), &gtp);
        let last_keys = row_keys(&last);
        let id = SubscriptionId(reg.slots.len() as u32);
        reg.slots.push(Some(Slot {
            query: query.to_string(),
            gtp,
            last,
            last_keys,
        }));
        reg.auto = None;
        Ok(id)
    }

    /// Drop a subscription. Returns false if the id was never live.
    /// Unregistering under snapshot rotation is safe: the in-flight
    /// pass holds the previous automaton and simply has no slot to
    /// publish into afterwards.
    pub fn unregister(&self, id: SubscriptionId) -> bool {
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        match reg.slots.get_mut(id.index()) {
            Some(slot @ Some(_)) => {
                *slot = None;
                reg.auto = None;
                true
            }
            _ => false,
        }
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.registry
            .lock()
            .expect("subscription registry poisoned")
            .live()
            .count()
    }

    /// True iff no subscription is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The last published match set of `id` (its registered-query
    /// results as of the most recent notification pass).
    pub fn matches(&self, id: SubscriptionId) -> Option<ResultSet> {
        let reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        reg.slots.get(id.index())?.as_ref().map(|s| s.last.clone())
    }

    /// The registered query text of `id`.
    pub fn query(&self, id: SubscriptionId) -> Option<String> {
        let reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        reg.slots.get(id.index())?.as_ref().map(|s| s.query.clone())
    }

    /// Apply one edit through the wrapped service, then notify: one
    /// shared-automaton pass over the rotated snapshot, one delta per
    /// changed subscription (in id order).
    pub fn apply_edit(
        &self,
        op: &EditOp,
    ) -> Result<(EditReceipt, Vec<SubNotification>), ServeError> {
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        let receipt = self.svc.apply_edit(op)?;
        Self::remap_slots(&mut reg, std::slice::from_ref(&receipt.delta));
        let notes = self.notify(&mut reg);
        Ok((receipt, notes))
    }

    /// Apply an edit batch (one rotation, like
    /// [`QueryService::apply_edits`]), then notify once: deltas span the
    /// whole batch, intermediate states are never observed.
    pub fn apply_edits(
        &self,
        ops: &[EditOp],
    ) -> Result<(BatchEditReceipt, Vec<SubNotification>), ServeError> {
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        let receipt = self.svc.apply_edits(ops)?;
        Self::remap_slots(&mut reg, &receipt.deltas);
        let notes = self.notify(&mut reg);
        Ok((receipt, notes))
    }

    /// Carry every live slot's stored keys through the deltas of a
    /// rotation just applied through the wrapper, composing them in
    /// application order (delta `i` maps intermediate state `i` ids to
    /// state `i + 1` — see [`BatchEditReceipt::deltas`]).
    fn remap_slots(reg: &mut Registry, deltas: &[EditDelta]) {
        for slot in reg.slots.iter_mut().flatten() {
            for delta in deltas {
                remap_keys(&mut slot.last_keys, delta);
            }
        }
    }

    /// Recompute every subscription against the *current* snapshot and
    /// emit the deltas — catches rotations applied directly on the
    /// wrapped service. Such rotations carry no [`EditDelta`] the
    /// wrapper can observe, so stored keys are diffed as-is: the match
    /// *sets* are always exact, but added/removed attribution is
    /// best-effort when a bypassing splice shifted ids of surviving
    /// rows. Apply edits through the wrapper for exact deltas.
    pub fn poll(&self) -> Vec<SubNotification> {
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        self.notify(&mut reg)
    }

    /// One pass: run the shared automaton over the current snapshot's
    /// document (value predicates resolve against it as the text
    /// source), diff per subscription, publish.
    fn notify(&self, reg: &mut Registry) -> Vec<SubNotification> {
        if reg.live().next().is_none() {
            return Vec::new();
        }
        let snap: Arc<Snapshot> = self.svc.snapshot();
        let version = snap.version();
        let (results, map) = {
            let (auto, map) = reg.automaton();
            let (results, _) = run_subscriptions_doc(snap.doc(), auto, MatchOptions::default());
            (results, map.clone())
        };
        let mut notes = Vec::new();
        for (slot_index, fresh) in map.into_iter().zip(results) {
            let slot = reg.slots[slot_index]
                .as_mut()
                .expect("automaton maps only live slots");
            let fresh_keys = row_keys(&fresh);
            let (added, removed) = diff(&slot.last, &slot.last_keys, &fresh, &fresh_keys);
            slot.last = fresh;
            slot.last_keys = fresh_keys;
            if !added.is_empty() || !removed.is_empty() {
                twigobs::bump(twigobs::Counter::SubNotifications);
                notes.push(SubNotification {
                    sub: SubscriptionId(slot_index as u32),
                    version,
                    added,
                    removed,
                });
            }
        }
        notes
    }
}

/// Row-level set difference in both directions, keyed on delta-remapped
/// node ids (see [`KeyCell`]). Both inputs are duplicate-free
/// (enumeration guarantees it), so hash-set membership is exact; row
/// order within each delta follows the source set's document order.
/// `added` rows carry the *new* snapshot's node ids; `removed` rows
/// carry the *previous* snapshot's (those elements no longer exist).
fn diff(
    old: &ResultSet,
    old_keys: &[RowKey],
    new: &ResultSet,
    new_keys: &[RowKey],
) -> (ResultSet, ResultSet) {
    let old_set: HashSet<&RowKey> = old_keys.iter().collect();
    let new_set: HashSet<&RowKey> = new_keys.iter().collect();
    let mut added = ResultSet::new(new.columns.clone());
    for (row, key) in new.rows.iter().zip(new_keys) {
        if !old_set.contains(key) {
            added.push(row.clone());
        }
    }
    let mut removed = ResultSet::new(old.columns.clone());
    for (row, key) in old.rows.iter().zip(old_keys) {
        if !new_set.contains(key) {
            removed.push(row.clone());
        }
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use xmldom::parse;
    use xmlindex::ElementIndex;

    fn service(xml: &str) -> Arc<QueryService> {
        let doc = parse(xml).unwrap();
        let index = ElementIndex::build(&doc);
        Arc::new(QueryService::new(doc, index, ServiceConfig::default()))
    }

    #[test]
    fn register_baseline_and_matches() {
        let subs = SubscriptionService::new(service("<a><b/><b/></a>"));
        let id = subs.register("//a/b").unwrap();
        assert_eq!(subs.matches(id).unwrap().len(), 2);
        assert_eq!(subs.query(id).unwrap(), "//a/b");
        assert_eq!(subs.len(), 1);
        // No edit, no delta.
        assert!(subs.poll().is_empty());
    }

    #[test]
    fn bad_query_is_a_parse_error() {
        let subs = SubscriptionService::new(service("<a/>"));
        assert!(matches!(subs.register("//"), Err(ServeError::Parse(_))));
        assert!(subs.is_empty());
    }

    #[test]
    fn unregistered_id_stops_notifying() {
        let subs = SubscriptionService::new(service("<a><b/></a>"));
        let id = subs.register("//a/b").unwrap();
        assert!(subs.unregister(id));
        assert!(!subs.unregister(id));
        assert_eq!(subs.matches(id), None);
        let target = subs.service().snapshot().doc().root();
        let op = EditOp::DeleteSubtree { target };
        let (_, notes) = subs.apply_edit(&op).unwrap();
        assert!(notes.is_empty());
    }
}
