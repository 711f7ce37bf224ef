//! The structured trace core: typed events, the bounded recording ring and
//! the recorded [`Trace`] with its deterministic-section helpers.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// The timeline an event belongs to — one track per query, worker and disk
/// in the exported views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// A submitted query's lifecycle timeline, by submission index.
    Query(u32),
    /// One pool worker's execution timeline.
    Worker(u32),
    /// One simulated disk's service timeline.
    Disk(u32),
    /// One simulated node's interconnect timeline (cross-node page
    /// transfers under a shared-nothing placement).
    Node(u32),
}

/// What happened.  Kinds split into the **deterministic section** (derived
/// purely from submission order and the simulated charge path, identical
/// across runs, worker counts and MPLs) and the **thread-attributed
/// section** (exact within one run, but stamped by whichever worker ran the
/// task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Query entered the stream (instant, query track).
    QuerySubmit,
    /// Query was planned into fragment tasks (instant, query track).
    QueryPlan,
    /// Query passed admission control (instant, query track).
    QueryAdmit,
    /// Admission → completion span of a query on the simulated clock
    /// (query track).
    Query,
    /// One fragment scan's simulated disk activity (span, query track).
    Scan,
    /// Query's last scan finished on the simulated clock (instant, query
    /// track).
    QueryComplete,
    /// One cache object's service on a disk (span, disk track).
    DiskService,
    /// One scan's cross-node page transfer over the interconnect (span,
    /// node track).
    NetTransfer,
    /// A worker executed one task (span, worker track).
    TaskRun,
    /// A worker stole a task from a victim's deque (instant, worker track).
    Steal,
    /// A worker merged a completed query's partials (instant, worker
    /// track).
    Merge,
}

impl EventKind {
    /// The event name used by both exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::QuerySubmit => "query_submit",
            EventKind::QueryPlan => "query_plan",
            EventKind::QueryAdmit => "query_admit",
            EventKind::Query => "query",
            EventKind::Scan => "scan",
            EventKind::QueryComplete => "query_complete",
            EventKind::DiskService => "disk_service",
            EventKind::NetTransfer => "net_transfer",
            EventKind::TaskRun => "task_run",
            EventKind::Steal => "steal",
            EventKind::Merge => "merge",
        }
    }

    /// Whether events of this kind belong to the deterministic section:
    /// bit-identical across runs, worker counts and MPLs (given no ring
    /// drops).
    #[must_use]
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            EventKind::TaskRun | EventKind::Steal | EventKind::Merge
        )
    }
}

/// Typed field keys — events carry `(key, u64)` pairs instead of
/// stringly-typed attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FieldKey {
    /// Owning query's submission index.
    Query,
    /// Task position within the owning plan.
    Task,
    /// Store fragment number.
    Fragment,
    /// Planned fragment tasks of a query.
    Fragments,
    /// Fact rows scanned.
    Rows,
    /// Pages transferred from disk.
    Pages,
    /// Page requests satisfied by the shared cache.
    CacheHits,
    /// Page requests served from the platter.
    CacheMisses,
    /// Disk number under the configured allocation.
    Disk,
    /// 1 when the task was stolen, 0 when run by its seeded owner.
    Stolen,
    /// Worker the task was stolen from.
    Victim,
    /// Node number under the configured node placement.
    Node,
    /// Exact simulated milliseconds as `f64::to_bits` — lets consumers
    /// reproduce floating-point accounting bit for bit.
    SimMsBits,
}

impl FieldKey {
    /// The field name used by both exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FieldKey::Query => "query",
            FieldKey::Task => "task",
            FieldKey::Fragment => "fragment",
            FieldKey::Fragments => "fragments",
            FieldKey::Rows => "rows",
            FieldKey::Pages => "pages",
            FieldKey::CacheHits => "cache_hits",
            FieldKey::CacheMisses => "cache_misses",
            FieldKey::Disk => "disk",
            FieldKey::Stolen => "stolen",
            FieldKey::Victim => "victim",
            FieldKey::Node => "node",
            FieldKey::SimMsBits => "sim_ms_bits",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival number in the ring (recording order).  Zeroed in
    /// [`Trace::deterministic_events`], whose order is canonical instead.
    pub seq: u64,
    /// The timeline the event belongs to.
    pub track: Track,
    /// What happened.
    pub kind: EventKind,
    /// Start timestamp in simulated (or logical) microseconds.
    pub ts_us: u64,
    /// Span duration in simulated microseconds (0 for instants).
    pub dur_us: u64,
    /// Typed attributes.
    pub fields: Vec<(FieldKey, u64)>,
}

impl TraceEvent {
    /// The value of `key`, if the event carries it.
    #[must_use]
    pub fn field(&self, key: FieldKey) -> Option<u64> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// The canonical total order of the deterministic section: track, then
    /// time, then kind, duration and fields — independent of arrival
    /// interleave.
    fn canonical_key(&self) -> (Track, u64, EventKind, u64, Vec<(FieldKey, u64)>) {
        (
            self.track,
            self.ts_us,
            self.kind,
            self.dur_us,
            self.fields.clone(),
        )
    }
}

/// The ring's interior: a bounded event buffer plus drop accounting.
#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    dropped_by_kind: BTreeMap<&'static str, u64>,
}

/// A bounded, shareable event sink.
///
/// Recording takes one short mutex-protected append; when the ring is full
/// the incoming (newest) event is dropped and counted — explicitly, per
/// kind — rather than silently overwriting history.  A trace with
/// `dropped > 0` is still valid for within-run reconciliation of whatever
/// was kept, but its deterministic section is no longer comparable across
/// runs (the [`Trace::digest`] folds the drop count in so such comparisons
/// fail loudly).
#[derive(Debug)]
pub struct TraceRecorder {
    ring: Mutex<Ring>,
}

impl TraceRecorder {
    /// A recorder holding at most `capacity` events (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            ring: Mutex::new(Ring {
                events: Vec::new(),
                capacity,
                next_seq: 0,
                dropped: 0,
                dropped_by_kind: BTreeMap::new(),
            }),
        }
    }

    /// Appends one event; returns `false` (and counts the drop) when the
    /// ring is full.
    ///
    /// # Panics
    ///
    /// Panics if the ring lock is poisoned (a recording thread panicked).
    pub fn record(
        &self,
        track: Track,
        kind: EventKind,
        ts_us: u64,
        dur_us: u64,
        fields: Vec<(FieldKey, u64)>,
    ) -> bool {
        let mut ring = self.lock_ring();
        if ring.events.len() >= ring.capacity {
            ring.dropped += 1;
            *ring.dropped_by_kind.entry(kind.name()).or_insert(0) += 1;
            return false;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.events.push(TraceEvent {
            seq,
            track,
            kind,
            ts_us,
            dur_us,
            fields,
        });
        true
    }

    /// Events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock_ring().events.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock_ring().dropped
    }

    /// Consumes the recorder into its trace.
    ///
    /// # Panics
    ///
    /// Panics if the ring lock is poisoned.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        let ring = self
            .ring
            .into_inner()
            .unwrap_or_else(|_| panic!("trace ring lock poisoned (a recording thread panicked)"));
        Trace {
            events: ring.events,
            capacity: ring.capacity,
            dropped: ring.dropped,
            dropped_by_kind: ring.dropped_by_kind,
        }
    }

    fn lock_ring(&self) -> MutexGuard<'_, Ring> {
        self.ring
            .lock()
            .unwrap_or_else(|_| panic!("trace ring lock poisoned (a recording thread panicked)"))
    }
}

/// A finished recording: events in arrival order plus drop accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Every kept event, in recording order (`seq` ascending).
    pub events: Vec<TraceEvent>,
    /// The ring capacity the trace was recorded under.
    pub capacity: usize,
    /// Events dropped on ring overflow.
    pub dropped: u64,
    /// Drop counts per event kind name.
    pub dropped_by_kind: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// The deterministic section: every event whose kind is
    /// [`EventKind::is_deterministic`], in canonical order with `seq`
    /// zeroed.  Given no drops, this is bit-identical across runs, worker
    /// counts and MPLs.
    #[must_use]
    pub fn deterministic_events(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .events
            .iter()
            .filter(|e| e.kind.is_deterministic())
            .cloned()
            .map(|mut e| {
                e.seq = 0;
                e
            })
            .collect();
        events.sort_by_key(TraceEvent::canonical_key);
        events
    }

    /// FNV-1a digest over the canonical deterministic section (drop count
    /// included, so an overflowing run never digest-matches a clean one).
    #[must_use]
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        eat(self.dropped);
        for event in self.deterministic_events() {
            let (track_tag, track_id) = match event.track {
                Track::Query(id) => (0u64, id),
                Track::Worker(id) => (1, id),
                Track::Disk(id) => (2, id),
                Track::Node(id) => (3, id),
            };
            eat(track_tag);
            eat(u64::from(track_id));
            eat(event.kind as u64);
            eat(event.ts_us);
            eat(event.dur_us);
            eat(event.fields.len() as u64);
            for (key, value) in &event.fields {
                eat(*key as u64);
                eat(*value);
            }
        }
        hash
    }

    /// Events of one kind, in recording order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Number of events of one kind.
    #[must_use]
    pub fn count_of(&self, kind: EventKind) -> usize {
        self.events_of(kind).count()
    }

    /// Sum of `key` over all events of `kind` (events without the field
    /// contribute 0).
    #[must_use]
    pub fn sum_field(&self, kind: EventKind, key: FieldKey) -> u64 {
        self.events_of(kind).filter_map(|e| e.field(key)).sum()
    }

    /// Folds `SimMsBits` fields of `kind` events on `track` back into an
    /// `f64` sum, in recording order — reproducing a worker's or charge
    /// path's own accumulation order, and therefore its exact bits.
    #[must_use]
    pub fn sim_ms_on(&self, track: Track, kind: EventKind) -> f64 {
        self.events_of(kind)
            .filter(|e| e.track == track)
            .filter_map(|e| e.field(FieldKey::SimMsBits))
            .fold(0.0f64, |acc, bits| acc + f64::from_bits(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(recorder: &TraceRecorder, id: u32, ts: u64) -> bool {
        recorder.record(
            Track::Query(id),
            EventKind::Scan,
            ts,
            5,
            vec![(FieldKey::Rows, 100), (FieldKey::Task, u64::from(id))],
        )
    }

    #[test]
    fn records_in_arrival_order_with_sequence_numbers() {
        let recorder = TraceRecorder::new(8);
        assert!(recorder.is_empty());
        assert!(event(&recorder, 1, 10));
        assert!(event(&recorder, 0, 7));
        assert_eq!(recorder.len(), 2);
        let trace = recorder.into_trace();
        assert_eq!(trace.events[0].seq, 0);
        assert_eq!(trace.events[1].seq, 1);
        assert_eq!(trace.events[0].field(FieldKey::Rows), Some(100));
        assert_eq!(trace.events[0].field(FieldKey::Disk), None);
        assert_eq!(trace.count_of(EventKind::Scan), 2);
        assert_eq!(trace.sum_field(EventKind::Scan, FieldKey::Rows), 200);
    }

    #[test]
    fn overflow_drops_newest_and_accounts_for_it() {
        let recorder = TraceRecorder::new(2);
        assert!(event(&recorder, 0, 0));
        assert!(event(&recorder, 1, 1));
        assert!(!event(&recorder, 2, 2));
        assert!(!recorder.record(Track::Worker(0), EventKind::Steal, 3, 0, vec![]));
        assert_eq!(recorder.len(), 2);
        assert_eq!(recorder.dropped(), 2);
        let trace = recorder.into_trace();
        assert_eq!(trace.dropped, 2);
        assert_eq!(trace.dropped_by_kind.get("scan"), Some(&1));
        assert_eq!(trace.dropped_by_kind.get("steal"), Some(&1));
        // The kept prefix is the *oldest* events.
        assert_eq!(trace.events[0].track, Track::Query(0));
        assert_eq!(trace.events[1].track, Track::Query(1));
        assert_eq!(trace.capacity, 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let recorder = TraceRecorder::new(0);
        assert!(event(&recorder, 0, 0));
        assert!(!event(&recorder, 1, 1));
        assert_eq!(recorder.dropped(), 1);
    }

    #[test]
    fn deterministic_section_is_arrival_order_independent() {
        let a = TraceRecorder::new(16);
        event(&a, 0, 7);
        event(&a, 1, 10);
        a.record(Track::Worker(0), EventKind::TaskRun, 0, 3, vec![]);
        let b = TraceRecorder::new(16);
        b.record(Track::Worker(3), EventKind::TaskRun, 9, 1, vec![]);
        event(&b, 1, 10);
        event(&b, 0, 7);
        let (ta, tb) = (a.into_trace(), b.into_trace());
        // Arrival order and worker events differ…
        assert_ne!(ta.events, tb.events);
        // …but the canonical deterministic sections and digests agree.
        assert_eq!(ta.deterministic_events(), tb.deterministic_events());
        assert_eq!(ta.digest(), tb.digest());
        assert!(ta.deterministic_events().iter().all(|e| e.seq == 0));
    }

    #[test]
    fn digest_distinguishes_content_and_drops() {
        let a = TraceRecorder::new(16);
        event(&a, 0, 7);
        let b = TraceRecorder::new(16);
        event(&b, 0, 8);
        assert_ne!(a.into_trace().digest(), b.into_trace().digest());

        // Same kept events, but one ring overflowed: digests must differ.
        let clean = TraceRecorder::new(1);
        event(&clean, 0, 7);
        let overflowed = TraceRecorder::new(1);
        event(&overflowed, 0, 7);
        event(&overflowed, 1, 8);
        assert_ne!(
            clean.into_trace().digest(),
            overflowed.into_trace().digest()
        );
    }

    #[test]
    fn node_track_is_deterministic_and_digested() {
        // NetTransfer events on the node track are part of the deterministic
        // section (charged in query-id order, not by thread arrival), and the
        // digest distinguishes node tracks from disk tracks of the same id.
        assert!(EventKind::NetTransfer.is_deterministic());
        let on_node = TraceRecorder::new(4);
        on_node.record(
            Track::Node(2),
            EventKind::NetTransfer,
            5,
            3,
            vec![(FieldKey::Pages, 8)],
        );
        let on_disk = TraceRecorder::new(4);
        on_disk.record(
            Track::Disk(2),
            EventKind::NetTransfer,
            5,
            3,
            vec![(FieldKey::Pages, 8)],
        );
        let (a, b) = (on_node.into_trace(), on_disk.into_trace());
        assert_eq!(a.deterministic_events().len(), 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn sim_ms_folds_bits_in_recording_order() {
        let recorder = TraceRecorder::new(8);
        let parts = [0.1f64, 0.7, 1.3];
        let mut expected = 0.0f64;
        for (i, &ms) in parts.iter().enumerate() {
            expected += ms;
            recorder.record(
                Track::Worker(2),
                EventKind::TaskRun,
                i as u64,
                0,
                vec![(FieldKey::SimMsBits, ms.to_bits())],
            );
        }
        recorder.record(
            Track::Worker(1),
            EventKind::TaskRun,
            0,
            0,
            vec![(FieldKey::SimMsBits, 9.0f64.to_bits())],
        );
        let trace = recorder.into_trace();
        let folded = trace.sim_ms_on(Track::Worker(2), EventKind::TaskRun);
        assert_eq!(folded.to_bits(), expected.to_bits());
    }
}
