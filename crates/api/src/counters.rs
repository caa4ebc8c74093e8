//! Instrumentation counters for the motivation experiments (paper Fig. 4)
//! and the structural observability layer.
//!
//! Two families live here:
//!
//! - [`OpCounters`]: coarse per-structure search/movement totals, used by the
//!   PMA-based baselines to regenerate Fig. 4.
//! - [`StructStats`]: per-container-class counters for LSGraph's own
//!   structures — vertex blocks, the sorted-array spill tier, the RIA, and
//!   the HITree/LIA — plus wall-clock phase timers for the batch-update
//!   pipeline (sort / group / apply) and analytics kernels. These make the
//!   paper's §4 bounded-movement claims checkable: every horizontal ripple
//!   records its span against the `log2(num_blocks)` bound, and every
//!   vertical (child-creating) move records whether a block overflow
//!   preceded it.
//!
//! All counters are updated with `Ordering::Relaxed`: they are statistics,
//! not synchronization. Because LSGraph partitions a batch into disjoint
//! per-source runs, each structural event happens exactly once regardless of
//! thread interleaving, so *count* fields are deterministic across runs and
//! thread counts; only the `*_nanos` fields vary.

use core::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::trace;

/// Cheap relaxed-atomic counters shared by instrumented structures.
///
/// Counters are updated with `Ordering::Relaxed`: they are statistics, not
/// synchronization, and relaxed increments keep the instrumented fast paths
/// honest.
#[derive(Debug, Default)]
pub struct OpCounters {
    /// Element comparisons performed while locating insert/delete positions.
    pub search_steps: AtomicU64,
    /// Elements moved to resolve position conflicts or rebalance.
    pub elements_moved: AtomicU64,
    /// Nanoseconds spent in search phases (single-threaded runs only).
    pub search_nanos: AtomicU64,
    /// Nanoseconds spent moving data (single-threaded runs only).
    pub move_nanos: AtomicU64,
    /// Number of whole-structure rebuilds / array expansions.
    pub rebuilds: AtomicU64,
}

impl OpCounters {
    /// Creates zeroed counters.
    pub const fn new() -> Self {
        OpCounters {
            search_steps: AtomicU64::new(0),
            elements_moved: AtomicU64::new(0),
            search_nanos: AtomicU64::new(0),
            move_nanos: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// Adds `n` search steps.
    #[inline]
    pub fn add_search(&self, n: u64) {
        self.search_steps.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` moved elements.
    #[inline]
    pub fn add_moves(&self, n: u64) {
        self.elements_moved.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one rebuild/expansion.
    #[inline]
    pub fn add_rebuild(&self) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds nanoseconds to the search-phase clock.
    #[inline]
    pub fn add_search_nanos(&self, n: u64) {
        self.search_nanos.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds nanoseconds to the move-phase clock.
    #[inline]
    pub fn add_move_nanos(&self, n: u64) {
        self.move_nanos.fetch_add(n, Ordering::Relaxed);
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.search_steps.store(0, Ordering::Relaxed);
        self.elements_moved.store(0, Ordering::Relaxed);
        self.search_nanos.store(0, Ordering::Relaxed);
        self.move_nanos.store(0, Ordering::Relaxed);
        self.rebuilds.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the current values.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            search_steps: self.search_steps.load(Ordering::Relaxed),
            elements_moved: self.elements_moved.load(Ordering::Relaxed),
            search_nanos: self.search_nanos.load(Ordering::Relaxed),
            move_nanos: self.move_nanos.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`OpCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// See [`OpCounters::search_steps`].
    pub search_steps: u64,
    /// See [`OpCounters::elements_moved`].
    pub elements_moved: u64,
    /// See [`OpCounters::search_nanos`].
    pub search_nanos: u64,
    /// See [`OpCounters::move_nanos`].
    pub move_nanos: u64,
    /// See [`OpCounters::rebuilds`].
    pub rebuilds: u64,
}

impl CounterSnapshot {
    /// Difference `self - earlier`, saturating at zero.
    pub fn since(self, earlier: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            search_steps: self.search_steps.saturating_sub(earlier.search_steps),
            elements_moved: self.elements_moved.saturating_sub(earlier.elements_moved),
            search_nanos: self.search_nanos.saturating_sub(earlier.search_nanos),
            move_nanos: self.move_nanos.saturating_sub(earlier.move_nanos),
            rebuilds: self.rebuilds.saturating_sub(earlier.rebuilds),
        }
    }

    /// `(field name, value)` pairs in a fixed order — the serialization
    /// schema. Report writers and schema-stability tests both read this, so
    /// renaming a field here is a deliberate schema change.
    pub fn fields(self) -> [(&'static str, u64); 5] {
        [
            ("search_steps", self.search_steps),
            ("elements_moved", self.elements_moved),
            ("search_nanos", self.search_nanos),
            ("move_nanos", self.move_nanos),
            ("rebuilds", self.rebuilds),
        ]
    }

    /// The count fields that must be identical across reruns with the same
    /// input — every field except wall-clock nanos.
    pub fn deterministic_fields(self) -> Vec<(&'static str, u64)> {
        self.fields()
            .into_iter()
            .filter(|(name, _)| !name.ends_with("_nanos"))
            .collect()
    }

    /// Rebuilds a snapshot from `(field name, value)` pairs, the inverse of
    /// [`CounterSnapshot::fields`]. Unknown names are rejected; missing
    /// names stay zero.
    pub fn from_fields<'a>(
        pairs: impl IntoIterator<Item = (&'a str, u64)>,
    ) -> Result<CounterSnapshot, String> {
        let mut s = CounterSnapshot::default();
        for (name, v) in pairs {
            match name {
                "search_steps" => s.search_steps = v,
                "elements_moved" => s.elements_moved = v,
                "search_nanos" => s.search_nanos = v,
                "move_nanos" => s.move_nanos = v,
                "rebuilds" => s.rebuilds = v,
                other => return Err(format!("unknown CounterSnapshot field: {other}")),
            }
        }
        Ok(s)
    }
}

/// Pipeline phase attributed by a [`PhaseTimer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Batch key sort + dedup.
    Sort,
    /// Grouping sorted keys into per-source runs.
    Group,
    /// Applying runs to the per-vertex structures.
    Apply,
    /// Analytics kernel execution (BFS, PageRank, ...).
    Kernel,
}

/// Structure-level counters for LSGraph's container classes.
///
/// Field groups mirror the paper's structures: `vb_*` for the 64-byte vertex
/// blocks (§4.1), `arr_*`/`tier_*` for the sorted-array spill tier and its
/// tier transitions, `ria_*` for the Redundant Indexed Array (§3.1/§4.2),
/// `lia_*`/`hitree_*` for the Learned Index Array and HITree (§4.3), and
/// `phase_*_nanos` for the batch pipeline.
#[derive(Debug, Default)]
pub struct StructStats {
    /// Inserts satisfied entirely inside a vertex block's inline array.
    pub vb_inline_hits: AtomicU64,
    /// Elements shifted within inline arrays to make room.
    pub vb_inline_shifts: AtomicU64,
    /// Inline maxima evicted into a spill structure by an inline insert.
    pub vb_spill_evictions: AtomicU64,
    /// Inserts routed directly to a vertex block's spill structure.
    pub vb_spill_inserts: AtomicU64,
    /// Spill minima pulled back inline after an inline delete.
    pub vb_spill_refills: AtomicU64,

    /// Elements shifted inside sorted-array spill tiers (`Spill::Array`).
    pub arr_shifts: AtomicU64,
    /// Spill tier upgrades (Array → RIA/PMA, RIA/PMA → HITree).
    pub tier_upgrades: AtomicU64,
    /// Spill tier downgrades after heavy deletion.
    pub tier_downgrades: AtomicU64,

    /// Elements shifted inside one RIA block (within-block horizontal move).
    pub ria_within_block_shifts: AtomicU64,
    /// Elements carried across RIA block boundaries by ripple inserts
    /// (cross-block horizontal move).
    pub ria_cross_block_moves: AtomicU64,
    /// Ripple-insert events (one per insert that crossed block boundaries).
    pub ria_ripples: AtomicU64,
    /// Largest ripple span observed, in blocks (gauge, not a sum).
    pub ria_max_ripple_span: AtomicU64,
    /// Largest `log2(num_blocks) + 1` locality bound in effect when a
    /// ripple was recorded (gauge, not a sum). The largest, not the most
    /// recent: parallel apply runs record in schedule order.
    pub ria_bound: AtomicU64,
    /// Ripples whose span exceeded the locality bound. The paper's §4.2
    /// movement bound says this must stay zero; tests assert it.
    pub ria_bound_exceeded: AtomicU64,
    /// RIA rebuild events (α-expansion, shrink, or delete-refill rebuild).
    pub ria_rebuilds: AtomicU64,

    /// LIA within-block shifts while packing into a partially-filled block.
    pub lia_within_block_shifts: AtomicU64,
    /// Horizontal packing events: an overflowing LIA block re-packed in
    /// place because the merged contents still fit `BKS` slots.
    pub lia_horizontal_packs: AtomicU64,
    /// Vertical movement events: an overflowing LIA block delegated to a
    /// newly created child node.
    pub lia_vertical_child_creates: AtomicU64,
    /// Vertical moves NOT preceded by a block overflow. The paper's §4.3
    /// horizontal-then-vertical policy says this must stay zero; tests
    /// assert it.
    pub lia_vertical_premature: AtomicU64,
    /// LIA model retrain events (node rebuilt with a fresh linear model).
    pub lia_model_retrains: AtomicU64,
    /// HITree node tier upgrades (Arr → RIA → LIA).
    pub hitree_node_upgrades: AtomicU64,

    /// Per-source apply tasks that panicked and were contained by the
    /// panic-safe batch pipeline. Must stay zero in normal (fault-free)
    /// runs; `repro check` gates on it.
    pub apply_run_panics: AtomicU64,
    /// Vertices quarantined (adjacency dropped, degree forced to 0) after an
    /// apply panic. Must stay zero in normal runs.
    pub vertices_quarantined: AtomicU64,
    /// Quarantined vertices restored via `repair_vertex`. Must stay zero in
    /// normal runs.
    pub vertices_repaired: AtomicU64,

    /// WAL frames appended by the durability layer (one per logged batch).
    pub wal_frames_appended: AtomicU64,
    /// Bytes written by the most recent checkpoint image (gauge, not a sum).
    pub checkpoint_bytes: AtomicU64,
    /// WAL frames replayed through the batch pipeline during recovery.
    pub recovery_frames_replayed: AtomicU64,
    /// WAL frames discarded as torn/corrupt during recovery.
    pub recovery_frames_discarded: AtomicU64,

    /// WAL segments sealed and rotated out by the segmented log.
    pub wal_segments_rotated: AtomicU64,
    /// WAL segments deleted by retention GC.
    pub wal_segments_deleted: AtomicU64,
    /// Bytes currently held by live WAL segments on disk (gauge, not a
    /// sum). Retention GC keeps this bounded by the retention window.
    pub wal_live_bytes: AtomicU64,
    /// Delta (dirty-vertex-only) checkpoint images written.
    pub delta_checkpoints_written: AtomicU64,
    /// Dirty vertices captured by the most recent checkpoint freeze
    /// (gauge, not a sum). Delta image size scales with this.
    pub checkpoint_dirty_vertices: AtomicU64,
    /// Checkpoint images discarded as corrupt/unlinked while rebuilding the
    /// recovery chain. Must stay zero on clean runs; `repro check` gates it.
    pub recovery_images_discarded: AtomicU64,

    /// Read snapshots taken from the live graph (epoch registrations).
    pub snapshots_taken: AtomicU64,
    /// Read snapshots dropped (epoch deregistrations).
    pub snapshots_retired: AtomicU64,
    /// Vertex blocks copied on write because a snapshot still referenced
    /// them when a batch mutated the vertex.
    pub cow_block_copies: AtomicU64,
    /// Retired block versions awaiting epoch reclamation (gauge, not a
    /// sum). Must return to zero once the last snapshot drops; `repro
    /// check` treats a nonzero value as an invariant violation.
    pub epoch_reclaim_backlog: AtomicU64,

    /// Standing-query subscriptions currently registered (gauge, not a
    /// sum). Quarantined subscriptions still count until cancelled.
    pub subscriptions_active: AtomicU64,
    /// Result deltas delivered to standing-query subscribers (one per
    /// subscription per applied batch).
    pub deltas_delivered: AtomicU64,
    /// Individual added/removed/changed entries carried by delivered
    /// deltas. The amortized-cost argument for standing queries is that
    /// this stays proportional to the batch, not the graph.
    pub delta_entries_emitted: AtomicU64,
    /// Subscription evaluations that panicked and were quarantined by the
    /// delivery loop. Must stay zero in normal (fault-free) runs; `repro
    /// check` treats a nonzero value as an invariant violation.
    pub subscription_panics: AtomicU64,

    /// Membership/position probes answered by the scalar binary-search
    /// baseline (recorded by the `repro search` ablation, not the hot path).
    pub search_scalar_probes: AtomicU64,
    /// Probes answered by the branch-free block-compare hybrid search
    /// (recorded by the `repro search` ablation, not the hot path).
    pub search_block_probes: AtomicU64,
    /// Gap-encoded chunks decoded by compressed-tier membership probes.
    /// The skip-pointer design bounds this at one per probe.
    pub compressed_chunks_decoded: AtomicU64,
    /// Bytes saved by compressed-tier encodes versus raw `u32` storage
    /// (accumulated at encode time).
    pub compressed_bytes_saved: AtomicU64,
    /// Cold spills frozen into the gap-encoded compressed tier.
    pub spill_compressions: AtomicU64,
    /// Compressed spills thawed back to a writable tier by a write.
    pub spill_thaws: AtomicU64,

    /// Nanoseconds in the batch sort+dedup phase.
    pub phase_sort_nanos: AtomicU64,
    /// Nanoseconds grouping keys into per-source runs.
    pub phase_group_nanos: AtomicU64,
    /// Nanoseconds applying runs to vertex structures.
    pub phase_apply_nanos: AtomicU64,
    /// Nanoseconds inside analytics kernels timed via [`Phase::Kernel`].
    pub phase_kernel_nanos: AtomicU64,
}

/// Process-wide default sink for un-instrumented call paths.
static GLOBAL_STRUCT_STATS: StructStats = StructStats::new();

impl StructStats {
    /// Creates zeroed stats.
    pub const fn new() -> Self {
        StructStats {
            vb_inline_hits: AtomicU64::new(0),
            vb_inline_shifts: AtomicU64::new(0),
            vb_spill_evictions: AtomicU64::new(0),
            vb_spill_inserts: AtomicU64::new(0),
            vb_spill_refills: AtomicU64::new(0),
            arr_shifts: AtomicU64::new(0),
            tier_upgrades: AtomicU64::new(0),
            tier_downgrades: AtomicU64::new(0),
            ria_within_block_shifts: AtomicU64::new(0),
            ria_cross_block_moves: AtomicU64::new(0),
            ria_ripples: AtomicU64::new(0),
            ria_max_ripple_span: AtomicU64::new(0),
            ria_bound: AtomicU64::new(0),
            ria_bound_exceeded: AtomicU64::new(0),
            ria_rebuilds: AtomicU64::new(0),
            lia_within_block_shifts: AtomicU64::new(0),
            lia_horizontal_packs: AtomicU64::new(0),
            lia_vertical_child_creates: AtomicU64::new(0),
            lia_vertical_premature: AtomicU64::new(0),
            lia_model_retrains: AtomicU64::new(0),
            hitree_node_upgrades: AtomicU64::new(0),
            apply_run_panics: AtomicU64::new(0),
            vertices_quarantined: AtomicU64::new(0),
            vertices_repaired: AtomicU64::new(0),
            wal_frames_appended: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            recovery_frames_replayed: AtomicU64::new(0),
            recovery_frames_discarded: AtomicU64::new(0),
            wal_segments_rotated: AtomicU64::new(0),
            wal_segments_deleted: AtomicU64::new(0),
            wal_live_bytes: AtomicU64::new(0),
            delta_checkpoints_written: AtomicU64::new(0),
            checkpoint_dirty_vertices: AtomicU64::new(0),
            recovery_images_discarded: AtomicU64::new(0),
            snapshots_taken: AtomicU64::new(0),
            snapshots_retired: AtomicU64::new(0),
            cow_block_copies: AtomicU64::new(0),
            epoch_reclaim_backlog: AtomicU64::new(0),
            subscriptions_active: AtomicU64::new(0),
            deltas_delivered: AtomicU64::new(0),
            delta_entries_emitted: AtomicU64::new(0),
            subscription_panics: AtomicU64::new(0),
            search_scalar_probes: AtomicU64::new(0),
            search_block_probes: AtomicU64::new(0),
            compressed_chunks_decoded: AtomicU64::new(0),
            compressed_bytes_saved: AtomicU64::new(0),
            spill_compressions: AtomicU64::new(0),
            spill_thaws: AtomicU64::new(0),
            phase_sort_nanos: AtomicU64::new(0),
            phase_group_nanos: AtomicU64::new(0),
            phase_apply_nanos: AtomicU64::new(0),
            phase_kernel_nanos: AtomicU64::new(0),
        }
    }

    /// The process-wide default sink, used by convenience entry points that
    /// are not wired to a per-graph instance (e.g. direct `Ria::insert`
    /// calls in tests).
    pub fn global() -> &'static StructStats {
        &GLOBAL_STRUCT_STATS
    }

    /// Records an insert satisfied inline, shifting `shifted` elements.
    #[inline]
    pub fn record_vb_inline_insert(&self, shifted: u64) {
        self.vb_inline_hits.fetch_add(1, Ordering::Relaxed);
        self.vb_inline_shifts.fetch_add(shifted, Ordering::Relaxed);
    }

    /// Records `n` elements shifted in an inline array without an insert
    /// (the delete compaction path).
    #[inline]
    pub fn record_vb_inline_shift(&self, n: u64) {
        self.vb_inline_shifts.fetch_add(n, Ordering::Relaxed);
    }

    /// Records an inline max evicted to the spill structure.
    #[inline]
    pub fn record_vb_spill_eviction(&self) {
        self.vb_spill_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an insert routed directly to the spill structure.
    #[inline]
    pub fn record_vb_spill_insert(&self) {
        self.vb_spill_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a spill minimum refilled inline after a delete.
    #[inline]
    pub fn record_vb_spill_refill(&self) {
        self.vb_spill_refills.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` elements shifted in a sorted-array spill tier.
    #[inline]
    pub fn record_arr_shift(&self, n: u64) {
        self.arr_shifts.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one spill tier upgrade.
    #[inline]
    pub fn record_tier_upgrade(&self) {
        self.tier_upgrades.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one spill tier downgrade.
    #[inline]
    pub fn record_tier_downgrade(&self) {
        self.tier_downgrades.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` elements shifted within a single RIA block.
    #[inline]
    pub fn record_ria_within_shift(&self, n: u64) {
        self.ria_within_block_shifts.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a cross-block ripple insert spanning `span` blocks under
    /// locality bound `bound`, carrying `moved` elements across boundaries.
    #[inline]
    pub fn record_ria_ripple(&self, span: u64, moved: u64, bound: u64) {
        self.ria_ripples.fetch_add(1, Ordering::Relaxed);
        self.ria_cross_block_moves
            .fetch_add(moved, Ordering::Relaxed);
        self.ria_max_ripple_span.fetch_max(span, Ordering::Relaxed);
        self.ria_bound.fetch_max(bound, Ordering::Relaxed);
        if span > bound {
            self.ria_bound_exceeded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one RIA rebuild.
    #[inline]
    pub fn record_ria_rebuild(&self) {
        self.ria_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` elements shifted within one LIA block.
    #[inline]
    pub fn record_lia_within_shift(&self, n: u64) {
        self.lia_within_block_shifts.fetch_add(n, Ordering::Relaxed);
    }

    /// Records an overflowing LIA block re-packed horizontally.
    #[inline]
    pub fn record_lia_pack(&self) {
        self.lia_horizontal_packs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a vertical child creation; `overflowed` says whether a block
    /// overflow forced it (the only legal reason).
    #[inline]
    pub fn record_lia_vertical(&self, overflowed: bool) {
        self.lia_vertical_child_creates
            .fetch_add(1, Ordering::Relaxed);
        if !overflowed {
            self.lia_vertical_premature.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one LIA model retrain.
    #[inline]
    pub fn record_lia_retrain(&self) {
        self.lia_model_retrains.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one HITree node tier upgrade.
    #[inline]
    pub fn record_node_upgrade(&self) {
        self.hitree_node_upgrades.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one contained per-source apply panic.
    #[inline]
    pub fn record_apply_run_panic(&self) {
        self.apply_run_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one vertex quarantined after an apply panic.
    #[inline]
    pub fn record_vertex_quarantined(&self) {
        self.vertices_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one quarantined vertex restored by `repair_vertex`.
    #[inline]
    pub fn record_vertex_repaired(&self) {
        self.vertices_repaired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one WAL frame appended by the durability layer.
    #[inline]
    pub fn record_wal_frame_appended(&self) {
        self.wal_frames_appended.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the size of the checkpoint image just written (gauge).
    #[inline]
    pub fn record_checkpoint_bytes(&self, n: u64) {
        self.checkpoint_bytes.store(n, Ordering::Relaxed);
    }

    /// Records one WAL frame replayed during recovery.
    #[inline]
    pub fn record_recovery_frame_replayed(&self) {
        self.recovery_frames_replayed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` torn/corrupt WAL frames discarded during recovery.
    #[inline]
    pub fn record_recovery_frames_discarded(&self, n: u64) {
        self.recovery_frames_discarded
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records one WAL segment sealed and rotated out.
    #[inline]
    pub fn record_wal_segment_rotated(&self) {
        self.wal_segments_rotated.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` WAL segments deleted by retention GC.
    #[inline]
    pub fn record_wal_segments_deleted(&self, n: u64) {
        self.wal_segments_deleted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records the bytes currently held by live WAL segments (gauge).
    #[inline]
    pub fn record_wal_live_bytes(&self, n: u64) {
        self.wal_live_bytes.store(n, Ordering::Relaxed);
    }

    /// Records one delta checkpoint image written.
    #[inline]
    pub fn record_delta_checkpoint_written(&self) {
        self.delta_checkpoints_written
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records the dirty-vertex count frozen by the latest checkpoint
    /// (gauge).
    #[inline]
    pub fn record_checkpoint_dirty_vertices(&self, n: u64) {
        self.checkpoint_dirty_vertices.store(n, Ordering::Relaxed);
    }

    /// Records `n` checkpoint images discarded while rebuilding the
    /// recovery chain.
    #[inline]
    pub fn record_recovery_images_discarded(&self, n: u64) {
        self.recovery_images_discarded
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records one read snapshot taken (epoch registered).
    #[inline]
    pub fn record_snapshot_taken(&self) {
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one read snapshot dropped (epoch deregistered).
    #[inline]
    pub fn record_snapshot_retired(&self) {
        self.snapshots_retired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one vertex block copied on write under an outstanding
    /// snapshot.
    #[inline]
    pub fn record_cow_block_copy(&self) {
        self.cow_block_copies.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the current epoch-reclamation backlog (gauge).
    #[inline]
    pub fn record_epoch_backlog(&self, n: u64) {
        self.epoch_reclaim_backlog.store(n, Ordering::Relaxed);
    }

    /// Records the number of standing-query subscriptions currently
    /// registered (gauge).
    #[inline]
    pub fn record_subscriptions_active(&self, n: u64) {
        self.subscriptions_active.store(n, Ordering::Relaxed);
    }

    /// Records one result delta delivered to a subscriber carrying
    /// `entries` added/removed/changed entries.
    #[inline]
    pub fn record_delta_delivered(&self, entries: u64) {
        self.deltas_delivered.fetch_add(1, Ordering::Relaxed);
        self.delta_entries_emitted
            .fetch_add(entries, Ordering::Relaxed);
    }

    /// Records one subscription evaluation contained by the panic-safe
    /// delivery loop.
    #[inline]
    pub fn record_subscription_panic(&self) {
        self.subscription_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` probes answered by the scalar binary-search baseline.
    #[inline]
    pub fn record_search_scalar_probes(&self, n: u64) {
        self.search_scalar_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` probes answered by the branch-free block-compare search.
    #[inline]
    pub fn record_search_block_probes(&self, n: u64) {
        self.search_block_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one gap-encoded chunk decoded by a compressed-tier probe.
    #[inline]
    pub fn record_compressed_chunk_decoded(&self) {
        self.compressed_chunks_decoded
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` bytes saved by a compressed-tier encode versus raw
    /// `u32` storage.
    #[inline]
    pub fn record_compressed_bytes_saved(&self, n: u64) {
        self.compressed_bytes_saved.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one cold spill frozen into the compressed tier.
    #[inline]
    pub fn record_spill_compression(&self) {
        self.spill_compressions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one compressed spill thawed back to a writable tier.
    #[inline]
    pub fn record_spill_thaw(&self) {
        self.spill_thaws.fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a scoped timer attributing wall-clock time to `phase`; the
    /// elapsed nanoseconds are added when the returned guard drops. For the
    /// batch-pipeline phases the guard also carries a trace span (see
    /// [`crate::trace`]); the `Kernel` phase does not — kernels get a named
    /// span from [`crate::kernel_scope`] instead, avoiding duplicates.
    #[inline]
    pub fn time(&self, phase: Phase) -> PhaseTimer<'_> {
        let (target, span_kind) = match phase {
            Phase::Sort => (&self.phase_sort_nanos, Some(trace::SpanKind::Sort)),
            Phase::Group => (&self.phase_group_nanos, Some(trace::SpanKind::Group)),
            Phase::Apply => (&self.phase_apply_nanos, Some(trace::SpanKind::Apply)),
            Phase::Kernel => (&self.phase_kernel_nanos, None),
        };
        PhaseTimer {
            target,
            start: Instant::now(),
            _span: span_kind.map(trace::span),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        let zeroed = StructSnapshot::default();
        self.load_snapshot(zeroed);
    }

    fn load_snapshot(&self, s: StructSnapshot) {
        self.vb_inline_hits
            .store(s.vb_inline_hits, Ordering::Relaxed);
        self.vb_inline_shifts
            .store(s.vb_inline_shifts, Ordering::Relaxed);
        self.vb_spill_evictions
            .store(s.vb_spill_evictions, Ordering::Relaxed);
        self.vb_spill_inserts
            .store(s.vb_spill_inserts, Ordering::Relaxed);
        self.vb_spill_refills
            .store(s.vb_spill_refills, Ordering::Relaxed);
        self.arr_shifts.store(s.arr_shifts, Ordering::Relaxed);
        self.tier_upgrades.store(s.tier_upgrades, Ordering::Relaxed);
        self.tier_downgrades
            .store(s.tier_downgrades, Ordering::Relaxed);
        self.ria_within_block_shifts
            .store(s.ria_within_block_shifts, Ordering::Relaxed);
        self.ria_cross_block_moves
            .store(s.ria_cross_block_moves, Ordering::Relaxed);
        self.ria_ripples.store(s.ria_ripples, Ordering::Relaxed);
        self.ria_max_ripple_span
            .store(s.ria_max_ripple_span, Ordering::Relaxed);
        self.ria_bound.store(s.ria_bound, Ordering::Relaxed);
        self.ria_bound_exceeded
            .store(s.ria_bound_exceeded, Ordering::Relaxed);
        self.ria_rebuilds.store(s.ria_rebuilds, Ordering::Relaxed);
        self.lia_within_block_shifts
            .store(s.lia_within_block_shifts, Ordering::Relaxed);
        self.lia_horizontal_packs
            .store(s.lia_horizontal_packs, Ordering::Relaxed);
        self.lia_vertical_child_creates
            .store(s.lia_vertical_child_creates, Ordering::Relaxed);
        self.lia_vertical_premature
            .store(s.lia_vertical_premature, Ordering::Relaxed);
        self.lia_model_retrains
            .store(s.lia_model_retrains, Ordering::Relaxed);
        self.hitree_node_upgrades
            .store(s.hitree_node_upgrades, Ordering::Relaxed);
        self.apply_run_panics
            .store(s.apply_run_panics, Ordering::Relaxed);
        self.vertices_quarantined
            .store(s.vertices_quarantined, Ordering::Relaxed);
        self.vertices_repaired
            .store(s.vertices_repaired, Ordering::Relaxed);
        self.wal_frames_appended
            .store(s.wal_frames_appended, Ordering::Relaxed);
        self.checkpoint_bytes
            .store(s.checkpoint_bytes, Ordering::Relaxed);
        self.recovery_frames_replayed
            .store(s.recovery_frames_replayed, Ordering::Relaxed);
        self.recovery_frames_discarded
            .store(s.recovery_frames_discarded, Ordering::Relaxed);
        self.wal_segments_rotated
            .store(s.wal_segments_rotated, Ordering::Relaxed);
        self.wal_segments_deleted
            .store(s.wal_segments_deleted, Ordering::Relaxed);
        self.wal_live_bytes
            .store(s.wal_live_bytes, Ordering::Relaxed);
        self.delta_checkpoints_written
            .store(s.delta_checkpoints_written, Ordering::Relaxed);
        self.checkpoint_dirty_vertices
            .store(s.checkpoint_dirty_vertices, Ordering::Relaxed);
        self.recovery_images_discarded
            .store(s.recovery_images_discarded, Ordering::Relaxed);
        self.snapshots_taken
            .store(s.snapshots_taken, Ordering::Relaxed);
        self.snapshots_retired
            .store(s.snapshots_retired, Ordering::Relaxed);
        self.cow_block_copies
            .store(s.cow_block_copies, Ordering::Relaxed);
        self.epoch_reclaim_backlog
            .store(s.epoch_reclaim_backlog, Ordering::Relaxed);
        self.subscriptions_active
            .store(s.subscriptions_active, Ordering::Relaxed);
        self.deltas_delivered
            .store(s.deltas_delivered, Ordering::Relaxed);
        self.delta_entries_emitted
            .store(s.delta_entries_emitted, Ordering::Relaxed);
        self.subscription_panics
            .store(s.subscription_panics, Ordering::Relaxed);
        self.search_scalar_probes
            .store(s.search_scalar_probes, Ordering::Relaxed);
        self.search_block_probes
            .store(s.search_block_probes, Ordering::Relaxed);
        self.compressed_chunks_decoded
            .store(s.compressed_chunks_decoded, Ordering::Relaxed);
        self.compressed_bytes_saved
            .store(s.compressed_bytes_saved, Ordering::Relaxed);
        self.spill_compressions
            .store(s.spill_compressions, Ordering::Relaxed);
        self.spill_thaws.store(s.spill_thaws, Ordering::Relaxed);
        self.phase_sort_nanos
            .store(s.phase_sort_nanos, Ordering::Relaxed);
        self.phase_group_nanos
            .store(s.phase_group_nanos, Ordering::Relaxed);
        self.phase_apply_nanos
            .store(s.phase_apply_nanos, Ordering::Relaxed);
        self.phase_kernel_nanos
            .store(s.phase_kernel_nanos, Ordering::Relaxed);
    }

    /// Snapshot of the current values.
    pub fn snapshot(&self) -> StructSnapshot {
        StructSnapshot {
            vb_inline_hits: self.vb_inline_hits.load(Ordering::Relaxed),
            vb_inline_shifts: self.vb_inline_shifts.load(Ordering::Relaxed),
            vb_spill_evictions: self.vb_spill_evictions.load(Ordering::Relaxed),
            vb_spill_inserts: self.vb_spill_inserts.load(Ordering::Relaxed),
            vb_spill_refills: self.vb_spill_refills.load(Ordering::Relaxed),
            arr_shifts: self.arr_shifts.load(Ordering::Relaxed),
            tier_upgrades: self.tier_upgrades.load(Ordering::Relaxed),
            tier_downgrades: self.tier_downgrades.load(Ordering::Relaxed),
            ria_within_block_shifts: self.ria_within_block_shifts.load(Ordering::Relaxed),
            ria_cross_block_moves: self.ria_cross_block_moves.load(Ordering::Relaxed),
            ria_ripples: self.ria_ripples.load(Ordering::Relaxed),
            ria_max_ripple_span: self.ria_max_ripple_span.load(Ordering::Relaxed),
            ria_bound: self.ria_bound.load(Ordering::Relaxed),
            ria_bound_exceeded: self.ria_bound_exceeded.load(Ordering::Relaxed),
            ria_rebuilds: self.ria_rebuilds.load(Ordering::Relaxed),
            lia_within_block_shifts: self.lia_within_block_shifts.load(Ordering::Relaxed),
            lia_horizontal_packs: self.lia_horizontal_packs.load(Ordering::Relaxed),
            lia_vertical_child_creates: self.lia_vertical_child_creates.load(Ordering::Relaxed),
            lia_vertical_premature: self.lia_vertical_premature.load(Ordering::Relaxed),
            lia_model_retrains: self.lia_model_retrains.load(Ordering::Relaxed),
            hitree_node_upgrades: self.hitree_node_upgrades.load(Ordering::Relaxed),
            apply_run_panics: self.apply_run_panics.load(Ordering::Relaxed),
            vertices_quarantined: self.vertices_quarantined.load(Ordering::Relaxed),
            vertices_repaired: self.vertices_repaired.load(Ordering::Relaxed),
            wal_frames_appended: self.wal_frames_appended.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            recovery_frames_replayed: self.recovery_frames_replayed.load(Ordering::Relaxed),
            recovery_frames_discarded: self.recovery_frames_discarded.load(Ordering::Relaxed),
            wal_segments_rotated: self.wal_segments_rotated.load(Ordering::Relaxed),
            wal_segments_deleted: self.wal_segments_deleted.load(Ordering::Relaxed),
            wal_live_bytes: self.wal_live_bytes.load(Ordering::Relaxed),
            delta_checkpoints_written: self.delta_checkpoints_written.load(Ordering::Relaxed),
            checkpoint_dirty_vertices: self.checkpoint_dirty_vertices.load(Ordering::Relaxed),
            recovery_images_discarded: self.recovery_images_discarded.load(Ordering::Relaxed),
            snapshots_taken: self.snapshots_taken.load(Ordering::Relaxed),
            snapshots_retired: self.snapshots_retired.load(Ordering::Relaxed),
            cow_block_copies: self.cow_block_copies.load(Ordering::Relaxed),
            epoch_reclaim_backlog: self.epoch_reclaim_backlog.load(Ordering::Relaxed),
            subscriptions_active: self.subscriptions_active.load(Ordering::Relaxed),
            deltas_delivered: self.deltas_delivered.load(Ordering::Relaxed),
            delta_entries_emitted: self.delta_entries_emitted.load(Ordering::Relaxed),
            subscription_panics: self.subscription_panics.load(Ordering::Relaxed),
            search_scalar_probes: self.search_scalar_probes.load(Ordering::Relaxed),
            search_block_probes: self.search_block_probes.load(Ordering::Relaxed),
            compressed_chunks_decoded: self.compressed_chunks_decoded.load(Ordering::Relaxed),
            compressed_bytes_saved: self.compressed_bytes_saved.load(Ordering::Relaxed),
            spill_compressions: self.spill_compressions.load(Ordering::Relaxed),
            spill_thaws: self.spill_thaws.load(Ordering::Relaxed),
            phase_sort_nanos: self.phase_sort_nanos.load(Ordering::Relaxed),
            phase_group_nanos: self.phase_group_nanos.load(Ordering::Relaxed),
            phase_apply_nanos: self.phase_apply_nanos.load(Ordering::Relaxed),
            phase_kernel_nanos: self.phase_kernel_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Scoped phase timer returned by [`StructStats::time`]; accumulates elapsed
/// nanoseconds into its target counter on drop.
#[must_use = "the timer records on drop; binding it to `_` drops immediately"]
pub struct PhaseTimer<'a> {
    target: &'a AtomicU64,
    start: Instant,
    /// Trace span covering the same scope (batch-pipeline phases only).
    _span: Option<trace::Span>,
}

impl PhaseTimer<'_> {
    /// Stops the timer early, recording the elapsed time now.
    pub fn stop(self) {}
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        self.target.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Point-in-time copy of [`StructStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StructSnapshot {
    /// See [`StructStats::vb_inline_hits`].
    pub vb_inline_hits: u64,
    /// See [`StructStats::vb_inline_shifts`].
    pub vb_inline_shifts: u64,
    /// See [`StructStats::vb_spill_evictions`].
    pub vb_spill_evictions: u64,
    /// See [`StructStats::vb_spill_inserts`].
    pub vb_spill_inserts: u64,
    /// See [`StructStats::vb_spill_refills`].
    pub vb_spill_refills: u64,
    /// See [`StructStats::arr_shifts`].
    pub arr_shifts: u64,
    /// See [`StructStats::tier_upgrades`].
    pub tier_upgrades: u64,
    /// See [`StructStats::tier_downgrades`].
    pub tier_downgrades: u64,
    /// See [`StructStats::ria_within_block_shifts`].
    pub ria_within_block_shifts: u64,
    /// See [`StructStats::ria_cross_block_moves`].
    pub ria_cross_block_moves: u64,
    /// See [`StructStats::ria_ripples`].
    pub ria_ripples: u64,
    /// See [`StructStats::ria_max_ripple_span`] (gauge).
    pub ria_max_ripple_span: u64,
    /// See [`StructStats::ria_bound`] (gauge).
    pub ria_bound: u64,
    /// See [`StructStats::ria_bound_exceeded`].
    pub ria_bound_exceeded: u64,
    /// See [`StructStats::ria_rebuilds`].
    pub ria_rebuilds: u64,
    /// See [`StructStats::lia_within_block_shifts`].
    pub lia_within_block_shifts: u64,
    /// See [`StructStats::lia_horizontal_packs`].
    pub lia_horizontal_packs: u64,
    /// See [`StructStats::lia_vertical_child_creates`].
    pub lia_vertical_child_creates: u64,
    /// See [`StructStats::lia_vertical_premature`].
    pub lia_vertical_premature: u64,
    /// See [`StructStats::lia_model_retrains`].
    pub lia_model_retrains: u64,
    /// See [`StructStats::hitree_node_upgrades`].
    pub hitree_node_upgrades: u64,
    /// See [`StructStats::apply_run_panics`].
    pub apply_run_panics: u64,
    /// See [`StructStats::vertices_quarantined`].
    pub vertices_quarantined: u64,
    /// See [`StructStats::vertices_repaired`].
    pub vertices_repaired: u64,
    /// See [`StructStats::wal_frames_appended`].
    pub wal_frames_appended: u64,
    /// See [`StructStats::checkpoint_bytes`] (gauge).
    pub checkpoint_bytes: u64,
    /// See [`StructStats::recovery_frames_replayed`].
    pub recovery_frames_replayed: u64,
    /// See [`StructStats::recovery_frames_discarded`].
    pub recovery_frames_discarded: u64,
    /// See [`StructStats::wal_segments_rotated`].
    pub wal_segments_rotated: u64,
    /// See [`StructStats::wal_segments_deleted`].
    pub wal_segments_deleted: u64,
    /// See [`StructStats::wal_live_bytes`] (gauge).
    pub wal_live_bytes: u64,
    /// See [`StructStats::delta_checkpoints_written`].
    pub delta_checkpoints_written: u64,
    /// See [`StructStats::checkpoint_dirty_vertices`] (gauge).
    pub checkpoint_dirty_vertices: u64,
    /// See [`StructStats::recovery_images_discarded`].
    pub recovery_images_discarded: u64,
    /// See [`StructStats::snapshots_taken`].
    pub snapshots_taken: u64,
    /// See [`StructStats::snapshots_retired`].
    pub snapshots_retired: u64,
    /// See [`StructStats::cow_block_copies`].
    pub cow_block_copies: u64,
    /// See [`StructStats::epoch_reclaim_backlog`] (gauge).
    pub epoch_reclaim_backlog: u64,
    /// See [`StructStats::subscriptions_active`] (gauge).
    pub subscriptions_active: u64,
    /// See [`StructStats::deltas_delivered`].
    pub deltas_delivered: u64,
    /// See [`StructStats::delta_entries_emitted`].
    pub delta_entries_emitted: u64,
    /// See [`StructStats::subscription_panics`].
    pub subscription_panics: u64,
    /// See [`StructStats::search_scalar_probes`].
    pub search_scalar_probes: u64,
    /// See [`StructStats::search_block_probes`].
    pub search_block_probes: u64,
    /// See [`StructStats::compressed_chunks_decoded`].
    pub compressed_chunks_decoded: u64,
    /// See [`StructStats::compressed_bytes_saved`].
    pub compressed_bytes_saved: u64,
    /// See [`StructStats::spill_compressions`].
    pub spill_compressions: u64,
    /// See [`StructStats::spill_thaws`].
    pub spill_thaws: u64,
    /// See [`StructStats::phase_sort_nanos`].
    pub phase_sort_nanos: u64,
    /// See [`StructStats::phase_group_nanos`].
    pub phase_group_nanos: u64,
    /// See [`StructStats::phase_apply_nanos`].
    pub phase_apply_nanos: u64,
    /// See [`StructStats::phase_kernel_nanos`].
    pub phase_kernel_nanos: u64,
}

impl StructSnapshot {
    /// Difference `self - earlier` for monotonic counters, saturating at
    /// zero. The gauges `ria_max_ripple_span`, `ria_bound`,
    /// `checkpoint_bytes`, `epoch_reclaim_backlog`, `wal_live_bytes`,
    /// `checkpoint_dirty_vertices`, and `subscriptions_active` keep
    /// `self`'s value (a max and a most-recent value do not subtract
    /// meaningfully).
    pub fn since(self, earlier: StructSnapshot) -> StructSnapshot {
        StructSnapshot {
            vb_inline_hits: self.vb_inline_hits.saturating_sub(earlier.vb_inline_hits),
            vb_inline_shifts: self
                .vb_inline_shifts
                .saturating_sub(earlier.vb_inline_shifts),
            vb_spill_evictions: self
                .vb_spill_evictions
                .saturating_sub(earlier.vb_spill_evictions),
            vb_spill_inserts: self
                .vb_spill_inserts
                .saturating_sub(earlier.vb_spill_inserts),
            vb_spill_refills: self
                .vb_spill_refills
                .saturating_sub(earlier.vb_spill_refills),
            arr_shifts: self.arr_shifts.saturating_sub(earlier.arr_shifts),
            tier_upgrades: self.tier_upgrades.saturating_sub(earlier.tier_upgrades),
            tier_downgrades: self.tier_downgrades.saturating_sub(earlier.tier_downgrades),
            ria_within_block_shifts: self
                .ria_within_block_shifts
                .saturating_sub(earlier.ria_within_block_shifts),
            ria_cross_block_moves: self
                .ria_cross_block_moves
                .saturating_sub(earlier.ria_cross_block_moves),
            ria_ripples: self.ria_ripples.saturating_sub(earlier.ria_ripples),
            ria_max_ripple_span: self.ria_max_ripple_span,
            ria_bound: self.ria_bound,
            ria_bound_exceeded: self
                .ria_bound_exceeded
                .saturating_sub(earlier.ria_bound_exceeded),
            ria_rebuilds: self.ria_rebuilds.saturating_sub(earlier.ria_rebuilds),
            lia_within_block_shifts: self
                .lia_within_block_shifts
                .saturating_sub(earlier.lia_within_block_shifts),
            lia_horizontal_packs: self
                .lia_horizontal_packs
                .saturating_sub(earlier.lia_horizontal_packs),
            lia_vertical_child_creates: self
                .lia_vertical_child_creates
                .saturating_sub(earlier.lia_vertical_child_creates),
            lia_vertical_premature: self
                .lia_vertical_premature
                .saturating_sub(earlier.lia_vertical_premature),
            lia_model_retrains: self
                .lia_model_retrains
                .saturating_sub(earlier.lia_model_retrains),
            hitree_node_upgrades: self
                .hitree_node_upgrades
                .saturating_sub(earlier.hitree_node_upgrades),
            apply_run_panics: self
                .apply_run_panics
                .saturating_sub(earlier.apply_run_panics),
            vertices_quarantined: self
                .vertices_quarantined
                .saturating_sub(earlier.vertices_quarantined),
            vertices_repaired: self
                .vertices_repaired
                .saturating_sub(earlier.vertices_repaired),
            wal_frames_appended: self
                .wal_frames_appended
                .saturating_sub(earlier.wal_frames_appended),
            checkpoint_bytes: self.checkpoint_bytes,
            recovery_frames_replayed: self
                .recovery_frames_replayed
                .saturating_sub(earlier.recovery_frames_replayed),
            recovery_frames_discarded: self
                .recovery_frames_discarded
                .saturating_sub(earlier.recovery_frames_discarded),
            wal_segments_rotated: self
                .wal_segments_rotated
                .saturating_sub(earlier.wal_segments_rotated),
            wal_segments_deleted: self
                .wal_segments_deleted
                .saturating_sub(earlier.wal_segments_deleted),
            wal_live_bytes: self.wal_live_bytes,
            delta_checkpoints_written: self
                .delta_checkpoints_written
                .saturating_sub(earlier.delta_checkpoints_written),
            checkpoint_dirty_vertices: self.checkpoint_dirty_vertices,
            recovery_images_discarded: self
                .recovery_images_discarded
                .saturating_sub(earlier.recovery_images_discarded),
            snapshots_taken: self.snapshots_taken.saturating_sub(earlier.snapshots_taken),
            snapshots_retired: self
                .snapshots_retired
                .saturating_sub(earlier.snapshots_retired),
            cow_block_copies: self
                .cow_block_copies
                .saturating_sub(earlier.cow_block_copies),
            epoch_reclaim_backlog: self.epoch_reclaim_backlog,
            subscriptions_active: self.subscriptions_active,
            deltas_delivered: self
                .deltas_delivered
                .saturating_sub(earlier.deltas_delivered),
            delta_entries_emitted: self
                .delta_entries_emitted
                .saturating_sub(earlier.delta_entries_emitted),
            subscription_panics: self
                .subscription_panics
                .saturating_sub(earlier.subscription_panics),
            search_scalar_probes: self
                .search_scalar_probes
                .saturating_sub(earlier.search_scalar_probes),
            search_block_probes: self
                .search_block_probes
                .saturating_sub(earlier.search_block_probes),
            compressed_chunks_decoded: self
                .compressed_chunks_decoded
                .saturating_sub(earlier.compressed_chunks_decoded),
            compressed_bytes_saved: self
                .compressed_bytes_saved
                .saturating_sub(earlier.compressed_bytes_saved),
            spill_compressions: self
                .spill_compressions
                .saturating_sub(earlier.spill_compressions),
            spill_thaws: self.spill_thaws.saturating_sub(earlier.spill_thaws),
            phase_sort_nanos: self
                .phase_sort_nanos
                .saturating_sub(earlier.phase_sort_nanos),
            phase_group_nanos: self
                .phase_group_nanos
                .saturating_sub(earlier.phase_group_nanos),
            phase_apply_nanos: self
                .phase_apply_nanos
                .saturating_sub(earlier.phase_apply_nanos),
            phase_kernel_nanos: self
                .phase_kernel_nanos
                .saturating_sub(earlier.phase_kernel_nanos),
        }
    }

    /// Total horizontal RIA movement (within-block + cross-block).
    pub fn ria_horizontal_moves(self) -> u64 {
        self.ria_within_block_shifts + self.ria_cross_block_moves
    }

    /// `(field name, value)` pairs in a fixed order — the serialization
    /// schema. Report writers and schema-stability tests both read this, so
    /// renaming a field here is a deliberate schema change.
    pub fn fields(self) -> [(&'static str, u64); 52] {
        [
            ("vb_inline_hits", self.vb_inline_hits),
            ("vb_inline_shifts", self.vb_inline_shifts),
            ("vb_spill_evictions", self.vb_spill_evictions),
            ("vb_spill_inserts", self.vb_spill_inserts),
            ("vb_spill_refills", self.vb_spill_refills),
            ("arr_shifts", self.arr_shifts),
            ("tier_upgrades", self.tier_upgrades),
            ("tier_downgrades", self.tier_downgrades),
            ("ria_within_block_shifts", self.ria_within_block_shifts),
            ("ria_cross_block_moves", self.ria_cross_block_moves),
            ("ria_ripples", self.ria_ripples),
            ("ria_max_ripple_span", self.ria_max_ripple_span),
            ("ria_bound", self.ria_bound),
            ("ria_bound_exceeded", self.ria_bound_exceeded),
            ("ria_rebuilds", self.ria_rebuilds),
            ("lia_within_block_shifts", self.lia_within_block_shifts),
            ("lia_horizontal_packs", self.lia_horizontal_packs),
            (
                "lia_vertical_child_creates",
                self.lia_vertical_child_creates,
            ),
            ("lia_vertical_premature", self.lia_vertical_premature),
            ("lia_model_retrains", self.lia_model_retrains),
            ("hitree_node_upgrades", self.hitree_node_upgrades),
            ("apply_run_panics", self.apply_run_panics),
            ("vertices_quarantined", self.vertices_quarantined),
            ("vertices_repaired", self.vertices_repaired),
            ("wal_frames_appended", self.wal_frames_appended),
            ("checkpoint_bytes", self.checkpoint_bytes),
            ("recovery_frames_replayed", self.recovery_frames_replayed),
            ("recovery_frames_discarded", self.recovery_frames_discarded),
            ("wal_segments_rotated", self.wal_segments_rotated),
            ("wal_segments_deleted", self.wal_segments_deleted),
            ("wal_live_bytes", self.wal_live_bytes),
            ("delta_checkpoints_written", self.delta_checkpoints_written),
            ("checkpoint_dirty_vertices", self.checkpoint_dirty_vertices),
            ("recovery_images_discarded", self.recovery_images_discarded),
            ("snapshots_taken", self.snapshots_taken),
            ("snapshots_retired", self.snapshots_retired),
            ("cow_block_copies", self.cow_block_copies),
            ("epoch_reclaim_backlog", self.epoch_reclaim_backlog),
            ("subscriptions_active", self.subscriptions_active),
            ("deltas_delivered", self.deltas_delivered),
            ("delta_entries_emitted", self.delta_entries_emitted),
            ("subscription_panics", self.subscription_panics),
            ("search_scalar_probes", self.search_scalar_probes),
            ("search_block_probes", self.search_block_probes),
            ("compressed_chunks_decoded", self.compressed_chunks_decoded),
            ("compressed_bytes_saved", self.compressed_bytes_saved),
            ("spill_compressions", self.spill_compressions),
            ("spill_thaws", self.spill_thaws),
            ("phase_sort_nanos", self.phase_sort_nanos),
            ("phase_group_nanos", self.phase_group_nanos),
            ("phase_apply_nanos", self.phase_apply_nanos),
            ("phase_kernel_nanos", self.phase_kernel_nanos),
        ]
    }

    /// The count fields that must be identical across reruns with the same
    /// input — every field except wall-clock nanos and the two gauges.
    pub fn deterministic_fields(self) -> Vec<(&'static str, u64)> {
        self.fields()
            .into_iter()
            .filter(|(name, _)| !name.ends_with("_nanos"))
            .collect()
    }

    /// Rebuilds a snapshot from `(field name, value)` pairs, the inverse of
    /// [`StructSnapshot::fields`]. Unknown names are rejected; missing names
    /// stay zero.
    pub fn from_fields<'a>(
        pairs: impl IntoIterator<Item = (&'a str, u64)>,
    ) -> Result<StructSnapshot, String> {
        let mut s = StructSnapshot::default();
        for (name, v) in pairs {
            match name {
                "vb_inline_hits" => s.vb_inline_hits = v,
                "vb_inline_shifts" => s.vb_inline_shifts = v,
                "vb_spill_evictions" => s.vb_spill_evictions = v,
                "vb_spill_inserts" => s.vb_spill_inserts = v,
                "vb_spill_refills" => s.vb_spill_refills = v,
                "arr_shifts" => s.arr_shifts = v,
                "tier_upgrades" => s.tier_upgrades = v,
                "tier_downgrades" => s.tier_downgrades = v,
                "ria_within_block_shifts" => s.ria_within_block_shifts = v,
                "ria_cross_block_moves" => s.ria_cross_block_moves = v,
                "ria_ripples" => s.ria_ripples = v,
                "ria_max_ripple_span" => s.ria_max_ripple_span = v,
                "ria_bound" => s.ria_bound = v,
                "ria_bound_exceeded" => s.ria_bound_exceeded = v,
                "ria_rebuilds" => s.ria_rebuilds = v,
                "lia_within_block_shifts" => s.lia_within_block_shifts = v,
                "lia_horizontal_packs" => s.lia_horizontal_packs = v,
                "lia_vertical_child_creates" => s.lia_vertical_child_creates = v,
                "lia_vertical_premature" => s.lia_vertical_premature = v,
                "lia_model_retrains" => s.lia_model_retrains = v,
                "hitree_node_upgrades" => s.hitree_node_upgrades = v,
                "apply_run_panics" => s.apply_run_panics = v,
                "vertices_quarantined" => s.vertices_quarantined = v,
                "vertices_repaired" => s.vertices_repaired = v,
                "wal_frames_appended" => s.wal_frames_appended = v,
                "checkpoint_bytes" => s.checkpoint_bytes = v,
                "recovery_frames_replayed" => s.recovery_frames_replayed = v,
                "recovery_frames_discarded" => s.recovery_frames_discarded = v,
                "wal_segments_rotated" => s.wal_segments_rotated = v,
                "wal_segments_deleted" => s.wal_segments_deleted = v,
                "wal_live_bytes" => s.wal_live_bytes = v,
                "delta_checkpoints_written" => s.delta_checkpoints_written = v,
                "checkpoint_dirty_vertices" => s.checkpoint_dirty_vertices = v,
                "recovery_images_discarded" => s.recovery_images_discarded = v,
                "snapshots_taken" => s.snapshots_taken = v,
                "snapshots_retired" => s.snapshots_retired = v,
                "cow_block_copies" => s.cow_block_copies = v,
                "epoch_reclaim_backlog" => s.epoch_reclaim_backlog = v,
                "subscriptions_active" => s.subscriptions_active = v,
                "deltas_delivered" => s.deltas_delivered = v,
                "delta_entries_emitted" => s.delta_entries_emitted = v,
                "subscription_panics" => s.subscription_panics = v,
                "search_scalar_probes" => s.search_scalar_probes = v,
                "search_block_probes" => s.search_block_probes = v,
                "compressed_chunks_decoded" => s.compressed_chunks_decoded = v,
                "compressed_bytes_saved" => s.compressed_bytes_saved = v,
                "spill_compressions" => s.spill_compressions = v,
                "spill_thaws" => s.spill_thaws = v,
                "phase_sort_nanos" => s.phase_sort_nanos = v,
                "phase_group_nanos" => s.phase_group_nanos = v,
                "phase_apply_nanos" => s.phase_apply_nanos = v,
                "phase_kernel_nanos" => s.phase_kernel_nanos = v,
                other => return Err(format!("unknown StructSnapshot field: {other}")),
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = OpCounters::new();
        c.add_search(3);
        c.add_search(2);
        c.add_moves(7);
        c.add_rebuild();
        let s = c.snapshot();
        assert_eq!(s.search_steps, 5);
        assert_eq!(s.elements_moved, 7);
        assert_eq!(s.rebuilds, 1);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn snapshot_since() {
        let c = OpCounters::new();
        c.add_moves(10);
        let a = c.snapshot();
        c.add_moves(5);
        c.add_search(1);
        let d = c.snapshot().since(a);
        assert_eq!(d.elements_moved, 5);
        assert_eq!(d.search_steps, 1);
    }

    #[test]
    fn struct_stats_record_and_reset() {
        let s = StructStats::new();
        s.record_vb_inline_insert(3);
        s.record_vb_inline_insert(0);
        s.record_vb_spill_eviction();
        s.record_arr_shift(9);
        s.record_ria_within_shift(4);
        s.record_ria_ripple(2, 2, 5);
        s.record_ria_rebuild();
        s.record_lia_pack();
        s.record_lia_vertical(true);
        s.record_lia_retrain();
        s.record_node_upgrade();
        let snap = s.snapshot();
        assert_eq!(snap.vb_inline_hits, 2);
        assert_eq!(snap.vb_inline_shifts, 3);
        assert_eq!(snap.vb_spill_evictions, 1);
        assert_eq!(snap.arr_shifts, 9);
        assert_eq!(snap.ria_within_block_shifts, 4);
        assert_eq!(snap.ria_cross_block_moves, 2);
        assert_eq!(snap.ria_ripples, 1);
        assert_eq!(snap.ria_max_ripple_span, 2);
        assert_eq!(snap.ria_bound, 5);
        assert_eq!(snap.ria_bound_exceeded, 0);
        assert_eq!(snap.ria_rebuilds, 1);
        assert_eq!(snap.lia_horizontal_packs, 1);
        assert_eq!(snap.lia_vertical_child_creates, 1);
        assert_eq!(snap.lia_vertical_premature, 0);
        assert_eq!(snap.lia_model_retrains, 1);
        assert_eq!(snap.hitree_node_upgrades, 1);
        s.reset();
        assert_eq!(s.snapshot(), StructSnapshot::default());
    }

    #[test]
    fn ripple_past_bound_flags_violation() {
        let s = StructStats::new();
        s.record_ria_ripple(7, 7, 5);
        let snap = s.snapshot();
        assert_eq!(snap.ria_bound_exceeded, 1);
        assert_eq!(snap.ria_max_ripple_span, 7);
    }

    #[test]
    fn premature_vertical_flags_violation() {
        let s = StructStats::new();
        s.record_lia_vertical(false);
        assert_eq!(s.snapshot().lia_vertical_premature, 1);
    }

    #[test]
    fn struct_snapshot_since_diffs_counters_keeps_gauges() {
        let s = StructStats::new();
        s.record_ria_within_shift(10);
        s.record_ria_ripple(3, 3, 6);
        let a = s.snapshot();
        s.record_ria_within_shift(5);
        s.record_ria_ripple(2, 2, 6);
        let d = s.snapshot().since(a);
        assert_eq!(d.ria_within_block_shifts, 5);
        assert_eq!(d.ria_ripples, 1);
        assert_eq!(d.ria_cross_block_moves, 2);
        // Gauges keep the later absolute value.
        assert_eq!(d.ria_max_ripple_span, 3);
        assert_eq!(d.ria_bound, 6);
    }

    #[test]
    fn phase_timer_attributes_time() {
        let s = StructStats::new();
        {
            let _t = s.time(Phase::Sort);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let t = s.time(Phase::Apply);
            std::thread::sleep(std::time::Duration::from_millis(1));
            t.stop();
        }
        let snap = s.snapshot();
        assert!(snap.phase_sort_nanos >= 1_000_000);
        assert!(snap.phase_apply_nanos >= 500_000);
        assert_eq!(snap.phase_group_nanos, 0);
    }

    #[test]
    fn fields_are_schema_stable() {
        let names: Vec<&str> = StructSnapshot::default()
            .fields()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names.len(), 52);
        // A rename here must be an intentional schema change.
        assert!(names.contains(&"ria_cross_block_moves"));
        assert!(names.contains(&"lia_vertical_child_creates"));
        assert!(names.contains(&"apply_run_panics"));
        assert!(names.contains(&"vertices_quarantined"));
        assert!(names.contains(&"vertices_repaired"));
        assert!(names.contains(&"wal_frames_appended"));
        assert!(names.contains(&"checkpoint_bytes"));
        assert!(names.contains(&"recovery_frames_replayed"));
        assert!(names.contains(&"recovery_frames_discarded"));
        assert!(names.contains(&"wal_segments_rotated"));
        assert!(names.contains(&"wal_segments_deleted"));
        assert!(names.contains(&"wal_live_bytes"));
        assert!(names.contains(&"delta_checkpoints_written"));
        assert!(names.contains(&"checkpoint_dirty_vertices"));
        assert!(names.contains(&"recovery_images_discarded"));
        assert!(names.contains(&"snapshots_taken"));
        assert!(names.contains(&"snapshots_retired"));
        assert!(names.contains(&"cow_block_copies"));
        assert!(names.contains(&"epoch_reclaim_backlog"));
        assert!(names.contains(&"subscriptions_active"));
        assert!(names.contains(&"deltas_delivered"));
        assert!(names.contains(&"delta_entries_emitted"));
        assert!(names.contains(&"subscription_panics"));
        assert!(names.contains(&"search_scalar_probes"));
        assert!(names.contains(&"search_block_probes"));
        assert!(names.contains(&"compressed_chunks_decoded"));
        assert!(names.contains(&"compressed_bytes_saved"));
        assert!(names.contains(&"spill_compressions"));
        assert!(names.contains(&"spill_thaws"));
        assert!(names.contains(&"phase_apply_nanos"));
    }
}
