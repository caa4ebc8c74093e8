//! Per-subscription incremental maintainers.
//!
//! Each registered [`StandingQuery`] is backed by a maintainer that absorbs
//! one committed batch at a time and returns the [`ResultDelta`] that batch
//! made to the query result, built from what its incremental state reports
//! as changed (work proportional to the change, not to the result):
//!
//! * k-hop → [`IncrementalBfs`]: the vertices whose distance changed
//!   (improved by the insertion relaxation, or moved by a deletion
//!   recompute) become entries when they cross or move within the `k`
//!   cutoff; a deletion the safety check proves harmless emits nothing.
//! * component membership → [`IncrementalCc`] plus a membership bitmap:
//!   nothing is emitted unless a union joined `src`'s component or a
//!   deletion rebuilt the forest, in which case one flat scan against the
//!   bitmap yields the added and removed vertices.
//! * windowed counts → a [`BatchWindow`] with per-batch expiry, re-counted
//!   against the snapshot after each batch (the result is one entry).
//!
//! Lossy batches and [`refresh`](Maintainer::refresh) recompute the
//! traversal state and emit the entries found by comparing the old and new
//! flat arrays (distances, or the membership bitmap); no map is built.
//! [`materialize`](Maintainer::materialize) builds the full result; the
//! registry uses it at registration and restart, and in debug builds to
//! cross-check every emitted delta.

use std::collections::BTreeMap;

use lsgraph_analytics::{incremental::INF, IncrementalBfs, IncrementalCc, Repair};
use lsgraph_api::{Edge, Graph};
use lsgraph_core::BatchKind;

use crate::delta::{ResultDelta, SubscriptionId};
use crate::query::{present_window_edges, window_triangles, StandingQuery};
use crate::window::BatchWindow;

/// The incremental state behind one subscription.
#[derive(Clone, Debug)]
pub enum Maintainer {
    /// Maintains hop distances for [`StandingQuery::KHop`].
    KHop {
        /// Hop cutoff (inclusive).
        k: u32,
        /// The distance maintainer.
        bfs: IncrementalBfs,
    },
    /// Maintains a union-find forest for
    /// [`StandingQuery::ComponentMembership`].
    Membership {
        /// Membership anchor vertex.
        src: u32,
        /// The component maintainer.
        cc: IncrementalCc,
        /// The current result as a bitmap over the vertices it covers.
        members: Vec<bool>,
    },
    /// Maintains the batch window for [`StandingQuery::WindowedEdgeCount`].
    WindowEdges {
        /// Sliding window over recent batches.
        window: BatchWindow,
        /// The count last emitted.
        count: u64,
    },
    /// Maintains the batch window for
    /// [`StandingQuery::WindowedTriangleCount`].
    WindowTriangles {
        /// Sliding window over recent batches.
        window: BatchWindow,
        /// The count last emitted.
        count: u64,
    },
}

impl Maintainer {
    /// Builds the maintainer for `query` against the current graph.
    ///
    /// # Panics
    ///
    /// Panics if a k-hop source is `>= g.num_vertices()` (the engine only
    /// grows, so a source valid at registration stays valid).
    pub fn new<G: Graph + ?Sized>(query: &StandingQuery, g: &G) -> Self {
        match *query {
            StandingQuery::KHop { src, k } => {
                assert!(
                    (src as usize) < g.num_vertices(),
                    "k-hop source {src} out of range (graph has {} vertices)",
                    g.num_vertices()
                );
                Maintainer::KHop {
                    k,
                    bfs: IncrementalBfs::new(g, src),
                }
            }
            StandingQuery::ComponentMembership { src } => {
                let mut cc = IncrementalCc::new(g);
                let mut members = Vec::new();
                // The registry materializes the bootstrap delta itself.
                let mut unused = ResultDelta::empty(SubscriptionId(0), 0);
                scan_members(src, &mut cc, &mut members, g.num_vertices(), 0, &mut unused);
                Maintainer::Membership { src, cc, members }
            }
            // A fresh window holds no batch, so both counts start at 0.
            StandingQuery::WindowedEdgeCount { window } => Maintainer::WindowEdges {
                window: BatchWindow::new(window),
                count: 0,
            },
            StandingQuery::WindowedTriangleCount { window } => Maintainer::WindowTriangles {
                window: BatchWindow::new(window),
                count: 0,
            },
        }
    }

    /// Absorbs one committed batch (`g` is the post-batch snapshot) and
    /// returns the delta it made to the result, stamped `sub` and `seq`.
    ///
    /// `lossy` marks a batch that committed incompletely (quarantined runs
    /// dropped edges, or edges were skipped on quarantined vertices): the
    /// batch contents can no longer be trusted to mirror the graph, so the
    /// traversal maintainers rebuild from the snapshot instead of applying
    /// incrementally. Window maintainers record the slot either way — the
    /// batch still happened, its candidates are presence-filtered against
    /// the snapshot when counted, and the window must age.
    ///
    /// Entries come in ascending key order within `added`, `removed` and
    /// `changed`, exactly as [`diff`](crate::delta::diff) of the results
    /// before and after would list them.
    pub fn apply<G: Graph + ?Sized>(
        &mut self,
        g: &G,
        sub: SubscriptionId,
        seq: u64,
        kind: BatchKind,
        batch: &[Edge],
        lossy: bool,
    ) -> ResultDelta {
        if let Maintainer::WindowEdges { window, .. } | Maintainer::WindowTriangles { window, .. } =
            self
        {
            window.push(seq, kind, batch);
        }
        let step = (!lossy).then_some((kind, batch));
        self.absorb(g, ResultDelta::empty(sub, seq), step)
    }

    /// Re-derives the traversal state from `g` alone and returns the delta
    /// to the result, stamped `sub` and `seq`. Window maintainers keep
    /// their history and re-count it against `g`. This absorbs graph changes
    /// that arrived outside any batch (vertex repairs).
    pub fn refresh<G: Graph + ?Sized>(
        &mut self,
        g: &G,
        sub: SubscriptionId,
        seq: u64,
    ) -> ResultDelta {
        self.absorb(g, ResultDelta::empty(sub, seq), None)
    }

    /// Moves the state to `g` — incrementally through `step` when given,
    /// by recomputation otherwise — recording the result's change in `d`.
    fn absorb<G: Graph + ?Sized>(
        &mut self,
        g: &G,
        mut d: ResultDelta,
        step: Option<(BatchKind, &[Edge])>,
    ) -> ResultDelta {
        match self {
            Maintainer::KHop { k, bfs } => {
                let changed = match step {
                    None => bfs.recompute(g),
                    Some((BatchKind::Insert, batch)) => bfs.on_insert(g, batch),
                    Some((BatchKind::Delete, batch)) => match bfs.on_delete(g, batch) {
                        Repair::Unchanged => Vec::new(),
                        Repair::Recomputed(changed) => changed,
                    },
                };
                let within = |dist: u32| dist != INF && dist <= *k;
                for (v, old) in changed {
                    let new = bfs.distances()[v as usize];
                    match (within(old), within(new)) {
                        (false, true) => d.added.push((v, new.into())),
                        (true, false) => d.removed.push((v, old.into())),
                        (true, true) => d.changed.push((v, old.into(), new.into())),
                        (false, false) => {}
                    }
                }
            }
            Maintainer::Membership { src, cc, members } => {
                let covered = (*src as usize) < cc.num_vertices();
                let rescan = match step {
                    None => {
                        cc.rebuild(g);
                        true
                    }
                    Some((BatchKind::Insert, batch)) => {
                        let merged = cc.on_insert(batch);
                        if (*src as usize) < cc.num_vertices() {
                            // Insertions only grow `src`'s component, and it
                            // grew iff a merged root now shares its label.
                            let root = cc.label(*src);
                            !covered || merged.into_iter().any(|r| cc.label(r) == root)
                        } else {
                            false
                        }
                    }
                    Some((BatchKind::Delete, batch)) => cc.on_delete(g, batch) != Repair::Unchanged,
                };
                // Without a rescan only vertices the result newly covers
                // can change.
                let from = if rescan { 0 } else { members.len() };
                scan_members(*src, cc, members, g.num_vertices(), from, &mut d);
            }
            Maintainer::WindowEdges { window, count } => {
                let now = present_window_edges(g, window).len() as u64;
                count_delta(count, now, &mut d);
            }
            Maintainer::WindowTriangles { window, count } => {
                let now = window_triangles(&present_window_edges(g, window));
                count_delta(count, now, &mut d);
            }
        }
        d
    }

    /// Materializes the query result against `g`.
    pub fn materialize<G: Graph + ?Sized>(&mut self, g: &G) -> BTreeMap<u32, u64> {
        match self {
            Maintainer::KHop { k, bfs } => {
                let n = g.num_vertices();
                bfs.distances()
                    .iter()
                    .take(n)
                    .enumerate()
                    .filter(|&(_, &d)| d != INF && d <= *k)
                    .map(|(v, &d)| (v as u32, d as u64))
                    .collect()
            }
            Maintainer::Membership { src, cc, .. } => {
                let labels = cc.labels();
                let n = g.num_vertices().min(labels.len());
                if (*src as usize) >= labels.len() {
                    return BTreeMap::new();
                }
                let root = labels[*src as usize];
                labels[..n]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| l == root)
                    .map(|(v, _)| (v as u32, 1u64))
                    .collect()
            }
            Maintainer::WindowEdges { window, .. } => {
                let count = present_window_edges(g, window).len() as u64;
                [(0u32, count)].into_iter().collect()
            }
            Maintainer::WindowTriangles { window, .. } => {
                let count = window_triangles(&present_window_edges(g, window));
                [(0u32, count)].into_iter().collect()
            }
        }
    }
}

/// Brings the membership bitmap up to date for vertices `from..` of the
/// result's range (the first `n` vertices the forest covers), recording
/// each flip in `d`: the result is every covered vertex labelled like
/// `src`, or nothing while `src` itself is not covered.
fn scan_members(
    src: u32,
    cc: &mut IncrementalCc,
    members: &mut Vec<bool>,
    n: usize,
    from: usize,
    d: &mut ResultDelta,
) {
    let n = n.min(cc.num_vertices());
    let root = ((src as usize) < cc.num_vertices()).then(|| cc.label(src));
    if members.len() < n {
        members.resize(n, false);
    }
    for (v, member) in members.iter_mut().enumerate().take(n).skip(from) {
        let now = root == Some(cc.label(v as u32));
        if now != *member {
            *member = now;
            let entry = (v as u32, 1);
            if now {
                d.added.push(entry);
            } else {
                d.removed.push(entry);
            }
        }
    }
}

/// Emits a scalar result's move from `*count` to `now` (key 0).
fn count_delta(count: &mut u64, now: u64, d: &mut ResultDelta) {
    if now != *count {
        d.changed.push((0, *count, now));
        *count = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::diff;
    use lsgraph_gen::Csr;

    fn sym(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect()
    }

    /// Drives a maintainer and the oracle through the same batch stream and
    /// checks they agree at every step, and that each emitted delta is
    /// exactly the diff of the materializations around it.
    fn assert_tracks_oracle(query: StandingQuery, n: usize, stream: &[(BatchKind, Vec<Edge>)]) {
        let mut edges: Vec<Edge> = Vec::new();
        let g0 = Csr::from_edges(n, &edges);
        let mut m = Maintainer::new(&query, &g0);
        let mut oracle_window = BatchWindow::new(query.window().unwrap_or(1));
        let mut result = m.materialize(&g0);
        assert_eq!(result, query.oracle(&g0, &oracle_window));
        for (seq, (kind, batch)) in stream.iter().enumerate() {
            let seq = seq as u64 + 1;
            match kind {
                BatchKind::Insert => edges.extend_from_slice(batch),
                BatchKind::Delete => {
                    edges.retain(|e| !batch.iter().any(|d| d.src == e.src && d.dst == e.dst))
                }
            }
            let g = Csr::from_edges(n, &edges);
            let d = m.apply(&g, SubscriptionId(0), seq, *kind, batch, false);
            oracle_window.push(seq, *kind, batch);
            let new = m.materialize(&g);
            assert_eq!(d, diff(SubscriptionId(0), seq, &result, &new), "seq {seq}");
            d.apply_to(&mut result);
            assert_eq!(
                new,
                query.oracle(&g, &oracle_window),
                "divergence at seq {seq} for {query:?}"
            );
        }
    }

    #[test]
    fn khop_tracks_oracle_through_inserts_and_deletes() {
        assert_tracks_oracle(
            StandingQuery::KHop { src: 0, k: 2 },
            6,
            &[
                (BatchKind::Insert, sym(&[(0, 1), (1, 2), (2, 3)])),
                (BatchKind::Insert, sym(&[(0, 3), (3, 4)])),
                (BatchKind::Delete, sym(&[(0, 3)])),
                (BatchKind::Insert, sym(&[(4, 5)])),
            ],
        );
    }

    #[test]
    fn membership_tracks_oracle_through_inserts_and_deletes() {
        assert_tracks_oracle(
            StandingQuery::ComponentMembership { src: 2 },
            6,
            &[
                (BatchKind::Insert, sym(&[(0, 1), (2, 3)])),
                (BatchKind::Insert, sym(&[(1, 2)])),
                (BatchKind::Delete, sym(&[(1, 2)])),
                (BatchKind::Insert, sym(&[(3, 4), (4, 5)])),
            ],
        );
    }

    #[test]
    fn windowed_counts_track_oracle_with_expiry() {
        let stream = vec![
            (BatchKind::Insert, sym(&[(0, 1), (1, 2), (0, 2)])),
            (BatchKind::Insert, sym(&[(2, 3)])),
            (BatchKind::Delete, sym(&[(0, 2)])),
            (BatchKind::Insert, sym(&[(3, 4)])),
            (BatchKind::Insert, sym(&[(4, 5)])),
        ];
        assert_tracks_oracle(StandingQuery::WindowedEdgeCount { window: 2 }, 6, &stream);
        assert_tracks_oracle(
            StandingQuery::WindowedTriangleCount { window: 3 },
            6,
            &stream,
        );
    }

    #[test]
    fn refresh_rebuilds_from_snapshot() {
        let edges = sym(&[(0, 1), (1, 2)]);
        let g = Csr::from_edges(4, &edges);
        let query = StandingQuery::KHop { src: 0, k: 3 };
        let mut m = Maintainer::new(&query, &Csr::from_edges(4, &[]));
        // Skip apply entirely: refresh alone must converge to the snapshot.
        let d = m.refresh(&g, SubscriptionId(0), 0);
        assert_eq!(d.added, vec![(1, 1), (2, 2)]);
        assert_eq!(m.materialize(&g), query.oracle(&g, &BatchWindow::new(1)));
    }

    #[test]
    fn lossy_apply_rebuilds_from_snapshot() {
        let edges = sym(&[(0, 1), (1, 2)]);
        let g = Csr::from_edges(4, &edges);
        let query = StandingQuery::KHop { src: 0, k: 3 };
        let mut m = Maintainer::new(&query, &Csr::from_edges(4, &[]));
        // The batch claims nothing: a lossy apply must converge to the
        // snapshot alone, and its delta must say how.
        let d = m.apply(&g, SubscriptionId(0), 1, BatchKind::Insert, &[], true);
        assert_eq!(d.added, vec![(1, 1), (2, 2)]);
        assert_eq!(m.materialize(&g), query.oracle(&g, &BatchWindow::new(1)));
    }

    #[test]
    fn membership_emits_only_when_src_component_changes() {
        let query = StandingQuery::ComponentMembership { src: 0 };
        let mut m = Maintainer::new(&query, &Csr::from_edges(6, &sym(&[(0, 1)])));
        // A union far from src's component emits nothing.
        let mut edges = sym(&[(0, 1), (3, 4)]);
        let g = Csr::from_edges(6, &edges);
        let d = m.apply(
            &g,
            SubscriptionId(0),
            1,
            BatchKind::Insert,
            &sym(&[(3, 4)]),
            false,
        );
        assert!(d.is_empty());
        // Joining 1 to 4 pulls the whole 3-4 component in.
        edges.extend(sym(&[(1, 4)]));
        let g = Csr::from_edges(6, &edges);
        let d = m.apply(
            &g,
            SubscriptionId(0),
            2,
            BatchKind::Insert,
            &sym(&[(1, 4)]),
            false,
        );
        assert_eq!(d.added, vec![(3, 1), (4, 1)]);
    }
}
