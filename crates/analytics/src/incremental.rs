//! Incremental BFS and connected-components maintenance over a streaming
//! graph.
//!
//! The paper's motivation for abandoning CSR's sequential edge-array scans
//! (§3.1) is that "most recent streaming graph systems employ incremental
//! computation", whose accesses into the adjacency structure arrive in
//! random order. This module is such a consumer: it maintains single-source
//! BFS distances and component labels across update batches, re-touching
//! only the affected region instead of recomputing from scratch — and
//! issuing exactly the random per-vertex neighbor probes the RIA/HITree
//! layout is designed to serve. Every update reports what it changed, so a
//! consumer can forward the change without rescanning the result.
//!
//! Edge *insertions* only ever shorten distances and merge components, so
//! their repair is a monotone relaxation seeded by the new edges (BFS) or a
//! union per edge (CC). *Deletions* can lengthen distances and split
//! components. Following KickStarter's trimming, a deletion batch is first
//! checked against the post-delete graph: when the check proves that no
//! value changed, nothing is recomputed; otherwise the maintainer falls
//! back to a full recomputation.
//!
//! * BFS: a deleted edge `(s, d)` matters only if it was a shortest-path
//!   tree edge (`dist[d] == dist[s] + 1`). If every such `d` still has an
//!   in-neighbor at `dist[d] - 1`, induction on the level shows no distance
//!   changed.
//! * CC: if both endpoints of every deleted edge are still connected, every
//!   old path survives with the deleted edges replaced by detours, so no
//!   component split.

use std::sync::atomic::{AtomicU32, Ordering};

use lsgraph_api::{Edge, Graph};

use crate::edge_map::edge_map;
use crate::subset::VertexSubset;

/// Sentinel distance for unreachable vertices.
pub const INF: u32 = u32::MAX;

/// Marks a vertex whose distance the running insertion repair has not
/// touched (never a distance: BFS distances are below `u32::MAX - 1`).
const UNTOUCHED: u32 = INF - 1;

/// Deleted pairs the CC check proves before it projects its total cost.
const PROJECTION_SAMPLE: usize = 32;

/// How a maintainer absorbed a deletion batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Repair<T> {
    /// The safety check proved that no value changed; nothing was
    /// recomputed.
    Unchanged,
    /// The check could not prove it, so the state was recomputed from the
    /// graph; carries what changed.
    Recomputed(T),
}

/// Maintains BFS hop distances from a fixed source across updates.
#[derive(Clone, Debug)]
pub struct IncrementalBfs {
    src: u32,
    dist: Vec<u32>,
    /// Flat marks for the insertion repair: the pre-batch distance of every
    /// vertex the running repair improved, [`UNTOUCHED`] everywhere else
    /// (reset before [`on_insert`](Self::on_insert) returns).
    prev: Vec<u32>,
}

impl IncrementalBfs {
    /// Runs the initial BFS from `src`.
    pub fn new<G: Graph + ?Sized>(g: &G, src: u32) -> Self {
        IncrementalBfs {
            src,
            dist: bfs_distances(g, src),
            prev: Vec::new(),
        }
    }

    /// The maintained source.
    pub fn source(&self) -> u32 {
        self.src
    }

    /// Current distances (hops; [`INF`] = unreachable).
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    /// Full recomputation from `g`. Returns `(vertex, previous distance)`
    /// for every vertex whose distance changed, in ascending vertex order.
    pub fn recompute<G: Graph + ?Sized>(&mut self, g: &G) -> Vec<(u32, u32)> {
        let old = std::mem::replace(&mut self.dist, bfs_distances(g, self.src));
        self.dist
            .iter()
            .enumerate()
            .filter_map(|(v, &d)| {
                let o = old.get(v).copied().unwrap_or(INF);
                (o != d).then_some((v as u32, o))
            })
            .collect()
    }

    /// Grows the distance array to `g`'s vertex count (new vertices are
    /// unreachable until an edge reaches them).
    fn grow<G: Graph + ?Sized>(&mut self, g: &G) -> usize {
        let n = g.num_vertices();
        if n > self.dist.len() {
            self.dist.resize(n, INF);
        }
        n
    }

    /// Repairs distances after `batch` was inserted into `g` (call after the
    /// graph update; `g` must already contain the batch).
    ///
    /// Only vertices whose distance actually improves are re-expanded, so a
    /// batch that touches a settled region costs near nothing. Returns
    /// `(vertex, previous distance)` for every improved vertex, in ascending
    /// vertex order.
    pub fn on_insert<G: Graph + ?Sized>(&mut self, g: &G, batch: &[Edge]) -> Vec<(u32, u32)> {
        let n = self.grow(g);
        self.prev.resize(n, UNTOUCHED);
        let dist: Vec<AtomicU32> = std::mem::take(&mut self.dist)
            .into_iter()
            .map(AtomicU32::new)
            .collect();
        let prev: Vec<AtomicU32> = std::mem::take(&mut self.prev)
            .into_iter()
            .map(AtomicU32::new)
            .collect();
        // Seed: endpoints improved directly by a new edge.
        let mut seeds: Vec<u32> = Vec::new();
        for e in batch {
            let (s, d) = (e.src as usize, e.dst as usize);
            if s >= n || d >= n {
                continue;
            }
            let ds = dist[s].load(Ordering::Relaxed);
            let dd = dist[d].load(Ordering::Relaxed);
            if ds != INF && ds + 1 < dd {
                let _ =
                    prev[d].compare_exchange(UNTOUCHED, dd, Ordering::Relaxed, Ordering::Relaxed);
                dist[d].store(ds + 1, Ordering::Relaxed);
                seeds.push(e.dst);
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        let mut touched = seeds.clone();
        let mut frontier = VertexSubset::Sparse(seeds);
        // Monotone relaxation: propagate improvements until quiescent.
        while !frontier.is_empty() {
            frontier = edge_map(
                g,
                &frontier,
                |s, d| {
                    let nd = dist[s as usize].load(Ordering::Acquire).saturating_add(1);
                    let mut cur = dist[d as usize].load(Ordering::Acquire);
                    while nd < cur {
                        // Mark before writing: a thread that reads an
                        // already improved `cur` finds the mark set, so
                        // only the pre-batch distance is ever recorded.
                        let _ = prev[d as usize].compare_exchange(
                            UNTOUCHED,
                            cur,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                        match dist[d as usize].compare_exchange_weak(
                            cur,
                            nd,
                            Ordering::Release,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => return true,
                            Err(c) => cur = c,
                        }
                    }
                    false
                },
                |_| true,
            );
            touched.extend(frontier.to_sparse());
        }
        self.dist = dist.into_iter().map(AtomicU32::into_inner).collect();
        self.prev = prev.into_iter().map(AtomicU32::into_inner).collect();
        touched.sort_unstable();
        touched.dedup();
        touched
            .into_iter()
            .map(|v| {
                let old = std::mem::replace(&mut self.prev[v as usize], UNTOUCHED);
                debug_assert_ne!(old, UNTOUCHED, "improved vertex {v} was not marked");
                (v, old)
            })
            .collect()
    }

    /// Absorbs a deletion batch (`g` is the post-delete graph).
    ///
    /// Recomputes only when some deleted shortest-path tree edge `(s, d)`
    /// leaves `d` without another in-neighbor `w` at `dist[d] - 1`.
    /// Candidates `w` come from `d`'s neighbor list and are confirmed with
    /// `g.has_edge(w, d)`, so the check stays sound on directed graphs
    /// (where it may fall back more often than needed).
    pub fn on_delete<G: Graph + ?Sized>(
        &mut self,
        g: &G,
        batch: &[Edge],
    ) -> Repair<Vec<(u32, u32)>> {
        self.grow(g);
        let dist = &self.dist;
        let safe = batch.iter().all(|e| {
            let (Some(&ds), Some(&dd)) = (dist.get(e.src as usize), dist.get(e.dst as usize))
            else {
                return true;
            };
            if ds == INF || dd != ds + 1 {
                return true; // not a shortest-path tree edge
            }
            // Stops early (returns false) once another parent is found.
            !g.for_each_neighbor_while(e.dst, &mut |w| {
                !(dist.get(w as usize) == Some(&(dd - 1)) && g.has_edge(w, e.dst))
            })
        });
        if safe {
            Repair::Unchanged
        } else {
            Repair::Recomputed(self.recompute(g))
        }
    }
}

/// Level-synchronous BFS distances from `src` (the recomputation path).
fn bfs_distances<G: Graph + ?Sized>(g: &G, src: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(INF)).collect();
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut frontier = VertexSubset::single(src);
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        frontier = edge_map(
            g,
            &frontier,
            |_s, d| {
                dist[d as usize]
                    .compare_exchange(INF, level, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            },
            |d| dist[d as usize].load(Ordering::Relaxed) == INF,
        );
    }
    dist.into_iter().map(AtomicU32::into_inner).collect()
}

/// Maintains connected components across updates with a union-find forest
/// — O(α) per inserted edge instead of a full label-propagation pass.
///
/// Insertions only merge components (monotone), so union-find is exact.
/// Deletions can split components: a batch whose deleted pairs all stay
/// connected (an interleaved two-sided BFS meets) leaves the forest as is;
/// any other deletion rebuilds it from the graph.
#[derive(Clone, Debug)]
pub struct IncrementalCc {
    parent: Vec<u32>,
    /// Search stamps of the deletion check: side A writes `stamp`, side B
    /// `stamp + 1` (lazily sized, cleared only when the stamp wraps).
    seen: Vec<u32>,
    stamp: u32,
}

impl IncrementalCc {
    /// Builds the forest for the current graph.
    pub fn new<G: Graph + ?Sized>(g: &G) -> Self {
        let mut cc = IncrementalCc {
            parent: Vec::new(),
            seen: Vec::new(),
            stamp: 0,
        };
        cc.rebuild(g);
        cc
    }

    /// Rebuilds the forest from `g` alone.
    pub fn rebuild<G: Graph + ?Sized>(&mut self, g: &G) {
        self.parent = (0..g.num_vertices() as u32).collect();
        for v in 0..g.num_vertices() as u32 {
            g.for_each_neighbor(v, &mut |u| {
                self.union(v, u);
            });
        }
    }

    /// Vertices covered by the forest.
    pub fn num_vertices(&self) -> usize {
        self.parent.len()
    }

    /// The component label of `v` (its component's minimum vertex id).
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_vertices()`.
    pub fn label(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            // Path halving.
            let gp = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = gp;
            v = gp;
        }
        v
    }

    /// Joins the components of `a` and `b`; returns the root that stopped
    /// being one, if they were apart.
    fn union(&mut self, a: u32, b: u32) -> Option<u32> {
        let (ra, rb) = (self.label(a), self.label(b));
        if ra == rb {
            return None;
        }
        // Union by smaller root id keeps labels deterministic.
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        self.parent[hi as usize] = lo;
        Some(hi)
    }

    /// Applies an insertion batch (edges may reference ids beyond the
    /// current forest; it grows as needed).
    ///
    /// Returns the roots this batch merged into another component, in merge
    /// order: every vertex whose label changed had one of them as its label
    /// during the batch.
    pub fn on_insert(&mut self, batch: &[Edge]) -> Vec<u32> {
        if let Some(max) = batch.iter().map(|e| e.src.max(e.dst)).max() {
            if max as usize >= self.parent.len() {
                let start = self.parent.len() as u32;
                self.parent.extend(start..=max);
            }
        }
        batch
            .iter()
            .filter_map(|e| self.union(e.src, e.dst))
            .collect()
    }

    /// Absorbs a deletion batch (`g` is the post-delete graph).
    ///
    /// Every deleted pair that was connected must still be: a pair with an
    /// endpoint left at degree 0 falls back at once; any other pair runs an
    /// interleaved two-sided BFS that proves it when the searches meet and
    /// falls back when either side is exhausted. The searches follow
    /// out-edges, so on a directed graph the check may fall back more often
    /// than needed, never less.
    pub fn on_delete<G: Graph + ?Sized>(&mut self, g: &G, batch: &[Edge]) -> Repair<()> {
        let covered = self.parent.len() as u32;
        let mut pairs: Vec<(u32, u32)> = batch
            .iter()
            .filter(|e| e.src != e.dst && e.src < covered && e.dst < covered)
            .map(|e| (e.src.min(e.dst), e.src.max(e.dst)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut queues = [Vec::new(), Vec::new()];
        // The searches may read half the edges a rebuild would union; past
        // that, proving safety costs more than it can save. Once a sample
        // of pairs is in, the check also gives up as soon as the reads so
        // far, spread over every pair, project past that budget.
        let total = g.num_edges() / 2;
        let mut budget = total;
        for (i, &(a, b)) in pairs.iter().enumerate() {
            // A pair in two components had no edge to lose.
            if self.label(a) != self.label(b) {
                continue;
            }
            let projected = (total - budget) / (i + 1) * pairs.len();
            if (i >= PROJECTION_SAMPLE && projected > total)
                || !self.still_connected(g, a, b, &mut queues, &mut budget)
            {
                self.rebuild(g);
                return Repair::Recomputed(());
            }
        }
        Repair::Unchanged
    }

    /// Interleaved two-sided BFS over `g`'s out-edges: true once the search
    /// from `a` meets the search from `b`, false once either side runs out
    /// of vertices (or starts with none) or `budget` edge reads run out.
    fn still_connected<G: Graph + ?Sized>(
        &mut self,
        g: &G,
        a: u32,
        b: u32,
        queues: &mut [Vec<u32>; 2],
        budget: &mut usize,
    ) -> bool {
        let (da, db) = (g.degree(a), g.degree(b));
        if da == 0 || db == 0 {
            return false;
        }
        // Expand the sparser endpoint first: the denser one then meets its
        // marks sooner.
        let (a, b) = if da <= db { (a, b) } else { (b, a) };
        let n = g.num_vertices();
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        if self.stamp >= u32::MAX - 2 {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 2;
        let marks = [self.stamp, self.stamp + 1];
        let mut heads = [0usize; 2];
        for (side, v) in [a, b].into_iter().enumerate() {
            self.seen[v as usize] = marks[side];
            queues[side].clear();
            queues[side].push(v);
        }
        loop {
            // Expand one vertex of the side with fewer pending vertices.
            let pending = [0, 1].map(|s| queues[s].len() - heads[s]);
            let side = usize::from(pending[1] < pending[0]);
            if pending[side] == 0 {
                return false;
            }
            let v = queues[side][heads[side]];
            heads[side] += 1;
            let (mine, other) = (marks[side], marks[1 - side]);
            let (seen, queue) = (&mut self.seen, &mut queues[side]);
            let mut met = false;
            g.for_each_neighbor_while(v, &mut |u| {
                let s = &mut seen[u as usize];
                met = *s == other;
                if *s != mine && !met {
                    *s = mine;
                    queue.push(u);
                }
                *budget = budget.saturating_sub(1);
                !met && *budget > 0
            });
            if met || *budget == 0 {
                return met;
            }
        }
    }

    /// Component labels in the same canonical form as
    /// [`connected_components`](crate::connected_components): every vertex
    /// labelled with its component's minimum vertex id.
    pub fn labels(&mut self) -> Vec<u32> {
        // Roots are already component minima because unions keep the
        // smaller id as root and path halving preserves roots.
        (0..self.parent.len() as u32)
            .map(|v| self.label(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_gen::Csr;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn incremental_cc_matches_label_propagation() {
        let mut rng = SmallRng::seed_from_u64(19);
        let n = 400u32;
        let mut edges: Vec<Edge> = Vec::new();
        let mut cc = IncrementalCc::new(&Csr::from_edges(n as usize, &edges));
        for _ in 0..12 {
            let batch: Vec<Edge> = (0..40)
                .flat_map(|_| {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    [Edge::new(a, b), Edge::new(b, a)]
                })
                .collect();
            edges.extend_from_slice(&batch);
            let before = cc.labels();
            let merged = cc.on_insert(&batch);
            let g = Csr::from_edges(n as usize, &edges);
            let after = cc.labels();
            assert_eq!(after, crate::connected_components(&g));
            // Every relabelled vertex had a merged root as its label.
            for v in 0..n as usize {
                if before[v] != after[v] {
                    assert!(merged.contains(&before[v]), "vertex {v}");
                }
            }
        }
    }

    #[test]
    fn incremental_cc_rebuild_after_delete() {
        // Two components joined by a bridge, then the bridge is removed.
        let full = [
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(1, 2),
            Edge::new(2, 1),
        ];
        let g_full = Csr::from_edges(3, &full);
        let mut cc = IncrementalCc::new(&g_full);
        assert_eq!(cc.labels(), vec![0, 0, 0]);
        let g_cut = Csr::from_edges(3, &full[..2]);
        assert_eq!(cc.on_delete(&g_cut, &full[2..]), Repair::Recomputed(()));
        assert_eq!(cc.labels(), vec![0, 0, 2]);
        assert_eq!(cc.labels(), crate::connected_components(&g_cut));
    }

    #[test]
    fn cc_delete_of_cycle_edge_skips_rebuild() {
        // Triangle 0-1-2 plus the pair 3-4: deleting 0-1 keeps 0 and 1
        // connected through 2.
        let edges = sym(&[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let mut cc = IncrementalCc::new(&Csr::from_edges(5, &edges));
        let g = Csr::from_edges(5, &sym(&[(1, 2), (2, 0), (3, 4)]));
        assert_eq!(cc.on_delete(&g, &sym(&[(0, 1)])), Repair::Unchanged);
        assert_eq!(cc.labels(), crate::connected_components(&g));
        // A pair that was never connected had no edge to lose.
        assert_eq!(cc.on_delete(&g, &sym(&[(0, 3)])), Repair::Unchanged);
    }

    #[test]
    fn cc_delete_leaving_an_isolated_endpoint_rebuilds() {
        let edges = sym(&[(0, 1), (1, 2)]);
        let mut cc = IncrementalCc::new(&Csr::from_edges(3, &edges));
        let g = Csr::from_edges(3, &sym(&[(0, 1)]));
        assert_eq!(cc.on_delete(&g, &sym(&[(1, 2)])), Repair::Recomputed(()));
        assert_eq!(cc.labels(), crate::connected_components(&g));
    }

    #[test]
    fn incremental_cc_grows_for_new_ids() {
        let mut cc = IncrementalCc::new(&Csr::from_edges(2, &[]));
        assert_eq!(cc.on_insert(&[Edge::new(5, 1)]), vec![5]);
        let labels = cc.labels();
        assert_eq!(labels.len(), 6);
        assert_eq!(labels[5], 1);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[4], 4);
    }

    fn sym(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect()
    }

    /// `(vertex, old)` for every position where `old` and `new` differ.
    fn changes(old: &[u32], new: &[u32]) -> Vec<(u32, u32)> {
        new.iter()
            .enumerate()
            .filter_map(|(v, &d)| {
                let o = old.get(v).copied().unwrap_or(INF);
                (o != d).then_some((v as u32, o))
            })
            .collect()
    }

    #[test]
    fn shortcut_edge_improves_distances() {
        // Path 0-1-2-3-4; then add shortcut 0-4.
        let mut edges = sym(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let g = Csr::from_edges(5, &edges);
        let mut inc = IncrementalBfs::new(&g, 0);
        assert_eq!(inc.distances(), &[0, 1, 2, 3, 4]);
        let batch = sym(&[(0, 4)]);
        edges.extend_from_slice(&batch);
        let g2 = Csr::from_edges(5, &edges);
        assert_eq!(inc.on_insert(&g2, &batch), vec![(3, 3), (4, 4)]);
        assert_eq!(inc.distances(), &[0, 1, 2, 2, 1]);
    }

    #[test]
    fn connecting_a_new_component() {
        let mut edges = sym(&[(0, 1), (3, 4)]);
        let g = Csr::from_edges(5, &edges);
        let mut inc = IncrementalBfs::new(&g, 0);
        assert_eq!(inc.distances(), &[0, 1, INF, INF, INF]);
        let batch = sym(&[(1, 3)]);
        edges.extend_from_slice(&batch);
        let g2 = Csr::from_edges(5, &edges);
        assert_eq!(inc.on_insert(&g2, &batch), vec![(3, INF), (4, INF)]);
        assert_eq!(inc.distances(), &[0, 1, INF, 2, 3]);
    }

    #[test]
    fn random_stream_matches_recompute() {
        let mut rng = SmallRng::seed_from_u64(17);
        let n = 300u32;
        let mut edges = sym(&(0..80)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect::<Vec<_>>());
        let g = Csr::from_edges(n as usize, &edges);
        let mut inc = IncrementalBfs::new(&g, 0);
        let mut cc = IncrementalCc::new(&g);
        for round in 0..30 {
            let before = inc.distances().to_vec();
            let (changed, g) = if round % 3 == 2 {
                // Delete a third of the current edges, in both directions.
                let doomed: Vec<Edge> = edges
                    .iter()
                    .filter(|e| e.src < e.dst && rng.gen_bool(0.3))
                    .flat_map(|e| [*e, e.reversed()])
                    .collect();
                edges.retain(|e| !doomed.contains(e));
                let g = Csr::from_edges(n as usize, &edges);
                let changed = match inc.on_delete(&g, &doomed) {
                    Repair::Unchanged => Vec::new(),
                    Repair::Recomputed(c) => c,
                };
                cc.on_delete(&g, &doomed);
                (changed, g)
            } else {
                let batch = sym(&(0..30)
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                    .collect::<Vec<_>>());
                edges.extend_from_slice(&batch);
                let g = Csr::from_edges(n as usize, &edges);
                cc.on_insert(&batch);
                (inc.on_insert(&g, &batch), g)
            };
            let fresh = IncrementalBfs::new(&g, 0);
            assert_eq!(inc.distances(), fresh.distances(), "round {round}");
            assert_eq!(changed, changes(&before, inc.distances()), "round {round}");
            assert_eq!(
                cc.labels(),
                crate::connected_components(&g),
                "round {round}"
            );
        }
    }

    #[test]
    fn deletion_falls_back_to_recompute() {
        let edges = sym(&[(0, 1), (1, 2), (0, 2)]);
        let g = Csr::from_edges(3, &edges);
        let mut inc = IncrementalBfs::new(&g, 0);
        assert_eq!(inc.distances(), &[0, 1, 1]);
        // Remove 0-2: distance of 2 grows to 2.
        let g2 = Csr::from_edges(3, &sym(&[(0, 1), (1, 2)]));
        assert_eq!(
            inc.on_delete(&g2, &sym(&[(0, 2)])),
            Repair::Recomputed(vec![(2, 1)])
        );
        assert_eq!(inc.distances(), &[0, 1, 2]);
    }

    #[test]
    fn bfs_delete_of_tree_edge_with_another_parent_skips_recompute() {
        // Square 0-1-3-2-0: vertex 3 sits at distance 2 with parents 1 and 2.
        let g = Csr::from_edges(4, &sym(&[(0, 1), (0, 2), (1, 3), (2, 3)]));
        let mut inc = IncrementalBfs::new(&g, 0);
        assert_eq!(inc.distances(), &[0, 1, 1, 2]);
        let g2 = Csr::from_edges(4, &sym(&[(0, 1), (0, 2), (2, 3)]));
        assert_eq!(inc.on_delete(&g2, &sym(&[(1, 3)])), Repair::Unchanged);
        assert_eq!(inc.distances(), IncrementalBfs::new(&g2, 0).distances());
    }

    #[test]
    fn bfs_delete_of_only_parent_recomputes() {
        // Path 0-1-2-3 plus 0-4: cutting 1-2 strands 2 and 3.
        let g = Csr::from_edges(5, &sym(&[(0, 1), (1, 2), (2, 3), (0, 4)]));
        let mut inc = IncrementalBfs::new(&g, 0);
        let g2 = Csr::from_edges(5, &sym(&[(0, 1), (2, 3), (0, 4)]));
        assert_eq!(
            inc.on_delete(&g2, &sym(&[(1, 2)])),
            Repair::Recomputed(vec![(2, 2), (3, 3)])
        );
        assert_eq!(inc.distances(), IncrementalBfs::new(&g2, 0).distances());
        assert_eq!(inc.distances(), &[0, 1, INF, INF, 1]);
    }

    #[test]
    fn bfs_delete_check_confirms_the_edge_into_the_head() {
        // Square 0-1-3-2-0, then only the directions 1→3 and 2→3 are
        // deleted. Vertex 3's out-neighbors 1 and 2 still sit at
        // dist[3] - 1, but neither has an edge into 3 any more, so neither
        // is a parent: the check must not accept.
        let g = Csr::from_edges(4, &sym(&[(0, 1), (0, 2), (1, 3), (2, 3)]));
        let mut inc = IncrementalBfs::new(&g, 0);
        assert_eq!(inc.distances(), &[0, 1, 1, 2]);
        let doomed = [Edge::new(1, 3), Edge::new(2, 3)];
        let kept: Vec<Edge> = sym(&[(0, 1), (0, 2), (1, 3), (2, 3)])
            .into_iter()
            .filter(|e| !doomed.contains(e))
            .collect();
        let g2 = Csr::from_edges(4, &kept);
        assert!(g2.has_edge(3, 1) && !g2.has_edge(1, 3));
        assert!(matches!(inc.on_delete(&g2, &doomed), Repair::Recomputed(_)));
        assert_eq!(inc.distances(), IncrementalBfs::new(&g2, 0).distances());
    }
}
