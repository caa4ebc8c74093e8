//! What the three workloads share: input generation, the update pattern and
//! its oracle, and the phases every workload runs after its main loop, in
//! rounds (standing-query delivery, idle analytics, durability), and the
//! executor probes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsgraph_analytics::bfs::{bfs, distances_from_parents, UNREACHED};
use lsgraph_analytics::pagerank::pagerank;
use lsgraph_api::batch::{runs_by_src, sorted_dedup_keys};
use lsgraph_api::{Edge, Graph, StructSnapshot};
use lsgraph_core::{BatchKind, BatchOutcome, Config, GraphError, LsGraph};
use lsgraph_gen::{rmat, DatasetProfile, RmatParams};
use lsgraph_persist::{RecoveryReport, Store, StoreError, StoreOptions};
use lsgraph_queries::{BatchWindow, StandingQuery, SubscriptionHandle, SubscriptionHub};
use rayon::prelude::*;

use crate::report::Outcome;
use crate::stats::{quietest, Samples, LOOP_PARTS};
use crate::trace::Tracer;

/// Window (in batches) of the two windowed standing queries.
pub const WINDOW: usize = 4;

/// Graph shape of a workload: a Table 1 degree profile scaled down by `shift`
/// doublings, as a symmetric R-MAT graph with the profile's average degree
/// (the analytics kernels and the component query assume symmetry).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub profile: &'static str,
    pub shift: u32,
}

impl Shape {
    fn profile(&self) -> DatasetProfile {
        DatasetProfile::by_name(self.profile).expect("Table 1 profile exists")
    }

    pub fn log_vertices(&self) -> u32 {
        self.profile().log_vertices - self.shift
    }

    pub fn vertices(&self) -> usize {
        1 << self.log_vertices()
    }

    /// The engine configuration: the paper's defaults with the HITree
    /// threshold `M` scaled down with the graph, as the `repro` harness does,
    /// so every adjacency tier is populated at this size.
    pub fn config(&self) -> Config {
        Config::default().with_m((Config::default().m >> self.shift.min(16)).clamp(128, 4096))
    }

    /// The base graph as directed edges, both directions of each.
    pub fn base(&self, seed: u64) -> Vec<Edge> {
        let undirected = self.profile().scaled_edges(self.shift) / 2;
        symmetrize(&rmat(
            self.log_vertices(),
            undirected,
            RmatParams::paper(),
            sub_seed(seed, 1),
        ))
    }

    /// `count` update batches of `edges` directed edges each (`edges / 2`
    /// R-MAT edges and their mirrors), from an independent stream per
    /// `stream`.
    pub fn batches(&self, seed: u64, stream: u64, count: usize, edges: usize) -> Vec<Vec<Edge>> {
        let half = edges / 2;
        let all = rmat(
            self.log_vertices(),
            count * half,
            RmatParams::paper(),
            sub_seed(seed, stream),
        );
        all.chunks(half).map(symmetrize).collect()
    }
}

fn symmetrize(edges: &[Edge]) -> Vec<Edge> {
    edges.iter().flat_map(|&e| [e, e.reversed()]).collect()
}

/// SplitMix64 of `(seed, stream)`: independent generator seeds per input.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub type Batch = Arc<[Edge]>;

/// One update: insert or delete a batch.
#[derive(Clone)]
pub struct Op {
    pub insert: bool,
    pub batch: Batch,
}

impl Op {
    pub fn kind(&self) -> BatchKind {
        if self.insert {
            BatchKind::Insert
        } else {
            BatchKind::Delete
        }
    }
}

/// The update pattern of every workload: insert a fresh batch `a`, insert a
/// fresh batch `b`, delete `a` (two inserts to one delete, and every delete
/// removes edges that were just inserted). Every op handed out is logged for
/// the oracle. The stream ends when its pre-generated batches run out.
pub struct Stream {
    fresh: std::vec::IntoIter<Vec<Edge>>,
    step: u64,
    to_delete: Option<Batch>,
    log: Vec<Op>,
}

impl Stream {
    pub fn new(batches: Vec<Vec<Edge>>) -> Self {
        Stream {
            fresh: batches.into_iter(),
            step: 0,
            to_delete: None,
            log: Vec::new(),
        }
    }

    pub fn log(&self) -> &[Op] {
        &self.log
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = if self.step % 3 == 2 {
            Op {
                insert: false,
                batch: self.to_delete.take().expect("a batch inserted two ops ago"),
            }
        } else {
            let batch: Batch = self.fresh.next()?.into();
            if self.step.is_multiple_of(3) {
                self.to_delete = Some(Arc::clone(&batch));
            }
            Op {
                insert: true,
                batch,
            }
        };
        self.step += 1;
        self.log.push(op.clone());
        Some(op)
    }
}

/// Whether a committed batch lost nothing.
pub fn batch_ok<E>(r: &Result<BatchOutcome, E>) -> bool {
    matches!(r, Ok(o) if o.quarantined.is_empty() && o.edges_lost == 0)
}

/// Applies `op` to a plain graph.
pub fn apply(g: &mut LsGraph, op: &Op) -> Result<BatchOutcome, GraphError> {
    if op.insert {
        g.try_insert_batch(&op.batch)
    } else {
        g.try_delete_batch(&op.batch)
    }
}

/// Logs and applies `op` through a store (not yet synced).
pub fn store_apply(store: &mut Store, op: &Op) -> Result<BatchOutcome, StoreError> {
    if op.insert {
        store.insert_batch(&op.batch)
    } else {
        store.delete_batch(&op.batch)
    }
}

/// Edge count plus an order-sensitive hash of every vertex's neighbor list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checksums {
    pub edges: u64,
    pub per_vertex: Vec<u64>,
}

fn mix(h: u64, u: u32) -> u64 {
    (h ^ (u as u64 + 1)).wrapping_mul(0x0000_0100_0000_01b3)
}

const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

pub fn graph_checksums<G: Graph + ?Sized>(g: &G) -> Checksums {
    let per_vertex: Vec<u64> = (0..g.num_vertices() as u32)
        .into_par_iter()
        .map(|v| {
            let mut h = EMPTY;
            g.for_each_neighbor(v, &mut |u| h = mix(h, u));
            h
        })
        .collect();
    Checksums {
        edges: g.num_edges() as u64,
        per_vertex,
    }
}

/// The checksums the graph must have after `base` was bulk-loaded and the
/// `ops` applied in order: a sorted-edge oracle where the last op touching
/// an edge decides whether it is present.
pub fn oracle_checksums(n: usize, base: &[Edge], ops: &[Op]) -> Checksums {
    let mut present: Vec<u64> = base.iter().map(|e| e.key()).collect();
    present.par_sort_unstable();
    present.dedup();
    let mut touched: Vec<(u64, u32)> = Vec::with_capacity(ops.iter().map(|o| o.batch.len()).sum());
    for (i, op) in ops.iter().enumerate() {
        let tag = (i as u32) << 1 | op.insert as u32;
        touched.extend(op.batch.iter().map(|e| (e.key(), tag)));
    }
    touched.par_sort_unstable();
    // Last op per key.
    let mut last: Vec<(u64, bool)> = Vec::with_capacity(touched.len());
    for &(k, tag) in &touched {
        match last.last_mut() {
            Some(l) if l.0 == k => l.1 = tag & 1 == 1,
            _ => last.push((k, tag & 1 == 1)),
        }
    }
    drop(touched);
    let n = n.max(
        present
            .iter()
            .chain(last.iter().map(|(k, _)| k))
            .map(|&k| (k >> 32) as usize + 1)
            .max()
            .unwrap_or(0),
    );
    let mut per_vertex = vec![EMPTY; n];
    let mut edges = 0u64;
    let mut add = |k: u64| {
        let v = (k >> 32) as usize;
        per_vertex[v] = mix(per_vertex[v], k as u32);
        edges += 1;
    };
    let (mut i, mut j) = (0, 0);
    while i < present.len() || j < last.len() {
        let pk = present.get(i).copied().unwrap_or(u64::MAX);
        let lk = last.get(j).map_or(u64::MAX, |l| l.0);
        if pk < lk {
            add(pk);
            i += 1;
        } else {
            if last[j].1 {
                add(lk);
            }
            if pk == lk {
                i += 1;
            }
            j += 1;
        }
    }
    Checksums { edges, per_vertex }
}

/// Describes the first difference between two checksum sets.
pub fn diff_checksums(got: &Checksums, want: &Checksums) -> Option<String> {
    if got.edges != want.edges {
        return Some(format!(
            "edge count {} != expected {}",
            got.edges, want.edges
        ));
    }
    let n = got.per_vertex.len().max(want.per_vertex.len());
    (0..n)
        .find(|&v| {
            got.per_vertex.get(v).unwrap_or(&EMPTY) != want.per_vertex.get(v).unwrap_or(&EMPTY)
        })
        .map(|v| format!("neighbor list of vertex {v} differs"))
}

/// The final graph equals the sorted-edge oracle and passes its structural
/// self-check.
pub fn check_final(out: &mut Outcome, g: &LsGraph, base: &[Edge], ops: &[Op]) {
    let want = oracle_checksums(g.num_vertices(), base, ops);
    let got = graph_checksums(g);
    let diff = diff_checksums(&got, &want);
    out.check(diff.is_none(), || {
        format!("final graph vs oracle: {}", diff.unwrap_or_default())
    });
    let valid = g.validate_invariants();
    out.check(valid.is_ok(), || format!("validate_invariants: {valid:?}"));
}

/// Set-up, three times: bulk-load `base` into a fresh graph and hand it to
/// `finish` (the base checkpoint of `trickle`), dropping the previous result
/// first. Records the median time as `setup_s`; returns the last
/// result, or `None` after a failed set-up.
pub fn set_up<T>(
    out: &mut Outcome,
    tr: &mut Tracer,
    shape: &Shape,
    base: &[Edge],
    mut finish: impl FnMut(&mut Outcome, &mut Tracer, LsGraph) -> Option<T>,
) -> Option<T> {
    let mut times = Samples::new();
    let mut last = None;
    for _ in 0..3 {
        drop(last.take());
        let (r, d) = tr.span("setup", |tr| {
            let (r, _) = tr.span("setup.bulk_load", |_| {
                LsGraph::try_from_edges(shape.vertices(), base, shape.config())
            });
            match r {
                Ok((g, o)) if o.quarantined.is_empty() => finish(out, tr, g),
                _ => None,
            }
        });
        out.op("setup", r.is_some());
        times.push(d.as_secs_f64());
        last = r;
    }
    out.set_with_samples("setup_s", times.median(), times.len());
    out.check(last.is_some(), || "set-up failed".into());
    last
}

pub fn max_degree_vertex<G: Graph + ?Sized>(g: &G) -> u32 {
    (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0)
}

/// Whether `parents` is a breadth-first tree of `g` from `src`: tree edges
/// exist, every reached vertex hangs off `src`, and no edge leaves a level
/// for an unreached vertex or one more than a level further.
pub fn bfs_ok<G: Graph + ?Sized>(g: &G, src: u32, parents: &[u32]) -> bool {
    let n = g.num_vertices();
    if parents.len() != n || parents[src as usize] != src {
        return false;
    }
    let dist = distances_from_parents(g, src, parents);
    (0..n as u32).all(|v| {
        let p = parents[v as usize];
        if p == UNREACHED {
            return dist[v as usize] == UNREACHED;
        }
        if dist[v as usize] == UNREACHED || (v != src && !g.has_edge(p, v)) {
            return false;
        }
        let dv = dist[v as usize];
        g.for_each_neighbor_while(v, &mut |u| {
            let du = dist[u as usize];
            du != UNREACHED && du <= dv + 1
        })
    })
}

/// Whether a PageRank vector is a probability distribution.
pub fn pagerank_ok(scores: &[f64]) -> bool {
    let sum: f64 = scores.iter().sum();
    scores.iter().all(|s| s.is_finite() && *s >= 0.0) && (sum - 1.0).abs() < 1e-6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A store directory inside the working directory, emptied first.
pub fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_out").join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Store options of every workload: every checkpoint is a full image, so
/// repeated checkpoints of one graph do the same work.
fn store_options() -> StoreOptions {
    StoreOptions {
        max_delta_chain: 0,
        ..StoreOptions::default()
    }
}

/// Opens an empty store at `dir` and hands it the already-loaded graph `g`;
/// the graph becomes durable at the next checkpoint.
pub fn adopt(dir: &Path, g: LsGraph) -> Store {
    let cfg = *g.config();
    let (mut store, _) =
        Store::open_with(dir, g.num_vertices(), cfg, store_options()).expect("open an empty store");
    *store.graph_mut() = g;
    store
}

/// Per-layer persist figures gathered while writing through a store.
#[derive(Default)]
pub struct PersistStats {
    pub write_us: Samples,
    pub sync_us: Samples,
    pub checkpoint_bytes: u64,
    wal_bytes: u64,
    edges: u64,
}

/// One commit through a store: log and apply `op`, then, with `sync`,
/// fsync the log. Returns the write-to-acknowledgement time.
pub fn commit(
    out: &mut Outcome,
    tr: &mut Tracer,
    store: &mut Store,
    op: &Op,
    sync: bool,
    ps: &mut PersistStats,
) -> Duration {
    let wal = store.wal_len();
    let t = Instant::now();
    let (r, w) = tr.span("persist.write", |_| store_apply(store, op));
    ps.write_us.push(us(w));
    let mut ok = batch_ok(&r);
    if sync {
        let (s, sy) = tr.span("persist.sync", |_| store.sync());
        ps.sync_us.push(us(sy));
        ok &= s.is_ok();
    }
    let d = t.elapsed();
    ps.wal_bytes += store.wal_len().saturating_sub(wal);
    ps.edges += op.batch.len() as u64;
    out.op("persist.commit", ok);
    d
}

/// Timed `Store::open` of `dir`: image-chain load plus WAL-tail replay.
pub fn recover(
    tr: &mut Tracer,
    dir: &Path,
    cfg: Config,
    n: usize,
) -> (Store, RecoveryReport, Duration) {
    let ((store, report), d) = tr.span("persist.recover", |_| {
        Store::open_with(dir, n, cfg, store_options()).expect("recover the store")
    });
    (store, report, d)
}

/// What a workload runs after its main loop, on its own final graph, cut
/// into `rounds` equal rounds so that each figure's samples spread over the
/// whole phase rather than one stretch of it. A round: the standing-query
/// phase on `delivered` ops, `analytics` idle BFS + PageRank
/// runs, one timed checkpoint (a full image), `tail` durable commits (fsync
/// after each), then a drop of the store without a final checkpoint and a
/// timed reopen.
#[derive(Clone, Copy)]
pub struct Rounds {
    pub rounds: usize,
    pub delivered: usize,
    pub analytics: usize,
    pub tail: usize,
}

impl Rounds {
    /// Fresh batches a stream needs to hand out `ops` ops in every round
    /// (the update pattern makes three ops of two batches).
    pub fn fresh(&self, ops: usize) -> usize {
        (ops * self.rounds).div_ceil(3) * 2
    }
}

/// What the rounds measured.
#[derive(Default)]
pub struct PhaseStats {
    pub checkpoint: Samples,
    pub recovery: Samples,
    /// Frames each recovery replayed: one round's tail.
    pub frames: u64,
    /// Traced runs: an open of a store whose WAL tail is empty.
    pub image_load: Option<Duration>,
    pub queries: QueriesStats,
    cow_copies: u64,
    pub bfs_ms: Samples,
    pub pagerank_ms: Samples,
    /// Every op the rounds applied, in order, for the oracle.
    pub applied: Vec<Op>,
}

/// Runs the rounds of `plan` on `store`, drawing ops from `delivered` and
/// `tail`. Checks every delivery, every kernel run's first of a round, and
/// every recovery: it replays exactly the round's tail and restores the
/// pre-drop graph.
pub fn run_rounds(
    out: &mut Outcome,
    tr: &mut Tracer,
    mut store: Store,
    plan: Rounds,
    delivered: &mut Stream,
    tail: &mut Stream,
    ps: &mut PersistStats,
    snaps: &mut SnapshotStats,
) -> (Store, PhaseStats) {
    let mut st = PhaseStats::default();
    for _ in 0..plan.rounds {
        let ops = delivered.by_ref().take(plan.delivered);
        deliver_round(out, tr, store.graph_mut(), ops, &mut st, snaps);
        analytics_round(out, tr, store.graph(), plan.analytics, &mut st);
        let ops = tail.by_ref().take(plan.tail);
        store = durability_round(out, tr, store, ops, &mut st, ps);
    }
    if tr.enabled() {
        out.op("persist.checkpoint", store.checkpoint().is_ok());
        let (dir, cfg, n) = (
            store.dir().to_path_buf(),
            *store.graph().config(),
            store.graph().num_vertices(),
        );
        drop(store);
        let (reopened, report, d) = recover(tr, &dir, cfg, n);
        out.check(report.frames_replayed == 0, || {
            "image-only open replayed frames".into()
        });
        store = reopened;
        st.image_load = Some(d);
    }
    (store, st)
}

/// The standing-query phase of one round: attach the four queries to `g`,
/// then apply each op and time it until all four deltas are polled. Ends
/// with the subscriptions verified and detached (dropping the hub joins its
/// worker), and the epoch backlog drained.
fn deliver_round(
    out: &mut Outcome,
    tr: &mut Tracer,
    g: &mut LsGraph,
    ops: impl Iterator<Item = Op>,
    st: &mut PhaseStats,
    snaps: &mut SnapshotStats,
) {
    let mut delivery = Delivery::attach(out, g);
    let before = g.struct_snapshot();
    for op in ops {
        let t = Instant::now();
        let (r, _) = tr.span("core.apply", |_| apply(g, &op));
        out.op("core.apply", batch_ok(&r));
        let d = delivery.deliver(out, tr, g, &op);
        st.queries.add(t.elapsed(), &d);
        snaps.max_backlog = snaps.max_backlog.max(g.epoch_backlog());
        st.applied.push(op);
    }
    st.cow_copies += field(&g.struct_snapshot().since(before), "cow_block_copies");
    delivery.verify(out, g);
    drop(delivery);
    check_drained(out, g);
}

/// Idle analytics of one round: BFS from the max-degree vertex, then one
/// PageRank iteration, `reps` times on a snapshot of the graph with no
/// writer running. The BFS tree is checked on the first run of the round
/// (a check costs several runs on the largest graph).
fn analytics_round(
    out: &mut Outcome,
    tr: &mut Tracer,
    g: &LsGraph,
    reps: usize,
    st: &mut PhaseStats,
) {
    let snap = g.snapshot();
    let src = max_degree_vertex(&snap);
    for rep in 0..reps {
        let (parents, d) = tr.span("analytics.bfs", |_| bfs(&snap, src));
        st.bfs_ms.push(ms(d));
        if rep == 0 {
            out.op("analytics.bfs", bfs_ok(&snap, src, &parents));
        }
        let (scores, d) = tr.span("analytics.pagerank", |_| pagerank(&snap, 1, 0.85));
        st.pagerank_ms.push(ms(d));
        out.op("analytics.pagerank", pagerank_ok(&scores));
    }
}

/// The durability phase of one round: a timed checkpoint, the `tail` as
/// durable commits, then a drop and a timed reopen of the store.
fn durability_round(
    out: &mut Outcome,
    tr: &mut Tracer,
    mut store: Store,
    tail: impl Iterator<Item = Op>,
    st: &mut PhaseStats,
    ps: &mut PersistStats,
) -> Store {
    let (meta, d) = tr.span("persist.checkpoint", |_| store.checkpoint());
    out.op("persist.checkpoint", meta.is_ok());
    ps.checkpoint_bytes = meta.map_or(0, |m| m.bytes);
    st.checkpoint.push(d.as_secs_f64());
    let mut written = 0u64;
    for op in tail {
        commit(out, tr, &mut store, &op, true, ps);
        st.applied.push(op);
        written += 1;
    }
    let dir = store.dir().to_path_buf();
    let cfg = *store.graph().config();
    let n = store.graph().num_vertices();
    let before = graph_checksums(store.graph());
    drop(store);
    let (store, report, d) = recover(tr, &dir, cfg, n);
    st.recovery.push(d.as_secs_f64());
    st.frames = written;
    out.check(report.frames_replayed == written, || {
        format!(
            "recovery replayed {} frames, {written} were written after the checkpoint",
            report.frames_replayed
        )
    });
    let diff = diff_checksums(&graph_checksums(store.graph()), &before);
    out.check(diff.is_none(), || {
        format!(
            "recovered graph vs pre-drop graph: {}",
            diff.unwrap_or_default()
        )
    });
    store
}

impl PhaseStats {
    /// Sets the figures of the rounds, each the quietest of `plan.rounds`
    /// parts ([`Samples::quiet`]): `checkpoint_s`, `recovery_s`, the
    /// standing-query figures and the idle analytics figures. Returns the idle (BFS, PageRank) times in ms.
    pub fn report(&self, out: &mut Outcome, plan: Rounds, ps: &PersistStats) -> (f64, f64) {
        let parts = plan.rounds;
        let recovery = self.recovery.quiet(0.5, parts);
        out.set_with_samples(
            "checkpoint_s",
            self.checkpoint.quiet(0.5, parts),
            self.checkpoint.len(),
        );
        out.set_with_samples("recovery_s", recovery, self.recovery.len());
        out.set_with_samples("persist.write_us", ps.write_us.median(), ps.write_us.len());
        out.set_with_samples("persist.sync_us", ps.sync_us.median(), ps.sync_us.len());
        out.set("persist.checkpoint_bytes", ps.checkpoint_bytes as f64);
        out.set(
            "persist.wal_bytes_per_edge",
            ps.wal_bytes as f64 / ps.edges.max(1) as f64,
        );
        if let Some(load) = self.image_load {
            let replay = (recovery - load.as_secs_f64()).max(1e-9);
            out.set("persist.image_load_s", load.as_secs_f64());
            out.set("persist.replay_frames_per_s", self.frames as f64 / replay);
        }
        self.queries.report(out, parts);
        out.set(
            "snapshot.cow_copies_per_batch",
            self.cow_copies as f64 / self.queries.delta_ms.len().max(1) as f64,
        );
        let bfs_ms = self.bfs_ms.quiet(0.5, parts);
        let pr_ms = self.pagerank_ms.quiet(0.5, parts);
        out.set_with_samples("analytics.bfs_idle_ms", bfs_ms, self.bfs_ms.len());
        out.set_with_samples("analytics.pagerank_idle_ms", pr_ms, self.pagerank_ms.len());
        (bfs_ms, pr_ms)
    }
}

/// The four standing queries of the benchmark on a hub attached to a graph,
/// with a client-side copy of every result rebuilt from the polled deltas.
pub struct Delivery {
    hub: SubscriptionHub,
    queries: [StandingQuery; 4],
    subs: Vec<SubscriptionHandle>,
    clients: Vec<BTreeMap<u32, u64>>,
    next_seq: u64,
    window: BatchWindow,
}

/// Per-layer figures of one delivered batch.
pub struct Delivered {
    pub quiesce: Duration,
    pub poll: Duration,
    pub entries: u64,
}

impl Delivery {
    /// Attaches a hub, subscribes the four queries anchored at the
    /// max-degree vertex, and polls their bootstrap deltas.
    pub fn attach(out: &mut Outcome, g: &mut LsGraph) -> Delivery {
        let src = max_degree_vertex(&*g);
        let queries = [
            StandingQuery::KHop { src, k: 2 },
            StandingQuery::ComponentMembership { src },
            StandingQuery::WindowedEdgeCount { window: WINDOW },
            StandingQuery::WindowedTriangleCount { window: WINDOW },
        ];
        let hub = SubscriptionHub::attach(g);
        let subs: Vec<_> = queries.iter().map(|&q| hub.subscribe(g, q)).collect();
        let mut d = Delivery {
            hub,
            queries,
            subs,
            clients: vec![BTreeMap::new(); 4],
            next_seq: g.batch_seq(),
            window: BatchWindow::new(WINDOW),
        };
        d.poll_all(out);
        d.next_seq += 1;
        d
    }

    /// Polls every subscription once; each must yield exactly the delta of
    /// batch `next_seq` (a missing, extra or out-of-sequence delta is a
    /// failed operation). Returns the entries received.
    fn poll_all(&mut self, out: &mut Outcome) -> u64 {
        let mut entries = 0;
        for (sub, client) in self.subs.iter().zip(&mut self.clients) {
            let deltas = sub.poll();
            out.op(
                "queries.delta",
                deltas.len() == 1 && deltas[0].seq == self.next_seq,
            );
            for d in &deltas {
                d.apply_to(client);
                entries += d.entries();
            }
        }
        entries
    }

    /// Waits for the hub to deliver the batch just committed to `g`, then
    /// polls all four deltas.
    pub fn deliver(
        &mut self,
        out: &mut Outcome,
        tr: &mut Tracer,
        g: &LsGraph,
        op: &Op,
    ) -> Delivered {
        self.window.push(g.batch_seq(), op.kind(), &op.batch);
        let ((), quiesce) = tr.span("queries.quiesce", |_| self.hub.quiesce());
        let (entries, poll) = tr.span("queries.poll", |_| self.poll_all(out));
        self.next_seq += 1;
        Delivered {
            quiesce,
            poll,
            entries,
        }
    }

    /// Every client copy, rebuilt from the polled deltas, equals the
    /// server-side result and `StandingQuery::oracle` on a snapshot of `g`.
    pub fn verify(&self, out: &mut Outcome, g: &LsGraph) {
        self.hub.quiesce();
        let snap = g.snapshot();
        for ((q, sub), client) in self.queries.iter().zip(&self.subs).zip(&self.clients) {
            let leftover = sub.poll();
            out.check(leftover.is_empty(), || {
                format!("{q:?}: {} undelivered deltas", leftover.len())
            });
            out.check(&sub.result() == client, || {
                format!("{q:?}: replayed deltas != server result")
            });
            let want = q.oracle(&snap, &self.window);
            out.check(&want == client, || {
                format!("{q:?}: replayed deltas != oracle")
            });
        }
        out.check(g.struct_snapshot().subscription_panics == 0, || {
            "a subscription panicked".into()
        });
    }
}

/// Queries-layer figures: write-to-polled latency and the hub's share.
#[derive(Default)]
pub struct QueriesStats {
    pub delta_ms: Samples,
    quiesce_ms: Samples,
    poll_us: Samples,
    quiesce: Duration,
    entries: u64,
}

impl QueriesStats {
    pub fn add(&mut self, delta: Duration, d: &Delivered) {
        self.delta_ms.push(ms(delta));
        self.quiesce_ms.push(ms(d.quiesce));
        self.poll_us.push(us(d.poll));
        self.quiesce += d.quiesce;
        self.entries += d.entries;
    }

    /// Sets the queries figures; `delta_p50_ms`/`delta_p95_ms` are the
    /// quietest of `parts` parts ([`Samples::quiet`]).
    pub fn report(&self, out: &mut Outcome, parts: usize) {
        let n = self.delta_ms.len();
        out.set_with_samples("delta_p50_ms", self.delta_ms.quiet(0.5, parts), n);
        out.set_with_samples("delta_p95_ms", self.delta_ms.quiet(0.95, parts), n);
        out.set_with_samples("queries.quiesce_ms", self.quiesce_ms.median(), n);
        out.set_with_samples("queries.poll_us", self.poll_us.median(), n);
        out.set(
            "queries.delta_entries_per_batch",
            self.entries as f64 / n as f64,
        );
        out.set(
            "queries.ns_per_delta_entry",
            self.quiesce.as_nanos() as f64 / self.entries.max(1) as f64,
        );
    }
}

/// Once nothing holds a snapshot, reclamation leaves no retired versions.
pub fn check_drained(out: &mut Outcome, g: &LsGraph) {
    g.reclaim_epochs();
    let backlog = g.epoch_backlog();
    out.check(backlog == 0, || {
        format!("epoch backlog {backlog} after quiescence")
    });
}

/// Kernel time per stored edge.
pub fn report_kernels_per_edge(out: &mut Outcome, bfs_ms: f64, pagerank_ms: f64, edges: usize) {
    out.set("analytics.bfs_ns_per_edge", bfs_ms * 1e6 / edges as f64);
    out.set(
        "analytics.pagerank_ns_per_edge",
        pagerank_ms * 1e6 / edges as f64,
    );
}

/// Snapshot-layer figures.
#[derive(Default)]
pub struct SnapshotStats {
    pub flip_us: Samples,
    pub reclaim_us: Samples,
    pub max_backlog: usize,
}

impl SnapshotStats {
    /// Times `reps` snapshot flips of `g`, each dropped and reclaimed.
    pub fn probe(&mut self, tr: &mut Tracer, g: &LsGraph, reps: usize) {
        for _ in 0..reps {
            let (snap, d) = tr.span("snapshot.flip", |_| g.snapshot());
            self.flip_us.push(us(d));
            drop(snap);
            self.reclaim(tr, g);
        }
    }

    pub fn report(&self, out: &mut Outcome) {
        out.set_with_samples(
            "snapshot.flip_us",
            self.flip_us.median(),
            self.flip_us.len(),
        );
        out.set_with_samples(
            "snapshot.reclaim_us",
            self.reclaim_us.median(),
            self.reclaim_us.len(),
        );
        out.set("snapshot.max_backlog", self.max_backlog as f64);
    }

    pub fn reclaim(&mut self, tr: &mut Tracer, g: &LsGraph) {
        self.max_backlog = self.max_backlog.max(g.epoch_backlog());
        let ((), d) = tr.span("snapshot.reclaim", |_| g.reclaim_epochs());
        self.reclaim_us.push(us(d));
    }
}

/// Batch-layer probe: the engine's own sort and group steps on a batch,
/// called and timed from outside.
#[derive(Default)]
pub struct BatchLayer {
    sort: Duration,
    group: Duration,
    edges: u64,
}

impl BatchLayer {
    pub fn probe(&mut self, tr: &mut Tracer, batch: &[Edge]) {
        let (keys, sort) = tr.span("batch.sort", |_| sorted_dedup_keys(batch));
        let (runs, group) = tr.span("batch.group", |_| runs_by_src(&keys));
        std::hint::black_box(runs);
        self.sort += sort;
        self.group += group;
        self.edges += batch.len() as u64;
    }

    pub fn report(&self, out: &mut Outcome) {
        let e = self.edges.max(1) as f64;
        out.set("batch.sort_ns_per_edge", self.sort.as_nanos() as f64 / e);
        out.set("batch.group_ns_per_edge", self.group.as_nanos() as f64 / e);
    }
}

/// Edges and time of each insert and each delete batch of a loop, in order.
#[derive(Default)]
pub struct Throughput {
    insert: Vec<(u64, Duration)>,
    delete: Vec<(u64, Duration)>,
}

impl Throughput {
    pub fn add(&mut self, op: &Op, d: Duration) {
        let kind = if op.insert {
            &mut self.insert
        } else {
            &mut self.delete
        };
        kind.push((op.batch.len() as u64, d));
    }

    pub fn edges(&self) -> u64 {
        self.insert.iter().chain(&self.delete).map(|b| b.0).sum()
    }

    /// Sets `core.insert_ns_per_edge`/`core.delete_ns_per_edge`, the time
    /// per edge over the batches of that kind in the quietest of
    /// `LOOP_PARTS` parts of the loop (see [`Samples::quiet`]), and
    /// `insert_eps`/`delete_eps`, their inverses. A total over the part,
    /// not a median: the times of small batches fall into two clusters, and
    /// a median of such a mix jumps between them from run to run.
    pub fn report(&self, out: &mut Outcome) {
        let ns_per_edge = |batches: &[(u64, Duration)]| {
            quietest(batches, LOOP_PARTS, |part| {
                let edges: u64 = part.iter().map(|b| b.0).sum();
                let time: Duration = part.iter().map(|b| b.1).sum();
                time.as_nanos() as f64 / edges as f64
            })
        };
        let (insert, delete) = (ns_per_edge(&self.insert), ns_per_edge(&self.delete));
        out.set("insert_eps", 1e9 / insert);
        out.set("delete_eps", 1e9 / delete);
        out.set("core.insert_ns_per_edge", insert);
        out.set("core.delete_ns_per_edge", delete);
    }
}

/// A counter of the engine's own `StructSnapshot`, looked up by its field
/// name.
pub fn field(s: &StructSnapshot, name: &str) -> u64 {
    s.fields()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("StructSnapshot has no field {name}"))
}

/// Structural counters of the core layer over a loop, per million edges.
pub fn core_counters(out: &mut Outcome, before: StructSnapshot, after: StructSnapshot, edges: u64) {
    let d = after.since(before);
    for (metric, name) in [
        ("core.tier_upgrades", "tier_upgrades"),
        ("core.ria_cross_block_moves", "ria_cross_block_moves"),
        ("core.ria_rebuilds", "ria_rebuilds"),
        (
            "core.lia_vertical_child_creates",
            "lia_vertical_child_creates",
        ),
        ("core.lia_model_retrains", "lia_model_retrains"),
    ] {
        out.set(metric, field(&d, name) as f64 * 1e6 / edges.max(1) as f64);
    }
}

/// Executor-layer probes: the fixed costs of the vendored parallel
/// executor, and a 16-edge insert on a fresh graph of the workload's size.
pub fn executor_probes(out: &mut Outcome, tr: &mut Tracer, shape: &Shape, seed: u64) {
    const REPS: usize = 400;
    let mut threads = Samples::new();
    for _ in 0..REPS {
        let (k, d) = tr.span("executor.num_threads", |_| rayon::current_num_threads());
        std::hint::black_box(k);
        threads.push(us(d));
    }
    let items: Vec<u64> = (0..64).collect();
    let mut fork = Samples::new();
    for _ in 0..REPS {
        let ((), d) = tr.span("executor.fork_join", |_| {
            items.par_iter().for_each(|x| {
                std::hint::black_box(x);
            })
        });
        fork.push(us(d));
    }
    let mut small = Samples::new();
    let mut g = LsGraph::with_config(shape.vertices(), shape.config());
    for b in shape.batches(seed, 90, REPS, 16) {
        let (r, d) = tr.span("core.small_batch", |_| g.try_insert_batch(&b));
        out.op("core.small_batch", batch_ok(&r));
        small.push(us(d));
    }
    out.set_with_samples("executor.num_threads_us", threads.median(), threads.len());
    out.set_with_samples("executor.fork_join_us", fork.median(), fork.len());
    out.set_with_samples("core.small_batch_us", small.median(), small.len());
}

/// Inserting the same batches into `g` under a 1-thread and a 2-thread
/// pool (each insert undone by deleting the batch again): the ratio of the
/// two insert times.
pub fn speedup_probe(
    out: &mut Outcome,
    tr: &mut Tracer,
    g: &mut LsGraph,
    batches: &[Vec<Edge>],
) -> f64 {
    let mut total = [Duration::ZERO; 2];
    for round in 0..4 {
        let threads = if round % 2 == 0 { 1 } else { 2 };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build a thread pool");
        for b in batches {
            let (r, d) = pool.install(|| tr.span("executor.apply", |_| g.try_insert_batch(b)));
            out.op("executor.apply", r.is_ok());
            total[threads - 1] += d;
            out.op("executor.apply", g.try_delete_batch(b).is_ok());
        }
    }
    total[0].as_secs_f64() / total[1].as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::DynamicGraph;

    #[test]
    fn stream_follows_insert_insert_delete() {
        let batches: Vec<Vec<Edge>> = (0..4).map(|i| vec![Edge::new(i, i + 1)]).collect();
        let ops: Vec<(bool, u32)> = Stream::new(batches)
            .map(|o| (o.insert, o.batch[0].src))
            .collect();
        assert_eq!(
            ops,
            [
                (true, 0),
                (true, 1),
                (false, 0),
                (true, 2),
                (true, 3),
                (false, 2)
            ]
        );
    }

    #[test]
    fn oracle_matches_engine_after_updates() {
        let shape = Shape {
            profile: "OR",
            shift: 12,
        };
        let base = shape.base(7);
        let mut g = LsGraph::from_edges(shape.vertices(), &base, shape.config());
        let mut stream = Stream::new(shape.batches(7, 2, 20, 64));
        for op in stream.by_ref() {
            assert!(batch_ok(&apply(&mut g, &op)));
        }
        let want = oracle_checksums(g.num_vertices(), &base, stream.log());
        assert_eq!(diff_checksums(&graph_checksums(&g), &want), None);
        // One more edge is noticed.
        let extra = (0..shape.vertices() as u32)
            .flat_map(|v| (0..shape.vertices() as u32).map(move |u| Edge::new(v, u)))
            .find(|e| !g.has_edge(e.src, e.dst))
            .unwrap();
        g.insert_batch(&[extra]);
        assert!(diff_checksums(&graph_checksums(&g), &want).is_some());
    }

    #[test]
    fn bfs_check_accepts_bfs_and_rejects_a_forged_parent() {
        let shape = Shape {
            profile: "OR",
            shift: 12,
        };
        let g = LsGraph::from_edges(shape.vertices(), &shape.base(3), shape.config());
        let src = max_degree_vertex(&g);
        let mut parents = bfs(&g, src);
        assert!(bfs_ok(&g, src, &parents));
        let v = (0..parents.len())
            .find(|&v| parents[v] != UNREACHED && v as u32 != src)
            .unwrap();
        parents[v] = UNREACHED;
        assert!(!bfs_ok(&g, src, &parents));
    }
}
