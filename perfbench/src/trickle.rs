//! `trickle`: small logged writes on a graph that fits in the cache, from
//! one client. The executor's per-call fixed cost, WAL append,
//! checkpointing and recovery replay do the work. The main loop leaves the
//! fsync to its end (group commit): a per-batch fsync on a shared
//! virtual disk measures the disk, whose tail latency varies severalfold
//! between runs. Standing-query delivery, idle analytics, checkpoint and
//! recovery then run in rounds on the final graph; each round's durable
//! tail fsyncs after every batch, which gives `persist.sync_us`.

use std::time::Instant;

use lsgraph_api::Graph;

use crate::engine::*;
use crate::report::Outcome;
use crate::stats::{Samples, LOOP_PARTS};
use crate::trace::{overhead_pct, Tracer};
use crate::{peak_rss_mb, Args, Profile};

pub const PROFILE: Profile = Profile {
    client_threads: 1,
    flush_policy: "main loop: WAL append per batch, fdatasync at the end (group commit); durable tail of each round: fdatasync after every batch",
};

/// OR degree profile at 2^15 vertices (about 2.5 M directed edges).
const SHAPE: Shape = Shape {
    profile: "OR",
    shift: 7,
};
const BATCH: usize = 16;
/// Fresh batches pre-generated per second of main loop: enough while a
/// commit takes at least 40 us; a faster engine ends the loop early.
const FRESH_PER_SECOND: usize = 17_000;
/// The phases after the main loop: each round costs about 1 s here, and
/// each recovery replays a 1,536-frame WAL tail.
const ROUNDS: Rounds = Rounds {
    rounds: 10,
    delivered: 10,
    analytics: 6,
    tail: 1_536,
};

pub fn run(args: &Args, out: &mut Outcome, tr: &mut Tracer) {
    let seed = args.seed;
    let secs = args.seconds.as_secs_f64().ceil() as usize;
    let base = SHAPE.base(seed);
    let mut stream = Stream::new(SHAPE.batches(seed, 2, FRESH_PER_SECOND * secs, BATCH));
    let mut tail = Stream::new(SHAPE.batches(seed, 3, ROUNDS.fresh(ROUNDS.tail), BATCH));
    let mut delivered = Stream::new(SHAPE.batches(seed, 4, ROUNDS.fresh(ROUNDS.delivered), BATCH));

    // Set-up: bulk load into a fresh store and write its base checkpoint.
    let dir = store_dir("trickle-store");
    let Some(mut store) = set_up(out, tr, &SHAPE, &base, |_, tr, g| {
        std::fs::remove_dir_all(&dir).ok();
        let mut s = adopt(&dir, g);
        let (meta, _) = tr.span("persist.checkpoint", |_| s.checkpoint());
        meta.ok().map(|_| s)
    }) else {
        return;
    };

    // Main loop: one logged commit per op.
    let before = store.graph().struct_snapshot();
    let mut commits = Samples::new();
    let mut tput = Throughput::default();
    let mut ps = PersistStats::default();
    let mut batch_layer = BatchLayer::default();
    let mut rounds = [Samples::new(), Samples::new()];
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < args.seconds {
        let Some(op) = stream.next() else { break };
        let traced = tr.enabled() && i % 2 == 1;
        let ((), round) = tr.span("trickle.op", |tr| {
            if traced {
                batch_layer.probe(tr, &op.batch);
            }
            let d = commit(out, tr, &mut store, &op, false, &mut ps);
            commits.push(us(d));
            tput.add(&op, d);
        });
        rounds[traced as usize].push(us(round));
        i += 1;
    }
    let after = store.graph().struct_snapshot();
    tput.report(out);
    core_counters(out, before, after, tput.edges());
    batch_layer.report(out);
    out.set(
        "trace.overhead_pct",
        overhead_pct(rounds[1].median(), rounds[0].median()),
    );
    out.set_with_samples(
        "commit_p50_us",
        commits.quiet(0.5, LOOP_PARTS),
        commits.len(),
    );
    out.set_with_samples("commit_p99_us", commits.tail_quantile(0.99), commits.len());

    // The group commit, then standing queries, idle analytics and
    // durability, in rounds on the final graph.
    out.op("persist.sync", store.sync().is_ok());
    let mut snaps = SnapshotStats::default();
    let (mut store, phases) = run_rounds(
        out,
        tr,
        store,
        ROUNDS,
        &mut delivered,
        &mut tail,
        &mut ps,
        &mut snaps,
    );
    let (bfs_ms, pr_ms) = phases.report(out, ROUNDS, &ps);
    snaps.probe(tr, store.graph(), 20);
    snaps.report(out);
    out.set("bfs_p50_ms", bfs_ms);
    out.set("pagerank_p50_ms", pr_ms);
    report_kernels_per_edge(out, bfs_ms, pr_ms, store.graph().num_edges());
    out.set("peak_rss_mb", peak_rss_mb());

    let ops: Vec<Op> = [stream.log(), &phases.applied].concat();
    check_final(out, store.graph(), &base, &ops);

    if tr.enabled() {
        executor_probes(out, tr, &SHAPE, seed);
        let probe = SHAPE.batches(seed, 5, 256, BATCH);
        let s = speedup_probe(out, tr, store.graph_mut(), &probe);
        out.set("executor.speedup_2t", s);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
