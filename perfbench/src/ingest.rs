//! `ingest`: large update batches on a graph bigger than the last-level
//! cache, from one client thread, with no snapshots, WAL or subscriptions
//! in the main loop. The batch, core and parallel executor layers do the
//! work there. Standing-query delivery, idle analytics, checkpoint and
//! recovery then run in rounds on the final graph.

use std::time::Instant;

use lsgraph_api::Graph;

use crate::engine::*;
use crate::report::Outcome;
use crate::stats::{Samples, LOOP_PARTS};
use crate::trace::{overhead_pct, Tracer};
use crate::{peak_rss_mb, Args, Profile};

pub const PROFILE: Profile = Profile {
    client_threads: 1,
    flush_policy: "main loop: none (in-memory); durability phase: fsync after every batch",
};

/// LJ degree profile at 2^20 vertices (about 18.6 M directed edges).
const SHAPE: Shape = Shape {
    profile: "LJ",
    shift: 3,
};
const BATCH: usize = 65_536;
/// Fresh batches pre-generated per second of main loop: enough while a
/// batch takes at least 50 ms; a faster engine ends the loop early.
const FRESH_PER_SECOND: usize = 20;
/// The phases after the main loop: each round costs about 11 s here, half
/// of it in the checks. Five deliveries a round give `delta_p95_ms` five
/// samples a part.
const ROUNDS: Rounds = Rounds {
    rounds: 3,
    delivered: 5,
    analytics: 3,
    tail: 3,
};

pub fn run(args: &Args, out: &mut Outcome, tr: &mut Tracer) {
    let seed = args.seed;
    let secs = args.seconds.as_secs_f64().ceil() as usize;
    let base = SHAPE.base(seed);
    let mut stream = Stream::new(SHAPE.batches(seed, 2, FRESH_PER_SECOND * secs, BATCH));
    let mut tail = Stream::new(SHAPE.batches(seed, 3, ROUNDS.fresh(ROUNDS.tail), BATCH));
    let mut delivered = Stream::new(SHAPE.batches(seed, 4, ROUNDS.fresh(ROUNDS.delivered), BATCH));

    let Some(mut g) = set_up(out, tr, &SHAPE, &base, |_, _, g| Some(g)) else {
        return;
    };

    // Main loop. In traced runs every other op also runs the batch-layer
    // probe; untraced ops give the baseline for the tracing overhead.
    let before = g.struct_snapshot();
    let mut commits = Samples::new();
    let mut tput = Throughput::default();
    let mut batch_layer = BatchLayer::default();
    let mut rounds = [Samples::new(), Samples::new()];
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < args.seconds {
        let Some(op) = stream.next() else { break };
        let traced = tr.enabled() && i % 2 == 1;
        let (r, round) = tr.span("ingest.op", |tr| {
            if traced {
                batch_layer.probe(tr, &op.batch);
            }
            let (r, d) = tr.span("core.apply", |_| apply(&mut g, &op));
            commits.push(us(d));
            tput.add(&op, d);
            r
        });
        out.op("core.apply", batch_ok(&r));
        rounds[traced as usize].push(us(round));
        i += 1;
    }
    let after = g.struct_snapshot();
    tput.report(out);
    core_counters(out, before, after, tput.edges());
    batch_layer.report(out);
    out.set_with_samples(
        "commit_p50_us",
        commits.quiet(0.5, LOOP_PARTS),
        commits.len(),
    );
    out.set_with_samples("commit_p99_us", commits.tail_quantile(0.99), commits.len());
    out.set(
        "trace.overhead_pct",
        overhead_pct(rounds[1].median(), rounds[0].median()),
    );

    // Standing queries, idle analytics and durability, in rounds on the
    // final graph.
    let dir = store_dir("ingest-store");
    let mut ps = PersistStats::default();
    let mut snaps = SnapshotStats::default();
    let (mut store, phases) = run_rounds(
        out,
        tr,
        adopt(&dir, g),
        ROUNDS,
        &mut delivered,
        &mut tail,
        &mut ps,
        &mut snaps,
    );
    let (bfs_ms, pr_ms) = phases.report(out, ROUNDS, &ps);
    snaps.probe(tr, store.graph(), 5);
    snaps.report(out);
    out.set("bfs_p50_ms", bfs_ms);
    out.set("pagerank_p50_ms", pr_ms);
    report_kernels_per_edge(out, bfs_ms, pr_ms, store.graph().num_edges());
    out.set("peak_rss_mb", peak_rss_mb());

    let ops: Vec<Op> = [stream.log(), &phases.applied].concat();
    check_final(out, store.graph(), &base, &ops);

    if tr.enabled() {
        executor_probes(out, tr, &SHAPE, seed);
        let probe = SHAPE.batches(seed, 5, 3, BATCH);
        let s = speedup_probe(out, tr, store.graph_mut(), &probe);
        out.set("executor.speedup_2t", s);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
