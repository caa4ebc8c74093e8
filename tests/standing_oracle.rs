//! Differential oracle suite for the standing-query subscription layer.
//!
//! Under four seeds, a symmetric insert/delete batch stream is driven
//! through a [`SubscriptionHub`] carrying all four query kinds, and after
//! **every** batch each subscription's materialized result is asserted
//! equal to the from-scratch kernel (`StandingQuery::oracle`: fresh BFS,
//! fresh label propagation, window rescans) on the same graph state. The
//! replay invariant is also checked: applying every polled [`ResultDelta`]
//! to an empty map reconstructs the final result exactly.
//!
//! With `--features failpoints`, the suite additionally covers the
//! `subscription_deliver` kill path (one subscription's maintainer panics
//! mid-delivery: it quarantines, the survivors stay oracle-equal, restart
//! re-converges) and the lossy-commit path (`apply_run` faults quarantine
//! engine vertices mid-batch: maintainers rebuild from the delivered
//! snapshot and stay oracle-equal throughout, including across repairs).

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use rand::{rngs::SmallRng, Rng, SeedableRng};

use lsgraph::queries::{BatchWindow, StandingQuery, SubscriptionHandle, SubscriptionHub};
use lsgraph::{BatchKind, Config, DynamicGraph, Edge, LsGraph};

const SEEDS: [u64; 4] = [11, 23, 47, 91];
const N: usize = 96;
const ROUNDS: usize = 24;
const WINDOW: usize = 3;

/// Failpoint configuration is process-global; with `--features failpoints`
/// every test in this binary serializes here so an armed site can never
/// leak into a concurrently running case.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The four standing queries under test (two traversal-backed, two
/// windowed), sharing source 0.
fn queries() -> [StandingQuery; 4] {
    [
        StandingQuery::KHop { src: 0, k: 2 },
        StandingQuery::WindowedEdgeCount { window: WINDOW },
        StandingQuery::WindowedTriangleCount { window: WINDOW },
        StandingQuery::ComponentMembership { src: 0 },
    ]
}

/// One seeded symmetric batch: inserts ~70% of the time, 1..32 pairs over
/// a small id space so deletes hit real edges and components split/merge.
fn gen_batch(rng: &mut SmallRng) -> (bool, Vec<Edge>) {
    let is_insert = rng.gen_bool(0.7);
    let len = rng.gen_range(1usize..32);
    let batch = (0..len)
        .flat_map(|_| {
            let a = rng.gen_range(0..N as u32);
            let b = rng.gen_range(0..N as u32);
            [Edge::new(a, b), Edge::new(b, a)]
        })
        .collect();
    (is_insert, batch)
}

/// Applies one generated batch to the engine and the mirror window,
/// returning its kind.
fn apply(g: &mut LsGraph, window: &mut BatchWindow, is_insert: bool, batch: &[Edge]) -> BatchKind {
    let kind = if is_insert {
        g.insert_batch(batch);
        BatchKind::Insert
    } else {
        g.delete_batch(batch);
        BatchKind::Delete
    };
    window.push(g.batch_seq(), kind, batch);
    kind
}

/// Asserts every subscription equals its from-scratch oracle on the
/// current graph state.
fn assert_oracle_equal(
    g: &LsGraph,
    window: &BatchWindow,
    subs: &[SubscriptionHandle],
    qs: &[StandingQuery],
    ctx: &str,
) {
    for (sub, q) in subs.iter().zip(qs) {
        assert_eq!(sub.result(), q.oracle(g, window), "{ctx}: {q:?}");
    }
}

#[test]
fn subscriptions_match_from_scratch_kernels_every_batch() {
    let _guard = lock();
    for seed in SEEDS {
        let mut g = LsGraph::with_config(N, Config::default());
        let hub = SubscriptionHub::attach(&mut g);
        let qs = queries();
        let subs: Vec<_> = qs.iter().map(|&q| hub.subscribe(&g, q)).collect();
        let mut window = BatchWindow::new(WINDOW);
        let mut rng = SmallRng::seed_from_u64(seed);
        for t in 0..ROUNDS {
            let (is_insert, batch) = gen_batch(&mut rng);
            apply(&mut g, &mut window, is_insert, &batch);
            hub.quiesce();
            assert_oracle_equal(&g, &window, &subs, &qs, &format!("seed {seed} batch {t}"));
        }
        // Replay invariant: the polled delta stream (bootstrap + one per
        // batch) reconstructs the final result from an empty map.
        for (sub, q) in subs.iter().zip(&qs) {
            let mut replay = BTreeMap::new();
            let deltas = sub.poll();
            assert_eq!(deltas.len(), 1 + ROUNDS, "seed {seed}: {q:?} delta count");
            for d in &deltas {
                d.apply_to(&mut replay);
            }
            assert_eq!(replay, sub.result(), "seed {seed}: {q:?} replay");
        }
        hub.shutdown();
    }
}

#[test]
fn late_subscription_skips_already_reflected_batches() {
    // Registering mid-stream must not double-apply batches that are queued
    // but already reflected in the registration state.
    let _guard = lock();
    for seed in SEEDS {
        let mut g = LsGraph::with_config(N, Config::default());
        let hub = SubscriptionHub::attach(&mut g);
        // An early subscriber keeps the hook live so batches queue up.
        let early = hub.subscribe(&g, StandingQuery::KHop { src: 0, k: 2 });
        let mut window = BatchWindow::new(WINDOW);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
        for _ in 0..4 {
            let (is_insert, batch) = gen_batch(&mut rng);
            apply(&mut g, &mut window, is_insert, &batch);
        }
        hub.pause();
        let (is_insert, batch) = gen_batch(&mut rng);
        apply(&mut g, &mut window, is_insert, &batch);
        // Subscribed while that batch is still queued: its effect is in the
        // registration snapshot, so delivery must skip it.
        let late = hub.subscribe(&g, StandingQuery::ComponentMembership { src: 0 });
        hub.resume();
        hub.quiesce();
        let q = StandingQuery::ComponentMembership { src: 0 };
        assert_eq!(late.result(), q.oracle(&g, &window), "seed {seed}");
        let deltas = late.poll();
        assert_eq!(
            deltas.len(),
            1,
            "seed {seed}: bootstrap only, no double-apply"
        );
        drop(early);
        hub.shutdown();
    }
}

#[cfg(feature = "failpoints")]
mod kill_path {
    use super::*;
    use lsgraph::Graph;
    use lsgraph_api::failpoints::{self, FailMode};
    use std::sync::Once;

    /// Suppresses the default panic-hook spew for intentional failpoint
    /// panics (they are caught by the delivery worker's `catch_unwind`).
    fn quiet_failpoint_panics() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let is_failpoint = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("failpoint"))
                    || info
                        .payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.contains("failpoint"));
                if !is_failpoint {
                    prev(info);
                }
            }));
        });
    }

    /// `subscription_deliver` is evaluated once per live subscription per
    /// batch, in registration order, so `Nth(k)` deterministically kills
    /// the k-th registered subscription on the next delivered batch.
    #[test]
    fn killed_subscription_quarantines_survivors_stay_oracle_equal() {
        let _guard = lock();
        quiet_failpoint_panics();
        for seed in SEEDS {
            failpoints::reset();
            let mut g = LsGraph::with_config(N, Config::default());
            let hub = SubscriptionHub::attach(&mut g);
            let qs = queries();
            let subs: Vec<_> = qs.iter().map(|&q| hub.subscribe(&g, q)).collect();
            let mut window = BatchWindow::new(WINDOW);
            let mut rng = SmallRng::seed_from_u64(seed);

            // Warm up, then kill the first registered subscription (KHop)
            // on the next delivered batch.
            for _ in 0..4 {
                let (is_insert, batch) = gen_batch(&mut rng);
                apply(&mut g, &mut window, is_insert, &batch);
            }
            hub.quiesce();
            let frozen = subs[0].result();
            hub.pause();
            failpoints::configure("subscription_deliver", FailMode::Nth(1));
            let (is_insert, batch) = gen_batch(&mut rng);
            apply(&mut g, &mut window, is_insert, &batch);
            hub.resume();
            hub.quiesce();
            assert_eq!(failpoints::fired("subscription_deliver"), 1);
            failpoints::configure("subscription_deliver", FailMode::Off);

            assert!(subs[0].is_quarantined(), "seed {seed}: KHop killed");
            assert!(
                subs[1..].iter().all(|s| !s.is_quarantined()),
                "seed {seed}: blast radius is one subscription"
            );
            let panics = g.struct_stats().unwrap().subscription_panics;
            assert_eq!(panics, 1, "seed {seed}");

            // Survivors keep tracking the oracle across further batches;
            // the quarantined result stays frozen at its pre-kill value.
            for t in 0..6 {
                let (is_insert, batch) = gen_batch(&mut rng);
                apply(&mut g, &mut window, is_insert, &batch);
                hub.quiesce();
                assert_oracle_equal(
                    &g,
                    &window,
                    &subs[1..],
                    &qs[1..],
                    &format!("seed {seed} post-kill batch {t}"),
                );
                assert_eq!(subs[0].result(), frozen, "seed {seed}: frozen while dead");
            }

            // Restart re-materializes from the current state and emits one
            // catch-up delta; from then on it tracks the oracle again.
            assert!(subs[0].restart(&g), "seed {seed}: restart accepted");
            assert!(!subs[0].is_quarantined());
            assert_eq!(subs[0].result(), qs[0].oracle(&g, &window), "seed {seed}");
            for t in 0..4 {
                let (is_insert, batch) = gen_batch(&mut rng);
                apply(&mut g, &mut window, is_insert, &batch);
                hub.quiesce();
                assert_oracle_equal(
                    &g,
                    &window,
                    &subs,
                    &qs,
                    &format!("seed {seed} post-restart batch {t}"),
                );
            }
            // Replay still reconstructs: the catch-up delta re-bases the
            // stream over the kill gap.
            let mut replay = BTreeMap::new();
            for d in subs[0].poll() {
                d.apply_to(&mut replay);
            }
            assert_eq!(replay, subs[0].result(), "seed {seed}: replay across kill");
            hub.shutdown();
        }
        failpoints::reset();
    }

    /// A restarted *windowed* subscription begins with an empty window: its
    /// oracle is evaluated against a fresh mirror window from the restart
    /// point onward.
    #[test]
    fn windowed_restart_begins_with_empty_window() {
        let _guard = lock();
        quiet_failpoint_panics();
        for seed in SEEDS {
            failpoints::reset();
            let mut g = LsGraph::with_config(N, Config::default());
            let hub = SubscriptionHub::attach(&mut g);
            let q = StandingQuery::WindowedEdgeCount { window: WINDOW };
            let sub = hub.subscribe(&g, q);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5A5A);
            let mut window = BatchWindow::new(WINDOW);
            for _ in 0..4 {
                let (is_insert, batch) = gen_batch(&mut rng);
                apply(&mut g, &mut window, is_insert, &batch);
            }
            hub.pause();
            failpoints::configure("subscription_deliver", FailMode::Nth(1));
            let (is_insert, batch) = gen_batch(&mut rng);
            apply(&mut g, &mut window, is_insert, &batch);
            hub.resume();
            hub.quiesce();
            failpoints::configure("subscription_deliver", FailMode::Off);
            assert!(sub.is_quarantined(), "seed {seed}");

            assert!(sub.restart(&g));
            // Restart drops window history: the mirror starts empty too.
            let mut window = BatchWindow::new(WINDOW);
            assert_eq!(
                sub.result(),
                q.oracle(&g, &window),
                "seed {seed}: empty window"
            );
            for t in 0..5 {
                let (is_insert, batch) = gen_batch(&mut rng);
                apply(&mut g, &mut window, is_insert, &batch);
                hub.quiesce();
                assert_eq!(
                    sub.result(),
                    q.oracle(&g, &window),
                    "seed {seed} post-restart batch {t}"
                );
            }
            hub.shutdown();
        }
        failpoints::reset();
    }

    /// Lossy commits (engine vertices quarantined mid-batch by `apply_run`
    /// faults) switch delivery to a full refresh from the snapshot, so
    /// subscriptions stay correct while the engine degrades and recovers.
    ///
    /// Protocol per round: one armed batch (may quarantine vertices), then
    /// — disarmed — `repair_vertex` restores the intended adjacency and
    /// `SubscriptionHub::refresh` absorbs that out-of-band repair (which no
    /// hook announces), then a symmetric delete batch is delivered on the
    /// repaired graph before the oracle comparison.
    #[test]
    fn lossy_commits_keep_subscriptions_oracle_equal() {
        let _guard = lock();
        quiet_failpoint_panics();
        for seed in SEEDS {
            failpoints::reset();
            let mut g = LsGraph::with_config(N, Config::default());
            // Intended adjacency: every batch fully applied, no faults.
            let mut shadow: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); N];
            let hub = SubscriptionHub::attach(&mut g);
            let qs = queries();
            let subs: Vec<_> = qs.iter().map(|&q| hub.subscribe(&g, q)).collect();
            let mut window = BatchWindow::new(WINDOW);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut saw_lossy = false;
            for t in 0..12u64 {
                failpoints::configure(
                    "apply_run",
                    FailMode::Probability {
                        p: 0.08,
                        seed: seed ^ 0xBEEF ^ t,
                    },
                );
                let (is_insert, batch) = gen_batch(&mut rng);
                for e in &batch {
                    if is_insert {
                        shadow[e.src as usize].insert(e.dst);
                    } else {
                        shadow[e.src as usize].remove(&e.dst);
                    }
                }
                apply(&mut g, &mut window, is_insert, &batch);
                // Disarm before repairing: the repair must not be faulted.
                failpoints::configure("apply_run", FailMode::Off);
                let quarantined: Vec<u32> =
                    (0..N as u32).filter(|&v| g.is_quarantined(v)).collect();
                saw_lossy |= !quarantined.is_empty();
                for v in quarantined {
                    let ns: Vec<u32> = shadow[v as usize].iter().copied().collect();
                    g.repair_vertex(v, &ns).unwrap();
                }
                hub.refresh(&g);
                // A symmetric delete on the repaired graph: KHop and
                // Membership absorb it incrementally (or recompute when the
                // safety check fails); the windowed results are exact at
                // every delivery.
                let a = rng.gen_range(0..N as u32);
                let b = rng.gen_range(0..N as u32);
                let heal = [Edge::new(a, b), Edge::new(b, a)];
                for e in &heal {
                    shadow[e.src as usize].remove(&e.dst);
                }
                apply(&mut g, &mut window, false, &heal);
                hub.quiesce();
                assert_oracle_equal(
                    &g,
                    &window,
                    &subs,
                    &qs,
                    &format!("seed {seed} lossy round {t}"),
                );
                // After repair + reconvergence the engine holds exactly the
                // intended adjacency.
                for v in 0..N as u32 {
                    assert_eq!(
                        g.neighbors(v),
                        shadow[v as usize].iter().copied().collect::<Vec<_>>(),
                        "seed {seed} round {t}: vertex {v} after repair"
                    );
                }
            }
            assert_eq!(g.struct_stats().unwrap().subscription_panics, 0);
            if saw_lossy {
                assert!(
                    g.struct_stats().unwrap().vertices_repaired > 0,
                    "seed {seed}: repairs recorded"
                );
            }
            hub.shutdown();
        }
        failpoints::reset();
    }
}
