//! Crash matrix: sweep a hard crash over every Nth durable operation of a
//! bank + churn workload, in both maintenance modes, and assert the full
//! recovery oracle at every point (views equal recomputation, acked
//! commits survive, balances replay from the ledger, redo idempotent,
//! ghosts cleanable).

use std::sync::Arc;
use txview_common::row;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_engine::torture::{run_episode, run_sweep, TortureConfig};
use txview_engine::{
    AggSpec, Database, FaultParts, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};
use txview_storage::fault::FaultSchedule;

fn cfg(mode: MaintenanceMode) -> TortureConfig {
    TortureConfig { mode, txns: 12, seed: 7, ..Default::default() }
}

#[test]
fn escrow_mode_survives_every_crash_point() {
    let report = run_sweep(&cfg(MaintenanceMode::Escrow), 48).unwrap();
    assert!(report.horizon >= 40, "horizon {}", report.horizon);
    assert!(report.episodes >= 40, "episodes {}", report.episodes);
    assert_eq!(
        report.crash_events.len(),
        report.episodes,
        "every episode crashed at a distinct point"
    );
    assert!(report.violations.is_empty(), "oracle violations: {:#?}", report.violations);
    assert!(report.losers_undone > 0, "some crash points must catch durable losers");
}

#[test]
fn xlock_mode_survives_every_crash_point() {
    let report = run_sweep(&cfg(MaintenanceMode::XLock), 48).unwrap();
    assert!(report.episodes >= 40, "episodes {}", report.episodes);
    assert!(report.violations.is_empty(), "oracle violations: {:#?}", report.violations);
    assert!(report.losers_undone > 0);
}

#[test]
fn crash_points_inside_the_steal_window_are_covered() {
    // The probes tick the clock between "WAL flushed" and "data page
    // written" (buffer) and between append and sync (wal), so a stride-1
    // prefix sweep necessarily lands crashes on those seams too.
    for offset in 0..12 {
        let ep = run_episode(&cfg(MaintenanceMode::Escrow), &FaultSchedule::crash_at(offset))
            .unwrap();
        assert!(
            ep.violations.is_empty(),
            "crash at offset {offset}: {:#?}",
            ep.violations
        );
        assert!(ep.crash_event.is_some(), "crash at offset {offset} never fired");
    }
}

// ---- deferred-refresh crash window -----------------------------------
//
// `refresh_deferred_view` deletes every stored view row and rebuilds from
// base in ONE logged user transaction. A crash anywhere inside that window
// must roll the whole refresh back: after recovery the view is either the
// complete pre-refresh contents or the complete post-refresh contents —
// never empty, never a partial mix. (The old code committed the delete in
// a separate system transaction first, so a crash between the two left an
// empty-yet-"fresh" view.)

const DEFERRED_VIEW: &str = "sales_by_product";

/// Fault-injected db with a populated-but-stale deferred view: batch A is
/// refreshed into the view, batch B is pending. Checkpointed so every
/// episode starts from the same durable image.
fn build_deferred(seed_rows: i64) -> (Arc<Database>, FaultParts) {
    let parts = FaultParts::new();
    let db = parts.open(256).unwrap();
    parts.install_probes(&db);

    let sales = db
        .create_table(
            "sales",
            Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("product", ValueType::Int),
                    Column::new("amount", ValueType::Int),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
    db.create_indexed_view(ViewSpec {
        name: DEFERRED_VIEW.into(),
        source: ViewSource::Single { table: sales, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: true,
        eager_group_delete: false,
    })
    .unwrap();

    // Batch A → refresh: the view now holds real pre-refresh contents.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..seed_rows {
        db.insert(&mut txn, "sales", row![i, i % 4, 10i64]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    db.harness().refresh_deferred_view(DEFERRED_VIEW).unwrap();
    // Batch B: new products, so the refreshed view differs from the stale
    // one in both group count and sums.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..seed_rows {
        db.insert(&mut txn, "sales", row![seed_rows + i, 4 + i % 3, 5i64]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    db.checkpoint().unwrap();
    (db, parts)
}

/// One crash episode at `offset` events into the refresh. Returns whether
/// the scheduled crash fired (false = the refresh finished first).
fn deferred_refresh_episode(offset: u64) -> bool {
    let (db, parts) = build_deferred(12);
    let catalog = db.export_catalog();
    let stale = db.harness().dump_view(DEFERRED_VIEW).unwrap();
    assert!(!stale.is_empty(), "pre-refresh view must have contents");

    parts.clock.arm(&FaultSchedule::crash_at(offset));
    let refresh = db.harness().refresh_deferred_view(DEFERRED_VIEW);
    let fired = parts.clock.fired();
    drop(db);

    let (db, _recovery) = parts.reboot(&catalog, 256).unwrap();
    let _ = db.run_ghost_cleanup().unwrap();

    let stored = db.harness().dump_view(DEFERRED_VIEW).unwrap();
    assert!(
        !stored.is_empty(),
        "crash at offset {offset}: view empty after recovery (refresh not atomic; \
         refresh result was {refresh:?})"
    );
    // All-or-nothing: the recovered view is the stale contents (refresh
    // undone) or exactly matches recomputation from base (refresh
    // committed). A partial mix matches neither.
    let fresh_ok = db.harness().verify_view(DEFERRED_VIEW).is_ok();
    let stale_ok = stored == stale;
    assert!(
        fresh_ok || stale_ok,
        "crash at offset {offset}: recovered view is neither the pre-refresh \
         contents nor a full refresh (refresh result {refresh:?}, {} rows)",
        stored.len()
    );
    if refresh.is_ok() && !fired {
        assert!(fresh_ok, "acked refresh must survive the crash (offset {offset})");
    }
    fired
}

#[test]
fn deferred_refresh_crash_window_is_all_or_nothing() {
    // Sweep the entire refresh window: offset 0 (first durable event of
    // the refresh) until the schedule no longer fires inside it.
    let mut fired_any = false;
    let mut offset = 0u64;
    loop {
        let fired = deferred_refresh_episode(offset);
        fired_any |= fired;
        if !fired {
            break;
        }
        offset += 2;
        assert!(offset < 10_000, "refresh window unexpectedly unbounded");
    }
    assert!(fired_any, "sweep never landed a crash inside the refresh");
    assert!(offset >= 2, "refresh window too small to be swept");
}

// ---- cascading view-graph crash matrix --------------------------------
//
// With a derived-view chain stacked on the bank view (identity levels →
// global rollup), every crash point must recover a state where each chain
// level equals BOTH a recomputation from base and a one-level fold of its
// immediate parent, losing transactions' cascades never survive redo, and
// the terminal rollup still conserves total balance. The probe rows land
// crashes exactly *between* cascade levels of a commit-time flush — the
// seam where a naive implementation leaves a half-propagated chain.

use txview_engine::torture::{run_probe_sweep, CASCADE_PROBES};

#[test]
fn chained_views_survive_every_crash_point() {
    for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
        let cfg = TortureConfig { mode, txns: 12, seed: 7, chain_depth: 2, ..Default::default() };
        let report = run_sweep(&cfg, 32).unwrap();
        assert!(report.episodes >= 24, "episodes {}", report.episodes);
        assert!(
            report.violations.is_empty(),
            "chain oracle violations ({mode:?}): {:#?}",
            report.violations
        );
        assert!(report.losers_undone > 0, "no crash point caught a durable loser");
    }
}

#[test]
fn crashes_between_cascade_levels_recover_the_whole_chain() {
    // Depth 4 gives three level seams per flush; the probe sweep strides
    // crash points across every observed `view.cascade.level` offset.
    let cfg = TortureConfig { txns: 12, seed: 7, chain_depth: 4, ..Default::default() };
    let report = run_probe_sweep(&cfg, &CASCADE_PROBES, 8).unwrap();
    assert_eq!(report.per_probe.len(), 1);
    assert!(
        report.per_probe[0].1 >= 3,
        "only {} mid-cascade crash episodes — probe coverage collapsed",
        report.per_probe[0].1
    );
    assert!(
        report.violations.is_empty(),
        "mid-cascade crash violations: {:#?}",
        report.violations
    );
}

#[test]
fn sweep_is_reproducible_for_a_fixed_seed() {
    let a = run_sweep(&cfg(MaintenanceMode::Escrow), 10).unwrap();
    let b = run_sweep(&cfg(MaintenanceMode::Escrow), 10).unwrap();
    assert_eq!(a.horizon, b.horizon);
    assert_eq!(a.crash_events, b.crash_events);
    assert_eq!(a.acked_commits, b.acked_commits);
    assert_eq!(a.losers_undone, b.losers_undone);
    assert_eq!(a.violations.len(), b.violations.len());
}

// ---- replication crash matrix ----------------------------------------
//
// The WAL-shipping layer gets the same treatment as the single-node
// engine: sweep hard crashes over follower replay and over the leader
// while the follower is only partially caught up, and assert the
// replication oracles (reopen recovers to the follower's own durable
// prefix and never beyond; promotion recovers exactly the shipped durable
// prefix; every sync-acked commit survives) at every point.

use txview_engine::repl::{
    measure_follower_horizon, run_follower_crash_episode, run_leader_crash_episode,
    ChannelFaults, ReplConfig, ShipMode,
};
use txview_engine::torture::measure_horizon;

fn repl_cfg() -> TortureConfig {
    TortureConfig { txns: 12, seed: 7, ..Default::default() }
}

#[test]
fn follower_crash_mid_replay_recovers_to_its_durable_prefix() {
    // The episode's built-in oracle checks that after the crash the
    // follower's reopened log is a byte prefix of the leader's (never
    // beyond what was durably shipped), that redo-only reopen lands on the
    // reference replay fingerprint for that prefix, and that catch-up then
    // reconverges byte-identically.
    let cfg = repl_cfg();
    let rcfg = ReplConfig::default();
    let horizon = measure_follower_horizon(&cfg, &rcfg).unwrap();
    assert!(horizon > 4, "follower horizon {horizon} too small to sweep");
    for offset in [1, horizon / 4, horizon / 2, horizon - 1] {
        let ep = run_follower_crash_episode(&cfg, &rcfg, offset).unwrap();
        assert!(
            ep.violations.is_empty(),
            "follower crash at offset {offset}: {:#?}",
            ep.violations
        );
        assert!(ep.crash_event.is_some(), "follower crash at offset {offset} never fired");
    }
}

#[test]
fn follower_replays_cascaded_chains_byte_identically() {
    // Cascade refreshes are ordinary redo records, so a follower replaying
    // the shipped WAL must converge on the exact chain bytes — the episode
    // oracle compares full fingerprints (chain views included) against a
    // reference replay of the same durable prefix, and crash points land
    // mid-replay while chain records are in flight.
    let cfg = TortureConfig { txns: 12, seed: 7, chain_depth: 2, ..Default::default() };
    let rcfg = ReplConfig::default();
    let horizon = measure_follower_horizon(&cfg, &rcfg).unwrap();
    assert!(horizon > 4, "follower horizon {horizon} too small to sweep");
    for offset in [1, horizon / 3, horizon / 2, horizon - 1] {
        let ep = run_follower_crash_episode(&cfg, &rcfg, offset).unwrap();
        assert!(
            ep.violations.is_empty(),
            "chained follower crash at offset {offset}: {:#?}",
            ep.violations
        );
        assert!(ep.crash_event.is_some(), "follower crash at offset {offset} never fired");
    }
}

// ---- MIN/MAX recompute crash matrix -------------------------------------
//
// The recompute-on-delete fallback rewrites a MIN/MAX view row from a base
// rescan under the deleter's X lock. A probe pins the seam between the
// recomputer's lock grant and the view-row rewrite; crashes there must
// recover a view equal to recomputation.

use txview_engine::torture::MINMAX_PROBES;

fn minmax_cfg() -> TortureConfig {
    TortureConfig { txns: 16, seed: 7, minmax: true, ..Default::default() }
}

#[test]
fn minmax_views_survive_every_crash_point() {
    let report = run_sweep(&minmax_cfg(), 32).unwrap();
    assert!(report.episodes >= 24, "episodes {}", report.episodes);
    assert!(
        report.violations.is_empty(),
        "minmax oracle violations: {:#?}",
        report.violations
    );
    assert!(report.losers_undone > 0, "no crash point caught a durable loser");
}

#[test]
fn crashes_in_the_recompute_window_recover() {
    let report = run_probe_sweep(&minmax_cfg(), &MINMAX_PROBES, 8).unwrap();
    assert_eq!(report.per_probe.len(), 1);
    for &(name, ran) in &report.per_probe {
        assert!(ran >= 3, "only {ran} crash episodes landed on probe {name}");
    }
    assert!(
        report.violations.is_empty(),
        "recompute-window crash violations: {:#?}",
        report.violations
    );
}

#[test]
fn follower_replays_minmax_redo_byte_identically() {
    // Recompute rewrites are ordinary redo records: a follower crashing
    // mid-replay must still reopen onto its durable prefix and reconverge
    // to the leader's exact bytes (the episode oracle compares full
    // fingerprints).
    let cfg = minmax_cfg();
    let rcfg = ReplConfig::default();
    let horizon = measure_follower_horizon(&cfg, &rcfg).unwrap();
    assert!(horizon > 4, "follower horizon {horizon} too small to sweep");
    for offset in [1, horizon / 3, horizon / 2, horizon - 1] {
        let ep = run_follower_crash_episode(&cfg, &rcfg, offset).unwrap();
        assert!(
            ep.violations.is_empty(),
            "minmax follower crash at offset {offset}: {:#?}",
            ep.violations
        );
        assert!(ep.crash_event.is_some(), "follower crash at offset {offset} never fired");
    }
}

#[test]
fn promotion_after_partial_catch_up_serves_exactly_the_shipped_prefix() {
    // Async shipping plus duplicate/reorder channel faults keeps the
    // follower genuinely behind the leader's durable tail, so these crash
    // points kill the leader mid-catch-up. The episode oracle requires the
    // promoted follower to equal a reference recovery over exactly the
    // shipped durable prefix — nothing invented past it — while still
    // serving every commit whose log records made it into that prefix.
    let cfg = repl_cfg();
    let rcfg = ReplConfig {
        ship_mode: ShipMode::Async,
        faults: ChannelFaults { dup_p: 0.2, reorder_p: 0.2, ..ChannelFaults::default() },
        ..ReplConfig::default()
    };
    let horizon = measure_horizon(&cfg).unwrap();
    assert!(horizon > 8, "leader horizon {horizon} too small to sweep");
    for offset in [0, horizon / 5, horizon / 3, horizon / 2, horizon - 2] {
        let ep = run_leader_crash_episode(&cfg, &rcfg, offset, false).unwrap();
        assert!(
            ep.violations.is_empty(),
            "leader crash at offset {offset}: {:#?}",
            ep.violations
        );
        assert!(ep.crash_event.is_some(), "leader crash at offset {offset} never fired");
    }
}
