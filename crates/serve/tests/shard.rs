//! Sharded-service behaviour: cross-cell work stealing against the
//! reference oracle, per-tenant FIFO order under stealing, QoS shedding,
//! per-tenant budgets, the non-blocking completion frontend under
//! shutdown, and callback panics not wedging a scheduler cell.

// Outside the Miri subset: drives a live Service (OS worker threads).
#![cfg(not(miri))]

use adsala::runtime::Adsala;
use adsala_blas3::{Blas3Backend, Matrix, NativeBackend, OwnedOp, ReferenceBackend, Transpose};
use adsala_serve::{
    AnyOp, CompletionQueue, QosClass, RejectReason, ServeConfig, ServeError, Service, TenantConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn modelless_runtime() -> Adsala<NativeBackend> {
    Adsala::new(Vec::new(), 2)
}

fn mat(m: usize, n: usize, seed: usize) -> Matrix<f64> {
    Matrix::from_fn(m, n, |i, j| {
        ((i * 31 + j * 17 + seed * 7) % 13) as f64 / 13.0 - 0.4
    })
}

fn gemm(m: usize, seed: usize) -> AnyOp {
    AnyOp::from(OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::Yes,
        alpha: 1.0 + seed as f64 / 16.0,
        a: mat(m, m, seed),
        b: mat(m, m, seed + 1),
        beta: 0.5,
        c: mat(m, m, seed + 2),
    })
}

fn oracle(op: &AnyOp) -> AnyOp {
    let mut copy = op.clone();
    match &mut copy {
        AnyOp::F32(o) => ReferenceBackend.execute(1, o.as_op()).unwrap(),
        AnyOp::F64(o) => ReferenceBackend.execute(1, o.as_op()).unwrap(),
    }
    copy
}

fn max_diff(a: &AnyOp, b: &AnyOp) -> f64 {
    match (a, b) {
        (AnyOp::F64(x), AnyOp::F64(y)) => x.output().max_abs_diff(y.output()),
        _ => panic!("precision mismatch"),
    }
}

/// One skewed round on a paused 3-cell service. Per-tenant FIFO keeps at
/// most one batch per tenant in the air, so a *lone* tenant's queue is
/// never stealable while its own cell serves it — skew that thieves can
/// fix means a cell hosting several backlogged tenants. This arranges
/// exactly that deterministically: heavy tenant A homes to cell 0 (all
/// backlogs zero), one large pin job each parks on cells 1 and 2, and
/// heavy tenant B then also homes to cell 0 (now the least-backlogged).
/// Once the pins drain, cells 1 and 2 go idle and steal from cell 0.
/// Returns the number of batches stolen during the round.
fn skewed_round(service: &Service<NativeBackend>, heavy_jobs: usize) -> u64 {
    let stolen_before: u64 = service
        .stats()
        .shards
        .iter()
        .map(|s| s.stolen_batches)
        .sum();

    let heavy_a = service.client_for(service.tenant(TenantConfig::default()));
    let heavy_b = service.client_for(service.tenant(TenantConfig::default()));
    let pin_1 = service.client_for(service.tenant(TenantConfig::default()));
    let pin_2 = service.client_for(service.tenant(TenantConfig::default()));

    service.pause();
    let streams: Vec<(u64, Vec<AnyOp>)> = vec![
        (0, (0..heavy_jobs).map(|i| gemm(96, i)).collect()),
        (1, (0..heavy_jobs).map(|i| gemm(96, 100 + i)).collect()),
    ];
    let want: Vec<Vec<AnyOp>> = streams
        .iter()
        .map(|(_, ops)| ops.iter().map(oracle).collect())
        .collect();
    let completions = CompletionQueue::new();
    // Tenant A fills cell 0, the pins claim cells 1 and 2 (one 256^3 job
    // outweighs A's whole 96^3 stream), then tenant B joins cell 0.
    for (i, op) in streams[0].1.iter().enumerate() {
        let t = heavy_a.submit(op.clone()).expect("within budget");
        t.forward_to(&completions, i as u64);
    }
    let pins = vec![
        pin_1.submit(gemm(256, 40)).expect("within budget"),
        pin_2.submit(gemm(256, 41)).expect("within budget"),
    ];
    for (i, op) in streams[1].1.iter().enumerate() {
        let t = heavy_b.submit(op.clone()).expect("within budget");
        t.forward_to(&completions, 1000 + i as u64);
    }
    service.resume();

    for t in pins {
        t.wait().unwrap().result.unwrap();
    }
    // Both heavy tenants' completions arrive in per-tenant submission
    // order even when idle cells steal batches mid-stream, and every
    // result matches the serial reference oracle.
    let mut tokens: Vec<Vec<u64>> = vec![Vec::new(), Vec::new()];
    let mut shards_seen = std::collections::BTreeSet::new();
    for _ in 0..2 * heavy_jobs {
        let (token, outcome) = completions
            .recv_timeout(Duration::from_secs(30))
            .expect("service alive");
        let (tenant, idx) = ((token / 1000) as usize, (token % 1000) as usize);
        let done = outcome.expect("job served");
        assert!(done.result.is_ok());
        shards_seen.insert(done.stats.shard);
        assert!(
            max_diff(&done.op, &want[tenant][idx]) < 1e-9,
            "stolen execution diverged from the reference oracle"
        );
        tokens[tenant].push(idx as u64);
    }
    let sorted: Vec<u64> = (0..heavy_jobs as u64).collect();
    for (tenant, seen) in tokens.iter().enumerate() {
        assert_eq!(
            seen, &sorted,
            "tenant {tenant}: completion order must follow submission order"
        );
    }

    let stolen_after: u64 = service
        .stats()
        .shards
        .iter()
        .map(|s| s.stolen_batches)
        .sum();
    let stolen = stolen_after - stolen_before;
    if stolen > 0 {
        assert!(
            shards_seen.len() > 1,
            "a stolen batch must execute on a cell other than the home cell"
        );
    }
    stolen
}

#[test]
fn cross_shard_steal_preserves_oracle_results_and_tenant_fifo_order() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 3,
            // Singleton batches: completion order per tenant is then the
            // strictest possible FIFO claim, steal or no steal.
            max_batch: 1,
            backlog_budget_secs: 1e9,
            queue_capacity: 4096,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    assert_eq!(service.shards(), 3);

    // Stealing is a race between the heavy cell draining and the idle
    // cells' poll tick; retry rounds until a steal is observed. Order and
    // oracle equivalence are asserted on every round regardless.
    let mut stolen = 0;
    for _ in 0..20 {
        stolen += skewed_round(&service, 8);
        if stolen > 0 {
            break;
        }
    }
    assert!(
        stolen > 0,
        "idle cells never stole from the backlogged cell across 20 skewed rounds"
    );
    let stats = service.stats();
    let donated: u64 = stats.shards.iter().map(|s| s.donated_batches).sum();
    assert_eq!(stolen, donated, "every steal has a matching donation");
}

#[test]
fn disabling_steal_pins_every_job_to_its_home_cell() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 2,
            steal: false,
            start_paused: true,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let client = service.client();
    let tickets: Vec<_> = (0..6)
        .map(|i| client.submit(gemm(24, i)).unwrap())
        .collect();
    service.resume();
    let mut shards = std::collections::BTreeSet::new();
    for t in tickets {
        shards.insert(t.wait().unwrap().stats.shard);
    }
    assert_eq!(shards.len(), 1, "steal disabled: one tenant, one cell");
    let stats = service.stats();
    assert!(stats.shards.iter().all(|s| s.stolen_batches == 0));
}

#[test]
fn qos_shedding_evicts_the_cheapest_lower_class_job_for_interactive_work() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 1,
            start_paused: true,
            backlog_budget_secs: 9e-4,
            fallback_gflops: 1.0,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let batch_a = service.client_for(service.tenant(TenantConfig {
        qos: QosClass::Batch,
        ..Default::default()
    }));
    let batch_b = service.client_for(service.tenant(TenantConfig {
        qos: QosClass::Batch,
        ..Default::default()
    }));
    let vip = service.client_for(service.tenant(TenantConfig {
        qos: QosClass::Interactive,
        ..Default::default()
    }));

    // 2*64^3/1e9 = 5.24e-4s and 2*48^3/1e9 = 2.21e-4s at 1 Gflop/s.
    let expensive = batch_a.submit(gemm(64, 0)).expect("within budget");
    let cheap = batch_b.submit(gemm(48, 1)).expect("within budget");

    // Infeasible even with full shedding: rejected up front, nothing shed.
    let huge = vip.submit(gemm(128, 2)).unwrap_err();
    assert!(matches!(huge.reason, RejectReason::BudgetExceeded { .. }));
    assert_eq!(service.pending_jobs(), 2, "infeasible reject must not shed");

    // Feasible after shedding: the cheapest Batch-class tail goes first.
    let served = vip.submit(gemm(48, 3)).expect("sheds to make room");
    assert_eq!(
        cheap.wait().unwrap_err(),
        ServeError::Shed,
        "the cheaper batch job is the one shed"
    );

    service.resume();
    let vip_done = served.wait().unwrap();
    assert!(vip_done.result.is_ok());
    let batch_done = expensive.wait().unwrap();
    assert!(batch_done.result.is_ok());

    // Strict lane priority: the interactive job ran before the batch job
    // that was queued first.
    let order: Vec<u64> = service
        .telemetry_snapshot()
        .iter()
        .map(|r| r.tenant.0)
        .collect();
    assert_eq!(order.first(), Some(&vip.tenant_id().0));

    let stats = service.stats();
    assert_eq!(stats.shards[0].shed_jobs, 1);
}

#[test]
fn tenant_backlog_budgets_are_enforced_independently() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 1,
            start_paused: true,
            fallback_gflops: 1.0,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let capped = service.client_for(service.tenant(TenantConfig {
        backlog_budget_secs: 6e-4,
        ..Default::default()
    }));
    let free = service.client();

    let first = capped.submit(gemm(64, 0)).expect("first fits the budget");
    let rejected = capped.submit(gemm(64, 1)).unwrap_err();
    match rejected.reason {
        RejectReason::TenantBudgetExceeded {
            tenant,
            budget_secs,
            ..
        } => {
            assert_eq!(tenant, capped.tenant_id());
            assert_eq!(budget_secs, 6e-4);
        }
        other => panic!("expected TenantBudgetExceeded, got {other:?}"),
    }
    // The global budget is untouched: another tenant still gets in.
    let other = free.submit(gemm(64, 2)).expect("global budget has room");

    service.resume();
    first.wait().unwrap();
    let done = other.wait().unwrap();
    assert!(done.result.is_ok());

    // Settled backlog frees the tenant's budget again.
    let retry = capped
        .submit(gemm(64, 3))
        .expect("budget freed after serve");
    retry.wait().unwrap();
}

#[test]
fn callbacks_and_queues_observe_shutdown_with_a_typed_error() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 2,
            start_paused: true,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let client = service.client();

    let (tx, rx) = std::sync::mpsc::channel();
    client
        .submit(gemm(16, 0))
        .unwrap()
        .on_complete(move |outcome| {
            tx.send(outcome.map(|_| ())).unwrap();
        });
    let completions = CompletionQueue::new();
    client
        .submit(gemm(16, 1))
        .unwrap()
        .forward_to(&completions, 7);

    // Paused shutdown drains both queued jobs; both frontends must see it.
    drop(service);
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        Err(ServeError::ServiceStopped)
    );
    let (token, outcome) = completions.try_recv().expect("settled during shutdown");
    assert_eq!(token, 7);
    assert_eq!(outcome.unwrap_err(), ServeError::ServiceStopped);
}

#[test]
fn a_panicking_callback_does_not_wedge_its_scheduler_cell() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 1,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let client = service.client();

    let fired = Arc::new(AtomicU64::new(0));
    let fired_cb = Arc::clone(&fired);
    client.submit(gemm(16, 0)).unwrap().on_complete(move |_| {
        fired_cb.fetch_add(1, Ordering::SeqCst);
        panic!("completion callback blew up");
    });

    // The cell that caught the panic keeps serving.
    for i in 1..4 {
        let done = client.submit(gemm(16, i)).unwrap().wait().unwrap();
        assert!(done.result.is_ok());
    }
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    let stats = service.stats();
    assert_eq!(stats.shards[0].callback_panics, 1);
    assert_eq!(stats.shards[0].served, 4);
}

#[test]
fn shard_count_resolution_prefers_explicit_config_over_the_env_override() {
    // Explicit shard counts win even when ADSALA_TEST_SHARDS is set (the
    // CI matrix must not rewrite tests that pin a count).
    std::env::set_var("ADSALA_TEST_SHARDS", "2");
    let pinned = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 5,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    assert_eq!(pinned.shards(), 5);
    assert_eq!(pinned.stats().shards.len(), 5);

    let from_env = Service::new(modelless_runtime()).expect("spawn scheduler cells");
    assert_eq!(from_env.shards(), 2);
    std::env::remove_var("ADSALA_TEST_SHARDS");
}
