//! Integration tests spanning the whole workspace through the `mvtl` facade:
//! registry-built engines, serializability checking and the figure harness
//! working together.

use mvtl::common::{EngineExt, Key, ProcessId, TxError};
use mvtl::verify::{check_serializable, replay_concurrent};
use mvtl::workload::figures::{fig1_concurrency_local, fig3_write_fraction, shapes};
use mvtl::workload::{run_closed_loop, RunnerOptions, Scale, WorkloadSpec};
use std::time::Duration;

#[test]
fn facade_quickstart_roundtrip() -> Result<(), TxError> {
    let engine =
        mvtl::registry::build_for::<String>("mvtil-early?delta=1000").expect("registry spec");
    let mut tx = engine.begin(ProcessId(0));
    tx.write(Key::from_name("k"), "v".to_string())?;
    tx.commit()?;
    let mut tx = engine.begin(ProcessId(1));
    assert_eq!(tx.read(Key::from_name("k"))?, Some("v".to_string()));
    tx.commit()?;
    Ok(())
}

#[test]
fn closed_loop_runner_histories_are_serializable() {
    // Drive an MVTL engine and the MVTO+ baseline through the workload runner,
    // then independently re-execute randomized transactions through the
    // verifier's concurrent replay and check the MVSG.
    let engine = mvtl::registry::build("mvtl-ghostbuster?timeout_ms=5").expect("registry spec");
    let options = RunnerOptions {
        clients: 4,
        duration: Duration::from_millis(100),
        spec: WorkloadSpec::new(6, 0.4, 128),
        seed: 3,
    };
    let metrics = run_closed_loop(engine.as_ref(), &options, |v| v);
    assert!(metrics.committed > 0);

    let history = replay_concurrent(engine.as_ref(), 4, 50, |thread, iter, txn| {
        let key = Key(((thread * 31 + iter * 7) % 64) as u64);
        let other = Key(((thread * 13 + iter * 3) % 64) as u64);
        let v = txn.read(key)?.unwrap_or(0);
        txn.write(other, v + 1)?;
        Ok(())
    });
    check_serializable(&history).expect("facade-driven history must be serializable");

    let mvto = mvtl::registry::build("mvto+").expect("registry spec");
    let metrics = run_closed_loop(mvto.as_ref(), &options, |v| v);
    assert!(metrics.committed > 0);
}

#[test]
fn engines_reproduce_the_headline_comparison() {
    // §8.4.1 in miniature, on the engines: Figure 1 with the local test
    // bed's round trip before every operation. At 64 clients MVTIL-early's
    // commit rate is at least MVTO+'s, and every protocol keeps committing.
    // The throughput shapes are CPU-sensitive, so the `fig1` binary checks
    // them in release builds (`shapes`).
    let table = fig1_concurrency_local(Scale::Smoke, 99);
    for row in &table.rows {
        assert!(row.throughput_tps > 0.0, "{}", table.render());
    }
    let rate = |protocol| {
        table
            .series(protocol)
            .last()
            .map_or(0.0, |row| row.commit_rate)
    };
    assert!(
        rate("MVTIL-early") >= rate("MVTO+") - 0.02,
        "{}",
        table.render()
    );
    assert_eq!(shapes(&table).len(), 2, "fig1 asserts two shapes");
}

#[test]
fn figure_harness_produces_consistent_tables() {
    let table = fig3_write_fraction(Scale::Smoke, 42);
    // Read-only workloads: every protocol commits essentially everything
    // ("for read-only transactions, the choice of protocol has little impact").
    for row in table.rows.iter().filter(|r| r.x == 0.0) {
        assert!(
            row.commit_rate > 0.95,
            "{} at 0% writes has commit rate {}",
            row.protocol,
            row.commit_rate
        );
    }
    // The table renders with all three protocols present.
    let rendered = table.render();
    for name in ["MVTO+", "2PL", "MVTIL-early"] {
        assert!(rendered.contains(name), "missing {name} in:\n{rendered}");
    }
}
