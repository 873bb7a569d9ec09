//! `mvtl-core`: the bottom of the ladder (the store driven statically through
//! `TransactionalKV`, no `dyn`, no boxed handle), its `dyn` twin built by the
//! registry, and the two regime probes that keep the seed's collapses on
//! record.

use super::Ctx;
use crate::bench::{CONTENDED, SHORT};
use crate::harness::{run_phase, setup, untraced, Stop, CLIENTS};
use crate::load::{Load, WRITE};
use crate::session::{classify, committed, value_for, Attempt, InProc, Session, Target};
use crate::trace::Tracer;
use mvtl_clock::GlobalClock;
use mvtl_common::{Key, ProcessId, StoreStats, TransactionalKV};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::{MvtlConfig, MvtlStore};
use std::sync::Arc;

type Store = MvtlStore<u64, MvtilPolicy>;

/// What `mvtl_registry::build("mvtil-early?delta=1000")` constructs, minus
/// the `Box<dyn Engine>`.
struct CoreTarget(Arc<Store>);

struct CoreSession {
    store: Arc<Store>,
    process: ProcessId,
}

impl Target for CoreTarget {
    type S = CoreSession;
    type Loader = CoreSession;

    fn open(_spec: &str) -> Result<Self, String> {
        let clock = Arc::new(GlobalClock::starting_at(1));
        let store = MvtlStore::new(MvtilPolicy::early(1000), clock, MvtlConfig::default());
        Ok(CoreTarget(Arc::new(store)))
    }

    fn session(&self, process: u32) -> Result<CoreSession, String> {
        Ok(CoreSession {
            store: Arc::clone(&self.0),
            process: ProcessId(process),
        })
    }

    fn loader(&self, process: u32) -> Result<CoreSession, String> {
        self.session(process)
    }
}

impl Session for CoreSession {
    fn attempt<T: Tracer>(
        &mut self,
        ops: &[u32],
        client: u32,
        counter: u64,
        _tracer: &mut T,
    ) -> Result<Attempt, String> {
        let store = &*self.store;
        let mut txn = TransactionalKV::begin(store, self.process);
        for (index, &op) in ops.iter().enumerate() {
            let key = Key(u64::from(op & !WRITE));
            let result = if op & WRITE != 0 {
                store.write(&mut txn, key, value_for(client, counter, index))
            } else {
                store.read(&mut txn, key).map(|_| ())
            };
            if let Err(err) = result {
                store.abort(txn);
                return classify(err);
            }
        }
        match store.commit(txn) {
            Ok(info) => committed(info.commit_ts),
            Err(err) => classify(err),
        }
    }

    fn read_all(&mut self, keys: &[u32]) -> Result<Option<Vec<Option<u64>>>, String> {
        let store = &*self.store;
        let mut txn = TransactionalKV::begin(store, self.process);
        let keys: Vec<Key> = keys.iter().map(|k| Key(u64::from(*k))).collect();
        let values = match store.read_many(&mut txn, &keys) {
            Ok(values) => values,
            Err(err) => {
                store.abort(txn);
                return classify(err).map(|_| None);
            }
        };
        match store.commit(txn) {
            Ok(_) => Ok(Some(values)),
            Err(err) => classify(err).map(|_| None),
        }
    }

    fn stats(&mut self) -> Result<StoreStats, String> {
        Ok(self.store.stats())
    }
}

/// Throughput of the last fifth of a time-bounded run ÷ the first fifth.
/// 1.0 means the engine holds its speed; the seed decays well below it.
fn decay_x(
    ctx: &Ctx<'_>,
    name: &str,
    spec: &str,
    load: &Load,
    clients: usize,
) -> Result<f64, String> {
    let mut rig = setup::<InProc>(name, spec, load, ctx.opts.seed, clients, 0)?;
    let phase = run_phase(
        &mut rig.clients,
        &mut untraced(clients),
        Stop::After(ctx.regime_budget()),
    );
    if let Some(err) = phase.first_error() {
        return Err(format!("{name}: {err}"));
    }
    let slices = phase.slice_commits();
    let fifth = slices.len() / 5;
    let first: u64 = slices[..fifth].iter().sum();
    let last: u64 = slices[slices.len() - fifth..].iter().sum();
    Ok(last as f64 / first.max(1) as f64)
}

pub fn run(ctx: &mut Ctx<'_>) -> Result<(), String> {
    ctx.rung::<CoreTarget>("core", None, "")?;
    ctx.rung::<InProc>("registry", Some("core"), "mvtil-early?delta=1000")?;

    // `mem_short`'s spec minus `gc_ms`: versions and frozen lock entries pile
    // up and every chain walk gets longer.
    let nogc = decay_x(ctx, "nogc", "mvtil-early?delta=1000", &SHORT, 1)?;
    ctx.metric("core.nogc_decay_x", nogc);
    // `mem_contended`'s load at the registry's default Δ = 100 000, GC on.
    let wide = decay_x(
        ctx,
        "default_delta",
        "mvtil-early?gc_ms=50&gc_lag_ms=50",
        &CONTENDED,
        CLIENTS,
    )?;
    ctx.metric("core.default_delta_decay_x", wide);
    Ok(())
}
