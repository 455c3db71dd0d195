//! The facade ↔ model-runtime ABI (`--cfg dozz_model` builds only).
//!
//! The facades in this crate stay mechanism-free: all scheduling,
//! memory-model and race-detection logic lives in `dozznoc-modelcheck`,
//! which implements [`ModelRt`] and [`install`]s itself for the
//! duration of an exploration. When no runtime is installed the facades
//! fall back to plain `std` behavior, so `dozz_model` binaries can
//! still run setup/reporting code outside an exploration.
//!
//! Object identity is the primitive's address (stable for its
//! lifetime); facade `Drop` impls call [`ModelRt::forget`] so an
//! address freed and re-used within one execution can never alias a
//! dead object's model state. `static` primitives are re-registered
//! lazily per execution from their construction-time value — the
//! runtime never writes the std cell backing a facade, so that value
//! is stable across executions. (Caveat, documented: a `static` mutated
//! through the *fallback* path and then used inside an exploration
//! would re-register with the mutated value; keep model harness state
//! inside the explored closure.)

use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

/// Panic payload the runtime uses to unwind every model thread of an
/// abandoned execution (after a finding, a deadlock, or a step-budget
/// truncation). The thread wrappers swallow it; any user-level
/// `catch_unwind` inside a harness must re-throw it.
pub struct AbortExecution;

/// Read-modify-write flavor of [`ModelRt::atomic_rmw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rmw {
    /// `fetch_add`
    Add,
    /// `fetch_sub`
    Sub,
    /// `fetch_and`
    And,
    /// `fetch_or`
    Or,
    /// `fetch_xor`
    Xor,
    /// `swap`
    Swap,
}

/// What the instrumented runtime must provide. All values travel as
/// `u64` (`AtomicUsize` widens losslessly);
/// `id` is the facade object's address, `init` its construction-time
/// value for lazy per-execution registration.
pub trait ModelRt: Send + Sync {
    /// An atomic load. `Relaxed` loads may be given a stale (but
    /// coherent) value; stronger loads read the newest store.
    fn atomic_load(&self, id: usize, init: u64, order: Ordering) -> u64;
    /// An atomic store.
    fn atomic_store(&self, id: usize, init: u64, val: u64, order: Ordering);
    /// An atomic read-modify-write; returns the previous value.
    fn atomic_rmw(&self, id: usize, init: u64, op: Rmw, arg: u64, order: Ordering) -> u64;
    /// `compare_exchange`; `Ok(previous)` on success, `Err(actual)`.
    fn atomic_cas(
        &self,
        id: usize,
        init: u64,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;
    /// Block until the model mutex `id` is granted to the caller.
    fn mutex_lock(&self, id: usize);
    /// Release the model mutex `id`.
    fn mutex_unlock(&self, id: usize);
    /// Drop the model state of object `id` (facade `Drop`).
    fn forget(&self, id: usize);
    /// Allocate the thread id for a thread about to be spawned.
    fn prepare_spawn(&self) -> usize;
    /// First call on the spawned OS thread: binds it to `tid` and
    /// blocks until the scheduler first picks it.
    fn thread_start(&self, tid: usize);
    /// Last call on a model thread. A `Some` message is an escaped
    /// (non-[`AbortExecution`]) panic and becomes a finding.
    fn thread_finish(&self, panic_msg: Option<String>);
    /// Block until thread `tid` has finished.
    fn join(&self, tid: usize);
    /// A panic is unwinding the current thread past live scoped
    /// children: record it as a finding and abort the execution so the
    /// children unwind too (otherwise the scope's implicit join would
    /// deadlock waiting on threads the scheduler will never run).
    fn thread_panicking(&self, msg: String);
    /// A non-atomic read of race-checked storage (`RaceCell`).
    fn race_read(&self, id: usize, what: &str);
    /// A non-atomic write of race-checked storage (`RaceCell`).
    fn race_write(&self, id: usize, what: &str);
}

static RT: RwLock<Option<Arc<dyn ModelRt>>> = RwLock::new(None);

/// Install `rt` as the process-wide model runtime. Explorations are
/// sequential by construction (one explorer drives one runtime), so a
/// plain slot suffices.
pub fn install(rt: Arc<dyn ModelRt>) {
    *RT.write().expect("model runtime slot poisoned") = Some(rt);
}

/// Remove the installed runtime; facades fall back to std behavior.
pub fn uninstall() {
    *RT.write().expect("model runtime slot poisoned") = None;
}

/// The installed runtime, if any.
pub fn rt() -> Option<Arc<dyn ModelRt>> {
    RT.read().expect("model runtime slot poisoned").clone()
}

/// Run `f` against the installed runtime; `false` (untouched) if none.
pub fn with_rt(f: impl FnOnce(&dyn ModelRt)) -> bool {
    match rt() {
        Some(rt) => {
            f(&*rt);
            true
        }
        None => false,
    }
}

/// Run `f` as model thread `tid` on the current OS thread: binds the
/// thread, waits for its first schedule, and converts its exit into a
/// [`ModelRt::thread_finish`]. [`AbortExecution`] unwinds are swallowed
/// (the execution is being abandoned); any other panic is reported as a
/// finding and the payload is preserved for `join`.
pub fn run_model_thread<T>(
    rt: &dyn ModelRt,
    tid: usize,
    f: impl FnOnce() -> T,
) -> Result<T, Box<dyn std::any::Any + Send + 'static>> {
    // thread_start is inside the catch: an abort while waiting for the
    // first schedule unwinds with AbortExecution like any other op.
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.thread_start(tid);
        f()
    }));
    let msg = match &out {
        Ok(_) => None,
        Err(p) if p.downcast_ref::<AbortExecution>().is_some() => None,
        Err(p) => Some(panic_message(p)),
    };
    rt.thread_finish(msg);
    out
}

/// Best-effort text of a panic payload.
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
