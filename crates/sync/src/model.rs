//! Instrumented facade implementations (`--cfg dozz_model` only).
//!
//! Every type here mirrors its `std` counterpart's API but forwards
//! each visible operation to the installed [`rt_api::ModelRt`] runtime
//! (falling back to plain std behavior when none is installed, so
//! setup and reporting code outside an exploration still works).
//!
//! Storage stays in the real std primitive — the runtime only decides
//! *scheduling* and, for atomics, *which value a load observes*; the
//! std cell holds the construction-time value used for lazy
//! per-execution registration and is never written while a runtime is
//! installed.

use std::sync::atomic::Ordering;
use std::sync::LockResult;

use crate::rt_api::{self, Rmw};

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// Facade mutex: model-level arbitration (lock order is a scheduling
/// decision), std-level storage and poisoning.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Mirrors `std::sync::Mutex::new`.
    pub const fn new(t: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(t),
        }
    }

    fn id(&self) -> usize {
        &self.inner as *const _ as usize
    }

    /// Mirrors `std::sync::Mutex::lock`. The model runtime arbitrates
    /// (and may block) first; the inner std lock is then uncontended by
    /// construction.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let id = self.id();
        rt_api::with_rt(|rt| rt.mutex_lock(id));
        match self.inner.lock() {
            Ok(g) => Ok(MutexGuard { id, inner: Some(g) }),
            Err(e) => Err(std::sync::PoisonError::new(MutexGuard {
                id,
                inner: Some(e.into_inner()),
            })),
        }
    }

    /// Mirrors `std::sync::Mutex::get_mut` (no model op: `&mut self`
    /// proves exclusivity).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }

    /// Mirrors `std::sync::Mutex::into_inner`.
    pub fn into_inner(self) -> LockResult<T> {
        rt_api::with_rt(|rt| rt.forget(self.id()));
        let me = std::mem::ManuallyDrop::new(self);
        // SAFETY: `me` is never dropped and `inner` is read exactly
        // once; this is the standard move-out-of-Drop-type pattern.
        let inner = unsafe { std::ptr::read(&me.inner) };
        inner.into_inner()
    }
}

impl<T> Drop for Mutex<T> {
    fn drop(&mut self) {
        rt_api::with_rt(|rt| rt.forget(self.id()));
    }
}

/// Facade mutex guard. Releases the model lock on drop, *after* the
/// inner std guard (the runtime schedules another thread at the unlock
/// point, and that thread must find the std mutex free).
pub struct MutexGuard<'a, T> {
    id: usize,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        rt_api::with_rt(|rt| rt.mutex_unlock(self.id));
    }
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

macro_rules! facade_atomic {
    ($Name:ident, $Std:ty, $Raw:ty, $to:expr, $from:expr) => {
        /// Facade atomic: the std cell keeps the construction-time
        /// value; the runtime owns the modification order and decides
        /// which store each load observes.
        #[derive(Debug)]
        pub struct $Name {
            inner: $Std,
        }

        impl $Name {
            /// Mirrors the std constructor.
            pub const fn new(v: $Raw) -> Self {
                $Name {
                    inner: <$Std>::new(v),
                }
            }

            fn id(&self) -> usize {
                &self.inner as *const _ as usize
            }

            fn init(&self) -> u64 {
                // xtask-analyze: allow(atomic-ordering) — initial-value read for runtime registration; the model runtime owns all ordering semantics
                ($to)(self.inner.load(Ordering::Relaxed))
            }

            /// Mirrors `load`.
            pub fn load(&self, order: Ordering) -> $Raw {
                match rt_api::rt() {
                    Some(rt) => ($from)(rt.atomic_load(self.id(), self.init(), order)),
                    None => self.inner.load(order),
                }
            }

            /// Mirrors `store`.
            pub fn store(&self, val: $Raw, order: Ordering) {
                match rt_api::rt() {
                    Some(rt) => rt.atomic_store(self.id(), self.init(), ($to)(val), order),
                    None => self.inner.store(val, order),
                }
            }

            /// Mirrors `swap`.
            pub fn swap(&self, val: $Raw, order: Ordering) -> $Raw {
                match rt_api::rt() {
                    Some(rt) => {
                        ($from)(rt.atomic_rmw(self.id(), self.init(), Rmw::Swap, ($to)(val), order))
                    }
                    None => self.inner.swap(val, order),
                }
            }

            /// Mirrors `compare_exchange`.
            pub fn compare_exchange(
                &self,
                current: $Raw,
                new: $Raw,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$Raw, $Raw> {
                match rt_api::rt() {
                    Some(rt) => rt
                        .atomic_cas(
                            self.id(),
                            self.init(),
                            ($to)(current),
                            ($to)(new),
                            success,
                            failure,
                        )
                        .map($from)
                        .map_err($from),
                    None => self.inner.compare_exchange(current, new, success, failure),
                }
            }
        }

        impl Drop for $Name {
            fn drop(&mut self) {
                rt_api::with_rt(|rt| rt.forget(self.id()));
            }
        }
    };
}

facade_atomic!(
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64,
    |v: u64| v,
    |v: u64| v
);
facade_atomic!(
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize,
    |v: usize| v as u64,
    |v: u64| v as usize
);

macro_rules! facade_fetch {
    ($Name:ident, $Raw:ty, $to:expr, $from:expr, $($method:ident => ($op:expr, $fallback:ident)),+ $(,)?) => {
        impl $Name {
            $(
                /// Mirrors the std fetch op of the same name.
                pub fn $method(&self, val: $Raw, order: Ordering) -> $Raw {
                    match rt_api::rt() {
                        Some(rt) => ($from)(rt.atomic_rmw(
                            self.id(),
                            self.init(),
                            $op,
                            ($to)(val),
                            order,
                        )),
                        None => self.inner.$fallback(val, order),
                    }
                }
            )+
        }
    };
}

facade_fetch!(AtomicU64, u64, |v: u64| v, |v: u64| v,
    fetch_add => (Rmw::Add, fetch_add),
    fetch_sub => (Rmw::Sub, fetch_sub),
    fetch_or => (Rmw::Or, fetch_or),
    fetch_and => (Rmw::And, fetch_and),
    fetch_xor => (Rmw::Xor, fetch_xor),
);
facade_fetch!(AtomicUsize, usize, |v: usize| v as u64, |v: u64| v as usize,
    fetch_add => (Rmw::Add, fetch_add),
    fetch_sub => (Rmw::Sub, fetch_sub),
    fetch_or => (Rmw::Or, fetch_or),
    fetch_and => (Rmw::And, fetch_and),
    fetch_xor => (Rmw::Xor, fetch_xor),
);

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

pub mod thread {
    //! Instrumented scoped/plain threads.
    use std::collections::BTreeMap;
    use std::sync::Mutex as StdMutex;

    use crate::rt_api::{self, AbortExecution};

    /// Per-scope list of model thread ids spawned into it, keyed by the
    /// std scope's address. A side table (not a field) because
    /// [`Scope`] must stay `repr(transparent)` over the std scope for
    /// the lifetime-preserving reference cast in [`scope`].
    static SCOPE_TIDS: StdMutex<BTreeMap<usize, Vec<usize>>> = StdMutex::new(BTreeMap::new());

    fn scope_key<'scope, 'env>(s: &std::thread::Scope<'scope, 'env>) -> usize {
        s as *const _ as usize
    }

    /// Mirrors `std::thread::Scope`.
    #[repr(transparent)]
    pub struct Scope<'scope, 'env: 'scope>(std::thread::Scope<'scope, 'env>);

    /// Mirrors `std::thread::ScopedJoinHandle`.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, ThreadOut<T>>,
        tid: Option<usize>,
    }

    /// Mirrors `std::thread::JoinHandle`.
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<ThreadOut<T>>,
        tid: Option<usize>,
    }

    type ThreadOut<T> = Result<T, Box<dyn std::any::Any + Send + 'static>>;

    fn wrap_model<T>(tid: usize, f: impl FnOnce() -> T) -> ThreadOut<T> {
        let rt = rt_api::rt().expect("model runtime uninstalled mid-execution");
        rt_api::run_model_thread(&*rt, tid, f)
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        fn from_std<'a>(s: &'a std::thread::Scope<'scope, 'env>) -> &'a Self {
            // SAFETY: `Scope` is `repr(transparent)` over
            // `std::thread::Scope`, so the reference cast preserves
            // layout and both lifetimes exactly.
            unsafe { &*(s as *const std::thread::Scope<'scope, 'env> as *const Self) }
        }

        /// Mirrors `std::thread::Scope::spawn`.
        pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            match rt_api::rt() {
                None => ScopedJoinHandle {
                    inner: self.0.spawn(move || Ok(f())),
                    tid: None,
                },
                Some(rt) => {
                    let tid = rt.prepare_spawn();
                    SCOPE_TIDS
                        .lock()
                        .expect("scope table poisoned")
                        .entry(scope_key(&self.0))
                        .or_default()
                        .push(tid);
                    ScopedJoinHandle {
                        inner: self.0.spawn(move || wrap_model(tid, f)),
                        tid: Some(tid),
                    }
                }
            }
        }
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Mirrors `std::thread::ScopedJoinHandle::join`.
        pub fn join(self) -> std::thread::Result<T> {
            if let Some(tid) = self.tid {
                rt_api::with_rt(|rt| rt.join(tid));
            }
            self.inner.join()?
        }
    }

    impl<T> JoinHandle<T> {
        /// Mirrors `std::thread::JoinHandle::join`.
        pub fn join(self) -> std::thread::Result<T> {
            if let Some(tid) = self.tid {
                rt_api::with_rt(|rt| rt.join(tid));
            }
            self.inner.join()?
        }
    }

    /// Mirrors `std::thread::scope`. On exit every thread spawned into
    /// the scope is first joined at the *model* level, so the std
    /// scope's implicit join never blocks on a thread the scheduler
    /// still owes a timeslice.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        std::thread::scope(|inner| {
            let key = scope_key(inner);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f(Scope::from_std(inner))
            }));
            let tids = SCOPE_TIDS
                .lock()
                .expect("scope table poisoned")
                .remove(&key)
                .unwrap_or_default();
            if let Some(rt) = rt_api::rt() {
                match &out {
                    // Model-join the children (idempotent for handles
                    // already joined explicitly). May itself unwind
                    // with AbortExecution if the execution is being
                    // abandoned — the children unwind too, so the std
                    // implicit join below still returns.
                    Ok(_) => {
                        for t in &tids {
                            rt.join(*t);
                        }
                    }
                    // A panic is unwinding past live children: tell the
                    // runtime so it aborts the execution and the
                    // children unwind, instead of deadlocking the
                    // scope's implicit join.
                    Err(p) => {
                        if p.downcast_ref::<AbortExecution>().is_none() {
                            rt.thread_panicking(rt_api::panic_message(&**p));
                        }
                    }
                }
            }
            match out {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            }
        })
    }

    /// Mirrors `std::thread::spawn`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match rt_api::rt() {
            None => JoinHandle {
                inner: std::thread::spawn(move || Ok(f())),
                tid: None,
            },
            Some(rt) => {
                let tid = rt.prepare_spawn();
                JoinHandle {
                    inner: std::thread::spawn(move || wrap_model(tid, f)),
                    tid: Some(tid),
                }
            }
        }
    }
}
