//! The instrumented execution runtime (`--cfg dozz_model` only).
//!
//! Model threads are real OS threads, but exactly one runs at a time:
//! a token (`Exec::cur`) passes between them at every facade operation,
//! so an execution is a deterministic sequence of operations chosen by
//! the [`Decisions`] stack. The runtime implements
//! [`dozz_sync::rt_api::ModelRt`]; the facades forward every mutex,
//! atomic and thread touchpoint here.
//!
//! ## Memory model: sequentially-consistent-plus
//!
//! * Every atomic object carries its full modification order (the list
//!   of store events in schedule order).
//! * `SeqCst`/`Acquire` loads and *all* read-modify-writes read the
//!   newest store. RMWs are always atomic against the newest value.
//! * `Relaxed` loads may read any *non-obsolete* store: one the reader
//!   is not already ordered after a successor of (vector-clock check),
//!   and not older than the reader's own last-read position (per-object
//!   coherence). Which store is read is a DFS decision point.
//! * `Release`/`SeqCst` stores capture the writer's vector clock;
//!   `Acquire`/`SeqCst` loads and acquiring RMWs join it — that edge,
//!   plus mutex unlock→lock, spawn and join, is the happens-before
//!   relation used for `RaceCell` data-race detection (FastTrack-style
//!   epoch checks).
//!
//! This over-approximates real `Acquire` (which may also read stale
//! values) — the model explores a *subset* of C++11 behaviors that
//! strictly contains all sequentially consistent ones plus relaxed
//! staleness. DESIGN.md §12 spells out the guarantee.
//!
//! ## Liveness and findings
//!
//! A thread blocked (on a mutex or a join) with nothing schedulable ⇒
//! deadlock. Escaped panics are assertion findings. Any finding aborts
//! the execution: every thread is woken and unwound with
//! [`AbortExecution`], which the facade thread wrappers swallow.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use dozz_sync::rt_api::{AbortExecution, ModelRt, Rmw};

use crate::clock::VClock;
use crate::decisions::Decisions;
use crate::report::FindingKind;

thread_local! {
    static TID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Cap on the per-finding schedule listing (harnesses are small; this
/// only guards against a runaway trace bloating the JSON report).
const MAX_SCHEDULE_LOG: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Blocked(Block),
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    Mutex(usize),
    Join(usize),
}

#[derive(Debug)]
struct Thread {
    status: Status,
    clock: VClock,
    /// Per-object index of the newest store this thread has read or
    /// written (read coherence: loads never go backwards).
    last_seen: HashMap<usize, usize>,
}

impl Thread {
    fn fresh(clock: VClock) -> Self {
        Thread {
            status: Status::Ready,
            clock,
            last_seen: HashMap::new(),
        }
    }
}

/// Writer id of the implicit initial store of an atomic.
const INIT_WRITER: usize = usize::MAX;

#[derive(Debug)]
struct StoreEv {
    val: u64,
    writer: usize,
    epoch: u32,
    /// The writer's clock for `Release`/`SeqCst` stores.
    rel: Option<VClock>,
}

#[derive(Debug, Default)]
struct AtomicObj {
    stores: Vec<StoreEv>,
}

#[derive(Debug, Default)]
struct MutexObj {
    holder: Option<usize>,
    /// Join of every unlocker's clock (every previous critical section
    /// happens-before the next lock).
    rel: VClock,
}

#[derive(Debug, Default)]
struct CellObj {
    write: Option<(usize, u32, String)>,
    reads: Vec<(usize, u32, String)>,
}

#[derive(Debug)]
enum Obj {
    Atomic(AtomicObj),
    Mutex(MutexObj),
    Cell(CellObj),
}

/// What one finished execution hands back to the explorer.
#[derive(Debug, Default)]
pub struct ExecSummary {
    pub steps: usize,
    pub truncated: bool,
    pub finding: Option<(FindingKind, String)>,
    pub schedule: Vec<String>,
}

#[derive(Debug)]
struct Exec {
    active: bool,
    done: bool,
    abort: bool,
    truncated: bool,
    threads: Vec<Thread>,
    cur: usize,
    objects: HashMap<usize, Obj>,
    /// Schedule-log names of the objects touched so far (see
    /// [`Exec::obj_name`]).
    names: HashMap<usize, usize>,
    next_name: usize,
    decisions: Decisions,
    steps: usize,
    max_steps: usize,
    preemption_bound: Option<usize>,
    preemptions: usize,
    finding: Option<(FindingKind, String)>,
    schedule: Vec<String>,
}

impl Exec {
    fn idle() -> Self {
        Exec {
            active: false,
            done: true,
            abort: false,
            truncated: false,
            threads: Vec::new(),
            cur: 0,
            objects: HashMap::new(),
            names: HashMap::new(),
            next_name: 0,
            decisions: Decisions::explore(),
            steps: 0,
            max_steps: 0,
            preemption_bound: None,
            preemptions: 0,
            finding: None,
            schedule: Vec::new(),
        }
    }

    fn enabled(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| self.threads[t].status == Status::Ready)
            .collect()
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }

    fn log(&mut self, entry: String) {
        if self.schedule.len() < MAX_SCHEDULE_LOG {
            self.schedule.push(entry);
        }
    }

    /// The schedule-log name of object `id`: its first-touch ordinal in
    /// this execution. Addresses cannot be used — each execution runs
    /// on fresh OS threads, so an object's address differs between an
    /// exploration and its replay, and a finding's schedule must
    /// replay byte-for-byte.
    fn obj_name(&mut self, id: usize) -> String {
        let next = self.next_name;
        let n = *self.names.entry(id).or_insert(next);
        if n == next {
            self.next_name += 1;
        }
        format!("#{n}")
    }

    fn record_finding(&mut self, kind: FindingKind, msg: String) {
        if self.finding.is_none() && !self.truncated {
            self.finding = Some((kind, msg));
        }
    }

    /// No runnable thread while some are unfinished: every live thread
    /// is blocked, so the stall is a deadlock.
    fn stall_finding(&mut self) {
        let mut blocked = Vec::new();
        for t in 0..self.threads.len() {
            match self.threads[t].status {
                Status::Blocked(Block::Mutex(id)) => {
                    let name = self.obj_name(id);
                    blocked.push(format!("t{t} on mutex {name}"));
                }
                Status::Blocked(Block::Join(j)) => blocked.push(format!("t{t} joining t{j}")),
                _ => {}
            }
        }
        self.record_finding(
            FindingKind::Deadlock,
            format!("no schedulable thread: {}", blocked.join(", ")),
        );
    }
}

fn acquires(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn lock_state(m: &Mutex<Exec>) -> MutexGuard<'_, Exec> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Throw the abort unwind unless this thread is already panicking (an
/// op reached from a `Drop` during an unwind must not double-panic).
fn throw_abort() {
    if !std::thread::panicking() {
        std::panic::panic_any(AbortExecution);
    }
}

/// The model runtime: one per exploration, installed into
/// `dozz_sync::rt_api` for its duration.
pub struct Runtime {
    state: Mutex<Exec>,
    cv: Condvar,
}

impl Runtime {
    pub fn new() -> Self {
        Runtime {
            state: Mutex::new(Exec::idle()),
            cv: Condvar::new(),
        }
    }

    /// Arm a fresh execution driven by `decisions`. Thread 0 (the root
    /// closure) is created ready and holds the first token.
    pub fn begin(&self, decisions: Decisions, max_steps: usize, preemption_bound: Option<usize>) {
        let mut g = lock_state(&self.state);
        *g = Exec {
            active: true,
            done: false,
            abort: false,
            truncated: false,
            threads: vec![Thread::fresh(VClock::new())],
            cur: 0,
            objects: HashMap::new(),
            names: HashMap::new(),
            next_name: 0,
            decisions,
            steps: 0,
            max_steps,
            preemption_bound,
            preemptions: 0,
            finding: None,
            schedule: Vec::new(),
        };
    }

    /// Wait for the armed execution to finish and disarm it.
    pub fn end(&self) -> (ExecSummary, Decisions) {
        let mut g = lock_state(&self.state);
        while !g.done {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        g.active = false;
        let summary = ExecSummary {
            steps: g.steps,
            truncated: g.truncated,
            finding: g.finding.take(),
            schedule: std::mem::take(&mut g.schedule),
        };
        let decisions = std::mem::replace(&mut g.decisions, Decisions::explore());
        (summary, decisions)
    }

    fn me(&self) -> usize {
        let tid = TID.with(Cell::get);
        debug_assert_ne!(tid, usize::MAX, "op from a non-model thread");
        tid
    }

    /// Abort the current execution: wake everyone; they unwind with
    /// [`AbortExecution`].
    fn abort_exec(&self, g: &mut Exec) {
        g.abort = true;
        self.cv.notify_all();
    }

    /// Record `kind` and abort. The caller must drop the state guard
    /// and call [`throw_abort`] afterwards.
    fn fail(&self, g: &mut Exec, kind: FindingKind, msg: String) {
        g.record_finding(kind, msg);
        self.abort_exec(g);
    }

    /// One DFS choice; `None` means replay divergence (aborted).
    fn choose(&self, g: &mut Exec, options: usize) -> Option<usize> {
        let c = g.decisions.choose(options);
        if let Some(why) = g.decisions.diverged.take() {
            self.fail(g, FindingKind::Divergence, why);
            return None;
        }
        Some(c)
    }

    /// Pick who runs next from `candidates` (ordered preference-first)
    /// and hand the token over. Returns the chosen tid or `None` on
    /// divergence.
    fn pick(&self, g: &mut Exec, me: usize, candidates: Vec<usize>) -> Option<usize> {
        debug_assert!(!candidates.is_empty());
        let me_runnable = candidates.first() == Some(&me);
        let forced = me_runnable && g.preemption_bound.is_some_and(|b| g.preemptions >= b);
        let next = if forced || candidates.len() == 1 {
            candidates[0]
        } else {
            let idx = self.choose(g, candidates.len())?;
            candidates[idx]
        };
        if me_runnable && next != me {
            g.preemptions += 1;
        }
        g.cur = next;
        Some(next)
    }

    /// Candidate order: the current thread first (the straight-line
    /// DFS path is then run-to-completion per thread), others by tid.
    fn candidates(g: &Exec, me: usize) -> Vec<usize> {
        let mut c = g.enabled();
        if let Some(p) = c.iter().position(|&t| t == me) {
            c.remove(p);
            c.insert(0, me);
        }
        c
    }

    /// Block until the token is ours. `None` means the execution
    /// aborted while waiting (guard dropped, abort thrown by caller).
    #[allow(clippy::needless_pass_by_value)]
    fn wait_for_token<'a>(
        &'a self,
        mut g: MutexGuard<'a, Exec>,
        me: usize,
    ) -> Option<MutexGuard<'a, Exec>> {
        loop {
            if g.abort {
                drop(g);
                throw_abort();
                return None;
            }
            if g.cur == me && g.threads[me].status == Status::Ready {
                return Some(g);
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Entry of every scheduled operation: budget check, scheduling
    /// decision, token handoff, clock tick, log. Returns the guard with
    /// the token held, or `None` if the op must bail (abort/inactive).
    fn op_entry<'a>(
        &'a self,
        me: usize,
        label: &dyn Fn(&mut Exec) -> String,
    ) -> Option<MutexGuard<'a, Exec>> {
        let mut g = lock_state(&self.state);
        if !g.active {
            return None;
        }
        if g.abort {
            drop(g);
            throw_abort();
            return None;
        }
        debug_assert_eq!(g.cur, me, "op without the execution token");
        g.steps += 1;
        if g.steps > g.max_steps {
            g.truncated = true;
            self.abort_exec(&mut g);
            drop(g);
            throw_abort();
            return None;
        }
        let cand = Self::candidates(&g, me);
        let next = self.pick(&mut g, me, cand)?;
        let mut g = if next != me {
            self.cv.notify_all();
            self.wait_for_token(g, me)?
        } else {
            g
        };
        g.threads[me].clock.tick(me);
        let entry = format!("t{me} {}", label(&mut g));
        g.log(entry);
        Some(g)
    }

    /// Block `me` on `on`, hand the token to someone else, and return
    /// once `me` is re-granted. `None` ⇒ aborted (thrown).
    fn block<'a>(
        &'a self,
        mut g: MutexGuard<'a, Exec>,
        me: usize,
        on: Block,
    ) -> Option<MutexGuard<'a, Exec>> {
        g.threads[me].status = Status::Blocked(on);
        let cand = Self::candidates(&g, me);
        if cand.is_empty() {
            g.stall_finding();
            self.abort_exec(&mut g);
            drop(g);
            throw_abort();
            return None;
        }
        self.pick(&mut g, me, cand)?;
        self.cv.notify_all();
        self.wait_for_token(g, me)
    }

    fn atomic_obj(g: &mut Exec, id: usize, init: u64) -> &mut AtomicObj {
        let obj = g.objects.entry(id).or_insert_with(|| {
            Obj::Atomic(AtomicObj {
                stores: vec![StoreEv {
                    val: init,
                    writer: INIT_WRITER,
                    epoch: 0,
                    rel: Some(VClock::new()),
                }],
            })
        });
        match obj {
            Obj::Atomic(a) => a,
            other => panic!("object {id:#x} is not an atomic: {other:?}"),
        }
    }

    /// Indices a `Relaxed` load by `me` may read, newest first: nothing
    /// older than a store `me` is already hb-after, nothing older than
    /// `me`'s own per-object read position.
    fn relaxed_candidates(g: &Exec, id: usize, me: usize) -> Vec<usize> {
        let Some(Obj::Atomic(a)) = g.objects.get(&id) else {
            return Vec::new();
        };
        let th = &g.threads[me];
        let mut lo = th.last_seen.get(&id).copied().unwrap_or(0);
        for (i, s) in a.stores.iter().enumerate().skip(lo + 1) {
            let seen =
                s.writer == me || (s.writer != INIT_WRITER && th.clock.covers(s.writer, s.epoch));
            if seen {
                lo = i;
            }
        }
        (lo..a.stores.len()).rev().collect()
    }
}

impl ModelRt for Runtime {
    fn atomic_load(&self, id: usize, init: u64, order: Ordering) -> u64 {
        let me = self.me();
        let Some(mut g) = self.op_entry(me, &|g| format!("load {} {order:?}", g.obj_name(id)))
        else {
            return init;
        };
        Self::atomic_obj(&mut g, id, init);
        let idx = if acquires(order) {
            let Some(Obj::Atomic(a)) = g.objects.get(&id) else {
                unreachable!()
            };
            a.stores.len() - 1
        } else {
            let cand = Self::relaxed_candidates(&g, id, me);
            let Some(k) = self.choose(&mut g, cand.len()) else {
                drop(g);
                throw_abort();
                return init;
            };
            cand[k]
        };
        let (val, rel) = {
            let Some(Obj::Atomic(a)) = g.objects.get(&id) else {
                unreachable!()
            };
            let ev = &a.stores[idx];
            (ev.val, ev.rel.clone())
        };
        if acquires(order) {
            if let Some(rel) = rel {
                g.threads[me].clock.join(&rel);
            }
        }
        let seen = g.threads[me].last_seen.entry(id).or_insert(0);
        *seen = (*seen).max(idx);
        val
    }

    fn atomic_store(&self, id: usize, init: u64, val: u64, order: Ordering) {
        let me = self.me();
        let Some(mut g) = self.op_entry(me, &|g| format!("store {} {order:?}", g.obj_name(id)))
        else {
            return;
        };
        let epoch = g.threads[me].clock.get(me);
        let rel = releases(order).then(|| g.threads[me].clock.clone());
        let a = Self::atomic_obj(&mut g, id, init);
        a.stores.push(StoreEv {
            val,
            writer: me,
            epoch,
            rel,
        });
        let idx = a.stores.len() - 1;
        g.threads[me].last_seen.insert(id, idx);
    }

    fn atomic_rmw(&self, id: usize, init: u64, op: Rmw, arg: u64, order: Ordering) -> u64 {
        let me = self.me();
        let Some(mut g) =
            self.op_entry(me, &|g| format!("rmw {op:?} {} {order:?}", g.obj_name(id)))
        else {
            return init;
        };
        let epoch = g.threads[me].clock.get(me);
        let a = Self::atomic_obj(&mut g, id, init);
        let last = a.stores.last().expect("atomics always have a store");
        let old = last.val;
        let acq = acquires(order).then(|| last.rel.clone()).flatten();
        let new = match op {
            Rmw::Add => old.wrapping_add(arg),
            Rmw::Sub => old.wrapping_sub(arg),
            Rmw::And => old & arg,
            Rmw::Or => old | arg,
            Rmw::Xor => old ^ arg,
            Rmw::Swap => arg,
        };
        if let Some(rel) = acq {
            g.threads[me].clock.join(&rel);
        }
        let epoch = epoch.max(g.threads[me].clock.get(me));
        let rel = releases(order).then(|| g.threads[me].clock.clone());
        let a = Self::atomic_obj(&mut g, id, init);
        a.stores.push(StoreEv {
            val: new,
            writer: me,
            epoch,
            rel,
        });
        let idx = a.stores.len() - 1;
        g.threads[me].last_seen.insert(id, idx);
        old
    }

    fn atomic_cas(
        &self,
        id: usize,
        init: u64,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let me = self.me();
        let Some(mut g) = self.op_entry(me, &|g| format!("cas {} ", g.obj_name(id))) else {
            return Err(init);
        };
        let a = Self::atomic_obj(&mut g, id, init);
        let last = a.stores.last().expect("atomics always have a store");
        let old = last.val;
        let idx = a.stores.len() - 1;
        let (hit, order) = if old == current {
            (true, success)
        } else {
            (false, failure)
        };
        let acq = acquires(order).then(|| last.rel.clone()).flatten();
        if let Some(rel) = acq {
            g.threads[me].clock.join(&rel);
        }
        if hit {
            let epoch = g.threads[me].clock.get(me);
            let rel = releases(success).then(|| g.threads[me].clock.clone());
            let a = Self::atomic_obj(&mut g, id, init);
            a.stores.push(StoreEv {
                val: new,
                writer: me,
                epoch,
                rel,
            });
            let idx = a.stores.len() - 1;
            g.threads[me].last_seen.insert(id, idx);
        } else {
            let seen = g.threads[me].last_seen.entry(id).or_insert(0);
            *seen = (*seen).max(idx);
        }
        if hit {
            Ok(old)
        } else {
            Err(old)
        }
    }

    fn mutex_lock(&self, id: usize) {
        let me = self.me();
        let Some(mut g) = self.op_entry(me, &|g| format!("lock {}", g.obj_name(id))) else {
            return;
        };
        loop {
            let m = match g
                .objects
                .entry(id)
                .or_insert_with(|| Obj::Mutex(MutexObj::default()))
            {
                Obj::Mutex(m) => m,
                other => panic!("object {id:#x} is not a mutex: {other:?}"),
            };
            match m.holder {
                None => {
                    m.holder = Some(me);
                    let rel = m.rel.clone();
                    g.threads[me].clock.join(&rel);
                    return;
                }
                Some(_) => {
                    let Some(next) = self.block(g, me, Block::Mutex(id)) else {
                        return;
                    };
                    g = next;
                }
            }
        }
    }

    fn mutex_unlock(&self, id: usize) {
        let me = TID.with(Cell::get);
        if me == usize::MAX {
            return;
        }
        {
            let g = lock_state(&self.state);
            if !g.active || g.abort {
                return;
            }
        }
        let Some(mut g) = self.op_entry(me, &|g| format!("unlock {}", g.obj_name(id))) else {
            return;
        };
        let clock = g.threads[me].clock.clone();
        if let Some(Obj::Mutex(m)) = g.objects.get_mut(&id) {
            debug_assert_eq!(m.holder, Some(me), "unlock by non-holder");
            m.holder = None;
            m.rel.join(&clock);
        }
        for t in g.threads.iter_mut() {
            if t.status == Status::Blocked(Block::Mutex(id)) {
                t.status = Status::Ready;
            }
        }
    }

    fn forget(&self, id: usize) {
        let mut g = lock_state(&self.state);
        if !g.active || g.abort {
            return;
        }
        g.objects.remove(&id);
        g.names.remove(&id);
    }

    fn prepare_spawn(&self) -> usize {
        let me = self.me();
        let Some(mut g) = self.op_entry(me, &|_| "spawn".to_string()) else {
            // Fallback tid: the execution is being torn down; the child
            // will abort at thread_start.
            return usize::MAX - 1;
        };
        let child = g.threads.len();
        let clock = g.threads[me].clock.clone();
        g.threads.push(Thread::fresh(clock));
        let entry = format!("t{me} spawn t{child}");
        g.log(entry);
        child
    }

    fn thread_start(&self, tid: usize) {
        TID.with(|t| t.set(tid));
        let g = lock_state(&self.state);
        if !g.active || tid >= g.threads.len() {
            return;
        }
        if let Some(g) = self.wait_for_token(g, tid) {
            drop(g);
        }
    }

    fn thread_finish(&self, panic_msg: Option<String>) {
        let me = TID.with(Cell::get);
        TID.with(|t| t.set(usize::MAX));
        let mut g = lock_state(&self.state);
        if !g.active || me >= g.threads.len() {
            return;
        }
        g.threads[me].status = Status::Finished;
        g.log(format!("t{me} finish"));
        if let Some(msg) = panic_msg {
            self.fail(
                &mut g,
                FindingKind::AssertionFailure,
                format!("thread t{me} panicked: {msg}"),
            );
        }
        for t in g.threads.iter_mut() {
            if t.status == Status::Blocked(Block::Join(me)) {
                t.status = Status::Ready;
            }
        }
        if g.all_finished() {
            g.done = true;
            self.cv.notify_all();
            return;
        }
        if g.abort {
            self.cv.notify_all();
            return;
        }
        let cand = Self::candidates(&g, me);
        if cand.is_empty() {
            g.stall_finding();
            self.abort_exec(&mut g);
            return;
        }
        if self.pick(&mut g, me, cand).is_some() {
            self.cv.notify_all();
        }
    }

    fn join(&self, tid: usize) {
        let me = self.me();
        let Some(mut g) = self.op_entry(me, &|_| format!("join t{tid}")) else {
            return;
        };
        loop {
            if tid >= g.threads.len() {
                return;
            }
            if g.threads[tid].status == Status::Finished {
                let clock = g.threads[tid].clock.clone();
                g.threads[me].clock.join(&clock);
                return;
            }
            let Some(next) = self.block(g, me, Block::Join(tid)) else {
                return;
            };
            g = next;
        }
    }

    fn thread_panicking(&self, msg: String) {
        let me = TID.with(Cell::get);
        let mut g = lock_state(&self.state);
        if !g.active || g.abort {
            return;
        }
        self.fail(
            &mut g,
            FindingKind::AssertionFailure,
            format!("thread t{me} panicked: {msg}"),
        );
    }

    fn race_read(&self, id: usize, what: &str) {
        let me = self.me();
        let Some(mut g) = self.op_entry(me, &|_| format!("read {what}")) else {
            return;
        };
        let clock = g.threads[me].clock.clone();
        let epoch = clock.get(me);
        let cell = match g
            .objects
            .entry(id)
            .or_insert_with(|| Obj::Cell(CellObj::default()))
        {
            Obj::Cell(c) => c,
            other => panic!("object {id:#x} is not a race cell: {other:?}"),
        };
        if let Some((w, wepoch, wwhat)) = &cell.write {
            if *w != me && !clock.covers(*w, *wepoch) {
                let msg = format!(
                    "torn read: t{me} read {what} concurrently with t{w}'s unsynchronized \
                     write {wwhat}"
                );
                self.fail(&mut g, FindingKind::DataRace, msg);
                drop(g);
                throw_abort();
                return;
            }
        }
        cell.reads.retain(|(r, _, _)| *r != me);
        cell.reads.push((me, epoch, what.to_string()));
    }

    fn race_write(&self, id: usize, what: &str) {
        let me = self.me();
        let Some(mut g) = self.op_entry(me, &|_| format!("write {what}")) else {
            return;
        };
        let clock = g.threads[me].clock.clone();
        let epoch = clock.get(me);
        let cell = match g
            .objects
            .entry(id)
            .or_insert_with(|| Obj::Cell(CellObj::default()))
        {
            Obj::Cell(c) => c,
            other => panic!("object {id:#x} is not a race cell: {other:?}"),
        };
        let mut conflict: Option<String> = None;
        if let Some((w, wepoch, wwhat)) = &cell.write {
            if *w != me && !clock.covers(*w, *wepoch) {
                conflict = Some(format!(
                    "torn write: t{me} wrote {what} concurrently with t{w}'s unsynchronized \
                     write {wwhat}"
                ));
            }
        }
        if conflict.is_none() {
            for (r, repoch, rwhat) in &cell.reads {
                if *r != me && !clock.covers(*r, *repoch) {
                    conflict = Some(format!(
                        "torn write: t{me} wrote {what} concurrently with t{r}'s \
                         unsynchronized read {rwhat}"
                    ));
                    break;
                }
            }
        }
        if let Some(msg) = conflict {
            self.fail(&mut g, FindingKind::DataRace, msg);
            drop(g);
            throw_abort();
            return;
        }
        cell.write = Some((me, epoch, what.to_string()));
        cell.reads.clear();
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}
