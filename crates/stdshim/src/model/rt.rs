//! Run-time core of the model checker: virtual threads, the baton
//! scheduler, and op execution against the weak-memory store model.
//!
//! Virtual threads are real OS threads, but at most one runs at a time: a
//! thread arriving at an atomic operation registers it as *pending*,
//! chooses the next thread to run (consulting the exploration prefix via
//! [`RunState::choose`]), and parks until the baton comes back. The op
//! executes when its thread is granted the baton, so the scheduler decides
//! exactly which pending operation happens next — every interleaving of
//! schedule points is reachable.
//!
//! Scheduling choices are pruned two ways (DESIGN.md §7.3): a *preemption
//! bound* (switching away from a still-runnable thread costs one preemption;
//! at the bound the thread must continue) and *sleep sets* (after exploring
//! thread `t` at a choice node, sibling branches keep `t` asleep until some
//! dependent op — same location, at least one write — executes). Both are
//! bug-finding heuristics, not completeness proofs, and the combination can
//! skip schedules near the bound.
//!
//! A panic in a virtual thread is the violation signal: the run records the
//! panic message plus the executed-op trace, then flips into *drain mode*
//! where every thread runs to completion without further scheduling (ops
//! read/write the newest store only) so the OS threads can be joined.

use super::clock::VClock;
use super::mem::Memory;
use crate::hash::FastMap;
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The read-modify-write flavours the facade needs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RmwKind {
    /// `fetch_add`
    Add(u64),
    /// `fetch_sub` (wrapping, like the hardware op)
    Sub(u64),
    /// `fetch_and`
    And(u64),
    /// `fetch_or`
    Or(u64),
    /// `fetch_max`
    Max(u64),
    /// `swap`
    Swap(u64),
}

impl RmwKind {
    fn apply(self, old: u64) -> u64 {
        match self {
            RmwKind::Add(v) => old.wrapping_add(v),
            RmwKind::Sub(v) => old.wrapping_sub(v),
            RmwKind::And(v) => old & v,
            RmwKind::Or(v) => old | v,
            RmwKind::Max(v) => old.max(v),
            RmwKind::Swap(v) => v,
        }
    }

    fn name(self) -> &'static str {
        match self {
            RmwKind::Add(_) => "fetch_add",
            RmwKind::Sub(_) => "fetch_sub",
            RmwKind::And(_) => "fetch_and",
            RmwKind::Or(_) => "fetch_or",
            RmwKind::Max(_) => "fetch_max",
            RmwKind::Swap(_) => "swap",
        }
    }
}

/// A pending operation at a schedule point. `addr`/`init` identify and
/// lazily register the memory location (keyed by the atomic's address for
/// the duration of one execution; labels are assigned in first-touch order,
/// which is deterministic under replay).
#[derive(Debug, Clone)]
pub(super) enum Op {
    Start,
    Spawn {
        child: usize,
    },
    Join {
        child: usize,
    },
    Load {
        addr: usize,
        init: u64,
        o: Ordering,
    },
    Store {
        addr: usize,
        init: u64,
        value: u64,
        o: Ordering,
    },
    Rmw {
        addr: usize,
        init: u64,
        kind: RmwKind,
        o: Ordering,
    },
    CmpEx {
        addr: usize,
        init: u64,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    },
    OnceInit {
        addr: usize,
    },
}

impl Op {
    /// The memory location this op touches, if any.
    fn addr(&self) -> Option<usize> {
        match *self {
            Op::Start | Op::Spawn { .. } | Op::Join { .. } => None,
            Op::Load { addr, .. }
            | Op::Store { addr, .. }
            | Op::Rmw { addr, .. }
            | Op::CmpEx { addr, .. }
            | Op::OnceInit { addr } => Some(addr),
        }
    }

    /// Whether this op writes its location (sleep-set dependence).
    fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Store { .. } | Op::Rmw { .. } | Op::CmpEx { .. } | Op::OnceInit { .. }
        )
    }
}

/// What an executed op returned to its caller.
#[derive(Debug, Clone, Copy)]
pub(super) enum OpResult {
    Unit,
    Value(u64),
    /// CAS: `(observed, success)`.
    Cas(u64, bool),
}

/// What kind of nondeterministic choice a schedule-tree node records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// Which thread runs next.
    Thread,
    /// Which visible store a load reads.
    Value,
}

/// One node of the DFS schedule tree: `n` options, currently exploring
/// option `cur`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRec {
    /// Number of options at this choice point.
    pub n: usize,
    /// Option being explored in the current execution.
    pub cur: usize,
    /// Choice kind (determinism cross-check during replay).
    pub kind: NodeKind,
}

struct ThreadSt {
    vc: VClock,
    pending: Option<Op>,
    finished: bool,
    sleeping: bool,
}

/// Everything one execution accumulates, handed back to the explorer.
pub(super) struct RunOutcome {
    pub nodes: Vec<NodeRec>,
    pub violation: Option<String>,
    pub trace: Vec<String>,
    pub pruned: bool,
    pub det_mismatch: Option<String>,
}

pub(super) struct RunState {
    threads: Vec<ThreadSt>,
    active: Option<usize>,
    draining: bool,
    pruned: bool,
    violation: Option<String>,
    live: usize,
    preemptions: usize,
    bound: usize,
    mem: Memory,
    addr_to_loc: FastMap<usize, usize>,
    nodes: Vec<NodeRec>,
    depth: usize,
    trace: Vec<String>,
    det_mismatch: Option<String>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

impl RunState {
    /// Consume one choice with `n` options; returns the option index. The
    /// first visit to a node always takes option 0; replays and sibling
    /// visits follow the prescribed `nodes` prefix.
    fn choose(&mut self, n: usize, kind: NodeKind) -> usize {
        if n <= 1 {
            return 0;
        }
        let d = self.depth;
        self.depth += 1;
        if d < self.nodes.len() {
            let node = self.nodes[d];
            if node.n != n || node.kind != kind {
                self.det_mismatch = Some(format!(
                    "schedule replay diverged at depth {d}: recorded {:?}×{} vs replayed {:?}×{n}",
                    node.kind, node.n, kind
                ));
                return node.cur.min(n - 1);
            }
            node.cur
        } else {
            self.nodes.push(NodeRec { n, cur: 0, kind });
            0
        }
    }

    fn loc_of(&mut self, addr: usize, init: u64) -> usize {
        if let Some(&l) = self.addr_to_loc.get(&addr) {
            return l;
        }
        let l = self.mem.register(init);
        self.addr_to_loc.insert(addr, l);
        l
    }

    /// Threads that could execute their pending op right now (ignoring
    /// sleep sets): started, unfinished, and not blocked on an unfinished
    /// join target.
    fn executable(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| {
                let th = &self.threads[t];
                if th.finished {
                    return false;
                }
                match th.pending {
                    None => false,
                    Some(Op::Join { child }) => self.threads[child].finished,
                    Some(_) => true,
                }
            })
            .collect()
    }

    /// Wake sleeping threads whose pending op is dependent on an executed op
    /// at `addr` (same location, at least one of the two writes).
    fn wake_dependent(&mut self, addr: usize, executed_write: bool) {
        for th in &mut self.threads {
            if th.sleeping {
                if let Some(op) = &th.pending {
                    if op.addr() == Some(addr) && (executed_write || op.is_write()) {
                        th.sleeping = false;
                    }
                }
            }
        }
    }
}

/// State shared between the explorer (main thread) and all virtual threads
/// of one execution.
pub(super) struct RunShared {
    state: Mutex<RunState>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<RunShared>, usize)>> = const { RefCell::new(None) };
}

/// Runs `f` with the current virtual-thread context, or returns `None` when
/// the calling OS thread is not inside a model execution (the facade then
/// falls back to the real atomic).
pub(super) fn with_run<R>(f: impl FnOnce(&Arc<RunShared>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(s, t)| f(s, *t)))
}

impl RunShared {
    pub(super) fn new(nodes: Vec<NodeRec>, bound: usize) -> RunShared {
        RunShared {
            state: Mutex::new(RunState {
                threads: Vec::new(),
                active: None,
                draining: false,
                pruned: false,
                violation: None,
                live: 0,
                preemptions: 0,
                bound,
                mem: Memory::default(),
                addr_to_loc: FastMap::default(),
                nodes,
                depth: 0,
                trace: Vec::new(),
                det_mismatch: None,
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RunState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Launches the root virtual thread (tid 0) running `f`.
    pub(super) fn start_root(self: &Arc<Self>, f: impl FnOnce() + Send + 'static) {
        let mut st = self.lock();
        debug_assert!(st.threads.is_empty(), "start_root on a used run");
        st.threads.push(ThreadSt {
            vc: VClock::new(),
            pending: Some(Op::Start),
            finished: false,
            sleeping: false,
        });
        st.live = 1;
        st.active = Some(0);
        let shared = Arc::clone(self);
        let handle = std::thread::spawn(move || thread_body(shared, 0, f));
        st.os_handles.push(handle);
    }

    /// Registers a child virtual thread (inheriting the parent's clock) and
    /// launches its OS thread. The caller must follow with the parent's
    /// `Op::Spawn` schedule point.
    pub(super) fn spawn_child(
        self: &Arc<Self>,
        parent: usize,
        f: impl FnOnce() + Send + 'static,
    ) -> usize {
        let mut st = self.lock();
        let child = st.threads.len();
        let vc = st.threads[parent].vc.clone();
        st.threads.push(ThreadSt {
            vc,
            pending: Some(Op::Start),
            finished: false,
            sleeping: false,
        });
        st.live += 1;
        let shared = Arc::clone(self);
        let handle = std::thread::spawn(move || thread_body(shared, child, f));
        st.os_handles.push(handle);
        child
    }

    /// The per-schedule-point protocol: register `op` as pending, pick the
    /// next thread to run, park until granted, then execute the op.
    pub(super) fn atomic_op(&self, me: usize, op: Op) -> OpResult {
        let mut st = self.lock();
        if st.draining {
            return self.exec_drain(st, me, op);
        }
        st.threads[me].pending = Some(op);
        self.select_next(&mut st, Some(me));
        self.await_baton_and_exec(st, me)
    }

    /// Parks until `me` holds the baton (or drain mode starts), then
    /// executes `me`'s pending op. Used by `atomic_op` and for the initial
    /// `Op::Start` a parent registered on `me`'s behalf.
    pub(super) fn await_baton_and_exec(
        &self,
        mut st: MutexGuard<'_, RunState>,
        me: usize,
    ) -> OpResult {
        loop {
            if st.draining {
                let op = match st.threads[me].pending.take() {
                    Some(op) => op,
                    None => return OpResult::Unit,
                };
                return self.exec_drain(st, me, op);
            }
            if st.active == Some(me) {
                break;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let op = match st.threads[me].pending.take() {
            Some(op) => op,
            None => return OpResult::Unit,
        };
        self.exec(&mut st, me, op)
    }

    pub(super) fn initial_park(&self, me: usize) {
        let st = self.lock();
        self.await_baton_and_exec(st, me);
    }

    /// Thread `me` finished (returned or panicked). Hands the baton on, or
    /// records the violation and flips to drain mode.
    pub(super) fn finish_thread(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.lock();
        st.threads[me].finished = true;
        st.threads[me].pending = None;
        st.threads[me].sleeping = false;
        st.live -= 1;
        if let Some(msg) = panic_msg {
            // First panic outside drain mode is the violation; later ones
            // are fallout from running past it.
            if !st.draining && st.violation.is_none() {
                st.violation = Some(msg);
                st.draining = true;
                st.active = None;
            }
        } else if !st.draining {
            self.select_next(&mut st, Some(me));
        }
        self.cv.notify_all();
    }

    /// Blocks the explorer until every virtual thread finished, then joins
    /// the OS threads and returns the execution's outcome.
    pub(super) fn wait_outcome(&self) -> RunOutcome {
        let handles = {
            let mut st = self.lock();
            while st.live > 0 {
                st = self
                    .cv
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            std::mem::take(&mut st.os_handles)
        };
        for h in handles {
            // The virtual thread caught its own panic; OS-join cannot fail.
            let _ = h.join();
        }
        let mut st = self.lock();
        RunOutcome {
            nodes: std::mem::take(&mut st.nodes),
            violation: st.violation.take(),
            trace: std::mem::take(&mut st.trace),
            pruned: st.pruned,
            det_mismatch: st.det_mismatch.take(),
        }
    }

    /// Picks which pending op runs next. `prev` is the thread that just
    /// executed (preemption accounting) or just finished.
    fn select_next(&self, st: &mut RunState, prev: Option<usize>) {
        if st.draining {
            return;
        }
        let executable = st.executable();
        if executable.is_empty() {
            if st.live > 0 {
                // Only join cycles could get here; the JoinHandle API makes
                // them unconstructible. Record loudly rather than hang.
                st.violation = Some("deadlock: all live threads blocked".to_string());
            }
            st.draining = st.live > 0;
            st.active = None;
            self.cv.notify_all();
            return;
        }
        let mut options: Vec<usize> = executable
            .iter()
            .copied()
            .filter(|&t| !st.threads[t].sleeping)
            .collect();
        if options.is_empty() {
            // Every runnable thread is in the sleep set: this branch is
            // equivalent to one already explored. Finish it cheaply.
            st.pruned = true;
            st.draining = true;
            st.active = None;
            self.cv.notify_all();
            return;
        }
        let prev_runnable = prev.is_some_and(|p| options.contains(&p));
        let chosen = if prev_runnable && st.preemptions >= st.bound {
            // lint:allow(unwrap, guarded by prev_runnable on the preceding line)
            prev.expect("prev_runnable implies prev")
        } else {
            options.sort_unstable();
            if let Some(p) = prev {
                if let Some(pos) = options.iter().position(|&t| t == p) {
                    options.remove(pos);
                    options.insert(0, p);
                }
            }
            let c = st.choose(options.len(), NodeKind::Thread);
            // Sibling options explored in earlier branches of this node go
            // to sleep for this branch.
            for &t in &options[..c] {
                st.threads[t].sleeping = true;
            }
            options[c]
        };
        if prev_runnable && Some(chosen) != prev {
            st.preemptions += 1;
        }
        st.active = Some(chosen);
        self.cv.notify_all();
    }

    /// Executes `op` for thread `me` against the memory model, recording the
    /// trace line and waking dependent sleepers.
    fn exec(&self, st: &mut RunState, me: usize, op: Op) -> OpResult {
        let seq = st.trace.len() + 1;
        let (result, line) = match op {
            Op::Start => {
                st.threads[me].vc.tick(me);
                (OpResult::Unit, format!("t{me} starts"))
            }
            Op::Spawn { child } => {
                st.threads[me].vc.tick(me);
                (OpResult::Unit, format!("t{me} spawns t{child}"))
            }
            Op::Join { child } => {
                let child_vc = st.threads[child].vc.clone();
                st.threads[me].vc.tick(me);
                st.threads[me].vc.join(&child_vc);
                (OpResult::Unit, format!("t{me} joins t{child}"))
            }
            Op::Load { addr, init, o } => {
                let loc = st.loc_of(addr, init);
                let mut vc = std::mem::take(&mut st.threads[me].vc);
                vc.tick(me);
                let mut cands = st.mem.candidates(me, loc, &vc);
                // lint:allow(atomic-seqcst, interpreting the op's declared ordering, not performing a fence)
                if o == Ordering::SeqCst {
                    cands.truncate(1); // newest-first: SeqCst reads newest
                }
                let c = st.choose(cands.len(), NodeKind::Value);
                let idx = cands[c];
                let v = st.mem.read(me, loc, idx, o, &mut vc);
                st.threads[me].vc = vc;
                let stale = if c > 0 {
                    format!(" [stale mo#{idx}]")
                } else {
                    String::new()
                };
                let line = format!("t{me} {} load({o:?}) -> {v:#x}{stale}", st.mem.label(loc));
                self.after_mem_op(st, addr, false);
                (OpResult::Value(v), line)
            }
            Op::Store {
                addr,
                init,
                value,
                o,
            } => {
                let loc = st.loc_of(addr, init);
                let mut vc = std::mem::take(&mut st.threads[me].vc);
                vc.tick(me);
                st.mem.write(me, loc, value, o, &vc);
                st.threads[me].vc = vc;
                let line = format!("t{me} {} store({o:?}) = {value:#x}", st.mem.label(loc));
                self.after_mem_op(st, addr, true);
                (OpResult::Unit, line)
            }
            Op::Rmw {
                addr,
                init,
                kind,
                o,
            } => {
                let loc = st.loc_of(addr, init);
                let mut vc = std::mem::take(&mut st.threads[me].vc);
                vc.tick(me);
                let (_, old) = st.mem.latest(loc);
                let new = kind.apply(old);
                let read = st.mem.rmw(me, loc, new, o, &mut vc);
                debug_assert_eq!(read, old);
                st.threads[me].vc = vc;
                let line = format!(
                    "t{me} {} {}({o:?}) {old:#x} -> {new:#x}",
                    st.mem.label(loc),
                    kind.name()
                );
                self.after_mem_op(st, addr, true);
                (OpResult::Value(old), line)
            }
            Op::CmpEx {
                addr,
                init,
                current,
                new,
                success,
                failure,
            } => {
                let loc = st.loc_of(addr, init);
                let mut vc = std::mem::take(&mut st.threads[me].vc);
                vc.tick(me);
                let (idx, old) = st.mem.latest(loc);
                let ok = old == current;
                if ok {
                    st.mem.rmw(me, loc, new, success, &mut vc);
                } else {
                    st.mem.read(me, loc, idx, failure, &mut vc);
                }
                st.threads[me].vc = vc;
                let line = if ok {
                    format!(
                        "t{me} {} cas({success:?}) {old:#x} -> {new:#x}",
                        st.mem.label(loc)
                    )
                } else {
                    format!(
                        "t{me} {} cas({success:?}) failed: saw {old:#x}, wanted {current:#x}",
                        st.mem.label(loc)
                    )
                };
                self.after_mem_op(st, addr, ok);
                (OpResult::Cas(old, ok), line)
            }
            Op::OnceInit { addr } => {
                let loc = st.loc_of(addr, 0);
                let mut vc = std::mem::take(&mut st.threads[me].vc);
                vc.tick(me);
                let (_, old) = st.mem.latest(loc);
                st.mem.rmw(me, loc, old + 1, Ordering::AcqRel, &mut vc);
                st.threads[me].vc = vc;
                let line = format!("t{me} {} once_init (#{})", st.mem.label(loc), old + 1);
                self.after_mem_op(st, addr, true);
                (OpResult::Value(old), line)
            }
        };
        st.trace.push(format!("{seq:3}. {line}"));
        result
    }

    fn after_mem_op(&self, st: &mut RunState, addr: usize, wrote: bool) {
        st.wake_dependent(addr, wrote);
    }

    /// Drain-mode execution: no scheduling, no choices, no clocks — just
    /// keep values coherent (newest store) so threads can run to completion.
    fn exec_drain(&self, mut st: MutexGuard<'_, RunState>, me: usize, op: Op) -> OpResult {
        match op {
            Op::Start | Op::Spawn { .. } => OpResult::Unit,
            Op::Join { child } => {
                while !st.threads[child].finished {
                    st = self
                        .cv
                        .wait(st)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                OpResult::Unit
            }
            Op::Load { addr, init, .. } => {
                let loc = st.loc_of(addr, init);
                let (_, v) = st.mem.latest(loc);
                OpResult::Value(v)
            }
            Op::Store {
                addr,
                init,
                value,
                o,
            } => {
                let loc = st.loc_of(addr, init);
                let vc = st.threads[me].vc.clone();
                st.mem.write(me, loc, value, o, &vc);
                OpResult::Unit
            }
            Op::Rmw {
                addr,
                init,
                kind,
                o,
            } => {
                let loc = st.loc_of(addr, init);
                let mut vc = std::mem::take(&mut st.threads[me].vc);
                let (_, old) = st.mem.latest(loc);
                let read = st.mem.rmw(me, loc, kind.apply(old), o, &mut vc);
                st.threads[me].vc = vc;
                OpResult::Value(read)
            }
            Op::CmpEx {
                addr,
                init,
                current,
                new,
                success,
                ..
            } => {
                let loc = st.loc_of(addr, init);
                let (_, old) = st.mem.latest(loc);
                if old == current {
                    let mut vc = std::mem::take(&mut st.threads[me].vc);
                    st.mem.rmw(me, loc, new, success, &mut vc);
                    st.threads[me].vc = vc;
                }
                OpResult::Cas(old, old == current)
            }
            Op::OnceInit { addr } => {
                let loc = st.loc_of(addr, 0);
                let (_, old) = st.mem.latest(loc);
                let mut vc = std::mem::take(&mut st.threads[me].vc);
                st.mem.rmw(me, loc, old + 1, Ordering::AcqRel, &mut vc);
                st.threads[me].vc = vc;
                OpResult::Value(old)
            }
        }
    }
}

fn thread_body(shared: Arc<RunShared>, tid: usize, f: impl FnOnce() + Send + 'static) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&shared), tid)));
    shared.initial_park(tid);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CURRENT.with(|c| *c.borrow_mut() = None);
    let panic_msg = result.err().map(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string())
    });
    shared.finish_thread(tid, panic_msg);
}
