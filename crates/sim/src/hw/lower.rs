//! Worker programs for the event-driven engine.
//!
//! [`lower`] turns one scheduled task — a `(Function, Fsm)` pair — into a
//! flat program once per [`HwSystem`](super::HwSystem): per-state ranges of
//! micro-ops whose operand and result register slots are resolved in
//! advance, and a precomputed exit per state (next state, branch edge or
//! return). Each edge carries its phi move list and a back-edge flag. The
//! ops and edges come from the lowering the reference interpreter shares
//! ([`crate::micro`]). [`step`] then executes a worker for one cycle
//! without touching the IR, with exactly the semantics of the interpretive
//! `step_worker`; the accelerator primitives (`parallel_fork`, …) fail as
//! [`HwError::Unsupported`].
//!
//! Every check stays where the interpreter performs it: an undefined
//! operand, an unsupported op or a missing result register fails when the
//! op executes, never at lowering time. Shapes the lowering does not
//! expect (a block without a terminator, a phi that misses an edge) lower
//! to [`Exit::Malformed`] or an unlowered edge, which hand the transition
//! to the interpreter's `advance` so it fails exactly as it always did.

use super::{
    advance, burn_outcome, pop_elem, push_all_elem, push_elem, HwError, StepOutcome, Worker,
};
use crate::cache::CacheSystem;
use crate::exec::{eval_binary, eval_cast, eval_fcmp, eval_gep, eval_icmp};
use crate::fault::FaultPlan;
use crate::fifo::QueueState;
use crate::mem::SimMemory;
use crate::micro::{Code, Exit, MicroOp, NONE};
use crate::value::Value;
use cgpa_ir::{Function, InstId, Op};
use cgpa_rtl::Fsm;

/// One FSM state.
#[derive(Debug, Clone, Copy)]
struct LState {
    /// Range of `Code::ops`.
    start: u32,
    end: u32,
    /// Length of the FSM state's op list. A worker's cursor rests there
    /// once every op executed, as under the interpreter, so state dumps
    /// read the same under both engines.
    fsm_len: u32,
    min_cycles: u32,
    exit: Exit,
}

/// A task lowered for the event-driven engine.
#[derive(Debug)]
pub(super) struct Program {
    states: Vec<LState>,
    code: Code,
}

/// Lower `func`, scheduled as `fsm`, into a flat program.
pub(super) fn lower(func: &Function, fsm: &Fsm) -> Program {
    let mut code = Code::new(func);
    let mut states = Vec::with_capacity(fsm.states.len());
    for (si, st) in fsm.states.iter().enumerate() {
        let start = code.ops.len() as u32;
        // Trailing terminators need no micro-op; ops keep their FSM index.
        let n = st
            .ops
            .iter()
            .rposition(|&i| !acts_on_completion(&func.inst(i).op))
            .map_or(0, |l| l + 1);
        for &iid in &st.ops[..n] {
            code.push_op(func, iid);
        }
        let exit = if fsm.block_last(st.block).index() == si {
            code.lower_exit(func, st.block, func.terminator(st.block), |to| {
                let target = fsm.block_entry.get(to.index())?.index();
                Some((target as u32, target <= si))
            })
        } else {
            Exit::Next
        };
        states.push(LState {
            start,
            end: code.ops.len() as u32,
            fsm_len: st.ops.len() as u32,
            min_cycles: st.min_cycles,
            exit,
        });
    }
    Program { states, code }
}

/// Ops the interpreter skips while executing a state (they act, if at
/// all, on its completion).
fn acts_on_completion(op: &Op) -> bool {
    matches!(op, Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. } | Op::Phi { .. })
}

impl Program {
    /// Register slots a worker needs.
    pub(super) fn slots(&self) -> usize {
        self.code.slots
    }

    /// The micro-op a worker's cursor points at, if it is inside the
    /// state's op range.
    fn op_at(&self, w: &Worker) -> Option<MicroOp> {
        let st = &self.states[w.state];
        self.code.ops[st.start as usize..st.end as usize].get(w.cursor).copied()
    }
}

/// Read an operand register.
#[inline]
fn get(w: &Worker, s: u32, what: &str) -> Value {
    w.vals[s as usize].expect(what)
}

/// Write a result register; an op without one is malformed.
#[inline]
fn put(
    w: &mut Worker,
    dst: u32,
    v: Value,
    p: &Program,
    ix: usize,
    func: &Function,
    wi: usize,
) -> Result<(), HwError> {
    match w.vals.get_mut(dst as usize) {
        Some(r) => {
            *r = Some(v);
            Ok(())
        }
        None => Err(malformed(func, p.code.insts[ix], wi)),
    }
}

#[cold]
fn malformed(func: &Function, iid: InstId, wi: usize) -> HwError {
    HwError::Malformed { worker: wi as u32, inst: format!("{:?}", func.inst(iid).op) }
}

/// Channel a selector register picks in `q`.
#[inline]
fn channel(w: &Worker, sel: u32, q: &QueueState) -> usize {
    (get(w, sel, "selector").as_i32() as usize) % q.channels()
}

/// The queue handshake a FIFO-blocked worker retries: its queue and, for a
/// produce or consume, the channel its selector picked.
#[derive(Debug, Clone, Copy)]
pub(super) enum Handshake {
    Push { queue: u32, chan: u32 },
    Broadcast { queue: u32 },
    Pop { queue: u32, chan: u32 },
}

impl Handshake {
    /// The handshake of the queue op at a blocked worker's cursor.
    pub(super) fn of(p: &Program, w: &Worker, queues: &[QueueState]) -> Option<Handshake> {
        let chan = |sel, queue: u32| channel(w, sel, &queues[queue as usize]) as u32;
        match p.op_at(w)? {
            MicroOp::Produce { queue, sel, .. } => {
                Some(Handshake::Push { queue, chan: chan(sel, queue) })
            }
            MicroOp::Broadcast { queue, .. } => Some(Handshake::Broadcast { queue }),
            MicroOp::Consume { queue, sel, .. } => {
                Some(Handshake::Pop { queue, chan: chan(sel, queue) })
            }
            _ => None,
        }
    }

    /// The queue the handshake is against.
    pub(super) fn queue(self) -> u32 {
        match self {
            Handshake::Push { queue, .. }
            | Handshake::Broadcast { queue }
            | Handshake::Pop { queue, .. } => queue,
        }
    }

    /// True on the push side (the queue is full), false on the pop side.
    pub(super) fn is_push(self) -> bool {
        !matches!(self, Handshake::Pop { .. })
    }

    /// True when a retry would complete. A retry against an unchanged
    /// queue fails exactly as the last attempt did, so a blocked worker
    /// can sleep until this holds.
    #[inline]
    pub(super) fn ready(self, queues: &[QueueState]) -> bool {
        match self {
            Handshake::Push { queue, chan } => queues[queue as usize].can_push(chan as usize),
            Handshake::Broadcast { queue } => queues[queue as usize].can_push_all(),
            Handshake::Pop { queue, chan } => queues[queue as usize].can_pop(chan as usize),
        }
    }
}

/// Advance one worker by one cycle: the lowered equivalent of the
/// interpreter's `step_worker`, with identical timing, statistics and
/// errors.
#[allow(clippy::too_many_arguments)]
pub(super) fn step(
    p: &Program,
    func: &Function,
    fsm: &Fsm,
    w: &mut Worker,
    queues: &mut [QueueState],
    cache: &mut CacheSystem,
    mem: &mut SimMemory,
    liveouts: &mut [Option<Value>],
    cycle: u64,
    wi: usize,
    fault: &mut Option<FaultPlan>,
) -> Result<StepOutcome, HwError> {
    debug_assert!(!w.finished, "finished workers leave the live list");
    let st = p.states[w.state];
    if !w.entered {
        w.entered = true;
        w.cursor = 0;
        w.min_left = st.min_cycles;
    }
    if let Some(done) = w.mem_wait {
        if cycle < done {
            w.stats.stall_mem_read += 1;
            return Ok(StepOutcome::MemWait { until: done });
        }
        w.mem_wait = None;
    }

    let len = (st.end - st.start) as usize;
    while w.cursor < len {
        let ix = st.start as usize + w.cursor;
        match p.code.ops[ix] {
            MicroOp::Nop => {}
            MicroOp::Load { addr, ty, dst } => {
                let a = get(w, addr, "load address").as_ptr();
                let v = mem.read_value(a, ty);
                put(w, dst, v, p, ix, func, wi)?;
                let mut done = cache.request(cycle, a);
                if let Some(plan) = fault.as_mut() {
                    done += plan.mem_penalty(cycle);
                }
                w.cursor += 1;
                w.stats.busy += 1;
                let until = done.max(cycle + 1);
                w.mem_wait = Some(until);
                return Ok(StepOutcome::MemWait { until });
            }
            MicroOp::Store { addr, value } => {
                let a = get(w, addr, "store address").as_ptr();
                mem.write_value(a, get(w, value, "store value"));
                let _ = cache.request(cycle, a);
            }
            MicroOp::Produce { queue, sel, value } => {
                let chan = channel(w, sel, &queues[queue as usize]);
                if !queues[queue as usize].can_push(chan) {
                    w.stats.credit_fifo(queue, true, 1);
                    return Ok(StepOutcome::FifoWait { queue, push: true });
                }
                let v = get(w, value, "produced value");
                w.extra_wait += push_elem(queues, queue as usize, chan, v, cycle, fault) - 1;
            }
            MicroOp::Broadcast { queue, value } => {
                if !queues[queue as usize].can_push_all() {
                    w.stats.credit_fifo(queue, true, 1);
                    return Ok(StepOutcome::FifoWait { queue, push: true });
                }
                let v = get(w, value, "broadcast value");
                w.extra_wait += push_all_elem(queues, queue as usize, v, cycle, fault) - 1;
            }
            MicroOp::Consume { queue, sel, ty, dst } => {
                let chan = channel(w, sel, &queues[queue as usize]);
                if !queues[queue as usize].can_pop(chan) {
                    w.stats.credit_fifo(queue, false, 1);
                    return Ok(StepOutcome::FifoWait { queue, push: false });
                }
                let v = pop_elem(queues, queue as usize, chan, cycle)?;
                put(w, dst, v, p, ix, func, wi)?;
                w.extra_wait += ty.fifo_beats() - 1;
            }
            MicroOp::Binary { op, lhs, rhs, dst } => {
                let r = eval_binary(op, get(w, lhs, OPERAND), get(w, rhs, OPERAND))?;
                put(w, dst, r, p, ix, func, wi)?;
            }
            MicroOp::ICmp { pred, lhs, rhs, dst } => {
                let r = eval_icmp(pred, get(w, lhs, OPERAND), get(w, rhs, OPERAND))?;
                put(w, dst, r, p, ix, func, wi)?;
            }
            MicroOp::FCmp { pred, lhs, rhs, dst } => {
                let r = eval_fcmp(pred, get(w, lhs, OPERAND), get(w, rhs, OPERAND));
                put(w, dst, r, p, ix, func, wi)?;
            }
            MicroOp::Select { cond, on_true, on_false, dst } => {
                let pick = if get(w, cond, OPERAND).as_bool() { on_true } else { on_false };
                let r = get(w, pick, OPERAND);
                put(w, dst, r, p, ix, func, wi)?;
            }
            MicroOp::Cast { kind, value, to, dst } => {
                let r = eval_cast(kind, get(w, value, OPERAND), to)?;
                put(w, dst, r, p, ix, func, wi)?;
            }
            MicroOp::Gep { base, index, scale, offset, dst } => {
                let b = get(w, base, OPERAND);
                let idx = (index != NONE).then(|| get(w, index, OPERAND));
                let r = eval_gep(b, idx, scale, offset);
                put(w, dst, r, p, ix, func, wi)?;
            }
            MicroOp::StoreLiveout { slot, value } => {
                liveouts[slot as usize] = Some(get(w, value, OPERAND));
            }
            MicroOp::Fork { .. } | MicroOp::Join | MicroOp::RetrieveLiveout { .. } => {
                let op = &func.inst(p.code.insts[ix]).op;
                return Err(HwError::Unsupported(format!("{op:?}")));
            }
        }
        w.cursor += 1;
    }
    w.cursor = st.fsm_len as usize;

    // All ops executed: burn any remaining beat/latency cycles, then leave.
    w.stats.busy += 1;
    if w.extra_wait > 0 {
        w.extra_wait -= 1;
        return Ok(burn_outcome(w, cycle));
    }
    if w.min_left > 1 {
        w.min_left -= 1;
        return Ok(burn_outcome(w, cycle));
    }
    match st.exit {
        Exit::Next => {
            w.state += 1;
            w.entered = false;
        }
        Exit::Jump(e) => take(p, func, fsm, w, e),
        Exit::Branch { cond, on_true, on_false } => {
            let e = if get(w, cond, "branch condition").as_bool() { on_true } else { on_false };
            take(p, func, fsm, w, e);
        }
        Exit::Ret { value } => {
            w.ret = (value != NONE).then(|| get(w, value, "return value"));
            w.finished = true;
        }
        Exit::Malformed => advance(func, fsm, w),
    }
    Ok(StepOutcome::Active)
}

/// Expect message of a datapath operand read.
const OPERAND: &str = "operand evaluated in schedule order";

/// Take edge `e`: phi moves, iteration count, next state. An edge that
/// could not be lowered goes through the interpreter's `advance`.
#[inline]
fn take(p: &Program, func: &Function, fsm: &Fsm, w: &mut Worker, e: u32) {
    if e == NONE {
        return advance(func, fsm, w);
    }
    let edge = p.code.edges[e as usize];
    for &(dst, src) in &p.code.moves[edge.moves.0 as usize..edge.moves.1 as usize] {
        w.vals[dst as usize] = Some(get(w, src, "incoming"));
    }
    if edge.back {
        w.stats.iterations += 1;
    }
    w.state = edge.target as usize;
    w.entered = false;
}
