//! Micro-ops: the one lowering of IR instructions and CFG edges that both
//! flat executors run.
//!
//! The reference interpreter ([`crate::interp`]) lowers a function per
//! block and the event-driven hardware engine (`hw::lower`) lowers a
//! scheduled function per FSM state, but both append to one [`Code`]:
//! micro-ops whose operand and result register slots are resolved in
//! advance, the source instruction of each op, and per-edge parallel phi
//! move lists. This is the only place an instruction's `Op` is matched to
//! execute it; each executor then dispatches on [`MicroOp`] alone and
//! rejects the variants it does not model (queue ops in the interpreter,
//! accelerator primitives in the hardware engine).
//!
//! Lowering never fails. Malformed shapes lower to markers that fail only
//! when they execute: an edge whose target phi lacks an incoming value or
//! a result lowers to [`NONE`], and a block without a terminator lowers to
//! [`Exit::Malformed`].

use cgpa_ir::{
    BinOp, BlockId, CastKind, FloatPredicate, Function, InstId, IntPredicate, Op, Ty, ValueId,
};

/// Slot or edge index meaning "none": an op without a result register, a
/// `gep` without an index, a `ret` without a value, an edge that could not
/// be lowered.
pub(crate) const NONE: u32 = u32::MAX;

/// One operation with its register slots resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroOp {
    /// A terminator or phi: it acts on leaving or entering a block, not in
    /// place.
    Nop,
    Load {
        addr: u32,
        ty: Ty,
        dst: u32,
    },
    Store {
        addr: u32,
        value: u32,
    },
    Produce {
        queue: u32,
        sel: u32,
        value: u32,
    },
    Broadcast {
        queue: u32,
        value: u32,
    },
    Consume {
        queue: u32,
        sel: u32,
        ty: Ty,
        dst: u32,
    },
    Binary {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
    },
    ICmp {
        pred: IntPredicate,
        lhs: u32,
        rhs: u32,
        dst: u32,
    },
    FCmp {
        pred: FloatPredicate,
        lhs: u32,
        rhs: u32,
        dst: u32,
    },
    Select {
        cond: u32,
        on_true: u32,
        on_false: u32,
        dst: u32,
    },
    Cast {
        kind: CastKind,
        value: u32,
        to: Ty,
        dst: u32,
    },
    Gep {
        base: u32,
        index: u32,
        scale: u32,
        offset: i32,
        dst: u32,
    },
    StoreLiveout {
        slot: u32,
        value: u32,
    },
    /// Hand the live-ins `Code::lists[live_ins.0..live_ins.1]` to the
    /// accelerator.
    Fork {
        loop_id: u32,
        live_ins: (u32, u32),
    },
    Join,
    RetrieveLiveout {
        slot: u32,
        dst: u32,
    },
}

/// How a block (or the last FSM state of one) is left.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exit {
    /// Fall through to the next FSM state of the same block (hardware
    /// engine only).
    Next,
    /// Take edge `Code::edges[.0]` ([`NONE`] when it could not be lowered).
    Jump(u32),
    /// Take one of two edges on the `i1` in slot `cond`.
    Branch { cond: u32, on_true: u32, on_false: u32 },
    /// Finish, returning the value in slot `value` (or none).
    Ret { value: u32 },
    /// The block has no terminator.
    Malformed,
}

/// A CFG edge between two blocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// Where execution continues: a block index or an FSM state index.
    pub(crate) target: u32,
    /// The edge closes a loop iteration (FSM lowering only).
    pub(crate) back: bool,
    /// Range of `Code::moves` executed on the edge, in order.
    pub(crate) moves: (u32, u32),
    /// Range of `Code::phis`: the phis the edge updates, in block order.
    pub(crate) phis: (u32, u32),
}

/// Flat lowered code.
#[derive(Debug)]
pub(crate) struct Code {
    pub(crate) ops: Vec<MicroOp>,
    /// Source instruction of each op, for hooks and error messages.
    pub(crate) insts: Vec<InstId>,
    /// Operand lists of variable-arity ops.
    pub(crate) lists: Vec<u32>,
    pub(crate) edges: Vec<Edge>,
    /// Phi moves `(dst, src)`. An edge whose phis read each other's
    /// results goes through staging slots so the moves stay parallel.
    pub(crate) moves: Vec<(u32, u32)>,
    /// Phi instructions of each edge.
    pub(crate) phis: Vec<InstId>,
    /// Register slots an executor needs: the function's values plus
    /// staging slots.
    pub(crate) slots: usize,
}

fn slot(v: ValueId) -> u32 {
    v.index() as u32
}

impl Code {
    /// Empty code for `func`'s register file.
    pub(crate) fn new(func: &Function) -> Code {
        Code {
            ops: Vec::new(),
            insts: Vec::new(),
            lists: Vec::new(),
            edges: Vec::new(),
            moves: Vec::new(),
            phis: Vec::new(),
            slots: func.values.len(),
        }
    }

    /// Append the micro-op of instruction `iid`.
    pub(crate) fn push_op(&mut self, func: &Function, iid: InstId) {
        let inst = func.inst(iid);
        let dst = inst.result.map_or(NONE, slot);
        let op = match &inst.op {
            Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. } | Op::Phi { .. } => MicroOp::Nop,
            &Op::Load { addr, ty } => MicroOp::Load { addr: slot(addr), ty, dst },
            &Op::Store { addr, value } => MicroOp::Store { addr: slot(addr), value: slot(value) },
            &Op::Produce { queue, worker_sel, value } => MicroOp::Produce {
                queue: queue.index() as u32,
                sel: slot(worker_sel),
                value: slot(value),
            },
            &Op::ProduceBroadcast { queue, value } => {
                MicroOp::Broadcast { queue: queue.index() as u32, value: slot(value) }
            }
            &Op::Consume { queue, channel_sel, ty } => {
                MicroOp::Consume { queue: queue.index() as u32, sel: slot(channel_sel), ty, dst }
            }
            &Op::Binary { op, lhs, rhs } => {
                MicroOp::Binary { op, lhs: slot(lhs), rhs: slot(rhs), dst }
            }
            &Op::ICmp { pred, lhs, rhs } => {
                MicroOp::ICmp { pred, lhs: slot(lhs), rhs: slot(rhs), dst }
            }
            &Op::FCmp { pred, lhs, rhs } => {
                MicroOp::FCmp { pred, lhs: slot(lhs), rhs: slot(rhs), dst }
            }
            &Op::Select { cond, on_true, on_false } => MicroOp::Select {
                cond: slot(cond),
                on_true: slot(on_true),
                on_false: slot(on_false),
                dst,
            },
            &Op::Cast { kind, value, to } => MicroOp::Cast { kind, value: slot(value), to, dst },
            &Op::Gep { base, index, scale, offset } => MicroOp::Gep {
                base: slot(base),
                index: index.map_or(NONE, slot),
                scale,
                offset,
                dst,
            },
            &Op::StoreLiveout { slot: s, value } => {
                MicroOp::StoreLiveout { slot: s, value: slot(value) }
            }
            Op::ParallelFork { loop_id, live_ins } => {
                let start = self.lists.len() as u32;
                self.lists.extend(live_ins.iter().map(|&v| slot(v)));
                MicroOp::Fork { loop_id: *loop_id, live_ins: (start, self.lists.len() as u32) }
            }
            Op::ParallelJoin { .. } => MicroOp::Join,
            &Op::RetrieveLiveout { slot: s, .. } => MicroOp::RetrieveLiveout { slot: s, dst },
        };
        self.ops.push(op);
        self.insts.push(iid);
    }

    /// The exit of `from`, ended by `term`. `target` maps a successor block
    /// to where execution continues and whether the edge is a back edge;
    /// `None` makes the edge unlowerable.
    pub(crate) fn lower_exit(
        &mut self,
        func: &Function,
        from: BlockId,
        term: Option<InstId>,
        target: impl Fn(BlockId) -> Option<(u32, bool)>,
    ) -> Exit {
        let Some(term) = term else { return Exit::Malformed };
        match func.inst(term).op {
            Op::Br { target: to } => Exit::Jump(self.push_edge(func, from, to, &target)),
            Op::CondBr { cond, on_true, on_false } => Exit::Branch {
                cond: slot(cond),
                on_true: self.push_edge(func, from, on_true, &target),
                on_false: self.push_edge(func, from, on_false, &target),
            },
            Op::Ret { value } => Exit::Ret { value: value.map_or(NONE, slot) },
            _ => Exit::Malformed,
        }
    }

    /// Lower the edge `from -> to`; [`NONE`] when a phi of `to` lacks an
    /// incoming value or result for it, or `to` has no target.
    fn push_edge(
        &mut self,
        func: &Function,
        from: BlockId,
        to: BlockId,
        target: &impl Fn(BlockId) -> Option<(u32, bool)>,
    ) -> u32 {
        let (Some((target, back)), Some(block)) = (target(to), func.blocks.get(to.index())) else {
            return NONE;
        };
        let mut moves: Vec<(u32, u32)> = Vec::new();
        let mut phis: Vec<InstId> = Vec::new();
        for &iid in &block.insts {
            let inst = func.inst(iid);
            let Op::Phi { incomings, .. } = &inst.op else { break };
            let (Some(&(_, v)), Some(r)) =
                (incomings.iter().find(|(b, _)| *b == from), inst.result)
            else {
                return NONE;
            };
            moves.push((slot(r), slot(v)));
            phis.push(iid);
        }
        let start = self.moves.len() as u32;
        // Phis update in parallel: a move may not read a result an earlier
        // move of the same edge already wrote.
        let clobbers = moves
            .iter()
            .enumerate()
            .any(|(i, &(_, src))| moves[..i].iter().any(|&(d, _)| d == src));
        if clobbers {
            let stage = self.slots as u32;
            self.slots += moves.len();
            self.moves
                .extend(moves.iter().enumerate().map(|(i, &(_, src))| (stage + i as u32, src)));
            self.moves
                .extend(moves.iter().enumerate().map(|(i, &(dst, _))| (dst, stage + i as u32)));
        } else {
            self.moves.extend(moves);
        }
        let phi_start = self.phis.len() as u32;
        self.phis.extend(phis);
        self.edges.push(Edge {
            target,
            back,
            moves: (start, self.moves.len() as u32),
            phis: (phi_start, self.phis.len() as u32),
        });
        self.edges.len() as u32 - 1
    }
}
