//! Functional reference interpreter for original (un-transformed) kernel
//! functions.
//!
//! Every hardware run in this workspace is validated against this
//! interpreter: same inputs, same simulated memory layout, same results.
//! A hook trait lets the MIPS timing model ride along without duplicating
//! the semantics.
//!
//! Each call first lowers the function with the micro-op lowering the
//! event-driven hardware engine shares (the private `micro` module): per block, a
//! range of micro-ops with resolved register slots (phis left out) and a
//! precomputed exit; per CFG edge, a parallel phi move list, staged when
//! the phis read each other. The run is then a tight loop over that code
//! that never matches on the IR. Its observable behaviour is the
//! instruction-at-a-time semantics:
//!
//! - every non-phi instruction up to a block's first terminator counts
//!   once in the `executed` total and is checked against the fuel before
//!   it runs; phis count on the edge that updates them and are not
//!   fuel-checked;
//! - hooks see, in order: [`ExecHooks::on_inst`] before each instruction
//!   runs, [`ExecHooks::on_mem`] before its memory access,
//!   [`ExecHooks::on_branch`] after a `br`/`cond_br`'s `on_inst`, then
//!   `on_inst` once per phi of the edge taken;
//! - malformed functions fail with [`InterpError::Malformed`] when the
//!   offending op or edge executes, never at lowering time.

use crate::exec::{eval_binary, eval_cast, eval_fcmp, eval_gep, eval_icmp};
use crate::mem::SimMemory;
use crate::micro::{Code, Exit, MicroOp, NONE};
use crate::value::Value;
use cgpa_ir::{BlockId, Function, InstId, Op, ValueDef};
use std::error::Error;
use std::fmt;

/// Observation hooks for a functional run.
pub trait ExecHooks {
    /// Called once per executed instruction (including terminators; phis are
    /// reported too, as register moves).
    fn on_inst(&mut self, func: &Function, inst: InstId);
    /// Called for each data access: address, size, store?
    fn on_mem(&mut self, addr: u32, size: u32, store: bool);
    /// Called at each executed branch: `taken` is true for conditional
    /// branches that branch away from fall-through (timing models charge a
    /// penalty).
    fn on_branch(&mut self, taken: bool);
}

/// The accelerator callback used by [`run_with_accelerator`]: takes the
/// forked loop's id, the live-in values, and memory; returns the liveout
/// register contents.
pub type Accelerator<'a> =
    dyn FnMut(u32, &[Value], &mut SimMemory) -> Result<Vec<Option<Value>>, String> + 'a;

/// Hooks that observe nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl ExecHooks for NoHooks {
    fn on_inst(&mut self, _: &Function, _: InstId) {}
    fn on_mem(&mut self, _: u32, _: u32, _: bool) {}
    fn on_branch(&mut self, _: bool) {}
}

/// Why a functional run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Step budget exhausted (diverging loop or runaway input).
    OutOfFuel,
    /// Argument count doesn't match the signature.
    BadArity { expected: usize, got: usize },
    /// The function executed an accelerator-only primitive, or an op/value
    /// combination the execution semantics do not define.
    UnsupportedOp(String),
    /// The function is not well formed: it reads a value before defining
    /// it, takes an edge into a phi with no incoming value for it, or runs
    /// off the end of a block without a terminator. Each is reported when
    /// the offending op or edge executes.
    Malformed(String),
}

impl From<crate::exec::ExecError> for InterpError {
    fn from(e: crate::exec::ExecError) -> Self {
        InterpError::UnsupportedOp(e.0)
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfFuel => f.write_str("interpreter ran out of fuel"),
            InterpError::BadArity { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            InterpError::UnsupportedOp(op) => {
                write!(f, "cannot interpret {op}")
            }
            InterpError::Malformed(what) => write!(f, "malformed function: {what}"),
        }
    }
}

impl Error for InterpError {}

/// Run `func` functionally.
///
/// Returns the `ret` value (if any) and the number of executed
/// instructions.
///
/// # Errors
/// See [`InterpError`]. Accelerator primitives (`parallel_fork`, …) are
/// rejected; use [`run_with_accelerator`] for transformed parent functions.
pub fn run_function(
    func: &Function,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    hooks: &mut impl ExecHooks,
) -> Result<(Option<Value>, u64), InterpError> {
    let mut reject =
        |_: u32, _: &[Value], _: &mut SimMemory| -> Result<Vec<Option<Value>>, String> {
            Err("no accelerator attached".to_string())
        };
    run_impl(func, args, mem, fuel, hooks, &mut reject, false)
}

/// Run a transformed *parent* function: `parallel_fork` hands the live-in
/// values and memory to `accelerator`, which returns the liveout register
/// contents; `parallel_join` is a no-op (the accelerator ran to
/// completion); `retrieve_liveout` reads the returned registers.
///
/// # Errors
/// See [`InterpError`]; accelerator failures surface as
/// [`InterpError::UnsupportedOp`] with the accelerator's message.
pub fn run_with_accelerator(
    func: &Function,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    accelerator: &mut Accelerator<'_>,
) -> Result<(Option<Value>, u64), InterpError> {
    run_impl(func, args, mem, fuel, &mut NoHooks, accelerator, true)
}

/// A function lowered for the interpreter: per-block ranges of
/// `Code::ops` and a precomputed exit per block.
struct Program {
    code: Code,
    blocks: Vec<Block>,
    /// The register file at entry, constants filled in.
    vals: Vec<Option<Value>>,
}

#[derive(Debug, Clone, Copy)]
struct Block {
    /// Range of `Code::ops`: the block's instructions up to its first
    /// terminator, phis left out (they update on the incoming edge).
    start: u32,
    end: u32,
    /// The terminator (unused when `exit` is `Malformed`).
    term: InstId,
    exit: Exit,
}

/// Lower `func` for one run.
fn lower(func: &Function) -> Program {
    let mut code = Code::new(func);
    let mut blocks = Vec::with_capacity(func.blocks.len());
    for (bi, block) in func.blocks.iter().enumerate() {
        let start = code.ops.len() as u32;
        let mut term = None;
        for &iid in &block.insts {
            match &func.inst(iid).op {
                op if op.is_terminator() => {
                    term = Some(iid);
                    break;
                }
                Op::Phi { .. } => {}
                _ => code.push_op(func, iid),
            }
        }
        let end = code.ops.len() as u32;
        let exit = code.lower_exit(func, BlockId(bi as u32), term, |to| Some((to.0, false)));
        blocks.push(Block { start, end, term: term.unwrap_or(InstId(NONE)), exit });
    }
    let mut vals = vec![None; code.slots];
    for (r, vd) in vals.iter_mut().zip(&func.values) {
        if let ValueDef::Const(c) = vd {
            *r = Some(Value::from(*c));
        }
    }
    Program { code, blocks, vals }
}

#[cold]
fn undefined(func: &Function, iid: InstId) -> InterpError {
    InterpError::Malformed(format!("{:?} reads a value before it is defined", func.inst(iid).op))
}

#[cold]
fn unsupported(func: &Function, iid: InstId) -> InterpError {
    InterpError::UnsupportedOp(format!("{:?}", func.inst(iid).op))
}

#[cold]
fn malformed_block(func: &Function, block: usize, what: &str) -> InterpError {
    let name = func.blocks.get(block).map_or("<none>", |b| b.name.as_str());
    InterpError::Malformed(format!("block {block} ({name}) {what}"))
}

#[allow(clippy::too_many_lines)]
fn run_impl(
    func: &Function,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    hooks: &mut impl ExecHooks,
    accelerator: &mut Accelerator<'_>,
    allow_primitives: bool,
) -> Result<(Option<Value>, u64), InterpError> {
    if args.len() != func.params.len() {
        return Err(InterpError::BadArity { expected: func.params.len(), got: args.len() });
    }
    let Program { code, blocks, mut vals } = lower(func);
    for (r, v) in vals.iter_mut().zip(args) {
        *r = Some(*v);
    }
    // Read operand register `s` of instruction `at`; an undefined one is
    // malformed IR.
    macro_rules! get {
        ($s:expr, $at:expr) => {
            match vals.get($s as usize) {
                Some(Some(v)) => *v,
                _ => return Err(undefined(func, $at)),
            }
        };
    }
    let mut liveout_regs: Vec<Option<Value>> = Vec::new();
    let mut executed = 0u64;
    let mut b = func.entry().index();
    loop {
        let Some(&blk) = blocks.get(b) else {
            return Err(malformed_block(func, b, "does not exist"));
        };
        let (start, end) = (blk.start as usize, blk.end as usize);
        for (&op, &iid) in code.ops[start..end].iter().zip(&code.insts[start..end]) {
            executed += 1;
            if executed > fuel {
                return Err(InterpError::OutOfFuel);
            }
            hooks.on_inst(func, iid);
            let (dst, result) = match op {
                MicroOp::Binary { op, lhs, rhs, dst } => {
                    (dst, eval_binary(op, get!(lhs, iid), get!(rhs, iid))?)
                }
                MicroOp::ICmp { pred, lhs, rhs, dst } => {
                    (dst, eval_icmp(pred, get!(lhs, iid), get!(rhs, iid))?)
                }
                MicroOp::FCmp { pred, lhs, rhs, dst } => {
                    (dst, eval_fcmp(pred, get!(lhs, iid), get!(rhs, iid)))
                }
                MicroOp::Select { cond, on_true, on_false, dst } => (
                    dst,
                    if get!(cond, iid).as_bool() {
                        get!(on_true, iid)
                    } else {
                        get!(on_false, iid)
                    },
                ),
                MicroOp::Cast { kind, value, to, dst } => {
                    (dst, eval_cast(kind, get!(value, iid), to)?)
                }
                MicroOp::Gep { base, index, scale, offset, dst } => {
                    let idx = if index == NONE { None } else { Some(get!(index, iid)) };
                    (dst, eval_gep(get!(base, iid), idx, scale, offset))
                }
                MicroOp::Load { addr, ty, dst } => {
                    let a = get!(addr, iid).as_ptr();
                    hooks.on_mem(a, ty.size_bytes(), false);
                    (dst, mem.read_value(a, ty))
                }
                MicroOp::Store { addr, value } => {
                    let a = get!(addr, iid).as_ptr();
                    let v = get!(value, iid);
                    hooks.on_mem(a, v.ty().size_bytes(), true);
                    mem.write_value(a, v);
                    continue;
                }
                MicroOp::Fork { loop_id, live_ins: (s, e) } if allow_primitives => {
                    let mut live_ins: Vec<Value> = Vec::with_capacity((e - s) as usize);
                    for &v in &code.lists[s as usize..e as usize] {
                        live_ins.push(get!(v, iid));
                    }
                    let regs =
                        accelerator(loop_id, &live_ins, mem).map_err(InterpError::UnsupportedOp)?;
                    // Liveout registers are shared hardware: later loops'
                    // slots extend/overwrite earlier ones.
                    if regs.len() > liveout_regs.len() {
                        liveout_regs.resize(regs.len(), None);
                    }
                    for (i, r) in regs.into_iter().enumerate() {
                        if r.is_some() {
                            liveout_regs[i] = r;
                        }
                    }
                    continue;
                }
                MicroOp::Join if allow_primitives => continue,
                MicroOp::RetrieveLiveout { slot, dst } if allow_primitives => {
                    let v =
                        liveout_regs.get(slot as usize).copied().flatten().ok_or_else(|| {
                            InterpError::UnsupportedOp(format!("liveout {slot} never stored"))
                        })?;
                    (dst, v)
                }
                _ => return Err(unsupported(func, iid)),
            };
            if let Some(r) = vals.get_mut(dst as usize) {
                *r = Some(result);
            }
        }

        // The terminator.
        if matches!(blk.exit, Exit::Malformed | Exit::Next) {
            return Err(malformed_block(func, b, "has no terminator"));
        }
        executed += 1;
        if executed > fuel {
            return Err(InterpError::OutOfFuel);
        }
        let iid = blk.term;
        hooks.on_inst(func, iid);
        let edge = match blk.exit {
            Exit::Jump(e) => {
                hooks.on_branch(false);
                e
            }
            Exit::Branch { cond, on_true, on_false } => {
                let taken = get!(cond, iid).as_bool();
                hooks.on_branch(taken);
                if taken {
                    on_true
                } else {
                    on_false
                }
            }
            Exit::Ret { value } => {
                let ret = if value == NONE { None } else { Some(get!(value, iid)) };
                return Ok((ret, executed));
            }
            Exit::Malformed | Exit::Next => unreachable!("rejected above"),
        };

        // Phis update in parallel on the edge taken.
        let Some(&e) = code.edges.get(edge as usize) else {
            return Err(malformed_block(
                func,
                b,
                "branches to a block without one of its phis' incoming values for this edge",
            ));
        };
        for &iid in &code.phis[e.phis.0 as usize..e.phis.1 as usize] {
            hooks.on_inst(func, iid);
        }
        executed += u64::from(e.phis.1 - e.phis.0);
        for &(dst, src) in &code.moves[e.moves.0 as usize..e.moves.1 as usize] {
            let (Some(&Some(v)), true) = (vals.get(src as usize), (dst as usize) < vals.len())
            else {
                let what = "has a phi whose incoming value is undefined on the edge taken";
                return Err(malformed_block(func, e.target as usize, what));
            };
            vals[dst as usize] = Some(v);
        }
        b = e.target as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Ty};

    /// `fn sum(a: ptr, n: i32) -> f64` — sums `n` doubles.
    fn sum_fn() -> Function {
        let mut b = FunctionBuilder::new("sum", &[("a", Ty::Ptr), ("n", Ty::I32)], Some(Ty::F64));
        let a = b.param(0);
        let n = b.param(1);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        let zf = b.const_f64(0.0);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let s = b.phi(Ty::F64, "s");
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let p = b.gep(a, i, 8, 0);
        let x = b.load(p, Ty::F64);
        let s2 = b.binary(BinOp::FAdd, s, x);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(s));
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(s, b.entry_block(), zf);
        b.add_phi_incoming(s, body, s2);
        b.finish().unwrap()
    }

    #[test]
    fn sums_an_array() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(10 * 8, 8);
        for i in 0..10 {
            mem.write_f64(base + i * 8, f64::from(i));
        }
        let (ret, executed) =
            run_function(&f, &[Value::Ptr(base), Value::I32(10)], &mut mem, 100_000, &mut NoHooks)
                .unwrap();
        assert_eq!(ret, Some(Value::F64(45.0)));
        assert!(executed > 50);
    }

    #[test]
    fn zero_iterations() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 12);
        let (ret, _) =
            run_function(&f, &[Value::Ptr(64), Value::I32(0)], &mut mem, 1000, &mut NoHooks)
                .unwrap();
        assert_eq!(ret, Some(Value::F64(0.0)));
    }

    #[test]
    fn fuel_limits_divergence() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(8 * 1000, 8);
        let err =
            run_function(&f, &[Value::Ptr(base), Value::I32(1000)], &mut mem, 100, &mut NoHooks)
                .unwrap_err();
        assert_eq!(err, InterpError::OutOfFuel);
    }

    #[test]
    fn arity_checked() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 12);
        let err = run_function(&f, &[Value::I32(3)], &mut mem, 100, &mut NoHooks).unwrap_err();
        assert_eq!(err, InterpError::BadArity { expected: 2, got: 1 });
    }

    /// `fn swap(n: i32) -> i32`: `(a, b) = (1, 2)`, then `(a, b) = (b, a)`
    /// `n` times; returns `10 * a + b`.
    fn swap_fn() -> Function {
        let mut b = FunctionBuilder::new("swap", &[("n", Ty::I32)], Some(Ty::I32));
        let n = b.param(0);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let (zero, one, two, ten) =
            (b.const_i32(0), b.const_i32(1), b.const_i32(2), b.const_i32(10));
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let x = b.phi(Ty::I32, "a");
        let y = b.phi(Ty::I32, "b");
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        let hi = b.binary(BinOp::Mul, x, ten);
        let r = b.binary(BinOp::Add, hi, y);
        b.ret(Some(r));
        let entry = b.entry_block();
        for (phi, init, next) in [(i, zero, i2), (x, one, y), (y, two, x)] {
            b.add_phi_incoming(phi, entry, init);
            b.add_phi_incoming(phi, body, next);
        }
        b.finish().unwrap()
    }

    #[test]
    fn swapping_phis_update_in_parallel() {
        let f = swap_fn();
        let mut mem = SimMemory::new(1 << 12);
        for (n, want) in [(0, 12), (1, 21), (2, 12), (5, 21)] {
            let (ret, _) =
                run_function(&f, &[Value::I32(n)], &mut mem, 1000, &mut NoHooks).unwrap();
            assert_eq!(ret, Some(Value::I32(want)), "n = {n}");
        }
    }

    #[test]
    fn executed_counts_terminators_and_phis_and_fuel_is_exact() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(10 * 8, 8);
        let args = [Value::Ptr(base), Value::I32(10)];
        // entry `br` (1) + entry edge phis (2) + header (2), then per
        // iteration body (5) + back-edge phis (2) + header (2), then `ret`.
        let count = 1 + 2 + 2 + 10 * (5 + 2 + 2) + 1;
        let (_, executed) = run_function(&f, &args, &mut mem, count, &mut NoHooks).unwrap();
        assert_eq!(executed, count);
        let err = run_function(&f, &args, &mut mem, count - 1, &mut NoHooks).unwrap_err();
        assert_eq!(err, InterpError::OutOfFuel);
    }

    #[test]
    fn hooks_see_one_loop_iteration_in_order() {
        #[derive(Debug, PartialEq)]
        enum Ev {
            Inst(InstId),
            Mem(u32, u32, bool),
            Branch(bool),
        }
        struct Log(Vec<Ev>);
        impl ExecHooks for Log {
            fn on_inst(&mut self, _: &Function, inst: InstId) {
                self.0.push(Ev::Inst(inst));
            }
            fn on_mem(&mut self, addr: u32, size: u32, store: bool) {
                self.0.push(Ev::Mem(addr, size, store));
            }
            fn on_branch(&mut self, taken: bool) {
                self.0.push(Ev::Branch(taken));
            }
        }
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 12);
        let base = mem.alloc(8, 8);
        let mut log = Log(Vec::new());
        run_function(&f, &[Value::Ptr(base), Value::I32(1)], &mut mem, 100, &mut log).unwrap();
        let insts = |b: usize| f.blocks[b].insts.iter().map(|&i| Ev::Inst(i));
        // Blocks: entry, header (two phis, icmp, cond_br), body (gep, load,
        // fadd, add, br), exit (ret).
        let phis = || insts(1).take(2);
        let header = || insts(1).skip(2);
        let mut want: Vec<Ev> = insts(0).collect();
        want.push(Ev::Branch(false));
        want.extend(phis());
        want.extend(header());
        want.push(Ev::Branch(true));
        let body: Vec<Ev> = insts(2).collect();
        let mut body = body.into_iter();
        want.extend(body.by_ref().take(2));
        want.push(Ev::Mem(base, 8, false));
        want.extend(body);
        want.push(Ev::Branch(false));
        want.extend(phis());
        want.extend(header());
        want.push(Ev::Branch(false));
        want.extend(insts(3));
        assert_eq!(log.0, want);
    }

    #[test]
    fn hooks_observe_memory_traffic() {
        struct Count {
            loads: u32,
            branches: u32,
        }
        impl ExecHooks for Count {
            fn on_inst(&mut self, _: &Function, _: InstId) {}
            fn on_mem(&mut self, _: u32, _: u32, store: bool) {
                if !store {
                    self.loads += 1;
                }
            }
            fn on_branch(&mut self, _: bool) {
                self.branches += 1;
            }
        }
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(5 * 8, 8);
        let mut hooks = Count { loads: 0, branches: 0 };
        run_function(&f, &[Value::Ptr(base), Value::I32(5)], &mut mem, 10_000, &mut hooks).unwrap();
        assert_eq!(hooks.loads, 5);
        assert!(hooks.branches >= 11); // entry + 6 header + 5 latches
    }
}
