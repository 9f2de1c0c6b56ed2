//! Negative tests: the flow harness must *catch* bad inputs — unsound
//! alias annotations that parallelize a genuinely sequential loop, and
//! undersized simulations.

use cgpa::compiler::{CgpaCompiler, CgpaConfig, CompileError};
use cgpa::flows::{run_cgpa, FlowError};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Function, Ty};
use cgpa_kernels::BuiltKernel;
use cgpa_pipeline::PartitionError;
use cgpa_sim::{SimMemory, Value};

/// `for (i = 0; i < n; i++) *acc = *acc + a[i];` — a memory-carried
/// reduction through one cell.
fn acc_loop() -> Function {
    let mut b =
        FunctionBuilder::new("acc", &[("a", Ty::Ptr), ("acc", Ty::Ptr), ("n", Ty::I32)], None);
    let a = b.param(0);
    let acc = b.param(1);
    let n = b.param(2);
    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");
    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Ty::I32, "i");
    let c = b.icmp(IntPredicate::Slt, i, n);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let pa = b.gep(a, i, 4, 0);
    let x = b.load(pa, Ty::I32);
    let cur = b.load(acc, Ty::I32);
    let s = b.binary(BinOp::Add, cur, x);
    b.store(acc, s);
    let i2 = b.binary(BinOp::Add, i, one);
    b.br(header);
    b.switch_to(exit);
    b.ret(None);
    b.add_phi_incoming(i, b.entry_block(), zero);
    b.add_phi_incoming(i, body, i2);
    b.finish().unwrap()
}

fn workload(func: Function, model: MemoryModel) -> BuiltKernel {
    let mut mem = SimMemory::new(1 << 16);
    let a = mem.alloc(4 * 64, 4);
    let acc = mem.alloc(4, 4);
    for i in 0..64 {
        mem.write_i32(a + 4 * i, i as i32 + 1);
    }
    mem.write_i32(acc, 0);
    BuiltKernel {
        name: "acc".to_string(),
        domain: "test",
        description: "memory-carried accumulator",
        func,
        model,
        mem,
        args: vec![Value::Ptr(a), Value::Ptr(acc), Value::I32(64)],
        iterations: 64,
    }
}

#[test]
fn sound_annotations_reject_the_sequential_loop() {
    // Honest model: `acc` is read-write, NOT distinct per iteration.
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let racc = mm.add_region("acc", 4, false, false);
    mm.bind_param(0, ra);
    mm.bind_param(1, racc);
    let k = workload(acc_loop(), mm);
    let err = CgpaCompiler::new(CgpaConfig::default()).compile(&k.func, &k.model).unwrap_err();
    assert!(matches!(err, CompileError::Partition(PartitionError::NoParallelWork)));
}

#[test]
fn unsound_annotations_are_caught_by_verification() {
    // A *lying* model claims the accumulator cell is touched by a different
    // address every iteration. The partitioner then believes the loop is
    // parallel; the harness must catch the wrong result rather than report
    // a bogus speedup.
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let racc = mm.add_region("acc", 4, false, true); // FALSE claim
    mm.bind_param(0, ra);
    mm.bind_param(1, racc);
    let k = workload(acc_loop(), mm);
    match run_cgpa(&k, CgpaConfig::default()) {
        Err(FlowError::Mismatch(msg)) => {
            // The report pinpoints the corrupted words.
            assert!(msg.contains("differing word"), "diff report missing: {msg}");
        }
        Err(FlowError::Compile(_)) => {} // also acceptable: refused earlier
        Ok(r) => {
            // If the round-robin interleaving happens to produce the right
            // sum the run could pass — integer addition is commutative and
            // each worker read-modify-writes non-atomically, so in practice
            // updates are lost. Accept only a verified-correct result.
            panic!("unsound annotation produced a 'verified' run: {r:?}");
        }
        Err(other) => panic!("unexpected failure mode: {other}"),
    }
}

#[test]
fn fuel_exhaustion_is_reported_not_hung() {
    use cgpa_kernels::em3d;
    use cgpa_sim::{HwConfig, HwSystem};
    let k = em3d::build(&em3d::Params::fixed(200, 200, 8, 16), 1);
    let compiled = CgpaCompiler::new(CgpaConfig::default()).compile(&k.func, &k.model).unwrap();
    let cfg = HwConfig { fuel_cycles: 50, ..HwConfig::default() };
    // Drive the accelerator directly with the kernel head pointer.
    let mut mem = k.mem.clone();
    let mut sys = HwSystem::for_pipeline(&compiled.pipeline, &k.args[..1], cfg);
    let err = sys.run(&mut mem).unwrap_err();
    assert!(matches!(err, cgpa_sim::HwError::Timeout { .. }));
}

/// The accumulator loop with the reduction poisoned by a `Ptr * Ptr`
/// multiply — both operands are int-like so the IR verifier accepts it,
/// but the execution model gives it no semantics.
fn ptr_mul_loop() -> Function {
    let mut b =
        FunctionBuilder::new("acc", &[("a", Ty::Ptr), ("acc", Ty::Ptr), ("n", Ty::I32)], None);
    let a = b.param(0);
    let acc = b.param(1);
    let n = b.param(2);
    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");
    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Ty::I32, "i");
    let c = b.icmp(IntPredicate::Slt, i, n);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let pa = b.gep(a, i, 4, 0);
    let bad = b.binary(BinOp::Mul, pa, pa); // Ptr x Ptr: verifier-legal, unexecutable
    b.store(acc, bad);
    let i2 = b.binary(BinOp::Add, i, one);
    b.br(header);
    b.switch_to(exit);
    b.ret(None);
    b.add_phi_incoming(i, b.entry_block(), zero);
    b.add_phi_incoming(i, body, i2);
    b.finish().unwrap()
}

#[test]
fn unsupported_op_is_a_typed_error_on_every_rung() {
    use cgpa::compiler::DegradationPolicy;
    use cgpa::flows::{run, Design, RunSpec};
    use cgpa_sim::{run_function, HwError, InterpError, NoHooks};

    // Honest model: `acc` is read-write through one cell, so every pipeline
    // shape is refused and the degradation ladder lands on the sequential
    // rung — exactly where the bad op must surface as an error.
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let racc = mm.add_region("acc", 4, false, false);
    mm.bind_param(0, ra);
    mm.bind_param(1, racc);
    let k = workload(ptr_mul_loop(), mm);

    // Functional interpreter: typed error naming the op, not a panic.
    let mut mem = k.mem.clone();
    let err = run_function(&k.func, &k.args, &mut mem, 1_000_000, &mut NoHooks).unwrap_err();
    assert!(matches!(err, InterpError::UnsupportedOp(_)), "want UnsupportedOp, got {err:?}");
    assert!(err.to_string().contains("Mul"), "error should name the op: {err}");

    // Degraded compile still accepts the kernel (nothing about the op is
    // structurally wrong) — and the cycle-level simulator then reports the
    // op as `HwError::Unsupported` instead of aborting the process,
    // whichever rung the ladder landed on.
    let design = Design::Degrade(DegradationPolicy::default());
    let err = run(&k, &RunSpec { design, ..RunSpec::default() }).unwrap_err();
    assert!(
        matches!(err, FlowError::Hw(HwError::Unsupported(_))),
        "want HwError::Unsupported, got {err:?}"
    );
}

/// `fn cmp(x: i1, y: i1) -> i1 { (x == y) < y }` — an ordered compare on
/// booleans, which have no order.
fn ordered_bool_cmp() -> Function {
    let mut b = FunctionBuilder::new("cmp", &[("x", Ty::I1), ("y", Ty::I1)], Some(Ty::I1));
    let x = b.param(0);
    let y = b.param(1);
    let eq = b.icmp(IntPredicate::Eq, x, y);
    let lt = b.icmp(IntPredicate::Slt, eq, y);
    b.ret(Some(lt));
    b.finish_unverified()
}

#[test]
fn ordered_icmp_on_i1_is_rejected_and_never_panics() {
    use cgpa_sim::{run_function, HwConfig, HwError, HwSystem, InterpError, NoHooks, SimEngine};

    let f = ordered_bool_cmp();
    let err = cgpa_ir::verify::verify(&f).unwrap_err();
    assert!(err.to_string().contains("ordered icmp slt on i1"), "{err}");

    // Unverified IR still reaches the engines as a typed error.
    let args = [Value::I1(true), Value::I1(false)];
    let mut mem = SimMemory::new(1 << 12);
    let err = run_function(&f, &args, &mut mem, 1_000, &mut NoHooks).unwrap_err();
    assert!(matches!(err, InterpError::UnsupportedOp(_)), "want UnsupportedOp, got {err:?}");
    for engine in [SimEngine::EventDriven, SimEngine::PerCycle] {
        let cfg = HwConfig { engine, ..HwConfig::default() };
        let err = HwSystem::for_single(&f, &args, cfg).run(&mut mem).unwrap_err();
        assert!(matches!(err, HwError::Unsupported(_)), "{engine:?}: got {err:?}");
    }
}

/// Three malformed functions the verifier would reject, each failing only
/// on the op or edge that executes:
/// - `undefined`: the join reads a value only the skipped arm defines;
/// - `missing_incoming`: the loop header's phi has no value for the back
///   edge;
/// - `no_terminator`: the entry block runs off its end.
fn malformed_functions() -> Vec<(&'static str, Function)> {
    let mut out = Vec::new();

    let mut b = FunctionBuilder::new("undefined", &[("c", Ty::I1)], Some(Ty::I32));
    let c = b.param(0);
    let then = b.append_block("then");
    let join = b.append_block("join");
    let one = b.const_i32(1);
    b.cond_br(c, then, join);
    b.switch_to(then);
    let v = b.binary(BinOp::Add, one, one);
    b.br(join);
    b.switch_to(join);
    let w = b.binary(BinOp::Add, v, one);
    b.ret(Some(w));
    out.push(("undefined", b.finish_unverified()));

    let mut b = FunctionBuilder::new("missing_incoming", &[("c", Ty::I1)], Some(Ty::I32));
    let c = b.param(0);
    let header = b.append_block("header");
    let exit = b.append_block("exit");
    let zero = b.const_i32(0);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Ty::I32, "i");
    b.cond_br(c, header, exit);
    b.switch_to(exit);
    b.ret(Some(i));
    b.add_phi_incoming(i, b.entry_block(), zero);
    out.push(("missing_incoming", b.finish_unverified()));

    let mut b = FunctionBuilder::new("no_terminator", &[("c", Ty::I1)], Some(Ty::I32));
    let one = b.const_i32(1);
    let _ = b.binary(BinOp::Add, one, one);
    out.push(("no_terminator", b.finish_unverified()));
    out
}

#[test]
fn malformed_functions_are_typed_interpreter_errors() {
    use cgpa_sim::{run_function, InterpError, NoHooks};

    for (name, f) in malformed_functions() {
        assert!(cgpa_ir::verify::verify(&f).is_err(), "{name} should not verify");
        let mut mem = SimMemory::new(1 << 12);
        // The arm or edge that is well formed still runs.
        let ok = run_function(&f, &[Value::I1(true)], &mut mem, 1_000, &mut NoHooks);
        let bad = run_function(&f, &[Value::I1(false)], &mut mem, 1_000, &mut NoHooks);
        match name {
            "undefined" => assert_eq!(ok, Ok((Some(Value::I32(3)), 5))),
            "missing_incoming" => assert_eq!(bad, Ok((Some(Value::I32(0)), 4))),
            _ => {}
        }
        let err = if name == "missing_incoming" { ok } else { bad }.unwrap_err();
        assert!(matches!(err, InterpError::Malformed(_)), "{name}: got {err:?}");
        assert!(err.to_string().starts_with("malformed function: "), "{name}: {err}");
    }
}

#[test]
fn a_failing_reference_is_a_typed_flow_error() {
    use cgpa::flows::{run_cgpa_dse, run_cgpa_tuned_auto, HwTuning};
    use cgpa_sim::InterpError;

    // The lying model lets the poisoned loop compile to a pipeline, so the
    // explorer reaches its verification step; the reference cannot run.
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let racc = mm.add_region("acc", 4, false, true);
    mm.bind_param(0, ra);
    mm.bind_param(1, racc);
    let k = workload(ptr_mul_loop(), mm);
    assert!(matches!(k.try_reference(), Err(InterpError::UnsupportedOp(_))));

    let err = run_cgpa_tuned_auto(&k, CgpaConfig::default(), HwTuning::default()).unwrap_err();
    assert!(matches!(&err, FlowError::Interp(m) if m.contains("reference")), "{err}");
    let lattice = cgpa::dse::DseLattice { workers: vec![1, 2], ..cgpa::dse::DseLattice::quick() };
    let cache = cgpa::dse::CompileCache::new();
    let err = run_cgpa_dse(&k, &lattice, HwTuning::default(), u32::MAX, &cache).unwrap_err();
    assert!(matches!(&err, FlowError::Interp(m) if m.contains("reference")), "{err}");
}
