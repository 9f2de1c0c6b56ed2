//! Negative tests: the flow harness must *catch* bad inputs — unsound
//! alias annotations that parallelize a genuinely sequential loop, and
//! undersized simulations.

use cgpa::compiler::{CgpaCompiler, CgpaConfig, CompileError};
use cgpa::flows::{run_cgpa, FlowError};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Function, Ty, ValueId};
use cgpa_kernels::BuiltKernel;
use cgpa_pipeline::{PartitionError, TransformError};
use cgpa_sim::{SimMemory, Value};

/// `for (i = 0; i < n; i++) *acc = *acc + a[i];` — a memory-carried
/// reduction through one cell.
fn acc_loop() -> Function {
    let (mut b, _, _) = acc_loop_to_exit();
    b.ret(None);
    b.finish().unwrap()
}

/// [`acc_loop`] with an exit tail that runs a `Ptr * Ptr` multiply (legal to
/// the IR verifier, unexecutable) only when the sum came out right: a
/// pipeline that loses updates skips it, the functional reference cannot.
fn acc_loop_poisoned_if_correct() -> Function {
    let (mut b, a, acc) = acc_loop_to_exit();
    let poison = b.append_block("poison");
    let done = b.append_block("done");
    let sum = b.load(acc, Ty::I32);
    let expected = b.const_i32((1..=64).sum());
    let correct = b.icmp(IntPredicate::Eq, sum, expected);
    b.cond_br(correct, poison, done);
    b.switch_to(poison);
    let bad = b.binary(BinOp::Mul, a, a);
    b.store(acc, bad);
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    b.finish().unwrap()
}

/// The accumulator loop up to its exit block, which is left current and
/// unterminated; also returns the `a` and `acc` parameters.
fn acc_loop_to_exit() -> (FunctionBuilder, ValueId, ValueId) {
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
    b.add_phi_incoming(i, b.entry_block(), zero);
    b.add_phi_incoming(i, body, i2);
    b.switch_to(exit);
    (b, a, acc)
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

/// A model that falsely claims the accumulator cell is distinct per
/// iteration, so the loop compiles to a pipeline.
fn lying_model() -> MemoryModel {
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let racc = mm.add_region("acc", 4, false, true);
    mm.bind_param(0, ra);
    mm.bind_param(1, racc);
    mm
}

/// The sound annotation of [`acc_loop`]: `acc` is read-write and NOT
/// distinct per iteration.
fn honest_model() -> MemoryModel {
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let racc = mm.add_region("acc", 4, false, false);
    mm.bind_param(0, ra);
    mm.bind_param(1, racc);
    mm
}

#[test]
fn sound_annotations_reject_the_sequential_loop() {
    let k = workload(acc_loop(), honest_model());
    let err = CgpaCompiler::new(CgpaConfig::default()).compile(&k.func, &k.model).unwrap_err();
    assert!(matches!(err, CompileError::Partition(PartitionError::NoParallelWork)));
}

#[test]
fn compile_cache_keys_on_the_memory_model() {
    // The lying model pipelines the loop; the same IR under the honest
    // model must not be served that design from the cache.
    let cache = cgpa::dse::CompileCache::new();
    let config = CgpaConfig::default();
    cache.get_or_compile(&acc_loop(), &lying_model(), config).expect("the lie pipelines");
    let err = cache.get_or_compile(&acc_loop(), &honest_model(), config).unwrap_err();
    assert!(matches!(err, CompileError::Partition(PartitionError::NoParallelWork)), "{err}");
    let stats = cache.stats();
    assert_eq!((stats.compiles, stats.hits), (1, 0));
}

/// `for (i = 0; i < n; i++) { if (a[i] == 0) return 1; b[i] = a[i] * a[i]; }
/// return 0;` — a unique preheader, but two exit targets.
fn early_return_loop() -> Function {
    let mut b = FunctionBuilder::new(
        "early_return",
        &[("a", Ty::Ptr), ("b", Ty::Ptr), ("n", Ty::I32)],
        Some(Ty::I32),
    );
    let (a, out, n) = (b.param(0), b.param(1), b.param(2));
    let header = b.append_block("header");
    let check = b.append_block("check");
    let body = b.append_block("body");
    let found = b.append_block("found");
    let done = b.append_block("done");
    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Ty::I32, "i");
    let c = b.icmp(IntPredicate::Slt, i, n);
    b.cond_br(c, check, done);
    b.switch_to(check);
    let pa = b.gep(a, i, 4, 0);
    let x = b.load(pa, Ty::I32);
    let is_zero = b.icmp(IntPredicate::Eq, x, zero);
    b.cond_br(is_zero, found, body);
    b.switch_to(body);
    let pb = b.gep(out, i, 4, 0);
    let sq = b.binary(BinOp::Mul, x, x);
    b.store(pb, sq);
    let i2 = b.binary(BinOp::Add, i, one);
    b.br(header);
    b.add_phi_incoming(i, b.entry_block(), zero);
    b.add_phi_incoming(i, body, i2);
    b.switch_to(found);
    b.ret(Some(one));
    b.switch_to(done);
    b.ret(Some(zero));
    b.finish().unwrap()
}

#[test]
fn a_second_exit_target_is_reported_as_such() {
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let rb = mm.add_region("b", 4, false, true);
    mm.bind_param(0, ra);
    mm.bind_param(1, rb);
    let err =
        CgpaCompiler::new(CgpaConfig::default()).compile(&early_return_loop(), &mm).unwrap_err();
    assert!(
        matches!(err, CompileError::Transform(TransformError::MultipleExitTargets(2))),
        "{err:?}"
    );
    assert_eq!(err.to_string(), "transform: target loop needs a unique exit target, found 2");
}

#[test]
fn unsound_annotations_are_caught_by_verification() {
    // A *lying* model claims the accumulator cell is touched by a different
    // address every iteration. The partitioner then believes the loop is
    // parallel; the harness must catch the wrong result rather than report
    // a bogus speedup.
    let k = workload(acc_loop(), lying_model());
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
    use cgpa::dse::{climb, CompileCache, DseLattice, DsePoint};
    use cgpa::flows::{run_cgpa_dse, HwTuning};
    use cgpa_sim::{HwError, InterpError};

    // The lying model lets the poisoned loop compile to a pipeline; the
    // reference cannot run.
    let k = workload(ptr_mul_loop(), lying_model());
    assert!(matches!(k.try_reference(), Err(InterpError::UnsupportedOp(_))));

    // `run` computes the reference beside compile and simulation. Here the
    // pipeline executes the op too, and the hardware's error wins.
    let err = run_cgpa(&k, CgpaConfig::default()).unwrap_err();
    assert!(matches!(&err, FlowError::Hw(HwError::Unsupported(_))), "{err:?}");
    // When the hardware run completes, verification reports the failed
    // reference: the pipeline loses updates and skips the poisoned tail.
    let skips = workload(acc_loop_poisoned_if_correct(), lying_model());
    assert!(matches!(skips.try_reference(), Err(InterpError::UnsupportedOp(_))));
    let err = run_cgpa(&skips, CgpaConfig::default()).unwrap_err();
    assert!(matches!(&err, FlowError::Interp(m) if m.starts_with("acc reference: ")), "{err}");

    // The walk and the explorer compute their one reference up front.
    let cache = CompileCache::new();
    let err = climb(&k, DsePoint::default(), HwTuning::default(), &cache).unwrap_err();
    assert!(matches!(&err, FlowError::Interp(m) if m.contains("reference")), "{err}");
    let lattice = DseLattice { workers: vec![1, 2], ..DseLattice::quick() };
    let err = run_cgpa_dse(&k, &lattice, HwTuning::default(), u32::MAX, &cache).unwrap_err();
    assert!(matches!(&err, FlowError::Interp(m) if m.contains("reference")), "{err}");
}

#[test]
fn a_wrong_answer_is_a_mismatch() {
    use cgpa::flows::{run, Design, RunSpec};
    use cgpa_ir::{Const, ValueDef};
    use cgpa_kernels::gaussblur;

    // Compile a copy of the quick gaussblur whose first tap coefficient is
    // doubled, then run that design against the unaltered kernel: every
    // stored pixel differs from the reference.
    let k = gaussblur::build(&gaussblur::Params { width: 512 }, 1);
    let mut func = k.func.clone();
    let coef = func
        .values
        .iter_mut()
        .find_map(|v| match v {
            ValueDef::Const(Const::F32(c)) => Some(c),
            _ => None,
        })
        .expect("gaussblur has tap coefficients");
    *coef *= 2.0;
    let config = CgpaConfig::default();
    let c = CgpaCompiler::new(config).compile(&func, &k.model).unwrap();
    let design = Design::Compiled(&c);
    let err = run(&k, &RunSpec { config, design, ..RunSpec::default() }).unwrap_err();
    match err {
        FlowError::Mismatch(msg) => {
            assert!(msg.contains("gaussblur: memory state differs"), "{msg}");
            assert!(msg.contains("differing word"), "diff report missing: {msg}");
        }
        other => panic!("want FlowError::Mismatch, got {other:?}"),
    }
}
