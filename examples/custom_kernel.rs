//! Bring your own loop: author a kernel in the IR builder, declare its
//! memory regions, and let CGPA pipeline it.
//!
//! The kernel is a sparse dot-product walk:
//! `for (; n; n = n->next) sum += n->w * vec[n->col];` — a linked-list
//! traversal (sequential section), an irregular gather plus multiply
//! (parallel section), and a reduction (sequential section): S-P-S.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa::flows::{run, Design, RunSpec};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Ty};
use cgpa_kernels::BuiltKernel;
use cgpa_sim::{SimMemory, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Node layout: w f32 @0, col i32 @4, next ptr @8; elem 12.
    let mut b =
        FunctionBuilder::new("spdot", &[("head", Ty::Ptr), ("vec", Ty::Ptr)], Some(Ty::F32));
    let head = b.param(0);
    let vec = b.param(1);
    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");
    let null = b.const_ptr(0);
    let zf = b.const_f32(0.0);
    b.br(header);
    b.switch_to(header);
    let p = b.phi(Ty::Ptr, "n");
    let sum = b.phi(Ty::F32, "sum");
    let done = b.icmp(IntPredicate::Eq, p, null);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let w = b.load(p, Ty::F32);
    let col_addr = b.field(p, 4);
    let col = b.load(col_addr, Ty::I32);
    let va = b.gep(vec, col, 4, 0);
    let v = b.load(va, Ty::F32);
    let prod = b.binary(BinOp::FMul, w, v);
    let sum2 = b.binary(BinOp::FAdd, sum, prod);
    let na = b.field(p, 8);
    let next = b.load(na, Ty::Ptr);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(sum));
    b.add_phi_incoming(p, b.entry_block(), head);
    b.add_phi_incoming(p, body, next);
    b.add_phi_incoming(sum, b.entry_block(), zf);
    b.add_phi_incoming(sum, body, sum2);
    let func = b.finish()?;

    // Alias facts: the node list is an acyclic traversal, `vec` is
    // read-only.
    let mut mm = MemoryModel::new();
    let nodes = mm.add_region("nodes", 12, true, true);
    let dense = mm.add_region("vec", 4, true, false);
    mm.bind_param(0, nodes);
    mm.bind_param(1, dense);
    mm.field_pointee(nodes, 8, nodes);

    // Workload: 300 nodes, dense vector of 1024 floats.
    let mut mem = SimMemory::new(1 << 20);
    let vecbase = mem.alloc(4 * 1024, 4);
    for i in 0..1024 {
        mem.write_f32(vecbase + 4 * i, (i % 17) as f32 * 0.25);
    }
    let mut addrs = Vec::new();
    for i in 0..300u32 {
        mem.pad((i * 29) % 96);
        addrs.push(mem.alloc(12, 4));
    }
    for (i, &a) in addrs.iter().enumerate() {
        mem.write_f32(a, 1.0 + (i % 7) as f32);
        mem.write_i32(a + 4, ((i * 131) % 1024) as i32);
        mem.write_ptr(a + 8, addrs.get(i + 1).copied().unwrap_or(0));
    }

    let kernel = BuiltKernel {
        name: "spdot".to_string(),
        domain: "example",
        description: "sparse dot-product walk",
        func,
        model: mm,
        mem,
        args: vec![Value::Ptr(addrs[0]), Value::Ptr(vecbase)],
        iterations: 300,
    };

    // Compile and inspect the derived pipeline.
    let compiled = CgpaCompiler::new(CgpaConfig::default()).compile(&kernel.func, &kernel.model)?;
    println!("derived pipeline shape: {}", compiled.shape);

    // Run it in hardware; `run` checks the final memory image and the
    // returned sum against the functional reference before reporting.
    let run = run(&kernel, &RunSpec { design: Design::Compiled(&compiled), ..RunSpec::default() })?;
    println!("accelerator finished in {} cycles; results match", run.result.cycles);
    Ok(())
}
