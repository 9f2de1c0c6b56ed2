//! Bit-accurate functional semantics of the IR operations, shared by the
//! reference interpreter, the MIPS model, and the hardware simulator.

use crate::value::Value;
use cgpa_ir::{BinOp, CastKind, FloatPredicate, IntPredicate, Ty};
use std::error::Error;
use std::fmt;

/// An op/value combination the execution semantics do not define.
///
/// The IR verifier rejects most of these statically, but some legal-looking
/// combinations slip through (e.g. an integer `mul` on two pointers), and
/// unverified functions reach the interpreter through the degradation
/// ladder — so the evaluators return this instead of panicking, and the
/// engines surface it as `InterpError::UnsupportedOp` / `HwError::Unsupported`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ExecError {}

/// Evaluate a binary operation.
///
/// Integer arithmetic wraps (two's complement); `sdiv`/`srem` by zero
/// return 0 / the dividend respectively, modelling a hardware divider that
/// never traps.
///
/// # Errors
/// [`ExecError`] on operand-type combinations the semantics do not define.
pub fn eval_binary(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    use Value as V;
    Ok(match (op, a, b) {
        // 32-bit integer (pointers take part in address arithmetic).
        (BinOp::Add, V::I32(x), V::I32(y)) => V::I32(x.wrapping_add(y)),
        (BinOp::Sub, V::I32(x), V::I32(y)) => V::I32(x.wrapping_sub(y)),
        (BinOp::Mul, V::I32(x), V::I32(y)) => V::I32(x.wrapping_mul(y)),
        (BinOp::SDiv, V::I32(x), V::I32(y)) => V::I32(if y == 0 { 0 } else { x.wrapping_div(y) }),
        (BinOp::SRem, V::I32(x), V::I32(y)) => V::I32(if y == 0 { x } else { x.wrapping_rem(y) }),
        (BinOp::And, V::I32(x), V::I32(y)) => V::I32(x & y),
        (BinOp::Or, V::I32(x), V::I32(y)) => V::I32(x | y),
        (BinOp::Xor, V::I32(x), V::I32(y)) => V::I32(x ^ y),
        (BinOp::Shl, V::I32(x), V::I32(y)) => V::I32(x.wrapping_shl(y as u32)),
        (BinOp::LShr, V::I32(x), V::I32(y)) => V::I32(((x as u32) >> (y as u32 & 31)) as i32),
        (BinOp::AShr, V::I32(x), V::I32(y)) => V::I32(x >> (y as u32 & 31)),
        // 64-bit integer.
        (BinOp::Add, V::I64(x), V::I64(y)) => V::I64(x.wrapping_add(y)),
        (BinOp::Sub, V::I64(x), V::I64(y)) => V::I64(x.wrapping_sub(y)),
        (BinOp::Mul, V::I64(x), V::I64(y)) => V::I64(x.wrapping_mul(y)),
        (BinOp::SDiv, V::I64(x), V::I64(y)) => V::I64(if y == 0 { 0 } else { x.wrapping_div(y) }),
        (BinOp::SRem, V::I64(x), V::I64(y)) => V::I64(if y == 0 { x } else { x.wrapping_rem(y) }),
        (BinOp::And, V::I64(x), V::I64(y)) => V::I64(x & y),
        (BinOp::Or, V::I64(x), V::I64(y)) => V::I64(x | y),
        (BinOp::Xor, V::I64(x), V::I64(y)) => V::I64(x ^ y),
        (BinOp::Shl, V::I64(x), V::I64(y)) => V::I64(x.wrapping_shl(y as u32)),
        (BinOp::LShr, V::I64(x), V::I64(y)) => V::I64(((x as u64) >> (y as u32 & 63)) as i64),
        (BinOp::AShr, V::I64(x), V::I64(y)) => V::I64(x >> (y as u32 & 63)),
        // Boolean logic.
        (BinOp::And, V::I1(x), V::I1(y)) => V::I1(x & y),
        (BinOp::Or, V::I1(x), V::I1(y)) => V::I1(x | y),
        (BinOp::Xor, V::I1(x), V::I1(y)) => V::I1(x ^ y),
        // Floating point.
        (BinOp::FAdd, V::F32(x), V::F32(y)) => V::F32(x + y),
        (BinOp::FSub, V::F32(x), V::F32(y)) => V::F32(x - y),
        (BinOp::FMul, V::F32(x), V::F32(y)) => V::F32(x * y),
        (BinOp::FDiv, V::F32(x), V::F32(y)) => V::F32(x / y),
        (BinOp::FAdd, V::F64(x), V::F64(y)) => V::F64(x + y),
        (BinOp::FSub, V::F64(x), V::F64(y)) => V::F64(x - y),
        (BinOp::FMul, V::F64(x), V::F64(y)) => V::F64(x * y),
        (BinOp::FDiv, V::F64(x), V::F64(y)) => V::F64(x / y),
        // Pointer arithmetic (rare; geps are preferred).
        (BinOp::Add, V::Ptr(x), V::I32(y)) => V::Ptr(x.wrapping_add(y as u32)),
        (BinOp::Sub, V::Ptr(x), V::I32(y)) => V::Ptr(x.wrapping_sub(y as u32)),
        (op, a, b) => {
            return Err(ExecError(format!("eval_binary: unsupported {op:?} on {a:?}, {b:?}")))
        }
    })
}

/// Evaluate an integer comparison (pointers compare unsigned).
///
/// # Errors
/// [`ExecError`] on mismatched operand types and on ordered predicates
/// over `i1`, which has no order.
pub fn eval_icmp(pred: IntPredicate, a: Value, b: Value) -> Result<Value, ExecError> {
    use IntPredicate as P;
    let r = match (a, b) {
        (Value::I32(x), Value::I32(y)) => match pred {
            P::Eq => x == y,
            P::Ne => x != y,
            P::Slt => x < y,
            P::Sle => x <= y,
            P::Sgt => x > y,
            P::Sge => x >= y,
            P::Ult => (x as u32) < (y as u32),
            P::Uge => (x as u32) >= (y as u32),
        },
        (Value::I64(x), Value::I64(y)) => match pred {
            P::Eq => x == y,
            P::Ne => x != y,
            P::Slt => x < y,
            P::Sle => x <= y,
            P::Sgt => x > y,
            P::Sge => x >= y,
            P::Ult => (x as u64) < (y as u64),
            P::Uge => (x as u64) >= (y as u64),
        },
        (Value::Ptr(x), Value::Ptr(y)) => match pred {
            P::Eq => x == y,
            P::Ne => x != y,
            P::Slt | P::Ult => x < y,
            P::Sle => x <= y,
            P::Sgt => x > y,
            P::Sge | P::Uge => x >= y,
        },
        (Value::I1(x), Value::I1(y)) => match pred {
            P::Eq => x == y,
            P::Ne => x != y,
            _ => return Err(ExecError(format!("eval_icmp: ordered {pred:?} on i1"))),
        },
        (a, b) => {
            return Err(ExecError(format!("eval_icmp: unsupported {pred:?} on {a:?}, {b:?}")))
        }
    };
    Ok(Value::I1(r))
}

/// Evaluate a float comparison (ordered: NaN compares false).
///
/// # Panics
/// Panics on non-float operands.
#[must_use]
pub fn eval_fcmp(pred: FloatPredicate, a: Value, b: Value) -> Value {
    use FloatPredicate as P;
    let (x, y) = match (a, b) {
        (Value::F32(x), Value::F32(y)) => (f64::from(x), f64::from(y)),
        (Value::F64(x), Value::F64(y)) => (x, y),
        (a, b) => panic!("eval_fcmp on {a:?}, {b:?}"),
    };
    let r = match pred {
        P::Oeq => x == y,
        P::One => x != y && !x.is_nan() && !y.is_nan(),
        P::Olt => x < y,
        P::Ole => x <= y,
        P::Ogt => x > y,
        P::Oge => x >= y,
    };
    Value::I1(r)
}

/// Evaluate a cast.
///
/// # Errors
/// [`ExecError`] on combinations the semantics do not define.
pub fn eval_cast(kind: CastKind, v: Value, to: Ty) -> Result<Value, ExecError> {
    use Value as V;
    Ok(match (kind, v, to) {
        (CastKind::SExt, V::I32(x), Ty::I64) => V::I64(i64::from(x)),
        (CastKind::SExt, V::I1(x), Ty::I32) => V::I32(if x { -1 } else { 0 }),
        (CastKind::ZExt, V::I32(x), Ty::I64) => V::I64(i64::from(x as u32)),
        (CastKind::ZExt, V::I1(x), Ty::I32) => V::I32(i32::from(x)),
        (CastKind::ZExt, V::I1(x), Ty::I64) => V::I64(i64::from(x)),
        (CastKind::Trunc, V::I64(x), Ty::I32) => V::I32(x as i32),
        (CastKind::Trunc, V::I32(x), Ty::I1) => V::I1(x & 1 != 0),
        (CastKind::SiToFp, V::I32(x), Ty::F32) => V::F32(x as f32),
        (CastKind::SiToFp, V::I32(x), Ty::F64) => V::F64(f64::from(x)),
        (CastKind::SiToFp, V::I64(x), Ty::F64) => V::F64(x as f64),
        (CastKind::FpToSi, V::F32(x), Ty::I32) => V::I32(x as i32),
        (CastKind::FpToSi, V::F64(x), Ty::I32) => V::I32(x as i32),
        (CastKind::FpToSi, V::F64(x), Ty::I64) => V::I64(x as i64),
        (CastKind::FpCast, V::F32(x), Ty::F64) => V::F64(f64::from(x)),
        (CastKind::FpCast, V::F64(x), Ty::F32) => V::F32(x as f32),
        (CastKind::PtrCast, V::Ptr(x), Ty::I32) => V::I32(x as i32),
        (CastKind::PtrCast, V::I32(x), Ty::Ptr) => V::Ptr(x as u32),
        (k, v, t) => return Err(ExecError(format!("eval_cast: unsupported {k:?} {v:?} -> {t}"))),
    })
}

/// Evaluate address computation `base + index * scale + offset`.
///
/// # Panics
/// Panics if `base` is not a pointer.
#[must_use]
pub fn eval_gep(base: Value, index: Option<Value>, scale: u32, offset: i32) -> Value {
    let b = base.as_ptr();
    let idx = match index {
        Some(Value::I32(i)) => i64::from(i),
        Some(Value::I64(i)) => i,
        None => 0,
        Some(other) => panic!("gep index {other:?}"),
    };
    let addr = i64::from(b) + idx * i64::from(scale) + i64::from(offset);
    Value::Ptr(addr as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_wrapping() {
        assert_eq!(
            eval_binary(BinOp::Add, Value::I32(i32::MAX), Value::I32(1)),
            Ok(Value::I32(i32::MIN))
        );
        assert_eq!(eval_binary(BinOp::SDiv, Value::I32(7), Value::I32(0)), Ok(Value::I32(0)));
        assert_eq!(eval_binary(BinOp::SRem, Value::I32(7), Value::I32(0)), Ok(Value::I32(7)));
    }

    #[test]
    fn shifts_mask_their_amount() {
        assert_eq!(
            eval_binary(BinOp::LShr, Value::I32(-1), Value::I32(1)),
            Ok(Value::I32(i32::MAX))
        );
        assert_eq!(eval_binary(BinOp::AShr, Value::I32(-8), Value::I32(2)), Ok(Value::I32(-2)));
    }

    #[test]
    fn unsupported_combinations_are_errors_not_panics() {
        // Integer multiply on two pointers passes the verifier's int-like
        // check but has no hardware semantics.
        let e = eval_binary(BinOp::Mul, Value::Ptr(8), Value::Ptr(8)).unwrap_err();
        assert!(e.to_string().contains("unsupported"), "{e}");
        // Float add on mixed widths.
        assert!(eval_binary(BinOp::FAdd, Value::F32(1.0), Value::F64(1.0)).is_err());
        // A cast the semantics do not define.
        let e = eval_cast(CastKind::Trunc, Value::I1(true), Ty::F64).unwrap_err();
        assert!(e.to_string().contains("eval_cast"), "{e}");
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            eval_icmp(IntPredicate::Slt, Value::I32(-1), Value::I32(0)),
            Ok(Value::I1(true))
        );
        assert_eq!(
            eval_icmp(IntPredicate::Ult, Value::I32(-1), Value::I32(0)),
            Ok(Value::I1(false))
        );
        assert_eq!(eval_icmp(IntPredicate::Eq, Value::Ptr(0), Value::Ptr(0)), Ok(Value::I1(true)));
        assert_eq!(
            eval_icmp(IntPredicate::Ne, Value::I1(true), Value::I1(false)),
            Ok(Value::I1(true))
        );
        // i1 has no order, and mixed widths have no comparison.
        let e = eval_icmp(IntPredicate::Sge, Value::I1(true), Value::I1(false)).unwrap_err();
        assert!(e.to_string().contains("on i1"), "{e}");
        assert!(eval_icmp(IntPredicate::Eq, Value::I32(0), Value::I64(0)).is_err());
        assert_eq!(
            eval_fcmp(FloatPredicate::Olt, Value::F64(1.0), Value::F64(2.0)),
            Value::I1(true)
        );
        assert_eq!(
            eval_fcmp(FloatPredicate::Oeq, Value::F64(f64::NAN), Value::F64(f64::NAN)),
            Value::I1(false)
        );
    }

    #[test]
    fn casts() {
        assert_eq!(eval_cast(CastKind::SExt, Value::I32(-1), Ty::I64), Ok(Value::I64(-1)));
        assert_eq!(eval_cast(CastKind::ZExt, Value::I32(-1), Ty::I64), Ok(Value::I64(0xffff_ffff)));
        assert_eq!(eval_cast(CastKind::SiToFp, Value::I32(3), Ty::F64), Ok(Value::F64(3.0)));
        assert_eq!(eval_cast(CastKind::PtrCast, Value::Ptr(16), Ty::I32), Ok(Value::I32(16)));
    }

    #[test]
    fn gep_arithmetic() {
        assert_eq!(eval_gep(Value::Ptr(100), Some(Value::I32(3)), 8, 4), Value::Ptr(128));
        assert_eq!(eval_gep(Value::Ptr(100), None, 0, -4), Value::Ptr(96));
        assert_eq!(eval_gep(Value::Ptr(100), Some(Value::I32(-2)), 8, 0), Value::Ptr(84));
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(eval_binary(BinOp::FMul, Value::F32(2.0), Value::F32(3.0)), Ok(Value::F32(6.0)));
        assert_eq!(
            eval_binary(BinOp::FSub, Value::F64(1.0), Value::F64(0.25)),
            Ok(Value::F64(0.75))
        );
    }
}
