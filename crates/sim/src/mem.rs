//! Byte-addressable simulated memory with a bump allocator.
//!
//! Kernels lay their data structures out here; the allocator supports
//! explicit padding so workload generators can scatter linked-list nodes
//! (the irregular-layout behaviour that makes em3d/ks/hash-indexing
//! cache-hostile on the real machine).

use crate::value::Value;
use cgpa_ir::Ty;

/// Simulated physical memory. Address 0 is reserved (null), allocation
/// starts at a small offset.
#[derive(Debug, Clone)]
pub struct SimMemory {
    bytes: Vec<u8>,
    cursor: u32,
}

impl SimMemory {
    /// Create a memory of `size` bytes (allocation starts at 64).
    ///
    /// # Panics
    /// Panics if `size` < 128.
    #[must_use]
    pub fn new(size: u32) -> Self {
        assert!(size >= 128, "memory too small");
        SimMemory { bytes: vec![0; size as usize], cursor: 64 }
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Allocate `size` bytes aligned to `align` (power of two).
    ///
    /// # Panics
    /// Panics when memory is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, size: u32, align: u32) -> u32 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.cursor + align - 1) & !(align - 1);
        let end = base.checked_add(size).expect("allocation overflow");
        assert!(
            (end as usize) <= self.bytes.len(),
            "simulated memory exhausted: need {end}, have {}",
            self.bytes.len()
        );
        self.cursor = end;
        base
    }

    /// Skip `pad` bytes (used by workload generators to scatter nodes
    /// across cache lines).
    pub fn pad(&mut self, pad: u32) {
        self.cursor = self.cursor.saturating_add(pad);
    }

    /// Read `len` raw bytes.
    ///
    /// # Panics
    /// Panics on out-of-range access (a simulated segfault).
    #[must_use]
    pub fn read_bytes(&self, addr: u32, len: u32) -> &[u8] {
        let (a, l) = (addr as usize, len as usize);
        assert!(a + l <= self.bytes.len(), "read out of range at {addr:#x}+{len}");
        &self.bytes[a..a + l]
    }

    /// Write raw bytes.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let a = addr as usize;
        assert!(a + data.len() <= self.bytes.len(), "write out of range at {addr:#x}");
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    /// Typed read.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    #[must_use]
    pub fn read_value(&self, addr: u32, ty: Ty) -> Value {
        match ty {
            Ty::I1 => Value::I1(self.load::<1>(addr)[0] & 1 != 0),
            Ty::I32 => Value::I32(i32::from_le_bytes(self.load(addr))),
            Ty::I64 => Value::I64(i64::from_le_bytes(self.load(addr))),
            Ty::F32 => Value::F32(f32::from_le_bytes(self.load(addr))),
            Ty::F64 => Value::F64(f64::from_le_bytes(self.load(addr))),
            Ty::Ptr => Value::Ptr(u32::from_le_bytes(self.load(addr))),
        }
    }

    /// The `N` bytes at `addr`, read with a size known at compile time.
    #[inline]
    fn load<const N: usize>(&self, addr: u32) -> [u8; N] {
        let a = addr as usize;
        match self.bytes.get(a..a + N) {
            Some(raw) => raw.try_into().expect("slice of length N"),
            None => panic!("read out of range at {addr:#x}+{N}"),
        }
    }

    /// Typed write.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    pub fn write_value(&mut self, addr: u32, value: Value) {
        match value {
            Value::I1(b) => self.write_bytes(addr, &[u8::from(b)]),
            Value::I32(v) => self.write_bytes(addr, &v.to_le_bytes()),
            Value::I64(v) => self.write_bytes(addr, &v.to_le_bytes()),
            Value::F32(v) => self.write_bytes(addr, &v.to_le_bytes()),
            Value::F64(v) => self.write_bytes(addr, &v.to_le_bytes()),
            Value::Ptr(v) => self.write_bytes(addr, &v.to_le_bytes()),
        }
    }

    /// Convenience typed accessors used by workload generators.
    #[must_use]
    pub fn read_i32(&self, addr: u32) -> i32 {
        match self.read_value(addr, Ty::I32) {
            Value::I32(v) => v,
            _ => unreachable!(),
        }
    }

    /// Read an `f64`.
    #[must_use]
    pub fn read_f64(&self, addr: u32) -> f64 {
        match self.read_value(addr, Ty::F64) {
            Value::F64(v) => v,
            _ => unreachable!(),
        }
    }

    /// Read an `f32`.
    #[must_use]
    pub fn read_f32(&self, addr: u32) -> f32 {
        match self.read_value(addr, Ty::F32) {
            Value::F32(v) => v,
            _ => unreachable!(),
        }
    }

    /// Read a pointer.
    #[must_use]
    pub fn read_ptr(&self, addr: u32) -> u32 {
        match self.read_value(addr, Ty::Ptr) {
            Value::Ptr(v) => v,
            _ => unreachable!(),
        }
    }

    /// Write an `i32`.
    pub fn write_i32(&mut self, addr: u32, v: i32) {
        self.write_value(addr, Value::I32(v));
    }

    /// Write an `f64`.
    pub fn write_f64(&mut self, addr: u32, v: f64) {
        self.write_value(addr, Value::F64(v));
    }

    /// Write an `f32`.
    pub fn write_f32(&mut self, addr: u32, v: f32) {
        self.write_value(addr, Value::F32(v));
    }

    /// Write a pointer.
    pub fn write_ptr(&mut self, addr: u32, v: u32) {
        self.write_value(addr, Value::Ptr(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_order() {
        let mut m = SimMemory::new(4096);
        let a = m.alloc(10, 8);
        let b = m.alloc(16, 16);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 16, 0);
        assert!(b >= a + 10);
    }

    #[test]
    fn typed_roundtrip() {
        let mut m = SimMemory::new(4096);
        let a = m.alloc(64, 8);
        m.write_f64(a, -1.25);
        m.write_i32(a + 8, 42);
        m.write_ptr(a + 12, 0xbeef);
        assert_eq!(m.read_f64(a), -1.25);
        assert_eq!(m.read_i32(a + 8), 42);
        assert_eq!(m.read_ptr(a + 12), 0xbeef);
    }

    #[test]
    fn value_roundtrip_all_types() {
        let mut m = SimMemory::new(4096);
        let a = m.alloc(64, 8);
        for v in [Value::I1(true), Value::I32(-7), Value::I64(1 << 50), Value::F32(2.5)] {
            m.write_value(a, v);
            assert_eq!(m.read_value(a, v.ty()), v);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        let m = SimMemory::new(128);
        let _ = m.read_i32(1000);
    }

    #[test]
    fn padding_scatters() {
        let mut m = SimMemory::new(4096);
        let a = m.alloc(8, 8);
        m.pad(100);
        let b = m.alloc(8, 8);
        assert!(b >= a + 108);
    }
}
