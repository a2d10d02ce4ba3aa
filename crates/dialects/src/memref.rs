//! The `memref` dialect: allocation, load/store, and the cast from bare
//! pointers that the extracted stencil module uses to rebuild a memref from
//! the `llvm_ptr` handed over by FIR (§3 of the paper).

use fsc_ir::{Attribute, Module, OpBuilder, OpId, Type, ValueId};

/// `memref.alloc`.
pub const ALLOC: &str = "memref.alloc";
/// `memref.dealloc`.
pub const DEALLOC: &str = "memref.dealloc";
/// `memref.load`.
pub const LOAD: &str = "memref.load";
/// `memref.store`.
pub const STORE: &str = "memref.store";
/// `memref.copy`.
pub const COPY: &str = "memref.copy";
/// Build a memref view over an externally provided pointer. MLIR spells a
/// close relative `memref.view`/`unrealized_conversion_cast`; we keep one
/// explicit op because the paper's flow relies on exactly this seam.
pub const FROM_PTR: &str = "memref.from_ptr";

/// Allocate a memref of the given type.
pub fn alloc(b: &mut OpBuilder, ty: Type) -> ValueId {
    debug_assert!(matches!(ty, Type::MemRef { .. }));
    b.op1(ALLOC, vec![], ty, vec![]).1
}

/// Deallocate a memref.
pub fn dealloc(b: &mut OpBuilder, memref: ValueId) -> OpId {
    b.op(DEALLOC, vec![memref], vec![], vec![])
}

/// Load `memref[indices]`; result is the element type.
pub fn load(b: &mut OpBuilder, memref: ValueId, indices: Vec<ValueId>) -> ValueId {
    let elem = b
        .module_ref()
        .value_type(memref)
        .elem_type()
        .expect("memref.load on non-memref")
        .clone();
    let mut operands = vec![memref];
    operands.extend(indices);
    b.op1(LOAD, operands, elem, vec![]).1
}

/// Store `value` into `memref[indices]`.
pub fn store(b: &mut OpBuilder, value: ValueId, memref: ValueId, indices: Vec<ValueId>) -> OpId {
    let mut operands = vec![value, memref];
    operands.extend(indices);
    b.op(STORE, operands, vec![], vec![])
}

/// Copy the contents of one memref into another of the same shape.
pub fn copy(b: &mut OpBuilder, src: ValueId, dst: ValueId) -> OpId {
    b.op(COPY, vec![src, dst], vec![], vec![])
}

/// Attribute of a [`FROM_PTR`] view: the global coordinate of its first
/// element per dimension. Addresses already fold it in; the distributed
/// executor needs it to turn iteration coordinates into slab indices.
pub const LOWER_BOUNDS: &str = "lower_bounds";

/// Rebuild a typed memref from a bare pointer argument (the hand-off from
/// the FIR module described in §3). The target shape is carried on the op.
pub fn from_ptr(b: &mut OpBuilder, ptr: ValueId, memref_ty: Type) -> ValueId {
    debug_assert!(matches!(memref_ty, Type::MemRef { .. }));
    b.op1(
        FROM_PTR,
        vec![ptr],
        memref_ty.clone(),
        vec![("target_type", Attribute::Type(memref_ty))],
    )
    .1
}

/// Extract the static shape of a memref-typed value.
pub fn shape_of(m: &Module, memref: ValueId) -> Option<Vec<i64>> {
    match m.value_type(memref) {
        Type::MemRef { shape, .. } => Some(shape.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith;

    #[test]
    fn alloc_load_store_types() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let mr = alloc(&mut b, Type::memref(vec![8, 8], Type::f64()));
        let i = arith::const_index(&mut b, 0);
        let j = arith::const_index(&mut b, 1);
        let v = load(&mut b, mr, vec![i, j]);
        assert_eq!(m.value_type(v), &Type::f64());
        let mut b = OpBuilder::at_end(&mut m, top);
        let st = store(&mut b, v, mr, vec![i, j]);
        assert_eq!(m.op(st).operands.len(), 4);
        assert_eq!(shape_of(&m, mr), Some(vec![8, 8]));
    }

    #[test]
    fn from_ptr_records_target_type() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let ptr = b
            .op1(
                "test.ptr",
                vec![],
                Type::LlvmPtr(Some(Box::new(Type::f64()))),
                vec![],
            )
            .1;
        let ty = Type::memref(vec![16], Type::f64());
        let mr = from_ptr(&mut b, ptr, ty.clone());
        assert_eq!(m.value_type(mr), &ty);
        let op = m.defining_op(mr).unwrap();
        assert_eq!(m.op(op).attr("target_type").unwrap().as_type(), Some(&ty));
    }
}
