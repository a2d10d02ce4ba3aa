//! The `gpu` dialect: kernel outlining targets, launches and the two data
//! management strategies compared in the paper's Figure 5.
//!
//! * the *initial data approach*: [`HOST_REGISTER`] pins host memory and
//!   lets the device fault pages across PCIe on demand;
//! * the *optimised data approach*: explicit [`ALLOC`] / [`MEMCPY`] /
//!   [`DEALLOC`] inserted by a bespoke management pass.

use fsc_ir::{Attribute, BlockId, Module, OpBuilder, OpId, Type, ValueId};

/// `gpu.module` — container for device code (isolated from above).
pub const MODULE: &str = "gpu.module";
/// `gpu.func` — a kernel function inside a `gpu.module`.
pub const FUNC: &str = "gpu.func";
/// `gpu.return` — terminator of `gpu.func` bodies.
pub const RETURN: &str = "gpu.return";
/// `gpu.launch_func` — launch a kernel over a grid of thread blocks.
pub const LAUNCH_FUNC: &str = "gpu.launch_func";
/// `gpu.host_register` — page-lock host memory for on-demand device access.
pub const HOST_REGISTER: &str = "gpu.host_register";
/// `gpu.alloc` — allocate device memory.
pub const ALLOC: &str = "gpu.alloc";
/// `gpu.dealloc` — free device memory.
pub const DEALLOC: &str = "gpu.dealloc";
/// `gpu.memcpy` — copy between host and device.
pub const MEMCPY: &str = "gpu.memcpy";
/// `gpu.thread_id` / `gpu.block_id` / `gpu.block_dim` — intra-kernel ids.
pub const THREAD_ID: &str = "gpu.thread_id";
/// See [`THREAD_ID`].
pub const BLOCK_ID: &str = "gpu.block_id";
/// See [`THREAD_ID`].
pub const BLOCK_DIM: &str = "gpu.block_dim";

/// Direction of a `gpu.memcpy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDirection {
    /// Host to device.
    HostToDevice,
    /// Device to host.
    DeviceToHost,
}

impl CopyDirection {
    /// Attribute spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CopyDirection::HostToDevice => "h2d",
            CopyDirection::DeviceToHost => "d2h",
        }
    }

    /// Parse the attribute spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "h2d" => Some(CopyDirection::HostToDevice),
            "d2h" => Some(CopyDirection::DeviceToHost),
            _ => None,
        }
    }
}

/// Create a `gpu.module` named `name` at module top level; returns its body.
pub fn build_gpu_module(m: &mut Module, name: &str) -> (OpId, BlockId) {
    let op = m.create_op(
        MODULE,
        vec![],
        vec![],
        vec![("sym_name", Attribute::string(name))],
    );
    let top = m.top_block();
    m.append_op(top, op);
    let region = m.add_region(op);
    let body = m.add_block(region, &[]);
    (op, body)
}

/// Build `gpu.launch_func @kernel` with static grid/block dims and the
/// given kernel arguments.
pub fn build_launch_func(
    b: &mut OpBuilder,
    kernel: &str,
    grid: [i64; 3],
    block: [i64; 3],
    args: Vec<ValueId>,
) -> OpId {
    b.op(
        LAUNCH_FUNC,
        args,
        vec![],
        vec![
            ("kernel", Attribute::symbol(kernel)),
            ("grid_size", Attribute::IndexList(grid.to_vec())),
            ("block_size", Attribute::IndexList(block.to_vec())),
        ],
    )
}

/// Grid and block sizes of a `gpu.launch_func`.
pub fn launch_dims(m: &Module, op: OpId) -> Option<([i64; 3], [i64; 3])> {
    let grid = m.op(op).attr("grid_size")?.as_index_list()?;
    let block = m.op(op).attr("block_size")?.as_index_list()?;
    Some(([grid[0], grid[1], grid[2]], [block[0], block[1], block[2]]))
}

/// Build `gpu.host_register` on a memref (initial data strategy).
pub fn host_register(b: &mut OpBuilder, memref: ValueId) -> OpId {
    b.op(HOST_REGISTER, vec![memref], vec![], vec![])
}

/// Build `gpu.alloc` for a device buffer of the same memref type as `like`'s
/// type (explicit data strategy).
pub fn alloc(b: &mut OpBuilder, ty: Type) -> ValueId {
    b.op1(
        ALLOC,
        vec![],
        ty,
        vec![("memory_space", Attribute::string("device"))],
    )
    .1
}

/// Build `gpu.dealloc`.
pub fn dealloc(b: &mut OpBuilder, buffer: ValueId) -> OpId {
    b.op(DEALLOC, vec![buffer], vec![], vec![])
}

/// Build `gpu.memcpy dst, src` in the given direction.
pub fn memcpy(b: &mut OpBuilder, dst: ValueId, src: ValueId, dir: CopyDirection) -> OpId {
    b.op(
        MEMCPY,
        vec![dst, src],
        vec![],
        vec![("direction", Attribute::string(dir.as_str()))],
    )
}

/// Direction of a `gpu.memcpy` op.
pub fn memcpy_direction(m: &Module, op: OpId) -> Option<CopyDirection> {
    CopyDirection::parse(m.op(op).attr("direction")?.as_str()?)
}

/// Build `gpu.thread_id`/`gpu.block_id`/`gpu.block_dim` for dimension
/// `dim` (0 = x, 1 = y, 2 = z).
pub fn id_op(b: &mut OpBuilder, name: &'static str, dim: i64) -> ValueId {
    debug_assert!(matches!(name, THREAD_ID | BLOCK_ID | BLOCK_DIM));
    b.op1(
        name,
        vec![],
        Type::Index,
        vec![("dimension", Attribute::int(dim))],
    )
    .1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_roundtrip() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let arg = b
            .op1(
                "test.buf",
                vec![],
                Type::memref(vec![64], Type::f64()),
                vec![],
            )
            .1;
        let launch = build_launch_func(&mut b, "kern", [8, 8, 1], [32, 32, 1], vec![arg]);
        let (grid, block) = launch_dims(&m, launch).unwrap();
        assert_eq!(grid, [8, 8, 1]);
        assert_eq!(block, [32, 32, 1]);
        assert_eq!(
            m.op(launch).attr("kernel").unwrap().as_symbol(),
            Some("kern")
        );
    }

    #[test]
    fn memcpy_direction_roundtrip() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let ty = Type::memref(vec![4], Type::f64());
        let h = b.op1("test.buf", vec![], ty.clone(), vec![]).1;
        let d = alloc(&mut b, ty);
        let cp = memcpy(&mut b, d, h, CopyDirection::HostToDevice);
        let back = memcpy(&mut b, h, d, CopyDirection::DeviceToHost);
        assert_eq!(memcpy_direction(&m, cp), Some(CopyDirection::HostToDevice));
        assert_eq!(
            memcpy_direction(&m, back),
            Some(CopyDirection::DeviceToHost)
        );
    }

    #[test]
    fn gpu_module_is_top_level_and_named() {
        let mut m = Module::new();
        let (op, _body) = build_gpu_module(&mut m, "stencil_kernels");
        assert_eq!(
            m.op(op).attr("sym_name").unwrap().as_str(),
            Some("stencil_kernels")
        );
        assert_eq!(m.top_level_ops_named(MODULE), vec![op]);
    }

    #[test]
    fn copy_direction_parse() {
        assert_eq!(
            CopyDirection::parse("h2d"),
            Some(CopyDirection::HostToDevice)
        );
        assert_eq!(
            CopyDirection::parse("d2h"),
            Some(CopyDirection::DeviceToHost)
        );
        assert_eq!(CopyDirection::parse("x"), None);
    }
}
