//! Runtime values and the flat-buffer memory model.

// Arrays are sized by input programs: every failure is a coded error.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::alloc::{alloc_zeroed, Layout};
use std::cell::RefCell;
use std::sync::Arc;

use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::IrError;

use crate::budget::{elems_to_bytes, MemoryBudget};

/// Identifier of an array buffer inside [`Memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub u32);

/// Identifier of a scalar slot inside [`Memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub u32);

/// A reference value (what FIR `!fir.ref`/`!fir.heap`/`llvm_ptr` evaluate
/// to at runtime).
#[derive(Debug, Clone, PartialEq)]
pub enum Ref {
    /// Reference to a scalar slot.
    Scalar(SlotId),
    /// Reference to a whole array (the binding of an array variable).
    Array {
        /// Backing buffer.
        buf: BufId,
        /// Per-dimension extents (dimension 0 fastest-varying).
        extents: Arc<Vec<i64>>,
    },
    /// Reference to one element of an array.
    Elem {
        /// Backing buffer.
        buf: BufId,
        /// Linear (column-major) element index.
        linear: i64,
    },
}

/// A dynamic value flowing through the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 32-bit integer (Fortran default integer).
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// Loop/index value.
    Index(i64),
    /// Double-precision float.
    F64(f64),
    /// Boolean (`i1`).
    Bool(bool),
    /// Memory reference.
    Ref(Ref),
}

impl Value {
    /// Any integer-like value as i64.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::I32(v) => Some(*v as i64),
            Value::I64(v) | Value::Index(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Float value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric value widened to f64 (ints convert).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            other => other.as_int().map(|i| i as f64),
        }
    }

    /// Reference payload.
    pub fn as_ref_val(&self) -> Option<&Ref> {
        match self {
            Value::Ref(r) => Some(r),
            _ => None,
        }
    }

    /// Boolean payload (accepting integer 0/1).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::I32(v) => Some(*v != 0),
            Value::I64(v) | Value::Index(v) => Some(*v != 0),
            _ => None,
        }
    }
}

/// A scalar memory slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// Float slot.
    F64(f64),
    /// Integer slot (i32 storage).
    I32(i32),
    /// Boolean slot.
    Bool(bool),
}

/// Column-major strides for the given extents (dimension 0 fastest).
pub fn column_major_strides(extents: &[i64]) -> Vec<i64> {
    let mut strides = Vec::with_capacity(extents.len());
    let mut acc = 1i64;
    for &e in extents {
        strides.push(acc);
        acc *= e.max(0);
    }
    strides
}

/// Overflow-checked [`column_major_strides`]: coded `E0807` when a stride
/// product does not fit `i64` (extents near the address-space limit).
pub fn checked_column_major_strides(extents: &[i64]) -> fsc_ir::Result<Vec<i64>> {
    let mut strides = Vec::with_capacity(extents.len());
    let mut acc = 1i64;
    for &e in extents {
        strides.push(acc);
        acc = acc.checked_mul(e.max(0)).ok_or_else(|| {
            IrError::from_diagnostic(Diagnostic::error(
                codes::EXTENT_OVERFLOW,
                format!("stride arithmetic overflow for extents {extents:?}"),
            ))
        })?;
    }
    Ok(strides)
}

/// `len` zeroed doubles straight from the allocator, or `None` when it
/// refuses them. A large block arrives as untouched zero pages, so nothing
/// is written here and the first touch is the program's own (`vec![0.0;
/// len]` gets the same pages but aborts on refusal; `try_reserve` then
/// `resize` writes every byte of them).
fn zeroed_f64s(len: usize) -> Option<Vec<f64>> {
    let layout = Layout::array::<f64>(len).ok()?;
    if layout.size() == 0 {
        return Some(Vec::new());
    }
    // SAFETY: `layout` has a non-zero size, as `alloc_zeroed` requires. A
    // non-null block from it comes from the global allocator with the layout
    // of `[f64; len]` — what a `Vec<f64>` of capacity `len` frees with — and
    // its all-zero bytes are `len` initialised `0.0`s.
    unsafe {
        let ptr = alloc_zeroed(layout).cast::<f64>();
        (!ptr.is_null()).then(|| Vec::from_raw_parts(ptr, len, len))
    }
}

thread_local! {
    /// Storage of the last ungoverned [`Memory`] this thread dropped. Its
    /// pages are already faulted in, so the next arena's buffers of the same
    /// lengths take them instead of fresh ones (DESIGN.md §12).
    static SPARE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// A spare of exactly `len` doubles from this thread's set, zeroed here so
/// the run that takes it pays for its zeros.
fn take_spare(len: usize) -> Option<Vec<f64>> {
    let mut storage = SPARE
        .try_with(|s| {
            let mut set = s.borrow_mut();
            let pos = set.iter().position(|v| v.len() == len)?;
            Some(set.swap_remove(pos))
        })
        .ok()
        .flatten()?;
    storage.fill(0.0);
    Some(storage)
}

/// Owner of all runtime storage for one program execution.
///
/// Allocation is *governed*: every buffer charges its byte size against an
/// optional [`MemoryBudget`] ledger before the storage is created, and the
/// arena tracks its own live/peak byte counters either way. Charges follow
/// the buffer's logical lifetime — [`Memory::release_buffer`] returns the
/// bytes to the ledger even though the storage is retained for reuse (a
/// later same-size allocation re-charges it), so `live_bytes` means "bytes
/// the program currently holds", not "bytes the arena has ever touched".
///
/// Every buffer carries a **write generation**, bumped by each entry point
/// that can change its contents or identity (`buffer_mut`,
/// `copy_buffer`, `take_buffer`, `restore_buffer`, release, reuse,
/// `mark_stale`). A cache of a buffer's contents — the distributed
/// executor's resident rank windows — is valid exactly while the
/// generation it recorded still matches. A buffer may also be marked
/// **stale**: its current contents live elsewhere (in those windows) and
/// must be synced back before anything reads or writes it here.
#[derive(Debug, Default)]
pub struct Memory {
    buffers: Vec<Vec<f64>>,
    /// Write generation per buffer id (same length as `buffers`).
    gens: Vec<u64>,
    /// Stale flag per buffer id (same length as `buffers`).
    stale: Vec<bool>,
    /// Number of `true` entries in `stale`: keeps [`Memory::is_stale`] one
    /// flag test on the host load/store path of runs that defer nothing.
    stale_count: usize,
    scalars: Vec<Scalar>,
    /// Released buffer ids available for reuse (scratch buffers allocated
    /// inside kernels, e.g. value-semantics snapshots in time loops).
    free: Vec<BufId>,
    /// Bytes currently charged per buffer id (zero once released).
    charged: Vec<u64>,
    /// Optional byte ledger every allocation must reserve against.
    budget: Option<Arc<MemoryBudget>>,
    live_bytes: u64,
    peak_bytes: u64,
}

impl Memory {
    /// Fresh, empty memory with no ledger (allocations still fail cleanly
    /// on host refusal instead of aborting).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh memory governed by `budget`: every allocation reserves its
    /// bytes against the ledger first and fails coded `E0805` when the
    /// reservation is denied.
    pub fn with_budget(budget: Arc<MemoryBudget>) -> Self {
        let mut m = Self::default();
        m.budget = Some(budget);
        m
    }

    /// The governing ledger, if any.
    pub fn budget(&self) -> Option<&Arc<MemoryBudget>> {
        self.budget.as_ref()
    }

    /// Bytes currently held by live (un-released) buffers.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// High-water mark of [`Memory::live_bytes`] over this arena's life.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Allocate a zero-initialised buffer of `len` doubles, reusing a
    /// released buffer of the same length when one exists, else a spare
    /// this thread's last dropped arena left behind. Fails with a
    /// coded `E0805` diagnostic when the ledger (or the host allocator)
    /// refuses the bytes — the arena is left unchanged.
    pub fn try_alloc_buffer(&mut self, len: usize) -> fsc_ir::Result<BufId> {
        let bytes = elems_to_bytes(len)?;
        if let Some(b) = &self.budget {
            b.try_reserve(bytes)?;
        }
        if let Some(pos) = self
            .free
            .iter()
            .position(|&b| self.buffers[b.0 as usize].len() == len)
        {
            let buf = self.free.swap_remove(pos);
            self.buffers[buf.0 as usize].fill(0.0);
            self.gens[buf.0 as usize] += 1;
            self.charge(buf, bytes);
            return Ok(buf);
        }
        self.adopt(bytes, take_spare(len).or_else(|| zeroed_f64s(len)))
    }

    /// A new buffer (never a reused one) whose `len` doubles the caller
    /// writes once, not over zeros: `fill` appends to an empty vector with
    /// room for them, and what it leaves short of `len` is NaN. Charged and
    /// refused exactly as [`Memory::try_alloc_buffer`] does.
    pub fn try_alloc_buffer_with(
        &mut self,
        len: usize,
        fill: impl FnOnce(&mut Vec<f64>),
    ) -> fsc_ir::Result<BufId> {
        let bytes = elems_to_bytes(len)?;
        if let Some(b) = &self.budget {
            b.try_reserve(bytes)?;
        }
        let mut storage = Vec::new();
        let room = storage.try_reserve_exact(len).is_ok();
        if room {
            fill(&mut storage);
            storage.resize(len, f64::NAN);
        }
        self.adopt(bytes, room.then_some(storage))
    }

    /// `storage`, reserved as `bytes`, becomes a buffer; `None` (the host
    /// refused it) hands the reservation back.
    fn adopt(&mut self, bytes: u64, storage: Option<Vec<f64>>) -> fsc_ir::Result<BufId> {
        let Some(storage) = storage else {
            if let Some(b) = &self.budget {
                b.release(bytes);
            }
            return Err(IrError::from_diagnostic(
                Diagnostic::error(
                    codes::MEM_BUDGET,
                    format!("allocation denied: the host refused {bytes} bytes"),
                )
                .note("the request fails cleanly; the process keeps serving"),
            ));
        };
        self.buffers.push(storage);
        self.gens.push(0);
        self.stale.push(false);
        let buf = BufId(self.buffers.len() as u32 - 1);
        self.charge(buf, bytes);
        Ok(buf)
    }

    /// Infallible [`Memory::try_alloc_buffer`] for ungoverned paths (tests,
    /// benches): panics on denial, exactly like `vec![0.0; len]` would.
    // The one deliberate panic: runtime paths call `try_alloc_buffer`.
    #[allow(clippy::expect_used)]
    pub fn alloc_buffer(&mut self, len: usize) -> BufId {
        self.try_alloc_buffer(len)
            .expect("ungoverned buffer allocation failed")
    }

    fn charge(&mut self, buf: BufId, bytes: u64) {
        let idx = buf.0 as usize;
        if self.charged.len() <= idx {
            self.charged.resize(idx + 1, 0);
        }
        self.charged[idx] = bytes;
        self.live_bytes = self.live_bytes.saturating_add(bytes);
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    /// Release a buffer for reuse by a later [`Memory::alloc_buffer`]. The
    /// id stays valid (the storage is retained) but its contents may be
    /// overwritten by the next allocation of the same size. The buffer's
    /// byte charge is returned to the ledger and dropped from
    /// [`Memory::live_bytes`].
    pub fn release_buffer(&mut self, buf: BufId) {
        debug_assert!(!self.is_stale(buf), "release of stale buffer {buf:?}");
        if !self.free.contains(&buf) {
            self.free.push(buf);
            let idx = buf.0 as usize;
            self.gens[idx] += 1;
            let bytes = self.charged.get(idx).copied().unwrap_or(0);
            if let Some(c) = self.charged.get_mut(idx) {
                *c = 0;
            }
            self.live_bytes = self.live_bytes.saturating_sub(bytes);
            if let Some(b) = &self.budget {
                b.release(bytes);
            }
        }
    }

    /// Allocate a scalar slot.
    pub fn alloc_scalar(&mut self, init: Scalar) -> SlotId {
        self.scalars.push(init);
        SlotId(self.scalars.len() as u32 - 1)
    }

    /// Read a scalar slot.
    pub fn read_scalar(&self, slot: SlotId) -> Scalar {
        self.scalars[slot.0 as usize]
    }

    /// Write a scalar slot.
    pub fn write_scalar(&mut self, slot: SlotId, v: Scalar) {
        self.scalars[slot.0 as usize] = v;
    }

    /// Immutable view of a buffer.
    pub fn buffer(&self, buf: BufId) -> &[f64] {
        debug_assert!(!self.is_stale(buf), "read of stale buffer {buf:?}");
        &self.buffers[buf.0 as usize]
    }

    /// Mutable view of a buffer.
    pub fn buffer_mut(&mut self, buf: BufId) -> &mut [f64] {
        debug_assert!(!self.is_stale(buf), "write to stale buffer {buf:?}");
        self.gens[buf.0 as usize] += 1;
        &mut self.buffers[buf.0 as usize]
    }

    /// Write generation of a buffer: changes whenever its contents may have.
    pub fn generation(&self, buf: BufId) -> u64 {
        self.gens[buf.0 as usize]
    }

    /// True when the buffer's current contents live outside this arena.
    #[inline]
    pub fn is_stale(&self, buf: BufId) -> bool {
        self.stale_count != 0 && self.stale[buf.0 as usize]
    }

    /// Declare that the buffer's current contents now live outside this
    /// arena (a write as far as any other cache of it is concerned).
    pub fn mark_stale(&mut self, buf: BufId) {
        let idx = buf.0 as usize;
        self.gens[idx] += 1;
        if !std::mem::replace(&mut self.stale[idx], true) {
            self.stale_count += 1;
        }
    }

    /// The holder of a stale buffer's contents is about to write them back.
    pub fn clear_stale(&mut self, buf: BufId) {
        if std::mem::replace(&mut self.stale[buf.0 as usize], false) {
            self.stale_count -= 1;
        }
    }

    /// Copy buffer `src` into `dst`, bumping `dst`'s generation; a no-op
    /// when they are the same buffer, coded `E0701` when their lengths
    /// differ.
    pub fn copy_buffer(&mut self, src: BufId, dst: BufId) -> fsc_ir::Result<()> {
        debug_assert!(!self.is_stale(src) && !self.is_stale(dst), "stale copy");
        if src == dst {
            return Ok(());
        }
        let exec_err = |what| IrError::from_diagnostic(Diagnostic::error(codes::EXEC, what));
        let (si, di) = (src.0 as usize, dst.0 as usize);
        let [s, d] = self
            .buffers
            .get_disjoint_mut([si, di])
            .map_err(|e| exec_err(format!("copy of {src:?} into {dst:?}: {e}")))?;
        if s.len() != d.len() {
            let what = format!("copy of {} doubles into a buffer of {}", s.len(), d.len());
            return Err(exec_err(what));
        }
        d.copy_from_slice(s);
        self.gens[di] += 1;
        Ok(())
    }

    /// Number of buffers allocated so far.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Move a buffer out of the arena (leaving it empty) — used by the
    /// kernel runners to hold mutable output slabs while inputs stay
    /// shareable. Pair with [`Memory::restore_buffer`].
    pub fn take_buffer(&mut self, buf: BufId) -> Vec<f64> {
        debug_assert!(!self.is_stale(buf), "take of stale buffer {buf:?}");
        self.gens[buf.0 as usize] += 1;
        std::mem::take(&mut self.buffers[buf.0 as usize])
    }

    /// Put back a buffer taken with [`Memory::take_buffer`].
    pub fn restore_buffer(&mut self, buf: BufId, data: Vec<f64>) {
        self.gens[buf.0 as usize] += 1;
        self.buffers[buf.0 as usize] = data;
    }
}

impl Drop for Memory {
    /// Return every outstanding charge to the ledger: an arena dying with
    /// live buffers (a completed run, a failed rank body) must not strand
    /// bytes in a shared budget. An ungoverned arena's storage instead
    /// replaces this thread's spare set (freed if the thread is exiting); a
    /// governed one keeps nothing, since idle storage is bytes no ledger
    /// charged.
    fn drop(&mut self) {
        if let Some(b) = &self.budget {
            b.release(self.live_bytes);
            return;
        }
        let spare: Vec<Vec<f64>> = self.buffers.drain(..).filter(|v| !v.is_empty()).collect();
        let _ = SPARE.try_with(|s| s.try_borrow_mut().map(|mut set| *set = spare));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_column_major() {
        assert_eq!(column_major_strides(&[4, 5, 6]), vec![1, 4, 20]);
        assert_eq!(column_major_strides(&[10]), vec![1]);
        assert!(column_major_strides(&[]).is_empty());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::I32(7).as_int(), Some(7));
        assert_eq!(Value::Index(3).as_int(), Some(3));
        assert_eq!(Value::F64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::I32(7).as_number(), Some(7.0));
        assert_eq!(Value::F64(2.5).as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::I64(0).as_bool(), Some(false));
    }

    #[test]
    fn memory_buffers_and_scalars() {
        let mut m = Memory::new();
        let b = m.alloc_buffer(10);
        m.buffer_mut(b)[3] = 1.5;
        assert_eq!(m.buffer(b)[3], 1.5);
        assert_eq!(m.buffer(b)[0], 0.0);
        let s = m.alloc_scalar(Scalar::I32(4));
        assert_eq!(m.read_scalar(s), Scalar::I32(4));
        m.write_scalar(s, Scalar::F64(1.0));
        assert_eq!(m.read_scalar(s), Scalar::F64(1.0));
    }

    #[test]
    fn accounting_charges_releases_and_recharges_on_reuse() {
        let budget = MemoryBudget::limited(8 * 16);
        let mut m = Memory::with_budget(budget.clone());
        let a = m.try_alloc_buffer(10).unwrap();
        assert_eq!(m.live_bytes(), 80);
        assert_eq!(budget.used(), 80);
        // Over-budget allocation fails cleanly and leaves the arena intact.
        let err = m.try_alloc_buffer(7).unwrap_err();
        assert!(err.diagnostics[0].render().contains("E0805"), "{err}");
        assert_eq!(m.live_bytes(), 80);
        assert_eq!(budget.used(), 80);
        // Release returns the bytes; reuse of the freed storage re-charges.
        m.release_buffer(a);
        assert_eq!(m.live_bytes(), 0);
        assert_eq!(budget.used(), 0);
        let b = m.try_alloc_buffer(10).unwrap();
        assert_eq!(b, a, "same-size allocation reuses the freed storage");
        assert_eq!(m.live_bytes(), 80);
        assert_eq!(m.peak_bytes(), 80, "peak never exceeded one live buffer");
        // Double release is idempotent.
        m.release_buffer(b);
        m.release_buffer(b);
        assert_eq!(m.live_bytes(), 0);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn fresh_and_reused_buffers_are_all_zeros() {
        let mut m = Memory::new();
        // Small, and large enough to come from fresh pages.
        for len in [0, 1, 10, 1 << 20] {
            let b = m.alloc_buffer(len);
            assert_eq!(m.buffer(b).len(), len);
            assert!(m.buffer(b).iter().all(|v| v.to_bits() == 0), "len {len}");
            // Dirty it, hand it back, and take it again through the free list.
            m.buffer_mut(b).fill(f64::NAN);
            m.release_buffer(b);
            let again = m.alloc_buffer(len);
            assert_eq!(again, b, "len {len} reuses the freed storage");
            assert!(m.buffer(again).iter().all(|v| v.to_bits() == 0));
        }
    }

    #[test]
    fn host_refusal_is_a_coded_error_and_returns_the_reservation() {
        // 2^48 bytes: the ledger admits it, no host address space holds it.
        let len = 1usize << 45;
        let budget = MemoryBudget::unlimited();
        let mut m = Memory::with_budget(budget.clone());
        let err = m.try_alloc_buffer(len).unwrap_err();
        assert_eq!(err.diagnostics[0].code, codes::MEM_BUDGET, "{err}");
        assert!(err.message.contains("host refused"), "{err}");
        assert_eq!((budget.used(), m.live_bytes(), m.buffer_count()), (0, 0, 0));
        // The arena still serves.
        let b = m.try_alloc_buffer(4).unwrap();
        assert_eq!(m.buffer(b), [0.0; 4]);
    }

    #[test]
    fn ungoverned_memory_still_tracks_live_and_peak() {
        let mut m = Memory::new();
        let a = m.alloc_buffer(4);
        let _b = m.alloc_buffer(8);
        assert_eq!(m.live_bytes(), 96);
        assert_eq!(m.peak_bytes(), 96);
        m.release_buffer(a);
        assert_eq!(m.live_bytes(), 64);
        assert_eq!(m.peak_bytes(), 96, "peak is monotone");
    }

    #[test]
    fn checked_strides_reject_overflow_with_coded_diagnostic() {
        assert_eq!(
            checked_column_major_strides(&[4, 5, 6]).unwrap(),
            vec![1, 4, 20]
        );
        let err = checked_column_major_strides(&[i64::MAX, i64::MAX]).unwrap_err();
        assert!(err.diagnostics[0].render().contains("E0807"), "{err}");
    }

    #[test]
    fn every_mutating_entry_point_bumps_the_write_generation() {
        let mut m = Memory::new();
        let a = m.alloc_buffer(4);
        let b = m.alloc_buffer(4);
        // Reads never move it.
        let g0 = m.generation(a);
        let _ = (m.buffer(a), m.buffer_count(), m.live_bytes());
        assert_eq!(m.generation(a), g0);
        let bumped = |what: &str, m: &mut Memory, f: &mut dyn FnMut(&mut Memory)| {
            let before = m.generation(a);
            f(m);
            assert!(m.generation(a) > before, "{what} must bump the generation");
        };
        bumped("buffer_mut", &mut m, &mut |m| m.buffer_mut(a)[0] = 1.0);
        bumped("copy_buffer (destination)", &mut m, &mut |m| {
            m.copy_buffer(b, a).unwrap();
        });
        let mut held = Vec::new();
        bumped("take_buffer", &mut m, &mut |m| held = m.take_buffer(a));
        bumped("restore_buffer", &mut m, &mut |m| {
            m.restore_buffer(a, std::mem::take(&mut held))
        });
        bumped("mark_stale", &mut m, &mut |m| m.mark_stale(a));
        m.clear_stale(a);
        bumped("release_buffer", &mut m, &mut |m| m.release_buffer(a));
        bumped("reuse by try_alloc_buffer", &mut m, &mut |m| {
            assert_eq!(m.try_alloc_buffer(4).unwrap(), a);
        });
        // The source of a copy is only read, and a self-copy moves nothing.
        let gb = m.generation(b);
        m.copy_buffer(b, a).unwrap();
        assert_eq!(m.generation(b), gb);
        let ga = m.generation(a);
        m.copy_buffer(a, a).unwrap();
        assert_eq!(m.generation(a), ga);
    }

    #[test]
    fn stale_marks_are_counted_and_cleared() {
        let mut m = Memory::new();
        let a = m.alloc_buffer(2);
        let b = m.alloc_buffer(2);
        assert!(!m.is_stale(a) && !m.is_stale(b));
        m.mark_stale(a);
        m.mark_stale(a);
        assert!(m.is_stale(a) && !m.is_stale(b));
        m.clear_stale(a);
        m.clear_stale(a);
        assert!(!m.is_stale(a));
        m.mark_stale(b);
        assert!(m.is_stale(b) && !m.is_stale(a));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read of stale buffer")]
    fn reading_a_stale_buffer_is_a_debug_assertion() {
        let mut m = Memory::new();
        let a = m.alloc_buffer(2);
        m.mark_stale(a);
        let _ = m.buffer(a);
    }

    #[test]
    fn copy_buffer_both_orders_and_unequal_lengths() {
        let mut m = Memory::new();
        let a = m.alloc_buffer(4);
        let b = m.alloc_buffer(4);
        m.buffer_mut(a)[0] = 9.0;
        m.copy_buffer(a, b).unwrap();
        assert_eq!(m.buffer(b), [9.0, 0.0, 0.0, 0.0]);
        m.buffer_mut(b)[1] = 5.0;
        m.copy_buffer(b, a).unwrap();
        assert_eq!(m.buffer(a), [9.0, 5.0, 0.0, 0.0]);
        // Unequal lengths: a coded error, and the destination is untouched.
        let c = m.alloc_buffer(3);
        let gc = m.generation(c);
        let err = m.copy_buffer(a, c).unwrap_err();
        assert_eq!(err.diagnostics[0].code, codes::EXEC, "{err}");
        assert_eq!((m.buffer(c), m.generation(c)), (&[0.0; 3][..], gc));
    }

    /// Lengths of this thread's spare set.
    fn spare_lens() -> Vec<usize> {
        SPARE.with(|s| s.borrow().iter().map(Vec::len).collect())
    }

    /// An ungoverned arena holding one buffer of each length, dropped.
    fn drop_arena_of(lens: &[usize]) {
        let mut m = Memory::new();
        for &len in lens {
            m.alloc_buffer(len);
        }
    }

    #[test]
    fn the_next_arena_on_a_thread_takes_the_last_ones_storage_zeroed() {
        drop_arena_of(&[]);
        let mut m = Memory::new();
        let big = m.alloc_buffer(1 << 20);
        let small = m.alloc_buffer(3);
        m.buffer_mut(big).fill(f64::NAN);
        m.buffer_mut(small).fill(f64::NAN);
        let (big_ptr, small_ptr) = (m.buffer(big).as_ptr(), m.buffer(small).as_ptr());
        drop(m);
        assert_eq!(spare_lens(), [1 << 20, 3]);

        let mut next = Memory::new();
        let b = next.alloc_buffer(1 << 20);
        assert_eq!(next.buffer(b).as_ptr(), big_ptr, "same storage");
        assert!(next.buffer(b).iter().all(|v| v.to_bits() == 0));
        assert_eq!(next.live_bytes(), 8 << 20, "charged as a fresh block");
        // A different length goes to the allocator and leaves the spare.
        let c = next.alloc_buffer(5);
        assert_ne!(next.buffer(c).as_ptr(), small_ptr);
        assert_eq!(spare_lens(), [3]);
        let d = next.alloc_buffer(3);
        assert_eq!(
            (next.buffer(d).as_ptr(), next.buffer(d)),
            (small_ptr, &[0.0; 3][..])
        );
        assert!(spare_lens().is_empty());
    }

    #[test]
    fn a_governed_arena_keeps_nothing_but_takes_a_spare_on_its_ledger() {
        drop_arena_of(&[10, 12]);
        let budget = MemoryBudget::limited(8 * 11);
        let mut g = Memory::with_budget(budget.clone());
        // A refused reservation leaves the spare set intact.
        let err = g.try_alloc_buffer(12).unwrap_err();
        assert_eq!(err.diagnostics[0].code, codes::MEM_BUDGET, "{err}");
        assert_eq!(spare_lens(), [10, 12]);
        let b = g.try_alloc_buffer(10).unwrap();
        assert_eq!((budget.used(), g.live_bytes()), (80, 80));
        assert_eq!(spare_lens(), [12]);
        g.buffer_mut(b).fill(1.0);
        drop(g);
        assert_eq!(budget.used(), 0);
        assert_eq!(spare_lens(), [12], "a governed arena keeps nothing");
    }

    #[test]
    fn another_thread_sees_no_spare() {
        drop_arena_of(&[7]);
        assert_eq!(spare_lens(), [7]);
        assert!(std::thread::spawn(spare_lens).join().unwrap().is_empty());
        assert_eq!(spare_lens(), [7]);
    }

    #[test]
    fn a_second_drop_replaces_the_set() {
        drop_arena_of(&[4]);
        let mut m = Memory::new();
        m.alloc_buffer(6);
        m.alloc_buffer(0);
        let taken = m.alloc_buffer(9);
        let _held = m.take_buffer(taken);
        drop(m);
        assert_eq!(spare_lens(), [6], "empty and taken buffers are not kept");
    }
}
