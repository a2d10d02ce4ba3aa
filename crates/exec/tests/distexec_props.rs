//! Property tests for the distributed executor's region arithmetic: the
//! face pack/unpack wire format must round-trip arbitrary bit patterns
//! exactly, the row-wise copies must move exactly the cells a per-cell walk
//! would, for any layout, and the interior/boundary split must tile the
//! owned box exactly once for any bounds and halo shrink — these invariants
//! are what the end-to-end bit-identity of distributed runs rests on.

use std::collections::HashMap;

use fsc_exec::distexec::{
    copy_region, pack_region_based, region_cells, split_interior_boundary, unpack_region_based,
};
use proptest::prelude::*;

/// Column-major strides for the given extents; returns (strides, total).
fn strides_for(extents: &[i64]) -> (Vec<i64>, usize) {
    let mut strides = vec![0i64; extents.len()];
    let mut acc = 1i64;
    for (d, &e) in extents.iter().enumerate() {
        strides[d] = acc;
        acc *= e;
    }
    (strides, acc as usize)
}

/// Whether linear index `lin` decodes to a coordinate inside `region`.
fn in_region(lin: usize, strides: &[i64], extents: &[i64], region: &[(i64, i64)]) -> bool {
    region.iter().enumerate().all(|(d, &(lb, ub))| {
        let c = (lin as i64 / strides[d]) % extents[d];
        c >= lb && c < ub
    })
}

/// Visit every coordinate tuple of a per-dimension half-open region.
fn for_each_coord(region: &[(i64, i64)], mut f: impl FnMut(&[i64])) {
    if region_cells(region) == 0 {
        return;
    }
    let ndims = region.len();
    let mut idx: Vec<i64> = region.iter().map(|&(lb, _)| lb).collect();
    loop {
        f(&idx);
        let mut d = 0;
        loop {
            if d == ndims {
                return;
            }
            idx[d] += 1;
            if idx[d] < region[d].1 {
                break;
            }
            idx[d] = region[d].0;
            d += 1;
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Pack → unpack over any region of any 1-D/2-D/3-D box is a bitwise
    /// identity on the region and leaves every other cell untouched — for
    /// arbitrary payload bit patterns (negative zero, subnormals, NaNs).
    #[test]
    fn pack_unpack_round_trips_bitwise(
        dims in prop::collection::vec((1i64..7, 0i64..7, 0i64..7), 1..4),
        seed in any::<u64>(),
    ) {
        let extents: Vec<i64> = dims.iter().map(|&(e, _, _)| e).collect();
        let (strides, total) = strides_for(&extents);
        // A random (possibly empty, possibly full) sub-region per dim —
        // face halo regions of any depth are a special case of this.
        let region: Vec<(i64, i64)> = dims
            .iter()
            .map(|&(e, a, w)| {
                let lb = a.min(e - 1);
                (lb, (lb + w).min(e))
            })
            .collect();
        let mix = |i: usize, s: u64| {
            f64::from_bits(s ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1))
        };
        let data: Vec<f64> = (0..total).map(|i| mix(i, seed)).collect();
        let payload = pack_region_based(&data, &strides, &region, 0);
        prop_assert_eq!(payload.len(), region_cells(&region));
        let mut dst: Vec<f64> = (0..total).map(|i| mix(i, !seed)).collect();
        let before = dst.clone();
        unpack_region_based(&mut dst, &strides, &region, 0, &payload);
        for i in 0..total {
            if in_region(i, &strides, &extents, &region) {
                prop_assert_eq!(dst[i].to_bits(), data[i].to_bits(), "cell {} in-region", i);
            } else {
                prop_assert_eq!(dst[i].to_bits(), before[i].to_bits(), "cell {} outside", i);
            }
        }
    }

    /// Row-wise pack, unpack and window-to-window copy touch exactly the
    /// cells of the per-cell reference walk, in its order — for dense
    /// column-major layouts, padded (non-dense) ones, and layouts whose
    /// dimension 0 is not unit-stride (where a "row" is one cell) — through
    /// windows whose flat base offset is not zero.
    #[test]
    fn row_wise_copies_equal_the_per_cell_reference(
        dims in prop::collection::vec((1i64..6, 0i64..6, 0i64..6, 0i64..3), 1..4),
        stride0 in 1i64..4,
        seed in any::<u64>(),
    ) {
        // Strides: dimension 0 steps by `stride0`, every further dimension
        // by the padded span of the one below it.
        let extents: Vec<i64> = dims.iter().map(|&(e, _, _, _)| e).collect();
        let mut strides = Vec::new();
        let mut acc = stride0;
        for &(e, _, _, pad) in &dims {
            strides.push(acc);
            acc = acc * e + pad;
        }
        let total = acc as usize;
        let region: Vec<(i64, i64)> = dims
            .iter()
            .map(|&(e, a, w, _)| {
                let lb = a.min(e - 1);
                (lb, (lb + w).min(e))
            })
            .collect();
        prop_assert!(region.iter().zip(&extents).all(|(r, &e)| r.1 <= e));
        // The reference: one cell at a time, dimension 0 fastest.
        let mut cells = Vec::new();
        for_each_coord(&region, |c| {
            cells.push(c.iter().zip(&strides).map(|(i, s)| i * s).sum::<i64>() as usize);
        });
        let mix = |i: usize, s: u64| {
            f64::from_bits(s ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1))
        };
        let full: Vec<f64> = (0..total).map(|i| mix(i, seed)).collect();
        // A window holding `lo..hi` of the flat array, enough for the region.
        let lo = cells.iter().copied().min().unwrap_or(0);
        let hi = cells.iter().copied().max().map_or(lo, |m| m + 1);
        let window = full[lo..hi].to_vec();

        let packed = pack_region_based(&window, &strides, &region, lo as i64);
        let want: Vec<f64> = cells.iter().map(|&c| full[c]).collect();
        prop_assert_eq!(bits(&packed), bits(&want));

        let mut unpacked = vec![0.0; hi - lo];
        unpack_region_based(&mut unpacked, &strides, &region, lo as i64, &packed);
        let mut copied = vec![0.0; total];
        copy_region(&mut copied, 0, &window, lo as i64, &strides, &region);
        let mut want_full = vec![0.0; total];
        for &c in &cells {
            want_full[c] = full[c];
        }
        prop_assert_eq!(bits(&copied), bits(&want_full));
        prop_assert_eq!(bits(&unpacked), bits(&want_full[lo..hi]));
    }

    /// Interior + boundary shells tile the owned box exactly once, for any
    /// box (including empty) and any halo shrink (including shrinks wider
    /// than the box, which collapse the interior to empty).
    #[test]
    fn interior_plus_shells_tile_exactly_once(
        dims in prop::collection::vec((-3i64..6, 0i64..6, 0i64..4, 0i64..4), 1..4),
    ) {
        let own: Vec<(i64, i64)> = dims.iter().map(|&(lb, len, _, _)| (lb, lb + len)).collect();
        let shrink_lo: Vec<i64> = dims.iter().map(|&(_, _, s, _)| s).collect();
        let shrink_hi: Vec<i64> = dims.iter().map(|&(_, _, _, s)| s).collect();
        let (interior, shells) = split_interior_boundary(&own, &shrink_lo, &shrink_hi);
        let mut count: HashMap<Vec<i64>, usize> = HashMap::new();
        for_each_coord(&interior, |c| *count.entry(c.to_vec()).or_default() += 1);
        for shell in &shells {
            for_each_coord(shell, |c| *count.entry(c.to_vec()).or_default() += 1);
        }
        // Exactly the cells of `own`, each exactly once: no gap a halo'd
        // stencil would skip, no overlap that would double-apply an update.
        let mut cells = 0usize;
        let mut missing = 0usize;
        for_each_coord(&own, |c| {
            cells += 1;
            match count.get(c) {
                Some(&1) => {}
                Some(&k) => panic!("cell {c:?} covered {k} times"),
                None => missing += 1,
            }
        });
        prop_assert_eq!(missing, 0, "cells of the box left uncovered");
        prop_assert_eq!(cells, region_cells(&own));
        let covered: usize = count.values().sum();
        prop_assert_eq!(covered, cells, "coverage escapes the owned box");
    }
}
