//! Execution plans: *how* a compiled nest is swept, as opposed to *what*
//! it computes.
//!
//! An [`ExecPlan`] carries what the tiling pass decided at lowering time
//! (the paper's `parallel-loop-tile-sizes`, Listing 4): cache-block tile
//! extents per dimension from the loop root's `"tiled"` attribute, and the
//! inner-loop unroll factor from its `"unroll"` attribute. Work-sharing is
//! not a plan field: a nest's slab count is a function of the nest and its
//! box (`kernel::SPLIT_WORK`). The plan rides through `KernelStats` into
//! `RunReport`, so every run attests which plan actually executed.
//!
//! Plans never change *what* is computed: every plan visits every cell
//! exactly once with the unchanged per-cell arithmetic, so all plans are
//! bit-identical by construction (and by proptest).

use std::fmt;

/// How a nest is executed: tiling and unrolling choices.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExecPlan {
    /// Cache-block extent per dimension (dimension 0 is fastest-varying).
    /// `0` (or a missing entry) means the dimension is not blocked; values
    /// larger than the extent behave like `0`.
    pub tiles: Vec<i64>,
    /// Inner-loop unroll factor on the specialized fast paths (1 or 4).
    /// Other execution tiers ignore it.
    pub unroll: u8,
}

impl Default for ExecPlan {
    fn default() -> Self {
        Self {
            tiles: Vec::new(),
            unroll: 1,
        }
    }
}

impl ExecPlan {
    /// The default plan seeded with tile sizes carried by the lowered IR
    /// (the `"tiled"` attribute of a tiled parallel loop).
    pub fn from_ir_tiles(tiles: Vec<i64>) -> Self {
        Self {
            tiles,
            ..Self::default()
        }
    }

    /// Tile extent for dimension `d`; `None` when the dimension is
    /// unblocked (no entry, `0`, or a degenerate value).
    pub fn tile_for(&self, d: usize) -> Option<i64> {
        match self.tiles.get(d).copied() {
            Some(t) if t > 0 => Some(t),
            _ => None,
        }
    }

    /// True when any dimension is blocked.
    pub fn is_tiled(&self) -> bool {
        (0..self.tiles.len()).any(|d| self.tile_for(d).is_some())
    }

    /// One-line stable description, e.g. `tiles=[0,16] unroll=4`.
    pub fn describe(&self) -> String {
        let tiles = if self.tiles.is_empty() {
            "-".to_string()
        } else {
            format!(
                "[{}]",
                self.tiles
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        format!("tiles={tiles} unroll={}", self.unroll)
    }
}

impl fmt::Display for ExecPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_untiled_unrolled_once() {
        let p = ExecPlan::default();
        assert!(!p.is_tiled());
        assert_eq!(p.unroll, 1);
        assert_eq!(p.tile_for(0), None);
    }

    #[test]
    fn tile_for_ignores_degenerate_entries() {
        let p = ExecPlan::from_ir_tiles(vec![0, 16, -3]);
        assert_eq!(p.tile_for(0), None);
        assert_eq!(p.tile_for(1), Some(16));
        assert_eq!(p.tile_for(2), None);
        assert_eq!(p.tile_for(9), None);
        assert!(p.is_tiled());
    }

    #[test]
    fn describe_is_stable() {
        let p = ExecPlan {
            tiles: vec![0, 16],
            unroll: 4,
        };
        assert_eq!(p.describe(), "tiles=[0,16] unroll=4");
        assert_eq!(ExecPlan::default().describe(), "tiles=- unroll=1");
    }
}
