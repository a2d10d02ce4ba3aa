//! Row loops at the host's vector width (DESIGN.md §16): `avx512f` only, and
//! rustc never contracts `a*b + c`, so every lane rounds as at baseline.

/// Proof that the running host has AVX-512F: only [`Avx512f::detect`]
/// makes one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx512f(());

impl Avx512f {
    /// `Some` on a host with AVX-512F: the one detection that picks every
    /// row loop's copy.
    #[inline]
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Some(Avx512f(()));
        }
        None
    }
}

/// The copy the row loops run on this host: `"avx512f"` or `"baseline"`.
pub fn row_loops() -> &'static str {
    Avx512f::detect().map_or("baseline", |_| "avx512f")
}

/// `fn name[generics](args) { body }` inlines the body into module `name`'s
/// `base` (baseline, out of line) and `avx512f` copies; `run` picks one. No
/// closure: thin LTO does not inline one into a `target_feature` copy.
macro_rules! multiversion {
    ($(#[$doc:meta])* fn $name:ident[$($gen:tt)*]($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$doc])*
        mod $name {
            #[allow(unused_imports)]
            use super::*;
            #[inline(always)]
            fn body<$($gen)*>($($arg: $ty),*) $body
            #[inline]
            pub(super) fn run<$($gen)*>($($arg: $ty),*) {
                match $crate::wide::Avx512f::detect() {
                    Some(host) => avx512f(host, $($arg),*),
                    None => base($($arg),*),
                }
            }
            #[inline(never)]
            pub(super) fn base<$($gen)*>($($arg: $ty),*) {
                body($($arg),*)
            }
            #[allow(unused_unsafe)]
            pub(super) fn avx512f<$($gen)*>(_: $crate::wide::Avx512f, $($arg: $ty),*) {
                #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx512f"))]
                fn wide<$($gen)*>($($arg: $ty),*) {
                    body($($arg),*)
                }
                // SAFETY: `wide` needs only AVX-512F, and an `Avx512f` exists
                // only on a host that has it.
                unsafe { wide($($arg),*) }
            }
        }
    };
}
pub(crate) use multiversion;

#[cfg(test)]
pub(crate) mod testing {
    use super::{row_loops, Avx512f};

    /// Row widths for the bit-identity tests: every remainder of an
    /// unrolled 8-lane loop, and past the 128 cells of a PW row.
    pub(crate) const WIDTHS: [usize; 21] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 128, 130,
    ];

    /// `n` values over many binades, about one in sixteen of them NaN,
    /// ±inf, ±0.0 or subnormal.
    pub(crate) fn seeded(n: usize, salt: u64) -> Vec<f64> {
        const SPECIAL: [f64; 7] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -2.2e-310,
        ];
        (0..n as u64)
            .map(|i| {
                let h = (i + (salt << 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let h = h ^ (h >> 29);
                if h.is_multiple_of(16) {
                    SPECIAL[(h >> 8) as usize % SPECIAL.len()]
                } else {
                    let unit = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    unit * f64::powi(2.0, (h % 24) as i32 - 12)
                }
            })
            .collect()
    }

    /// Each value's bits, every NaN as `f64::NAN`'s. Which operand's NaN an
    /// x86 add or multiply passes on depends on the register order LLVM
    /// picks, in either copy; Rust leaves a NaN result's sign and payload
    /// unspecified. Every other lane must match bit for bit.
    pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// The host's [`Avx512f`]. On a host without one, checks that the row
    /// loops report the baseline copy, the one every `run` then picks.
    pub(crate) fn host() -> Option<Avx512f> {
        let host = Avx512f::detect();
        if host.is_none() {
            assert_eq!(row_loops(), "baseline");
        }
        host
    }
}
