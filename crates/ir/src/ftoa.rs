//! The workspace's one float printer: the shortest decimal that parses
//! back to an `f64` (Ryu, Adams PLDI 2018), laid out exactly as std's
//! `{}` — a `-` sign, positional digits, never an exponent. The serve
//! wire prints every number through [`write_shortest`], so a reply holds
//! the bytes `format!("{x}")` would give, without an allocation per value.
//!
//! One departure from reference Ryu: when the exact value lies halfway
//! between two shortest candidates it rounds half up, as std does, not
//! half to even. The tests pin every output to std byte for byte.

use std::sync::OnceLock;

/// Bits kept of each power of five and of each inverse.
const POW5_BITS: i32 = 125;

/// Append `v` to `out` as `format!("{v}")` would: the shortest digits
/// that round-trip, positional, `NaN`/`inf`/`-inf` for non-finite values.
pub fn write_shortest(out: &mut String, v: f64) {
    if v.is_nan() {
        return out.push_str("NaN");
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    if v.is_infinite() {
        return out.push_str("inf");
    }
    if v == 0.0 {
        return out.push('0');
    }
    let (mut digits, mut exp) = shortest(v.to_bits() & !(1 << 63));
    while digits % 10 == 0 {
        (digits, exp) = (digits / 10, exp + 1);
    }
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    while digits > 0 {
        start -= 1;
        buf[start] = b'0' + (digits % 10) as u8;
        digits /= 10;
    }
    #[allow(clippy::expect_used)]
    let text = std::str::from_utf8(&buf[start..]).expect("only ASCII digits were written");
    let point = text.len() as i32 + exp;
    if exp >= 0 {
        out.push_str(text);
        out.extend(std::iter::repeat_n('0', exp as usize));
    } else if point > 0 {
        let (int, frac) = text.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', -point as usize));
        out.push_str(text);
    }
}

/// Ryu's core for a positive finite non-zero `bits`: the shortest
/// `digits × 10^exp` inside the value's rounding interval, and of those
/// the one closest to the value, ties rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    let (pow5, inv) = tables();
    let (ieee_m, ieee_e) = (bits & ((1 << 52) - 1), (bits >> 52) as i32);
    // v = m2 · 2^(e2 + 2); the 2 leaves room for the half-ulp bounds.
    let m2 = ieee_m | ((ieee_e != 0) as u64) << 52;
    let e2 = ieee_e.max(1) - 1075 - 2;
    // The interval's bounds count as inside when the mantissa is even:
    // the parser rounds a halfway input to it.
    let even = m2 & 1 == 0;
    let mv = 4 * m2;
    let mm_shift = (ieee_m != 0 || ieee_e <= 1) as u64;
    let mul_all = |mul: u128, j: i32| {
        let f = |m: u64| {
            let (lo, hi) = (mul as u64 as u128, mul >> 64);
            ((((m as u128 * lo) >> 64) + m as u128 * hi) >> (j - 64)) as u64
        };
        (f(mv), f(mv + 2), f(mv - 1 - mm_shift))
    };
    // ⌈log2(5^e)⌉ (1 for e = 0), for e ≤ 3528.
    let pow5_bits = |e: u32| ((e * 1_217_359) >> 19) as i32 + 1;
    // Reference Ryu also tracks whether the exact value ends in zeros, to
    // round a tie to even; a tie rounds up here, so only the lower bound's
    // zeros (`vm_tz`) matter.
    let (e10, mut vr, mut vp, mut vm);
    let mut vm_tz = false;
    if e2 >= 0 {
        // q = ⌊log10(2^e2)⌋, less one above 2^3.
        let q = ((e2 as u32 * 78_913) >> 18) - (e2 > 3) as u32;
        e10 = q as i32;
        let i = -e2 + q as i32 + POW5_BITS + pow5_bits(q) - 1;
        (vr, vp, vm) = mul_all(inv[q as usize], i);
        if q <= 21 && !mv.is_multiple_of(5) {
            if even {
                vm_tz = (mv - 1 - mm_shift).is_multiple_of(5_u64.pow(q));
            } else {
                vp -= (mv + 2).is_multiple_of(5_u64.pow(q)) as u64;
            }
        }
    } else {
        // q = ⌊log10(5^-e2)⌋, less one above 5^1.
        let q = ((-e2 as u32 * 732_923) >> 20) - (-e2 > 1) as u32;
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5_bits(i as u32) - POW5_BITS);
        (vr, vp, vm) = mul_all(pow5[i as usize], j);
        if q <= 1 {
            if even {
                vm_tz = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate: the
    // test is monotone in the count, so take 16, 8, 4, 2, 1 greedily.
    let (mut removed, mut last) = (0, 0);
    for (n, p) in [
        (16, 10_u64.pow(16)),
        (8, 100_000_000),
        (4, 10_000),
        (2, 100),
        (1, 10),
    ] {
        if vp / p > vm / p {
            vm_tz &= vm % p == 0;
            last = vr % p / (p / 10);
            (vr, vp, vm, removed) = (vr / p, vp / p, vm / p, removed + n);
        }
    }
    while vm_tz && vm % 10 == 0 {
        last = vr % 10;
        (vr, vp, vm, removed) = (vr / 10, vp / 10, vm / 10, removed + 1);
    }
    // Round the last removed digit: half up, so an exact tie goes up too.
    let digits = vr + ((vr == vm && (!even || !vm_tz)) || last >= 5) as u64;
    (digits, e10 + removed)
}

/// Ryu's tables, computed exactly on big integers at first use: the top
/// 125 bits of 5^i for i < 326, and ⌊2^(len - 1 + 125) / 5^i⌋ + 1 for
/// i < 342, with `len` the bit length of 5^i.
fn tables() -> &'static (Vec<u128>, Vec<u128>) {
    static TABLES: OnceLock<(Vec<u128>, Vec<u128>)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut p = vec![1u64]; // 5^i, little-endian limbs
        let (mut pow5, mut inv) = (Vec::new(), Vec::new());
        for i in 0..342 {
            let len = (p.len() * 64) as i32 - p[p.len() - 1].leading_zeros() as i32;
            if i < 326 {
                // Bits `len - 1` down to `len - 125`, zeros below bit 0.
                pow5.push((1..=POW5_BITS).fold(0u128, |acc, k| {
                    let bit = usize::try_from(len - k).map_or(0, |n| p[n / 64] >> (n % 64) & 1);
                    acc << 1 | bit as u128
                }));
            }
            // Restoring division of 2^(len - 1 + 125) by p, one quotient
            // bit per step; the remainder stays below 2p.
            let d: Vec<u64> = p.iter().copied().chain([0]).collect();
            let mut r = vec![0u64; d.len()];
            r[(len as usize - 1) / 64] = 1 << ((len - 1) % 64);
            let mut q = 0u128;
            for _ in 0..=POW5_BITS {
                q <<= 1;
                if r.iter().rev().ge(d.iter().rev()) {
                    let mut borrow = false;
                    for (a, b) in r.iter_mut().zip(&d) {
                        let (x, o1) = a.overflowing_sub(*b);
                        let (y, o2) = x.overflowing_sub(borrow as u64);
                        (*a, borrow) = (y, o1 || o2);
                    }
                    q |= 1;
                }
                let mut carry = 0;
                for limb in &mut r {
                    (*limb, carry) = (*limb << 1 | carry, *limb >> 63);
                }
            }
            inv.push(q + 1);
            let mut carry = 0u128;
            for limb in &mut p {
                let x = *limb as u128 * 5 + carry;
                (*limb, carry) = (x as u64, x >> 64);
            }
            if carry != 0 {
                p.push(carry as u64);
            }
        }
        (pow5, inv)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: a seeded stream of bit patterns.
    fn bit_stream(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Compare `write_shortest` with std's `{}` on every value, byte for byte.
    fn check_all(values: impl IntoIterator<Item = f64>) -> usize {
        let mut out = String::new();
        let mut n = 0;
        for v in values {
            out.clear();
            write_shortest(&mut out, v);
            assert_eq!(out, format!("{v}"), "bits {:#018x}", v.to_bits());
            n += 1;
        }
        n
    }

    fn random_bits(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        let mut next = bit_stream(seed);
        (0..n).map(move |_| f64::from_bits(next()))
    }

    #[test]
    fn matches_std_on_random_bit_patterns() {
        assert_eq!(check_all(random_bits(0x5eed, 1_000_000)), 1_000_000);
    }

    #[test]
    fn matches_std_on_decimal_like_values() {
        let ratios = (1..=300).flat_map(|a| (1..=300).map(move |b| a as f64 / b as f64));
        let grid = (0..300).flat_map(|i| (0..300).map(move |j| 0.01 * i as f64 + 0.02 * j as f64));
        check_all(ratios.chain(grid).flat_map(|v| [v, -v]));
    }

    #[test]
    fn matches_std_on_every_power_of_two() {
        let powers = (-1074..=1023).map(|e| 2f64.powi(e));
        assert_eq!(check_all(powers.flat_map(|p| [p, p * 1.5, -p])), 3 * 2098);
    }

    #[test]
    fn matches_std_next_to_zero_the_normal_boundary_and_max() {
        let min_normal = f64::MIN_POSITIVE.to_bits();
        let max = f64::MAX.to_bits();
        let near = (1..=100_000u64)
            .chain(min_normal - 50_000..min_normal + 50_000)
            .chain(max - 99_999..=max);
        assert_eq!(check_all(near.map(f64::from_bits)), 300_000);
    }

    #[test]
    fn ties_round_up_and_the_layout_is_positional() {
        let mut out = String::new();
        write_shortest(&mut out, f64::from_bits(0x4317_9085_685d_83c9));
        assert_eq!(out, "1658206780088562.3");
        for (v, want) in [(1e-7, "0.0000001"), (-0.5, "-0.5"), (0.1, "0.1")] {
            out.clear();
            write_shortest(&mut out, v);
            assert_eq!(out, want);
        }
        out.clear();
        write_shortest(&mut out, 1e300);
        assert_eq!(out, format!("1{}", "0".repeat(300)));
        out.clear();
        write_shortest(&mut out, 5e-324);
        assert_eq!(out, format!("0.{}5", "0".repeat(323)));
        let special = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e16];
        check_all(special);
    }

    /// Release-mode sweep: `cargo test --release -p fsc-ir -- --ignored`.
    #[test]
    #[ignore]
    fn matches_std_on_ten_million_random_bit_patterns() {
        assert_eq!(check_all(random_bits(0x00dd_ba11, 10_000_000)), 10_000_000);
    }
}
