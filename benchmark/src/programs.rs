//! The benchmark's inputs: frozen Fortran templates, a seeded generator of
//! linear stencil programs, and hand-written references for their results.
//! The compiler under test receives only the source text produced here.

use crate::rng::Rng;

const GS: &str = include_str!("../programs/gs.f90");
const PW: &str = include_str!("../programs/pw.f90");
const SQRT: &str = include_str!("../programs/sqrt.f90");
const VARCOEF: &str = include_str!("../programs/varcoef.f90");
const MINMAX: &str = include_str!("../programs/minmax.f90");

/// The five fixed kernels. `iters` is the time-loop trip count (for PW,
/// the number of repetitions of the advection nest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    Gs,
    Pw,
    Sqrt,
    Varcoef,
    Minmax,
}

impl Kernel {
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Gs => "gs",
            Kernel::Pw => "pw",
            Kernel::Sqrt => "sqrt",
            Kernel::Varcoef => "varcoef",
            Kernel::Minmax => "minmax",
        }
    }

    pub fn source(self, n: usize, iters: usize) -> String {
        let template = match self {
            Kernel::Gs => GS,
            Kernel::Pw => PW,
            Kernel::Sqrt => SQRT,
            Kernel::Varcoef => VARCOEF,
            Kernel::Minmax => MINMAX,
        };
        template
            .replace("{n}", &n.to_string())
            .replace("{iters}", &iters.to_string())
    }

    /// Arrays whose final contents are the program's result.
    pub fn outputs(self) -> &'static [&'static str] {
        match self {
            Kernel::Pw => &["su", "sv", "sw"],
            _ => &["u"],
        }
    }

    /// Interior cell updates of one run, the numerator of MCells/s as the
    /// paper counts it: initialisation and copy-back sweeps are not counted.
    pub fn cell_updates(self, n: usize, iters: usize) -> u64 {
        (n as u64).pow(3) * iters as u64
    }
}

/// Column-major index into an `(n+2)^3` array declared `(0:n+1, ...)`.
#[inline]
fn at(e: usize, i: usize, j: usize, k: usize) -> usize {
    i + e * (j + e * k)
}

/// Final `u` of the GS template: Jacobi-style double-buffered 7-point
/// average, written independently of the compiler under test.
pub fn gs_reference(n: usize, iters: usize) -> Vec<f64> {
    let e = n + 2;
    let mut u = vec![0.0; e * e * e];
    for k in 0..e {
        for j in 0..e {
            for i in 0..e {
                u[at(e, i, j, k)] = 0.01 * i as f64 + 0.02 * j as f64 + 0.03 * k as f64;
            }
        }
    }
    let mut un = vec![0.0; e * e * e];
    for _ in 0..iters {
        for k in 1..=n {
            for j in 1..=n {
                for i in 1..=n {
                    un[at(e, i, j, k)] = (u[at(e, i - 1, j, k)]
                        + u[at(e, i + 1, j, k)]
                        + u[at(e, i, j - 1, k)]
                        + u[at(e, i, j + 1, k)]
                        + u[at(e, i, j, k - 1)]
                        + u[at(e, i, j, k + 1)])
                        / 6.0;
                }
            }
        }
        for k in 1..=n {
            for j in 1..=n {
                let row = at(e, 1, j, k);
                u[row..row + n].copy_from_slice(&un[row..row + n]);
            }
        }
    }
    u
}

/// `su`, `sv`, `sw` of the PW template (they do not depend on the
/// repetition count: the velocity fields are never rewritten).
pub fn pw_reference(n: usize) -> [Vec<f64>; 3] {
    const TCX: f64 = 0.1;
    const TCY: f64 = 0.2;
    const TZC1: f64 = 0.3;
    const TZC2: f64 = 0.3;
    let e = n + 2;
    let len = e * e * e;
    let (mut u, mut v, mut w) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
    for k in 0..e {
        for j in 0..e {
            for i in 0..e {
                let (x, y, z) = (i as f64, j as f64, k as f64);
                u[at(e, i, j, k)] = 0.01 * x + 0.02 * y + 0.03 * z;
                v[at(e, i, j, k)] = 0.01 * z + 0.02 * x + 0.03 * y;
                w[at(e, i, j, k)] = 0.01 * y + 0.02 * z + 0.03 * x;
            }
        }
    }
    let (mut su, mut sv, mut sw) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
    for k in 1..=n {
        for j in 1..=n {
            for i in 1..=n {
                let c = at(e, i, j, k);
                let (im, ip) = (at(e, i - 1, j, k), at(e, i + 1, j, k));
                let (jm, jp) = (at(e, i, j - 1, k), at(e, i, j + 1, k));
                let (km, kp) = (at(e, i, j, k - 1), at(e, i, j, k + 1));
                su[c] = TCX * (u[im] * (u[c] + u[im]) - u[ip] * (u[c] + u[ip]))
                    + TCY * (v[c] * (u[jm] + u[c]) - v[jp] * (u[c] + u[jp]))
                    + TZC1 * w[c] * (u[km] + u[c])
                    - TZC2 * w[kp] * (u[c] + u[kp]);
                sv[c] = TCX * (u[c] * (v[im] + v[c]) - u[ip] * (v[c] + v[ip]))
                    + TCY * (v[jm] * (v[c] + v[jm]) - v[jp] * (v[c] + v[jp]))
                    + TZC1 * w[c] * (v[km] + v[c])
                    - TZC2 * w[kp] * (v[c] + v[kp]);
                sw[c] = TCX * (u[c] * (w[im] + w[c]) - u[ip] * (w[c] + w[ip]))
                    + TCY * (v[c] * (w[jm] + w[c]) - v[jp] * (w[c] + w[jp]))
                    + TZC1 * w[km] * (w[c] + w[km])
                    - TZC2 * w[kp] * (w[c] + w[kp]);
            }
        }
    }
    [su, sv, sw]
}

/// A generated program: `r = sum(coef * a(offset))` over the interior of a
/// 1-, 2- or 3-D grid. Coefficients are multiples of 1/8 and the input
/// field is a dyadic polynomial of small indices, so every intermediate is
/// exact in f64 and [`expected`](Self::expected) is bit-identical to any
/// correct execution whatever its evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearStencil {
    /// Distinguishes otherwise equal draws; part of the program text.
    pub id: u64,
    pub dims: usize,
    pub n: i64,
    pub halo: i64,
    /// `(coefficient, offset per dimension)`; unused dimensions are 0.
    pub terms: Vec<(f64, [i64; 3])>,
}

impl LinearStencil {
    /// Draw program `id`. Its size is fixed by `id` alone — dimensions
    /// cycle 1, 2, 3 and term counts 1..=6 — so every seed yields a mix
    /// of the same cost; the seed picks coefficients, offsets (within ±2)
    /// and the interior (4–9 cells a side).
    pub fn generate(rng: &mut Rng, id: u64) -> Self {
        let dims = 1 + (id % 3) as usize;
        let nterms = 1 + (id / 3) % 6;
        let n = rng.range(4, 9);
        let mut halo = 1;
        let mut terms = Vec::new();
        for _ in 0..nterms {
            // Non-zero multiples of 1/8 in [-1, 1].
            let eighths = match rng.range(-8, 7) {
                e if e >= 0 => e + 1,
                e => e,
            };
            let mut off = [0i64; 3];
            for o in off.iter_mut().take(dims) {
                *o = rng.range(-2, 2);
                halo = halo.max(o.abs());
            }
            terms.push((eighths as f64 * 0.125, off));
        }
        Self {
            id,
            dims,
            n,
            halo,
            terms,
        }
    }

    fn bias(&self) -> f64 {
        (self.id % 64) as f64 * 0.125
    }

    fn input(&self, idx: [i64; 3]) -> f64 {
        let [i, j, k] = idx.map(|x| x as f64);
        0.125 * i + 0.0625 * i * i + self.bias() + 0.0625 * i * j - 0.25 * j + 0.5 * k
    }

    pub fn source(&self) -> String {
        const VARS: [&str; 3] = ["i", "j", "k"];
        let (lo, hi) = (-self.halo, self.n + self.halo);
        let d = self.dims;
        let shape = vec![format!("{lo}:{hi}"); d].join(", ");
        let idx = VARS[..d].join(", ");
        let expr = self
            .terms
            .iter()
            .map(|(c, off)| {
                let subs: Vec<String> = (0..d)
                    .map(|x| match off[x] {
                        0 => VARS[x].to_string(),
                        o if o < 0 => format!("{}-{}", VARS[x], -o),
                        o => format!("{}+{o}", VARS[x]),
                    })
                    .collect();
                format!("{c:?} * a({})", subs.join(", "))
            })
            .collect::<Vec<_>>()
            .join(" + ");
        // The same polynomial as `input`, without the terms that vanish
        // because an unused index is 0.
        let mut init = format!("0.125 * i + 0.0625 * i * i + {:?}", self.bias());
        if d > 1 {
            init.push_str(" + 0.0625 * i * j - 0.25 * j");
        }
        if d > 2 {
            init.push_str(" + 0.5 * k");
        }
        let mut s = format!(
            "program gen_{id}\n  implicit none\n  integer, parameter :: n = {n}\n  integer :: {idx}\n  \
             real(kind=8) :: a({shape}), r({shape})\n",
            id = self.id,
            n = self.n
        );
        let nest = |s: &mut String, lo: String, hi: String, body: &[String]| {
            for x in (0..d).rev() {
                s.push_str(&format!(
                    "{}do {} = {lo}, {hi}\n",
                    "  ".repeat(d - x),
                    VARS[x]
                ));
            }
            for line in body {
                s.push_str(&format!("{}{line}\n", "  ".repeat(d + 1)));
            }
            for x in 0..d {
                s.push_str(&format!("{}end do\n", "  ".repeat(d - x)));
            }
        };
        nest(
            &mut s,
            lo.to_string(),
            hi.to_string(),
            &[format!("a({idx}) = {init}"), format!("r({idx}) = 0.0")],
        );
        nest(
            &mut s,
            "1".into(),
            "n".into(),
            &[format!("r({idx}) = {expr}")],
        );
        s.push_str(&format!("end program gen_{}\n", self.id));
        s
    }

    /// Final contents of `r`, halo included, column-major.
    pub fn expected(&self) -> Vec<f64> {
        let e = (self.n + 2 * self.halo + 1) as usize;
        let d = self.dims;
        let flat = |idx: [i64; 3]| {
            (0..d)
                .rev()
                .fold(0usize, |acc, x| acc * e + (idx[x] + self.halo) as usize)
        };
        let mut r = vec![0.0; e.pow(d as u32)];
        let span = |x: usize| if x < d { 1..=self.n } else { 0..=0 };
        for k in span(2) {
            for j in span(1) {
                for i in span(0) {
                    let mut acc = 0.0;
                    for (c, off) in &self.terms {
                        acc += c * self.input([i + off[0], j + off[1], k + off[2]]);
                    }
                    r[flat([i, j, k])] = acc;
                }
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8)
                .map(|id| LinearStencil::generate(&mut rng, id).source())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn harmonic_field_is_a_gs_fixed_point() {
        // u = 0.01 i + 0.02 j + 0.03 k equals its own 6-neighbour average.
        let u = gs_reference(5, 3);
        let e = 7;
        for k in 1..=5 {
            for j in 1..=5 {
                for i in 1..=5 {
                    let expect = 0.01 * i as f64 + 0.02 * j as f64 + 0.03 * k as f64;
                    assert!((u[at(e, i, j, k)] - expect).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn pw_reference_leaves_the_halo_untouched() {
        let [su, sv, sw] = pw_reference(4);
        for g in [&su, &sv, &sw] {
            assert_eq!(g[at(6, 0, 0, 0)], 0.0);
            assert_eq!(g[at(6, 5, 5, 5)], 0.0);
            assert!(g[at(6, 2, 2, 2)].abs() > 1e-9);
        }
    }
}
