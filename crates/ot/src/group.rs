//! The DDH-style group used by the Naor–Pinkas base OT.
//!
//! We work in the multiplicative group of `GF(p)` with `p = 2^e − 1` a
//! Mersenne prime. Mersenne moduli make reduction a cheap bit-fold
//! (`x ≡ (x >> e) + (x & (2^e − 1))`, since `2^e ≡ 1`), which lets the
//! whole base OT run without Barrett/Montgomery machinery.
//!
//! Elements are fixed-width: 20 64-bit limbs on the stack, wide enough
//! for `2^1279 − 1`, so a multiply allocates nothing. Three
//! kernels carry the base OT:
//!
//! * [`pow`](MersenneGroup::pow) — a fixed 4-bit window for variable
//!   bases (`PK_j^r`, `(g^r)^x`);
//! * [`pow_base`](MersenneGroup::pow_base) — the generator against a
//!   table of `g^(d·16^i)` built once per group value, so `g^r` is one
//!   multiply per exponent window and no squarings;
//! * [`batch_inv`](MersenneGroup::batch_inv) — Montgomery's trick: one
//!   Fermat inversion and three multiplies per element for a batch.
//!
//! [`BigUint`](crate::BigUint) is not on this path; it remains as the
//! reference the arithmetic here is tested against.
//!
//! **Substitution note (documented in DESIGN.md):** the paper's
//! deployments use standardised DH groups or elliptic curves via crypto
//! libraries we are not allowed to depend on. A 1279-bit Mersenne prime
//! group with 256-bit exponents preserves the protocol structure and a
//! comparable (honest-but-curious) hardness story.

use core::fmt;
use std::sync::Arc;

use crate::OtError;
use arm2gc_crypto::Prg;

/// Mersenne exponents that are known primes.
const KNOWN_MERSENNE_EXPONENTS: &[u32] = &[13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279];

/// 64-bit limbs of the widest supported modulus, `2^1279 − 1`.
const LIMBS: usize = 20;

/// Exponent bits consumed per window by both exponentiations.
const WINDOW: usize = 4;

/// Table entries per window: `base^0 ..= base^(2^WINDOW − 1)`.
const WINDOW_ENTRIES: usize = 1 << WINDOW;

/// Writes the fixed-width limbs as hex, most significant first.
fn fmt_limbs(limbs: &[u64; LIMBS], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let top = limbs.iter().rposition(|&l| l != 0).unwrap_or(0);
    write!(f, "0x{:x}", limbs[top])?;
    for l in limbs[..top].iter().rev() {
        write!(f, "{l:016x}")?;
    }
    Ok(())
}

/// The little-endian limbs of a big-endian integer.
fn be_limbs(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .rchunks(8)
        .map(|chunk| chunk.iter().fold(0, |acc, &b| (acc << 8) | u64::from(b)))
}

/// Parses big-endian bytes (at most `8 · LIMBS` of them) into limbs.
fn limbs_from_be(bytes: &[u8]) -> [u64; LIMBS] {
    assert!(bytes.len() <= 8 * LIMBS, "integer wider than {LIMBS} limbs");
    let mut limbs = [0u64; LIMBS];
    for (limb, v) in limbs.iter_mut().zip(be_limbs(bytes)) {
        *limb = v;
    }
    limbs
}

/// A group element: a residue modulo `p`, always canonical (`< p`), as
/// fixed-width little-endian limbs. Limbs above the group's width are
/// zero.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Element([u64; LIMBS]);

impl Element {
    /// Zero (not a group member; what a zero wire element would be).
    pub const ZERO: Self = Self([0; LIMBS]);

    /// The identity.
    pub const ONE: Self = Self::from_u64(1);

    /// A small value. It must be below the modulus of the group it is
    /// used in.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0; LIMBS];
        limbs[0] = v;
        Self(limbs)
    }

    /// True iff the element is zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// `if choice { b } else { a }`, without a branch on `choice`.
    pub(crate) fn select(a: &Self, b: &Self, choice: bool) -> Self {
        let mask = 0u64.wrapping_sub(u64::from(choice));
        Self(core::array::from_fn(|i| {
            a.0[i] ^ (mask & (a.0[i] ^ b.0[i]))
        }))
    }
}

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_limbs(&self.0, f)
    }
}

/// An exponent of up to 1280 bits, as little-endian limbs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Exponent([u64; LIMBS]);

impl Exponent {
    /// A small exponent.
    pub const fn from_u64(v: u64) -> Self {
        Self(Element::from_u64(v).0)
    }

    /// From big-endian bytes.
    ///
    /// # Panics
    /// Panics on more than 160 bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        Self(limbs_from_be(bytes))
    }

    /// Number of significant bits.
    fn bits(&self) -> usize {
        self.0
            .iter()
            .rposition(|&l| l != 0)
            .map_or(0, |i| 64 * (i + 1) - self.0[i].leading_zeros() as usize)
    }

    /// Window `i`: bits `WINDOW·i .. WINDOW·(i + 1)`.
    fn window(&self, i: usize) -> usize {
        let bit = WINDOW * i;
        ((self.0[bit / 64] >> (bit % 64)) as usize) & (WINDOW_ENTRIES - 1)
    }

    /// Clears every bit at position `k` and above.
    fn truncate(mut self, k: usize) -> Self {
        for (i, limb) in self.0.iter_mut().enumerate() {
            if 64 * i >= k {
                *limb = 0;
            } else if 64 * (i + 1) > k {
                *limb &= (1u64 << (k % 64)) - 1;
            }
        }
        self
    }
}

impl fmt::Debug for Exponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_limbs(&self.0, f)
    }
}

/// The multiplicative group of `GF(2^e − 1)`.
#[derive(Clone)]
pub struct MersenneGroup {
    e: u32,
    /// Limbs in use: `⌈e / 64⌉`.
    n: usize,
    /// The modulus `2^e − 1`; never an element itself.
    p: [u64; LIMBS],
    /// Exponents are sampled with this many random bits.
    exp_bits: usize,
    /// `g^(d · 2^(WINDOW·i))` at `[i][d]`, one row per window of an
    /// `exp_bits`-bit exponent; built once and shared by clones.
    base_table: Arc<[[Element; WINDOW_ENTRIES]]>,
}

impl fmt::Debug for MersenneGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MersenneGroup")
            .field("e", &self.e)
            .field("exp_bits", &self.exp_bits)
            .finish_non_exhaustive()
    }
}

impl MersenneGroup {
    /// The production group: `p = 2^1279 − 1`, 256-bit exponents.
    pub fn standard() -> Self {
        Self::new(1279, 256)
    }

    /// A small, fast group for tests: `p = 2^127 − 1`, 96-bit exponents.
    /// Not for real use.
    pub fn test_group() -> Self {
        Self::new(127, 96)
    }

    /// Builds the group for Mersenne exponent `e`, and the generator's
    /// table for `exp_bits`-bit exponents.
    ///
    /// # Panics
    /// Panics if `2^e − 1` is not a known Mersenne prime, or if
    /// `exp_bits` exceeds 1280.
    pub fn new(e: u32, exp_bits: usize) -> Self {
        assert!(
            KNOWN_MERSENNE_EXPONENTS.contains(&e),
            "2^{e} - 1 is not a known Mersenne prime"
        );
        assert!(
            exp_bits <= 64 * LIMBS,
            "exponents wider than {} bits are not supported",
            64 * LIMBS
        );
        // No known exponent is a multiple of 64, so the fold's carry bit
        // `e` always has room in the top limb.
        debug_assert!(e % 64 != 0);
        let n = (e as usize).div_ceil(64);
        let mut p = [0u64; LIMBS];
        p[..n].fill(u64::MAX);
        p[n - 1] = (1u64 << (e % 64)) - 1;
        let mut group = Self {
            e,
            n,
            p,
            exp_bits,
            base_table: Arc::new([]),
        };
        // Row i holds the powers of g^(2^(WINDOW·i)).
        let mut step = group.base();
        group.base_table = (0..exp_bits.div_ceil(WINDOW))
            .map(|_| {
                let row = group.powers(&step);
                step = group.mul(&row[WINDOW_ENTRIES - 1], &step);
                row
            })
            .collect();
        group
    }

    /// `x^0 ..= x^(2^WINDOW − 1)`.
    fn powers(&self, x: &Element) -> [Element; WINDOW_ENTRIES] {
        let mut row = [Element::ONE; WINDOW_ENTRIES];
        for d in 1..WINDOW_ENTRIES {
            row[d] = self.mul(&row[d - 1], x);
        }
        row
    }

    /// A fixed generator-ish base element (7 generates a large subgroup;
    /// correctness of the OT needs no primitive root).
    pub fn base(&self) -> Element {
        Element::from_u64(7)
    }

    /// `t mod p` for `t < 2^(2e)`, such as the product of two residues:
    /// since `2^e ≡ 1`, it is the low `e` bits plus the rest.
    fn fold(&self, t: &[u64; 2 * LIMBS]) -> Element {
        let n = self.n;
        // e = 64(n − 1) + s with 0 < s < 64.
        let s = self.e % 64;
        let mut acc = [0u64; LIMBS];
        let mut carry = false;
        for (k, a) in acc[..n].iter_mut().enumerate() {
            let lo = if k + 1 == n { t[k] & self.p[k] } else { t[k] };
            let hi = (t[n - 1 + k] >> s) | (t[n + k] << (64 - s));
            let (x, c1) = lo.overflowing_add(hi);
            let (x, c2) = x.overflowing_add(u64::from(carry));
            *a = x;
            carry = c1 | c2;
        }
        // The sum is below 2^(e+1): fold bit e back to bit 0, which
        // leaves at most p.
        let mut high = acc[n - 1] >> s;
        acc[n - 1] &= self.p[n - 1];
        for a in &mut acc[..n] {
            let (x, c) = a.overflowing_add(high);
            *a = x;
            high = u64::from(c);
        }
        // p itself is the one non-canonical residue the fold can leave.
        if acc == self.p {
            acc = [0; LIMBS];
        }
        Element(acc)
    }

    /// Modular multiplication.
    pub fn mul(&self, a: &Element, b: &Element) -> Element {
        let n = self.n;
        let mut t = [0u64; 2 * LIMBS];
        for (i, &ai) in a.0[..n].iter().enumerate() {
            let mut carry = 0u64;
            for (tij, &bj) in t[i..i + n].iter_mut().zip(&b.0[..n]) {
                let x = u128::from(ai) * u128::from(bj) + u128::from(*tij) + u128::from(carry);
                *tij = x as u64;
                carry = (x >> 64) as u64;
            }
            t[i + n] = carry;
        }
        self.fold(&t)
    }

    /// Modular squaring: each cross product once, doubled, plus the
    /// diagonal.
    pub fn square(&self, a: &Element) -> Element {
        let n = self.n;
        let a = &a.0[..n];
        let mut t = [0u64; 2 * LIMBS];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (tij, &aj) in t[2 * i + 1..i + n].iter_mut().zip(&a[i + 1..]) {
                let x = u128::from(ai) * u128::from(aj) + u128::from(*tij) + u128::from(carry);
                *tij = x as u64;
                carry = (x >> 64) as u64;
            }
            t[i + n] = carry;
        }
        let mut shifted_out = 0u64;
        for w in &mut t[..2 * n] {
            let next = *w >> 63;
            *w = (*w << 1) | shifted_out;
            shifted_out = next;
        }
        let mut carry = 0u128;
        for (i, &ai) in a.iter().enumerate() {
            let sq = u128::from(ai) * u128::from(ai);
            let lo = u128::from(t[2 * i]) + (sq & u128::from(u64::MAX)) + carry;
            t[2 * i] = lo as u64;
            let hi = u128::from(t[2 * i + 1]) + (sq >> 64) + (lo >> 64);
            t[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        self.fold(&t)
    }

    /// Modular exponentiation with a fixed 4-bit window: a table of
    /// `base^0 ..= base^15`, then four squarings and one multiply per
    /// window, most significant first.
    pub fn pow(&self, base: &Element, exp: &Exponent) -> Element {
        let table = self.powers(base);
        let windows = exp.bits().div_ceil(WINDOW);
        let mut acc = Element::ONE;
        for i in (0..windows).rev() {
            if i + 1 != windows {
                for _ in 0..WINDOW {
                    acc = self.square(&acc);
                }
            }
            acc = self.mul(&acc, &table[exp.window(i)]);
        }
        acc
    }

    /// `base()^exp` from the generator's table: one multiply per window.
    ///
    /// # Panics
    /// Panics if `exp` is wider than the group's exponent width.
    pub fn pow_base(&self, exp: &Exponent) -> Element {
        assert!(
            exp.bits() <= self.exp_bits,
            "exponent wider than the group's {} bits",
            self.exp_bits
        );
        self.base_table
            .iter()
            .enumerate()
            .fold(Element::ONE, |acc, (i, row)| {
                self.mul(&acc, &row[exp.window(i)])
            })
    }

    /// Modular inverse via Fermat: `x^(p−2)`.
    pub fn inv(&self, x: &Element) -> Element {
        let mut pm2 = self.p;
        pm2[0] -= 2;
        self.pow(x, &Exponent(pm2))
    }

    /// Inverts every element of `xs` with one [`inv`](Self::inv) and three
    /// multiplies per element (Montgomery's trick).
    ///
    /// Every element must be non-zero: one zero turns the whole batch to
    /// zeros. Elements parsed by [`element_from_wire`] are.
    ///
    /// [`element_from_wire`]: Self::element_from_wire
    pub fn batch_inv(&self, xs: &[Element]) -> Vec<Element> {
        // out[i] = x_0 ⋯ x_{i−1}, then acc = x_0 ⋯ x_{n−1}.
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = Element::ONE;
        for x in xs {
            out.push(acc);
            acc = self.mul(&acc, x);
        }
        // Walking back, acc holds (x_0 ⋯ x_i)^{−1}.
        let mut acc = self.inv(&acc);
        for (o, x) in out.iter_mut().zip(xs).rev() {
            *o = self.mul(o, &acc);
            acc = self.mul(&acc, x);
        }
        out
    }

    /// Samples a random exponent (`exp_bits` bits) from `prg`.
    pub fn random_exponent(&self, prg: &mut Prg) -> Exponent {
        let mut bytes = [0u8; 8 * LIMBS];
        let bytes = &mut bytes[..self.exp_bits.div_ceil(8)];
        prg.fill_bytes(bytes);
        Exponent::from_be_bytes(bytes).truncate(self.exp_bits)
    }

    /// The fixed byte width of a serialised group element.
    pub fn element_width(&self) -> usize {
        (self.e as usize).div_ceil(8)
    }

    /// Serialises a group element as fixed-width big-endian bytes.
    pub fn element_bytes(&self, x: &Element) -> Vec<u8> {
        let width = self.element_width();
        (0..width)
            .rev()
            .map(|k| (x.0[k / 8] >> (8 * (k % 8))) as u8)
            .collect()
    }

    /// Parses a big-endian integer of any length, reducing into range.
    pub fn element_from_bytes(&self, bytes: &[u8]) -> Element {
        let v: Vec<u64> = be_limbs(bytes).collect();
        let limb = |i: usize| v.get(i).copied().unwrap_or(0);
        let n = self.n;
        // Since 2^e ≡ 1, v is congruent to the sum of its e-bit chunks;
        // each partial sum is below 2^(e+1), inside `fold`'s domain.
        let mut acc = Element::ZERO;
        for start in (0..64 * v.len()).step_by(self.e as usize) {
            let mut t = [0u64; 2 * LIMBS];
            let mut carry = false;
            for (k, tk) in t[..n].iter_mut().enumerate() {
                let (w, s) = ((start + 64 * k) / 64, (start + 64 * k) % 64);
                let mut chunk = limb(w) >> s;
                if s != 0 {
                    chunk |= limb(w + 1) << (64 - s);
                }
                if k + 1 == n {
                    chunk &= self.p[k];
                }
                let (x, c1) = acc.0[k].overflowing_add(chunk);
                let (x, c2) = x.overflowing_add(u64::from(carry));
                *tk = x;
                carry = c1 | c2;
            }
            acc = self.fold(&t);
        }
        acc
    }

    /// Parses a group element received off the wire, enforcing the
    /// canonical encoding honest peers produce via
    /// [`element_bytes`](Self::element_bytes).
    ///
    /// Rejected inputs (all typed, none panic):
    /// * a slice that is not exactly [`element_width`] bytes — a hostile
    ///   length must not steer later slicing or allocation,
    /// * a non-canonical value `≥ p` — every element has exactly one
    ///   encoding,
    /// * zero — `inv(0)` under Fermat silently returns 0, which would
    ///   collapse `PK_1 = C · PK_0^{−1}` and both pads into derivable
    ///   values (and zero a whole [`batch_inv`](Self::batch_inv)).
    ///
    /// [`element_width`]: Self::element_width
    ///
    /// # Errors
    /// Returns [`OtError::Protocol`] naming the violated rule.
    pub fn element_from_wire(&self, bytes: &[u8]) -> Result<Element, OtError> {
        if bytes.len() != self.element_width() {
            return Err(OtError::Protocol("group element has wrong width"));
        }
        let x = limbs_from_be(bytes);
        // Limbs compare most significant first.
        if x.iter().rev().cmp(self.p.iter().rev()).is_ge() {
            return Err(OtError::Protocol("group element out of range"));
        }
        let x = Element(x);
        if x.is_zero() {
            return Err(OtError::Protocol("zero group element"));
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exponents of the groups checked against `u128` arithmetic.
    const SMALL_EXPONENTS: [u32; 5] = [13, 17, 19, 31, 61];

    fn modpow(mut b: u128, mut e: u128, p: u128) -> u128 {
        let mut acc = 1u128;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * b % p;
            }
            b = b * b % p;
            e >>= 1;
        }
        acc
    }

    fn value(x: &Element) -> u128 {
        u128::from(x.0[0]) | (u128::from(x.0[1]) << 64)
    }

    /// Random residues plus 0, 1, p−2, p−1 and 2^(e−1).
    fn operands(e: u32, prg: &mut Prg) -> Vec<u64> {
        let p = (1u64 << e) - 1;
        let mut v = vec![0, 1, p - 2, p - 1, 1 << (e - 1)];
        v.extend((0..12).map(|_| prg.next_u128() as u64 % p));
        v
    }

    #[test]
    fn reduce_folds_correctly() {
        let g = MersenneGroup::new(13, 12); // p = 8191
        for x in [
            0u64,
            1,
            8190,
            8191,
            8192,
            100_000,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let got = g.element_from_bytes(&x.to_be_bytes());
            let want = x % 8191;
            assert_eq!(got, Element::from_u64(want), "x={x}");
        }
    }

    #[test]
    fn small_groups_match_u128_arithmetic() {
        let mut prg = Prg::from_seed([17; 16]);
        for e in SMALL_EXPONENTS {
            let g = MersenneGroup::new(e, e as usize);
            let p = (1u128 << e) - 1;
            let xs = operands(e, &mut prg);
            for &a in &xs {
                let ea = Element::from_u64(a);
                assert_eq!(value(&g.square(&ea)), u128::from(a) * u128::from(a) % p);
                for &b in &xs {
                    let eb = Element::from_u64(b);
                    let want = u128::from(a) * u128::from(b) % p;
                    assert_eq!(value(&g.mul(&ea, &eb)), want, "e={e} {a}·{b}");
                    let exp = Exponent::from_u64(b);
                    assert_eq!(value(&g.pow(&ea, &exp)), modpow(a.into(), b.into(), p));
                    assert_eq!(value(&g.pow_base(&exp)), modpow(7, b.into(), p));
                }
                if a != 0 {
                    assert_eq!(value(&g.inv(&ea)), modpow(a.into(), p - 2, p), "e={e}");
                }
            }
            let nonzero: Vec<Element> = xs
                .iter()
                .filter(|&&a| a != 0)
                .map(|&a| Element::from_u64(a))
                .collect();
            let batch = g.batch_inv(&nonzero);
            for (x, xi) in nonzero.iter().zip(&batch) {
                assert_eq!(*xi, g.inv(x));
                assert_eq!(g.mul(x, xi), Element::ONE);
            }
        }
    }

    #[test]
    fn small_groups_fold_double_width_values() {
        let mut prg = Prg::from_seed([19; 16]);
        for e in SMALL_EXPONENTS {
            let g = MersenneGroup::new(e, e as usize);
            let p = (1u128 << e) - 1;
            let top = (1u128 << (2 * e)) - 1;
            let mut vs = vec![0, 1, p - 1, p, p + 1, p * p, top, 1 << (2 * e - 1)];
            vs.extend((0..64).map(|_| prg.next_u128() & top));
            for v in vs {
                let mut t = [0u64; 2 * LIMBS];
                t[..2].copy_from_slice(&[v as u64, (v >> 64) as u64]);
                assert_eq!(value(&g.fold(&t)), v % p, "e={e} v={v}");
                assert_eq!(value(&g.element_from_bytes(&v.to_be_bytes())), v % p);
            }
        }
    }

    #[test]
    fn pow_matches_small_field() {
        let g = MersenneGroup::new(13, 12);
        for (b, e) in [(7u64, 13u64), (2, 100), (8190, 3), (1234, 4095)] {
            assert_eq!(
                g.pow(&Element::from_u64(b), &Exponent::from_u64(e)),
                Element::from_u64(modpow(b.into(), e.into(), 8191) as u64),
                "b={b} e={e}"
            );
        }
    }

    #[test]
    fn inverse_is_inverse() {
        let g = MersenneGroup::test_group();
        let mut prg = Prg::from_seed([11; 16]);
        for _ in 0..4 {
            let x = g.pow_base(&g.random_exponent(&mut prg));
            let xi = g.inv(&x);
            assert_eq!(g.mul(&x, &xi), Element::ONE);
        }
    }

    #[test]
    fn random_exponent_matches_reference_draw() {
        // Same PRG bytes, same masking as BigUint `low_bits`, for widths
        // on and off byte and limb boundaries.
        for exp_bits in [1, 12, 61, 64, 95, 96, 100, 256] {
            let g = MersenneGroup::new(127, exp_bits);
            let (mut a, mut b) = (Prg::from_seed([23; 16]), Prg::from_seed([23; 16]));
            for _ in 0..8 {
                let got = g.random_exponent(&mut a);
                let mut bytes = vec![0u8; exp_bits.div_ceil(8)];
                b.fill_bytes(&mut bytes);
                let want = crate::BigUint::from_be_bytes(&bytes).low_bits(exp_bits);
                assert_eq!(
                    got,
                    Exponent::from_be_bytes(&want.to_be_bytes()),
                    "{exp_bits}"
                );
                assert!(got.bits() <= exp_bits);
            }
        }
    }

    #[test]
    fn select_picks_without_branching() {
        let (a, b) = (Element::from_u64(3), Element::from_u64(5));
        assert_eq!(Element::select(&a, &b, false), a);
        assert_eq!(Element::select(&a, &b, true), b);
    }

    #[test]
    fn element_bytes_roundtrip() {
        let g = MersenneGroup::test_group();
        let mut prg = Prg::from_seed([3; 16]);
        let x = g.pow_base(&g.random_exponent(&mut prg));
        let bytes = g.element_bytes(&x);
        assert_eq!(bytes.len(), 16);
        assert_eq!(g.element_from_bytes(&bytes), x);
    }

    #[test]
    fn wire_parse_accepts_canonical_elements() {
        let g = MersenneGroup::test_group();
        let mut prg = Prg::from_seed([5; 16]);
        for _ in 0..8 {
            let x = g.pow(&g.base(), &g.random_exponent(&mut prg));
            let got = g.element_from_wire(&g.element_bytes(&x)).unwrap();
            assert_eq!(got, x);
        }
    }

    #[test]
    fn wire_parse_rejects_wrong_width() {
        let g = MersenneGroup::test_group();
        let canonical = g.element_bytes(&g.base());
        for len in [0, 1, 15, 17, 160] {
            let bytes = vec![1u8; len];
            let err = g.element_from_wire(&bytes).unwrap_err();
            assert!(matches!(err, OtError::Protocol(m) if m.contains("width")));
        }
        // Sanity: the canonical width still parses.
        assert!(g.element_from_wire(&canonical).is_ok());
    }

    #[test]
    fn wire_parse_rejects_zero() {
        let g = MersenneGroup::test_group();
        let zero = vec![0u8; g.element_width()];
        let err = g.element_from_wire(&zero).unwrap_err();
        assert!(matches!(err, OtError::Protocol(m) if m.contains("zero")));
    }

    #[test]
    fn wire_parse_rejects_non_canonical() {
        // p itself (all bits of the width set up to bit e) reduces to
        // zero; anything ≥ p must be refused rather than folded.
        let g = MersenneGroup::test_group();
        let mut wire = vec![0xffu8; g.element_width()];
        wire[0] = 0x7f; // p = 2^127 − 1
        let err = g.element_from_wire(&wire).unwrap_err();
        assert!(matches!(err, OtError::Protocol(m) if m.contains("range")));
        let all_ones = vec![0xffu8; g.element_width()];
        assert!(g.element_from_wire(&all_ones).is_err());
    }

    #[test]
    fn standard_group_arithmetic_holds() {
        let g = MersenneGroup::standard();
        assert_eq!(g.element_width(), 160);
        let mut prg = Prg::from_seed([13; 16]);
        let r = g.random_exponent(&mut prg);
        let x = g.pow_base(&r);
        assert_eq!(x, g.pow(&g.base(), &r));
        let xi = g.inv(&x);
        assert_eq!(g.mul(&x, &xi), Element::ONE);
        let bytes = g.element_bytes(&x);
        assert_eq!(bytes.len(), 160);
        assert_eq!(g.element_from_wire(&bytes).unwrap(), x);
    }
}
