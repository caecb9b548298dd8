//! Property tests for `BigUint` and `MersenneGroup` at the production
//! 1279-bit width.
//!
//! The unit-level proptests in `biguint.rs` check `BigUint` against
//! `u128` oracles, which only exercises one or two limbs; the group's
//! unit tests check its fixed-width kernels against `u128` arithmetic
//! over the small Mersenne primes. The standard group runs 20-limb
//! operands, so these properties pin the carry and fold paths the oracle
//! tests can never reach, with `BigUint` as the reference: the group's
//! multiply, squaring and reduction must agree with schoolbook `BigUint`
//! products folded the slow way, and the windowed, fixed-base and
//! batched kernels with plain square-and-multiply and per-element
//! inversion.

use arm2gc_crypto::Prg;
use arm2gc_ot::{BigUint, Element, Exponent, MersenneGroup, OtError};
use proptest::collection::vec;
use proptest::prelude::*;

/// Bytes of a serialised 1279-bit group element.
const WIDE: usize = 160;

/// The Mersenne exponent of the standard group.
const E: usize = 1279;

fn big(bytes: &[u8]) -> BigUint {
    BigUint::from_be_bytes(bytes)
}

/// `2^k` as a `BigUint`.
fn pow2(k: usize) -> BigUint {
    let mut bytes = vec![0u8; k / 8 + 1];
    bytes[0] = 1 << (k % 8);
    BigUint::from_be_bytes(&bytes)
}

/// `p = 2^1279 − 1` as a `BigUint`.
fn modulus() -> BigUint {
    pow2(E).sub(&BigUint::one())
}

/// The reference reduction: fold `x ≡ (x >> e) + (x mod 2^e)` until it
/// fits, then subtract `p` once if needed.
fn ref_reduce(mut x: BigUint) -> BigUint {
    while x.bits() > E {
        x = x.shr(E).add(&x.low_bits(E));
    }
    let p = modulus();
    if x >= p {
        x = x.sub(&p);
    }
    x
}

/// Square-and-multiply over `BigUint`, most significant bit first.
fn ref_pow(base: &BigUint, exp: &BigUint) -> BigUint {
    let mut acc = BigUint::one();
    for i in (0..exp.bits()).rev() {
        acc = ref_reduce(acc.mul(&acc));
        if exp.bit(i) {
            acc = ref_reduce(acc.mul(base));
        }
    }
    acc
}

fn to_big(g: &MersenneGroup, x: &Element) -> BigUint {
    big(&g.element_bytes(x))
}

proptest! {
    #[test]
    fn wide_add_sub_roundtrip(a in vec(any::<u8>(), WIDE..WIDE + 1),
                              b in vec(any::<u8>(), WIDE..WIDE + 1)) {
        let (a, b) = (big(&a), big(&b));
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn wide_shift_recomposes(a in vec(any::<u8>(), WIDE..WIDE + 1),
                             k in 1usize..1279) {
        let a = big(&a);
        let recomposed = a.shr(k).mul(&pow2(k)).add(&a.low_bits(k));
        prop_assert_eq!(recomposed, a);
    }

    #[test]
    fn wide_byte_roundtrip(a in vec(any::<u8>(), 1usize..WIDE + 1)) {
        let a = big(&a);
        prop_assert_eq!(big(&a.to_be_bytes()), a);
    }

    #[test]
    fn standard_reduce_matches_reference(a in vec(any::<u8>(), 1usize..2 * WIDE + 1)) {
        let g = MersenneGroup::standard();
        prop_assert_eq!(to_big(&g, &g.element_from_bytes(&a)), ref_reduce(big(&a)));
    }

    #[test]
    fn standard_mul_and_square_match_reference(a in vec(any::<u8>(), WIDE..WIDE + 1),
                                               b in vec(any::<u8>(), WIDE..WIDE + 1)) {
        let g = MersenneGroup::standard();
        let (a, b) = (g.element_from_bytes(&a), g.element_from_bytes(&b));
        let (ra, rb) = (to_big(&g, &a), to_big(&g, &b));
        prop_assert_eq!(to_big(&g, &g.mul(&a, &b)), ref_reduce(ra.mul(&rb)));
        prop_assert_eq!(to_big(&g, &g.square(&a)), ref_reduce(ra.mul(&ra)));
    }

    #[test]
    fn standard_reduce_is_homomorphic(a in vec(any::<u8>(), WIDE..WIDE + 1),
                                      b in vec(any::<u8>(), WIDE..WIDE + 1)) {
        let g = MersenneGroup::standard();
        let (a, b) = (big(&a), big(&b));
        // reduce respects addition and stays in range.
        let lhs = g.element_from_bytes(&a.add(&b).to_be_bytes());
        let (ra, rb) = (to_big(&g, &g.element_from_bytes(&a.to_be_bytes())),
                        to_big(&g, &g.element_from_bytes(&b.to_be_bytes())));
        let rhs = g.element_from_bytes(&ra.add(&rb).to_be_bytes());
        prop_assert_eq!(lhs, rhs);
        prop_assert!(to_big(&g, &lhs) < modulus());
    }

    #[test]
    fn standard_mul_commutes_and_distributes(a in vec(any::<u8>(), WIDE..WIDE + 1),
                                             b in vec(any::<u8>(), WIDE..WIDE + 1),
                                             c in vec(any::<u8>(), WIDE..WIDE + 1)) {
        let g = MersenneGroup::standard();
        let (a, b, c) = (g.element_from_bytes(&a), g.element_from_bytes(&b), g.element_from_bytes(&c));
        prop_assert_eq!(g.mul(&a, &b), g.mul(&b, &a));
        prop_assert_eq!(g.mul(&g.mul(&a, &b), &c), g.mul(&a, &g.mul(&b, &c)));
        let add = |x: &Element, y: &Element| {
            g.element_from_bytes(&to_big(&g, x).add(&to_big(&g, y)).to_be_bytes())
        };
        prop_assert_eq!(g.mul(&a, &add(&b, &c)), add(&g.mul(&a, &b), &g.mul(&a, &c)));
    }

    #[test]
    fn standard_element_wire_roundtrip(a in vec(any::<u8>(), WIDE..WIDE + 1)) {
        let g = MersenneGroup::standard();
        let x = g.element_from_bytes(&a);
        prop_assume!(!x.is_zero());
        let bytes = g.element_bytes(&x);
        prop_assert_eq!(bytes.len(), WIDE);
        prop_assert_eq!(g.element_from_wire(&bytes).unwrap(), x);
    }

    #[test]
    fn standard_wire_rejects_hostile_widths(a in vec(any::<u8>(), 1usize..320)) {
        let g = MersenneGroup::standard();
        prop_assume!(a.len() != WIDE);
        let err = g.element_from_wire(&a).unwrap_err();
        prop_assert!(matches!(err, OtError::Protocol(m) if m.contains("width")));
        // And a zero element of the exact width is still refused.
        let zero = vec![0u8; WIDE];
        prop_assert!(g.element_from_wire(&zero).is_err());
    }
}

#[test]
fn standard_reduce_edge_values() {
    let g = MersenneGroup::standard();
    let p = modulus();
    let edges = [
        BigUint::zero(),
        BigUint::one(),
        p.sub(&BigUint::from_u64(2)),
        p.sub(&BigUint::one()),
        p.clone(),
        p.add(&BigUint::one()),
        pow2(E - 1),
        p.mul(&p),
        pow2(2 * E).sub(&BigUint::one()),
    ];
    for x in edges {
        assert_eq!(
            to_big(&g, &g.element_from_bytes(&x.to_be_bytes())),
            ref_reduce(x.clone()),
            "{x}"
        );
    }
}

#[test]
fn standard_pow_kernels_agree_with_square_and_multiply() {
    let g = MersenneGroup::standard();
    let mut prg = Prg::from_seed([71; 16]);
    let mut exps: Vec<[u8; 32]> = vec![[0; 32], [0xff; 32]];
    exps[0][31] = 1;
    exps.extend((0..3).map(|_| {
        let mut e = [0u8; 32];
        prg.fill_bytes(&mut e);
        e
    }));
    for bytes in &exps {
        let exp = Exponent::from_be_bytes(bytes);
        let want = ref_pow(&BigUint::from_u64(7), &big(bytes));
        assert_eq!(to_big(&g, &g.pow_base(&exp)), want);
        assert_eq!(to_big(&g, &g.pow(&g.base(), &exp)), want);
        // A full-width variable base.
        let x = g.pow_base(&g.random_exponent(&mut prg));
        assert_eq!(
            to_big(&g, &g.pow(&x, &exp)),
            ref_pow(&to_big(&g, &x), &big(bytes))
        );
    }
}

#[test]
fn standard_batch_inverse_matches_per_element_inverse() {
    let g = MersenneGroup::standard();
    let mut prg = Prg::from_seed([72; 16]);
    let mut xs = vec![
        Element::ONE,
        g.element_from_bytes(&modulus().sub(&BigUint::one()).to_be_bytes()),
    ];
    xs.extend((0..6).map(|_| g.pow_base(&g.random_exponent(&mut prg))));
    let batch = g.batch_inv(&xs);
    assert_eq!(batch.len(), xs.len());
    for (x, xi) in xs.iter().zip(&batch) {
        assert_eq!(*xi, g.inv(x));
        assert_eq!(g.mul(x, xi), Element::ONE);
    }
    assert!(g.batch_inv(&[]).is_empty());
}
