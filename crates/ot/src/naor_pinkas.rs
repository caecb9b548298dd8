//! Naor–Pinkas 1-out-of-2 oblivious transfer (base OT).
//!
//! Honest-but-curious variant over [`crate::MersenneGroup`]:
//!
//! 1. Sender picks random `c`, publishes `C = g^c`.
//! 2. For each OT the receiver with choice `b` picks random `x`, sets
//!    `PK_b = g^x`, `PK_{1−b} = C · PK_b^{−1}`, and sends `PK_0`.
//! 3. Sender derives `PK_1 = C · PK_0^{−1}`, picks random `r_j` and sends
//!    `(g^{r_j}, H(PK_j^{r_j}) ⊕ m_j)` for `j ∈ {0,1}`.
//! 4. Receiver decrypts its branch with `H((g^{r_b})^x)`.
//!
//! The receiver never reveals `b`: `PK_0` is uniform either way. The
//! unchosen pad `PK_{1−b}^{r}` equals `g^{r(c−x)}`, unknowable without `c`.
//!
//! Wire bytes are parsed with [`MersenneGroup::element_from_wire`]: every
//! element must arrive at the group's fixed width, in canonical range,
//! and non-zero (`inv(0)` silently returns 0, which would collapse both
//! pads into derivable values). Hash tweaks advance with a
//! batch-persistent counter on each side, so repeated base-OT batches on
//! one endpoint never reuse a (key, tweak) pair.
//!
//! Each side pays one field inversion per batch: the sender inverts all
//! received `PK_0` together, and the receiver all its `PK_b`, with
//! [`MersenneGroup::batch_inv`]. The receiver inverts and multiplies by
//! `C` for *every* OT and then selects `PK_0` without a branch, so its
//! work before the `PK_0` frame does not depend on the choice bits: a
//! delay that grew with each `b = 1` would reveal their Hamming weight
//! to the peer — under IKNP, that of the garbler-side secret `s`.

use arm2gc_comm::Channel;
use arm2gc_crypto::{GarbleHash, Label, Prg};

use crate::{Element, MersenneGroup, OtError, OtReceiver, OtSender};

/// Sender side of the Naor–Pinkas base OT.
#[derive(Debug)]
pub struct NaorPinkasSender {
    group: MersenneGroup,
    prg: Prg,
    hash: GarbleHash,
    /// OTs completed by earlier `send` batches; tweaks for OT `i` of the
    /// current batch are `2(counter + i)` and `2(counter + i) + 1`.
    counter: u64,
}

impl NaorPinkasSender {
    /// Creates a sender over `group` with randomness from `prg`.
    pub fn new(group: MersenneGroup, prg: Prg) -> Self {
        Self {
            group,
            prg,
            hash: GarbleHash::fixed(),
            counter: 0,
        }
    }
}

/// Receiver side of the Naor–Pinkas base OT.
#[derive(Debug)]
pub struct NaorPinkasReceiver {
    group: MersenneGroup,
    prg: Prg,
    hash: GarbleHash,
    /// Mirrors [`NaorPinkasSender::counter`]; both sides see the same
    /// batch sizes, so the tweak sequences stay aligned.
    counter: u64,
}

impl NaorPinkasReceiver {
    /// Creates a receiver over `group` with randomness from `prg`.
    pub fn new(group: MersenneGroup, prg: Prg) -> Self {
        Self {
            group,
            prg,
            hash: GarbleHash::fixed(),
            counter: 0,
        }
    }
}

fn pad(hash: &GarbleHash, group: &MersenneGroup, elem: &Element, tweak: u64) -> Label {
    hash.hash_bytes(&group.element_bytes(elem), tweak)
}

impl OtSender for NaorPinkasSender {
    fn send(&mut self, ch: &mut dyn Channel, pairs: &[(Label, Label)]) -> Result<(), OtError> {
        let group = &self.group;
        let c_exp = group.random_exponent(&mut self.prg);
        let big_c = group.pow_base(&c_exp);
        ch.send(&group.element_bytes(&big_c))?;

        // Receive all PK_0s, each a canonical fixed-width element.
        let pk0_raw = ch.recv()?;
        let width = group.element_width();
        if pk0_raw.len() != width * pairs.len() {
            return Err(OtError::Protocol("PK batch has wrong length"));
        }
        let pk0s = pk0_raw
            .chunks_exact(width)
            .map(|raw| group.element_from_wire(raw))
            .collect::<Result<Vec<_>, _>>()?;
        // PK_1 = C · PK_0^{−1}, with one inversion for the whole batch.
        let pk0_invs = group.batch_inv(&pk0s);

        let mut payload = Vec::with_capacity(pairs.len() * (width + 32));
        for (i, ((pair, pk0), pk0_inv)) in pairs.iter().zip(&pk0s).zip(&pk0_invs).enumerate() {
            let pk1 = group.mul(&big_c, pk0_inv);
            let r = group.random_exponent(&mut self.prg);
            let gr = group.pow_base(&r);
            let tweak = 2 * (self.counter + i as u64);
            let e0 = pad(&self.hash, group, &group.pow(pk0, &r), tweak) ^ pair.0;
            let e1 = pad(&self.hash, group, &group.pow(&pk1, &r), tweak + 1) ^ pair.1;
            payload.extend_from_slice(&group.element_bytes(&gr));
            payload.extend_from_slice(&e0.to_bytes());
            payload.extend_from_slice(&e1.to_bytes());
        }
        self.counter += pairs.len() as u64;
        ch.send(&payload)?;
        Ok(())
    }
}

#[cfg(test)]
impl NaorPinkasSender {
    fn tweak_counter(&self) -> u64 {
        self.counter
    }
}

#[cfg(test)]
impl NaorPinkasReceiver {
    fn tweak_counter(&self) -> u64 {
        self.counter
    }
}

impl OtReceiver for NaorPinkasReceiver {
    fn receive(&mut self, ch: &mut dyn Channel, choices: &[bool]) -> Result<Vec<Label>, OtError> {
        let group = &self.group;
        // The element width is a group constant — never taken from the
        // frame, so a hostile length cannot steer later slicing or size
        // our allocations.
        let width = group.element_width();
        let big_c_raw = ch.recv()?;
        let big_c = group.element_from_wire(&big_c_raw)?;

        let exps: Vec<_> = choices
            .iter()
            .map(|_| group.random_exponent(&mut self.prg))
            .collect();
        let pk_bs: Vec<Element> = exps.iter().map(|x| group.pow_base(x)).collect();
        // PK_{1−b} = C · PK_b^{−1} for every OT, whatever b, so the work
        // does not depend on the choice bits; then PK_0 is selected.
        let pk_b_invs = group.batch_inv(&pk_bs);
        let mut pk0s = Vec::with_capacity(choices.len() * width);
        for ((&b, pk_b), pk_b_inv) in choices.iter().zip(&pk_bs).zip(&pk_b_invs) {
            let pk_other = group.mul(&big_c, pk_b_inv);
            pk0s.extend_from_slice(&group.element_bytes(&Element::select(pk_b, &pk_other, b)));
        }
        ch.send(&pk0s)?;

        let payload = ch.recv()?;
        let rec_width = width + 32;
        if payload.len() != rec_width * choices.len() {
            return Err(OtError::Protocol("ciphertext batch has wrong length"));
        }
        let mut out = Vec::with_capacity(choices.len());
        for (i, ((&b, x), rec)) in choices
            .iter()
            .zip(&exps)
            .zip(payload.chunks_exact(rec_width))
            .enumerate()
        {
            let gr = group.element_from_wire(&rec[..width])?;
            let key = group.pow(&gr, x);
            let tweak = 2 * (self.counter + i as u64) + b as u64;
            let e = if b {
                &rec[width + 16..width + 32]
            } else {
                &rec[width..width + 16]
            };
            let e = Label::from_bytes(e.try_into().expect("16 bytes"));
            out.push(pad(&self.hash, group, &key, tweak) ^ e);
        }
        self.counter += choices.len() as u64;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm2gc_comm::duplex;

    #[test]
    fn transfers_chosen_labels_small_group() {
        let group = MersenneGroup::test_group();
        let (mut ca, mut cb) = duplex();
        let mut prg = Prg::from_seed([2; 16]);
        let pairs: Vec<(Label, Label)> = (0..16)
            .map(|_| (Label::random(&mut prg), Label::random(&mut prg)))
            .collect();
        let choices: Vec<bool> = (0..16).map(|i| i % 2 == 1).collect();

        let pairs_clone = pairs.clone();
        let g2 = group.clone();
        let sender = std::thread::spawn(move || {
            let mut s = NaorPinkasSender::new(g2, Prg::from_seed([3; 16]));
            s.send(&mut ca, &pairs_clone).unwrap();
        });
        let mut r = NaorPinkasReceiver::new(group, Prg::from_seed([4; 16]));
        let got = r.receive(&mut cb, &choices).unwrap();
        sender.join().unwrap();

        for ((pair, &c), l) in pairs.iter().zip(&choices).zip(&got) {
            assert_eq!(*l, if c { pair.1 } else { pair.0 });
        }
    }

    #[test]
    fn unchosen_label_stays_hidden() {
        // The receiver's output must differ from the unchosen label
        // (sanity check that pads are branch-specific).
        let group = MersenneGroup::test_group();
        let (mut ca, mut cb) = duplex();
        let mut prg = Prg::from_seed([7; 16]);
        let pair = (Label::random(&mut prg), Label::random(&mut prg));

        let g2 = group.clone();
        let sender = std::thread::spawn(move || {
            let mut s = NaorPinkasSender::new(g2, Prg::from_seed([8; 16]));
            s.send(&mut ca, &[pair]).unwrap();
        });
        let mut r = NaorPinkasReceiver::new(group, Prg::from_seed([9; 16]));
        let got = r.receive(&mut cb, &[false]).unwrap();
        sender.join().unwrap();
        assert_eq!(got[0], pair.0);
        assert_ne!(got[0], pair.1);
    }

    #[test]
    fn repeated_batches_advance_the_tweak_counter() {
        // Tweaks must not restart at 2i per call: the counter persists
        // across batches on both roles, and transfers stay correct.
        let group = MersenneGroup::test_group();
        let (mut ca, mut cb) = duplex();
        let mut prg = Prg::from_seed([12; 16]);
        let pairs: Vec<(Label, Label)> = (0..8)
            .map(|_| (Label::random(&mut prg), Label::random(&mut prg)))
            .collect();
        let choices: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();

        let pairs2 = pairs.clone();
        let choices2 = choices.clone();
        let g2 = group.clone();
        let (got, rx_counter) = std::thread::scope(|s| {
            s.spawn(move || {
                let mut snd = NaorPinkasSender::new(g2, Prg::from_seed([13; 16]));
                snd.send(&mut ca, &pairs2[..5]).unwrap();
                assert_eq!(snd.tweak_counter(), 5);
                snd.send(&mut ca, &pairs2[5..]).unwrap();
                assert_eq!(snd.tweak_counter(), 8);
            });
            let mut rcv = NaorPinkasReceiver::new(group, Prg::from_seed([14; 16]));
            let mut got = rcv.receive(&mut cb, &choices2[..5]).unwrap();
            got.extend(rcv.receive(&mut cb, &choices2[5..]).unwrap());
            (got, rcv.tweak_counter())
        });
        assert_eq!(rx_counter, 8);
        for ((pair, &c), l) in pairs.iter().zip(&choices).zip(&got) {
            assert_eq!(*l, if c { pair.1 } else { pair.0 });
        }
    }

    #[test]
    fn receiver_rejects_wrong_width_c() {
        let group = MersenneGroup::test_group();
        let (mut hostile, mut victim) = duplex();
        // 15 bytes instead of the group's fixed 16: a hostile width must
        // not leak into slicing arithmetic.
        hostile.send(&[0x42u8; 15]).unwrap();
        let mut r = NaorPinkasReceiver::new(group, Prg::from_seed([21; 16]));
        let err = r.receive(&mut victim, &[false, true]).unwrap_err();
        assert!(matches!(err, OtError::Protocol(m) if m.contains("width")));
    }

    #[test]
    fn receiver_rejects_zero_c() {
        let group = MersenneGroup::test_group();
        let (mut hostile, mut victim) = duplex();
        hostile.send(&vec![0u8; group.element_width()]).unwrap();
        let mut r = NaorPinkasReceiver::new(group, Prg::from_seed([22; 16]));
        let err = r.receive(&mut victim, &[true]).unwrap_err();
        assert!(matches!(err, OtError::Protocol(m) if m.contains("zero")));
    }

    #[test]
    fn receiver_rejects_zero_gr_and_truncated_payload() {
        let group = MersenneGroup::test_group();
        let width = group.element_width();

        // Hostile "sender": valid C, then a payload whose g^r element is
        // zero — the pad key would collapse to H(0).
        let (mut hostile, mut victim) = duplex();
        let mut prg = Prg::from_seed([23; 16]);
        let c = group.pow_base(&group.random_exponent(&mut prg));
        hostile.send(&group.element_bytes(&c)).unwrap();
        let g2 = group.clone();
        let err = std::thread::scope(|s| {
            s.spawn(move || {
                let _pk0s = hostile.recv().unwrap();
                let mut payload = vec![0u8; width]; // zero g^r
                payload.extend_from_slice(&[0xa5; 32]);
                hostile.send(&payload).unwrap();
            });
            let mut r = NaorPinkasReceiver::new(g2, Prg::from_seed([24; 16]));
            r.receive(&mut victim, &[false]).unwrap_err()
        });
        assert!(matches!(err, OtError::Protocol(m) if m.contains("zero")));

        // Truncated ciphertext batch.
        let (mut hostile, mut victim) = duplex();
        hostile.send(&group.element_bytes(&c)).unwrap();
        let g2 = group.clone();
        let err = std::thread::scope(|s| {
            s.spawn(move || {
                let _pk0s = hostile.recv().unwrap();
                hostile.send(&vec![0xa5u8; width + 31]).unwrap(); // 1 byte short
            });
            let mut r = NaorPinkasReceiver::new(g2, Prg::from_seed([25; 16]));
            r.receive(&mut victim, &[false]).unwrap_err()
        });
        assert!(matches!(err, OtError::Protocol(m) if m.contains("length")));
    }

    #[test]
    fn sender_rejects_zero_and_missized_pk0() {
        let group = MersenneGroup::test_group();
        let width = group.element_width();
        let mut prg = Prg::from_seed([26; 16]);
        let pair = (Label::random(&mut prg), Label::random(&mut prg));

        // Zero PK_0 of the right width: inv(0) = 0 would collapse PK_1.
        let (mut hostile, mut victim) = duplex();
        let g2 = group.clone();
        let err = std::thread::scope(|s| {
            s.spawn(move || {
                let _c = hostile.recv().unwrap();
                hostile.send(&vec![0u8; width]).unwrap();
            });
            let mut snd = NaorPinkasSender::new(g2, Prg::from_seed([27; 16]));
            snd.send(&mut victim, &[pair]).unwrap_err()
        });
        assert!(matches!(err, OtError::Protocol(m) if m.contains("zero")));

        // Missized batch (hostile width) is refused before any parsing.
        let (mut hostile, mut victim) = duplex();
        let err = std::thread::scope(|s| {
            s.spawn(move || {
                let _c = hostile.recv().unwrap();
                hostile.send(&vec![1u8; width + 1]).unwrap();
            });
            let mut snd = NaorPinkasSender::new(group, Prg::from_seed([28; 16]));
            snd.send(&mut victim, &[pair]).unwrap_err()
        });
        assert!(matches!(err, OtError::Protocol(m) if m.contains("length")));
    }

    #[test]
    fn transfers_chosen_labels_standard_group() {
        let group = MersenneGroup::standard();
        let (mut ca, mut cb) = duplex();
        let mut prg = Prg::from_seed([31; 16]);
        let pairs: Vec<(Label, Label)> = (0..4)
            .map(|_| (Label::random(&mut prg), Label::random(&mut prg)))
            .collect();
        let choices = [true, false, false, true];

        let pairs_clone = pairs.clone();
        let g2 = group.clone();
        let sender = std::thread::spawn(move || {
            let mut s = NaorPinkasSender::new(g2, Prg::from_seed([32; 16]));
            s.send(&mut ca, &pairs_clone).unwrap();
        });
        let mut r = NaorPinkasReceiver::new(group, Prg::from_seed([33; 16]));
        let got = r.receive(&mut cb, &choices).unwrap();
        sender.join().unwrap();
        for ((pair, &c), l) in pairs.iter().zip(&choices).zip(&got) {
            assert_eq!(*l, if c { pair.1 } else { pair.0 });
        }
    }
}
