//! Absolute base-OT transcript pins: every frame both parties send,
//! hashed into one 64-bit FNV-1a digest per scenario.
//!
//! The digests are constants recorded once, so they prove the group
//! arithmetic computes the *same values* — the same `C`, `PK_0`, `g^r`
//! and pads, in the same PRG draw order — not merely that the chosen
//! labels arrive. The pads go through the AES-based hash, so the same
//! constants must hold under `ARM2GC_AES_BACKEND=sliced`.

use std::sync::{Arc, Mutex};

use arm2gc_comm::{duplex, Channel, ChannelError};
use arm2gc_crypto::{Label, Prg};
use arm2gc_ot::{
    IknpReceiver, IknpSender, MersenneGroup, NaorPinkasReceiver, NaorPinkasSender, OtReceiver,
    OtSender,
};

/// Naor–Pinkas over `MersenneGroup::test_group()`, batches of 5 then 11
/// OTs on one pair of endpoints (the persistent tweak counter).
const NP_TEST_GROUP_RAGGED: u64 = 0xadd6_47b0_d9b7_e140;
/// Naor–Pinkas over `MersenneGroup::standard()`, one batch of K = 128.
const NP_STANDARD_K128: u64 = 0x3091_aa40_a336_86a2;
/// IKNP setup over standard-group Naor–Pinkas, then 300 extended OTs.
const IKNP_STANDARD_300: u64 = 0x293c_71b9_df38_16b6;

/// Frames sent on one channel, in order.
type Frames = Arc<Mutex<Vec<Vec<u8>>>>;

/// A [`Channel`] recording every frame sent through it.
struct Recording<C> {
    inner: C,
    sent: Frames,
}

impl<C: Channel> Channel for Recording<C> {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.sent.lock().expect("lock").push(data.to_vec());
        self.inner.send(data)
    }

    fn recv(&mut self) -> Result<Vec<u8>, ChannelError> {
        self.inner.recv()
    }
}

/// A recorded duplex pair and the two send logs.
fn recorded_duplex() -> (
    Recording<impl Channel>,
    Recording<impl Channel>,
    [Frames; 2],
) {
    let (a, b) = duplex();
    let logs = [Frames::default(), Frames::default()];
    let a = Recording {
        inner: a,
        sent: Arc::clone(&logs[0]),
    };
    let b = Recording {
        inner: b,
        sent: Arc::clone(&logs[1]),
    };
    (a, b, logs)
}

/// 64-bit FNV-1a over each log's frame count, then every frame's length
/// and bytes.
fn digest(logs: &[Frames]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for log in logs {
        let frames = log.lock().expect("lock");
        write(&(frames.len() as u64).to_le_bytes());
        for f in frames.iter() {
            write(&(f.len() as u64).to_le_bytes());
            write(f);
        }
    }
    h
}

fn label_pairs(seed: u8, n: usize) -> Vec<(Label, Label)> {
    let mut prg = Prg::from_seed([seed; 16]);
    (0..n)
        .map(|_| (Label::random(&mut prg), Label::random(&mut prg)))
        .collect()
}

fn check_chosen(pairs: &[(Label, Label)], choices: &[bool], got: &[Label]) {
    assert_eq!(got.len(), choices.len());
    for ((pair, &c), l) in pairs.iter().zip(choices).zip(got) {
        assert_eq!(*l, if c { pair.1 } else { pair.0 });
    }
}

/// Naor–Pinkas over `group`, one batch per entry of `batches` on the
/// same endpoints; returns the digest of both parties' frames.
fn naor_pinkas_digest(group: MersenneGroup, batches: &[usize]) -> u64 {
    let total: usize = batches.iter().sum();
    let pairs = label_pairs(51, total);
    let choices: Vec<bool> = (0..total).map(|i| (i * 5 + i / 3) % 3 == 1).collect();
    let (mut ca, mut cb, logs) = recorded_duplex();
    let got = std::thread::scope(|s| {
        let g2 = group.clone();
        let pairs = &pairs;
        s.spawn(move || {
            let mut snd = NaorPinkasSender::new(g2, Prg::from_seed([52; 16]));
            let mut at = 0;
            for &n in batches {
                snd.send(&mut ca, &pairs[at..at + n]).unwrap();
                at += n;
            }
        });
        let mut rcv = NaorPinkasReceiver::new(group, Prg::from_seed([53; 16]));
        let mut got = Vec::with_capacity(total);
        let mut at = 0;
        for &n in batches {
            got.extend(rcv.receive(&mut cb, &choices[at..at + n]).unwrap());
            at += n;
        }
        got
    });
    check_chosen(&pairs, &choices, &got);
    digest(&logs)
}

/// Compares a measured digest to its pin, naming the measured value.
fn assert_pinned(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: base-OT transcript digest moved; measured {got:#018x}"
    );
}

#[test]
fn transcript_naor_pinkas_test_group_ragged_batches() {
    let got = naor_pinkas_digest(MersenneGroup::test_group(), &[5, 11]);
    assert_pinned("np/test_group/[5,11]", got, NP_TEST_GROUP_RAGGED);
}

#[test]
fn transcript_naor_pinkas_standard_group_k128() {
    let got = naor_pinkas_digest(MersenneGroup::standard(), &[128]);
    assert_pinned("np/standard/[128]", got, NP_STANDARD_K128);
}

#[test]
fn transcript_iknp_over_standard_group() {
    let group = MersenneGroup::standard();
    let m = 300;
    let pairs = label_pairs(61, m);
    let choices: Vec<bool> = (0..m).map(|i| (i * 7) % 3 == 1).collect();
    let (mut ca, mut cb, logs) = recorded_duplex();
    let got = std::thread::scope(|s| {
        let g2 = group.clone();
        let choices = &choices;
        let receiver = s.spawn(move || {
            // The extension receiver drives the base OTs as sender.
            let mut base = NaorPinkasSender::new(g2, Prg::from_seed([62; 16]));
            let mut ext =
                IknpReceiver::setup(&mut base, &mut ca, &mut Prg::from_seed([63; 16])).unwrap();
            ext.receive(&mut ca, choices).unwrap()
        });
        let mut base = NaorPinkasReceiver::new(group, Prg::from_seed([64; 16]));
        let mut ext = IknpSender::setup(&mut base, &mut cb, &mut Prg::from_seed([65; 16])).unwrap();
        ext.send(&mut cb, &pairs).unwrap();
        receiver.join().unwrap()
    });
    check_chosen(&pairs, &choices, &got);
    assert_pinned("iknp/standard/300", digest(&logs), IKNP_STANDARD_300);
}
