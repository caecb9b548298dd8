//! Pluggable OT endpoint selection.
//!
//! Engines take `&mut dyn OtSender` / `&mut dyn OtReceiver`, so any OT
//! stack plugs in; this module packages the two stacks the workspace
//! ships behind one enum so runners, the CPU machine and examples can
//! switch by configuration instead of hardwiring [`InsecureOt`].
//!
//! Setup is *lazy*: the Naor–Pinkas base OTs and IKNP extension run on
//! the first `send`/`receive`, over whatever channel that call receives.
//! Inside a session that channel is the [`OtTunnel`], so the whole OT
//! stack — setup included — travels as typed `OtPayload` frames after
//! the version handshake.
//!
//! The base-OT group is chosen by [`OtConfig`] (default: the production
//! 1279-bit group). IKNP state is counter-advancing, so one base-OT
//! setup can serve many sessions: [`ResumableOtSender`] /
//! [`ResumableOtReceiver`] expose their post-setup extension state via
//! `into_state`, and a later endpoint created with `resume` extends the
//! cached columns instead of paying the setup again.
//!
//! [`OtTunnel`]: crate::session::OtTunnel

use arm2gc_comm::Channel;
use arm2gc_crypto::{Label, Prg};
use arm2gc_ot::{
    IknpReceiver, IknpSender, InsecureOt, MersenneGroup, NaorPinkasReceiver, NaorPinkasSender,
    OtError, OtReceiver, OtSender,
};

/// Which OT stack a protocol run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OtBackend {
    /// Cleartext reference OT: fast, **non-private**; tests and
    /// gate-count benchmarks only.
    #[default]
    Insecure,
    /// Naor–Pinkas base OTs over the [`OtConfig`] group, extended with
    /// IKNP. Real protocol flow.
    NaorPinkasIknp,
}

/// Parameters of the Naor–Pinkas base-OT group.
///
/// Carries the Mersenne exponent `e` (the group is the multiplicative
/// group of `GF(2^e − 1)`) and the exponent width used for discrete-log
/// secrets. Both peers must agree on the config: group elements travel
/// as fixed-width byte strings and the width is a group constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OtConfig {
    group_exponent: u32,
    exp_bits: usize,
}

impl OtConfig {
    /// The production group: `p = 2^1279 − 1` with 256-bit exponents.
    pub const STANDARD: Self = Self {
        group_exponent: 1279,
        exp_bits: 256,
    };

    /// The small, fast test group: `p = 2^127 − 1` with 96-bit
    /// exponents. Not for real use — base OTs over it finish in
    /// microseconds, which is what unit tests want.
    pub const TEST: Self = Self {
        group_exponent: 127,
        exp_bits: 96,
    };

    /// A custom group; `group_exponent` must be a known Mersenne prime
    /// exponent (validated when the group is built).
    pub fn new(group_exponent: u32, exp_bits: usize) -> Self {
        Self {
            group_exponent,
            exp_bits,
        }
    }

    /// The Mersenne exponent `e` of the group modulus `2^e − 1`.
    pub fn group_exponent(&self) -> u32 {
        self.group_exponent
    }

    /// The width of sampled exponents, in bits.
    pub fn exp_bits(&self) -> usize {
        self.exp_bits
    }

    /// Builds the group.
    ///
    /// # Panics
    /// Panics if the exponent is not a known Mersenne prime, or the
    /// exponent width exceeds 1280 bits (see [`MersenneGroup::new`]).
    pub fn group(&self) -> MersenneGroup {
        MersenneGroup::new(self.group_exponent, self.exp_bits)
    }
}

impl Default for OtConfig {
    /// Production-sized by default; tests opt into [`OtConfig::TEST`].
    fn default() -> Self {
        Self::STANDARD
    }
}

impl OtBackend {
    /// Builds the sending endpoint. `prg` seeds any setup randomness;
    /// network setup (if any) is deferred to the first OT batch, over
    /// the base-OT group picked by `config`.
    pub fn sender(self, config: OtConfig, prg: &mut Prg) -> Box<dyn OtSender + Send> {
        match self {
            OtBackend::Insecure => Box::new(InsecureOt),
            OtBackend::NaorPinkasIknp => Box::new(ResumableOtSender::fresh(config, prg)),
        }
    }

    /// Builds the receiving endpoint; see [`OtBackend::sender`].
    pub fn receiver(self, config: OtConfig, prg: &mut Prg) -> Box<dyn OtReceiver + Send> {
        match self {
            OtBackend::Insecure => Box::new(InsecureOt),
            OtBackend::NaorPinkasIknp => Box::new(ResumableOtReceiver::fresh(config, prg)),
        }
    }
}

/// Post-setup IKNP sender state, opaque to callers.
///
/// Extracted from a [`ResumableOtSender`] after a session and fed to
/// [`ResumableOtSender::resume`] to skip the base-OT setup in the next
/// one. The state is counter-advancing: every extension batch moves the
/// hash tweaks forward, so reuse never repeats a (key, tweak) pair.
#[derive(Debug)]
pub struct OtSenderState(IknpSender);

/// Post-setup IKNP receiver state, opaque to callers; see
/// [`OtSenderState`].
#[derive(Debug)]
pub struct OtReceiverState(IknpReceiver);

/// IKNP sender whose base-OT setup runs lazily on first use and whose
/// extension state survives the endpoint.
pub struct ResumableOtSender {
    prg: Prg,
    config: OtConfig,
    inner: Option<IknpSender>,
    base_setups: u64,
    extended: u64,
}

impl ResumableOtSender {
    /// An endpoint with no cached state: the first batch pays a
    /// Naor–Pinkas base-OT setup over the `config` group.
    pub fn fresh(config: OtConfig, prg: &mut Prg) -> Self {
        Self {
            prg: Prg::from_seed(prg.next_u128().to_le_bytes()),
            config,
            inner: None,
            base_setups: 0,
            extended: 0,
        }
    }

    /// An endpoint resuming cached extension state: no base OTs run;
    /// every batch extends the cached columns.
    pub fn resume(state: OtSenderState, prg: &mut Prg) -> Self {
        Self {
            prg: Prg::from_seed(prg.next_u128().to_le_bytes()),
            config: OtConfig::default(),
            inner: Some(state.0),
            base_setups: 0,
            extended: 0,
        }
    }

    /// Extracts the extension state for reuse, if setup ever ran.
    pub fn into_state(self) -> Option<OtSenderState> {
        self.inner.map(OtSenderState)
    }

    /// Base-OT setups paid by this endpoint (0 or 1).
    pub fn base_setups(&self) -> u64 {
        self.base_setups
    }

    /// OTs served by extending (fresh or resumed) columns.
    pub fn extended(&self) -> u64 {
        self.extended
    }
}

impl OtSender for ResumableOtSender {
    fn send(&mut self, ch: &mut dyn Channel, pairs: &[(Label, Label)]) -> Result<(), OtError> {
        if self.inner.is_none() {
            let mut base = NaorPinkasReceiver::new(
                self.config.group(),
                Prg::from_seed(self.prg.next_u128().to_le_bytes()),
            );
            self.inner = Some(IknpSender::setup(&mut base, ch, &mut self.prg)?);
            self.base_setups += 1;
        }
        self.inner.as_mut().expect("set above").send(ch, pairs)?;
        self.extended += pairs.len() as u64;
        Ok(())
    }
}

/// IKNP receiver whose base-OT setup runs lazily on first use and whose
/// extension state survives the endpoint; mirrors [`ResumableOtSender`].
pub struct ResumableOtReceiver {
    prg: Prg,
    config: OtConfig,
    inner: Option<IknpReceiver>,
    base_setups: u64,
    extended: u64,
}

impl ResumableOtReceiver {
    /// An endpoint with no cached state; see [`ResumableOtSender::fresh`].
    pub fn fresh(config: OtConfig, prg: &mut Prg) -> Self {
        Self {
            prg: Prg::from_seed(prg.next_u128().to_le_bytes()),
            config,
            inner: None,
            base_setups: 0,
            extended: 0,
        }
    }

    /// An endpoint resuming cached extension state; see
    /// [`ResumableOtSender::resume`].
    pub fn resume(state: OtReceiverState, prg: &mut Prg) -> Self {
        Self {
            prg: Prg::from_seed(prg.next_u128().to_le_bytes()),
            config: OtConfig::default(),
            inner: Some(state.0),
            base_setups: 0,
            extended: 0,
        }
    }

    /// Extracts the extension state for reuse, if setup ever ran.
    pub fn into_state(self) -> Option<OtReceiverState> {
        self.inner.map(OtReceiverState)
    }

    /// Base-OT setups paid by this endpoint (0 or 1).
    pub fn base_setups(&self) -> u64 {
        self.base_setups
    }

    /// OTs served by extending (fresh or resumed) columns.
    pub fn extended(&self) -> u64 {
        self.extended
    }
}

impl OtReceiver for ResumableOtReceiver {
    fn receive(&mut self, ch: &mut dyn Channel, choices: &[bool]) -> Result<Vec<Label>, OtError> {
        if self.inner.is_none() {
            let mut base = NaorPinkasSender::new(
                self.config.group(),
                Prg::from_seed(self.prg.next_u128().to_le_bytes()),
            );
            self.inner = Some(IknpReceiver::setup(&mut base, ch, &mut self.prg)?);
            self.base_setups += 1;
        }
        let out = self
            .inner
            .as_mut()
            .expect("set above")
            .receive(ch, choices)?;
        self.extended += choices.len() as u64;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm2gc_comm::duplex;

    fn exercise(backend: OtBackend, config: OtConfig) {
        let (mut ca, mut cb) = duplex();
        let mut gen = Prg::from_seed([5; 16]);
        let pairs: Vec<(Label, Label)> = (0..150)
            .map(|_| (Label::random(&mut gen), Label::random(&mut gen)))
            .collect();
        let choices: Vec<bool> = (0..150).map(|i| i % 5 < 2).collect();
        let pairs2 = pairs.clone();
        let choices2 = choices.clone();

        let got = std::thread::scope(|s| {
            s.spawn(move || {
                let mut prg = Prg::from_seed([6; 16]);
                let mut sender = backend.sender(config, &mut prg);
                // Two batches: the second reuses the lazy setup.
                sender.send(&mut ca, &pairs2[..100]).expect("batch 1");
                sender.send(&mut ca, &pairs2[100..]).expect("batch 2");
            });
            let mut prg = Prg::from_seed([7; 16]);
            let mut receiver = backend.receiver(config, &mut prg);
            let mut got = receiver
                .receive(&mut cb, &choices2[..100])
                .expect("batch 1");
            got.extend(
                receiver
                    .receive(&mut cb, &choices2[100..])
                    .expect("batch 2"),
            );
            got
        });

        for ((pair, &c), l) in pairs.iter().zip(&choices).zip(&got) {
            assert_eq!(*l, if c { pair.1 } else { pair.0 });
        }
    }

    #[test]
    fn insecure_backend_transfers_chosen_labels() {
        exercise(OtBackend::Insecure, OtConfig::TEST);
    }

    #[test]
    fn naor_pinkas_iknp_backend_transfers_chosen_labels() {
        exercise(OtBackend::NaorPinkasIknp, OtConfig::TEST);
    }

    #[test]
    fn naor_pinkas_iknp_backend_over_standard_group() {
        exercise(OtBackend::NaorPinkasIknp, OtConfig::STANDARD);
    }

    /// One base-OT setup serves two sessions: the second endpoint pair
    /// resumes the first pair's extension state and transfers the same
    /// labels a fresh pair would.
    #[test]
    fn resumed_state_skips_base_setup_and_stays_correct() {
        let mut gen = Prg::from_seed([8; 16]);
        let pairs: Vec<(Label, Label)> = (0..80)
            .map(|_| (Label::random(&mut gen), Label::random(&mut gen)))
            .collect();
        let choices: Vec<bool> = (0..80).map(|i| i % 3 == 1).collect();

        // Session 1: fresh endpoints.
        let (mut ca, mut cb) = duplex();
        let pairs2 = pairs.clone();
        let choices2 = choices.clone();
        let (s_state, r_state, got1) = std::thread::scope(|s| {
            let tx = s.spawn(move || {
                let mut prg = Prg::from_seed([9; 16]);
                let mut snd = ResumableOtSender::fresh(OtConfig::TEST, &mut prg);
                snd.send(&mut ca, &pairs2[..40]).unwrap();
                assert_eq!(snd.base_setups(), 1);
                assert_eq!(snd.extended(), 40);
                snd.into_state().unwrap()
            });
            let mut prg = Prg::from_seed([10; 16]);
            let mut rcv = ResumableOtReceiver::fresh(OtConfig::TEST, &mut prg);
            let got = rcv.receive(&mut cb, &choices2[..40]).unwrap();
            assert_eq!(rcv.base_setups(), 1);
            let r_state = rcv.into_state().unwrap();
            (tx.join().unwrap(), r_state, got)
        });

        // Session 2: resumed endpoints — zero base setups.
        let (mut ca, mut cb) = duplex();
        let pairs2 = pairs.clone();
        let choices2 = choices.clone();
        let got2 = std::thread::scope(|s| {
            s.spawn(move || {
                let mut prg = Prg::from_seed([11; 16]);
                let mut snd = ResumableOtSender::resume(s_state, &mut prg);
                snd.send(&mut ca, &pairs2[40..]).unwrap();
                assert_eq!(snd.base_setups(), 0);
                assert_eq!(snd.extended(), 40);
            });
            let mut prg = Prg::from_seed([12; 16]);
            let mut rcv = ResumableOtReceiver::resume(r_state, &mut prg);
            let got = rcv.receive(&mut cb, &choices2[40..]).unwrap();
            assert_eq!(rcv.base_setups(), 0);
            got
        });

        let got: Vec<Label> = got1.into_iter().chain(got2).collect();
        for ((pair, &c), l) in pairs.iter().zip(&choices).zip(&got) {
            assert_eq!(*l, if c { pair.1 } else { pair.0 });
        }
    }
}
