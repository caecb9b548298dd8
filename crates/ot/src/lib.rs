//! Oblivious transfer substrate.
//!
//! The evaluator obtains the wire labels for her private input bits via
//! 1-out-of-2 OT (paper §2.2). This crate provides:
//!
//! * [`NaorPinkasSender`]/[`NaorPinkasReceiver`] — the Naor–Pinkas base
//!   OT over a Mersenne-prime multiplicative group, on our own
//!   fixed-width [`Element`] arithmetic (no external bignum crates),
//! * [`IknpSender`]/[`IknpReceiver`] — the IKNP OT extension, turning 128
//!   base OTs into any number of fast symmetric-key OTs,
//! * [`InsecureOt`] — a cleartext reference implementation used by unit
//!   tests and gate-count benchmarks (clearly labelled; never use it for
//!   actual privacy),
//! * [`BigUint`] — a minimal heap big integer, off the OT path: the
//!   reference the group arithmetic is tested against.
//!
//! All implementations speak over an [`arm2gc_comm::Channel`] and
//! transfer [`Label`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod biguint;
mod group;
mod iknp;
mod insecure;
mod naor_pinkas;

pub use biguint::BigUint;
pub use group::{Element, Exponent, MersenneGroup};
pub use iknp::{IknpReceiver, IknpSender};
pub use insecure::InsecureOt;
pub use naor_pinkas::{NaorPinkasReceiver, NaorPinkasSender};

use std::error::Error;
use std::fmt;

use arm2gc_comm::{Channel, ChannelError};
use arm2gc_crypto::Label;

/// Errors surfaced by OT protocols.
#[derive(Debug)]
pub enum OtError {
    /// The underlying channel failed.
    Channel(ChannelError),
    /// The peer sent a malformed message.
    Protocol(&'static str),
}

impl fmt::Display for OtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OtError::Channel(e) => write!(f, "ot channel failure: {e}"),
            OtError::Protocol(m) => write!(f, "ot protocol violation: {m}"),
        }
    }
}

impl Error for OtError {}

impl From<ChannelError> for OtError {
    fn from(e: ChannelError) -> Self {
        OtError::Channel(e)
    }
}

/// The sending side of a batch of 1-out-of-2 OTs.
pub trait OtSender {
    /// Transfers one label of each pair, according to the receiver's
    /// hidden choice bits.
    ///
    /// # Errors
    /// Fails if the channel drops or the peer misbehaves.
    fn send(&mut self, ch: &mut dyn Channel, pairs: &[(Label, Label)]) -> Result<(), OtError>;
}

/// The receiving side of a batch of 1-out-of-2 OTs.
pub trait OtReceiver {
    /// Obtains `pairs[i].choices[i]` for every `i` without revealing the
    /// choices.
    ///
    /// # Errors
    /// Fails if the channel drops or the peer misbehaves.
    fn receive(&mut self, ch: &mut dyn Channel, choices: &[bool]) -> Result<Vec<Label>, OtError>;
}
