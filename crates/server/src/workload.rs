//! Named deterministic workloads.
//!
//! A service request names its workload as `"<family>:<seed>"` (e.g.
//! `"compare32:7"`). Both sides resolve the name independently — the
//! server derives the garbler's (Alice's) inputs, the client the
//! evaluator's (Bob's) — from the same seeded PRG, so no input material
//! ever travels outside the protocol itself and a load generator can
//! verify every session against a solo run of the same name.
//!
//! Families ship on the workspace's benchmark circuits:
//!
//! | family | circuit | per-lane inputs |
//! |---|---|---|
//! | `compare32` | 32-bit millionaires comparison | `a`, `b` from the lane PRG |
//! | `sum32` | 32-bit streaming sum | `a`, `b` from the lane PRG |
//!
//! Lane `l` of an instanced session draws from a PRG seeded with
//! `(seed, l)`, so every lane is a distinct but reproducible problem.

use arm2gc_circuit::bench_circuits::{compare, sum, BenchCircuit};
use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::Circuit;
use arm2gc_crypto::Prg;

/// A resolved workload: the circuit plus per-lane party data.
pub struct Workload {
    /// The netlist every lane runs.
    pub circuit: Circuit,
    /// Clock-cycle budget.
    pub cycles: usize,
    /// Alice's data, one entry per lane (server side).
    pub alices: Vec<PartyData>,
    /// Bob's data, one entry per lane (client side).
    pub bobs: Vec<PartyData>,
    /// Public data, one entry per lane.
    pub publics: Vec<PartyData>,
    /// Expected output bits per lane (from the cleartext model), for
    /// verification harnesses.
    pub expected: Vec<Vec<bool>>,
}

/// Per-lane PRG: lane `l` of seed `s` draws independently of every
/// other `(s, l)` pair.
fn lane_prg(seed: u64, lane: u64) -> Prg {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..].copy_from_slice(&lane.to_le_bytes());
    Prg::from_seed(bytes)
}

fn lane_circuit(family: &str, seed: u64, lane: u64) -> Option<BenchCircuit> {
    let mut prg = lane_prg(seed, lane);
    let a = prg.next_u64() & 0xffff_ffff;
    let b = prg.next_u64() & 0xffff_ffff;
    match family {
        "compare32" => Some(compare(32, a, b)),
        "sum32" => Some(sum(32, a, b)),
        _ => None,
    }
}

/// Resolves `name` (`"<family>:<seed>"`) into `instances` lanes of
/// party data. Returns `None` for an unknown family or an unparsable
/// seed — the service turns that into a typed `ServiceReject`.
pub fn resolve(name: &str, instances: usize) -> Option<Workload> {
    let (family, seed) = name.split_once(':')?;
    let seed: u64 = seed.parse().ok()?;
    let mut alices = Vec::with_capacity(instances);
    let mut bobs = Vec::with_capacity(instances);
    let mut publics = Vec::with_capacity(instances);
    let mut expected = Vec::with_capacity(instances);
    let mut circuit = None;
    let mut cycles = 0;
    for lane in 0..instances {
        let bc = lane_circuit(family, seed, lane as u64)?;
        alices.push(bc.alice);
        bobs.push(bc.bob);
        publics.push(bc.public);
        expected.push(bc.expected);
        cycles = bc.cycles;
        if circuit.is_none() {
            circuit = Some(bc.circuit);
        }
    }
    Some(Workload {
        circuit: circuit?,
        cycles,
        alices,
        bobs,
        publics,
        expected,
    })
}

/// The workload families [`resolve`] understands, for documentation and
/// load-generator mode mixing.
pub const FAMILIES: [&str; 2] = ["compare32", "sum32"];

/// Whether [`resolve`] accepts `name`, decided from the name alone:
/// no circuit or party data is built.
pub fn is_known(name: &str) -> bool {
    name.split_once(':')
        .is_some_and(|(family, seed)| seed.parse::<u64>().is_ok() && FAMILIES.contains(&family))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_is_deterministic_and_lane_distinct() {
        let w1 = resolve("compare32:7", 2).expect("known family");
        let w2 = resolve("compare32:7", 2).expect("known family");
        assert_eq!(w1.alices[0].stream, w2.alices[0].stream);
        assert_eq!(w1.bobs[1].stream, w2.bobs[1].stream);
        assert_eq!(w1.expected, w2.expected);
        // Different lanes (and different seeds) draw different inputs.
        assert_ne!(w1.alices[0].stream, w1.alices[1].stream);
        let w3 = resolve("compare32:8", 1).expect("known family");
        assert_ne!(w1.alices[0].stream, w3.alices[0].stream);
    }

    #[test]
    fn unknown_names_resolve_to_none() {
        assert!(resolve("compare32", 1).is_none()); // no seed
        assert!(resolve("compare32:x", 1).is_none()); // bad seed
        assert!(resolve("aes512:1", 1).is_none()); // unknown family
    }

    #[test]
    fn is_known_agrees_with_resolve() {
        for name in [
            "compare32:7",
            "sum32:0",
            "aes512:1",
            "compare32:x",
            "compare32",
            "",
        ] {
            assert_eq!(is_known(name), resolve(name, 1).is_some(), "{name:?}");
        }
        for family in FAMILIES {
            let name = format!("{family}:3");
            assert!(is_known(&name) && resolve(&name, 1).is_some(), "{name}");
        }
    }

    #[test]
    fn sum_family_resolves_too() {
        let w = resolve("sum32:3", 1).expect("known family");
        assert_eq!(w.alices.len(), 1);
        assert!(w.cycles >= 1);
    }
}
