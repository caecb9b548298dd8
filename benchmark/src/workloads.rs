//! The seven named workloads: what each builds (timed as set-up), and
//! how its inputs are drawn from the seed.
//!
//! The programs under test see only generated inputs; the seed never
//! reaches them.

use std::net::TcpListener;
use std::time::Instant;

use arm2gc_circuit::bench_circuits::{aes128, compare, matrix_mult, BenchCircuit};
use arm2gc_circuit::words::words_to_bits;
use arm2gc_circuit::Circuit;
use arm2gc_comm::TcpChannel;
use arm2gc_core::{OtBackend, OtConfig, SessionOptions};
use arm2gc_cpu::asm::{assemble, Program};
use arm2gc_cpu::machine::{CpuConfig, GcMachine};
use arm2gc_cpu::programs;

use crate::session::{Inputs, Job, Transport};

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Garbled CPU, `programs::hamming(5)`.
    CpuHamming160,
    /// Garbled CPU, `programs::bubble_sort(8)`.
    CpuBubblesort8,
    /// Table 1 `matrix_mult(8)`.
    HdlMatmul8,
    /// Table 1 `compare(16384)`.
    HdlCompare16384,
    /// Table 1 `aes128`, eight lanes in one session.
    HdlAes128X8,
    /// `aes128` over loopback TCP with the real OT stack.
    TcpAes128Ot,
    /// The in-process garbler service under a closed-loop session mix.
    SvcMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 7] = [
        Workload::CpuHamming160,
        Workload::CpuBubblesort8,
        Workload::HdlMatmul8,
        Workload::HdlCompare16384,
        Workload::HdlAes128X8,
        Workload::TcpAes128Ot,
        Workload::SvcMix,
    ];

    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpuHamming160 => "cpu_hamming160",
            Workload::CpuBubblesort8 => "cpu_bubblesort8",
            Workload::HdlMatmul8 => "hdl_matmul8",
            Workload::HdlCompare16384 => "hdl_compare16384",
            Workload::HdlAes128X8 => "hdl_aes128_x8",
            Workload::TcpAes128Ot => "tcp_aes128_ot",
            Workload::SvcMix => "svc_mix",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set — which layer it loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CpuHamming160 => {
                "garbled CPU, public control flow, ~2.6 tables/cycle: the per-cycle walk over the \
                 163k-gate netlist in core is the cost; crypto and comm idle"
            }
            Workload::CpuBubblesort8 => {
                "same CPU, secret data through memory and flags: a wide secret frontier, so a \
                 shortcut for all-public cycles shows as no gain"
            }
            Workload::HdlMatmul8 => {
                "one cycle, 522k tables, 16.7 MB, not one public gate: a single decision pass, \
                 then garble, crypto and proto framing; a public-cone shortcut has nothing to skip"
            }
            Workload::HdlCompare16384 => {
                "16,384 cycles of one table each: the fixed cost of a cycle in core (a decision \
                 pass and a batch of one) dominates; AES and the wire idle"
            }
            Workload::HdlAes128X8 => {
                "eight lanes in one session: the instanced struct-of-arrays loop and its \
                 per-session levelling"
            }
            Workload::TcpAes128Ot => {
                "loopback TCP with the 1279-bit base OT and fresh endpoints each session: what a \
                 first-time client pays in ot and comm (loopback, not a link)"
            }
            Workload::SvcMix => {
                "~1 ms sessions against the in-process service: accept, preamble, resolve, \
                 queueing and teardown in server are the cost"
            }
        }
    }
}

/// SplitMix64: the benchmark's only source of input randomness.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `(seed, stream)`; distinct streams of one seed
    /// are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn words(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.next_u32()).collect()
    }

    fn block(&mut self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.next_u64().to_le_bytes());
        b[8..].copy_from_slice(&self.next_u64().to_le_bytes());
        b
    }
}

/// The netlist a two-party workload garbles.
#[derive(Debug)]
pub enum Netlist {
    /// A Table 1 circuit.
    Hdl(Circuit),
    /// The garbled processor with the public program it runs.
    Cpu(Box<GcMachine>, Program),
}

impl Netlist {
    /// The circuit both parties walk.
    pub fn circuit(&self) -> &Circuit {
        match self {
            Netlist::Hdl(circuit) => circuit,
            Netlist::Cpu(machine, _) => machine.circuit(),
        }
    }
}

/// Everything that must exist before a two-party workload's first
/// session can start. Building one is what `setup_s` times.
#[derive(Debug)]
pub struct System {
    /// The netlist.
    pub netlist: Netlist,
    /// Clock-cycle budget of a session.
    pub cycles: usize,
    /// Session configuration, equal on both sides.
    pub opts: SessionOptions,
    /// The listener sessions connect through, for the TCP workload.
    pub listener: Option<TcpListener>,
    /// Seconds each named part of the build took (per-crate metrics).
    pub parts: Vec<(&'static str, f64)>,
}

impl System {
    /// The session description for [`crate::session::run_session`].
    pub fn job(&self) -> Job<'_> {
        Job {
            circuit: self.netlist.circuit(),
            cycles: self.cycles,
            opts: &self.opts,
            transport: match &self.listener {
                Some(listener) => Transport::Tcp(listener),
                None => Transport::Mem,
            },
        }
    }
}

/// Cycle budget of the garbled-CPU workloads; both programs halt
/// publicly long before it.
const CPU_MAX_CYCLES: usize = 4096;

fn cpu_source(workload: Workload) -> String {
    match workload {
        Workload::CpuHamming160 => programs::hamming(5),
        Workload::CpuBubblesort8 => programs::bubble_sort(8),
        _ => unreachable!("not a garbled-CPU workload"),
    }
}

fn hdl_system(bc: BenchCircuit, opts: SessionOptions) -> System {
    System {
        netlist: Netlist::Hdl(bc.circuit),
        cycles: bc.cycles,
        opts,
        listener: None,
        parts: Vec::new(),
    }
}

/// Builds a two-party workload's system. Inputs do not shape a netlist,
/// so the Table 1 generators are called on zeros here.
///
/// # Panics
/// Panics for [`Workload::SvcMix`], which is not a two-party workload,
/// and if the loopback listener cannot be bound.
pub fn build(workload: Workload) -> System {
    let opts = SessionOptions::new();
    match workload {
        Workload::CpuHamming160 | Workload::CpuBubblesort8 => {
            let t = Instant::now();
            let machine = GcMachine::new(CpuConfig::bench());
            let build_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let program = assemble(&cpu_source(workload)).expect("shipped program assembles");
            let assemble_s = t.elapsed().as_secs_f64();
            System {
                netlist: Netlist::Cpu(Box::new(machine), program),
                cycles: CPU_MAX_CYCLES,
                opts,
                listener: None,
                parts: vec![("cpu.build_s", build_s), ("cpu.assemble_s", assemble_s)],
            }
        }
        Workload::HdlMatmul8 => hdl_system(matrix_mult(8, &[0; 64], &[0; 64]), opts),
        Workload::HdlCompare16384 => hdl_system(compare(16384, 0, 0), opts),
        Workload::HdlAes128X8 => hdl_system(aes128([0; 16], [0; 16]), opts.instances(8)),
        Workload::TcpAes128Ot => System {
            listener: Some(TcpChannel::listener("127.0.0.1:0").expect("bind a loopback port")),
            ..hdl_system(
                aes128([0; 16], [0; 16]),
                opts.ot(OtBackend::NaorPinkasIknp)
                    .ot_config(OtConfig::STANDARD),
            )
        },
        Workload::SvcMix => unreachable!("svc_mix is driven by the service runner"),
    }
}

fn lanes_of(circuits: impl IntoIterator<Item = BenchCircuit>) -> Inputs {
    let mut inputs = Inputs {
        alices: Vec::new(),
        bobs: Vec::new(),
        publics: Vec::new(),
        expected: Vec::new(),
    };
    for bc in circuits {
        inputs.alices.push(bc.alice);
        inputs.bobs.push(bc.bob);
        inputs.publics.push(bc.public);
        inputs.expected.push(bc.expected);
    }
    inputs
}

/// Draws one session's inputs for `workload` from `rng`, with the
/// outputs its cleartext model expects: the instruction-set simulator
/// for the CPU workloads, the generators' semantic models otherwise.
///
/// # Panics
/// Panics for [`Workload::SvcMix`], and if the instruction-set
/// simulator does not halt within the cycle budget.
pub fn draw_inputs(workload: Workload, system: &System, rng: &mut SplitMix) -> Inputs {
    match workload {
        Workload::CpuHamming160 | Workload::CpuBubblesort8 => {
            let Netlist::Cpu(machine, program) = &system.netlist else {
                unreachable!("CPU workloads build a CPU netlist");
            };
            let words = if workload == Workload::CpuHamming160 {
                5
            } else {
                8
            };
            let (alice, bob) = (rng.words(words), rng.words(words));
            let iss = machine.run_iss(program, &alice, &bob, system.cycles);
            assert!(iss.halted, "the program halts within the cycle budget");
            let (a, b, p) = machine.party_data(program, &alice, &bob);
            Inputs {
                alices: vec![a],
                bobs: vec![b],
                publics: vec![p],
                expected: vec![words_to_bits(&iss.output)],
            }
        }
        Workload::HdlMatmul8 => lanes_of([matrix_mult(8, &rng.words(64), &rng.words(64))]),
        Workload::HdlCompare16384 => lanes_of([compare(16384, rng.next_u64(), rng.next_u64())]),
        Workload::HdlAes128X8 => lanes_of((0..8).map(|_| aes128(rng.block(), rng.block()))),
        Workload::TcpAes128Ot => lanes_of([aes128(rng.block(), rng.block())]),
        Workload::SvcMix => unreachable!("svc_mix draws workload names, not inputs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: why is one short line", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn streams_of_one_seed_differ_and_repeat() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(1, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::new(1, 0).next_u64(),
            SplitMix::new(1, 1).next_u64()
        );
        assert_ne!(
            SplitMix::new(1, 0).next_u64(),
            SplitMix::new(2, 0).next_u64()
        );
    }
}
