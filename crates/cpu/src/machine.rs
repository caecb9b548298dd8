//! Memory map, machine configuration and program runners.
//!
//! The framework keeps the paper's five memories (§4.1): instruction,
//! data/stack, Alice input, Bob input and output. All are word-addressed
//! flip-flop arrays; region selection uses address bits \[14:10\]:
//!
//! | region | base (words) | contents | init |
//! |--------|--------------|----------|------|
//! | instr  | `0x0000`     | program text | public |
//! | data   | [`DATA_BASE`]  | `.data` + stack | public |
//! | alice  | [`ALICE_BASE`] | Alice's private words | Alice |
//! | bob    | [`BOB_BASE`]   | Bob's private words | Bob |
//! | out    | [`OUT_BASE`]   | result words | zero |
//!
//! At reset `r8..r11` hold the alice/bob/out/data base addresses and
//! `sp` points one past the data region's top, so programs need no
//! address boilerplate.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::words::{bits_to_words, u32_to_bits};
use arm2gc_circuit::Circuit;
use arm2gc_core::{run_two_party_opts, InstancedOutcome, SessionOptions};

use crate::asm::Program;
use crate::circuit_gen::build_cpu;
use crate::iss::Iss;

/// Data/stack region base (word address).
pub const DATA_BASE: u32 = 0x0400;
/// Alice-input region base.
pub const ALICE_BASE: u32 = 0x0800;
/// Bob-input region base.
pub const BOB_BASE: u32 = 0x0c00;
/// Output region base.
pub const OUT_BASE: u32 = 0x1000;

/// Geometry of the garbled processor. All word counts are powers of two
/// (≤ 1024, the region stride).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instruction memory words.
    pub instr_words: usize,
    /// Data/stack memory words.
    pub data_words: usize,
    /// Alice input words.
    pub alice_words: usize,
    /// Bob input words.
    pub bob_words: usize,
    /// Output words.
    pub out_words: usize,
    /// Also expose registers/flags/PC as circuit outputs (testing).
    pub debug_outputs: bool,
}

impl CpuConfig {
    /// A compact machine for unit tests: fast to garble in debug builds.
    pub fn small() -> Self {
        Self {
            instr_words: 128,
            data_words: 64,
            alice_words: 32,
            bob_words: 32,
            out_words: 32,
            debug_outputs: false,
        }
    }

    /// The benchmark machine (larger program and data space).
    pub fn bench() -> Self {
        Self {
            instr_words: 512,
            data_words: 256,
            alice_words: 128,
            bob_words: 128,
            out_words: 128,
            debug_outputs: false,
        }
    }

    /// Initial stack pointer.
    pub fn initial_sp(&self) -> u32 {
        DATA_BASE + self.data_words as u32
    }

    /// Reset value of each register.
    pub fn reset_reg(&self, r: usize) -> u32 {
        match r {
            8 => ALICE_BASE,
            9 => BOB_BASE,
            10 => OUT_BASE,
            11 => DATA_BASE,
            13 => self.initial_sp(),
            _ => 0,
        }
    }

    fn check(&self) {
        for (name, w, cap) in [
            ("instr", self.instr_words, 1024),
            ("data", self.data_words, 1024),
            ("alice", self.alice_words, 1024),
            ("bob", self.bob_words, 1024),
            ("out", self.out_words, 1024),
        ] {
            assert!(w.is_power_of_two(), "{name}_words must be a power of two");
            assert!(w <= cap, "{name}_words exceeds the region stride");
        }
    }
}

/// Result of running a program by any of the three executors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineRun {
    /// Final contents of the output memory.
    pub output: Vec<u32>,
    /// Cycles executed.
    pub cycles: usize,
    /// Whether a HALT retired.
    pub halted: bool,
}

/// A garbled processor instance: configuration plus the synthesised
/// circuit (built once, reused for every program — §5.1).
#[derive(Debug)]
pub struct GcMachine {
    config: CpuConfig,
    circuit: Circuit,
}

impl GcMachine {
    /// Builds the CPU circuit for `config`.
    pub fn new(config: CpuConfig) -> Self {
        config.check();
        Self {
            config,
            circuit: build_cpu(&config),
        }
    }

    /// The machine geometry.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// The synthesised CPU netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Packs a program into the public initialisation bit vector
    /// (instruction image then data image, both padded).
    pub fn public_init(&self, prog: &Program) -> Vec<bool> {
        assert!(
            prog.text.len() <= self.config.instr_words,
            "program text ({} words) exceeds instruction memory ({})",
            prog.text.len(),
            self.config.instr_words
        );
        assert!(
            prog.data.len() <= self.config.data_words,
            "program data ({} words) exceeds data memory ({})",
            prog.data.len(),
            self.config.data_words
        );
        let mut words = prog.text.clone();
        words.resize(self.config.instr_words, 0);
        let mut data = prog.data.clone();
        data.resize(self.config.data_words, 0);
        words.extend(data);
        words.iter().flat_map(|&w| u32_to_bits(w, 32)).collect()
    }

    /// Packs a party's input words into its initialisation bit vector.
    pub fn party_init(&self, words: &[u32], capacity: usize) -> Vec<bool> {
        assert!(words.len() <= capacity, "party input exceeds its memory");
        let mut padded = words.to_vec();
        padded.resize(capacity, 0);
        padded.iter().flat_map(|&w| u32_to_bits(w, 32)).collect()
    }

    /// The three [`PartyData`] bundles for a protocol or simulator run.
    pub fn party_data(
        &self,
        prog: &Program,
        alice: &[u32],
        bob: &[u32],
    ) -> (PartyData, PartyData, PartyData) {
        (
            PartyData::from_init(self.party_init(alice, self.config.alice_words)),
            PartyData::from_init(self.party_init(bob, self.config.bob_words)),
            PartyData::from_init(self.public_init(prog)),
        )
    }

    /// Runs on the instruction-set simulator (the reference).
    pub fn run_iss(
        &self,
        prog: &Program,
        alice: &[u32],
        bob: &[u32],
        max_cycles: usize,
    ) -> MachineRun {
        let mut iss = Iss::new(&self.config, prog, alice, bob);
        iss.run(max_cycles);
        MachineRun {
            output: iss.output().to_vec(),
            cycles: iss.cycles(),
            halted: iss.halted(),
        }
    }

    /// Runs the circuit on the cleartext simulator.
    pub fn run_sim(
        &self,
        prog: &Program,
        alice: &[u32],
        bob: &[u32],
        max_cycles: usize,
    ) -> MachineRun {
        let (a, b, p) = self.party_data(prog, alice, bob);
        let res = arm2gc_circuit::Simulator::new(&self.circuit).run(&a, &b, &p, max_cycles);
        let out_bits = &res.final_output()[..self.config.out_words * 32];
        MachineRun {
            output: bits_to_words(out_bits),
            cycles: res.cycles_run,
            halted: res.cycles_run < max_cycles,
        }
    }

    /// Runs the program through one two-party session (both parties
    /// in-process) described by a [`SessionOptions`]: the machine's one
    /// protocol entry point. `alices`/`bobs` carry one input word set
    /// per configured lane (`opts.instances` entries each; one entry
    /// for a plain single-instance run). With several lanes, every
    /// lane of a ready gate hashes in the same wavefront, and lanes
    /// halt independently.
    ///
    /// Returns one [`MachineRun`] per lane plus the garbler's
    /// [`InstancedOutcome`] (per-lane cost counters and the
    /// session-wide batching statistics).
    ///
    /// | Instead of | Use |
    /// |---|---|
    /// | a default single-lane run | `run(…, &SessionOptions::new())` |
    /// | another OT stack or sharding | `… .ot(…)` `.shards(n)` |
    /// | N lanes in one session | `… .instances(n)` |
    ///
    /// # Panics
    /// Panics if the configuration is invalid, the lane arrays disagree
    /// with `opts.instances`, or the parties' outcomes diverge (test
    /// harness semantics). Build sessions over real transports with
    /// `arm2gc_core::drive_garbler` / `drive_evaluator` to get typed
    /// errors instead.
    pub fn run(
        &self,
        prog: &Program,
        alices: &[Vec<u32>],
        bobs: &[Vec<u32>],
        max_cycles: usize,
        opts: &SessionOptions,
    ) -> (Vec<MachineRun>, InstancedOutcome) {
        assert_eq!(alices.len(), bobs.len(), "one Bob input set per lane");
        let mut lane_alice = Vec::with_capacity(alices.len());
        let mut lane_bob = Vec::with_capacity(alices.len());
        let mut lane_public = Vec::with_capacity(alices.len());
        for (alice, bob) in alices.iter().zip(bobs) {
            let (a, b, p) = self.party_data(prog, alice, bob);
            lane_alice.push(a);
            lane_bob.push(b);
            lane_public.push(p);
        }
        let (alice_out, bob_out) = run_two_party_opts(
            &self.circuit,
            &lane_alice,
            &lane_bob,
            &lane_public,
            max_cycles,
            opts,
        );
        assert_eq!(
            alice_out.batching, bob_out.batching,
            "parties disagree on batching stats"
        );
        let runs = alice_out
            .lanes
            .iter()
            .zip(&bob_out.lanes)
            .map(|(a, b)| {
                assert_eq!(a.outputs, b.outputs, "party outputs differ");
                let out_bits = &a.final_output()[..self.config.out_words * 32];
                MachineRun {
                    output: bits_to_words(out_bits),
                    cycles: a.stats.cycles_run,
                    halted: a.stats.cycles_run < max_cycles,
                }
            })
            .collect();
        (runs, alice_out)
    }

    /// The paper's "w/o SkipGate" cost for a run of `cycles` cycles:
    /// every nonlinear CPU gate garbled every cycle (Table 4 baseline).
    pub fn baseline_cost(&self, cycles: usize) -> u128 {
        self.circuit.non_xor_count() as u128 * cycles as u128
    }
}
