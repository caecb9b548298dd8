//! Differential validation of the CPU netlist.
//!
//! The circuit (run through the cleartext simulator) must agree with the
//! instruction-set simulator on every program — benchmark programs and
//! randomly generated instruction soup alike — and the SkipGate protocol
//! run must agree with both while garbling only the data-path gates.

use arm2gc_core::{SessionOptions, SkipGateStats};
use arm2gc_cpu::asm::{assemble, Program};
use arm2gc_cpu::isa::{Cond, DpOp, Instr, MemOffset, Shift, ShiftAmount};
use arm2gc_cpu::machine::{CpuConfig, GcMachine, MachineRun};
use arm2gc_cpu::programs;

/// One default single-lane SkipGate session of `prog`: the run plus
/// the garbler's cost counters.
fn garbled_run(
    m: &GcMachine,
    prog: &Program,
    alice: &[u32],
    bob: &[u32],
    max_cycles: usize,
) -> (MachineRun, SkipGateStats) {
    let (mut runs, outcome) = m.run(
        prog,
        &[alice.to_vec()],
        &[bob.to_vec()],
        max_cycles,
        &SessionOptions::new(),
    );
    (runs.remove(0), outcome.lanes[0].stats)
}

fn check_program(m: &GcMachine, src: &str, alice: &[u32], bob: &[u32], max_cycles: usize) {
    let prog = assemble(src).expect("assembles");
    let iss = m.run_iss(&prog, alice, bob, max_cycles);
    let sim = m.run_sim(&prog, alice, bob, max_cycles);
    assert_eq!(sim.output, iss.output, "output mismatch");
    assert_eq!(sim.cycles, iss.cycles, "cycle count mismatch");
    assert_eq!(sim.halted, iss.halted, "halt mismatch");
}

#[test]
fn benchmark_programs_match_iss() {
    let m = GcMachine::new(CpuConfig::small());
    check_program(&m, &programs::sum32(), &[0xffff_ffff], &[1], 100);
    check_program(&m, &programs::compare32(), &[5], &[6], 100);
    check_program(&m, &programs::compare32(), &[6], &[5], 100);
    check_program(&m, &programs::mult32(), &[0x1234_5678], &[0x9abc_def0], 100);
    check_program(
        &m,
        &programs::hamming(2),
        &[0xaaaa_aaaa, 1],
        &[0x5555_5555, 3],
        2000,
    );
    check_program(
        &m,
        &programs::sum_wide(3),
        &[u32::MAX, u32::MAX, 7],
        &[1, 0, 1],
        2000,
    );
    check_program(&m, &programs::compare_wide(3), &[0, 0, 9], &[1, 0, 9], 2000);
}

#[test]
fn matmul_matches_iss() {
    let m = GcMachine::new(CpuConfig::small());
    let a: Vec<u32> = (1..=4).collect();
    let b: Vec<u32> = (5..=8).collect();
    check_program(&m, &programs::matmul(2), &a, &b, 5000);
}

#[test]
fn sorts_match_iss() {
    let m = GcMachine::new(CpuConfig::small());
    let a: Vec<u32> = vec![44, 11, 33, 22];
    let z: Vec<u32> = vec![7, 7, 7, 7];
    check_program(&m, &programs::bubble_sort(4), &a, &z, 50_000);
    check_program(&m, &programs::merge_sort(4), &a, &z, 50_000);
}

#[test]
fn dijkstra_and_cordic_match_iss() {
    let m = GcMachine::new(CpuConfig::small());
    const INF: u32 = 0x3f00_0000;
    let n = 4;
    let mut adj = vec![INF; n * n];
    adj[1] = 2;
    adj[n + 2] = 2;
    adj[2] = 5;
    adj[2 * n + 3] = 3;
    check_program(&m, &programs::dijkstra(n), &adj, &vec![0; n * n], 50_000);

    let angle = (0.5f64 * (1u64 << 30) as f64) as u32;
    check_program(
        &m,
        &programs::cordic(8),
        &[0x2000_0000, 0, angle],
        &[0, 0, 0],
        5_000,
    );
}

/// Random instruction soup: straight-line conditional code over the full
/// dp/mem/mul repertoire, ending in HALT.
#[test]
fn random_instruction_soup_matches_iss() {
    let m = GcMachine::new(CpuConfig::small());
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rng = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };

    for trial in 0..8 {
        let mut words: Vec<u32> = Vec::new();
        // Preamble: pull some private data into registers.
        for r in 0..4u8 {
            words.push(
                Instr::Mem {
                    cond: Cond::Al,
                    load: true,
                    rn: if r % 2 == 0 { 8 } else { 9 },
                    rd: r,
                    offset: MemOffset::Imm((r / 2) as i32),
                }
                .encode(),
            );
        }
        for _ in 0..60 {
            let r = rng();
            let cond = Cond::ALL[(r % 14) as usize]; // skip AL-bias, allow NV
            let rd = ((r >> 8) % 8) as u8;
            let rn = ((r >> 16) % 8) as u8;
            let rm = ((r >> 24) % 8) as u8;
            let instr = match (r >> 32) % 10 {
                0..=4 => {
                    let op = DpOp::ALL[((r >> 40) % 16) as usize];
                    if (r >> 44) & 1 == 0 {
                        Instr::DpImm {
                            cond,
                            op,
                            s: (r >> 45) & 1 == 1,
                            rn,
                            rd,
                            imm8: (r >> 48) as u8,
                            rot: ((r >> 56) % 16) as u8,
                        }
                    } else {
                        Instr::DpReg {
                            cond,
                            op,
                            s: (r >> 45) & 1 == 1,
                            rn,
                            rd,
                            rm,
                            shift: match (r >> 46) % 4 {
                                0 => Shift::Lsl,
                                1 => Shift::Lsr,
                                2 => Shift::Asr,
                                _ => Shift::Ror,
                            },
                            amount: if (r >> 50) & 1 == 0 {
                                ShiftAmount::Imm(((r >> 51) % 32) as u8)
                            } else {
                                ShiftAmount::Reg(((r >> 51) % 8) as u8)
                            },
                        }
                    }
                }
                5..=6 => Instr::Mem {
                    cond,
                    load: (r >> 40) & 1 == 1,
                    // Base registers r8..r11 keep addresses in mapped
                    // regions; offsets stay small.
                    rn: 8 + ((r >> 41) % 4) as u8,
                    rd,
                    offset: MemOffset::Imm(((r >> 43) % 16) as i32),
                },
                _ => Instr::Mul {
                    cond,
                    rd,
                    rm,
                    rs: rn,
                },
            };
            words.push(instr.encode());
        }
        words.push(Instr::Halt { cond: Cond::Al }.encode());

        let prog = arm2gc_cpu::asm::Program {
            text: words,
            data: Vec::new(),
            symbols: Default::default(),
        };
        let alice = [0xdead_beefu32, (rng() as u32) | 1];
        let bob = [0x0bad_f00du32, rng() as u32];
        let iss = m.run_iss(&prog, &alice, &bob, 100);
        let sim = m.run_sim(&prog, &alice, &bob, 100);
        assert_eq!(sim.output, iss.output, "trial {trial}");
        assert_eq!(sim.cycles, iss.cycles, "trial {trial}");
    }
}

/// The headline property (§4.3): running the garbled processor with
/// SkipGate costs only the data-path gates. "Sum 32" on the CPU must
/// cost exactly the 31 garbled tables the paper reports.
#[test]
fn skipgate_sum32_costs_31_tables() {
    let m = GcMachine::new(CpuConfig::small());
    let prog = assemble(&programs::sum32()).expect("assembles");
    let iss = m.run_iss(&prog, &[123_456], &[654_321], 64);
    let (run, stats) = garbled_run(&m, &prog, &[123_456], &[654_321], 64);
    assert_eq!(run.output, iss.output);
    assert_eq!(run.output[0], 777_777);
    assert_eq!(
        stats.garbled_tables, 31,
        "paper Table 2: Sum 32 on ARM2GC = 31 garbled non-XOR"
    );
}

/// Compare 32 on the CPU: the paper's Table 2 reports 32; we measure 64.
/// The CMP's borrow chain costs 32, and the Z (31) + V (1) flag writes
/// land in the CPSR flip-flops, which are live sinks under the paper's
/// own fanout-initialisation rule — so the extra 32 cannot be skipped by
/// Alg. 4/6 as specified. See DESIGN.md, "Paper vs measured".
#[test]
fn skipgate_compare32_costs_64_tables() {
    let m = GcMachine::new(CpuConfig::small());
    let prog = assemble(&programs::compare32()).expect("assembles");
    let (run, stats) = garbled_run(&m, &prog, &[1000], &[2000], 64);
    assert_eq!(run.output[0], 1);
    assert_eq!(stats.garbled_tables, 64);
}

/// Mult 32 on the CPU: the paper's Table 2 reports 993.
#[test]
fn skipgate_mult32_costs_993_tables() {
    let m = GcMachine::new(CpuConfig::small());
    let prog = assemble(&programs::mult32()).expect("assembles");
    let (run, stats) = garbled_run(&m, &prog, &[0xffff], &[0x10001], 64);
    assert_eq!(run.output[0], 0xffffu32.wrapping_mul(0x10001));
    assert_eq!(stats.garbled_tables, 993);
}

/// The reduction factor vs conventional GC on the processor must be
/// enormous (Table 4's "Improv. 1000X" column).
#[test]
fn skipgate_reduction_factor_is_huge() {
    let m = GcMachine::new(CpuConfig::small());
    let prog = assemble(&programs::sum32()).expect("assembles");
    let (_, stats) = garbled_run(&m, &prog, &[1], &[2], 64);
    let baseline = m.baseline_cost(stats.cycles_run);
    let factor = baseline / stats.garbled_tables.max(1) as u128;
    assert!(
        factor > 1000,
        "baseline {baseline} / skipgate {} = {factor}",
        stats.garbled_tables
    );
}

/// The garbled processor under the layer schedule (an instanced
/// session, two lanes): every lane's output and cost counters equal the
/// netlist-order single-lane run, and the machine's cached schedule
/// reports the level structure the run executed with.
#[test]
fn skipgate_layer_scheduled_matches_netlist_on_cpu() {
    let m = GcMachine::new(CpuConfig::small());
    let sched = m.layer_schedule();
    assert!(sched.levels() > 1, "the CPU circuit is not one level deep");
    assert!(
        sched.max_nonlinear_width() > 1,
        "the CPU has parallel gates"
    );

    let prog = assemble(&programs::sum32()).expect("assembles");
    let iss = m.run_iss(&prog, &[123_456], &[654_321], 64);
    let (netlist, n_stats) = garbled_run(&m, &prog, &[123_456], &[654_321], 64);
    let inputs = |w: u32| vec![vec![w]; 2];
    let (layered, outcome) = m.run(
        &prog,
        &inputs(123_456),
        &inputs(654_321),
        64,
        &SessionOptions::new().instances(2),
    );
    assert_eq!(outcome.batching.levels, sched.levels() as u64);
    for (run, lane) in layered.iter().zip(&outcome.lanes) {
        assert_eq!(run.output, iss.output);
        assert_eq!(*run, netlist, "layered lane matches the netlist run");
        assert_eq!(lane.stats, n_stats, "cost counters are schedule-invariant");
    }
}
