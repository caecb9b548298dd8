//! Regenerates the paper's **figures** as executable demonstrations:
//!
//! * Fig. 1 — Phase-1 rewrites (categories i–ii),
//! * Fig. 2 — Phase-2 rewrites (categories iii–iv),
//! * Fig. 3 — recursive `label_fanout` reduction,
//! * Fig. 5 — conditional execution keeps the PC public (cost of the
//!   cond-exec max() vs the same function with a secret branch),
//! * Fig. 6 — a secret branch makes the PC secret and the cost explode.

use arm2gc_circuit::{CircuitBuilder, Role};
use arm2gc_core::{
    run_two_party_opts, DecideContext, GateDecision, SessionOptions, TagAllocator, WireVal,
};
use arm2gc_cpu::asm::assemble;
use arm2gc_cpu::machine::{CpuConfig, GcMachine};

fn main() {
    figure_1_and_2();
    figure_3();
    figures_5_and_6();
}

fn decide_demo(c: &arm2gc_circuit::Circuit) -> Vec<GateDecision> {
    let mut alloc = TagAllocator::new();
    let mut states = vec![WireVal::Public(false); c.wire_count()];
    for input in c.inputs() {
        states[input.wire.index()] = match input.role {
            Role::Public => WireVal::Public(true),
            _ => WireVal::Secret(alloc.fresh()),
        };
    }
    for &(w, v) in c.consts() {
        states[w.index()] = WireVal::Public(v);
    }
    let ctx = DecideContext::new(c);
    ctx.decide_cycle(&mut states, &mut alloc, true).decisions
}

fn figure_1_and_2() {
    println!("## Figure 1 — Phase 1 gate rewrites (categories i-ii)");
    let mut b = CircuitBuilder::new("fig1");
    let s = b.input(Role::Alice);
    let zero = b.constant(false);
    let one = b.constant(true);
    let gates = [
        ("1 AND 0 (cat i)", b.and(one, zero)),
        ("S AND 0 (cat ii)", b.and(s, zero)),
        ("S AND 1 (cat ii)", b.and(s, one)),
        ("S XOR 1 (cat ii)", b.xor(s, one)),
    ];
    for (_, w) in &gates {
        b.output(*w);
    }
    let c = b.build();
    for ((name, _), d) in gates.iter().zip(decide_demo(&c)) {
        println!("  {name:20} -> {d:?}");
    }

    println!("\n## Figure 2 — Phase 2 gate rewrites (categories iii-iv)");
    let mut b = CircuitBuilder::new("fig2");
    let s = b.input(Role::Alice);
    let t = b.input(Role::Bob);
    let ns = b.not(s);
    let gates = [
        ("S XOR S (cat iii)", b.xor(s, s)),
        ("S XOR !S (cat iii)", b.xor(s, ns)),
        ("S AND S (cat iii)", b.and(s, s)),
        ("S AND T (cat iv)", b.and(s, t)),
    ];
    for (_, w) in &gates {
        b.output(*w);
    }
    let c = b.build();
    let ds = decide_demo(&c);
    // Gate 0 is the NOT; the examples start at index 1.
    for ((name, _), d) in gates.iter().zip(&ds[1..]) {
        println!("  {name:20} -> {d:?}");
    }
    println!();
}

fn figure_3() {
    println!("## Figure 3 — recursive label_fanout reduction");
    let mut b = CircuitBuilder::new("fig3");
    let s1 = b.input(Role::Alice);
    let s2 = b.input(Role::Bob);
    let s3 = b.input(Role::Alice);
    let zero = b.constant(false);
    let g1 = b.and(s1, s2);
    let g2 = b.or(g1, s3);
    let g3 = b.and(g2, zero); // public 0 kills the whole chain
    let live = b.and(s1, s3);
    b.outputs(&[g3, live]);
    let c = b.build();
    let names = [
        "g1 = s1 AND s2",
        "g2 = g1 OR s3",
        "g3 = g2 AND 0",
        "live = s1 AND s3",
    ];
    for (name, d) in names.iter().zip(decide_demo(&c)) {
        println!("  {name:18} -> {d:?}");
    }
    println!("  (g3's public 0 recursively skips g2 and then g1 — Alg. 6)\n");
}

fn figures_5_and_6() {
    println!("## Figures 5 & 6 — conditional execution vs a secret branch");
    let machine = GcMachine::new(CpuConfig::small());

    // Fig. 5 style: max(a, b) with conditional execution — PC stays public.
    let cond_exec = assemble(
        "ldr r0, [r8]
         ldr r1, [r9]
         cmp r0, r1
         movlo r0, r1
         str r0, [r10]
         halt",
    )
    .expect("cond-exec program");

    // Fig. 6 style: the same function with a branch on the secret flags —
    // the PC (and everything fetched afterwards) becomes secret.
    let secret_branch = assemble(
        "       ldr r0, [r8]
                ldr r1, [r9]
                cmp r0, r1
                bhs done
                mov r0, r1
         done:  str r0, [r10]
                halt",
    )
    .expect("branch program");

    let opts = SessionOptions::new();
    let (runs_a, outcome_a) = machine.run(&cond_exec, &[vec![123]], &[vec![456]], 24, &opts);
    let (run_a, stats_a) = (&runs_a[0], outcome_a.lanes[0].stats);
    // The secret-PC variant cannot detect HALT publicly; bound the cycles.
    let (a, bdata, p) = machine.party_data(&secret_branch, &[123], &[456]);
    let (alice_out, _) = run_two_party_opts(machine.circuit(), &[a], &[bdata], &[p], 8, &opts);
    let alice_out = &alice_out.lanes[0];
    let iss = machine.run_iss(&secret_branch, &[123], &[456], 8);
    let max_from_secret = &alice_out.final_output()[..32];
    let got: u32 = max_from_secret
        .iter()
        .enumerate()
        .fold(0, |acc, (i, &bit)| acc | ((bit as u32) << i));
    assert_eq!(got, iss.output[0], "secret-branch run must stay correct");
    assert_eq!(run_a.output[0], 456);

    println!(
        "  cond-exec max():      {:>10} garbled tables",
        stats_a.garbled_tables
    );
    println!(
        "  secret-branch max():  {:>10} garbled tables (8-cycle bound)",
        alice_out.stats.garbled_tables
    );
    println!(
        "  explosion factor:     {:>10.1}x — why §4.2 insists on conditional execution",
        alice_out.stats.garbled_tables as f64 / stats_a.garbled_tables as f64
    );
}
