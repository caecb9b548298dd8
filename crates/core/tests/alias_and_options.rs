//! Tests for the alias mechanism (circuit-wide identical-label
//! detection) and the engine options, through the full two-party
//! protocol.

use arm2gc_circuit::bench_circuits;
use arm2gc_circuit::random::{random_circuit, random_inputs, RandomCircuitParams, TestRng};
use arm2gc_circuit::sim::{PartyData, Simulator};
use arm2gc_circuit::{Circuit, CircuitBuilder, Role};
use arm2gc_core::{run_two_party_opts, SessionOptions, SkipGateOutcome};

/// One single-lane session under `opts`; returns each party's outcome.
fn two_party_with(
    c: &Circuit,
    alice: &PartyData,
    bob: &PartyData,
    public: &PartyData,
    cycles: usize,
    opts: &SessionOptions,
) -> (SkipGateOutcome, SkipGateOutcome) {
    let lane = |p: &PartyData| [p.clone()];
    let (a, b) = run_two_party_opts(c, &lane(alice), &lane(bob), &lane(public), cycles, opts);
    (a.lanes[0].clone(), b.lanes[0].clone())
}

/// [`two_party_with`] under the default options.
fn two_party(
    c: &Circuit,
    alice: &PartyData,
    bob: &PartyData,
    public: &PartyData,
    cycles: usize,
) -> (SkipGateOutcome, SkipGateOutcome) {
    two_party_with(c, alice, bob, public, cycles, &SessionOptions::new())
}

/// The paper's §3 illustrative example, end to end: a MUX (built the
/// GC-optimised way, `f ⊕ (sel ∧ (t ⊕ f))`) with a public selector must
/// cost only the selected sub-circuit.
#[test]
fn public_selector_mux_collapses() {
    let build = |sel_public: bool| {
        let mut b = CircuitBuilder::new("mux_demo");
        let sel = b.input(if sel_public {
            Role::Public
        } else {
            Role::Alice
        });
        let x0 = b.input(Role::Alice);
        let x1 = b.input(Role::Alice);
        let y = b.input(Role::Bob);
        let f0 = b.and(x0, y); // sub-circuit feeding mux input 0
        let f1 = b.and(x1, y); // sub-circuit feeding mux input 1
        let m = b.mux(sel, f1, f0);
        b.output(m);
        b.build()
    };

    // Public selector: one AND garbled, the dead branch skipped.
    let c = build(true);
    let alice = PartyData::from_stream(vec![vec![true, false]]);
    let bob = PartyData::from_stream(vec![vec![true]]);
    let public = PartyData::from_stream(vec![vec![true]]);
    let sim = Simulator::new(&c).run(&alice, &bob, &public, 1);
    let (a_out, b_out) = two_party(&c, &alice, &bob, &public, 1);
    assert_eq!(a_out.outputs, sim.outputs);
    assert_eq!(b_out.outputs, sim.outputs);
    assert_eq!(a_out.stats.garbled_tables, 1, "only the live branch");
    assert_eq!(a_out.stats.skipped_nonlinear, 1, "dead branch skipped");

    // Secret selector: both branches plus the mux AND are garbled.
    let c = build(false);
    let alice = PartyData::from_stream(vec![vec![true, true, false]]);
    let (a_out, _) = two_party(&c, &alice, &bob, &PartyData::default(), 1);
    assert_eq!(a_out.stats.garbled_tables, 3);
}

/// A chain of public-selector muxes (the register-file pattern): depth
/// does not change the single-AND cost of the selected path.
#[test]
fn mux_tree_with_public_address_is_one_path() {
    let mut b = CircuitBuilder::new("mux_tree");
    let addr = b.inputs(Role::Public, 3);
    let xs = b.inputs(Role::Alice, 8);
    let ys = b.inputs(Role::Bob, 8);
    let leaves: Vec<_> = xs.iter().zip(&ys).map(|(&x, &y)| b.and(x, y)).collect();
    let mut layer = leaves;
    for &bit in &addr {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            next.push(b.mux(bit, pair[1], pair[0]));
        }
        layer = next;
    }
    b.output(layer[0]);
    let c = b.build();

    let alice = PartyData::from_stream(vec![vec![true; 8]]);
    let bob = PartyData::from_stream(vec![vec![true; 8]]);
    let public = PartyData::from_stream(vec![vec![true, false, true]]); // select leaf 5
    let sim = Simulator::new(&c).run(&alice, &bob, &public, 1);
    let (a_out, _) = two_party(&c, &alice, &bob, &public, 1);
    assert_eq!(a_out.outputs, sim.outputs);
    // 8 leaf ANDs exist; only the selected one garbles. The mux layers
    // are free (public selectors).
    assert_eq!(a_out.stats.garbled_tables, 1);
    assert_eq!(a_out.stats.skipped_nonlinear, 7);
}

/// Disabling the dead-gate filter (the ablation switch) must preserve
/// correctness while sending at least as many tables.
#[test]
fn filter_off_correct_but_costlier() {
    let mut rng = TestRng::new(808);
    for i in 0..10 {
        let c = random_circuit(&mut rng, RandomCircuitParams::default());
        let cycles = 1 + i % 3;
        let (a, b, p) = random_inputs(&mut rng, &c, cycles);
        let sim = Simulator::new(&c).run(&a, &b, &p, cycles);
        let on = two_party(&c, &a, &b, &p, cycles);
        let off = two_party_with(
            &c,
            &a,
            &b,
            &p,
            cycles,
            &SessionOptions::new().filter_dead_gates(false),
        );
        assert_eq!(on.0.outputs, sim.outputs, "iteration {i} (filter on)");
        assert_eq!(off.0.outputs, sim.outputs, "iteration {i} (filter off)");
        assert!(
            off.0.stats.garbled_tables >= on.0.stats.garbled_tables,
            "iteration {i}"
        );
    }
}

/// Alice's and Bob's statistics must agree bit for bit — the "shared
/// decision engine" synchronisation property.
#[test]
fn party_stats_agree() {
    let mut rng = TestRng::new(909);
    for i in 0..10 {
        let c = random_circuit(&mut rng, RandomCircuitParams::default());
        let cycles = 1 + i % 4;
        let (a, b, p) = random_inputs(&mut rng, &c, cycles);
        let (a_out, b_out) = two_party(&c, &a, &b, &p, cycles);
        assert_eq!(a_out.stats.garbled_tables, b_out.stats.garbled_tables);
        assert_eq!(a_out.stats.skipped_nonlinear, b_out.stats.skipped_nonlinear);
        assert_eq!(a_out.stats.public_gates, b_out.stats.public_gates);
        assert_eq!(a_out.stats.free_xor, b_out.stats.free_xor);
        assert_eq!(a_out.stats.cycles_run, b_out.stats.cycles_run);
    }
}

/// XOR cancellation through chains: (x ⊕ y) ⊕ y carries x's lineage, so
/// comparing it with x is category iii, and XORing with x is public.
#[test]
fn xor_cancellation_detected_globally() {
    let mut b = CircuitBuilder::new("cancel");
    let x = b.input(Role::Alice);
    let y = b.input(Role::Bob);
    let t = b.xor(x, y);
    let u = b.xor(t, y); // u ≡ x
    let same = b.xnor(u, x); // always 1, category iii
    let dead = b.and(u, x); // ≡ x AND x = pass, category iii
    b.output(same);
    b.output(dead);
    let c = b.build();
    let alice = PartyData::from_stream(vec![vec![true]]);
    let bob = PartyData::from_stream(vec![vec![false]]);
    let sim = Simulator::new(&c).run(&alice, &bob, &PartyData::default(), 1);
    let (a_out, _) = two_party(&c, &alice, &bob, &PartyData::default(), 1);
    assert_eq!(a_out.outputs, sim.outputs);
    assert_eq!(
        a_out.stats.garbled_tables, 0,
        "pure lineage algebra: no tables at all"
    );
}

/// Every lane count runs the one netlist walk: a default session and an
/// `instances(2)` session report their lane count, each of the two
/// lanes' outputs and cost counters equals the single-lane session's,
/// and identical lanes hash twice the single lane's gates in the same
/// number of wavefronts.
#[test]
fn lane_count_selects_the_schedule() {
    let bc = bench_circuits::mult(32, 0xdead_beef, 0x1234_5678);
    let single = SessionOptions::new();
    let (a, b) = run_two_party_opts(
        &bc.circuit,
        std::slice::from_ref(&bc.alice),
        std::slice::from_ref(&bc.bob),
        std::slice::from_ref(&bc.public),
        bc.cycles,
        &single,
    );
    assert_eq!(a.batching, b.batching);
    assert_eq!(a.batching.instances, 1);
    assert_eq!(a.lanes[0].outputs.concat(), bc.expected);

    let two = SessionOptions::new().instances(2);
    let (ia, ib) = run_two_party_opts(
        &bc.circuit,
        &[bc.alice.clone(), bc.alice.clone()],
        &[bc.bob.clone(), bc.bob.clone()],
        &[bc.public.clone(), bc.public.clone()],
        bc.cycles,
        &two,
    );
    assert_eq!(ia.batching, ib.batching);
    assert_eq!(ia.batching.instances, 2);
    assert_eq!(ia.batching.batches, a.batching.batches);
    assert_eq!(ia.batching.batched_gates, 2 * a.batching.batched_gates);
    for lane in &ia.lanes {
        assert_eq!(lane.outputs, a.lanes[0].outputs);
        assert_eq!(lane.stats, a.lanes[0].stats);
    }
}
