//! Property tests for [`LayerSchedule`]: on random sequential circuits
//! the schedule must be a *permutation* of the netlist that respects
//! every dependency, its nonlinear groups must hold exactly the
//! netlist's nonlinear gates, and its width metrics must be exact.

use proptest::prelude::*;

use arm2gc_circuit::random::{random_circuit, RandomCircuitParams, TestRng};
use arm2gc_circuit::{LayerSchedule, OutputMode};

fn cases_or(default_cases: u32) -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(default_cases)
    }
}

proptest! {
    #![proptest_config(cases_or(128))]

    /// Every gate appears exactly once across the levels, every level's
    /// gates depend only on wires settled by earlier levels, and the
    /// per-level linear/nonlinear split is exact.
    #[test]
    fn schedule_is_a_dependency_respecting_permutation(
        seed in 1u64..100_000,
        gates in 1usize..120,
        dffs in 0usize..6,
    ) {
        let mut rng = TestRng::new(seed);
        let params = RandomCircuitParams {
            inputs: (3, 3, 2),
            dffs,
            gates,
            outputs: 4,
            output_mode: OutputMode::FinalOnly,
        };
        let c = random_circuit(&mut rng, params);
        let s = LayerSchedule::of(&c);

        let mut seen = vec![false; c.gates().len()];
        let mut total = 0usize;
        for level in 0..s.levels() {
            let (linear, nonlinear) = s.level_split(level);
            prop_assert_eq!(
                linear.len() + nonlinear.len(),
                s.level_gates(level).len()
            );
            for &gi in linear {
                prop_assert!(c.gates()[gi as usize].op.is_linear());
            }
            for &gi in nonlinear {
                prop_assert!(!c.gates()[gi as usize].op.is_linear());
            }
            for &gi in s.level_gates(level) {
                let gi = gi as usize;
                prop_assert!(!seen[gi], "gate {} scheduled twice", gi);
                seen[gi] = true;
                total += 1;
                prop_assert_eq!(s.gate_level(gi), level as u32);
                let g = c.gates()[gi];
                // Inputs settle strictly before this level executes.
                prop_assert!(s.wire_level(g.a.index()) <= level as u32);
                prop_assert!(s.wire_level(g.b.index()) <= level as u32);
                // The output settles for the next level.
                prop_assert_eq!(s.wire_level(g.out.index()), level as u32 + 1);
            }
        }
        prop_assert_eq!(total, c.gates().len(), "every gate appears once");
        prop_assert!(seen.iter().all(|&x| x));
    }

    /// The levels' nonlinear groups, walked in level order and sorted by
    /// netlist index, recover exactly the netlist's nonlinear gates, each
    /// group already ascending: `non_xor_count` counts them.
    #[test]
    fn emission_order_recovers_netlist_order(
        seed in 1u64..100_000,
        gates in 1usize..120,
    ) {
        let mut rng = TestRng::new(seed);
        let params = RandomCircuitParams {
            inputs: (3, 3, 2),
            dffs: 3,
            gates,
            outputs: 4,
            output_mode: OutputMode::FinalOnly,
        };
        let c = random_circuit(&mut rng, params);
        let s = LayerSchedule::of(&c);

        let mut walked: Vec<u32> = Vec::new();
        for level in 0..s.levels() {
            let (_, nonlinear) = s.level_split(level);
            prop_assert!(nonlinear.windows(2).all(|w| w[0] < w[1]));
            walked.extend_from_slice(nonlinear);
        }
        prop_assert_eq!(walked.len() as u32, s.non_xor_count());
        prop_assert_eq!(u64::from(s.non_xor_count()), c.non_xor_count());

        walked.sort_unstable();
        let netlist: Vec<u32> = c
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.op.is_linear())
            .map(|(gi, _)| gi as u32)
            .collect();
        prop_assert_eq!(walked, netlist, "sorted walk == netlist order");
    }

    /// Width metrics match a direct recount.
    #[test]
    fn width_metrics_are_exact(seed in 1u64..100_000, gates in 1usize..120) {
        let mut rng = TestRng::new(seed);
        let params = RandomCircuitParams {
            gates,
            ..RandomCircuitParams::default()
        };
        let c = random_circuit(&mut rng, params);
        let s = LayerSchedule::of(&c);
        let mut max_w = 0;
        let mut max_nl = 0;
        for level in 0..s.levels() {
            max_w = max_w.max(s.level_gates(level).len());
            max_nl = max_nl.max(s.level_split(level).1.len());
        }
        prop_assert_eq!(s.max_width() as usize, max_w);
        prop_assert_eq!(s.max_nonlinear_width() as usize, max_nl);
    }
}
