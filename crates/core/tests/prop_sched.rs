//! Property tests for the discrete-event scheduler: the heap's ordering
//! contract (time ascending, insertion order within equal times) holds
//! for any insertion sequence, and the event-driven pipeline driver is
//! byte-identical to the tick sweep on any worker-pool size.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sid_core::{
    DutyCycleConfig, EventHeap, EventTime, IntrusionDetectionSystem, SchedEvent, SystemConfig,
};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Popping drains events in time order; among equal timestamps, in
    /// insertion order — for ANY mix of absolute/delta deadlines drawn
    /// from a small set of times (so ties are frequent).
    #[test]
    fn heap_pops_time_ordered_and_fifo_within_ties(
        entries in prop::collection::vec((0u8..6, any::<bool>()), 1..64),
    ) {
        let mut heap = EventHeap::new();
        let now = 1.0;
        // Tag each event with its insertion index via the node payload.
        let mut resolved: Vec<(f64, usize)> = Vec::new();
        for (i, &(slot, absolute)) in entries.iter().enumerate() {
            let t = f64::from(slot) * 0.5;
            let when = if absolute {
                EventTime::Absolute(now + t)
            } else {
                EventTime::Delta(t)
            };
            let at = heap.schedule(when, now, SchedEvent::DutyWake(i));
            prop_assert_eq!(at.to_bits(), (now + t).to_bits());
            resolved.push((at, i));
        }
        // Expected order: stable sort by time — equal times keep
        // insertion order, which is exactly the documented contract.
        let mut expected = resolved.clone();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut popped: Vec<(f64, usize)> = Vec::new();
        while let Some((t, ev)) = heap.pop_due(f64::INFINITY) {
            match ev {
                SchedEvent::DutyWake(i) => popped.push((t, i)),
                other => prop_assert!(false, "unexpected event {other:?}"),
            }
        }
        prop_assert_eq!(popped, expected);
        prop_assert!(heap.is_empty());
    }

    /// Two heaps fed the same equal-timestamp events in different
    /// permutations each pop in *their own* insertion order — the order
    /// is a deterministic function of the insertion sequence, never of
    /// payload values or heap internals.
    #[test]
    fn equal_time_pops_track_insertion_order_for_any_permutation(
        ids in prop::collection::vec(0usize..1000, 2..32),
        rotation in 0usize..32,
    ) {
        let insert_all = |order: &[usize]| {
            let mut heap = EventHeap::new();
            for &id in order {
                heap.schedule(EventTime::Absolute(7.0), 0.0, SchedEvent::DutyWake(id));
            }
            let mut out = Vec::new();
            while let Some((t, SchedEvent::DutyWake(id))) = heap.pop_due(7.0) {
                prop_assert_eq!(t.to_bits(), 7.0f64.to_bits());
                out.push(id);
            }
            Ok(out)
        };
        let rotated: Vec<usize> = {
            let k = rotation % ids.len();
            ids[k..].iter().chain(ids[..k].iter()).copied().collect()
        };
        prop_assert_eq!(insert_all(&ids)?, ids.clone());
        prop_assert_eq!(insert_all(&rotated)?, rotated);
    }

    /// A partial drain (`pop_due` with a finite `now`) never yields an
    /// event past the deadline, and what remains pops later in the same
    /// global order.
    #[test]
    fn partial_drains_respect_the_deadline(
        entries in prop::collection::vec(0u8..10, 1..48),
        cut in 0u8..10,
    ) {
        let mut heap = EventHeap::new();
        for (i, &slot) in entries.iter().enumerate() {
            heap.schedule(
                EventTime::Absolute(f64::from(slot)),
                0.0,
                SchedEvent::DutyWake(i),
            );
        }
        let deadline = f64::from(cut);
        let mut early = Vec::new();
        while let Some((t, _)) = heap.pop_due(deadline) {
            prop_assert!(t <= deadline, "popped {t} past deadline {deadline}");
            early.push(t);
        }
        prop_assert!(heap.next_time().is_none_or(|t| t > deadline));
        let mut late = Vec::new();
        while let Some((t, _)) = heap.pop_due(f64::INFINITY) {
            prop_assert!(t > deadline);
            late.push(t);
        }
        let mut all: Vec<f64> = early.iter().chain(late.iter()).copied().collect();
        prop_assert_eq!(all.len(), entries.len());
        let sorted = {
            all.sort_by(f64::total_cmp);
            all
        };
        let mut expected: Vec<f64> = entries.iter().map(|&s| f64::from(s)).collect();
        expected.sort_by(f64::total_cmp);
        prop_assert_eq!(sorted, expected);
    }
}

/// The event-driven driver is byte-identical to the tick sweep on worker
/// pools of 1, 2, 4 and 8 threads: the active set shrinks Phase A, but
/// results are still placed by node index and all RNG draws stay
/// sequential on the caller thread, so pool size must not matter.
#[test]
fn event_loop_is_byte_identical_across_pool_sizes() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(9);
        let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 48, &mut rng);
        let mut scene = Scene::new(sea, ShipWaveModel::default());
        scene.add_ship(Ship::new(
            Vec2::new(40.0, -200.0),
            Angle::from_degrees(90.0),
            Knots::new(10.0),
        ));
        let config = SystemConfig {
            duty_cycle: DutyCycleConfig {
                enabled: true,
                ..DutyCycleConfig::default()
            },
            ..SystemConfig::paper_default(4, 4)
        };
        IntrusionDetectionSystem::new(scene, config, 9 ^ 0xdead)
    };
    let fingerprint = |threads: usize, events: bool| {
        let mut sys = build().with_pool(std::sync::Arc::new(sid_exec::Pool::new(threads)));
        if events {
            sys.run_events(90.0);
        } else {
            sys.run(90.0);
        }
        format!(
            "{}|{}|{:.12e}|{}",
            serde_json::to_string(sys.trace()).expect("serialisable"),
            serde_json::to_string(&sys.net_stats()).expect("serialisable"),
            sys.total_energy_mj(),
            sys.now().to_bits(),
        )
    };
    let reference = fingerprint(1, false);
    for threads in [1, 2, 4, 8] {
        assert_eq!(
            reference,
            fingerprint(threads, true),
            "event loop on {threads} threads diverged from the sequential tick sweep"
        );
    }
}
