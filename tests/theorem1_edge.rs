//! Theorem 1's churn bound, probed *at* the edge: `c = 1/(3δ)` is safe,
//! `c` just above it is not.
//!
//! Two complementary probes:
//!
//! * a **deterministic** minimal construction (Lemma 2's worst case): the
//!   whole informed population turns over at one leave per `period` ticks
//!   while a joiner's 3δ pipeline is in flight. With `n = 3` that is churn
//!   rate `c = 1/(3·period)`, so `period = δ` sits exactly on the paper's
//!   bound and `period = δ − 1` sits just above it. On the bound the last
//!   informed process survives long enough to answer the joiner's INQUIRY;
//!   one tick of extra churn and every copy of the register leaves the
//!   system before the INQUIRY lands — the joiner adopts the initial value
//!   and its later read is a regularity violation the checker must flag.
//!
//! * a **stochastic** end-to-end sweep at exactly `c = 1/(3δ)` under the
//!   worst-case adversary (all delays exactly δ, active-first eviction,
//!   migrating writer): safety must hold across sizes, deltas and seeds.

use dynareg::churn::{ChurnDriver, LeaveSelector, NoChurn};
use dynareg::core::sync::SyncConfig;
use dynareg::net::delay::Fixed;
use dynareg::sim::{IdSource, NodeId, Span, Time};
use dynareg::testkit::{
    NetClass, OpAction, ScenarioSpec, ScriptedWorkload, SyncFactory, World, WorldConfig,
    WriterPolicy,
};
use dynareg::verify::{ConsistencyReport, RegularityChecker};

/// Runs the Lemma 2 worst case: `n = 3` bootstrap processes, a write, then
/// one joiner entering while the entire informed population leaves at one
/// departure per `period` ticks (churn rate `c = 1/(3·period)`). Every
/// message takes the full legal `δ`. Returns the regularity verdict of the
/// joiner's post-join read.
fn informed_turnover(delta: u64, period: u64) -> ConsistencyReport<Option<u64>> {
    let writer = NodeId::from_raw(0);
    let t_write = 10;
    // The joiner enters after the write completed, so the written value is
    // the unique legal return of a quiescent read.
    let t_enter = t_write + delta + 1;
    let script = ScriptedWorkload::new()
        .at(Time::at(t_write), writer, OpAction::Write(1))
        // Read by the joiner (arrival #0) once its 3δ join pipeline is done.
        .at_arrival(Time::at(t_enter + 3 * delta + 2), 0, OpAction::Read);
    let mut world = World::new(
        SyncFactory::new(SyncConfig::new(Span::ticks(delta))),
        WorldConfig {
            n: 3,
            initial: 0,
            delay: Box::new(Fixed::new(Span::ticks(delta))),
            churn: ChurnDriver::new(
                Box::new(NoChurn),
                LeaveSelector::Random,
                IdSource::starting_at(3),
            ),
            workload: Box::new(script),
            seed: 0,
            trace: false,
            writer_policy: WriterPolicy::FixedProtected,
            writers: 1,
        },
    );
    world.schedule_join(Time::at(t_enter));
    for i in 0..3u64 {
        world.schedule_leave(Time::at(t_enter + i * period), NodeId::from_raw(i));
    }
    world.run_until(Time::at(t_enter + 6 * delta));
    let report = RegularityChecker::check(world.history());
    assert_eq!(report.checked_reads, 1, "the scripted read must run");
    report
}

/// Table rows: at the bound the read is fresh; one tick of extra churn and
/// the checker flags the stale read. Sharp at every δ.
#[test]
fn bound_is_sharp_in_the_deterministic_worst_case() {
    for delta in [3u64, 4, 5, 6] {
        // period = δ  ⇒  c = 1/(3δ): exactly the Theorem 1 bound.
        let at_bound = informed_turnover(delta, delta);
        assert!(
            at_bound.is_ok(),
            "δ={delta}: read must be fresh at c = 1/(3δ): {at_bound}"
        );

        // period = δ−1  ⇒  c = 1/(3(δ−1)) > 1/(3δ): just above the bound.
        let above = informed_turnover(delta, delta - 1);
        assert_eq!(
            above.violation_count(),
            1,
            "δ={delta}: the checker must flag the stale read just above the bound: {above}"
        );
        let violation = &above.violations[0];
        assert_eq!(
            violation.returned, None,
            "δ={delta}: the read returns the joiner's empty copy — every written copy left"
        );
    }
}

/// End-to-end at exactly `c = 1/(3δ)` under the worst-case adversary:
/// Theorem 1 safety holds across the table.
#[test]
fn safety_holds_at_the_bound_end_to_end() {
    for &(n, delta) in &[(15usize, 3u64), (24, 4), (30, 5)] {
        for seed in 0..3 {
            let report = ScenarioSpec {
                net: NetClass::SynchronousWorstCase,
                migrating_writer: true,
                writer_churns: true,
                selector: LeaveSelector::ActiveFirst,
                duration: Span::ticks(300),
                reads_per_tick: 2.0,
                seed,
                ..ScenarioSpec::synchronous(n, Span::ticks(delta)).churn_fraction_of_bound(1.0)
            }
            .run();
            assert!(
                report.safety.is_ok(),
                "n={n} δ={delta} seed={seed}: {}",
                report.safety
            );
        }
    }
}
