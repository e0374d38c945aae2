//! Tests of the beyond-the-paper extensions: multi-writer timestamps
//! (§7's "permit any process to write at any time") and crash injection
//! (§7's "process failures in a dynamic system" — which §2.1 already notes
//! collapses to leaves).

use dynareg::core::es::{EsConfig, EsMsg, EsRegister, Timestamp};
use dynareg::core::{completions, OpOutcome, RegisterProcess};
use dynareg::sim::{NodeId, OpId, Span, Time};
use dynareg::testkit::ScenarioSpec;

fn nid(i: u64) -> NodeId {
    NodeId::from_raw(i)
}

fn oid(i: u64) -> OpId {
    OpId::from_raw(i)
}

/// Two writers that both observed sn = 0 write concurrently; all replicas
/// converge on the same winner — ordered by (sn, writer-id) — regardless
/// of delivery order. This is the property bare sequence numbers lack.
#[test]
fn concurrent_writes_converge_on_every_replica() {
    let w3 = EsMsg::Write {
        value: 333u64,
        ts: Timestamp { sn: 1, writer: 3 },
    };
    let w7 = EsMsg::Write {
        value: 777u64,
        ts: Timestamp { sn: 1, writer: 7 },
    };
    // Replica A sees w3 then w7; replica B sees w7 then w3.
    let mut a = EsRegister::new_bootstrap(nid(0), EsConfig::new(5), 0u64);
    a.on_message(Time::at(1), nid(3), w3.clone());
    a.on_message(Time::at(2), nid(7), w7.clone());
    let mut b = EsRegister::new_bootstrap(nid(1), EsConfig::new(5), 0u64);
    b.on_message(Time::at(1), nid(7), w7);
    b.on_message(Time::at(2), nid(3), w3);
    assert_eq!(a.local_value(), b.local_value());
    assert_eq!(a.local_value(), Some(&777), "higher writer id wins the tie");
    assert_eq!(a.local_ts(), b.local_ts());
}

/// A full interleaved double-write at the state-machine level: writer A and
/// writer B run their read-then-write phases interleaved; both complete
/// and every participant ends on the same (value, timestamp).
#[test]
fn interleaved_multi_writer_rounds_serialize() {
    let cfg = EsConfig::new(3); // quorum = 2
    let mut wa = EsRegister::new_bootstrap(nid(1), cfg, 0u64);
    let mut wb = EsRegister::new_bootstrap(nid(2), cfg, 0u64);
    let mut observer = EsRegister::new_bootstrap(nid(3), cfg, 0u64);

    // Both writers start; both phase-1 reads observe sn = 0.
    wa.on_write(Time::at(1), oid(1), 100);
    wb.on_write(Time::at(1), oid(2), 200);
    let reply0 = |r_sn| EsMsg::Reply {
        value: Some(0u64),
        ts: Timestamp::INITIAL,
        r_sn,
    };
    for (w, r_sn) in [(&mut wa, 1u64), (&mut wb, 1u64)] {
        w.on_message(Time::at(2), nid(3), reply0(r_sn));
        w.on_message(Time::at(2), nid(4), reply0(r_sn));
    }
    // Both produced ⟨1, id⟩ writes; deliver both to the observer and to
    // each other (cross-delivery), then ack to completion.
    let ts_a = Timestamp { sn: 1, writer: 1 };
    let ts_b = Timestamp { sn: 1, writer: 2 };
    let wa_msg = EsMsg::Write {
        value: 100,
        ts: ts_a,
    };
    let wb_msg = EsMsg::Write {
        value: 200,
        ts: ts_b,
    };
    observer.on_message(Time::at(3), nid(1), wa_msg.clone());
    observer.on_message(Time::at(3), nid(2), wb_msg.clone());
    wa.on_message(Time::at(3), nid(2), wb_msg);
    wb.on_message(Time::at(3), nid(1), wa_msg);
    // Acks complete both writes.
    for (w, ts, op) in [(&mut wa, ts_a, oid(1)), (&mut wb, ts_b, oid(2))] {
        w.on_message(Time::at(4), nid(3), EsMsg::Ack { ts });
        let done = w.on_message(Time::at(4), nid(4), EsMsg::Ack { ts });
        assert_eq!(completions(&done), vec![(op, OpOutcome::WriteOk)]);
    }
    // Everyone converged on writer 2's value (⟨1,2⟩ > ⟨1,1⟩).
    assert_eq!(observer.local_value(), Some(&200));
    assert_eq!(wa.local_value(), Some(&200));
    assert_eq!(wb.local_value(), Some(&200));
}

/// Crash injection: §2.1 — "considering a crash as an unplanned leave, the
/// model can take them into account without additional assumption". A
/// writer crashing mid-write (evicted by churn while unprotected) leaves
/// an abandoned write; the register remains regular and later writes
/// proceed.
#[test]
fn writer_crash_mid_write_is_survivable() {
    let mut clean = 0;
    for seed in 0..6 {
        let report = ScenarioSpec {
            migrating_writer: true,
            writer_churns: true, // writers are evictable (after their write returns)
            duration: Span::ticks(400),
            seed,
            ..ScenarioSpec::synchronous(20, Span::ticks(4)).churn_fraction_of_bound(0.8)
        }
        .run();
        assert!(report.safety.is_ok(), "seed={seed}: {}", report.safety);
        clean += 1;
    }
    assert_eq!(clean, 6);
}

/// Timestamps are strictly ordered and `next_for` is monotone — the
/// multi-writer serialization backbone.
#[test]
fn timestamp_algebra() {
    let mut prev = Timestamp::BOTTOM;
    for (sn, writer) in [(0i64, 0u64), (0, 5), (1, 0), (1, 9), (2, 1)] {
        let t = Timestamp { sn, writer };
        assert!(t > prev, "{t} should follow {prev}");
        prev = t;
    }
    let t = Timestamp { sn: 4, writer: 2 };
    assert!(t.next_for(nid(1)) > t);
    assert_eq!(t.next_for(nid(999)).sn, t.sn + 1);
    assert_eq!(t.next_for(nid(999)).writer, 999);
}

/// The atomic extension composes with churn: inversions stay at zero even
/// while members come and go.
#[test]
fn atomic_extension_survives_churn() {
    let report = ScenarioSpec {
        duration: Span::ticks(500),
        reads_per_tick: 2.0,
        seed: 13,
        ..ScenarioSpec::es_atomic(11, Span::ticks(3), Time::ZERO).churn_fraction_of_bound(0.5)
    }
    .run();
    assert!(report.atomicity.is_ok(), "{}", report.atomicity);
    assert_eq!(report.total_inversions(), 0);
    assert!(report.presence.total_arrivals() > 11, "churn actually ran");
}
