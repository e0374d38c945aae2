//! Micro-benchmarks of single protocol state-machine transitions — what a
//! real deployment would execute per received message.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dynareg_core::es::{EsConfig, EsMsg, EsRegister, Timestamp};
use dynareg_core::space::{RegisterSpace, RegisterSpaceProcess, SpaceEffect, SpaceMsg};
use dynareg_core::sync::{SyncConfig, SyncMsg, SyncRegister};
use dynareg_core::RegisterProcess;
use dynareg_sim::{NodeId, OpId, Span, Time};
use std::hint::black_box;

fn bench_sync_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_protocol");
    group.sample_size(30);

    group.bench_function("write_delivery", |b| {
        b.iter_batched(
            || {
                SyncRegister::new_bootstrap(
                    NodeId::from_raw(0),
                    SyncConfig::new(Span::ticks(4)),
                    0u64,
                )
            },
            |mut p| {
                for sn in 1..100i64 {
                    black_box(p.on_message(
                        Time::at(sn as u64),
                        NodeId::from_raw(1),
                        SyncMsg::Write {
                            value: sn as u64,
                            sn,
                        },
                    ));
                }
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("local_read", |b| {
        let mut p =
            SyncRegister::new_bootstrap(NodeId::from_raw(0), SyncConfig::new(Span::ticks(4)), 0u64);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(p.on_read(Time::at(i), OpId::from_raw(i)));
        });
    });

    group.finish();
}

fn bench_es_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("es_protocol");
    group.sample_size(30);

    group.bench_function("full_read_round_n25", |b| {
        let cfg = EsConfig::new(25); // quorum 13
        b.iter_batched(
            || EsRegister::new_bootstrap(NodeId::from_raw(0), cfg, 0u64),
            |mut p| {
                black_box(p.on_read(Time::at(1), OpId::from_raw(1)));
                for i in 1..=13u64 {
                    black_box(p.on_message(
                        Time::at(2),
                        NodeId::from_raw(i),
                        EsMsg::Reply {
                            value: Some(9),
                            ts: Timestamp { sn: 3, writer: 0 },
                            r_sn: 1,
                        },
                    ));
                }
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("write_delivery_and_ack", |b| {
        b.iter_batched(
            || EsRegister::new_bootstrap(NodeId::from_raw(0), EsConfig::new(25), 0u64),
            |mut p| {
                for sn in 1..50i64 {
                    black_box(p.on_message(
                        Time::at(sn as u64),
                        NodeId::from_raw(1),
                        EsMsg::Write {
                            value: sn as u64,
                            ts: Timestamp { sn, writer: 1 },
                        },
                    ));
                }
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

/// Handshake messages per sample: ns/entry = reported time ÷ (`ROUNDS` · keys).
const ROUNDS: u64 = 1000;

type SyncSpace = RegisterSpace<SyncRegister<u64>>;

/// A `keys`-key joiner driven to its post-inquiry `wait(2δ)`, where it
/// gathers replies.
fn inquiring_joiner(id: NodeId, keys: u32, cfg: SyncConfig) -> SyncSpace {
    let regs = (0..keys).map(|_| SyncRegister::new_joiner(id, cfg, OpId::from_raw(1)));
    let mut joiner = RegisterSpace::new_joiner(regs.collect());
    let enter = joiner.on_enter(Time::ZERO);
    let [SpaceEffect::SetTimer { tag, .. }] = enter.as_slice() else {
        panic!("a sync joiner first waits δ, got {enter:?}");
    };
    joiner.on_timer(Time::at(4), *tag);
    joiner
}

/// The keyed join handshake's two halves, timed apart: `build` is an active
/// responder answering a `JoinAll` with a `keys`-entry `Batch`; `absorb` is
/// a joiner folding such batches from `ROUNDS` distinct responders.
fn bench_space_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("space_protocol");
    group.sample_size(30);
    let cfg = SyncConfig::new(Span::ticks(4));
    let joiner_id = NodeId::from_raw(ROUNDS);
    let responder = |keys: u32| -> SyncSpace {
        let regs = (0..keys).map(|_| SyncRegister::new_bootstrap(NodeId::from_raw(0), cfg, 0u64));
        RegisterSpace::new_bootstrap(regs.collect())
    };
    let inquiry = SpaceMsg::JoinAll {
        inner: SyncMsg::Inquiry,
        full: false,
    };

    for keys in [64u32, 256] {
        group.bench_function(format!("space_join_build/{keys}keys_x{ROUNDS}"), |b| {
            b.iter_batched(
                || responder(keys),
                |mut responder| {
                    let mut out = Vec::new();
                    for _ in 0..ROUNDS {
                        responder.on_message_into(
                            Time::at(5),
                            joiner_id,
                            inquiry.clone(),
                            &mut out,
                        );
                        black_box(out.pop());
                    }
                },
                BatchSize::SmallInput,
            );
        });

        group.bench_function(format!("space_join_absorb/{keys}keys_x{ROUNDS}"), |b| {
            b.iter_batched(
                || {
                    let batch = responder(keys)
                        .on_message(Time::at(5), joiner_id, inquiry.clone())
                        .pop();
                    let Some(SpaceEffect::Send { msg, .. }) = batch else {
                        panic!("an active responder answers a join inquiry");
                    };
                    let batches = vec![msg; ROUNDS as usize];
                    (inquiring_joiner(joiner_id, keys, cfg), batches)
                },
                |(mut joiner, batches)| {
                    let mut out = Vec::new();
                    for (from, batch) in (0..).map(NodeId::from_raw).zip(batches) {
                        joiner.on_message_into(Time::at(6), from, batch, &mut out);
                        out.clear();
                    }
                    joiner
                },
                BatchSize::SmallInput,
            );
        });
    }

    group.finish();
}

criterion_group!(benches, bench_sync_steps, bench_es_steps, bench_space_join);
criterion_main!(benches);
