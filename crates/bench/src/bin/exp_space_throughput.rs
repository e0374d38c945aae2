//! PERF — register-space throughput: events/sec at 1 / 16 / 256 keys,
//! with and without key-sharded join replies.
//!
//! Measures the cost of the keyed register-space layer end-to-end: the
//! same churning synchronous world is driven through `RegisterSpace` at
//! three key counts under Zipf(1.0) key-popularity traffic, and the
//! engine's events/sec, message totals and per-key verdicts are recorded.
//! Because the join handshake is shared (one `JoinAll` inquiry, one
//! batched reply per responder), the *physical message count* stays
//! key-independent; what grows with `k` is the per-message payload and the
//! per-key bookkeeping. **Key-sharded replies** (`--shards G`) cut that
//! payload to `K/G` entries per responder — the default run includes a
//! `keys=256, shards=16` row so the committed baseline records how much of
//! the 16-key rate the sharded handshake buys back.
//!
//! The default set also carries two **multi-writer** rows (`W = 4` on the
//! 256-key space): a scaling row on the standard write beat — per-(node,
//! key) busy tracking lets four writers pipeline across keys, so completed
//! writes scale with `W` — and a hot-key contention row (write beat every
//! tick, Zipf-concentrated traffic) where the per-key occupancy cap and
//! per-node busy slots are actually exercised and contention shows up as
//! `writes_skipped_busy` instead of lost or serialized work.
//!
//! Prints wall-clock throughput and writes machine-readable JSON
//! (`BENCH_space.json` by default) — the register-space perf trajectory
//! future PRs measure against. `--digest-out PATH` additionally writes a
//! wall-clock-free event-stream digest per scenario; CI `cmp`s the digest
//! of `--shards 1 --writers 1` against `--shards 1` to hold
//! `W = 1 ≡ default`.
//!
//! Usage: `exp_space_throughput [--nodes N] [--ticks T] [--out PATH]
//! [--shards G] [--writers W] [--digest-out PATH]`
//! (defaults: 1000 nodes, 600 ticks, `BENCH_space.json`, the mixed
//! `G ∈ {1, 16}` / `W ∈ {1, 4}` scenario set).

use std::time::Instant;

use dynareg_bench::Cli;
use dynareg_churn::{ChurnDriver, ChurnModel, ConstantRate, LeaveSelector};
use dynareg_core::space::ShardConfig;
use dynareg_core::sync::SyncConfig;
use dynareg_net::delay::Synchronous;
use dynareg_sim::{DetRng, IdSource, NodeId, Span, Time};
use dynareg_testkit::{
    SpaceOf, SyncFactory, World, WorldConfig, WriterPolicy, ZipfKeys, ZipfWorkload,
};
use dynareg_verify::SpaceReport;

/// One measured scenario: what ran and how fast.
struct SpaceResult {
    keys: u32,
    shards: u32,
    writers: u32,
    write_every: u64,
    nodes: usize,
    ticks: u64,
    churn_rate: f64,
    events: u64,
    messages: u64,
    /// `INQUIRY_FULL` broadcasts (the sharded starvation fallback).
    inquiry_full: u64,
    sim_secs: f64,
    reads_checked: usize,
    check_secs: f64,
    keys_touched: u32,
    writes_completed: u64,
    writes_skipped_busy: u64,
    writes_gated: u64,
    safety_ok: bool,
    liveness_ok: bool,
    /// FNV fold of every key's op stream plus the message/membership
    /// totals — wall-clock-free, so two runs of the same configuration
    /// compare byte-for-byte (the CI writer-equivalence gate).
    digest: u64,
}

impl SpaceResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.sim_secs.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"keys\": {},\n",
                "      \"shards\": {},\n",
                "      \"writers\": {},\n",
                "      \"write_every_ticks\": {},\n",
                "      \"nodes\": {},\n",
                "      \"ticks\": {},\n",
                "      \"churn_rate\": {:.8},\n",
                "      \"events\": {},\n",
                "      \"messages\": {},\n",
                "      \"sim_secs\": {:.4},\n",
                "      \"events_per_sec\": {:.0},\n",
                "      \"reads_checked\": {},\n",
                "      \"check_secs\": {:.4},\n",
                "      \"keys_touched\": {},\n",
                "      \"writes_completed\": {},\n",
                "      \"writes_skipped_busy\": {},\n",
                "      \"writes_gated\": {},\n",
                "      \"safety_ok\": {},\n",
                "      \"liveness_ok\": {}\n",
                "    }}"
            ),
            self.keys,
            self.shards,
            self.writers,
            self.write_every,
            self.nodes,
            self.ticks,
            self.churn_rate,
            self.events,
            self.messages,
            self.sim_secs,
            self.events_per_sec(),
            self.reads_checked,
            self.check_secs,
            self.keys_touched,
            self.writes_completed,
            self.writes_skipped_busy,
            self.writes_gated,
            self.safety_ok,
            self.liveness_ok,
        )
    }

    fn digest_json(&self) -> String {
        format!(
            "    {{\"keys\": {}, \"shards\": {}, \"writers\": {}, \"digest\": \"{:#018x}\"}}",
            self.keys, self.shards, self.writers, self.digest
        )
    }
}

/// FNV-1a 64-bit over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = seed;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Churn model wrapper going quiet at `stop_at` (mirrors the drain window
/// `ScenarioSpec::run` applies, which `testkit` keeps private).
#[derive(Debug)]
struct StopAfter {
    inner: ConstantRate,
    stop_at: Time,
}

impl ChurnModel for StopAfter {
    fn refreshes(&mut self, now: Time, n: usize, rng: &mut DetRng) -> usize {
        if now >= self.stop_at {
            0
        } else {
            self.inner.refreshes(now, n, rng)
        }
    }

    fn nominal_rate(&self) -> Option<f64> {
        self.inner.nominal_rate()
    }
}

/// One row of the scenario set: a keyed world at a writer-roster size and
/// write beat.
#[derive(Clone, Copy)]
struct Row {
    keys: u32,
    /// Join-reply shard groups `G`.
    shards: u32,
    /// Writer-roster size and per-key write cap.
    writers: usize,
    /// Ticks between workload write beats (every roster writer attempts
    /// one write per beat).
    write_every: u64,
}

/// Runs one keyed world and measures simulation and checking separately.
#[expect(
    clippy::disallowed_methods,
    reason = "bench harness timing, outside the simulation"
)]
fn run_space(row: Row, nodes: usize, ticks: u64) -> SpaceResult {
    let Row {
        keys,
        shards,
        writers,
        write_every,
    } = row;
    let delta = Span::ticks(3);
    // Absolute churn (≈0.4 joins/tick) so the per-join state transfer —
    // not the churn model — sets the load, as a production service would
    // see.
    let churn_rate = 0.4 / nodes as f64;
    let end = Time::at(ticks);
    let stop = Time::at(ticks.saturating_sub(delta.as_ticks() * 12).max(1));
    let factory = SpaceOf::new(SyncFactory::new(SyncConfig::new(delta)), keys)
        .with_shards(ShardConfig::new(shards).with_reinquire_every(delta.times(4)));
    let mut world = World::new(
        factory,
        WorldConfig {
            n: nodes,
            initial: 0,
            delay: Box::new(Synchronous::new(delta)),
            churn: ChurnDriver::new(
                Box::new(StopAfter {
                    inner: ConstantRate::new(churn_rate),
                    stop_at: stop,
                }),
                LeaveSelector::Random,
                IdSource::starting_at(nodes as u64),
            ),
            workload: Box::new(
                ZipfWorkload::new(ZipfKeys::new(keys, 1.0), Span::ticks(write_every), 8.0)
                    .stopping_at(stop),
            ),
            seed: 0x000B_A1D0,
            trace: false,
            writer_policy: WriterPolicy::FixedProtected,
            writers,
        },
    );
    for w in 0..writers as u64 {
        world.protect(NodeId::from_raw(w));
    }

    let sim_start = Instant::now();
    world.run_until(end);
    let sim_secs = sim_start.elapsed().as_secs_f64();
    let events = world.events_processed();

    let (space, presence, metrics, _trace, network) = world.into_space_outputs();
    let writes_completed = metrics.counter("ops.write_completed");
    let writes_skipped_busy = metrics.counter("ops.skipped_busy");
    let writes_gated = metrics.counter("workload.write_gated");
    let messages = network.total_sent();
    let inquiry_full = network.sent_of("INQUIRY_FULL");
    let mut digest = fnv1a([], 0xCBF2_9CE4_8422_2325);
    for (_, h) in space.iter() {
        digest = fnv1a(format!("{:?}", h.ops()).bytes(), digest);
    }
    for v in [
        messages,
        presence.total_arrivals() as u64,
        presence.total_departures() as u64,
        events,
    ] {
        digest = fnv1a(v.to_le_bytes(), digest);
    }

    let check_start = Instant::now();
    let report = SpaceReport::check(&space);
    let check_secs = check_start.elapsed().as_secs_f64();
    // Zipf coverage: keys that saw *client* traffic (joins are recorded in
    // every key's history, so "any op" would trivially count all keys).
    let keys_touched = space
        .iter()
        .filter(|(_, h)| {
            h.ops()
                .iter()
                .any(|r| !matches!(r.kind, dynareg_verify::OpKind::Join))
        })
        .count() as u32;

    SpaceResult {
        keys,
        shards: shards.min(keys),
        writers: writers as u32,
        write_every,
        nodes,
        ticks,
        churn_rate,
        events,
        messages,
        inquiry_full,
        sim_secs,
        reads_checked: report.total_reads_checked(),
        check_secs,
        keys_touched,
        writes_completed,
        writes_skipped_busy,
        writes_gated,
        safety_ok: report.all_regular(),
        liveness_ok: report.all_live(),
        digest,
    }
}

struct Args {
    nodes: usize,
    ticks: u64,
    out: String,
    digest_out: Option<String>,
    /// `None` = the default mixed scenario set; `Some(g)` = `--shards g`.
    shards: Option<u32>,
    /// `--writers W` pins every row to one roster size (and drops the
    /// default set's extra `W = 4` rows): the explicit-W output is
    /// row-comparable across W values, and `--writers 1` must digest-match
    /// the unflagged run (the CI `W = 1 ≡ default` gate).
    writers: Option<usize>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        nodes: 1000,
        ticks: 600,
        out: "BENCH_space.json".to_string(),
        digest_out: None,
        shards: None,
        writers: None,
    };
    let mut cli = Cli::from_env(
        "exp_space_throughput [--nodes N] [--ticks T] [--out PATH] \
         [--shards G] [--writers W] [--digest-out PATH]",
    );
    while let Some(flag) = cli.next_arg() {
        match flag.as_str() {
            "--nodes" => {
                parsed.nodes =
                    cli.parsed_where("--nodes", "a positive integer", |&n: &usize| n > 0);
            }
            "--ticks" => {
                parsed.ticks = cli.parsed_where("--ticks", "a positive integer", |&t: &u64| t > 0);
            }
            "--out" => parsed.out = cli.value("--out"),
            "--digest-out" => parsed.digest_out = Some(cli.value("--digest-out")),
            "--shards" => {
                parsed.shards =
                    Some(cli.parsed_where("--shards", "a positive integer", |&g: &u32| g > 0));
            }
            "--writers" => {
                parsed.writers =
                    Some(cli.parsed_where("--writers", "a positive integer", |&w: &usize| w > 0));
            }
            other => cli.fail(&format!("unknown argument `{other}`")),
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    println!(
        "PERF — register-space throughput (shared handshake, sharded join replies, Zipf traffic)"
    );
    println!("claim: events/sec at 1 / 16 / 256 keys on one churning world\n");

    // The default set carries the sharded-recovery row plus the two W = 4
    // rows (multi-key write scaling on the standard beat, hot-key
    // contention on a 1-tick beat); an explicit --shards or --writers
    // runs the plain trio in that one mode (the CI writer-equivalence gate
    // compares their digests).
    let w = args.writers.unwrap_or(1);
    let beat = 9; // the standard write beat, 3δ ticks
    let row = |keys, shards, writers, write_every| Row {
        keys,
        shards,
        writers,
        write_every,
    };
    let scenarios: Vec<Row> = match (args.shards, args.writers) {
        (None, None) => vec![
            row(1, 1, 1, beat),
            row(16, 1, 1, beat),
            row(256, 1, 1, beat),
            row(256, 16, 1, beat),
            row(256, 1, 4, beat),
            row(256, 1, 4, 1),
        ],
        (shards, _) => {
            let g = shards.unwrap_or(1);
            vec![
                row(1, g, w, beat),
                row(16, g, w, beat),
                row(256, g, w, beat),
            ]
        }
    };

    let mut results = Vec::new();
    for &sc in &scenarios {
        let r = run_space(sc, args.nodes, args.ticks);
        println!(
            "k={:<4} G={:<3} W={:<2} beat={:<2} n={} ticks={} | {} events in {:.2}s = \
             {:.0} events/sec | {} msgs | {} writes (+{} busy-skips) | \
             {} reads checked over {} touched keys in {:.3}s | safety={} liveness={}",
            r.keys,
            r.shards,
            r.writers,
            r.write_every,
            r.nodes,
            r.ticks,
            r.events,
            r.sim_secs,
            r.events_per_sec(),
            r.messages,
            r.writes_completed,
            r.writes_skipped_busy + r.writes_gated,
            r.reads_checked,
            r.keys_touched,
            r.check_secs,
            if r.safety_ok { "OK" } else { "VIOLATED" },
            if r.liveness_ok { "OK" } else { "STUCK" },
        );
        if r.shards > 1 {
            println!("       G={}: inquiry_full={}", r.shards, r.inquiry_full);
        }
        assert!(
            r.safety_ok,
            "register space lost regularity at k={}",
            sc.keys
        );
        assert!(
            r.liveness_ok,
            "register space lost liveness at k={}",
            sc.keys
        );
        results.push(r);
    }
    // The shared handshake's signature: message counts do not scale with
    // the key count. (16 vs 256 keys, not 1 vs 16: a 1-key joiner that
    // received the in-flight WRITE during its wait skips the inquiry
    // entirely — Figure 1 line 03 — while a keyed space still inquires
    // for its other keys, so only multi-key counts are exactly equal.)
    // Only at `G = 1`: a responder still joining answers at once for the
    // keys that adopted a WRITE during its wait and on activation for the
    // rest — two batches if its stripe holds such a key, one if not, and
    // whether a `K/G` stripe does depends on the Zipf draw over `K` keys
    // (`--shards 4 --nodes 200 --ticks 200`: 8 split answers at 16 keys,
    // 12 at 256, `inquiry_full` 0 in both — no starvation round involved).
    if results[1].shards == 1 {
        assert_eq!(
            results[1].messages, results[2].messages,
            "physical message count must not scale with the key count"
        );
    }
    if let (Some(full), Some(sharded)) = (
        results
            .iter()
            .find(|r| r.keys == 256 && r.shards == 1 && r.writers == 1),
        results.iter().find(|r| r.keys == 256 && r.shards > 1),
    ) {
        println!(
            "\nsharded recovery at 256 keys: G={} runs {:.1}x the full-reply rate \
             ({:.0} vs {:.0} events/sec)",
            sharded.shards,
            sharded.events_per_sec() / full.events_per_sec().max(1e-9),
            sharded.events_per_sec(),
            full.events_per_sec(),
        );
    }
    // The tentpole's signature: per-(node, key) busy tracking lets W
    // writers pipeline across keys, so completed writes scale with the
    // roster — the old global write slot pinned every row to the W = 1
    // count.
    if let (Some(w1), Some(w4)) = (
        results
            .iter()
            .find(|r| r.keys == 256 && r.shards == 1 && r.writers == 1),
        results
            .iter()
            .find(|r| r.keys == 256 && r.writers == 4 && r.write_every > 1),
    ) {
        let scale = w4.writes_completed as f64 / (w1.writes_completed as f64).max(1e-9);
        println!(
            "\nmulti-writer scaling at 256 keys: W=4 completes {:.1}x the W=1 writes \
             ({} vs {})",
            scale, w4.writes_completed, w1.writes_completed,
        );
        assert!(
            scale > 2.0,
            "W=4 must scale multi-key write throughput (got {scale:.2}x)"
        );
    }
    if let Some(hot) = results
        .iter()
        .find(|r| r.writers == 4 && r.write_every == 1)
    {
        println!(
            "hot-key contention (W=4, 1-tick beat, Zipf 1.0): {} writes completed, \
             {} attempts gated busy — contention is counted, never dropped or wedged",
            hot.writes_completed,
            hot.writes_skipped_busy + hot.writes_gated,
        );
        assert!(
            hot.writes_skipped_busy + hot.writes_gated > 0,
            "a 1-tick write beat at W=4 must actually contend"
        );
    }

    let body: Vec<String> = results.iter().map(SpaceResult::json).collect();
    let json = format!(
        "{{\n  \"schema\": \"dynareg-bench-space/3\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&args.out, &json).expect("write benchmark json");
    println!("\nwrote {}", args.out);

    if let Some(path) = &args.digest_out {
        let body: Vec<String> = results.iter().map(SpaceResult::digest_json).collect();
        let json = format!(
            "{{\n  \"schema\": \"dynareg-bench-space-digest/2\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        );
        std::fs::write(path, &json).expect("write digest json");
        println!("wrote {path}");
    }
}
