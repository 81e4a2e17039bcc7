//! `engine-zipf`: an open loop at a fixed rate through `DictClient` into
//! a two-shard `ServeEngine` over journaled `DynamicDict` shards, with
//! the hot-key cache on. Zipf-skewed keys put most lookups in the cache;
//! the rest cross the engine's queue handoff to a shard worker.
//!
//! Replacements delete a hot key and insert a fresh key in its rank, so
//! each one invalidates a cached entry. They do not re-insert the deleted
//! key: repeated delete and insert of one key fails after a few cycles
//! (the fault [`crate::fault`] reproduces), at a rate that depends on the
//! seed.

use crate::layers::{self, now_ns, BackendClock, DictClock, IoCounts, TimedBackend, TimedDict};
use crate::measure::{self, Latencies, Pacer, Samples, WINDOWS_PER_S};
use crate::model::{satellite, KeySet, KeySpace, Rng, Zipf};
use crate::report::Report;
use crate::{fault, Args, SETUPS};
use expander::mix::mix64;
use pdm::{DiskArray, MemBackend, PdmConfig};
use pdm_cache::{CacheConfig, CacheCounters};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::{Dict, DictHandle, DictParams, DynamicDict};
use pdm_server::{DictClient, EngineConfig, EngineStats, Op, Reply, ServeEngine, ServeError};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
const ROUTE_SEED: u64 = 0x5EED_CAFE;
const UNIVERSE_BITS: u32 = 24;
const SAT_WORDS: usize = 2;
const DISKS: usize = 40;
const DEGREE: usize = 20;
const BLOCK_WORDS: usize = 128;
const JOURNAL_ROWS: usize = 4;
/// Ranks of the Zipf law. Every fifth rank names a key that is never
/// inserted, so hot misses reach the negative cache.
const RANKS: usize = 20_000;
const ZIPF_THETA: f64 = 1.2;
/// Cache budget per shard: 512 entries of two satellite words, well
/// under the hot set, so admission and eviction both work.
const CACHE_BYTES: usize = 32 << 10;
/// Offered load; one second of it is one round.
const RATE: u64 = 4_000;
/// Percent of operations that are replacements.
const REPLACE_PCT: u64 = 5;
const CODEC_OPS: usize = 4_096;
const SWEEP_ABSENT: u64 = 2_000;

fn is_absent_rank(rank: usize) -> bool {
    rank % 5 == 4
}

fn shard_of(key: u64) -> usize {
    // The engine's own route, so preloads land where lookups go.
    (mix64(ROUTE_SEED ^ key) % SHARDS as u64) as usize
}

/// Per-shard capacity: the shard's share of every insert the run can
/// make, with headroom, since deleted keys keep their fields.
fn shard_capacity(seconds: u64) -> usize {
    let present = RANKS - RANKS / 5;
    let inserts = present as u64 + RATE * seconds * REPLACE_PCT / 100;
    (inserts as usize / SHARDS) * 5 / 4 + 512
}

fn shard_params(seconds: u64, shard: usize) -> DictParams {
    DictParams::new(shard_capacity(seconds), 1 << UNIVERSE_BITS, SAT_WORDS)
        .with_degree(DEGREE)
        .with_epsilon(0.5)
        .with_seed(0xE761_0000 + shard as u64)
        .with_journal(JOURNAL_ROWS)
}

/// The layer seams of a traced run.
#[derive(Default)]
struct Tracing {
    dict: Arc<DictClock>,
    backend: Arc<BackendClock>,
    io: Arc<IoCounts>,
}

struct Setup {
    engine: ServeEngine,
    client: DictClient,
    model: KeySet,
    keys: KeySpace,
    /// The key each rank names now.
    ranks: Vec<u64>,
    seconds: f64,
}

fn setup(args: &Args, seconds: u64, tracing: Option<&Tracing>) -> Setup {
    let t = Instant::now();
    let mut keys = KeySpace::new(UNIVERSE_BITS, args.seed);
    let mut shards: Vec<Box<dyn Dict + Send>> = (0..SHARDS)
        .map(|s| {
            let cfg = PdmConfig::new(DISKS, BLOCK_WORDS);
            let mut disks = match tracing {
                Some(tr) => DiskArray::with_backend(
                    cfg,
                    Box::new(TimedBackend::new(
                        MemBackend::new(DISKS, BLOCK_WORDS, 0),
                        Arc::clone(&tr.backend),
                    )),
                )
                .expect("backend matches its config"),
                None => DiskArray::new(cfg, 0),
            };
            let mut alloc = DiskAllocator::new(DISKS);
            let dict = DynamicDict::create(&mut disks, &mut alloc, 0, shard_params(seconds, s))
                .expect("valid shard parameters");
            if let Some(tr) = tracing {
                disks.set_io_sink(Some(Arc::clone(&tr.io) as Arc<dyn pdm::IoEventSink>));
            }
            Box::new(DictHandle::new(dict, disks)) as Box<dyn Dict + Send>
        })
        .collect();
    let mut model = KeySet::default();
    let ranks: Vec<u64> = (0..RANKS)
        .map(|r| {
            if is_absent_rank(r) {
                keys.absent(r as u64)
            } else {
                let k = keys.fresh();
                let res = shards[shard_of(k)].insert(k, &satellite(k, SAT_WORDS));
                assert!(res.is_ok(), "preload insert of {k} failed: {res:?}");
                model.insert(k);
                k
            }
        })
        .collect();
    if let Some(tr) = tracing {
        shards = shards
            .into_iter()
            .map(|d| {
                Box::new(TimedDict::new(
                    d,
                    Arc::clone(&tr.dict),
                    Arc::clone(&tr.backend),
                )) as Box<dyn Dict + Send>
            })
            .collect();
    }
    let cfg = EngineConfig::default()
        .with_route_seed(ROUTE_SEED)
        .with_cache(CacheConfig::default().with_budget_bytes(CACHE_BYTES));
    let engine = ServeEngine::new(shards, cfg);
    Setup {
        client: engine.client(),
        engine,
        model,
        keys,
        ranks,
        seconds: t.elapsed().as_secs_f64(),
    }
}

#[derive(Default)]
struct Phase {
    lat: Latencies,
    replace: Samples,
    submit: Samples,
    queue: Samples,
    reply: Samples,
    lookups: u64,
    ops: u64,
    elapsed_s: f64,
    late: Samples,
    steal_ms: f64,
    stats: EngineStats,
    cache: CacheCounters,
    log: Vec<(u32, Op, Reply)>,
}

fn serve_kind(e: &ServeError) -> String {
    match e {
        ServeError::Dict(d) => format!("{:?}", d.kind()),
        other => format!("{other:?}")
            .split(['(', ' ', '{'])
            .next()
            .unwrap_or("?")
            .to_string(),
    }
}

/// Which operations of a one-second round are replacements: exactly
/// [`REPLACE_PCT`] percent, at seeded places, so every run attempts the
/// same number of operations of each class.
fn round_kinds(rng: &mut Rng) -> Vec<bool> {
    let replaces = (RATE * REPLACE_PCT / 100) as usize;
    let mut kinds: Vec<bool> = (0..RATE as usize).map(|i| i < replaces).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    kinds
}

/// One operation through the client: submit, then wait. Returns the
/// reply, the submit return time and the reply time (see [`now_ns`]).
fn call(s: &Setup, op: Op) -> (Result<Reply, ServeError>, u64, u64, u64) {
    let sent = now_ns();
    let pending = s.client.submit(op);
    let submitted = now_ns();
    let reply = pending.and_then(pdm_server::Pending::wait);
    (reply, sent, submitted, now_ns())
}

fn measure(
    s: &mut Setup,
    args: &Args,
    seconds: u64,
    tracing: Option<&Tracing>,
    report: &mut Report,
) -> Phase {
    let mut rng = Rng::new(args.seed ^ 0xE761_2EC7);
    let zipf = Zipf::new(RANKS, ZIPF_THETA);
    let mut ph = Phase::default();
    let total = RATE * seconds;
    let steal0 = measure::steal_ms();
    let mut pacer = Pacer::new(RATE);
    let us = |a: u64, b: u64| std::time::Duration::from_nanos(b.saturating_sub(a));
    let mut kinds: Vec<bool> = Vec::new();
    for i in 0..total {
        if i % RATE == 0 {
            kinds = round_kinds(&mut rng);
        }
        let w = (i / (RATE / WINDOWS_PER_S)) as usize;
        if i % (RATE / WINDOWS_PER_S) == 0 {
            ph.lat.begin(w);
        }
        let replace = kinds[(i % RATE) as usize];
        let mut rank = zipf.draw(&mut rng);
        let due = pacer.wait_due(i);
        let due_ns = layers::ns_at(due);
        let calls_before = tracing.map(|t| t.dict.calls.load(Ordering::Relaxed));
        if !replace {
            let key = s.ranks[rank];
            report.attempt("lookup");
            let (reply, sent, submitted, done) = call(s, Op::Lookup(key));
            ph.lat.at(w).lookup.push(us(due_ns, done));
            ph.submit.push(us(sent, submitted));
            ph.lookups += 1;
            if let (Some(tr), Some(before)) = (tracing, calls_before) {
                if tr.dict.calls.load(Ordering::Relaxed) != before {
                    ph.queue
                        .push(us(submitted, tr.dict.last_start.load(Ordering::Relaxed)));
                    ph.reply
                        .push(us(tr.dict.last_end.load(Ordering::Relaxed), done));
                }
            }
            match reply {
                Ok(Reply::Lookup(got)) => {
                    let want = s.model.contains(key).then(|| satellite(key, SAT_WORDS));
                    report.check(got == want, || {
                        format!("lookup({key}) = {got:?}, model has {want:?}")
                    });
                    if ph.log.len() < CODEC_OPS {
                        ph.log
                            .push((shard_of(key) as u32, Op::Lookup(key), Reply::Lookup(got)));
                    }
                }
                Ok(other) => report.check(false, || format!("lookup({key}) answered {other:?}")),
                Err(e) => report.fail("lookup", &serve_kind(&e)),
            }
        } else {
            if is_absent_rank(rank) {
                rank -= 1;
            }
            let old = s.ranks[rank];
            let new = s.keys.fresh();
            let sat = satellite(new, SAT_WORDS);
            report.attempt("delete");
            let (reply, _, _, deleted) = call(s, Op::Delete(old));
            ph.lat.at(w).delete.push(us(due_ns, deleted));
            match reply {
                Ok(Reply::Deleted(was)) => {
                    report.check(was, || format!("delete({old}) found it absent"));
                    s.model.remove(old);
                }
                Ok(other) => report.check(false, || format!("delete({old}) answered {other:?}")),
                Err(e) => report.fail("delete", &serve_kind(&e)),
            }
            report.attempt("insert");
            let (reply, _, _, inserted) = call(s, Op::Insert(new, sat.clone()));
            ph.lat.at(w).insert.push(us(deleted, inserted));
            ph.replace.push(us(due_ns, inserted));
            match reply {
                Ok(Reply::Inserted) => {
                    s.model.insert(new);
                    s.ranks[rank] = new;
                }
                Ok(other) => report.check(false, || format!("insert({new}) answered {other:?}")),
                Err(e) => report.fail("insert", &serve_kind(&e)),
            }
            if ph.log.len() < CODEC_OPS {
                ph.log
                    .push((shard_of(old) as u32, Op::Delete(old), Reply::Deleted(true)));
                ph.log
                    .push((shard_of(new) as u32, Op::Insert(new, sat), Reply::Inserted));
            }
        }
        ph.ops += 1;
    }
    ph.lat.end();
    ph.elapsed_s = pacer.elapsed_s();
    ph.late = std::mem::take(&mut pacer.late);
    ph.steal_ms = measure::steal_since(steal0);
    ph.stats = s.engine.stats();
    ph.cache = s.engine.cache_counters().expect("cache configured");
    // The fault reproduction, once per measured second.
    for _ in 0..seconds {
        let firsts = fault::round(report);
        let line: Vec<String> = firsts
            .iter()
            .map(|(k, c)| format!("{k}@{}", c.map_or("none".into(), |c| c.to_string())))
            .collect();
        println!(
            "overwrite fault: first refused cycle per key: {}",
            line.join(" ")
        );
    }
    ph
}

/// Read back every key the model holds and a sample of absent keys, then
/// shut the engine down and compare the shards' sizes with the model.
fn sweep(s: Setup, seed: u64, report: &mut Report) {
    for &key in s.model.keys() {
        let got = s.client.lookup(key);
        let want = satellite(key, SAT_WORDS);
        report.check(matches!(&got, Ok(Some(v)) if *v == want), || {
            format!("final sweep: lookup({key}) = {got:?}, model has {want:?}")
        });
    }
    let mut rng = Rng::new(seed ^ 0x5EE9);
    for _ in 0..SWEEP_ABSENT {
        let key = s.keys.absent(RANKS as u64 + rng.next_u64() % (1 << 20));
        let got = s.client.lookup(key);
        report.check(matches!(got, Ok(None)), || {
            format!("final sweep: absent {key} read {got:?}")
        });
    }
    drop(s.client);
    let len: usize = s.engine.shutdown().iter().map(|d| d.len()).sum();
    let want = s.model.len();
    report.check(len == want, || {
        format!("shards hold {len} keys, model {want}")
    });
}

/// Every count of the run that does not depend on timing.
fn counts(ph: &Phase) -> [u64; 9] {
    let (st, c) = (&ph.stats, &ph.cache);
    [
        st.acked,
        st.dict_errors,
        st.parallel_ios,
        st.cache_hits,
        st.cache_negative_hits,
        c.admitted,
        c.evicted,
        c.invalidated,
        st.exec_ops,
    ]
}

fn print_phase(name: &str, ph: &mut Phase) {
    ph.lat.print(name);
    println!(
        "{name} overwrite (delete + insert): n={} p50={:.2}us p90={:.2}us p99={:.2}us",
        ph.replace.len(),
        ph.replace.percentile_us(0.5),
        ph.replace.percentile_us(0.9),
        ph.replace.percentile_us(0.99)
    );
    let c = &ph.cache;
    println!(
        "{name} engine: ios_per_acked_op={:.4} acked={} dict_errors={} cache_answered={:.4} \
         (negative {:.4}) admitted={} evicted={} invalidated={} ops_per_s={:.1} \
         late_p90={:.2}us late_max={:.2}us steal_ms={:.0}",
        ph.stats.ios_per_acked_op(),
        ph.stats.acked,
        ph.stats.dict_errors,
        layers::ratio(c.hits + c.negative_hits, ph.lookups),
        layers::ratio(c.negative_hits, ph.lookups),
        c.admitted,
        c.evicted,
        c.invalidated,
        ph.ops as f64 / ph.elapsed_s,
        ph.late.percentile_us(0.9),
        ph.late.max_us(),
        ph.steal_ms
    );
}

fn plain(args: &Args, report: &mut Report) {
    let mut setups: Vec<Setup> = (0..SETUPS)
        .map(|_| setup(args, args.seconds, None))
        .collect();
    let setup_s = measure::median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>());
    let mut s = setups.pop().expect("at least one set-up");
    for other in setups {
        drop(other.engine.shutdown());
    }
    let mut ph = measure(&mut s, args, args.seconds, None, report);
    sweep(s, args.seed, report);
    report.check_no_failures();
    print_phase("measured", &mut ph);
    report.metric("setup_s", setup_s);
    report.metric("ops_per_s", ph.ops as f64 / ph.elapsed_s);
    ph.lat.report(report);
}

fn traced(args: &Args, report: &mut Report) {
    let seconds = args.phase_seconds();
    let mut s = setup(args, seconds, None);
    let mut reference = measure(&mut s, args, seconds, None, report);
    sweep(s, args.seed, report);
    print_phase("untraced", &mut reference);

    let tr = Tracing::default();
    let mut s = setup(args, seconds, Some(&tr));
    let backend_setup = (tr.backend.calls(), tr.backend.ns());
    let io_setup = [
        tr.io.blocks_read.load(Ordering::Relaxed),
        tr.io.blocks_written.load(Ordering::Relaxed),
    ];
    let mut ph = measure(&mut s, args, seconds, Some(&tr), report);
    let lookup_keys = s.model.keys().to_vec();
    let backend = (
        tr.backend.calls() - backend_setup.0,
        tr.backend.ns() - backend_setup.1,
    );
    let io = [
        tr.io.blocks_read.load(Ordering::Relaxed) - io_setup[0],
        tr.io.blocks_written.load(Ordering::Relaxed) - io_setup[1],
    ];
    let d = &tr.dict;
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let (calls, dict_ops, busy, inner) = (
        load(&d.calls),
        load(&d.ops),
        load(&d.busy_ns),
        load(&d.backend_ns),
    );
    let (lookups, lookup_ios, updates, update_ios) = (
        load(&d.lookups),
        load(&d.lookup_ios),
        load(&d.updates),
        load(&d.update_ios),
    );
    sweep(s, args.seed, report);
    report.check_no_failures();
    print_phase("traced", &mut ph);
    report.check(counts(&ph) == counts(&reference), || {
        format!(
            "traced and untraced runs disagree on deterministic counts: {:?} vs {:?}",
            counts(&ph),
            counts(&reference)
        )
    });

    let (codec_ns, wire_bytes) = layers::codec_cost(&ph.log);
    let stripe =
        (shard_params(seconds, 0).right_slack * shard_capacity(seconds) as f64).ceil() as usize;
    let c = &ph.cache;
    let p50_plain = reference.lat.lookup_p50_us();
    let p50_traced = ph.lat.lookup_p50_us();
    report.metric(
        "expander.neighbors_ns",
        layers::neighbors_ns(&lookup_keys, 1 << UNIVERSE_BITS, stripe, DEGREE),
    );
    report.metric(
        "pdm.read_round_us",
        layers::read_round_us(DISKS, BLOCK_WORDS, DEGREE, args.seed),
    );
    report.metric("pdm.blocks_read_per_op", layers::ratio(io[0], dict_ops));
    report.metric("pdm.blocks_written_per_op", layers::ratio(io[1], dict_ops));
    report.metric("pdm.executor_hit_ratio", tr.io.executor_hit_ratio());
    report.metric(
        "pdm.backend_us_per_call",
        layers::ratio(backend.1, backend.0) / 1e3,
    );
    report.metric(
        "pdm.backend_calls_per_op",
        layers::ratio(backend.0, dict_ops),
    );
    report.metric("dict.call_us", layers::ratio(busy, calls) / 1e3);
    report.metric("dict.self_us", layers::ratio(busy - inner, calls) / 1e3);
    report.metric("dict.ops_per_call", layers::ratio(dict_ops, calls));
    report.metric("dict.lookup_ios", layers::ratio(lookup_ios, lookups));
    report.metric("dict.update_ios", layers::ratio(update_ios, updates));
    report.metric(
        "cache.answered_ratio",
        layers::ratio(c.hits + c.negative_hits, ph.lookups),
    );
    report.metric(
        "cache.negative_ratio",
        layers::ratio(c.negative_hits, ph.lookups),
    );
    report.metric("cache.admitted", c.admitted as f64);
    report.metric("cache.evicted", c.evicted as f64);
    report.metric("cache.invalidated", c.invalidated as f64);
    report.metric("engine.submit_us", ph.submit.mean_us());
    report.metric("engine.queue_us", ph.queue.mean_us());
    report.metric("engine.reply_us", ph.reply.mean_us());
    report.metric("engine.ios_per_acked_op", ph.stats.ios_per_acked_op());
    report.metric("wire.codec_ns", codec_ns);
    report.metric("wire.bytes_per_op", wire_bytes);
    report.metric("harness.late_p90_us", ph.late.percentile_us(0.9));
    report.metric("harness.late_max_us", ph.late.max_us());
    report.metric("harness.steal_ms", ph.steal_ms);
    report.trace_overhead(p50_plain, p50_traced);
}

pub fn run(args: &Args, report: &mut Report) {
    if args.trace {
        traced(args, report);
    } else {
        plain(args, report);
    }
}
