//! `direct-mixed`: a closed loop of direct `Dict` calls on a journaled,
//! globally rebuilt `Dictionary` over in-memory disks. No engine, wire or
//! cache sits in the path, so the expander, dictionary and disk layers
//! do all the work.

use crate::layers::{self, IoCounts};
use crate::measure::{self, Latencies};
use crate::model::{satellite, KeySet, KeySpace, Rng};
use crate::report::Report;
use crate::{Args, Inject, SETUPS};
use pdm::metrics::MetricsRegistry;
use pdm_dict::{Dict, DictParams, Dictionary};
use pdm_server::{Op, Reply};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const PRELOAD: usize = 20_000;
const UNIVERSE_BITS: u32 = 32;
const SAT_WORDS: usize = 2;
const BLOCK_WORDS: usize = 128;
const DEGREE: usize = 20;
const INITIAL_CAPACITY: usize = 1 << 15;
const JOURNAL_ROWS: usize = 4;
/// Operations between the deterministic-count fingerprints a traced run
/// compares with its untraced twin.
const CHECKPOINT_OPS: u64 = 10_000;
/// Operations whose wire form the codec probe encodes.
const CODEC_OPS: usize = 4_096;
/// Absent keys the final sweep reads.
const SWEEP_ABSENT: u64 = 2_000;

fn params() -> DictParams {
    DictParams::new(INITIAL_CAPACITY, 1 << UNIVERSE_BITS, SAT_WORDS)
        .with_degree(DEGREE)
        .with_epsilon(0.5)
        .with_seed(0xD1C7_0001)
        .with_journal(JOURNAL_ROWS)
}

struct Setup {
    dict: Dictionary,
    model: KeySet,
    keys: KeySpace,
    seconds: f64,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let mut keys = KeySpace::new(UNIVERSE_BITS, seed);
    let mut dict = Dictionary::new(params(), BLOCK_WORDS).expect("valid dictionary parameters");
    let mut model = KeySet::default();
    let entries: Vec<(u64, Vec<u64>)> = (0..PRELOAD)
        .map(|_| {
            let k = keys.fresh();
            (k, satellite(k, SAT_WORDS))
        })
        .collect();
    for (k, sat) in &entries {
        let r = Dict::insert(&mut dict, *k, sat);
        assert!(r.is_ok(), "preload insert of {k} failed: {r:?}");
        model.insert(*k);
    }
    Setup {
        dict,
        model,
        keys,
        seconds: t.elapsed().as_secs_f64(),
    }
}

#[derive(Default)]
struct Phase {
    lat: Latencies,
    /// Operations made, the warm-up included.
    ops: u64,
    /// Operations made in the timed cycles, and the time they took.
    timed_ops: u64,
    elapsed_s: f64,
    lookups: u64,
    lookup_ios: u64,
    updates: u64,
    update_ios: u64,
    misses_plain: u64,
    misses_rebuild: u64,
    rebuilds: u64,
    /// Rebuild cycles timed.
    cycles: usize,
    /// `[lookup_ios, update_ios, misses, rebuilds]` after every
    /// [`CHECKPOINT_OPS`] operations, warm-up included.
    checkpoints: Vec<[u64; 4]>,
    steal_ms: f64,
    log: Vec<(u32, Op, Reply)>,
}

fn err_kind(e: &pdm_dict::DictError) -> String {
    format!("{:?}", e.kind())
}

/// The closed loop: 70% lookups (half of them of absent keys), 15%
/// inserts of fresh keys and 15% deletes of present keys. The operations
/// before the first global rebuild starts are a warm-up and are not
/// timed. From then on the run times whole rebuild cycles, each from one
/// rebuild's start to the next's, until `seconds` have passed, so that
/// every run pools the same share of migrating updates, which cost an
/// order of magnitude more than plain ones and hold the updates' p90.
/// Counts cover every operation, the warm-up included.
fn measure(s: &mut Setup, args: &Args, seconds: u64, report: &mut Report) -> Phase {
    let mut rng = Rng::new(args.seed ^ 0xD1_2EC7);
    let mut ph = Phase::default();
    let mut injected = false;
    let rebuilds_before = s.dict.rebuilds();
    let mut steal0 = None;
    let mut start = Instant::now();
    let mut timed_from = 0;
    let mut cycles = 0;
    let mut was_rebuilding = s.dict.is_rebuilding();
    loop {
        let rebuilding = s.dict.is_rebuilding();
        if rebuilding && !was_rebuilding {
            if cycles == 0 {
                steal0 = measure::steal_ms();
                start = Instant::now();
                timed_from = ph.ops;
            } else if start.elapsed().as_secs_f64() >= seconds as f64 {
                break;
            }
            cycles += 1;
        }
        was_rebuilding = rebuilding;
        let dice = rng.below(100);
        let (op, reply) = if dice < 70 {
            let key = if dice < 35 {
                s.model.choose(&mut rng)
            } else {
                s.keys.absent(rng.next_u64())
            };
            report.attempt("lookup");
            let t = Instant::now();
            let out = Dict::lookup(&mut s.dict, key);
            let d = t.elapsed();
            if cycles > 0 {
                ph.lat.at(0).lookup.push(d);
            }
            ph.lookups += 1;
            let mut ios = out.cost.parallel_ios;
            ph.lookup_ios += ios;
            let mut got = out.satellite;
            if s.model.contains(key) {
                if args.inject == Some(Inject::FlipSatellite) && !injected {
                    injected = true;
                    if let Some(sat) = got.as_mut() {
                        sat[0] ^= 1;
                    }
                }
                let want = satellite(key, SAT_WORDS);
                report.check(got.as_deref() == Some(&want[..]), || {
                    format!("lookup({key}) = {got:?}, model has {want:?}")
                });
            } else {
                report.check(got.is_none(), || {
                    format!("lookup({key}) = {got:?}, model has it absent")
                });
                if args.inject == Some(Inject::MissTwoIos) && !injected && !rebuilding {
                    injected = true;
                    ios = 2;
                }
                let expected = if rebuilding { 2 } else { 1 };
                report.check(ios == expected, || {
                    format!(
                        "miss of {key} cost {ios} parallel I/Os (rebuilding: {rebuilding}, \
                             expected {expected})"
                    )
                });
                if rebuilding {
                    ph.misses_rebuild += 1;
                } else {
                    ph.misses_plain += 1;
                }
            }
            (Op::Lookup(key), Reply::Lookup(got))
        } else if dice < 85 {
            let key = s.keys.fresh();
            let sat = satellite(key, SAT_WORDS);
            report.attempt("insert");
            let t = Instant::now();
            let r = Dict::insert(&mut s.dict, key, &sat);
            let d = t.elapsed();
            if cycles > 0 {
                ph.lat.at(0).insert.push(d);
            }
            ph.updates += 1;
            match r {
                Ok(cost) => {
                    ph.update_ios += cost.parallel_ios;
                    s.model.insert(key);
                    if args.inject == Some(Inject::LostWrite) && !injected {
                        injected = true;
                        let _ = Dict::delete(&mut s.dict, key);
                    }
                }
                Err(e) => report.fail("insert", &err_kind(&e)),
            }
            (Op::Insert(key, sat), Reply::Inserted)
        } else {
            let key = s.model.choose(&mut rng);
            report.attempt("delete");
            let t = Instant::now();
            let r = Dict::delete(&mut s.dict, key);
            let d = t.elapsed();
            if cycles > 0 {
                ph.lat.at(0).delete.push(d);
            }
            ph.updates += 1;
            match r {
                Ok((was, cost)) => {
                    ph.update_ios += cost.parallel_ios;
                    report.check(was, || format!("delete({key}) found it absent"));
                    s.model.remove(key);
                }
                Err(e) => report.fail("delete", &err_kind(&e)),
            }
            (Op::Delete(key), Reply::Deleted(true))
        };
        ph.ops += 1;
        if ph.log.len() < CODEC_OPS {
            ph.log.push((0, op, reply));
        }
        if ph.ops % CHECKPOINT_OPS == 0 {
            ph.checkpoints.push([
                ph.lookup_ios,
                ph.update_ios,
                ph.misses_plain + ph.misses_rebuild,
                (s.dict.rebuilds() - rebuilds_before) as u64,
            ]);
        }
    }
    ph.cycles = cycles;
    ph.timed_ops = ph.ops - timed_from;
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph.steal_ms = measure::steal_since(steal0);
    ph.rebuilds = (s.dict.rebuilds() - rebuilds_before) as u64;
    ph
}

/// Read back every key the model holds and a sample of absent keys.
fn sweep(s: &mut Setup, seed: u64, report: &mut Report) {
    for &key in s.model.keys() {
        let got = Dict::lookup(&mut s.dict, key).satellite;
        let want = satellite(key, SAT_WORDS);
        report.check(got.as_deref() == Some(&want[..]), || {
            format!("final sweep: lookup({key}) = {got:?}, model has {want:?}")
        });
    }
    let mut rng = Rng::new(seed ^ 0x5EE9);
    for _ in 0..SWEEP_ABSENT {
        let key = s.keys.absent(rng.next_u64());
        let got = Dict::lookup(&mut s.dict, key).satellite;
        report.check(got.is_none(), || {
            format!("final sweep: absent {key} read {got:?}")
        });
    }
    let (len, want) = (s.dict.len(), s.model.len());
    report.check(len == want, || {
        format!("dictionary holds {len} keys, model {want}")
    });
}

fn print_phase(name: &str, ph: &mut Phase, s: &Setup) {
    ph.lat.print(name);
    println!(
        "{name} io: lookup_ios={:.4} update_ios={:.4} ios_per_op={:.4} misses={} (during rebuild {}) \
         rebuilds={} space_words_per_key={:.1} ops={} timed_ops={} cycles={} ops_per_s={:.0} \
         steal_ms={:.0}",
        layers::ratio(ph.lookup_ios, ph.lookups),
        layers::ratio(ph.update_ios, ph.updates),
        layers::ratio(ph.lookup_ios + ph.update_ios, ph.ops),
        ph.misses_plain + ph.misses_rebuild,
        ph.misses_rebuild,
        ph.rebuilds,
        s.dict.live_space_words() as f64 / s.dict.len() as f64,
        ph.ops,
        ph.timed_ops,
        ph.cycles,
        ph.timed_ops as f64 / ph.elapsed_s,
        ph.steal_ms
    );
}

fn plain(args: &Args, report: &mut Report) {
    let mut setups: Vec<Setup> = (0..SETUPS).map(|_| setup(args.seed)).collect();
    let setup_s = measure::median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>());
    let mut s = setups.pop().expect("at least one set-up");
    drop(setups);
    let mut ph = measure(&mut s, args, args.seconds, report);
    sweep(&mut s, args.seed, report);
    report.check_no_failures();
    print_phase("measured", &mut ph, &s);
    report.metric("setup_s", setup_s);
    report.metric("ops_per_s", ph.timed_ops as f64 / ph.elapsed_s);
    ph.lat.report(report);
}

fn traced(args: &Args, report: &mut Report) {
    let seconds = args.phase_seconds();
    let mut s = setup(args.seed);
    let mut reference = measure(&mut s, args, seconds, report);
    sweep(&mut s, args.seed, report);
    print_phase("untraced", &mut reference, &s);
    drop(s);

    let mut s = setup(args.seed);
    let registry = Arc::new(MetricsRegistry::new());
    Dict::set_metrics(&mut s.dict, Some(Arc::clone(&registry)));
    let io = Arc::new(IoCounts::default());
    s.dict
        .set_io_sink(Some(Arc::clone(&io) as Arc<dyn pdm::IoEventSink>));
    let mut ph = measure(&mut s, args, seconds, report);
    sweep(&mut s, args.seed, report);
    report.check_no_failures();
    print_phase("traced", &mut ph, &s);

    let common = ph.checkpoints.len().min(reference.checkpoints.len());
    report.check(common > 0, || {
        "traced run too short to compare counts".into()
    });
    report.check(
        ph.checkpoints[..common] == reference.checkpoints[..common],
        || "traced and untraced runs disagree on I/O counts at equal op counts".into(),
    );

    let ops = ph.ops;
    let migrated = registry
        .histogram("dict_migrated_keys_per_op", &[("dict", "rebuild")])
        .snapshot()
        .sum;
    let call_us = ph.lat.mean_us();
    let (codec_ns, wire_bytes) = layers::codec_cost(&ph.log);
    let stripe = (params().right_slack * s.dict.capacity() as f64).ceil() as usize;
    let lookup_keys: Vec<u64> = s.model.keys().to_vec();
    let p50_plain = reference.lat.lookup_p50_us();
    let p50_traced = ph.lat.lookup_p50_us();

    report.metric(
        "expander.neighbors_ns",
        layers::neighbors_ns(&lookup_keys, 1 << UNIVERSE_BITS, stripe, DEGREE),
    );
    report.metric(
        "pdm.read_round_us",
        layers::read_round_us(4 * DEGREE, BLOCK_WORDS, DEGREE, args.seed),
    );
    report.metric(
        "pdm.blocks_read_per_op",
        layers::ratio(io.blocks_read.load(Ordering::Relaxed), ops),
    );
    report.metric(
        "pdm.blocks_written_per_op",
        layers::ratio(io.blocks_written.load(Ordering::Relaxed), ops),
    );
    report.metric("pdm.executor_hit_ratio", io.executor_hit_ratio());
    report.metric("dict.call_us", call_us);
    report.metric("dict.ops_per_call", 1.0);
    report.metric("dict.lookup_ios", layers::ratio(ph.lookup_ios, ph.lookups));
    report.metric("dict.update_ios", layers::ratio(ph.update_ios, ph.updates));
    report.metric(
        "dict.space_words_per_key",
        s.dict.live_space_words() as f64 / s.dict.len() as f64,
    );
    report.metric("dict.rebuilds", ph.rebuilds as f64);
    report.metric(
        "dict.migrated_keys_per_update",
        layers::ratio(migrated, ph.updates),
    );
    report.metric("wire.codec_ns", codec_ns);
    report.metric("wire.bytes_per_op", wire_bytes);
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
