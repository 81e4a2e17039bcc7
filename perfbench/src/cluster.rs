//! `cluster-rw`: an open loop at a fixed rate through `ClusterRouter`
//! into two in-process `ClusterNode`s on loopback, with every shard
//! replicated on both nodes and writes acknowledged by both. Router
//! fan-out, wire framing, the nodes' serve loops and the uncached engine
//! do the work.
//!
//! One caller thread preloads and drives the run, so the router reuses
//! the one idle connection it parks per node.

use crate::layers::{self, now_ns};
use crate::measure::{self, Latencies, Pacer, Samples, WINDOWS_PER_S};
use crate::model::{satellite, KeySet, KeySpace, Rng};
use crate::report::Report;
use crate::{Args, SETUPS};
use pdm_cluster::{
    ClusterConfig, ClusterError, ClusterMap, ClusterNode, ClusterRouter, NodeConfig, RouterConfig,
    RouterStats,
};
use pdm_server::protocol::{WireRequest, WireResponse};
use pdm_server::{Op, Reply, TcpClient};
use std::time::{Duration, Instant};

const NODES: usize = 2;
const SHARDS: u32 = 8;
const UNIVERSE_BITS: u32 = 21;
const SAT_WORDS: usize = 1;
const PRELOAD: usize = 4_000;
/// Offered load.
const RATE: u64 = 2_000;
/// Keys each traced run writes straight to the nodes to time one hop.
const HOP_WRITES: usize = 200;
const HOP_LOOKUPS: usize = 1_000;
const CODEC_OPS: usize = 4_096;
const SWEEP_ABSENT: u64 = 2_000;

/// Cluster shards are fixed-capacity `DynamicDict`s that never rebuild,
/// and every insert uses capacity whether or not its key is later
/// deleted: size each shard for its share of all the run's inserts, with
/// headroom for uneven shares.
fn cluster_config(seconds: u64) -> ClusterConfig {
    let inserts = PRELOAD as u64 + RATE * seconds / 4 + HOP_WRITES as u64;
    ClusterConfig {
        shards: SHARDS,
        replication: NODES,
        choices: NODES,
        seed: 0xC1_5EED,
        shard_capacity: (inserts / u64::from(SHARDS)) as usize * 3 / 2 + 128,
        universe: 1 << UNIVERSE_BITS,
        sigma: SAT_WORDS,
        journal_rows: 2,
    }
}

struct Setup {
    nodes: Vec<ClusterNode>,
    router: ClusterRouter,
    map: ClusterMap,
    model: KeySet,
    keys: KeySpace,
    seconds: f64,
}

fn setup(args: &Args, seconds: u64) -> Setup {
    let t = Instant::now();
    let cfg = cluster_config(seconds);
    let weights = [1u32; NODES];
    let map = ClusterMap::build(cfg, &weights);
    let nodes: Vec<ClusterNode> = (0..NODES)
        .map(|n| {
            ClusterNode::start("127.0.0.1:0", cfg, &map.shards_on(n), NodeConfig::default())
                .expect("node starts on loopback")
        })
        .collect();
    let addrs: Vec<_> = nodes.iter().map(ClusterNode::local_addr).collect();
    let router = ClusterRouter::new(
        cfg,
        &addrs,
        &weights,
        RouterConfig {
            write_quorum: NODES,
            ..RouterConfig::default()
        },
    );
    let mut keys = KeySpace::new(UNIVERSE_BITS, args.seed);
    let mut model = KeySet::default();
    for _ in 0..PRELOAD {
        let k = keys.fresh();
        let r = router.insert(k, &satellite(k, SAT_WORDS));
        assert!(r.is_ok(), "preload insert of {k} failed: {r:?}");
        model.insert(k);
    }
    Setup {
        nodes,
        router,
        map,
        model,
        keys,
        seconds: t.elapsed().as_secs_f64(),
    }
}

impl Setup {
    fn ports(&self) -> Vec<u16> {
        self.nodes.iter().map(|n| n.local_addr().port()).collect()
    }

    /// Drop the router's connections, then stop the nodes.
    fn shutdown(self) {
        drop(self.router);
        for node in self.nodes {
            node.shutdown();
        }
    }
}

#[derive(Default)]
struct Phase {
    lat: Latencies,
    /// Time from send to answer, without the wait for the due time.
    lookup_service: Samples,
    insert_service: Samples,
    delete_service: Samples,
    ops: u64,
    elapsed_s: f64,
    late: Samples,
    steal_ms: f64,
    stats: RouterStats,
    log: Vec<(u32, Op, Reply)>,
}

fn cluster_kind(e: &ClusterError) -> String {
    format!("{e:?}")
        .split(['(', ' ', '{'])
        .next()
        .unwrap_or("?")
        .to_string()
}

/// The open loop: 50% lookups of present keys, 25% inserts of fresh keys
/// and 25% deletes of present keys, `RATE` per second for `seconds`.
fn measure(s: &mut Setup, args: &Args, seconds: u64, report: &mut Report) -> Phase {
    let mut rng = Rng::new(args.seed ^ 0xC1_2EC7);
    let mut ph = Phase::default();
    let steal0 = measure::steal_ms();
    let mut pacer = Pacer::new(RATE);
    let since = |a: u64, b: u64| Duration::from_nanos(b.saturating_sub(a));
    for i in 0..RATE * seconds {
        let w = (i / (RATE / WINDOWS_PER_S)) as usize;
        if i % (RATE / WINDOWS_PER_S) == 0 {
            ph.lat.begin(w);
        }
        let dice = rng.below(4);
        let due = layers::ns_at(pacer.wait_due(i));
        let sent = now_ns();
        let (op, reply) = match dice {
            0 | 1 => {
                let key = s.model.choose(&mut rng);
                report.attempt("lookup");
                let r = s.router.lookup(key);
                let done = now_ns();
                ph.lat.at(w).lookup.push(since(due, done));
                ph.lookup_service.push(since(sent, done));
                match r {
                    Ok(got) => {
                        let want = satellite(key, SAT_WORDS);
                        report.check(got.as_deref() == Some(&want[..]), || {
                            format!("lookup({key}) = {got:?}, model has {want:?}")
                        });
                        (Op::Lookup(key), Reply::Lookup(got))
                    }
                    Err(e) => {
                        report.fail("lookup", &cluster_kind(&e));
                        continue;
                    }
                }
            }
            2 => {
                let key = s.keys.fresh();
                let sat = satellite(key, SAT_WORDS);
                report.attempt("insert");
                let r = s.router.insert(key, &sat);
                let done = now_ns();
                ph.lat.at(w).insert.push(since(due, done));
                ph.insert_service.push(since(sent, done));
                if let Err(e) = r {
                    report.fail("insert", &cluster_kind(&e));
                    continue;
                }
                s.model.insert(key);
                (Op::Insert(key, sat), Reply::Inserted)
            }
            _ => {
                let key = s.model.choose(&mut rng);
                report.attempt("delete");
                let r = s.router.delete(key);
                let done = now_ns();
                ph.lat.at(w).delete.push(since(due, done));
                ph.delete_service.push(since(sent, done));
                match r {
                    Ok(was) => {
                        report.check(was, || format!("delete({key}) found it absent"));
                        s.model.remove(key);
                        (Op::Delete(key), Reply::Deleted(was))
                    }
                    Err(e) => {
                        report.fail("delete", &cluster_kind(&e));
                        continue;
                    }
                }
            }
        };
        ph.ops += 1;
        if ph.log.len() < CODEC_OPS {
            ph.log.push((s.map.config().shard_of(op.key()), op, reply));
        }
    }
    ph.lat.end();
    ph.elapsed_s = pacer.elapsed_s();
    ph.late = std::mem::take(&mut pacer.late);
    ph.steal_ms = measure::steal_since(steal0);
    ph.stats = s.router.stats();
    ph
}

/// Read back every key the model holds and a sample of absent keys, and
/// check that the run needed no retry or failover.
fn sweep(s: &Setup, seed: u64, report: &mut Report) {
    for &key in s.model.keys() {
        let got = s.router.lookup(key);
        let want = satellite(key, SAT_WORDS);
        report.check(matches!(&got, Ok(Some(v)) if *v == want), || {
            format!("final sweep: lookup({key}) = {got:?}, model has {want:?}")
        });
    }
    let mut rng = Rng::new(seed ^ 0x5EE9);
    for _ in 0..SWEEP_ABSENT {
        let key = s.keys.absent(rng.next_u64());
        let got = s.router.lookup(key);
        report.check(matches!(got, Ok(None)), || {
            format!("final sweep: absent {key} read {got:?}")
        });
    }
    let st = s.router.stats();
    report.check(st.transport_failures == 0, || {
        format!("{} transport failures", st.transport_failures)
    });
    report.check(st.reads_failover == 0, || {
        format!("{} reads failed over", st.reads_failover)
    });
}

/// Every count of the run that does not depend on timing.
fn counts(ph: &Phase) -> [u64; 5] {
    let st = &ph.stats;
    [
        st.writes_acked,
        st.writes_refused,
        st.reads_primary,
        st.reads_failover,
        st.transport_failures,
    ]
}

fn print_phase(name: &str, ph: &mut Phase) {
    ph.lat.print(name);

    let st = &ph.stats;
    println!(
        "{name} router: writes_acked={} writes_refused={} reads_primary={} reads_failover={} \
         transport_failures={} ops_per_s={:.1} late_p90={:.2}us late_max={:.2}us steal_ms={:.0}",
        st.writes_acked,
        st.writes_refused,
        st.reads_primary,
        st.reads_failover,
        st.transport_failures,
        ph.ops as f64 / ph.elapsed_s,
        ph.late.percentile_us(0.9),
        ph.late.max_us(),
        ph.steal_ms
    );
}

/// One `ShardOp` sent straight to `node`, timed.
fn hop(client: &mut TcpClient, s: &Setup, op: Op) -> (Duration, WireResponse) {
    let req = WireRequest::ShardOp {
        shard: s.map.config().shard_of(op.key()),
        epoch: s.router.epoch(),
        op,
    };
    let t = Instant::now();
    let resp = client.request(&req).expect("direct hop answered");
    (t.elapsed(), resp)
}

/// Median time of one hop for lookups, inserts and deletes, sent straight
/// to the nodes with `TcpClient`. The writes insert fresh keys on both
/// replicas and delete them again, so the model is unchanged.
fn hops(s: &mut Setup, report: &mut Report) -> [f64; 3] {
    let mut clients: Vec<TcpClient> = s
        .nodes
        .iter()
        .map(|n| TcpClient::connect(n.local_addr()).expect("connect to node"))
        .collect();
    let mut lookups = Samples::default();
    let keys: Vec<u64> = s.model.keys().iter().take(HOP_LOOKUPS).copied().collect();
    for key in keys {
        let primary = s.map.primary(s.map.config().shard_of(key));
        let (d, resp) = hop(&mut clients[primary], s, Op::Lookup(key));
        lookups.push(d);
        let want = WireResponse::Reply(Reply::Lookup(Some(satellite(key, SAT_WORDS))));
        report.check(resp == want, || {
            format!("hop lookup({key}) answered {resp:?}")
        });
    }
    let mut writes = [Samples::default(), Samples::default()];
    let fresh: Vec<u64> = (0..HOP_WRITES).map(|_| s.keys.fresh()).collect();
    for insert in [true, false] {
        for &key in &fresh {
            for client in &mut clients {
                let (op, want) = if insert {
                    (Op::Insert(key, satellite(key, SAT_WORDS)), Reply::Inserted)
                } else {
                    (Op::Delete(key), Reply::Deleted(true))
                };
                let (d, resp) = hop(client, s, op);
                writes[usize::from(!insert)].push(d);
                report.check(resp == WireResponse::Reply(want.clone()), || {
                    format!("hop write of {key} answered {resp:?}, expected {want:?}")
                });
            }
        }
    }
    [
        lookups.percentile_us(0.5),
        writes[0].percentile_us(0.5),
        writes[1].percentile_us(0.5),
    ]
}

fn plain(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut setup_secs = Vec::new();
    for _ in 0..SETUPS {
        let s = setup(args, args.seconds);
        setup_secs.push(s.seconds);
        // Keep only the last cluster running: each holds two nodes.
        if let Some(prev) = setups.pop() {
            Setup::shutdown(prev);
        }
        setups.push(s);
    }
    let mut s = setups.pop().expect("at least one set-up");
    let mut ph = measure(&mut s, args, args.seconds, report);
    sweep(&s, args.seed, report);
    s.shutdown();
    report.check_no_failures();
    print_phase("measured", &mut ph);
    report.metric("setup_s", measure::median(&setup_secs));
    report.metric("ops_per_s", ph.ops as f64 / ph.elapsed_s);
    ph.lat.report(report);
}

fn traced(args: &Args, report: &mut Report) {
    let seconds = args.phase_seconds();
    let mut s = setup(args, seconds);
    let mut reference = measure(&mut s, args, seconds, report);
    sweep(&s, args.seed, report);
    s.shutdown();
    print_phase("untraced", &mut reference);

    let mut s = setup(args, seconds);
    let mut ph = measure(&mut s, args, seconds, report);
    sweep(&s, args.seed, report);
    let [hop_lookup, hop_insert, hop_delete] = hops(&mut s, report);
    let lookup_keys = s.model.keys().to_vec();
    let ports = s.ports();
    let stats = s.router.stats();
    s.shutdown();
    let sockets = measure::sockets_on_ports(&ports).unwrap_or(0);
    report.check_no_failures();
    print_phase("traced", &mut ph);
    println!(
        "traced hops: lookup p50={hop_lookup:.2}us insert p50={hop_insert:.2}us \
         delete p50={hop_delete:.2}us; \
         sockets left on node ports after shutdown: {sockets}"
    );
    report.check(counts(&ph) == counts(&reference), || {
        format!(
            "traced and untraced runs disagree on deterministic counts: {:?} vs {:?}",
            counts(&ph),
            counts(&reference)
        )
    });

    let cfg = cluster_config(seconds);
    let stripe = (cfg.shard_params(0).right_slack * cfg.shard_capacity as f64).ceil() as usize;
    let (codec_ns, wire_bytes) = layers::codec_cost(&ph.log);
    let p50_plain = reference.lat.lookup_p50_us();
    let p50_traced = ph.lat.lookup_p50_us();
    report.metric(
        "expander.neighbors_ns",
        layers::neighbors_ns(&lookup_keys, 1 << UNIVERSE_BITS, stripe, 20),
    );
    report.metric(
        "pdm.read_round_us",
        layers::read_round_us(40, 64, 20, args.seed),
    );
    report.metric("wire.codec_ns", codec_ns);
    report.metric("wire.bytes_per_op", wire_bytes);
    // A quorum write is one hop to each replica, one after the other.
    let replicas = NODES as f64;
    let write_overhead = (ph.insert_service.percentile_us(0.5) - replicas * hop_insert
        + ph.delete_service.percentile_us(0.5)
        - replicas * hop_delete)
        / 2.0;
    report.metric("cluster.hop_us", hop_lookup);
    report.metric(
        "cluster.router_lookup_overhead_us",
        ph.lookup_service.percentile_us(0.5) - hop_lookup,
    );
    report.metric("cluster.router_write_overhead_us", write_overhead);
    report.metric("cluster.connections_opened", sockets as f64);
    report.metric(
        "cluster.transport_failures",
        stats.transport_failures as f64,
    );
    report.metric("cluster.reads_failover", stats.reads_failover as f64);
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
