//! Per-layer measurement from outside the program: wrappers on the
//! public seams (a timing `StorageBackend`, a timing `Dict`, an
//! `IoEventSink`) and probes that time one layer's public functions.
//! Every wrapper forwards every trait method to the wrapped value, so a
//! traced run executes the same program with clocks around it.

use pdm::metrics::{IoEvent, IoEventSink};
use pdm::{
    BlockAddr, CompletionSet, DiskArray, FlushTicket, IoSubmission, MemBackend, OpCost, PdmConfig,
    ReadOptions, ScrubReport, StorageBackend, Word,
};
use pdm_dict::{Dict, DictError, LookupOutcome};
use pdm_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, WireRequest, WireResponse,
};
use pdm_server::{Op, Reply};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one clock shared by
/// the harness thread and the engine's worker threads.
#[must_use]
pub fn now_ns() -> u64 {
    ns_at(Instant::now())
}

/// `t` on the clock of [`now_ns`].
#[must_use]
pub fn ns_at(t: Instant) -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = *BASE.get_or_init(Instant::now);
    u64::try_from(t.saturating_duration_since(base).as_nanos()).unwrap_or(u64::MAX)
}

fn add(cell: &AtomicU64, v: u64) {
    cell.fetch_add(v, Ordering::Relaxed);
}

fn get(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

/// Busy time of a storage backend.
#[derive(Debug, Default)]
pub struct BackendClock {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl BackendClock {
    #[must_use]
    pub fn calls(&self) -> u64 {
        get(&self.calls)
    }

    #[must_use]
    pub fn ns(&self) -> u64 {
        get(&self.ns)
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        add(
            &self.ns,
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        add(&self.calls, 1);
        out
    }
}

/// An in-memory backend whose I/O submissions are timed.
#[derive(Debug)]
pub struct TimedBackend {
    inner: MemBackend,
    clock: Arc<BackendClock>,
}

impl TimedBackend {
    #[must_use]
    pub fn new(inner: MemBackend, clock: Arc<BackendClock>) -> Self {
        TimedBackend { inner, clock }
    }
}

impl StorageBackend for TimedBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn disks(&self) -> usize {
        self.inner.disks()
    }
    fn block_words(&self) -> usize {
        self.inner.block_words()
    }
    fn blocks_on(&self, disk: usize) -> usize {
        self.inner.blocks_on(disk)
    }
    fn grow(&mut self, blocks_per_disk: usize) {
        self.inner.grow(blocks_per_disk);
    }
    fn submit(&mut self, batch: IoSubmission<'_>) -> CompletionSet {
        let inner = &mut self.inner;
        self.clock.time(|| inner.submit(batch))
    }
    fn submit_reads(&self, reads: &[BlockAddr]) -> CompletionSet {
        self.clock.time(|| self.inner.submit_reads(reads))
    }
    fn peek(&self, addr: BlockAddr) -> Vec<Word> {
        self.inner.peek(addr)
    }
    fn poke(&mut self, addr: BlockAddr, data: &[Word]) {
        self.inner.poke(addr, data);
    }
    fn snapshot(&self) -> Vec<Vec<Box<[Word]>>> {
        self.inner.snapshot()
    }
    fn sync(&mut self) {
        self.inner.sync();
    }
    fn flush_begin(&mut self) -> FlushTicket {
        self.inner.flush_begin()
    }
    fn flush_join(&mut self, ticket: FlushTicket) {
        self.inner.flush_join(ticket);
    }
}

/// Counts of the disk array's I/O events.
#[derive(Debug, Default)]
pub struct IoCounts {
    pub blocks_read: AtomicU64,
    pub blocks_written: AtomicU64,
    pub executor_hits: AtomicU64,
    pub executor_misses: AtomicU64,
}

impl IoEventSink for IoCounts {
    fn on_io(&self, event: IoEvent<'_>) {
        match event {
            IoEvent::BatchRead { blocks, .. } => add(&self.blocks_read, blocks),
            IoEvent::BatchWrite { blocks, .. } => add(&self.blocks_written, blocks),
            IoEvent::CacheHit { blocks } => add(&self.executor_hits, blocks),
            IoEvent::CacheMiss { blocks } => add(&self.executor_misses, blocks),
            _ => {}
        }
    }
}

impl IoCounts {
    #[must_use]
    pub fn executor_hit_ratio(&self) -> f64 {
        let (h, m) = (get(&self.executor_hits), get(&self.executor_misses));
        ratio(h, h + m)
    }
}

/// `num / den`, 0 when `den` is 0.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What the timing `Dict` wrapper saw.
#[derive(Debug, Default)]
pub struct DictClock {
    pub calls: AtomicU64,
    pub ops: AtomicU64,
    pub busy_ns: AtomicU64,
    /// Backend time spent inside those calls.
    pub backend_ns: AtomicU64,
    pub lookups: AtomicU64,
    pub lookup_ios: AtomicU64,
    pub updates: AtomicU64,
    pub update_ios: AtomicU64,
    /// Start and end (see [`now_ns`]) of the latest call. Read by the
    /// caller after its reply arrived: the engine's reply slot orders the
    /// worker's stores before that read.
    pub last_start: AtomicU64,
    pub last_end: AtomicU64,
}

/// A `Dict` whose calls are timed, with the backend time inside them
/// split out.
pub struct TimedDict {
    inner: Box<dyn Dict + Send>,
    clock: Arc<DictClock>,
    backend: Arc<BackendClock>,
}

impl TimedDict {
    #[must_use]
    pub fn new(
        inner: Box<dyn Dict + Send>,
        clock: Arc<DictClock>,
        backend: Arc<BackendClock>,
    ) -> Self {
        TimedDict {
            inner,
            clock,
            backend,
        }
    }

    fn timed<T>(
        &mut self,
        ops: u64,
        f: impl FnOnce(&mut dyn Dict) -> T,
        cost: impl FnOnce(&T) -> (bool, u64),
    ) -> T {
        let backend_before = self.backend.ns();
        let start = now_ns();
        let out = f(self.inner.as_mut());
        let end = now_ns();
        let c = &self.clock;
        add(&c.calls, 1);
        add(&c.ops, ops);
        add(&c.busy_ns, end - start);
        add(&c.backend_ns, self.backend.ns() - backend_before);
        let (is_lookup, ios) = cost(&out);
        if is_lookup {
            add(&c.lookups, ops);
            add(&c.lookup_ios, ios);
        } else {
            add(&c.updates, ops);
            add(&c.update_ios, ios);
        }
        c.last_start.store(start, Ordering::Relaxed);
        c.last_end.store(end, Ordering::Relaxed);
        out
    }
}

impl Dict for TimedDict {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn lookup(&mut self, key: u64) -> LookupOutcome {
        self.timed(1, |d| d.lookup(key), |o| (true, o.cost.parallel_ios))
    }
    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
        self.timed(
            1,
            |d| d.insert(key, satellite),
            |r| (false, r.as_ref().map_or(0, |c| c.parallel_ios)),
        )
    }
    fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError> {
        self.timed(
            1,
            |d| d.delete(key),
            |r| (false, r.as_ref().map_or(0, |(_, c)| c.parallel_ios)),
        )
    }
    fn lookup_batch(&mut self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, OpCost) {
        self.timed(
            keys.len() as u64,
            |d| d.lookup_batch(keys),
            |(_, c)| (true, c.parallel_ios),
        )
    }
    fn insert_batch(
        &mut self,
        entries: &[(u64, Vec<Word>)],
    ) -> (Vec<Result<(), DictError>>, OpCost) {
        self.timed(
            entries.len() as u64,
            |d| d.insert_batch(entries),
            |(_, c)| (false, c.parallel_ios),
        )
    }
    fn set_metrics(&mut self, registry: Option<Arc<pdm::MetricsRegistry>>) {
        self.inner.set_metrics(registry);
    }
    fn refresh_gauges(&mut self) {
        self.inner.refresh_gauges();
    }
    fn disks(&self) -> Option<&DiskArray> {
        self.inner.disks()
    }
    fn disks_mut(&mut self) -> Option<&mut DiskArray> {
        self.inner.disks_mut()
    }
    fn recover(&mut self) -> pdm::RecoveryReport {
        self.inner.recover()
    }
    fn checkpoint(&mut self) -> bool {
        self.inner.checkpoint()
    }
    fn scrub(&mut self) -> ScrubReport {
        self.inner.scrub()
    }
}

/// Mean time of one key's `d` neighbours with the default hash family,
/// over `keys`, in nanoseconds.
#[must_use]
pub fn neighbors_ns(keys: &[u64], universe: u64, stripe: usize, degree: usize) -> f64 {
    use expander::{FamilyKind, NeighborFamily, NeighborFn};
    let graph = FamilyKind::default().build(universe, stripe, degree, 0x7E1A_7E5E);
    let keys = &keys[..keys.len().min(8192)];
    let mut n = 0u64;
    let t = Instant::now();
    while n < 200_000 {
        for &k in keys {
            black_box(graph.neighbors(black_box(k)));
        }
        n += keys.len() as u64;
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Mean time of one `DiskArray::read` of one block on each of `degree`
/// disks, on an in-memory array of `disks` disks and `block_words`-word
/// blocks, in microseconds.
#[must_use]
pub fn read_round_us(disks: usize, block_words: usize, degree: usize, seed: u64) -> f64 {
    const BLOCKS: usize = 1024;
    const ROUNDS: usize = 20_000;
    let mut array = DiskArray::new(PdmConfig::new(disks, block_words), BLOCKS);
    let mut rng = crate::model::Rng::new(seed);
    let rounds: Vec<Vec<BlockAddr>> = (0..256)
        .map(|_| {
            (0..degree)
                .map(|d| BlockAddr::new(d, rng.below(BLOCKS as u64) as usize))
                .collect()
        })
        .collect();
    let t = Instant::now();
    for i in 0..ROUNDS {
        black_box(array.read(&rounds[i % rounds.len()], ReadOptions::verified()));
    }
    t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
}

/// Mean time to encode and decode each request and response of `ops`
/// as cluster wire frames (ns), and their mean size (bytes per op).
#[must_use]
pub fn codec_cost(ops: &[(u32, Op, Reply)]) -> (f64, f64) {
    if ops.is_empty() {
        return (0.0, 0.0);
    }
    let frames: Vec<(WireRequest, WireResponse)> = ops
        .iter()
        .map(|(shard, op, reply)| {
            (
                WireRequest::ShardOp {
                    shard: *shard,
                    epoch: 0,
                    op: op.clone(),
                },
                WireResponse::Reply(reply.clone()),
            )
        })
        .collect();
    let mut bytes = 0usize;
    let mut n = 0u64;
    let t = Instant::now();
    while n < 100_000 {
        for (req, resp) in &frames {
            let a = encode_request(black_box(req));
            let b = encode_response(black_box(resp));
            bytes += a.len() + b.len();
            black_box(decode_request(&a).expect("request round-trips"));
            black_box(decode_response(&b).expect("response round-trips"));
        }
        n += frames.len() as u64;
    }
    (
        t.elapsed().as_nanos() as f64 / n as f64,
        bytes as f64 / n as f64,
    )
}
