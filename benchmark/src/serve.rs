//! Driving a real `thor serve` child process over TCP: spawn and
//! health-wait, sequential (unloaded) round trips, an open-loop
//! generator with hot swaps, and a saturating closed loop.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use thor_core::slotfill::slot_fill;
use thor_core::{entities_tsv, Document, PreparedEngine};
use thor_eval::Annotation;
use thor_obs::Json;

use crate::http::{encode_request, read_reply, roundtrip, Reply, ReplyParser};
use crate::pipeline::by_doc;
use crate::sys::{signal, SIGHUP, SIGTERM};

/// Endpoints, indexed as in [`Fixture`]'s tables.
pub const EXTRACT: usize = 0;
pub const ENRICH: usize = 1;
const PATHS: [&str; 2] = ["/extract", "/enrich"];

/// A request still unanswered this long after it was due has failed.
pub const TIMEOUT_MS: f64 = 2_000.0;
/// Longest wait for a spawned server's first healthy `/healthz`.
const SPAWN_LIMIT: Duration = Duration::from_secs(30);
/// Longest wait for a swapped engine to answer.
const SWAP_LIMIT: Duration = Duration::from_secs(5);

/// Endpoint of the `k`-th request of a schedule: 3 × `/extract` to
/// 1 × `/enrich`.
pub fn endpoint_of(k: usize) -> usize {
    if k % 4 == 3 {
        ENRICH
    } else {
        EXTRACT
    }
}

type Digest = (usize, u64);

fn digest(bytes: &[u8]) -> Digest {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    (bytes.len(), h.finish())
}

/// Request bytes and expected response digests for a document sample,
/// per engine generation.
pub struct Fixture {
    pub docs: Vec<Document>,
    /// `[endpoint][doc]` request bytes.
    requests: [Vec<Vec<u8>>; 2],
    /// Engine fingerprints, indexed like `expected`.
    fingerprints: Vec<String>,
    /// `[engine][endpoint][doc]` digests of the batch outputs.
    expected: Vec<[Vec<Digest>; 2]>,
    /// Artifacts the live path alternates between.
    pub artifacts: [PathBuf; 2],
    /// The path the server serves from.
    pub live: PathBuf,
}

impl Fixture {
    /// Precompute, for every engine, the bytes `/extract` and `/enrich`
    /// must answer for each single-document request: the batch
    /// extraction of the whole sample, split per document, and the
    /// engine's table slot-filled with that document's entities.
    pub fn new(
        docs: Vec<Document>,
        engines: [&PreparedEngine; 2],
        artifacts: [PathBuf; 2],
        live: PathBuf,
    ) -> Fixture {
        let requests = [EXTRACT, ENRICH].map(|e| {
            docs.iter()
                .map(|d| encode_request("POST", PATHS[e], &request_body(d)))
                .collect()
        });
        let mut expected = Vec::new();
        for engine in engines {
            let (entities, _) = engine.extract(&docs);
            let groups = by_doc(&entities);
            let (mut tsv, mut csv) = (Vec::new(), Vec::new());
            for d in &docs {
                let ents = groups.get(d.id.as_str()).map_or(&[][..], Vec::as_slice);
                tsv.push(digest(entities_tsv(ents).as_bytes()));
                let mut table = engine.table().clone();
                slot_fill(&mut table, ents);
                csv.push(digest(thor_data::to_csv(&table).as_bytes()));
            }
            expected.push([tsv, csv]);
        }
        Fixture {
            docs,
            requests,
            fingerprints: engines.map(|e| e.fingerprint().to_string()).to_vec(),
            expected,
            artifacts,
            live,
        }
    }

    pub fn request(&self, endpoint: usize, doc: usize) -> &[u8] {
        &self.requests[endpoint][doc]
    }

    /// Check one response against the batch output of the generation
    /// its `X-Thor-Engine` header names.
    pub fn verify(&self, endpoint: usize, doc: usize, reply: &Reply) -> Outcome {
        match reply.status {
            200 => {}
            429 => return Outcome::Refused,
            s => return Outcome::Status(s),
        }
        let Some((fp, _)) = reply.engine_tag() else {
            return Outcome::Wrong("no X-Thor-Engine header".into());
        };
        let Some(engine) = self.fingerprints.iter().position(|f| f == fp) else {
            return Outcome::Wrong(format!("unknown engine fingerprint {fp}"));
        };
        if digest(&reply.body) == self.expected[engine][endpoint][doc] {
            Outcome::Ok
        } else {
            Outcome::Wrong(format!(
                "{} of doc {} on engine {engine}: {} bytes differ from the batch output",
                PATHS[endpoint],
                self.docs[doc].id,
                reply.body.len()
            ))
        }
    }
}

fn request_body(doc: &Document) -> Vec<u8> {
    let d = Json::Object(BTreeMap::from([
        ("id".to_string(), Json::Str(doc.id.clone())),
        ("text".to_string(), Json::Str(doc.text.clone())),
    ]));
    Json::Object(BTreeMap::from([(
        "documents".to_string(),
        Json::Array(vec![d]),
    )]))
    .render()
    .into_bytes()
}

/// Annotations of an `/extract` TSV body.
pub fn tsv_annotations(body: &[u8]) -> Vec<Annotation> {
    String::from_utf8_lossy(body)
        .lines()
        .filter_map(|l| {
            let mut f = l.split('\t');
            Some(Annotation::new(f.next()?, f.next()?, f.next()?))
        })
        .collect()
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// 429: the admission queue was full.
    Refused,
    /// Answered later than [`TIMEOUT_MS`] after it was due, or never.
    Timeout,
    /// The connection failed or was closed under the request.
    Connection,
    /// A non-200, non-429 status.
    Status(u16),
    /// 200 with bytes that differ from the batch output.
    Wrong(String),
}

/// A `thor serve` child process.
pub struct ServerProcess {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl ServerProcess {
    /// Spawn `thor serve` on `engine` and wait for its first healthy
    /// `/healthz`; returns the server and the time that took.
    pub fn spawn(thor: &Path, engine: &Path, work: &Path) -> Result<(ServerProcess, f64), String> {
        let addr_file = work.join("serve.addr");
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(work.join("serve.log"))
            .map_err(|e| format!("serve log: {e}"))?;
        let log2 = log.try_clone().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(thor)
            .arg("serve")
            .arg("--engine")
            .arg(engine)
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log2)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", thor.display()))?;
        let mut server = ServerProcess {
            pid: child.id(),
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let health = encode_request("GET", "/healthz", b"");
        loop {
            if t0.elapsed() > SPAWN_LIMIT {
                return Err("thor serve did not become healthy".into());
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("thor serve exited early: {status}"));
            }
            let addr = std::fs::read_to_string(&addr_file)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok());
            if let Some(addr) = addr {
                server.addr = addr;
                if roundtrip(addr, &health, Duration::from_secs(2)).is_ok_and(|r| r.status == 200) {
                    return Ok((server, t0.elapsed().as_secs_f64()));
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Drain with SIGTERM and wait; a server that does not exit within
    /// ten seconds is killed and reported. The child is reaped on every
    /// path.
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("child present until stop");
        let drained = signal(self.pid, SIGTERM).and_then(|()| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_secs(10) {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => return Ok(()),
                    Ok(Some(status)) => return Err(format!("thor serve exited with {status}")),
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(e) => return Err(e.to_string()),
                }
            }
            Err("thor serve did not drain within 10 s".into())
        });
        if drained.is_err() {
            let _ = child.kill();
        }
        let _ = child.wait();
        drained
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One request's record.
#[derive(Debug, Clone)]
pub struct Record {
    pub k: usize,
    pub endpoint: usize,
    /// Nanoseconds from the phase start.
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// Swaps issued before the request was sent.
    pub window: usize,
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the due time; a failed request counts as
    /// [`TIMEOUT_MS`], so it misses any latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.outcome == Outcome::Ok {
            (self.done_ns - self.due_ns) as f64 / 1e6
        } else {
            TIMEOUT_MS
        }
    }

    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Per-document round-trip times (ms), and each response's outcome and
/// body.
pub type RoundTrips = (Vec<f64>, Vec<(Outcome, Vec<u8>)>);

/// Sequential round trips on one keep-alive connection, one per sample
/// document: the unloaded latency of `endpoint`.
pub fn unloaded(addr: SocketAddr, fx: &Fixture, endpoint: usize) -> Result<RoundTrips, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_millis(TIMEOUT_MS as u64)))
        .map_err(|e| e.to_string())?;
    let mut parser = ReplyParser::default();
    let mut rts = Vec::with_capacity(fx.docs.len());
    let mut outs = Vec::with_capacity(fx.docs.len());
    for doc in 0..fx.docs.len() {
        let t = Instant::now();
        stream
            .write_all(fx.request(endpoint, doc))
            .map_err(|e| e.to_string())?;
        let reply = read_reply(&mut stream, &mut parser)?;
        rts.push(t.elapsed().as_secs_f64() * 1e3);
        outs.push((fx.verify(endpoint, doc, &reply), reply.body));
    }
    Ok((rts, outs))
}

/// Alternates the live artifact between the two generations by atomic
/// rename + SIGHUP, and times each swap to the first response carrying
/// the new epoch.
pub struct Swapper<'a> {
    fx: &'a Fixture,
    pid: u32,
    every_ns: u64,
    issued: AtomicUsize,
    state: Mutex<SwapState>,
}

struct SwapState {
    /// Index into `fx.artifacts` the live path holds.
    serving: usize,
    /// Newest epoch seen in a response.
    epoch: u64,
    /// `(epoch awaited, issue time)` of the swap in flight.
    pending: Option<(u64, Instant)>,
    next: Option<Instant>,
    samples_ms: Vec<f64>,
    issued_at: Vec<Instant>,
    failed: u64,
}

impl<'a> Swapper<'a> {
    pub fn new(fx: &'a Fixture, pid: u32, every: Duration, epoch: u64) -> Swapper<'a> {
        Swapper {
            fx,
            pid,
            every_ns: every.as_nanos() as u64,
            issued: AtomicUsize::new(0),
            state: Mutex::new(SwapState {
                serving: 0,
                epoch,
                pending: None,
                next: None,
                samples_ms: Vec::new(),
                issued_at: Vec::new(),
                failed: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SwapState> {
        self.state
            .lock()
            .expect("swap state poisoned by a panicked generator")
    }

    pub fn issued(&self) -> usize {
        self.issued.load(Ordering::SeqCst)
    }

    /// Start swapping now, one swap every `every`.
    pub fn arm(&self) {
        let mut s = self.lock();
        s.next = Some(Instant::now() + Duration::from_nanos(self.every_ns));
    }

    /// Stop issuing swaps (one in flight still completes).
    pub fn disarm(&self) {
        self.lock().next = None;
    }

    /// When the swapper next needs the generator's attention.
    pub fn next_event(&self) -> Option<Instant> {
        let s = self.lock();
        match s.pending {
            Some((_, t)) => Some(t + SWAP_LIMIT),
            None => s.next,
        }
    }

    /// Issue a swap if one is due; expire one that never showed.
    pub fn tick(&self) -> Result<(), String> {
        let mut s = self.lock();
        let now = Instant::now();
        if let Some((_, t)) = s.pending {
            if now.duration_since(t) > SWAP_LIMIT {
                s.failed += 1;
                s.pending = None;
                s.next = None;
            }
            return Ok(());
        }
        let Some(next) = s.next else { return Ok(()) };
        if now < next {
            return Ok(());
        }
        let target = 1 - s.serving;
        let staged = self.fx.live.with_extension("staged");
        let _ = std::fs::remove_file(&staged);
        std::fs::hard_link(&self.fx.artifacts[target], &staged)
            .map_err(|e| format!("stage artifact: {e}"))?;
        let t = Instant::now();
        std::fs::rename(&staged, &self.fx.live).map_err(|e| format!("rename artifact: {e}"))?;
        signal(self.pid, SIGHUP)?;
        s.serving = target;
        s.pending = Some((s.epoch + 1, t));
        s.issued_at.push(t);
        s.next = Some(t + Duration::from_nanos(self.every_ns));
        self.issued.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Note a response's epoch.
    pub fn observe(&self, reply: &Reply, at: Instant) {
        let Some((_, epoch)) = reply.engine_tag() else {
            return;
        };
        let mut s = self.lock();
        if let Some((want, t)) = s.pending {
            if epoch >= want {
                s.samples_ms.push(at.duration_since(t).as_secs_f64() * 1e3);
                s.pending = None;
            }
        }
        s.epoch = s.epoch.max(epoch);
    }

    /// Swap times (ms) and swaps that never showed.
    pub fn results(&self) -> (Vec<f64>, u64) {
        let s = self.lock();
        (s.samples_ms.clone(), s.failed)
    }

    /// When each swap was issued.
    pub fn issued_at(&self) -> Vec<Instant> {
        self.lock().issued_at.clone()
    }
}

/// One open-loop step: `count` requests at `rate` per second, request
/// `i` due at `i / rate`, dealt round-robin over `conns` keep-alive
/// connections with pipelining. Request `i` is the schedule's
/// `first_k + i`-th, which fixes its document and endpoint.
pub struct Step {
    pub rate: f64,
    pub count: usize,
    pub first_k: usize,
    pub conns: usize,
}

/// Run one open-loop step. The calling thread drives connection 0 and
/// issues the swaps; `conns - 1` more threads drive the rest. Every
/// thread reports the epochs it sees.
pub fn open_loop(
    addr: SocketAddr,
    fx: &Fixture,
    swapper: Option<&Swapper>,
    step: &Step,
) -> (Instant, Vec<Record>) {
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..step.conns)
            .map(|c| scope.spawn(move || drive(addr, fx, swapper, step, c, start)))
            .collect();
        let mut records = drive(addr, fx, swapper, step, 0, start);
        for h in others {
            records.extend(h.join().expect("generator thread panicked"));
        }
        records.sort_by_key(|r| r.k);
        (start, records)
    })
}

/// Write one step's requests and the swaps issued during it, times in
/// ms from the step's start.
pub fn write_requests(
    path: &Path,
    start: Instant,
    records: &[Record],
    swaps: &[Instant],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "k\tendpoint\tdue_ms\tsent_ms\tdone_ms\twindow\toutcome"
    )?;
    let ms = |ns: u64| ns as f64 / 1e6;
    for r in records {
        writeln!(
            out,
            "{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{}\t{:?}",
            r.k,
            PATHS[r.endpoint],
            ms(r.due_ns),
            ms(r.sent_ns),
            ms(r.done_ns),
            r.window,
            r.outcome
        )?;
    }
    for t in swaps.iter().filter(|t| **t >= start) {
        writeln!(out, "swap\t\t{:.3}", ms(ns_since(start, *t)))?;
    }
    out.flush()
}

fn ns_since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

struct Pending {
    k: usize,
    due_ns: u64,
    sent_ns: u64,
    window: usize,
}

fn drive(
    addr: SocketAddr,
    fx: &Fixture,
    swapper: Option<&Swapper>,
    step: &Step,
    conn: usize,
    start: Instant,
) -> Vec<Record> {
    let n_docs = fx.docs.len();
    let interval = 1e9 / step.rate;
    let due = |i: usize| (i as f64 * interval) as u64;
    let last_due = due(step.count.saturating_sub(1));
    let drain_limit = last_due + (TIMEOUT_MS * 1e6) as u64;
    let mut records = Vec::new();
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut stream: Option<(TcpStream, ReplyParser)> = None;
    let mut i = conn;

    let fail_all = |inflight: &mut VecDeque<Pending>, records: &mut Vec<Record>, how: Outcome| {
        let now = ns_since(start, Instant::now());
        for p in inflight.drain(..) {
            records.push(Record {
                k: p.k,
                endpoint: endpoint_of(p.k),
                due_ns: p.due_ns,
                sent_ns: p.sent_ns,
                done_ns: now,
                window: p.window,
                outcome: how.clone(),
            });
        }
    };

    loop {
        if let Some(s) = swapper.filter(|_| conn == 0) {
            if let Err(e) = s.tick() {
                eprintln!("swap failed: {e}");
                s.disarm();
            }
        }
        let now = ns_since(start, Instant::now());
        while i < step.count && due(i) <= now {
            let k = step.first_k + i;
            if stream.is_none() {
                stream = TcpStream::connect(addr).ok().map(|s| {
                    let _ = s.set_nodelay(true);
                    // Reads only follow readiness; this bounds a stray one.
                    let _ = s.set_read_timeout(Some(Duration::from_millis(TIMEOUT_MS as u64)));
                    (s, ReplyParser::default())
                });
            }
            let window = swapper.map_or(0, Swapper::issued);
            let sent_ns = ns_since(start, Instant::now());
            let p = Pending {
                k,
                due_ns: due(i),
                sent_ns,
                window,
            };
            let written = match &mut stream {
                Some((s, _)) => s.write_all(fx.request(endpoint_of(k), k % n_docs)).is_ok(),
                None => false,
            };
            inflight.push_back(p);
            if !written {
                fail_all(&mut inflight, &mut records, Outcome::Connection);
                stream = None;
            }
            i += step.conns;
        }
        if i >= step.count && inflight.is_empty() {
            break;
        }
        let now_t = Instant::now();
        let now = ns_since(start, now_t);
        if now > drain_limit {
            fail_all(&mut inflight, &mut records, Outcome::Timeout);
            break;
        }
        let mut wake = if i < step.count {
            start + Duration::from_nanos(due(i))
        } else {
            now_t + Duration::from_millis(5)
        };
        if let Some(next) = swapper.filter(|_| conn == 0).and_then(Swapper::next_event) {
            wake = wake.min(next);
        }
        let wait = wake
            .saturating_duration_since(now_t)
            .min(Duration::from_millis(50));
        let Some((s, parser)) = &mut stream else {
            std::thread::sleep(wait);
            continue;
        };
        if !crate::sys::wait_readable(s, wait) {
            continue;
        }
        let got = match s.read(&mut buf) {
            Ok(0) => Err(()),
            Ok(n) => {
                parser.push(&buf[..n]);
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                Ok(())
            }
            Err(_) => Err(()),
        };
        let mut broken = got.is_err();
        while !broken {
            let reply = match parser.next_reply() {
                Ok(Some(r)) => r,
                Ok(None) => break,
                Err(_) => {
                    broken = true;
                    break;
                }
            };
            let at = Instant::now();
            let Some(p) = inflight.pop_front() else {
                broken = true;
                break;
            };
            if let Some(sw) = swapper {
                sw.observe(&reply, at);
            }
            let done_ns = ns_since(start, at);
            let endpoint = endpoint_of(p.k);
            let mut outcome = fx.verify(endpoint, p.k % n_docs, &reply);
            if outcome == Outcome::Ok && (done_ns - p.due_ns) as f64 / 1e6 > TIMEOUT_MS {
                outcome = Outcome::Timeout;
            }
            records.push(Record {
                k: p.k,
                endpoint,
                due_ns: p.due_ns,
                sent_ns: p.sent_ns,
                done_ns,
                window: p.window,
                outcome,
            });
            if reply.close {
                broken = true;
            }
        }
        if broken {
            fail_all(&mut inflight, &mut records, Outcome::Connection);
            stream = None;
        }
    }
    records
}

/// Saturating closed loop: each of `conns` keep-alive connections keeps
/// `window` requests in flight for `duration`. Returns verified
/// responses per second and every outcome. The first connection ticks
/// `swapper`, as the open-loop generator does, so swaps go on during
/// the window; every connection reports the epochs it sees.
pub fn saturate(
    addr: SocketAddr,
    fx: &Fixture,
    swapper: Option<&Swapper>,
    conns: usize,
    window: usize,
    duration: Duration,
    first_k: usize,
) -> Result<(f64, Vec<Outcome>), String> {
    let start = Instant::now();
    let run = |conn: usize| -> Result<(usize, Instant, Vec<Outcome>), String> {
        let n_docs = fx.docs.len();
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(TIMEOUT_MS as u64)))
            .map_err(|e| e.to_string())?;
        let mut parser = ReplyParser::default();
        let mut inflight = VecDeque::new();
        let mut k = first_k + conn;
        let mut outcomes = Vec::new();
        let mut last = start;
        loop {
            if let Some(s) = swapper.filter(|_| conn == 0) {
                if let Err(e) = s.tick() {
                    eprintln!("swap failed: {e}");
                    s.disarm();
                }
            }
            while inflight.len() < window && start.elapsed() < duration {
                stream
                    .write_all(fx.request(endpoint_of(k), k % n_docs))
                    .map_err(|e| e.to_string())?;
                inflight.push_back(k);
                k += conns;
            }
            let Some(done) = inflight.pop_front() else {
                break;
            };
            let reply = read_reply(&mut stream, &mut parser)?;
            last = Instant::now();
            if let Some(s) = swapper {
                s.observe(&reply, last);
            }
            outcomes.push(fx.verify(endpoint_of(done), done % n_docs, &reply));
        }
        let ok = outcomes.iter().filter(|o| **o == Outcome::Ok).count();
        Ok((ok, last, outcomes))
    };
    let results: Vec<_> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..conns).map(|c| scope.spawn(move || run(c))).collect();
        let mut all = vec![run(0)];
        all.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("saturating thread panicked")),
        );
        all
    });
    let mut ok = 0;
    let mut last = start;
    let mut outcomes = Vec::new();
    for r in results {
        let (n, l, o) = r?;
        ok += n;
        last = last.max(l);
        outcomes.extend(o);
    }
    Ok((
        ok as f64 / last.duration_since(start).as_secs_f64(),
        outcomes,
    ))
}

/// Per-swap-window accounting of an open-loop step.
pub fn windows(records: &[Record]) -> Vec<(usize, usize, usize)> {
    let mut out: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for r in records {
        let e = out.entry(r.window).or_default();
        e.0 += 1;
        if r.outcome == Outcome::Ok {
            e.1 += 1;
        }
    }
    out.into_iter()
        .map(|(w, (sent, ok))| (w, sent, ok))
        .collect()
}
