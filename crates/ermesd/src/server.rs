//! The daemon: admission control, the shared cache, and the HTTP loop.
//!
//! One acceptor thread hands each connection to its own thread (parsing
//! and response writing are cheap; connections are few), and every
//! *analysis* request is executed on a fixed [`parx::Pool`] whose bounded
//! queue is the admission-control knob: when it is full the request is
//! rejected immediately with `429` instead of queueing latent work. A
//! request may carry a `deadline_ms` query parameter; if the deadline has
//! passed by the time a worker picks the job up, the work is skipped and
//! the client gets a `429` as well (the classic load-shedding pair).
//!
//! # Response identity
//!
//! Responses are **bit-identical to the CLI** at any worker count and any
//! cache warmth:
//!
//! - `POST /analyze` = `ermes analyze` stdout;
//! - `POST /order` = `ermes order` stdout (report, then the ordered spec);
//! - `POST /explore` = `ermes explore` stdout *minus the cache-stats
//!   line*, followed by the explored spec (what the CLI writes to
//!   `--out`);
//! - `POST /sweep` = `ermes sweep` stdout *minus the cache-stats line*.
//!
//! The cache-stats line is the one part of CLI output that depends on
//! run history, so it cannot appear in a response served from a shared
//! warm cache; its counters are served, aggregated, at `GET /metrics`.
//!
//! # The shared cache
//!
//! An [`EngineCache`] memoizes per *base design* (topology, channel
//! latencies, Pareto frontiers) — its keys only cover selection and
//! ordering state. The server therefore keeps an LRU of `EngineCache`s
//! keyed by the canonical JSON of the incoming spec: requests for the
//! same system share a warm cache, requests for different systems can
//! never alias. Each engine cache is itself bounded
//! ([`EngineCache::with_capacity`]), so memory is bounded by
//! `design_cache_capacity * cache_capacity` entries regardless of uptime.

use crate::cluster::{
    parse_point_wire, parse_trace_header, render_point_wire, shard_key, Cluster, ClusterConfig,
};
use crate::commands::{
    cmd_analyze_cancellable, cmd_explore_cancellable, cmd_order, cmd_sweep_cancellable,
    cmd_verify_cancellable, render_session_report, render_sweep_front, render_verify_system,
    CliError,
};
use crate::http::{read_request, ClientResponse, ReadError, Request, Response};
use crate::metrics::Metrics;
use crate::session::{apply_edit, parse_edit, SessionStore};
use crate::spec::SystemSpec;
use ermes::{CacheStats, EngineCache};
use parx::{CancelReason, CancelToken};
use std::collections::HashMap;
use std::io::{self, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often the connection thread wakes while its job runs to poll the
/// socket for a client disconnect. Bounds disconnect-detection latency;
/// cancellation latency itself is additionally bounded by the job's
/// innermost polling loop.
const DISCONNECT_POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` = ephemeral port).
    pub addr: String,
    /// Analysis worker threads (`0` = all hardware threads).
    pub workers: usize,
    /// Bound on the admission queue; a full queue sheds with `429`.
    pub queue_capacity: usize,
    /// Per-table bound of each design's [`EngineCache`].
    pub cache_capacity: usize,
    /// How many distinct base designs keep a warm cache (LRU beyond).
    pub design_cache_capacity: usize,
    /// Largest request body (a spec JSON) the server will buffer.
    pub max_body_bytes: usize,
    /// Default per-request deadline in milliseconds (`0` = none); the
    /// `deadline_ms` query parameter overrides it per request.
    pub default_deadline_ms: u64,
    /// How many interactive sessions stay live at once; opening one
    /// beyond the bound evicts the least recently edited session.
    pub session_capacity: usize,
    /// Coordinator mode: when set, `/explore` and `/sweep` are fanned
    /// out to the configured worker daemons (`None` = plain single-node
    /// service). Responses stay bit-identical either way.
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 4096,
            design_cache_capacity: 32,
            max_body_bytes: 4 * 1024 * 1024,
            default_deadline_ms: 0,
            session_capacity: 64,
            cluster: None,
        }
    }
}

/// LRU of per-design engine caches, keyed by canonical spec JSON.
struct CacheLru {
    entries: HashMap<String, (Arc<EngineCache>, u64)>,
    tick: u64,
    capacity: usize,
    engine_capacity: usize,
}

impl CacheLru {
    fn new(capacity: usize, engine_capacity: usize) -> CacheLru {
        CacheLru {
            entries: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            engine_capacity,
        }
    }

    /// The cache for `key`, created (evicting the least recently used
    /// design if at capacity) when absent.
    fn get(&mut self, key: &str) -> Arc<EngineCache> {
        self.tick += 1;
        if let Some((cache, stamp)) = self.entries.get_mut(key) {
            *stamp = self.tick;
            return Arc::clone(cache);
        }
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        let cache = Arc::new(EngineCache::with_capacity(self.engine_capacity));
        self.entries
            .insert(key.to_string(), (Arc::clone(&cache), self.tick));
        cache
    }

    /// Aggregated hit/miss/eviction counters and total stored entries
    /// across every live design cache.
    fn aggregate(&self) -> (CacheStats, usize) {
        let mut stats = CacheStats::default();
        let mut entries = 0;
        for (cache, _) in self.entries.values() {
            stats = stats.merged(&cache.stats());
            let (a, o) = cache.entry_counts();
            entries += a + o;
        }
        (stats, entries)
    }

    /// Per-base-design `(fingerprint, stored entries, evictions)` rows,
    /// sorted by fingerprint so the `/metrics` output is deterministic.
    fn per_design(&self) -> Vec<(String, usize, u64)> {
        let mut rows: Vec<(String, usize, u64)> = self
            .entries
            .iter()
            .map(|(key, (cache, _))| {
                let (a, o) = cache.entry_counts();
                (design_fingerprint(key), a + o, cache.stats().evictions)
            })
            .collect();
        rows.sort();
        rows
    }
}

/// Short stable identifier for a base design, for metric labels: FNV-1a
/// over the canonical spec JSON the [`CacheLru`] is keyed by.
fn design_fingerprint(key: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Why an analysis request was not executed (or executed but produced
/// no result).
enum Shed {
    /// The admission queue was full.
    QueueFull,
    /// The request's deadline passed before a worker picked it up.
    Deadline,
    /// The server is draining.
    ShuttingDown,
    /// The job panicked on its worker. The panic was caught by the pool,
    /// the worker was respawned, and only this request is affected.
    JobPanicked,
}

struct Inner {
    metrics: Metrics,
    caches: Mutex<CacheLru>,
    sessions: SessionStore,
    /// `None` once shutdown has begun (taken by the drainer).
    pool: Mutex<Option<parx::Pool>>,
    shutting_down: AtomicBool,
    /// Requests currently between parse and response write; the drainer
    /// waits for this to reach zero so no response is cut off mid-write.
    active: Mutex<usize>,
    idle: Condvar,
    max_body: usize,
    default_deadline_ms: u64,
    /// Present in coordinator mode: the worker fleet `/explore` and
    /// `/sweep` fan out to.
    cluster: Option<Arc<Cluster>>,
}

impl Inner {
    /// Runs `job` on the worker pool, waiting for its result. While the
    /// job runs, the connection socket (when given) is polled for EOF so
    /// a client that hangs up cancels its own in-flight work via
    /// `cancel`; the pool worker is never abandoned — this always waits
    /// for the job to yield (a cancelled job yields within one polling
    /// iteration of its innermost loop).
    fn run_job<T: Send + 'static>(
        &self,
        deadline: Option<Instant>,
        cancel: &CancelToken,
        conn: Option<&TcpStream>,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, Shed> {
        let (tx, rx) = mpsc::channel();
        {
            let pool = self.pool.lock().expect("pool slot poisoned");
            let Some(pool) = pool.as_ref() else {
                return Err(Shed::ShuttingDown);
            };
            pool.try_submit(move || {
                if deadline.is_some_and(|d| Instant::now() > d) {
                    let _ = tx.send(Err(Shed::Deadline));
                } else {
                    let _ = tx.send(Ok(job()));
                }
            })
            .map_err(|_| Shed::QueueFull)?;
        }
        loop {
            match rx.recv_timeout(DISCONNECT_POLL_INTERVAL) {
                Ok(result) => return result,
                // The sender was dropped without sending: the job
                // panicked mid-execution (the pool caught it and
                // respawned the worker).
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(Shed::JobPanicked),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if peer_disconnected(conn) {
                        cancel.cancel(CancelReason::Disconnected);
                        // Keep waiting: the job observes the token and
                        // returns shortly; the worker slot is freed by
                        // the job itself, never by walking away.
                    }
                }
            }
        }
    }
}

/// Nonblocking EOF probe: true when the client has closed (or reset) the
/// connection. Pipelined request bytes and quiet-but-open sockets both
/// report false. `peek` consumes nothing, so a pipelined request is left
/// intact for the connection loop.
fn peer_disconnected(conn: Option<&TcpStream>) -> bool {
    let Some(stream) = conn else {
        return false;
    };
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// A running analysis service.
///
/// [`Server::start`] binds and spawns the worker pool; [`Server::run`]
/// serves until a `POST /shutdown` arrives, then drains every queued and
/// running job before returning.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors binding `config.addr`.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        // The daemon always runs with tracing on: `/trace` and the
        // per-phase histograms on `/metrics` are part of its API. (The
        // disabled-by-default path matters for the CLI and benchmarks,
        // not here.)
        trace::set_enabled(true);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            metrics: Metrics::new(),
            caches: Mutex::new(CacheLru::new(
                config.design_cache_capacity,
                config.cache_capacity,
            )),
            sessions: SessionStore::new(config.session_capacity),
            pool: Mutex::new(Some(parx::Pool::new(
                config.workers,
                config.queue_capacity.max(1),
            ))),
            shutting_down: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
            max_body: config.max_body_bytes,
            default_deadline_ms: config.default_deadline_ms,
            cluster: config.cluster.map(Cluster::start),
        });
        Ok(Server {
            listener,
            addr,
            inner,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves requests until `POST /shutdown`, then drains: the listener
    /// stops accepting, every queued and running analysis job finishes,
    /// and every in-flight response is written before this returns.
    ///
    /// # Errors
    ///
    /// Fatal listener I/O errors (per-connection errors only drop that
    /// connection).
    pub fn run(self) -> io::Result<()> {
        let addr = self.addr;
        for stream in self.listener.incoming() {
            if self.inner.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    // Responses are written headers-then-body; without
                    // this, Nagle + delayed ACK stalls keep-alive
                    // round-trips by ~40 ms each.
                    let _ = stream.set_nodelay(true);
                    let inner = Arc::clone(&self.inner);
                    std::thread::spawn(move || handle_connection(&inner, stream, addr));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => return Err(e),
            }
        }
        // Drain: stop admitting (the slot becomes `None`), run every job
        // already accepted, then wait for the responses to hit the wire.
        let pool = self.inner.pool.lock().expect("pool slot poisoned").take();
        if let Some(pool) = pool {
            pool.shutdown();
        }
        let mut active = self.inner.active.lock().expect("active poisoned");
        while *active > 0 {
            active = self.inner.idle.wait(active).expect("active poisoned");
        }
        drop(active);
        // Every in-flight forwarded subjob rode a connection thread that
        // just finished, so the prober is the only cluster thread left.
        if let Some(cluster) = &self.inner.cluster {
            cluster.stop();
        }
        Ok(())
    }
}

/// Decrements the active-request count on drop, waking the drainer.
struct ActiveGuard<'a>(&'a Inner);

impl<'a> ActiveGuard<'a> {
    fn enter(inner: &'a Inner) -> ActiveGuard<'a> {
        *inner.active.lock().expect("active poisoned") += 1;
        ActiveGuard(inner)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        let mut active = self.0.active.lock().expect("active poisoned");
        *active -= 1;
        if *active == 0 {
            self.0.idle.notify_all();
        }
    }
}

fn handle_connection(inner: &Inner, stream: TcpStream, server_addr: SocketAddr) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, inner.max_body) {
            Ok(req) => {
                let guard = ActiveGuard::enter(inner);
                let started = Instant::now();
                let outcome = route(inner, &req, Some(&writer));
                let endpoint = outcome.endpoint;
                inner
                    .metrics
                    .record_request(endpoint, outcome.response.status);
                if matches!(
                    endpoint,
                    "analyze"
                        | "order"
                        | "explore"
                        | "sweep"
                        | "verify"
                        | "session_open"
                        | "session_edit"
                        | "session_verify"
                ) {
                    inner.metrics.observe_latency(endpoint, started.elapsed());
                }
                let keep = req.keep_alive() && !outcome.close_after;
                let write_ok = outcome.response.write_to(&mut writer, keep).is_ok();
                drop(guard);
                if outcome.initiate_shutdown {
                    initiate_shutdown(inner, server_addr);
                }
                if !write_ok || !keep {
                    return;
                }
            }
            Err(ReadError::Closed) => return,
            Err(ReadError::Malformed { status, reason }) => {
                inner.metrics.record_request("malformed", status);
                let _ = Response::text(status, reason + "\n").write_to(&mut writer, false);
                return;
            }
            Err(ReadError::Io(_)) => return,
        }
    }
}

/// Flags the server as draining and unblocks the acceptor (which sits in
/// `accept()`) with a throwaway connection to itself.
fn initiate_shutdown(inner: &Inner, addr: SocketAddr) {
    if !inner.shutting_down.swap(true, Ordering::SeqCst) {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.write_all(b"");
        }
    }
}

struct Outcome {
    response: Response,
    endpoint: &'static str,
    close_after: bool,
    initiate_shutdown: bool,
}

impl Outcome {
    fn reply(endpoint: &'static str, response: Response) -> Outcome {
        Outcome {
            response,
            endpoint,
            close_after: false,
            initiate_shutdown: false,
        }
    }
}

fn route(inner: &Inner, req: &Request, conn: Option<&TcpStream>) -> Outcome {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Outcome::reply("healthz", healthz_response(inner)),
        ("GET", "/metrics") => Outcome::reply("metrics", metrics_response(inner)),
        ("GET", "/trace") => Outcome::reply("trace", trace_response(req)),
        ("GET", "/trace/slow") => Outcome::reply("trace_slow", trace_slow_response(req)),
        ("POST", "/shutdown") => Outcome {
            response: Response::text(200, "draining\n"),
            endpoint: "shutdown",
            close_after: true,
            initiate_shutdown: true,
        },
        ("POST", "/analyze") => analysis_endpoint(inner, req, "analyze", conn),
        ("POST", "/order") => analysis_endpoint(inner, req, "order", conn),
        ("POST", "/explore") => analysis_endpoint(inner, req, "explore", conn),
        ("POST", "/sweep") => analysis_endpoint(inner, req, "sweep", conn),
        ("POST", "/verify") => analysis_endpoint(inner, req, "verify", conn),
        ("POST", "/shard/sweeppoint") => shard_sweep_point_endpoint(inner, req, conn),
        ("POST", "/session") => session_open_endpoint(inner, req, conn),
        (method, path) if path == "/session" || path.starts_with("/session/") => {
            session_route(inner, method, path, req, conn)
        }
        // Known paths with the wrong method: 405 with the allowed verb,
        // never a 404 (the resource exists; the method is the problem).
        (_, "/healthz" | "/metrics" | "/trace" | "/trace/slow") => {
            Outcome::reply("other", method_not_allowed("GET"))
        }
        (
            _,
            "/shutdown" | "/analyze" | "/order" | "/explore" | "/sweep" | "/verify"
            | "/shard/sweeppoint",
        ) => Outcome::reply("other", method_not_allowed("POST")),
        _ => Outcome::reply("other", Response::text(404, "no such endpoint\n")),
    }
}

/// A `405` naming the method the path does support, per RFC 9110 §15.5.6
/// (the `Allow` header is mandatory on 405).
fn method_not_allowed(allow: &'static str) -> Response {
    let mut response = Response::text(405, "method not allowed\n");
    response.extra_headers.push(("allow", allow.to_string()));
    response
}

/// Dispatches `/session` (wrong method) and `/session/{id}[/edit]`.
fn session_route(
    inner: &Inner,
    method: &str,
    path: &str,
    req: &Request,
    conn: Option<&TcpStream>,
) -> Outcome {
    let Some(tail) = path.strip_prefix("/session/") else {
        // `/session` with a non-POST method.
        return Outcome::reply("other", method_not_allowed("POST"));
    };
    let (id_text, action) = match tail.split_once('/') {
        None => (tail, None),
        Some((id, action)) => (id, Some(action)),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Outcome::reply("other", Response::text(404, "no such endpoint\n"));
    };
    match (method, action) {
        ("POST", Some("edit")) => session_edit_endpoint(inner, req, id, conn),
        ("POST", Some("verify")) => session_verify_endpoint(inner, req, id, conn),
        ("DELETE", None) => session_close_endpoint(inner, id),
        (_, Some("edit" | "verify")) => Outcome::reply("other", method_not_allowed("POST")),
        (_, None) => Outcome::reply("other", method_not_allowed("DELETE")),
        _ => Outcome::reply("other", Response::text(404, "no such endpoint\n")),
    }
}

/// Liveness with per-component detail. The first line stays exactly
/// `ok` (probes — including a coordinator's — and scripts grep for it);
/// each following line is one `component: value` pair so scripts can
/// assert on individual components. A panicked worker is respawned
/// before its thread exits, so health stays green across panics — the
/// restart counter is how an operator notices them. In coordinator mode
/// the fleet's health states and the degraded-fallback count follow.
fn healthz_response(inner: &Inner) -> Response {
    use std::fmt::Write as _;
    let (alive, workers, restarts, queue_depth) = {
        let pool = inner.pool.lock().expect("pool slot poisoned");
        pool.as_ref().map_or((0, 0, 0, 0), |p| {
            (
                p.alive_workers(),
                p.workers(),
                p.worker_restarts(),
                p.queue_depth(),
            )
        })
    };
    let mut body = format!("ok\nworkers: {alive}/{workers} alive\nworker restarts: {restarts}\n");
    let _ = writeln!(body, "sessions live: {}", inner.sessions.live());
    let _ = writeln!(body, "queue depth: {queue_depth}");
    let (journal_live, journal_capacity) = trace::journal_occupancy();
    let flight = trace::flight::stats();
    let _ = writeln!(
        body,
        "trace: journal {journal_live}/{journal_capacity}, flight {} retained, {} dropped",
        flight.retained_live, flight.dropped_total
    );
    if let Some(cluster) = &inner.cluster {
        let states = cluster.worker_states();
        let up = states
            .iter()
            .filter(|(_, s)| *s == parx::HealthState::Up)
            .count();
        let _ = writeln!(body, "cluster workers: {up}/{} up", states.len());
        for (addr, state) in &states {
            let _ = writeln!(body, "cluster worker {addr}: {}", state.label());
        }
        let _ = writeln!(
            body,
            "cluster degraded jobs: {}",
            cluster.metrics.degraded_total()
        );
    }
    Response::text(200, body)
}

fn metrics_response(inner: &Inner) -> Response {
    let (queue_depth, running, workers, alive, restarts) = {
        let pool = inner.pool.lock().expect("pool slot poisoned");
        pool.as_ref().map_or((0, 0, 0, 0, 0), |p| {
            (
                p.queue_depth(),
                p.running(),
                p.workers(),
                p.alive_workers(),
                p.worker_restarts(),
            )
        })
    };
    let (stats, cache_entries, designs, per_design) = {
        let caches = inner.caches.lock().expect("cache lru poisoned");
        let (stats, entries) = caches.aggregate();
        (stats, entries, caches.entries.len(), caches.per_design())
    };
    let mut gauges: Vec<(&str, &str, f64)> = vec![
        (
            "ermesd_queue_depth",
            "Analysis jobs waiting in the admission queue.",
            queue_depth as f64,
        ),
        (
            "ermesd_jobs_running",
            "Analysis jobs currently executing.",
            running as f64,
        ),
        ("ermesd_workers", "Analysis worker threads.", workers as f64),
        (
            "ermesd_workers_alive",
            "Analysis worker threads currently alive (respawn closes any gap).",
            alive as f64,
        ),
        (
            "ermesd_design_caches",
            "Distinct base designs with a live engine cache.",
            designs as f64,
        ),
        (
            "ermesd_cache_entries",
            "Memoized results stored across all engine caches.",
            cache_entries as f64,
        ),
        (
            "ermesd_cache_analysis_hits",
            "Aggregated analysis-cache hits across live engine caches.",
            stats.analysis_hits as f64,
        ),
        (
            "ermesd_cache_analysis_misses",
            "Aggregated analysis-cache misses across live engine caches.",
            stats.analysis_misses as f64,
        ),
        (
            "ermesd_cache_ordering_hits",
            "Aggregated ordering-cache hits across live engine caches.",
            stats.ordering_hits as f64,
        ),
        (
            "ermesd_cache_ordering_misses",
            "Aggregated ordering-cache misses across live engine caches.",
            stats.ordering_misses as f64,
        ),
        (
            "ermesd_cache_evictions",
            "Aggregated LRU evictions across live engine caches.",
            stats.evictions as f64,
        ),
        (
            "ermes_sessions_live",
            "Interactive analysis sessions currently open.",
            inner.sessions.live() as f64,
        ),
    ];
    let ilp = ilp::stats();
    let howard = tmg::howard_stats();
    let mut sampled_counters: Vec<(&str, &str, u64)> = vec![
        (
            "ermes_worker_restarts_total",
            "Pool workers respawned after a job panicked on them.",
            restarts,
        ),
        (
            "ermes_ilp_nodes_total",
            "Branch & bound nodes explored by the selection (MCKP) solver.",
            ilp.nodes,
        ),
        (
            "ermes_howard_iterations_total",
            "Howard policy-improvement rounds across all component solves.",
            howard.iterations,
        ),
        (
            "ermes_howard_warm_solves_total",
            "Howard component solves started from a previous converged policy.",
            howard.warm_solves,
        ),
        (
            "ermes_howard_capped_total",
            "Howard solves that hit the iteration cap and fell back to the parametric solver.",
            howard.capped,
        ),
        (
            "ermes_session_opened_total",
            "Interactive sessions opened.",
            inner.sessions.opened.load(Ordering::Relaxed),
        ),
        (
            "ermes_session_edits_total",
            "Session edits applied (incremental re-analyses served).",
            inner.sessions.edits.load(Ordering::Relaxed),
        ),
        (
            "ermes_session_closed_total",
            "Interactive sessions closed by the client.",
            inner.sessions.closed.load(Ordering::Relaxed),
        ),
        (
            "ermes_session_evicted_total",
            "Interactive sessions evicted by the LRU bound.",
            inner.sessions.evicted.load(Ordering::Relaxed),
        ),
        (
            "ermes_session_dropped_total",
            "Interactive sessions dropped after a panicked edit.",
            inner.sessions.dropped.load(Ordering::Relaxed),
        ),
        (
            "ermes_trace_header_invalid_total",
            "Present-but-malformed x-ermes-trace headers received.",
            crate::metrics::trace_header_invalid_total(),
        ),
        (
            "ermes_trace_flight_retained_total",
            "Span trees retained by the tail-sampling flight recorder.",
            trace::flight::stats().retained_total,
        ),
        (
            "ermes_trace_flight_dropped_total",
            "Retained span trees lost to flight-recorder ring overflow.",
            trace::flight::stats().dropped_total,
        ),
    ];
    if let Some(cluster) = &inner.cluster {
        let states = cluster.worker_states();
        let count = |s: parx::HealthState| states.iter().filter(|(_, st)| *st == s).count() as f64;
        gauges.push((
            "ermes_cluster_workers_up",
            "Cluster workers currently answering health probes.",
            count(parx::HealthState::Up),
        ));
        gauges.push((
            "ermes_cluster_workers_suspect",
            "Cluster workers with recent probe failures, still dispatchable.",
            count(parx::HealthState::Suspect),
        ));
        gauges.push((
            "ermes_cluster_workers_down",
            "Cluster workers excluded from dispatch until probes recover.",
            count(parx::HealthState::Down),
        ));
        sampled_counters.extend(cluster.metrics.sampled());
    }
    let mut body = inner.metrics.render(&gauges, &sampled_counters);
    body.push_str(&render_per_design_cache(&per_design));
    body.push_str(&crate::metrics::render_phase_histograms());
    // Coordinator mode: federate every reachable worker's exposition,
    // each sample gaining a `node` label, so one scrape of the
    // coordinator sees the whole fleet.
    if let Some(cluster) = &inner.cluster {
        for (addr, exposition) in cluster.scrape_worker_metrics() {
            body.push_str(&crate::metrics::federate_exposition(&addr, &exposition));
        }
    }
    Response::text(200, body)
}

/// Opens up the per-base-design cache LRU: one `ermes_cache_entries`
/// gauge and one `ermes_cache_evictions_total` counter per live design,
/// labelled with the design's spec fingerprint.
fn render_per_design_cache(per_design: &[(String, usize, u64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if per_design.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "# HELP ermes_cache_entries Memoized results stored, per base design.\n\
         # TYPE ermes_cache_entries gauge"
    );
    for (design, entries, _) in per_design {
        let _ = writeln!(out, "ermes_cache_entries{{design=\"{design}\"}} {entries}");
    }
    let _ = writeln!(
        out,
        "# HELP ermes_cache_evictions_total Engine-cache LRU evictions, per base design.\n\
         # TYPE ermes_cache_evictions_total counter"
    );
    for (design, _, evictions) in per_design {
        let _ = writeln!(
            out,
            "ermes_cache_evictions_total{{design=\"{design}\"}} {evictions}"
        );
    }
    out
}

/// `GET /trace`: the last `n` (default 32, `?n=` to override, capped at
/// the journal capacity) completed job span trees, as JSON. Trees for
/// cancelled or panicked jobs are present too, truncated where work
/// stopped and tagged with `outcome` on the root span.
fn trace_response(req: &Request) -> Response {
    let n = req
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32)
        .clamp(1, trace::DEFAULT_JOURNAL_CAPACITY);
    let trees = trace::completed_trees(n);
    let mut out = String::from("[");
    for (i, tree) in trees.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_tree_json(&mut out, tree);
    }
    out.push_str("]\n");
    let mut response = Response::text(200, out);
    response.content_type = "application/json";
    response
}

/// `GET /trace/slow`: the flight recorder's retained trees — requests
/// that were slow (rolling per-endpoint p99 exceeders), errored,
/// panicked, degraded, or retried — oldest first, each wrapped with its
/// retention reason. `?n=` caps to the newest `n`.
fn trace_slow_response(req: &Request) -> Response {
    use std::fmt::Write as _;
    let n = req
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(trace::flight::DEFAULT_FLIGHT_CAPACITY)
        .max(1);
    let retained = trace::flight::retained();
    let skip = retained.len().saturating_sub(n);
    let mut out = String::from("[");
    for (i, entry) in retained[skip..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"reason\":\"{}\",\"tree\":",
            entry.seq,
            json_escape(entry.reason)
        );
        write_tree_json(&mut out, &entry.tree);
        out.push('}');
    }
    out.push_str("]\n");
    let mut response = Response::text(200, out);
    response.content_type = "application/json";
    response
}

/// Appends this request's completed span tree to a response body, in
/// the versioned wire form behind [`trace::TRAILER_MARKER`], for the
/// coordinator to stitch (and strip before relaying). Only called when
/// the request carried `x-ermes-trace-tree`, so a direct client's bytes
/// never change. `root_id` is the request span's id, captured while it
/// was open; a zero id (tracing disabled) attaches nothing.
fn append_tree_trailer(response: &mut Response, root_id: u64) {
    if root_id == 0 || response.status != 200 {
        return;
    }
    if let Some(tree) = trace::subtree(root_id) {
        response
            .body
            .extend_from_slice(trace::TRAILER_MARKER.as_bytes());
        response.body.extend_from_slice(tree.to_wire().as_bytes());
    }
}

fn write_tree_json(out: &mut String, tree: &trace::SpanTree) {
    use std::fmt::Write as _;
    let r = &tree.record;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{}",
        json_escape(r.name),
        r.id,
        r.parent,
        r.thread,
        r.start_ns,
        r.end_ns,
        r.duration_ns(),
    );
    if !r.attrs.is_empty() {
        out.push_str(",\"attrs\":{");
        for (i, (k, v)) in r.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push('}');
    }
    out.push_str(",\"children\":[");
    for (i, child) in tree.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_tree_json(out, child);
    }
    out.push_str("]}");
}

fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses, admits, and executes one analysis request end to end.
fn analysis_endpoint(
    inner: &Inner,
    req: &Request,
    endpoint: &'static str,
    conn: Option<&TcpStream>,
) -> Outcome {
    // A coordinator forwarding `/explore` propagates its trace position;
    // adopting it makes this worker's request span a child of the
    // coordinator's dispatch span (in id space — the span itself ships
    // back via the tree trailer below). Absent or malformed headers
    // adopt the inactive context, a no-op.
    let _adopted = trace::adopt(parse_trace_header(req.header("x-ermes-trace")));
    let want_tree = req.header("x-ermes-trace-tree").is_some();
    let body = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => {
            return Outcome::reply(endpoint, Response::text(400, "body is not UTF-8\n"));
        }
    };
    let spec = match crate::commands::parse_spec(body) {
        Ok(spec) => spec,
        Err(e) => {
            return Outcome::reply(endpoint, Response::text(400, format!("{e}\n")));
        }
    };
    // Validate model-level constraints up front so schema errors never
    // consume a worker slot.
    if let Err(e) = spec.to_design() {
        return Outcome::reply(endpoint, Response::text(400, format!("spec error: {e}\n")));
    }
    let params = match AnalysisParams::from_request(req, endpoint, inner.default_deadline_ms) {
        Ok(params) => params,
        Err(msg) => return Outcome::reply(endpoint, Response::text(400, msg + "\n")),
    };
    // Coordinator mode: exploration work is fanned out to the worker
    // fleet. `None` from the forwarders means the cluster could not
    // serve the job (degraded mode) — fall through and run it locally,
    // exactly as a single-node daemon would.
    if let Some(cluster) = &inner.cluster {
        let forwarded = match endpoint {
            "explore" => forward_explore(req, cluster, &spec, &params),
            "sweep" => coordinator_sweep(inner, cluster, &spec, &params),
            _ => None,
        };
        if let Some(response) = forwarded {
            let close_after = response.status == 499;
            return Outcome {
                response,
                endpoint,
                close_after,
                initiate_shutdown: false,
            };
        }
    }
    let cache = inner
        .caches
        .lock()
        .expect("cache lru poisoned")
        .get(&spec.to_json_pretty());
    let deadline = params.deadline;
    // One token per request: it self-cancels when the deadline passes
    // mid-run, and the connection poll in `run_job` cancels it when the
    // client hangs up. The job polls it at iteration boundaries.
    let cancel = CancelToken::with_deadline(deadline);
    let job_token = cancel.clone();
    // Root span of this request's trace tree. It is open on this thread
    // while the job is submitted, so `Pool::try_submit` captures it and
    // the worker's engine spans parent under it; it closes here, after
    // the job has yielded, which is what makes a tree "completed" —
    // including truncated trees of cancelled and panicked jobs.
    let request_span = trace::span("request");
    trace::attr("endpoint", endpoint);
    let root_id = trace::current_context().parent();
    let job = move || run_command(endpoint, &spec, &params, &cache, &job_token);
    let result = inner.run_job(deadline, &cancel, conn, job);
    trace::attr(
        "outcome",
        match &result {
            Ok(Ok(_)) => "ok",
            Ok(Err(CliError::Ermes(ermes::ErmesError::Cancelled { .. }))) => "cancelled",
            Ok(Err(_)) => "error",
            Err(Shed::JobPanicked) => "panic",
            Err(_) => "shed",
        },
    );
    drop(request_span);
    let mut response = match result {
        Ok(Ok(body)) => Response::text(200, body),
        Ok(Err(e)) => error_response(inner, &e),
        Err(shed) => shed_response(inner, &shed),
    };
    if want_tree {
        append_tree_trailer(&mut response, root_id);
    }
    // A 499 means the client is gone; drop the connection after the
    // (best-effort) write instead of waiting for another request.
    let close_after = response.status == 499;
    Outcome {
        response,
        endpoint,
        close_after,
        initiate_shutdown: false,
    }
}

/// Per-request parameters of the analysis endpoints.
struct AnalysisParams {
    target: u64,
    targets: Vec<u64>,
    jobs: usize,
    deadline: Option<Instant>,
}

impl AnalysisParams {
    fn from_request(
        req: &Request,
        endpoint: &str,
        default_deadline_ms: u64,
    ) -> Result<AnalysisParams, String> {
        let jobs = parx::parse_jobs("jobs", req.query_param("jobs"), 1)?;
        let target = match endpoint {
            "explore" => req
                .query_param("target")
                .ok_or("explore requires ?target=<cycles>")?
                .parse()
                .map_err(|_| "target must be a non-negative integer".to_string())?,
            _ => 0,
        };
        let targets = match endpoint {
            "sweep" => req
                .query_param("targets")
                .ok_or("sweep requires ?targets=<a,b,c>")?
                .split(',')
                .map(|t| t.trim().parse())
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|_| "targets must be comma-separated non-negative integers".to_string())?,
            _ => Vec::new(),
        };
        let deadline = request_deadline(req, default_deadline_ms)?;
        Ok(AnalysisParams {
            target,
            targets,
            jobs,
            deadline,
        })
    }
}

/// Resolves a request's deadline: the `deadline_ms` query parameter,
/// falling back to the server default; `0` disables the deadline.
fn request_deadline(req: &Request, default_deadline_ms: u64) -> Result<Option<Instant>, String> {
    let deadline_ms = match req.query_param("deadline_ms") {
        None => default_deadline_ms,
        Some(text) => text
            .parse()
            .map_err(|_| "deadline_ms must be a non-negative integer".to_string())?,
    };
    Ok((deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms)))
}

/// Executes one command; the response body composition is the identity
/// contract documented at the top of this module. Every command polls
/// `cancel` at its iteration boundaries; with a live token the output is
/// bit-identical to the plain CLI command.
fn run_command(
    endpoint: &str,
    spec: &SystemSpec,
    params: &AnalysisParams,
    cache: &EngineCache,
    cancel: &CancelToken,
) -> Result<String, CliError> {
    match endpoint {
        "analyze" => cmd_analyze_cancellable(spec, cache, cancel),
        // `order` runs one combinatorial pass with no iteration structure
        // to poll; it is fast enough to always run to completion.
        "order" => {
            let (report, json) = cmd_order(spec)?;
            Ok(format!("{report}{json}\n"))
        }
        "explore" => {
            let (report, json) =
                cmd_explore_cancellable(spec, params.target, params.jobs, cache, cancel)?;
            Ok(format!("{report}{json}\n"))
        }
        "sweep" => cmd_sweep_cancellable(spec, &params.targets, params.jobs, cache, cancel),
        // `verify` builds its own transition system per request; the
        // engine cache memoizes TMG analysis, not certification, so the
        // command takes only the spec and the token.
        "verify" => cmd_verify_cancellable(spec, cancel),
        _ => unreachable!("routed endpoints only"),
    }
}

/// Coordinator path for `POST /explore`: the whole request is forwarded
/// to the ring owner of `(spec, target)` — an exploration is one atomic
/// greedy walk, so the unit of distribution is the request itself. The
/// worker's verdict (success or deterministic error) is relayed
/// verbatim, which is what keeps the bytes identical to a local run.
/// `None` means the cluster could not serve the job (all replicas
/// exhausted); the caller runs it locally, degraded but correct.
fn forward_explore(
    req: &Request,
    cluster: &Arc<Cluster>,
    spec: &SystemSpec,
    params: &AnalysisParams,
) -> Option<Response> {
    use std::fmt::Write as _;
    let request_span = trace::span("request");
    trace::attr("endpoint", "explore");
    trace::attr("forwarded", 1);
    let key = shard_key(&spec.to_json_pretty(), params.target);
    let mut target = format!("/explore?target={}", params.target);
    if params.jobs != 1 {
        let _ = write!(target, "&jobs={}", params.jobs);
    }
    // The worker runs un-deadlined: the coordinator's subjob timeout
    // already bounds the wait, and a relayed deadline would let time
    // burned by a failed first attempt cut a retry short.
    let result = cluster.dispatch(key, "POST", &target, &req.body);
    trace::attr("outcome", if result.is_ok() { "ok" } else { "degraded" });
    drop(request_span);
    match result {
        Ok(reply) => Some(relay(reply)),
        Err(_) => {
            cluster.metrics.record_degraded();
            None
        }
    }
}

/// Re-wraps a worker's reply for the coordinator's client: status and
/// body are relayed verbatim (the bit-identity contract), the retry
/// semantics headers survive, and hop-by-hop framing does not.
fn relay(reply: ClientResponse) -> Response {
    let mut response = Response::text(
        reply.status,
        String::from_utf8_lossy(&reply.body).into_owned(),
    );
    for name in ["retry-after", "x-ermes-progress"] {
        if let Some(value) = reply.header(name) {
            response.extra_headers.push((name, value.to_string()));
        }
    }
    response
}

/// One subjob of a coordinated sweep, as gathered in ladder order.
enum SubjobOutcome {
    /// A worker (or the local fallback) produced the point.
    Point(ermes::SweepPoint),
    /// A worker answered with a deterministic non-retryable verdict
    /// (e.g. `422` for a deadlocking configuration) — relayed verbatim,
    /// exactly the bytes a local sweep would have produced for the
    /// first failing target.
    Verdict(ClientResponse),
    /// The local fallback itself failed (including cancellation).
    Local(ermes::ErmesError),
}

/// Coordinator path for `POST /sweep`: each ladder target is one subjob
/// keyed by `(spec, target)`, so repeat sweeps of one design land on
/// the same — warm — workers while the ladder spreads over the fleet.
/// Subjobs the cluster cannot serve (retries exhausted, no live
/// workers) are computed in-process: degraded mode trades throughput
/// for availability, never correctness. Points come back as exact
/// values ([`parse_point_wire`]) in ladder order and go through the
/// same [`ermes::prune_front`] + [`render_sweep_front`] as a local
/// sweep, which makes the response bytes identical at any worker
/// count, retry schedule, or failure pattern.
///
/// `None` (all workers `Down` before the fan-out starts) sends the
/// whole request down the local path with its pool admission control.
fn coordinator_sweep(
    inner: &Inner,
    cluster: &Arc<Cluster>,
    spec: &SystemSpec,
    params: &AnalysisParams,
) -> Option<Response> {
    if cluster
        .worker_states()
        .iter()
        .all(|(_, s)| *s == parx::HealthState::Down)
    {
        cluster.metrics.record_degraded();
        return None;
    }
    let design = spec.to_design().ok()?; // prechecked by the caller
    let spec_json = spec.to_json_pretty();
    let request_span = trace::span("request");
    trace::attr("endpoint", "sweep");
    trace::attr("fanout", params.targets.len());
    let cache = inner
        .caches
        .lock()
        .expect("cache lru poisoned")
        .get(&spec_json);
    let options = ermes::SweepOptions {
        jobs: 1,
        memoize: true,
    };
    let cancel = CancelToken::with_deadline(params.deadline);
    // Fan out every target at once: subjobs are network-bound waits,
    // so the thread count is the ladder length, not the local core
    // count. `par_map` preserves ladder order in the gather, which the
    // prune's tie-break depends on.
    let outcomes = parx::par_map(
        params.targets.len().max(1),
        &params.targets,
        |_, &target| {
            let key = shard_key(&spec_json, target);
            let path = format!("/shard/sweeppoint?target={target}");
            match cluster.dispatch(key, "POST", &path, spec_json.as_bytes()) {
                Ok(reply) if reply.status == 200 => {
                    match parse_point_wire(&String::from_utf8_lossy(&reply.body)) {
                        Some(point) => SubjobOutcome::Point(point),
                        // A 200 whose body does not parse is a worker
                        // bug or a truncation the transport missed;
                        // recompute rather than trust it.
                        None => local_point(cluster, &design, target, &options, &cache, &cancel),
                    }
                }
                Ok(reply) => SubjobOutcome::Verdict(reply),
                Err(_) => local_point(cluster, &design, target, &options, &cache, &cancel),
            }
        },
    );
    let total = params.targets.len();
    let mut points = Vec::with_capacity(total);
    let mut verdict = None;
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            SubjobOutcome::Point(point) => points.push(point),
            // First failure in ladder order wins, matching the serial
            // sweep's error report.
            SubjobOutcome::Verdict(reply) => {
                verdict = Some(relay(reply));
                break;
            }
            SubjobOutcome::Local(ermes::ErmesError::Cancelled { reason, .. }) => {
                // Re-scope to targets-within-the-sweep, as the engine's
                // own sweep loop does.
                verdict = Some(cancelled_response(inner, reason, index, total));
                break;
            }
            SubjobOutcome::Local(e) => {
                verdict = Some(error_response(inner, &CliError::Ermes(e)));
                break;
            }
        }
    }
    let response = verdict
        .unwrap_or_else(|| Response::text(200, render_sweep_front(&ermes::prune_front(points))));
    trace::attr(
        "outcome",
        if response.status == 200 {
            "ok"
        } else {
            "error"
        },
    );
    drop(request_span);
    Some(response)
}

/// Degraded-mode unit: computes one sweep target in-process when the
/// cluster could not serve it. Counted so operators see fleet trouble
/// even though clients never do.
fn local_point(
    cluster: &Arc<Cluster>,
    design: &ermes::Design,
    target: u64,
    options: &ermes::SweepOptions,
    cache: &EngineCache,
    cancel: &CancelToken,
) -> SubjobOutcome {
    cluster.metrics.record_degraded();
    // A degraded request is flight-recorder material even though its
    // root span will close with `outcome=ok` (the client never sees
    // cluster trouble).
    trace::flight::flag(trace::current_context().trace_id(), "degraded");
    match ermes::sweep_point(design.clone(), target, options, cache, Some(cancel)) {
        Ok(point) => SubjobOutcome::Point(point),
        Err(e) => SubjobOutcome::Local(e),
    }
}

/// `POST /shard/sweeppoint?target=N`: the worker-side unit of a
/// distributed sweep — one ladder target explored against the posted
/// spec, answered in the exact-value wire form ([`render_point_wire`])
/// so the coordinator reassembles *values*, never re-parsed rendered
/// text. Admission control, deadlines, cancellation, and panic
/// isolation behave exactly like the public endpoints, so coordinator
/// retries see the same shedding statuses human clients do. The
/// coordinator's trace context arrives in `x-ermes-trace`; the job's
/// spans parent under it, stitching one tree across nodes.
fn shard_sweep_point_endpoint(inner: &Inner, req: &Request, conn: Option<&TcpStream>) -> Outcome {
    const ENDPOINT: &str = "shard_sweeppoint";
    let _adopted = trace::adopt(parse_trace_header(req.header("x-ermes-trace")));
    let want_tree = req.header("x-ermes-trace-tree").is_some();
    let body = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => {
            return Outcome::reply(ENDPOINT, Response::text(400, "body is not UTF-8\n"));
        }
    };
    let spec = match crate::commands::parse_spec(body) {
        Ok(spec) => spec,
        Err(e) => {
            return Outcome::reply(ENDPOINT, Response::text(400, format!("{e}\n")));
        }
    };
    let design = match spec.to_design() {
        Ok(design) => design,
        Err(e) => {
            return Outcome::reply(ENDPOINT, Response::text(400, format!("spec error: {e}\n")));
        }
    };
    let target: u64 = match req.query_param("target") {
        None => {
            return Outcome::reply(
                ENDPOINT,
                Response::text(400, "sweeppoint requires ?target=<cycles>\n"),
            );
        }
        Some(text) => match text.parse() {
            Ok(target) => target,
            Err(_) => {
                return Outcome::reply(
                    ENDPOINT,
                    Response::text(400, "target must be a non-negative integer\n"),
                );
            }
        },
    };
    let deadline = match request_deadline(req, inner.default_deadline_ms) {
        Ok(deadline) => deadline,
        Err(msg) => return Outcome::reply(ENDPOINT, Response::text(400, msg + "\n")),
    };
    let cache = inner
        .caches
        .lock()
        .expect("cache lru poisoned")
        .get(&spec.to_json_pretty());
    let cancel = CancelToken::with_deadline(deadline);
    let job_token = cancel.clone();
    let request_span = trace::span("request");
    trace::attr("endpoint", ENDPOINT);
    trace::attr("target", target);
    let root_id = trace::current_context().parent();
    let job = move || {
        ermes::sweep_point(
            design,
            target,
            &ermes::SweepOptions {
                jobs: 1,
                memoize: true,
            },
            &cache,
            Some(&job_token),
        )
    };
    let result = inner.run_job(deadline, &cancel, conn, job);
    trace::attr(
        "outcome",
        match &result {
            Ok(Ok(_)) => "ok",
            Ok(Err(ermes::ErmesError::Cancelled { .. })) => "cancelled",
            Ok(Err(_)) => "error",
            Err(Shed::JobPanicked) => "panic",
            Err(_) => "shed",
        },
    );
    drop(request_span);
    let mut response = match result {
        Ok(Ok(point)) => Response::text(200, render_point_wire(&point)),
        Ok(Err(e)) => error_response(inner, &CliError::Ermes(e)),
        Err(shed) => shed_response(inner, &shed),
    };
    if want_tree {
        append_tree_trailer(&mut response, root_id);
    }
    let close_after = response.status == 499;
    Outcome {
        response,
        endpoint: ENDPOINT,
        close_after,
        initiate_shutdown: false,
    }
}

/// `POST /session`: parses the spec, runs the initial full analysis on
/// the worker pool, stores the resulting session, and answers with the
/// analysis — bit-identical to `POST /analyze` on the same spec — plus
/// an `x-ermes-session: {id}` header the client quotes back on edits.
fn session_open_endpoint(inner: &Inner, req: &Request, conn: Option<&TcpStream>) -> Outcome {
    const ENDPOINT: &str = "session_open";
    let body = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => {
            return Outcome::reply(ENDPOINT, Response::text(400, "body is not UTF-8\n"));
        }
    };
    let spec = match crate::commands::parse_spec(body) {
        Ok(spec) => spec,
        Err(e) => {
            return Outcome::reply(ENDPOINT, Response::text(400, format!("{e}\n")));
        }
    };
    // Like the stateless endpoints: schema errors never consume a
    // worker slot. The design built here is the one the session keeps.
    let design = match spec.to_design() {
        Ok(design) => design,
        Err(e) => {
            return Outcome::reply(ENDPOINT, Response::text(400, format!("spec error: {e}\n")));
        }
    };
    let deadline = match request_deadline(req, inner.default_deadline_ms) {
        Ok(deadline) => deadline,
        Err(msg) => return Outcome::reply(ENDPOINT, Response::text(400, msg + "\n")),
    };
    let cancel = CancelToken::with_deadline(deadline);
    let job_token = cancel.clone();
    let request_span = trace::span("request");
    trace::attr("endpoint", ENDPOINT);
    let job = move || {
        ermes::DeltaState::open_cancellable(design, Some(&job_token)).map(|state| {
            let body = render_session_report(&state);
            (state, body)
        })
    };
    let result = inner.run_job(deadline, &cancel, conn, job);
    trace::attr(
        "outcome",
        match &result {
            Ok(Ok(_)) => "ok",
            Ok(Err(ermes::ErmesError::Cancelled { .. })) => "cancelled",
            Ok(Err(_)) => "error",
            Err(Shed::JobPanicked) => "panic",
            Err(_) => "shed",
        },
    );
    drop(request_span);
    let response = match result {
        Ok(Ok((state, body))) => {
            let id = inner.sessions.insert(state);
            let mut response = Response::text(200, body);
            response
                .extra_headers
                .push(("x-ermes-session", id.to_string()));
            response
        }
        Ok(Err(e)) => error_response(inner, &CliError::Ermes(e)),
        Err(shed) => shed_response(inner, &shed),
    };
    let close_after = response.status == 499;
    Outcome {
        response,
        endpoint: ENDPOINT,
        close_after,
        initiate_shutdown: false,
    }
}

/// `POST /session/{id}/edit`: applies one reselect/reorder edit to the
/// session under its lock on the worker pool and answers with the full
/// re-analysis — bit-identical to `POST /analyze` on a spec capturing
/// the session's post-edit design, but computed incrementally (dirty-SCC
/// reprice for reselects, component-reusing rebuild for reorders).
///
/// A cancelled edit (deadline / disconnect / drain) leaves the edit
/// applied and the analysis pending; the next edit settles it first. A
/// *panicked* edit poisons only this session: the session is dropped,
/// the worker restarted, and every other session keeps working.
fn session_edit_endpoint(
    inner: &Inner,
    req: &Request,
    id: u64,
    conn: Option<&TcpStream>,
) -> Outcome {
    const ENDPOINT: &str = "session_edit";
    let Some(session) = inner.sessions.get(id) else {
        return Outcome::reply(ENDPOINT, Response::text(404, format!("no session {id}\n")));
    };
    let body = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => {
            return Outcome::reply(ENDPOINT, Response::text(400, "body is not UTF-8\n"));
        }
    };
    let edit = match parse_edit(body) {
        Ok(edit) => edit,
        Err(msg) => return Outcome::reply(ENDPOINT, Response::text(400, msg + "\n")),
    };
    let deadline = match request_deadline(req, inner.default_deadline_ms) {
        Ok(deadline) => deadline,
        Err(msg) => return Outcome::reply(ENDPOINT, Response::text(400, msg + "\n")),
    };
    let cancel = CancelToken::with_deadline(deadline);
    let job_token = cancel.clone();
    let request_span = trace::span("request");
    trace::attr("endpoint", ENDPOINT);
    trace::attr("session", id);
    // `None` = the session mutex is poisoned: an earlier edit panicked
    // on its worker while holding the lock.
    let job = move || -> Option<Result<String, CliError>> {
        let Ok(mut state) = session.lock() else {
            return None;
        };
        Some(
            apply_edit(&mut state, &edit, Some(&job_token)).map(|()| render_session_report(&state)),
        )
    };
    let result = inner.run_job(deadline, &cancel, conn, job);
    trace::attr(
        "outcome",
        match &result {
            Ok(Some(Ok(_))) => "ok",
            Ok(Some(Err(CliError::Ermes(ermes::ErmesError::Cancelled { .. })))) => "cancelled",
            Ok(Some(Err(_))) => "error",
            Ok(None) => "poisoned",
            Err(Shed::JobPanicked) => "panic",
            Err(_) => "shed",
        },
    );
    drop(request_span);
    let response = match result {
        Ok(Some(Ok(body))) => {
            inner.sessions.edits.fetch_add(1, Ordering::Relaxed);
            let mut response = Response::text(200, body);
            response
                .extra_headers
                .push(("x-ermes-session", id.to_string()));
            response
        }
        Ok(Some(Err(e))) => error_response(inner, &e),
        Ok(None) => {
            inner.sessions.remove(id, &inner.sessions.dropped);
            Response::text(
                500,
                format!("session {id} was corrupted by a panicked edit and has been dropped\n"),
            )
        }
        Err(Shed::JobPanicked) => {
            inner.metrics.record_job_panicked();
            inner.sessions.remove(id, &inner.sessions.dropped);
            Response::text(
                500,
                format!(
                    "analysis worker panicked on this edit; worker restarted, session {id} dropped\n"
                ),
            )
        }
        Err(shed) => shed_response(inner, &shed),
    };
    let close_after = response.status == 499;
    Outcome {
        response,
        endpoint: ENDPOINT,
        close_after,
        initiate_shutdown: false,
    }
}

/// `POST /session/{id}/verify`: certifies the session's *current*
/// design — after any number of incremental edits — deadlock-free (or
/// refutes it), bit-identical to `POST /verify` on a spec capturing the
/// session's present state. Runs on the worker pool under the session
/// lock with the same deadline/cancellation/panic rules as an edit; a
/// panicked verification drops only this session.
fn session_verify_endpoint(
    inner: &Inner,
    req: &Request,
    id: u64,
    conn: Option<&TcpStream>,
) -> Outcome {
    const ENDPOINT: &str = "session_verify";
    let Some(session) = inner.sessions.get(id) else {
        return Outcome::reply(ENDPOINT, Response::text(404, format!("no session {id}\n")));
    };
    let deadline = match request_deadline(req, inner.default_deadline_ms) {
        Ok(deadline) => deadline,
        Err(msg) => return Outcome::reply(ENDPOINT, Response::text(400, msg + "\n")),
    };
    let cancel = CancelToken::with_deadline(deadline);
    let job_token = cancel.clone();
    let request_span = trace::span("request");
    trace::attr("endpoint", ENDPOINT);
    trace::attr("session", id);
    // `None` = the session mutex is poisoned by an earlier panicked edit.
    let job = move || -> Option<Result<String, CliError>> {
        let Ok(state) = session.lock() else {
            return None;
        };
        Some(render_verify_system(
            state.design().system(),
            Some(&job_token),
        ))
    };
    let result = inner.run_job(deadline, &cancel, conn, job);
    trace::attr(
        "outcome",
        match &result {
            Ok(Some(Ok(_))) => "ok",
            Ok(Some(Err(CliError::Ermes(ermes::ErmesError::Cancelled { .. })))) => "cancelled",
            Ok(Some(Err(_))) => "error",
            Ok(None) => "poisoned",
            Err(Shed::JobPanicked) => "panic",
            Err(_) => "shed",
        },
    );
    drop(request_span);
    let response = match result {
        Ok(Some(Ok(body))) => {
            let mut response = Response::text(200, body);
            response
                .extra_headers
                .push(("x-ermes-session", id.to_string()));
            response
        }
        Ok(Some(Err(e))) => error_response(inner, &e),
        Ok(None) => {
            inner.sessions.remove(id, &inner.sessions.dropped);
            Response::text(
                500,
                format!("session {id} was corrupted by a panicked edit and has been dropped\n"),
            )
        }
        Err(Shed::JobPanicked) => {
            inner.metrics.record_job_panicked();
            inner.sessions.remove(id, &inner.sessions.dropped);
            Response::text(
                500,
                format!(
                    "analysis worker panicked verifying session {id}; worker restarted, session dropped\n"
                ),
            )
        }
        Err(shed) => shed_response(inner, &shed),
    };
    let close_after = response.status == 499;
    Outcome {
        response,
        endpoint: ENDPOINT,
        close_after,
        initiate_shutdown: false,
    }
}

/// `DELETE /session/{id}`: drops the session (no pool round-trip —
/// freeing the state is cheap and must work even under a full queue).
fn session_close_endpoint(inner: &Inner, id: u64) -> Outcome {
    const ENDPOINT: &str = "session_close";
    let response = if inner.sessions.remove(id, &inner.sessions.closed) {
        Response::text(200, format!("session {id} closed\n"))
    } else {
        Response::text(404, format!("no session {id}\n"))
    };
    Outcome::reply(ENDPOINT, response)
}

/// Maps a shed verdict to its HTTP shape, recording the matching
/// metric. `429`s carry a `retry-after` computed from the pool's
/// current backlog (see [`retry_after_secs`]).
fn shed_response(inner: &Inner, shed: &Shed) -> Response {
    let (status, message) = match shed {
        Shed::QueueFull => {
            inner.metrics.record_shed(true);
            (429, "admission queue full; retry later\n")
        }
        Shed::Deadline => {
            inner.metrics.record_shed(false);
            (429, "deadline expired before a worker was free\n")
        }
        Shed::ShuttingDown => (503, "server is draining\n"),
        Shed::JobPanicked => {
            inner.metrics.record_job_panicked();
            (
                500,
                "analysis worker panicked on this request; worker restarted\n",
            )
        }
    };
    let mut response = Response::text(status, message);
    if status == 429 {
        response
            .extra_headers
            .push(("retry-after", retry_after_secs(inner).to_string()));
    }
    response
}

/// Seconds a `429`'d client should wait before retrying, from the
/// pool's state at response time: the backlog (queued + running jobs)
/// divided by the worker count is how many drain rounds stand between
/// the client and a free worker. Clamped to `[1, 30]` — an idle server
/// still answers 1, a saturated one never suggests more than half a
/// minute.
fn retry_after_secs(inner: &Inner) -> u64 {
    let (depth, running, workers) = {
        let pool = inner.pool.lock().expect("pool slot poisoned");
        pool.as_ref()
            .map_or((0, 0, 0), |p| (p.queue_depth(), p.running(), p.workers()))
    };
    retry_after_from(depth, running, workers)
}

/// The pure backlog → retry-after mapping behind [`retry_after_secs`].
fn retry_after_from(queue_depth: usize, running: usize, workers: usize) -> u64 {
    ((queue_depth + running) as u64)
        .div_ceil(workers.max(1) as u64)
        .clamp(1, 30)
}

fn error_response(inner: &Inner, e: &CliError) -> Response {
    if let CliError::Ermes(ermes::ErmesError::Cancelled {
        reason,
        completed,
        total,
    }) = e
    {
        return cancelled_response(inner, *reason, *completed, *total);
    }
    match e {
        CliError::Json(_) | CliError::Spec(_) | CliError::Usage(_) => {
            Response::text(400, format!("{e}\n"))
        }
        CliError::Ermes(_) => Response::text(422, format!("{e}\n")),
    }
}

/// Maps a mid-execution cancellation to its HTTP shape: deadline → 429
/// (retryable — the work *was* admitted but ran out of time), client
/// disconnect → 499 (nobody left to answer), shutdown → 503. All three
/// carry the partial-progress metadata in the body and an
/// `x-ermes-progress: completed/total` header; the 429's `retry-after`
/// reflects the pool's backlog at response time (see
/// [`retry_after_secs`]).
fn cancelled_response(
    inner: &Inner,
    reason: CancelReason,
    completed: usize,
    total: usize,
) -> Response {
    let body = format!("cancelled ({reason}) after {completed} of {total} steps\n");
    let mut response = match reason {
        CancelReason::Deadline => {
            inner.metrics.record_cancelled_deadline();
            let mut r = Response::text(429, body);
            r.extra_headers
                .push(("retry-after", retry_after_secs(inner).to_string()));
            r
        }
        CancelReason::Disconnected => {
            inner.metrics.record_cancelled_disconnect();
            Response::text(499, body)
        }
        CancelReason::Shutdown => Response::text(503, body),
    };
    response
        .extra_headers
        .push(("x-ermes-progress", format!("{completed}/{total}")));
    response
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_lru_shares_and_evicts_by_recency() {
        let mut lru = CacheLru::new(2, 16);
        let a1 = lru.get("a");
        let a2 = lru.get("a");
        assert!(Arc::ptr_eq(&a1, &a2), "same design shares one cache");
        let _b = lru.get("b");
        let _a3 = lru.get("a"); // touch a, so b is now the oldest
        let _c = lru.get("c"); // evicts b
        assert!(lru.entries.contains_key("a"));
        assert!(lru.entries.contains_key("c"));
        assert!(!lru.entries.contains_key("b"), "LRU victim is b");
        let a4 = lru.get("a");
        assert!(Arc::ptr_eq(&a1, &a4), "survivor keeps its warmth");
    }

    #[test]
    fn cache_lru_aggregates_stats_over_live_caches() {
        let mut lru = CacheLru::new(4, 16);
        let spec = SystemSpec::from_json(
            r#"{
                "processes": [
                    {"name": "a", "latency": 2},
                    {"name": "b", "latency": 3}
                ],
                "channels": [
                    {"name": "f", "from": "a", "to": "b", "latency": 1},
                    {"name": "r", "from": "b", "to": "a", "latency": 1, "initial_tokens": 1}
                ]
            }"#,
        )
        .expect("valid");
        let design = spec.to_design().expect("valid");
        let cache = lru.get("x");
        cache.analyze(&design, 1);
        cache.analyze(&design, 1);
        let (stats, entries) = lru.aggregate();
        assert_eq!(stats.analysis_misses, 1);
        assert_eq!(stats.analysis_hits, 1);
        assert_eq!(entries, 1);
    }

    #[test]
    fn retry_after_scales_with_backlog() {
        assert_eq!(retry_after_from(0, 0, 4), 1, "idle server says 1");
        assert_eq!(retry_after_from(1, 1, 1), 2);
        assert_eq!(retry_after_from(8, 2, 2), 5);
        assert_eq!(retry_after_from(7, 1, 2), 4, "rounds up");
        assert_eq!(retry_after_from(1000, 16, 4), 30, "clamped at 30");
        assert_eq!(retry_after_from(3, 1, 0), 4, "zero workers treated as one");
    }

    #[test]
    fn deadline_zero_means_none() {
        let req = Request {
            method: "POST".into(),
            path: "/analyze".into(),
            query: vec![("deadline_ms".into(), "0".into())],
            headers: Vec::new(),
            body: Vec::new(),
        };
        let params = AnalysisParams::from_request(&req, "analyze", 500).expect("valid");
        assert!(params.deadline.is_none(), "explicit 0 disables the default");
    }

    #[test]
    fn bad_query_parameters_are_structured_errors() {
        let mut req = Request {
            method: "POST".into(),
            path: "/explore".into(),
            query: vec![("target".into(), "soon".into())],
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert!(AnalysisParams::from_request(&req, "explore", 0).is_err());
        req.query = vec![("target".into(), "10".into()), ("jobs".into(), "-2".into())];
        assert!(AnalysisParams::from_request(&req, "explore", 0).is_err());
        req.query = vec![("target".into(), "10".into())];
        assert!(AnalysisParams::from_request(&req, "explore", 0).is_ok());
    }
}
