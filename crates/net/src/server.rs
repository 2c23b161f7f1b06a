//! The fault-tolerant query server.
//!
//! One thread per connection, with four robustness properties the tests
//! pin:
//!
//! * **Per-tenant QoS** — each tenant id gets its own
//!   [`AdmissionGate`] (concurrency limit + bounded queue). A query past
//!   the queue bound receives a typed [`ShedReply`] with a retry-after
//!   hint instead of a hang, and the gate's cumulative shed count and
//!   queue depth are stamped into every response's [`QueryStats`].
//! * **Deadline propagation** — the request's wire budget compiles onto
//!   the *server's* clock, so a client deadline governs the engine's DTW
//!   loops exactly like a local one; partial results come back with their
//!   honest [`tw_core::Termination`] label.
//! * **Panic isolation** — the query handler runs under `catch_unwind`; a
//!   panicking query produces a typed internal-error reply and the
//!   connection (and server) keep serving.
//! * **Slow-client shedding** — a reply write that cannot drain within
//!   the write deadline drops *that* connection and nothing else; the
//!   [`ServerStats`] ledger records the drop.
//!
//! Every request frame resolves to exactly one ledger outcome —
//! response, shed, error reply, slow-client drop, or I/O drop — so
//! [`ServerStats::ledger_balanced`] holds at any quiescent point. The
//! drain protocol finishes in-flight queries, refuses new connections,
//! and returns the final reconciled counters.

// tw-ledger(scope): ServerStats, ServerCounters
// tw-ledger(cost): frames_read, responses_sent, frames_shed, error_replies, slow_client_drops, io_drops, bad_frames, handler_panics
// tw-ledger(gauge): connections_accepted, connections_closed

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use tw_core::govern::{Admission, AdmissionGate, Termination};
use tw_core::{QueryBudget, QueryStats, TwError};

use crate::error::NetError;
use crate::protocol::{
    encode_frame, ErrorCode, ErrorReply, Frame, FrameKind, QueryRequest, QueryResponse, ShedReply,
    WireHealth, WireMatch, DEFAULT_MAX_PAYLOAD,
};
use crate::stream::{read_frame, write_frame};

/// Admission limits for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQos {
    /// Queries running at once.
    pub max_concurrent: usize,
    /// Queries waiting for a slot; beyond this the gate sheds.
    pub max_queued: usize,
}

impl Default for TenantQos {
    fn default() -> Self {
        Self {
            max_concurrent: 4,
            max_queued: 8,
        }
    }
}

/// Server tuning knobs. The defaults suit tests and the CLI's `serve`;
/// production deployments mostly raise the timeouts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Frame payload bound, both directions.
    pub max_payload: u32,
    /// Whole-frame read deadline; doubles as the idle-connection timeout.
    pub read_timeout: Duration,
    /// Whole-frame write deadline; a client that cannot drain a reply
    /// within this is shed.
    pub write_timeout: Duration,
    /// OS-level poll interval that wakes the clock checks.
    pub poll_interval: Duration,
    /// Back-off hint carried by shed replies.
    pub retry_after_ms: u64,
    /// QoS for tenants without an explicit entry.
    pub default_qos: TenantQos,
    /// Per-tenant QoS overrides.
    pub tenant_qos: BTreeMap<u32, TenantQos>,
    /// The time source for every deadline this server enforces.
    pub clock: Arc<dyn tw_core::Clock>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_payload: DEFAULT_MAX_PAYLOAD,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(5),
            retry_after_ms: 100,
            default_qos: TenantQos::default(),
            tenant_qos: BTreeMap::new(),
            clock: Arc::new(tw_core::SystemClock::new()),
        }
    }
}

impl ServerConfig {
    fn qos_for(&self, tenant: u32) -> TenantQos {
        self.tenant_qos
            .get(&tenant)
            .copied()
            .unwrap_or(self.default_qos)
    }
}

/// What the query handler returns: the engine outcome flattened to wire
/// shape so the server can serialize it without knowing engine types.
#[derive(Debug, Clone, Default)]
pub struct ServiceOutcome {
    pub matches: Vec<WireMatch>,
    pub stats: QueryStats,
    pub health: WireHealth,
    pub termination: Termination,
}

impl From<tw_core::SearchOutcome> for ServiceOutcome {
    fn from(o: tw_core::SearchOutcome) -> Self {
        Self {
            matches: o
                .matches
                .iter()
                .map(|m| WireMatch {
                    id: m.id,
                    distance: m.distance,
                })
                .collect(),
            stats: o.query_stats,
            health: (&o.health).into(),
            termination: o.termination,
        }
    }
}

impl From<tw_core::KnnOutcome> for ServiceOutcome {
    fn from(o: tw_core::KnnOutcome) -> Self {
        Self {
            matches: o
                .matches
                .iter()
                .map(|m| WireMatch {
                    id: m.id,
                    distance: m.distance,
                })
                .collect(),
            stats: o.query_stats,
            health: WireHealth::Healthy,
            termination: o.termination,
        }
    }
}

/// The query engine behind the server: the CLI plugs in a sharded or
/// resilient search, tests plug in synthetic handlers.
pub trait QueryService: Send + Sync {
    /// Executes one query under `budget`. The budget is already compiled
    /// onto the server clock; implementations pass it to the engine's
    /// `EngineOpts`.
    fn execute(
        &self,
        request: &QueryRequest,
        budget: QueryBudget,
    ) -> Result<ServiceOutcome, TwError>;
}

/// Live server counters; lock-free so every connection thread can stamp
/// outcomes without contention.
#[derive(Debug, Default)]
pub struct ServerCounters {
    frames_read: AtomicU64,
    responses_sent: AtomicU64,
    frames_shed: AtomicU64,
    error_replies: AtomicU64,
    slow_client_drops: AtomicU64,
    io_drops: AtomicU64,
    bad_frames: AtomicU64,
    handler_panics: AtomicU64,
    connections_accepted: AtomicU64,
    connections_closed: AtomicU64,
}

impl ServerCounters {
    fn add_frames_read(&self) {
        self.frames_read.fetch_add(1, Ordering::Relaxed);
    }

    fn add_responses_sent(&self) {
        self.responses_sent.fetch_add(1, Ordering::Relaxed);
    }

    fn add_frames_shed(&self) {
        self.frames_shed.fetch_add(1, Ordering::Relaxed);
    }

    fn add_error_replies(&self) {
        self.error_replies.fetch_add(1, Ordering::Relaxed);
    }

    fn add_slow_client_drops(&self) {
        self.slow_client_drops.fetch_add(1, Ordering::Relaxed);
    }

    fn add_io_drops(&self) {
        self.io_drops.fetch_add(1, Ordering::Relaxed);
    }

    fn add_bad_frames(&self) {
        self.bad_frames.fetch_add(1, Ordering::Relaxed);
    }

    fn add_handler_panics(&self) {
        self.handler_panics.fetch_add(1, Ordering::Relaxed);
    }

    fn add_connections_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    fn add_connections_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// A coherent-enough snapshot (individual counters are exact; the set
    /// is racy only while queries are in flight).
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            frames_read: self.frames_read.load(Ordering::Relaxed),
            responses_sent: self.responses_sent.load(Ordering::Relaxed),
            frames_shed: self.frames_shed.load(Ordering::Relaxed),
            error_replies: self.error_replies.load(Ordering::Relaxed),
            slow_client_drops: self.slow_client_drops.load(Ordering::Relaxed),
            io_drops: self.io_drops.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
        }
    }
}

/// The server's frame-accounting ledger.
///
/// Every request frame that decodes ([`ServerStats::frames_read`])
/// resolves to exactly one outcome, so at any quiescent point:
///
/// ```text
/// frames_read == responses_sent + frames_shed + error_replies
///                + slow_client_drops + io_drops
/// ```
///
/// `bad_frames` counts frames that *failed* to decode (they never enter
/// `frames_read`), and `handler_panics` details how many `error_replies`
/// came from a caught panic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Request frames that passed magic/version/kind/CRC checks.
    pub frames_read: u64,
    /// Result frames fully written to the client.
    pub responses_sent: u64,
    /// Typed shed replies fully written under overload.
    pub frames_shed: u64,
    /// Typed error replies fully written (malformed request, engine
    /// failure, or caught panic).
    pub error_replies: u64,
    /// Connections dropped because a reply write missed its deadline.
    pub slow_client_drops: u64,
    /// Connections dropped because a reply write failed at the OS level.
    pub io_drops: u64,
    /// Frames refused by a typed decode error (corruption detected).
    pub bad_frames: u64,
    /// Queries whose handler panicked (isolated; detail of
    /// `error_replies` or a drop).
    pub handler_panics: u64,
    /// Lifetime connections accepted (monotone gauge).
    pub connections_accepted: u64,
    /// Lifetime connections closed (monotone gauge).
    pub connections_closed: u64,
}

impl ServerStats {
    /// Sums another snapshot into this one (multi-server aggregation).
    pub fn merge(&mut self, other: &ServerStats) {
        self.frames_read += other.frames_read;
        self.responses_sent += other.responses_sent;
        self.frames_shed += other.frames_shed;
        self.error_replies += other.error_replies;
        self.slow_client_drops += other.slow_client_drops;
        self.io_drops += other.io_drops;
        self.bad_frames += other.bad_frames;
        self.handler_panics += other.handler_panics;
        self.connections_accepted += other.connections_accepted;
        self.connections_closed += other.connections_closed;
    }

    /// Whether every decoded frame is accounted to exactly one outcome.
    pub fn ledger_balanced(&self) -> bool {
        self.frames_read
            == self.responses_sent
                + self.frames_shed
                + self.error_replies
                + self.slow_client_drops
                + self.io_drops
    }
}

/// The counters a finished drain hands back.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// The frame ledger at shutdown.
    pub server: ServerStats,
    /// Every completed query's [`QueryStats`], merged.
    pub aggregate: QueryStats,
}

struct Shared {
    config: ServerConfig,
    service: Arc<dyn QueryService>,
    counters: ServerCounters,
    gates: Mutex<BTreeMap<u32, Arc<AdmissionGate>>>,
    aggregate: Mutex<QueryStats>,
    stop: AtomicBool,
    active: AtomicU64,
}

impl Shared {
    fn gate_for(&self, tenant: u32) -> Arc<AdmissionGate> {
        let qos = self.config.qos_for(tenant);
        let mut gates = self.gates.lock();
        Arc::clone(
            gates
                .entry(tenant)
                .or_insert_with(|| AdmissionGate::new(qos.max_concurrent.max(1), qos.max_queued)),
        )
    }
}

/// A running TCP query server. Dropping it stops the accept loop;
/// [`Server::drain`] additionally waits for in-flight connections.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn bind(
        addr: &str,
        service: Arc<dyn QueryService>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            service,
            counters: ServerCounters::default(),
            gates: Mutex::new(BTreeMap::new()),
            aggregate: Mutex::new(QueryStats::default()),
            stop: AtomicBool::new(false),
            active: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Self {
            shared,
            accept: Some(accept),
            addr: local,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current frame-ledger snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// Every completed query's stats, merged so far.
    pub fn aggregate_stats(&self) -> QueryStats {
        *self.shared.aggregate.lock()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> u64 {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting, let in-flight queries finish,
    /// then return the reconciled counters.
    pub fn drain(mut self) -> DrainReport {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        while self.shared.active.load(Ordering::Acquire) > 0 {
            self.shared
                .config
                .clock
                .sleep(self.shared.config.poll_interval);
        }
        DrainReport {
            server: self.shared.counters.snapshot(),
            aggregate: *self.shared.aggregate.lock(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            // Drain: the listener drops with this frame, so later connect
            // attempts are refused by the OS.
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                shared.counters.add_connections_accepted();
                shared.active.fetch_add(1, Ordering::AcqRel);
                let conn_shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    let guard = ConnGuard {
                        shared: conn_shared,
                    };
                    let mut stream = stream;
                    handle_connection(&guard.shared, &mut stream);
                });
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                shared.config.clock.sleep(shared.config.poll_interval);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => shared.config.clock.sleep(shared.config.poll_interval),
        }
    }
}

/// Decrements the live-connection count (and bumps the closed gauge) even
/// if the connection thread unwinds.
struct ConnGuard {
    shared: Arc<Shared>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.counters.add_connections_closed();
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What happened to one reply write.
enum SendOutcome {
    Sent,
    TimedOut,
    Failed,
}

fn send_reply(
    shared: &Shared,
    stream: &mut TcpStream,
    kind: FrameKind,
    payload: &[u8],
) -> SendOutcome {
    let bytes = match encode_frame(kind, payload, shared.config.max_payload) {
        Ok(b) => b,
        Err(_) => return SendOutcome::Failed,
    };
    match write_frame(
        stream,
        shared.config.clock.as_ref(),
        shared.config.write_timeout,
        shared.config.poll_interval,
        &bytes,
    ) {
        Ok(()) => SendOutcome::Sent,
        Err(NetError::WriteTimeout) => SendOutcome::TimedOut,
        Err(_) => SendOutcome::Failed,
    }
}

/// Whether the connection should keep serving after a request.
enum Disposition {
    Continue,
    Close,
}

fn handle_connection(shared: &Arc<Shared>, stream: &mut TcpStream) {
    loop {
        let frame = match read_frame(
            stream,
            shared.config.clock.as_ref(),
            shared.config.read_timeout,
            shared.config.poll_interval,
            shared.config.max_payload,
            Some(&shared.stop),
        ) {
            Ok(frame) => frame,
            Err(NetError::Frame(e)) => {
                // Corruption detected: answer with a typed error, then
                // close — the byte stream is no longer frame-aligned.
                shared.counters.add_bad_frames();
                let reply = ErrorReply {
                    code: ErrorCode::MalformedFrame,
                    message: format!("{e}"),
                };
                let _ = send_reply(shared, stream, FrameKind::Error, &reply.encode());
                return;
            }
            // Clean close, drain, idle timeout, or transport failure: the
            // connection ends without an unaccounted frame.
            Err(_) => return,
        };
        shared.counters.add_frames_read();
        match handle_request(shared, stream, &frame) {
            Disposition::Continue => {}
            Disposition::Close => return,
        }
    }
}

fn handle_request(shared: &Arc<Shared>, stream: &mut TcpStream, frame: &Frame) -> Disposition {
    let request = match QueryRequest::decode(frame.kind, &frame.payload) {
        Ok(request) => request,
        Err(e) => {
            let reply = ErrorReply {
                code: ErrorCode::MalformedRequest,
                message: format!("{e}"),
            };
            // Framing stayed aligned, so the connection may continue.
            return settle(
                shared,
                stream,
                FrameKind::Error,
                &reply.encode(),
                ReplyKind::Error,
            );
        }
    };

    let gate = shared.gate_for(request.tenant);
    let permit = match gate.admit() {
        Admission::Granted(permit) => permit,
        Admission::Shed => {
            let reply = ShedReply {
                retry_after_ms: shared.config.retry_after_ms,
                queue_depth: u64::try_from(gate.queued()).unwrap_or(u64::MAX),
                shed_total: gate.shed_count(),
            };
            return settle(
                shared,
                stream,
                FrameKind::Shed,
                &reply.encode(),
                ReplyKind::Shed,
            );
        }
    };

    let budget = request.budget.to_budget(Arc::clone(&shared.config.clock));
    let service = Arc::clone(&shared.service);
    let result = catch_unwind(AssertUnwindSafe(|| service.execute(&request, budget)));
    drop(permit);

    match result {
        Ok(Ok(mut outcome)) => {
            gate.stamp(&mut outcome.stats);
            shared.aggregate.lock().merge(&outcome.stats);
            let response = QueryResponse {
                termination: outcome.termination,
                health: outcome.health,
                stats: outcome.stats,
                matches: outcome.matches,
            };
            let payload = response.encode();
            if encode_frame(FrameKind::Response, &payload, shared.config.max_payload).is_err() {
                let reply = ErrorReply {
                    code: ErrorCode::Internal,
                    message: "response exceeds the frame bound".to_string(),
                };
                return settle(
                    shared,
                    stream,
                    FrameKind::Error,
                    &reply.encode(),
                    ReplyKind::Error,
                );
            }
            settle(
                shared,
                stream,
                FrameKind::Response,
                &payload,
                ReplyKind::Response,
            )
        }
        Ok(Err(e)) => {
            let reply = ErrorReply {
                code: ErrorCode::QueryFailed,
                message: format!("{e}"),
            };
            settle(
                shared,
                stream,
                FrameKind::Error,
                &reply.encode(),
                ReplyKind::Error,
            )
        }
        Err(_panic) => {
            // The handler thread survives; the client learns the query
            // died; the permit already released on drop.
            shared.counters.add_handler_panics();
            let reply = ErrorReply {
                code: ErrorCode::Internal,
                message: "query handler panicked".to_string(),
            };
            settle(
                shared,
                stream,
                FrameKind::Error,
                &reply.encode(),
                ReplyKind::Error,
            )
        }
    }
}

/// Which success counter a sent reply bills to.
enum ReplyKind {
    Response,
    Shed,
    Error,
}

/// Writes a reply and accounts the request frame to exactly one ledger
/// outcome: the reply kind on success, a drop counter on failure.
fn settle(
    shared: &Shared,
    stream: &mut TcpStream,
    kind: FrameKind,
    payload: &[u8],
    reply: ReplyKind,
) -> Disposition {
    match send_reply(shared, stream, kind, payload) {
        SendOutcome::Sent => {
            match reply {
                ReplyKind::Response => shared.counters.add_responses_sent(),
                ReplyKind::Shed => shared.counters.add_frames_shed(),
                ReplyKind::Error => shared.counters.add_error_replies(),
            }
            Disposition::Continue
        }
        SendOutcome::TimedOut => {
            shared.counters.add_slow_client_drops();
            Disposition::Close
        }
        SendOutcome::Failed => {
            shared.counters.add_io_drops();
            Disposition::Close
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig};
    use crate::protocol::{QueryKind, Reply, WireBudget};
    use tw_core::SystemClock;

    /// Echoes the request back: one match per value, distance = value.
    struct EchoService;

    impl QueryService for EchoService {
        fn execute(
            &self,
            request: &QueryRequest,
            _budget: QueryBudget,
        ) -> Result<ServiceOutcome, TwError> {
            let matches = request
                .values
                .iter()
                .enumerate()
                .map(|(i, v)| WireMatch {
                    id: u64::try_from(i).unwrap_or(u64::MAX),
                    distance: *v,
                })
                .collect::<Vec<_>>();
            let stats = QueryStats {
                candidates: u64::try_from(matches.len()).unwrap_or(0),
                verified: u64::try_from(matches.len()).unwrap_or(0),
                ..Default::default()
            };
            Ok(ServiceOutcome {
                matches,
                stats,
                health: WireHealth::Healthy,
                termination: Termination::Complete,
            })
        }
    }

    /// Panics on every query.
    struct PanickingService;

    impl QueryService for PanickingService {
        fn execute(&self, _: &QueryRequest, _: QueryBudget) -> Result<ServiceOutcome, TwError> {
            panic!("synthetic handler panic");
        }
    }

    fn request(values: Vec<f64>) -> QueryRequest {
        QueryRequest {
            tenant: 1,
            budget: WireBudget::default(),
            kind: QueryKind::Range { epsilon: 0.5 },
            values,
        }
    }

    fn client_for(server: &Server) -> Client<TcpStream> {
        Client::connect(
            &server.local_addr().to_string(),
            Arc::new(SystemClock::new()),
            ClientConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn serves_queries_and_drains_with_balanced_ledger() {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(EchoService),
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = client_for(&server);
        for round in 0..3 {
            let reply = client.call(&request(vec![1.0, 2.0, 3.0])).unwrap();
            match reply {
                Reply::Outcome(resp) => {
                    assert_eq!(resp.matches.len(), 3, "round {round}");
                    assert_eq!(resp.termination, Termination::Complete);
                }
                other => panic!("expected outcome, got {other:?}"),
            }
        }
        drop(client);
        let report = server.drain();
        assert_eq!(report.server.frames_read, 3);
        assert_eq!(report.server.responses_sent, 3);
        assert!(report.server.ledger_balanced(), "{:?}", report.server);
        assert_eq!(report.aggregate.candidates, 9);
    }

    #[test]
    fn handler_panic_is_isolated_and_typed() {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(PanickingService),
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = client_for(&server);
        match client.call(&request(vec![1.0])).unwrap() {
            Reply::Error(e) => assert_eq!(e.code, ErrorCode::Internal),
            other => panic!("expected error reply, got {other:?}"),
        }
        // The same connection keeps working after the panic.
        match client.call(&request(vec![2.0])).unwrap() {
            Reply::Error(e) => assert_eq!(e.code, ErrorCode::Internal),
            other => panic!("expected error reply, got {other:?}"),
        }
        drop(client);
        let report = server.drain();
        assert_eq!(report.server.handler_panics, 2);
        assert_eq!(report.server.error_replies, 2);
        assert!(report.server.ledger_balanced());
    }

    #[test]
    fn drained_server_refuses_new_connections() {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(EchoService),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let _report = server.drain();
        assert!(TcpStream::connect(&addr).is_err());
    }
}
