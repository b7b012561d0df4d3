//! `afp::net` — the networked front end of a [`crate::Service`].
//!
//! The service already owns everything a server needs on the write side:
//! one dedicated writer thread, a bounded submission queue with
//! immediate [`crate::Error::Overloaded`] refusals, per-submission
//! deadlines, and deterministic [`crate::Shutdown`] (see
//! [`crate::service`]). This module adds the transport in front of it:
//!
//! * **A length-prefixed transport** ([`NetServer`], `server.rs`) over
//!   TCP and unix sockets, fronting the same command protocol the
//!   stdin `--serve` mode speaks: each frame is a 4-byte big-endian
//!   length followed by one UTF-8 command line (requests) or one JSON
//!   object (responses). One thread per connection reads over pinned
//!   [`crate::ModelSnapshot`]s lock-free; writes funnel through the
//!   service's one write queue, so N connections get exactly the
//!   single-writer/coalescing semantics of in-process callers.
//!   Connection limits and read/write timeouts bound resource use.
//!
//! * **The codec** ([`codec`]) both front ends share — one grammar, one
//!   response shape, one error shape, and one stats serializer
//!   ([`codec::stats_json`]) so the `--stats` JSON and plain outputs
//!   cannot drift.
//!
//! ```
//! use afp::net::codec::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
//! use afp::{Engine, NetOptions, NetServer};
//! use std::net::TcpStream;
//!
//! let service = Engine::default()
//!     .serve("wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).")
//!     .unwrap();
//! let server = NetServer::bind_tcp(service.clone(), "127.0.0.1:0", NetOptions::default()).unwrap();
//!
//! // One framed request, one framed JSON response.
//! let mut conn = TcpStream::connect(server.addr()).unwrap();
//! write_frame(&mut conn, b"assert-facts move(c, d).").unwrap();
//! let reply = read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
//! assert_eq!(reply, b"{\"ok\":true,\"version\":1}");
//! assert_eq!(service.version(), 1);
//!
//! server.shutdown();
//! ```

pub mod codec;
pub mod server;

pub use server::{NetOptions, NetServer};

use crate::Service;

/// Counters for the networked tier, merged across the service's write
/// queue ([`Service::queue_stats`]) and the transport ([`NetServer`]);
/// surfaced through the `stats` protocol command and CLI `--stats` via
/// [`codec::stats_json`]. Connection fields stay zero in
/// [`Service::queue_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Submissions accepted into the write queue.
    pub submitted: u64,
    /// Submissions whose cycle completed (successfully or not).
    pub completed: u64,
    /// Submissions refused at admission because the queue was full
    /// ([`crate::Error::Overloaded`]).
    pub overloaded: u64,
    /// Queued submissions expired by their deadline before their cycle
    /// ran ([`crate::Error::SubmitTimeout`]).
    pub timed_out: u64,
    /// Submissions failed by shutdown ([`crate::Error::ServiceStopped`])
    /// or a writer panic ([`crate::Error::WriterAborted`]).
    pub aborted: u64,
    /// Current queue depth (instantaneous).
    pub queue_depth: u64,
    /// High-water mark of the queue depth since start.
    pub queue_depth_hwm: u64,
    /// Submissions in the writer thread's most recent cycle batch (the
    /// per-cycle coalesce width).
    pub last_cycle_width: u64,
    /// Largest cycle batch the writer thread has run.
    pub max_cycle_width: u64,
    /// p50 of submit→completion latency over the recent-write window,
    /// in microseconds (0 until the first completion).
    pub write_p50_us: u64,
    /// p99 of submit→completion latency over the recent-write window,
    /// in microseconds.
    pub write_p99_us: u64,
    /// Connections accepted by the transport.
    pub conns_accepted: u64,
    /// Connections refused at the connection limit.
    pub conns_rejected: u64,
    /// Connections currently open.
    pub conns_open: u64,
    /// Request frames read off all connections.
    pub frames_in: u64,
    /// Response frames written to all connections.
    pub frames_out: u64,
}

crate::telemetry::stat_set!(NetStats {
    submitted,
    completed,
    overloaded,
    timed_out,
    aborted,
    queue_depth,
    queue_depth_hwm,
    last_cycle_width,
    max_cycle_width,
    write_p50_us,
    write_p99_us,
    conns_accepted,
    conns_rejected,
    conns_open,
    frames_in,
    frames_out,
});

/// Compatibility name for a [`Service`], kept for existing callers. It
/// adds nothing: every method is the [`Service`]'s, through `Deref`.
#[doc(hidden)]
#[derive(Debug)]
pub struct AsyncService(Service);

impl AsyncService {
    /// Wrap `service`; `options` carries nothing.
    pub fn new(service: Service, _options: AsyncOptions) -> AsyncService {
        AsyncService(service)
    }
}

impl std::ops::Deref for AsyncService {
    type Target = Service;

    fn deref(&self) -> &Service {
        &self.0
    }
}

/// Empty options for [`AsyncService::new`]; the queue bounds live in
/// [`crate::ServiceOptions`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct AsyncOptions;
