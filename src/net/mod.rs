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
//! * **The codec** ([`codec`]) every front end shares — one grammar, one
//!   response shape, one error shape, and one `stats` answer: every
//!   listener of a service counts into the service's
//!   [`crate::MetricsRegistry`], so `stats` reports the same connection
//!   and frame totals over stdin, TCP and unix.
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
