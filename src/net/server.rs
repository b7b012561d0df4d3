//! The length-prefixed transport: TCP and unix-socket front ends over
//! one shared [`Service`].
//!
//! Wire format: every frame is a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8. Client→server payloads are
//! single command lines in the exact grammar the stdin `--serve` mode
//! reads (see [`super::codec`]); server→client payloads are single JSON
//! objects — the same ones `--serve --json` prints. One request frame
//! yields exactly one response frame, in order, except `quit`, which
//! closes the connection without a reply.
//!
//! Threading model: one OS thread per connection. Read commands run
//! against pinned [`crate::ModelSnapshot`]s on the connection's own
//! thread — lock-free, so N readers scale exactly like in-process
//! readers. Write commands funnel into the service's one write queue
//! and block their own connection only; admission-control verdicts
//! ([`crate::Error::Overloaded`], [`crate::Error::SubmitTimeout`]) come
//! back as structured error frames. A connection arriving while the
//! service already has [`NetOptions::max_conns`] open is refused with
//! one error frame; idle connections are dropped after
//! [`NetOptions::read_timeout`]. Every listener counts connections and
//! frames into the service's [`crate::MetricsRegistry`].

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use super::codec::{self, execute, parse_command, render_json, write_frame, Request, Response};
use crate::Service;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetOptions {
    /// Maximum concurrently open connections, counted over every
    /// listener of the service. Arrivals beyond the limit receive one
    /// `{"error":{"kind":"overloaded",…}}` frame and are closed — refused
    /// loudly, not queued silently.
    pub max_conns: usize,
    /// Drop a connection that sends no complete request for this long.
    /// `None` = wait forever (shutdown can still force-close it).
    pub read_timeout: Option<Duration>,
    /// Give up on a client that won't accept its response for this long.
    pub write_timeout: Option<Duration>,
    /// Refuse request frames larger than this many bytes.
    pub max_frame_len: u32,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            max_conns: 32,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_frame_len: codec::DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// One duplex byte stream, TCP or unix — just enough of a facade that
/// the accept loop and connection loop are written once.
trait Conn: Read + Write + Send {
    fn configure(&self, options: &NetOptions) -> io::Result<()>;
    fn shutdown_both(&self);
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>>;
}

impl Conn for TcpStream {
    fn configure(&self, options: &NetOptions) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(options.read_timeout)?;
        self.set_write_timeout(options.write_timeout)?;
        self.set_nodelay(true)
    }
    fn shutdown_both(&self) {
        let _ = TcpStream::shutdown(self, std::net::Shutdown::Both);
    }
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
}

impl Conn for UnixStream {
    fn configure(&self, options: &NetOptions) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(options.read_timeout)?;
        self.set_write_timeout(options.write_timeout)
    }
    fn shutdown_both(&self) {
        let _ = UnixStream::shutdown(self, std::net::Shutdown::Both);
    }
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
}

trait Listener: Send {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>>;
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
}

impl Listener for TcpListener {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        self.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>)
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpListener::set_nonblocking(self, nonblocking)
    }
}

impl Listener for UnixListener {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        self.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>)
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixListener::set_nonblocking(self, nonblocking)
    }
}

struct Inner {
    service: Service,
    options: NetOptions,
    stop: AtomicBool,
    /// A clone of every open connection's stream, by connection id, so
    /// shutdown can force blocked reads to return. A connection's thread
    /// removes its clone as it ends, closing it.
    conns: Mutex<Vec<(u64, Box<dyn Conn>)>>,
    /// Connection threads not joined yet; the accept loop joins the
    /// finished ones.
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
}

/// One listening socket (TCP or unix) serving the framed protocol over
/// a shared [`Service`]. Several servers may share one service — the
/// CLI binds `--listen` and `--socket` to the same one — and shutting a
/// server down never stops the service's writer thread.
pub struct NetServer {
    inner: Arc<Inner>,
    accept: Mutex<Option<JoinHandle<()>>>,
    addr: String,
    unix_path: Option<PathBuf>,
}

impl NetServer {
    /// Bind a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral port;
    /// [`NetServer::addr`] reports what was actually bound) and start
    /// accepting.
    pub fn bind_tcp(
        service: Service,
        addr: impl ToSocketAddrs,
        options: NetOptions,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?.to_string();
        Ok(NetServer::start(
            service,
            Box::new(listener),
            options,
            addr,
            None,
        ))
    }

    /// Bind a unix-domain socket at `path` and start accepting. The
    /// socket file is removed on shutdown — which a crashed process
    /// never reached, so a **stale** socket file (nothing listening
    /// behind it) is probed with a connect attempt and removed, letting
    /// the restarted server bind where its predecessor died. A file
    /// something *does* answer on is another live server: that bind
    /// fails with a clear `AddrInUse` error instead.
    ///
    /// The probe-then-remove pair is not atomic: a second server that
    /// binds the path between the failed probe and the `remove_file`
    /// has its socket deleted out from under it, and both servers then
    /// believe they own the address. This is fine under the intended
    /// deployment — one supervisor restarting one server per path —
    /// but concurrent *competing* starts on the same path need an
    /// external lock (e.g. `flock` on a sidecar file) to serialize.
    pub fn bind_unix(
        service: Service,
        path: impl AsRef<Path>,
        options: NetOptions,
    ) -> io::Result<NetServer> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            match UnixStream::connect(&path) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("another server is live on {}", path.display()),
                    ));
                }
                Err(_) => {
                    // Dead socket left by a crashed predecessor.
                    std::fs::remove_file(&path)?;
                }
            }
        }
        let listener = UnixListener::bind(&path)?;
        let addr = path.display().to_string();
        Ok(NetServer::start(
            service,
            Box::new(listener),
            options,
            addr,
            Some(path),
        ))
    }

    fn start(
        service: Service,
        listener: Box<dyn Listener>,
        options: NetOptions,
        addr: String,
        unix_path: Option<PathBuf>,
    ) -> NetServer {
        let inner = Arc::new(Inner {
            service,
            options,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("afp-net-accept".into())
                .spawn(move || accept_loop(listener, &inner))
                .expect("spawn accept thread")
        };
        NetServer {
            inner,
            accept: Mutex::new(Some(accept)),
            addr,
            unix_path,
        }
    }

    /// The bound address: `host:port` for TCP (with the real port even
    /// when bound to port 0), the socket path for unix.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop accepting, force-close every open connection, and join all
    /// transport threads. Idempotent. The shared [`Service`] is left
    /// running — shut it down separately once every server fronting it
    /// is down.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = lock(&self.accept).take() {
            let _ = handle.join();
        }
        for (_, conn) in lock(&self.inner.conns).drain(..) {
            conn.shutdown_both();
        }
        for handle in lock(&self.inner.workers).drain(..) {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// The stream clones and connection threads the server still holds:
    /// both fall to zero once every connection has ended and the accept
    /// loop has joined its thread.
    #[doc(hidden)]
    pub fn held_for_testing(&self) -> (usize, usize) {
        (
            lock(&self.inner.conns).len(),
            lock(&self.inner.workers).len(),
        )
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Accept until told to stop. The listener runs nonblocking with a
/// short sleep so a stop flag is noticed promptly without a wake-up
/// channel; accepted streams are switched back to blocking mode. Each
/// turn joins the connection threads that have finished.
fn accept_loop(listener: Box<dyn Listener>, inner: &Arc<Inner>) {
    let _ = listener.set_nonblocking(true);
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let finished: Vec<_> = lock(&inner.workers)
            .extract_if(.., |worker| worker.is_finished())
            .collect();
        for worker in finished {
            let _ = worker.join();
        }
        match listener.accept_conn() {
            Ok(conn) => admit(conn, inner),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn admit(mut conn: Box<dyn Conn>, inner: &Arc<Inner>) {
    let m = inner.service.metrics();
    // Claim the slot first, so listeners admitting at once cannot
    // overshoot the limit between them.
    if m.conns_open.add(1) > inner.options.max_conns as i64 {
        m.conns_open.add(-1);
        m.conns_rejected.add(1);
        let refusal = Response::Error {
            kind: "overloaded",
            message: format!(
                "connection limit {} reached; retry later",
                inner.options.max_conns
            ),
        };
        let _ = conn.configure(&inner.options);
        let _ = write_frame(&mut *conn, render_json(&refusal).as_bytes());
        conn.shutdown_both();
        return;
    }
    if conn.configure(&inner.options).is_err() {
        m.conns_open.add(-1);
        conn.shutdown_both();
        return;
    }
    m.conns_accepted.add(1);
    let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = conn.try_clone_conn() {
        lock(&inner.conns).push((id, clone));
    }
    let worker = {
        let inner = Arc::clone(inner);
        std::thread::Builder::new()
            .name("afp-net-conn".into())
            .spawn(move || {
                serve_conn(conn, &inner);
                lock(&inner.conns).retain(|(conn_id, _)| *conn_id != id);
                inner.service.metrics().conns_open.add(-1);
            })
            .expect("spawn connection thread")
    };
    lock(&inner.workers).push(worker);
}

/// One connection's request/response loop. Command failures are
/// reported as error frames and the loop continues; transport failures
/// (mid-frame EOF, timeouts, oversized frames, broken pipes) end the
/// connection.
fn serve_conn(mut conn: Box<dyn Conn>, inner: &Arc<Inner>) {
    let (m, telemetry) = (inner.service.metrics(), inner.service.telemetry());
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let payload = match codec::read_frame(&mut *conn, inner.options.max_frame_len) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => break,
        };
        m.frames_in.add(1);
        // Request latency: frame parsed → response frame written. Read
        // idle time (the client thinking) is deliberately excluded.
        let started = std::time::Instant::now();
        let line = String::from_utf8_lossy(&payload);
        let response = match parse_command(&line) {
            Ok(Request::Quit) => break,
            Ok(request) => execute(&inner.service, &request),
            Err(message) => Response::protocol_error(message),
        };
        if write_frame(&mut *conn, render_json(&response).as_bytes()).is_err() {
            break;
        }
        m.frames_out.add(1);
        telemetry.record_request(m, started.elapsed().as_nanos() as u64);
    }
    conn.shutdown_both();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Shutdown};

    const WIN_MOVE: &str =
        "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).";

    fn service() -> Service {
        Engine::default().serve(WIN_MOVE).unwrap()
    }

    fn send(conn: &mut TcpStream, line: &str) -> String {
        write_frame(conn, line.as_bytes()).unwrap();
        let payload = codec::read_frame(conn, codec::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("response frame");
        String::from_utf8(payload).unwrap()
    }

    #[test]
    fn tcp_round_trip_speaks_the_serve_protocol() {
        let service = service();
        let server =
            NetServer::bind_tcp(service.clone(), "127.0.0.1:0", NetOptions::default()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();

        assert_eq!(
            send(&mut conn, "query wins(b)"),
            "{\"version\":0,\"query\":\"wins(b)\",\"truth\":\"true\"}"
        );
        assert_eq!(
            send(&mut conn, "assert-facts move(c, d)."),
            "{\"ok\":true,\"version\":1}"
        );
        assert_eq!(
            send(&mut conn, "query wins(c)"),
            "{\"version\":1,\"query\":\"wins(c)\",\"truth\":\"true\"}"
        );
        assert_eq!(send(&mut conn, "version"), "{\"version\":1}");

        // Malformed commands are error frames, not connection errors.
        let err = send(&mut conn, "bogus nonsense");
        assert!(
            err.starts_with("{\"error\":{\"kind\":\"protocol\""),
            "{err}"
        );
        let err = send(&mut conn, "at 99 wins(a)");
        assert!(err.contains("\"kind\":\"version-evicted\""), "{err}");
        // …and the connection still works afterwards.
        assert_eq!(send(&mut conn, "version"), "{\"version\":1}");

        // quit closes without a reply frame.
        write_frame(&mut conn, b"quit").unwrap();
        assert!(codec::read_frame(&mut conn, codec::DEFAULT_MAX_FRAME_LEN)
            .map(|f| f.is_none())
            .unwrap_or(true));

        let m = service.metrics();
        assert_eq!(m.conns_accepted.get(), 1);
        assert_eq!(m.frames_in.get(), 8);
        assert_eq!(m.frames_out.get(), 7, "quit is unanswered");
        server.shutdown();
        service.shutdown(Shutdown::Drain);
    }

    #[test]
    fn connection_limit_refuses_loudly() {
        let service = service();
        let options = NetOptions {
            max_conns: 1,
            ..NetOptions::default()
        };
        let server = NetServer::bind_tcp(service.clone(), "127.0.0.1:0", options).unwrap();
        let mut first = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(send(&mut first, "version"), "{\"version\":0}");

        // Second connection: one overloaded frame, then EOF.
        let mut second = TcpStream::connect(server.addr()).unwrap();
        let refusal = codec::read_frame(&mut second, codec::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("refusal frame");
        let refusal = String::from_utf8(refusal).unwrap();
        assert!(
            refusal.starts_with("{\"error\":{\"kind\":\"overloaded\""),
            "{refusal}"
        );

        let m = service.metrics();
        assert_eq!(m.conns_accepted.get(), 1);
        assert_eq!(m.conns_rejected.get(), 1);
        server.shutdown();
        service.shutdown(Shutdown::Drain);
    }

    #[test]
    fn unix_socket_round_trip() {
        let service = service();
        let path = std::env::temp_dir().join(format!("afp-net-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server = NetServer::bind_unix(service.clone(), &path, NetOptions::default()).unwrap();
        let mut conn = UnixStream::connect(&path).unwrap();
        write_frame(&mut conn, b"query wins(b)").unwrap();
        let payload = codec::read_frame(&mut conn, codec::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!(
            String::from_utf8(payload).unwrap(),
            "{\"version\":0,\"query\":\"wins(b)\",\"truth\":\"true\"}"
        );
        drop(conn);
        server.shutdown();
        assert!(!path.exists(), "socket file removed on shutdown");
        service.shutdown(Shutdown::Drain);
    }

    #[test]
    fn stale_unix_socket_is_reclaimed_but_live_one_is_not() {
        let path = std::env::temp_dir().join(format!("afp-net-stale-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // A crashed predecessor: its listener is gone but the socket
        // file is still on disk (shutdown never ran).
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists(), "stale socket file left behind");

        let service = service();
        let server = NetServer::bind_unix(service.clone(), &path, NetOptions::default())
            .expect("stale socket reclaimed");
        let mut conn = UnixStream::connect(&path).unwrap();
        write_frame(&mut conn, b"ping").unwrap();
        let payload = codec::read_frame(&mut conn, codec::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        let pong = String::from_utf8(payload).unwrap();
        assert!(
            pong.starts_with("{\"pong\":true,\"version\":0,\"writer_live\":true,\"uptime_ms\":"),
            "{pong}"
        );
        drop(conn);

        // While that server is alive, a second bind must refuse loudly
        // rather than steal the live socket.
        let err = NetServer::bind_unix(service.clone(), &path, NetOptions::default())
            .expect_err("live socket must not be reclaimed");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("another server is live"), "{err}");
        assert!(path.exists(), "live socket file untouched");

        server.shutdown();
        service.shutdown(Shutdown::Drain);
    }

    #[test]
    fn server_shutdown_force_closes_idle_connections() {
        let service = service();
        let options = NetOptions {
            read_timeout: None, // idle forever — only shutdown can end it
            ..NetOptions::default()
        };
        let server = NetServer::bind_tcp(service.clone(), "127.0.0.1:0", options).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(send(&mut conn, "version"), "{\"version\":0}");
        // Shutdown must not hang on the idle connection…
        server.shutdown();
        // …and the client sees EOF or an error, never a hang.
        let after = codec::read_frame(&mut conn, codec::DEFAULT_MAX_FRAME_LEN);
        assert!(matches!(after, Ok(None) | Err(_)));
        service.shutdown(Shutdown::Drain);
    }
}
