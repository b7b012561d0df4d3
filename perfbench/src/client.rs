//! The wire client: length-prefixed frames over TCP, an open loop that
//! sends on a fixed schedule and reads replies as they come (requests
//! pipeline on the connection), and a closed loop for the saturation
//! phase.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use afp::net::codec;

use crate::json::{self, Json};
use crate::workload::{self, ConnSpec, Generated, Item, Rng};

/// How long a reply may take before the connection counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Query,
    At,
    Write,
}

/// One request as the client saw it; times are µs since the run epoch.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: OpKind,
    /// When the schedule said to send it.
    pub sched: f64,
    /// When its frame was written.
    pub sent: f64,
    /// When its reply was read.
    pub done: f64,
    /// Version the reply names (the acknowledged version for writes).
    pub version: u64,
    /// The command line sent.
    pub line: String,
}

impl Sample {
    pub fn latency(&self) -> f64 {
        self.done - self.sched
    }
}

/// What one connection did in one phase.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Error replies, malformed replies and transport failures, with a
    /// description of the first few.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Owned items handed back with their final presence.
    pub items: Vec<(usize, Item)>,
}

impl ConnOutcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

pub struct Conn {
    sock: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        Ok(Conn {
            sock,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        codec::write_frame(&mut self.sock, line.as_bytes())
    }

    /// A complete frame already buffered, if any.
    fn take_frame(&mut self) -> Option<Vec<u8>> {
        if self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if self.buf.len() < 4 + len {
            return None;
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Some(payload)
    }

    /// One read with a timeout; `Ok(false)` when it timed out. The wait
    /// is a `ppoll`, whose timeout is a high-resolution timer: socket
    /// read timeouts count in scheduler ticks (4–10 ms), far too coarse
    /// to pace requests 250 µs apart.
    fn read_some(&mut self, timeout: Duration) -> io::Result<bool> {
        if !readable_within(&self.sock, timeout) {
            return Ok(false);
        }
        let mut chunk = [0u8; 1 << 16];
        match self.sock.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Block until one whole frame arrives.
    pub fn recv(&mut self) -> io::Result<String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(frame) = self.take_frame() {
                return String::from_utf8(frame)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
            self.read_some(deadline - now)?;
        }
    }

    /// Send one command and wait for its reply (closed loop).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Whether `sock` has bytes to read (or EOF/error to report) within
/// `timeout`.
fn readable_within(sock: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out (`repr(C)`
    // mirrors `struct pollfd` and `struct timespec` on 64-bit Linux) for
    // the whole call; nfds = 1 matches the one-element "array"; a null
    // sigmask leaves the signal mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0
}

/// Check a reply to a query, `at` or write: it must parse, must not be
/// an error, and must carry the field its kind promises. Returns the
/// version it names.
pub fn check_reply(kind: OpKind, reply: &str) -> Result<u64, String> {
    let v = json::parse(reply).map_err(|e| format!("unparseable reply {reply:?}: {e}"))?;
    if let Some(err) = v.get("error") {
        return Err(format!(
            "error reply to {kind:?}: {}",
            err.path("kind").and_then(Json::str).unwrap_or("?")
        ));
    }
    let field = match kind {
        OpKind::Query | OpKind::At => "truth",
        OpKind::Write => "ok",
    };
    if v.get(field).is_none() {
        return Err(format!("reply to {kind:?} lacks {field:?}: {reply}"));
    }
    v.get("version")
        .and_then(Json::num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("reply lacks a version: {reply}"))
}

/// Versions recently acknowledged to either connection, newest last;
/// `at V` reads draw from them so they stay inside the server's
/// 8-version cache.
#[derive(Debug, Default)]
pub struct Acked {
    recent: VecDeque<u64>,
    pub max: u64,
    /// Writes sent on either connection and not yet acknowledged: each
    /// may publish a version before a pipelined `at` is served.
    inflight: u64,
}

impl Acked {
    pub const KEEP: usize = 4;
    /// Versions an `at V` may trail the newest version the server could
    /// have published by the time it reads `V`; the cache holds 8.
    const MAX_BEHIND: u64 = 3;

    pub fn note(&mut self, version: u64) {
        self.max = self.max.max(version);
        if !self.recent.contains(&version) {
            self.recent.push_back(version);
            if self.recent.len() > Self::KEEP {
                self.recent.pop_front();
            }
        }
    }

    /// One of the last four acknowledged versions that stays cached even
    /// if every write in flight publishes first; `None` when no version
    /// is that safe (a stall piled writes up), and a `query` goes out
    /// instead.
    fn pick(&self, rng: &mut Rng) -> Option<u64> {
        if self.recent.is_empty() {
            return (self.inflight <= Self::MAX_BEHIND).then_some(0);
        }
        let safe: Vec<u64> = self
            .recent
            .iter()
            .copied()
            .filter(|v| self.max - v + self.inflight <= Self::MAX_BEHIND)
            .collect();
        (!safe.is_empty()).then(|| safe[rng.below(safe.len() as u64) as usize])
    }
}

/// One connection's share of the open-loop phase.
pub struct OpenLoop<'a> {
    pub spec: ConnSpec,
    pub gen: &'a Generated,
    pub owned: Vec<(usize, Item)>,
    pub seed: u64,
    pub epoch: Instant,
    /// First send; the two connections are offset by half an interval.
    pub start: Instant,
    pub end: Instant,
    pub acked: &'a Mutex<Acked>,
}

struct InFlight {
    kind: OpKind,
    sched: f64,
    sent: f64,
    line: String,
}

fn us_since(epoch: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(epoch).as_secs_f64() * 1e6
}

/// Drive one connection open-loop: request `i` is due at
/// `start + i / rate` whatever happened to earlier ones, so a stall
/// delays everything behind it and that wait is measured.
///
/// Waiting for the next due time is a `ppoll` on the socket, so a reply
/// wakes the thread at once. How late `ppoll` wakes past its timeout
/// (timer slack) is tracked, the wait asks for that much less, and the
/// last few µs before a send are spun.
pub fn open_loop(conn: &mut Conn, job: OpenLoop<'_>) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut rng = Rng::new(job.seed);
    let mut owned = job.owned;
    let interval = Duration::from_secs_f64(1.0 / job.spec.rate);
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut i: u32 = 0;
    let mut next = job.start;
    let mut sending = true;
    let mut slack = Duration::from_micros(60);
    let mut drain_deadline = None;
    loop {
        let now = Instant::now();
        if sending && now >= next {
            if next >= job.end {
                sending = false;
                drain_deadline = Some(now + REPLY_TIMEOUT);
                continue;
            }
            let (kind, line) = next_op(&job.spec, job.gen, &mut owned, &mut rng, job.acked);
            out.attempted += 1;
            if let Err(e) = conn.send(&line) {
                out.fail(format!("send failed: {e}"));
                break;
            }
            inflight.push_back(InFlight {
                kind,
                sched: us_since(job.epoch, next),
                sent: us_since(job.epoch, Instant::now()),
                line,
            });
            i += 1;
            next = job.start + interval * i;
            continue;
        }
        if !sending && inflight.is_empty() {
            break;
        }
        let target = if sending {
            next
        } else {
            drain_deadline.expect("set when sending stopped")
        };
        if !sending && now >= target {
            out.fail(format!("{} replies never arrived", inflight.len()));
            break;
        }
        let wait = target.saturating_duration_since(now);
        if wait > slack + Duration::from_micros(5) || !sending {
            let asked = if sending { wait - slack } else { wait };
            let woke = match conn.read_some(asked) {
                Ok(got) => got,
                Err(e) => {
                    out.fail(format!("transport failure: {e}"));
                    break;
                }
            };
            let after = Instant::now();
            if !woke && sending {
                // Timed out: learn how far past the asked timeout we woke.
                let over = after.saturating_duration_since(now + asked);
                slack = (slack * 7 + over.min(Duration::from_micros(500))) / 8;
            }
            let done = us_since(job.epoch, after);
            while let Some(frame) = conn.take_frame() {
                let Some(f) = inflight.pop_front() else {
                    out.fail("reply without a request".into());
                    break;
                };
                let reply = String::from_utf8_lossy(&frame);
                match check_reply(f.kind, &reply) {
                    Ok(version) => {
                        if f.kind == OpKind::Write {
                            let mut acked = job.acked.lock().expect("acked lock");
                            acked.note(version);
                            acked.inflight -= 1;
                        }
                        out.samples.push(Sample {
                            kind: f.kind,
                            sched: f.sched,
                            sent: f.sent,
                            done,
                            version,
                            line: f.line,
                        });
                    }
                    Err(e) => out.fail(e),
                }
            }
        } else {
            std::hint::spin_loop();
        }
    }
    out.items = owned;
    out
}

/// Choose the next request of the open-loop mix. A write flips its
/// item's presence when it is sent, so pipelined writes to the same
/// item alternate assert and retract.
fn next_op(
    spec: &ConnSpec,
    gen: &Generated,
    owned: &mut [(usize, Item)],
    rng: &mut Rng,
    acked: &Mutex<Acked>,
) -> (OpKind, String) {
    let r = rng.unit();
    if r < spec.write_frac && !owned.is_empty() {
        let pos = workload::pick(owned, rng);
        let item = &mut owned[pos].1;
        let line = item.toggle_command();
        item.present = !item.present;
        acked.lock().expect("acked lock").inflight += 1;
        return (OpKind::Write, line);
    }
    if r < spec.write_frac + spec.at_frac {
        if let Some(version) = acked.lock().expect("acked lock").pick(rng) {
            return (OpKind::At, format!("at {version} {}", gen.query_atom(rng)));
        }
    }
    (OpKind::Query, format!("query {}", gen.query_atom(rng)))
}

/// Closed-loop writes until `end`: each connection toggles only its own
/// items, back to back.
pub fn saturate(
    conn: &mut Conn,
    mut owned: Vec<(usize, Item)>,
    seed: u64,
    epoch: Instant,
    end: Instant,
    acked: &Mutex<Acked>,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut rng = Rng::new(seed);
    while !owned.is_empty() && Instant::now() < end {
        let pos = workload::pick(&owned, &mut rng);
        let line = owned[pos].1.toggle_command();
        owned[pos].1.present = !owned[pos].1.present;
        out.attempted += 1;
        let sent = Instant::now();
        match conn.request(&line) {
            Ok(reply) => match check_reply(OpKind::Write, &reply) {
                Ok(version) => {
                    acked.lock().expect("acked lock").note(version);
                    let t = us_since(epoch, sent);
                    out.samples.push(Sample {
                        kind: OpKind::Write,
                        sched: t,
                        sent: t,
                        done: us_since(epoch, Instant::now()),
                        version,
                        line,
                    });
                }
                Err(e) => out.fail(e),
            },
            Err(e) => {
                out.fail(format!("transport failure: {e}"));
                break;
            }
        }
    }
    out.items = owned;
    out
}

/// Closed-loop pings: round trips through framing, the connection
/// thread and the codec with no model work — the transport's cost.
pub fn ping_rtts(conn: &mut Conn, n: usize) -> io::Result<Vec<f64>> {
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let reply = conn.request("ping")?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
        if !reply.contains("\"pong\":true") {
            return Err(io::Error::new(io::ErrorKind::InvalidData, reply));
        }
    }
    Ok(rtts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_checked() {
        assert_eq!(
            check_reply(
                OpKind::Query,
                r#"{"version":4,"query":"a(k1)","truth":"true"}"#
            ),
            Ok(4)
        );
        assert_eq!(
            check_reply(OpKind::Write, r#"{"ok":true,"version":9}"#),
            Ok(9)
        );
        assert!(check_reply(
            OpKind::At,
            r#"{"error":{"kind":"version-evicted","message":"x"}}"#
        )
        .unwrap_err()
        .contains("version-evicted"));
        assert!(check_reply(OpKind::Write, r#"{"version":3}"#).is_err());
        assert!(check_reply(OpKind::Query, "not json").is_err());
    }

    #[test]
    fn acked_keeps_the_last_four_distinct_versions() {
        let mut a = Acked::default();
        for v in [1, 2, 2, 3, 4, 5] {
            a.note(v);
        }
        assert_eq!(a.max, 5);
        assert_eq!(a.recent, VecDeque::from([2, 3, 4, 5]));
        let mut rng = Rng::new(1);
        assert!((2..=5).contains(&a.pick(&mut rng).unwrap()));
        // Two writes in flight: only versions within one of the head are
        // safe from eviction.
        a.inflight = 2;
        for _ in 0..20 {
            assert!((4..=5).contains(&a.pick(&mut rng).unwrap()));
        }
        a.inflight = 4;
        assert_eq!(a.pick(&mut rng), None, "a stall: send a query instead");
    }
}
