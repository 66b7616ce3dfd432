//! The per-connection transport seam.
//!
//! The serving loop in `server.rs` is generic over a [`Conn`] — the
//! small surface of a byte stream the endpoint actually uses
//! (`Read + Write` plus socket timeouts). `TcpStream` is the production
//! implementation; [`BufConn`] drives the same code path from an
//! in-memory request in tests; and, behind the `fault-inject` feature,
//! `FaultConn` wraps any `Conn` and injects short reads, short
//! writes, mid-response resets and stalls at deterministic points —
//! the network-side sibling of `provbench_core`'s `FaultFs`, on the
//! same `FaultPlan` schedule.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The byte-stream surface the server loop needs from a connection.
///
/// Timeouts take `&mut self` (unlike `TcpStream`'s `&self` setters) so
/// in-memory and fault-injecting implementations don't need interior
/// mutability.
pub trait Conn: Read + Write + Send {
    /// Bound every subsequent read. `None` = block forever.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
    /// Bound every subsequent write. `None` = block forever.
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

/// An in-memory [`Conn`]: a scripted request on the read side, a
/// capture buffer on the write side. Lets tests (and the net-chaos
/// sweep) drive `Endpoint::serve_conn` without a socket.
#[derive(Debug, Default)]
pub struct BufConn {
    input: io::Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl BufConn {
    /// A connection that will replay `request` to the server and
    /// capture whatever the server writes back.
    pub fn request(request: impl Into<Vec<u8>>) -> Self {
        BufConn {
            input: io::Cursor::new(request.into()),
            output: Vec::new(),
        }
    }

    /// Everything the server wrote to this connection so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }
}

impl Read for BufConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for BufConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for BufConn {
    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    fn set_write_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
}

/// A reader enforcing a *total* deadline across every read of one
/// request — the slowloris defense. A per-read socket timeout alone
/// lets a client dribble one byte per `read_timeout` and hold a worker
/// forever; this shrinks the socket timeout to the time remaining
/// before each read, so header dribbling runs out of budget.
pub(crate) struct DeadlineReader<'a> {
    conn: &'a mut dyn Conn,
    deadline: Instant,
}

impl<'a> DeadlineReader<'a> {
    pub(crate) fn new(conn: &'a mut dyn Conn, deadline: Instant) -> Self {
        DeadlineReader { conn, deadline }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        // std rejects a zero timeout, and an expired deadline must not
        // grant one more full read anyway.
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request not received within the read-timeout budget",
            ));
        }
        self.conn.set_read_timeout(Some(remaining))?;
        match self.conn.read(buf) {
            // Unix sockets report a timed-out read as WouldBlock;
            // normalize so callers match one kind.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request not received within the read-timeout budget",
            )),
            other => other,
        }
    }
}

#[cfg(feature = "fault-inject")]
pub use fault::{FaultConn, NetFaultKind};

#[cfg(feature = "fault-inject")]
mod fault {
    use super::Conn;
    use provbench_core::FaultPlan;
    use std::io::{self, Read, Write};
    use std::time::Duration;

    /// What a scheduled network fault does when it fires.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum NetFaultKind {
        /// The read returns at most one byte (success, but far short of
        /// the buffer) — the peer trickling data.
        ShortRead,
        /// The write accepts half the buffer, then the connection
        /// breaks — a response torn mid-flight.
        ShortWrite,
        /// The operation fails with `ConnectionReset` — the peer gone.
        Reset,
        /// The operation fails with `TimedOut` — the peer silent past
        /// the socket timeout.
        Stall,
    }

    /// A [`Conn`] wrapper injecting deterministic network faults.
    ///
    /// Every trait operation — `set_read_timeout`, `set_write_timeout`,
    /// `read`, `write` (`flush` is free) — counts as one op; the plan
    /// decides which ops fault. A timeout-setter fault surfaces as an
    /// `InvalidInput` error, modelling a failed `setsockopt`.
    #[derive(Debug)]
    pub struct FaultConn<C> {
        inner: C,
        plan: FaultPlan<NetFaultKind>,
    }

    impl<C: Conn> FaultConn<C> {
        /// Fault exactly the `op`-th operation (0-based) with `kind`.
        pub fn fail_nth(inner: C, kind: NetFaultKind, op: usize) -> Self {
            FaultConn {
                inner,
                plan: FaultPlan::nth(kind, op),
            }
        }

        /// Fault roughly one in `rate` operations, scheduled by an
        /// xorshift64* stream seeded with `seed` (same generator and
        /// seed hygiene as `FaultFs::seeded`).
        pub fn seeded(inner: C, seed: u64, rate: u64) -> Self {
            FaultConn {
                inner,
                plan: FaultPlan::seeded(seed, rate),
            }
        }

        /// Connection operations attempted so far.
        pub fn ops(&self) -> usize {
            self.plan.ops()
        }

        /// Faults actually injected so far.
        pub fn injected(&self) -> usize {
            self.plan.injected()
        }

        /// The wrapped connection (e.g. to inspect a `BufConn`'s
        /// captured output after a sweep).
        pub fn inner(&self) -> &C {
            &self.inner
        }

        /// Decide whether the current op faults, and with what kind.
        fn fault(&self) -> Option<NetFaultKind> {
            self.plan.next(|draw| match (draw >> 33) % 4 {
                0 => NetFaultKind::ShortRead,
                1 => NetFaultKind::ShortWrite,
                2 => NetFaultKind::Reset,
                _ => NetFaultKind::Stall,
            })
        }
    }

    fn reset(during: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("injected fault: connection reset during {during}"),
        )
    }

    fn stall(during: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::TimedOut,
            format!("injected fault: {during} stalled past its timeout"),
        )
    }

    impl<C: Conn> Read for FaultConn<C> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.fault() {
                // A short read is still a successful read — the server
                // must simply keep reading.
                Some(NetFaultKind::ShortRead) => {
                    let n = buf.len().min(1);
                    self.inner.read(&mut buf[..n])
                }
                Some(NetFaultKind::Stall) => Err(stall("read")),
                Some(NetFaultKind::ShortWrite) | Some(NetFaultKind::Reset) => Err(reset("read")),
                None => self.inner.read(buf),
            }
        }
    }

    impl<C: Conn> Write for FaultConn<C> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.fault() {
                // Half the buffer reaches the wire, then the pipe
                // breaks — the torn-response case partial-write
                // detection exists for.
                Some(NetFaultKind::ShortWrite) => {
                    let _ = self.inner.write(&buf[..buf.len() / 2]);
                    Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "injected fault: connection broke mid-write",
                    ))
                }
                Some(NetFaultKind::Stall) => Err(stall("write")),
                Some(NetFaultKind::ShortRead) | Some(NetFaultKind::Reset) => Err(reset("write")),
                None => self.inner.write(buf),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl<C: Conn> Conn for FaultConn<C> {
        fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            match self.fault() {
                Some(_) => Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "injected fault: setsockopt failed",
                )),
                None => self.inner.set_read_timeout(timeout),
            }
        }

        fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            match self.fault() {
                Some(_) => Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "injected fault: setsockopt failed",
                )),
                None => self.inner.set_write_timeout(timeout),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buf_conn_replays_input_and_captures_output() {
        let mut conn = BufConn::request("hello");
        let mut buf = [0u8; 16];
        let n = conn.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        conn.write_all(b"world").unwrap();
        conn.flush().unwrap();
        assert_eq!(conn.output(), b"world");
        assert!(conn.set_read_timeout(Some(Duration::from_secs(1))).is_ok());
    }

    #[test]
    fn deadline_reader_times_out_instead_of_reading() {
        let mut conn = BufConn::request("payload");
        // A deadline already in the past: no read is granted.
        let past = Instant::now() - Duration::from_millis(1);
        let mut reader = DeadlineReader::new(&mut conn, past);
        let err = reader.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // A live deadline reads normally.
        let future = Instant::now() + Duration::from_secs(5);
        let mut reader = DeadlineReader::new(&mut conn, future);
        let mut buf = [0u8; 4];
        assert_eq!(reader.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"payl");
    }
}
