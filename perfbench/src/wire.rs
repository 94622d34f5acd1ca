//! The load generator's side of the TCP protocol: one buffered
//! connection per load thread, and the closed- and open-loop request loops
//! that time every request.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long any single reply may take before the request counts as
/// failed and the connection is abandoned.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A client connection with its own line buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    /// `(round trip, server evaluation time)` in µs of every `QUERY` miss
    /// answered through [`Conn::call`].
    pub misses: Vec<(f64, f64)>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            pos: 0,
            misses: Vec::new(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads more bytes into the buffer, waiting at most until `deadline`;
    /// `Ok(false)` when the deadline passed first.
    fn fill(&mut self, deadline: Instant) -> io::Result<bool> {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        let wait = deadline.saturating_duration_since(Instant::now());
        if wait.is_zero() {
            return Ok(false);
        }
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(100))))?;
        let mut chunk = [0u8; 1 << 15];
        match self.stream.read(&mut chunk) {
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
            Err(e) => Err(e),
        }
    }

    /// The next complete line (without its newline), or `None` when
    /// `deadline` passes first.
    pub fn read_line(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        loop {
            if let Some(end) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line =
                    String::from_utf8_lossy(&self.buf[self.pos..self.pos + end]).into_owned();
                self.pos += end + 1;
                return Ok(Some(line));
            }
            if !self.fill(deadline)? {
                return Ok(None);
            }
        }
    }

    /// The next reply line, skipping `PROGRESS` lines streamed ahead of a
    /// campaign's final line; `None` when `deadline` passes first.
    pub fn read_reply(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        loop {
            match self.read_line(deadline)? {
                Some(line) if line.starts_with("PROGRESS ") => continue,
                other => return Ok(other),
            }
        }
    }

    /// Sends one request line and waits for its reply.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        let sent = Instant::now();
        self.send(format!("{line}\n").as_bytes())?;
        let reply = self.read_reply(sent + REPLY_TIMEOUT)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, format!("no reply to `{line}`"))
        })?;
        if let Served::Miss { eval_us } = Served::of(&reply) {
            self.misses
                .push((sent.elapsed().as_secs_f64() * 1e6, eval_us));
        }
        Ok(reply)
    }
}

/// Binary frames are read through the same buffer as text lines.
impl Read for Conn {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.buf.len() {
            if !self.fill(Instant::now() + REPLY_TIMEOUT)? {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no frame"));
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// One request of a timed phase. `class` indexes the latency population
/// it is counted in; `due` is its scheduled send time (open loop only).
pub struct Request {
    pub line: String,
    pub class: usize,
    pub due: Option<Instant>,
}

/// How the server answered a request, as its reply tells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Served {
    /// A `QUERY` answered from the cache, inline on the reactor thread.
    Hit,
    /// A `QUERY` a pool worker evaluated in `eval_us` (its `micros=`).
    Miss { eval_us: f64 },
    /// Any other reply.
    Other,
}

impl Served {
    pub fn of(reply: &str) -> Served {
        if !reply.starts_with("OK query ") {
            return Served::Other;
        }
        if reply.contains(" source=hit ") {
            return Served::Hit;
        }
        let micros = reply
            .split_once(" micros=")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|m| m.parse().ok());
        match micros {
            Some(eval_us) if reply.contains(" source=miss ") => Served::Miss { eval_us },
            _ => Served::Other,
        }
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub class: usize,
    pub served: Served,
    /// From the scheduled send (open loop) or the actual send (closed
    /// loop) to the complete reply.
    pub latency: Duration,
    /// How late the generator sent it: behind its schedule (open loop),
    /// or after the previous burst was answered (closed loop).
    pub lag: Duration,
    /// The connection's time spent on it: from the previous reply of its
    /// burst (or its send, for the first) to its reply. A burst's gaps
    /// add up to the burst's round trip.
    pub gap: Duration,
    pub completed: Instant,
    pub ok: bool,
}

impl Done {
    /// Times a request from when it was due, not from when it was sent,
    /// so a stalled generator or server charges the wait to every request
    /// it delayed.
    pub fn timed(
        class: usize,
        due: Instant,
        sent: Instant,
        completed: Instant,
        reply: &str,
        ok: bool,
    ) -> Done {
        Done {
            class,
            served: Served::of(reply),
            latency: completed.saturating_duration_since(due),
            lag: sent.saturating_duration_since(due),
            gap: completed.saturating_duration_since(sent),
            completed,
            ok,
        }
    }
}

/// Reply checker: `true` when `reply` is a correct answer to `request`.
pub type Check<'a> = dyn FnMut(&Request, &str) -> bool + Send + 'a;

/// Closed loop in bursts: writes `depth` requests at once, reads all
/// their replies, then sends the next burst, until `deadline`. Whole
/// bursts keep the number of requests the server finds per read fixed;
/// with a sliding window it varied with the relative speed of the two
/// sides, and so did the server's CPU time per request. A request's lag
/// is how long the generator took to send the burst after the previous
/// one was answered.
pub fn closed_loop(
    conn: &mut Conn,
    depth: usize,
    deadline: Instant,
    next: &mut dyn FnMut() -> Option<Request>,
    check: &mut Check,
) -> io::Result<Vec<Done>> {
    let mut burst: Vec<Request> = Vec::with_capacity(depth);
    let mut done = Vec::new();
    let mut out = Vec::new();
    let mut answered_at: Option<Instant> = None;
    while Instant::now() < deadline {
        burst.extend(std::iter::from_fn(&mut *next).take(depth));
        if burst.is_empty() {
            break;
        }
        for request in &burst {
            out.extend_from_slice(request.line.as_bytes());
            out.push(b'\n');
        }
        let sent = Instant::now();
        let lag = answered_at.map_or(Duration::ZERO, |t| sent.saturating_duration_since(t));
        conn.send(&out)?;
        out.clear();
        let mut previous = sent;
        for request in burst.drain(..) {
            let reply = conn
                .read_reply(Instant::now() + REPLY_TIMEOUT)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "reply timed out"))?;
            let completed = Instant::now();
            let ok = check(&request, &reply);
            done.push(Done {
                lag,
                gap: completed.saturating_duration_since(previous),
                ..Done::timed(request.class, sent, sent, completed, &reply, ok)
            });
            previous = completed;
            answered_at = Some(completed);
        }
    }
    Ok(done)
}

/// How long before a scheduled send the open loop stops sleeping and
/// spins: a sleeping thread wakes a few hundred µs late on a virtual
/// machine, and that lateness would count into every request's latency.
const SEND_SPIN: Duration = Duration::from_micros(500);

/// Open loop: sends every request at its scheduled `due` time whether or
/// not earlier replies have arrived, reading replies in between.
pub fn open_loop(
    conn: &mut Conn,
    schedule: Vec<Request>,
    check: &mut Check,
) -> io::Result<Vec<Done>> {
    let mut pending = schedule.into_iter().peekable();
    let mut inflight: VecDeque<(Request, Instant)> = VecDeque::new();
    let mut done = Vec::new();
    loop {
        let now = Instant::now();
        while let Some(request) = pending.next_if(|r| r.due.is_some_and(|due| due <= now)) {
            conn.send(format!("{}\n", request.line).as_bytes())?;
            inflight.push_back((request, Instant::now()));
        }
        let Some(next_due) = pending.peek().and_then(|r| r.due) else {
            if inflight.is_empty() {
                return Ok(done);
            }
            // Only replies are left to read.
            let reply = conn
                .read_reply(Instant::now() + REPLY_TIMEOUT)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "reply timed out"))?;
            let (request, sent) = inflight.pop_front().expect("a reply answers a request");
            done.push(answered(request, sent, &reply, check));
            continue;
        };
        // Wait for replies (or sleep) until shortly before the next send,
        // then spin up to it. A reply landing in the spin is read after
        // the send, at most `SEND_SPIN` late.
        let wake = next_due.checked_sub(SEND_SPIN).unwrap_or(next_due);
        if inflight.is_empty() {
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        } else if let Some(reply) = conn.read_reply(wake)? {
            let (request, sent) = inflight.pop_front().expect("a reply answers a request");
            done.push(answered(request, sent, &reply, check));
            continue;
        }
        while Instant::now() < next_due {
            std::hint::spin_loop();
        }
    }
}

/// Checks a reply and times its request from when it was due.
fn answered(request: Request, sent: Instant, reply: &str, check: &mut Check) -> Done {
    let ok = check(&request, reply);
    let due = request.due.unwrap_or(sent);
    Done::timed(request.class, due, sent, Instant::now(), reply, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_schedule() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        // Due at 10 ms, sent late at 30 ms (the generator stalled),
        // answered at 35 ms: the user waited 25 ms, 20 of them queued.
        let done = Done::timed(0, t0 + ms(10), t0 + ms(30), t0 + ms(35), "OK", true);
        assert_eq!(done.latency, ms(25));
        assert_eq!(done.lag, ms(20));
        // On time: latency is the round trip, no lag.
        let done = Done::timed(0, t0 + ms(10), t0 + ms(10), t0 + ms(12), "OK", true);
        assert_eq!(done.latency, ms(2));
        assert_eq!(done.lag, Duration::ZERO);
    }

    #[test]
    fn served_reads_hit_and_miss_from_the_reply() {
        let miss = "OK query client=t1 provider=p1 service=printing availability=0.991701793 upsim=10 paths=30 pairs=5 ratio=0.2941 source=miss epoch=0 micros=6776";
        assert_eq!(Served::of(miss), Served::Miss { eval_us: 6776.0 });
        let observed = format!("{miss} observed=2 ci95=0.98..0.99");
        assert_eq!(Served::of(&observed), Served::Miss { eval_us: 6776.0 });
        assert_eq!(
            Served::of(&miss.replace("source=miss", "source=hit")),
            Served::Hit
        );
        assert_eq!(
            Served::of("OK mc client=a provider=b micros=5"),
            Served::Other
        );
        assert_eq!(Served::of("ERR unknown device"), Served::Other);
    }

    #[test]
    fn open_loop_sends_on_schedule_without_waiting_for_replies() {
        // A server that answers only after it has received all three
        // requests: a closed loop would deadlock, the open loop must not.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut chunk = [0u8; 256];
            while seen.iter().filter(|&&b| b == b'\n').count() < 3 {
                let n = sock.read(&mut chunk).unwrap();
                seen.extend_from_slice(&chunk[..n]);
            }
            sock.write_all(b"OK a\nOK b\nOK c\n").unwrap();
        });
        let mut conn = Conn::connect(&addr).unwrap();
        let start = Instant::now() + Duration::from_millis(5);
        let schedule = (0..3)
            .map(|i| Request {
                line: format!("R{i}"),
                class: 0,
                due: Some(start + Duration::from_millis(20 * i)),
            })
            .collect();
        let done = open_loop(&mut conn, schedule, &mut |_, reply| reply.starts_with("OK")).unwrap();
        server.join().unwrap();
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|d| d.ok));
        // The first request waited for the last one's send time (40 ms
        // later) before the server answered; its latency shows that.
        assert!(
            done[0].latency >= Duration::from_millis(40),
            "{:?}",
            done[0]
        );
        assert!(done[0].latency > done[2].latency);
    }
}
