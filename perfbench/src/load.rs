//! The open-loop load generator: one connection, one sending thread and one
//! reading thread. Requests leave on a precomputed schedule whatever the
//! server does, and each is timed from the moment it was *due*, so a stall
//! charges every request queued behind it (no coordinated omission).

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mc_serve::protocol::{encode_lookup, read_frame, write_frame, Request, Response};

use crate::gen::{OpKind, OpSpec};

/// What the server answered, reduced to what the checks compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    Hit(u64),
    Miss,
    Inserted(u64),
    Saved,
    /// Refused by admission control.
    Busy,
    /// A per-request failure (deadline, overload, internal error).
    Failed,
    /// No answer arrived (transport failure or timeout).
    Lost,
}

impl Served {
    pub fn is_failure(self) -> bool {
        matches!(self, Served::Busy | Served::Failed | Served::Lost)
    }
}

/// One request on the wire: its encoded payload and when it is due.
pub struct Wire {
    pub kind: OpKind,
    pub payload: Vec<u8>,
    pub due_ns: u64,
}

/// Per-request timestamps (ns from the run's origin) and answers.
pub struct Timeline {
    pub send_ns: Vec<u64>,
    pub recv_ns: Vec<u64>,
    pub served: Vec<Served>,
}

/// Encodes a generated request with the protocol's public encoders.
pub fn encode(spec: &OpSpec) -> Vec<u8> {
    match spec.kind {
        OpKind::Lookup => {
            let mut buf = Vec::with_capacity(16 + spec.query.len());
            encode_lookup(&mut buf, &spec.query, &spec.context);
            buf
        }
        OpKind::Insert => Request::Insert {
            query: spec.query.clone(),
            response: spec.response.clone(),
            context: spec.context.clone(),
        }
        .encode(),
        OpKind::Save => Request::Save.encode(),
    }
}

pub fn classify(frame: &[u8]) -> Served {
    match Response::decode(frame) {
        Ok(Response::Hit { entry_id, .. }) => Served::Hit(entry_id),
        Ok(Response::Miss) => Served::Miss,
        Ok(Response::Inserted(id)) => Served::Inserted(id),
        Ok(Response::Saved(_)) => Served::Saved,
        Ok(Response::Busy) => Served::Busy,
        _ => Served::Failed,
    }
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Sleeps until about `due_ns`. It never spins: the two cores this runs on
/// are shared with the server's threads, and a spinning sender would steal
/// their time. Oversleeping shows up as generator lateness.
fn wait_until(origin: Instant, due_ns: u64) {
    let now = now_ns(origin);
    if due_ns > now + 60_000 {
        std::thread::sleep(Duration::from_nanos(due_ns - now - 50_000));
    }
}

/// Sends `wires` on schedule over one connection and collects every answer.
pub fn drive(addr: SocketAddr, wires: &[Wire]) -> io::Result<Timeline> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let read_half = stream.try_clone()?;
    // One round trip first, so the schedule starts on an accepted,
    // registered connection rather than charging that to early requests.
    let mut hello = Vec::new();
    write_frame(&mut hello, &Request::Ping.encode())?;
    (&stream).write_all(&hello)?;
    match read_frame(&mut &stream)? {
        Some(frame) if Response::decode(&frame) == Ok(Response::Pong) => {}
        _ => return Err(io::Error::other("server did not answer the opening ping")),
    }
    let n = wires.len();
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut reader = BufReader::with_capacity(1 << 16, read_half);
            let mut recv_ns = Vec::with_capacity(n);
            let mut served = Vec::with_capacity(n);
            while served.len() < n {
                match read_frame(&mut reader) {
                    Ok(Some(frame)) => {
                        recv_ns.push(now_ns(origin));
                        served.push(classify(&frame));
                    }
                    _ => break,
                }
            }
            recv_ns.resize(n, u64::MAX);
            served.resize(n, Served::Lost);
            (recv_ns, served)
        });
        let mut send_ns = vec![0u64; n];
        let mut buf = Vec::with_capacity(1 << 16);
        let mut writer = &stream;
        let mut i = 0;
        let mut write_error = None;
        while i < n {
            wait_until(origin, wires[i].due_ns);
            // Sub-60 µs early wake-ups send now rather than spin.
            let now = now_ns(origin).max(wires[i].due_ns);
            buf.clear();
            // Everything already due goes out in one write.
            while i < n && wires[i].due_ns <= now && buf.len() < 1 << 16 {
                write_frame(&mut buf, &wires[i].payload).expect("frame fits");
                send_ns[i] = now;
                i += 1;
            }
            if let Err(e) = writer.write_all(&buf) {
                write_error = Some(e);
                break;
            }
        }
        if write_error.is_some() {
            // Unblock the reader: nothing more will be answered.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let (recv_ns, served) = reader.join().expect("reader thread panicked");
        Ok(Timeline {
            send_ns,
            recv_ns,
            served,
        })
    })
}
