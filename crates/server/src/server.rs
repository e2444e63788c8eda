//! The TCP transport: newline-delimited frames over `std::net`.
//!
//! This layer owns everything the handler must not know about: sockets,
//! framing, per-connection threads, and shutdown. Each accepted
//! connection gets two threads —
//!
//! * a **reader** that extracts frames (a manual buffer over 50 ms read
//!   timeouts, so shutdown is observed even on a silent socket), decodes
//!   them, and drives [`Connection::handle`];
//! * a **pusher** that waits on the attached corpus's ingest signal
//!   (via an [`crate::handler::IngestCursor`]) and delivers watch-delta event
//!   frames queued by *other* connections' ingests into that corpus.
//!
//! On a durable service (one booted with a data directory) a third,
//! server-wide **snapshotter** thread periodically snapshots corpora
//! whose WALs have grown and truncates their logs, and takes a final
//! snapshot at drain.
//!
//! Both write through one per-connection mutex held across
//! handle-then-write, so a connection's frames never interleave and the
//! response-then-events order the handler produces is exactly the order
//! on the wire — the property the trace replay harness asserts.
//!
//! Disconnect at any point (mid-ingest, mid-watch-stream, half-sent
//! frame) lands in the reader's exit path: [`Connection::close`] drops
//! the session and watch handles, whose registry entries auto-cancel,
//! leaving survivors' outputs untouched. Shutdown (the `shutdown` verb
//! or [`ProbeServer::shutdown`]) drains: the acceptor stops, in-flight
//! requests complete, idle connections close after a short grace.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::handler::{Connection, Interaction, ProbeService};
use crate::protocol::{Request, Response, MAX_FRAME_BYTES};

/// Polling interval for the nonblocking acceptor and the socket read
/// timeout: shutdown latency is a small multiple of this.
const POLL: Duration = Duration::from_millis(50);

/// Read-timeout ticks a silent connection survives after a drain begins
/// before the server closes it.
const DRAIN_GRACE_TICKS: u32 = 4;

/// Reply-buffer capacity a connection keeps between frames; a frame
/// larger than this releases its buffer once written, so an idle
/// connection does not hold its largest reply forever.
const RETAINED_REPLY_BYTES: usize = 4 << 20;

/// POLL ticks between background snapshot sweeps (durable servers only).
const SNAPSHOT_TICKS: u32 = 20;

/// WAL bytes (beyond the header) a corpus must accumulate before the
/// background sweep snapshots it; small logs are cheap to replay and not
/// worth rewriting a snapshot for. Drain always snapshots regardless.
const SNAPSHOT_MIN_WAL_BYTES: u64 = 64 * 1024;

/// A running probe server bound to one TCP address.
pub struct ProbeServer {
    service: Arc<ProbeService>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    snapshotter: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ProbeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting.
    pub fn start(service: Arc<ProbeService>, addr: &str) -> std::io::Result<ProbeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let acceptor = {
            let service = service.clone();
            let connections = connections.clone();
            thread::spawn(move || loop {
                if service.draining() {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let service = service.clone();
                        let handle = thread::spawn(move || serve_connection(service, stream));
                        connections
                            .lock()
                            .expect("connection list lock")
                            .push(handle);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL / 10),
                    Err(_) => return,
                }
            })
        };
        // Durable servers run a background snapshotter: once a corpus's
        // WAL grows past the threshold, its state is snapshotted and the
        // log truncated, bounding both replay time at the next boot and
        // disk growth. At drain it takes one final full snapshot so a
        // clean restart needs no replay at all.
        let snapshotter = if service.data_dir().is_some() {
            let service = service.clone();
            Some(thread::spawn(move || loop {
                for _ in 0..SNAPSHOT_TICKS {
                    if service.draining() {
                        service.snapshot_now();
                        return;
                    }
                    thread::sleep(POLL);
                }
                service.snapshot_corpora(SNAPSHOT_MIN_WAL_BYTES);
            }))
        } else {
            None
        };
        Ok(ProbeServer {
            service,
            addr,
            acceptor: Some(acceptor),
            snapshotter,
            connections,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<ProbeService> {
        &self.service
    }

    /// Requests a drain (idempotent; the `shutdown` verb does the same).
    pub fn shutdown(&self) {
        self.service.begin_drain();
    }

    /// Blocks until the acceptor and every connection thread exit. With
    /// a drain requested, idle connections close after a short grace and
    /// in-flight requests finish first.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(snapshotter) = self.snapshotter.take() {
            let _ = snapshotter.join();
        }
        loop {
            let batch: Vec<JoinHandle<()>> = {
                let mut list = self.connections.lock().expect("connection list lock");
                list.drain(..).collect()
            };
            if batch.is_empty() {
                return;
            }
            for handle in batch {
                let _ = handle.join();
            }
        }
    }

    /// Shuts down and waits.
    pub fn stop(self) {
        self.shutdown();
        self.wait();
    }
}

/// Runs one accepted connection to completion: spawns the pusher, runs
/// the read loop inline, then tears both down.
fn serve_connection(service: Arc<ProbeService>, stream: TcpStream) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Connection::new(service.clone()));
    let writer = Arc::new(Mutex::new(FrameSink {
        stream: write_half,
        buf: String::new(),
    }));
    let closed = Arc::new(AtomicBool::new(false));

    let pusher = {
        let conn = conn.clone();
        let writer = writer.clone();
        let closed = closed.clone();
        thread::spawn(move || {
            // The cursor follows whichever corpus this connection is
            // attached to; only that corpus's ingests (or a drain) wake
            // the thread, so idle connections and connections on other
            // corpora sleep through unrelated ingest storms.
            let mut cursor = conn.ingest_cursor();
            while !closed.load(Ordering::SeqCst) {
                conn.wait_ingest_signal(&mut cursor, POLL);
                // Lock order is writer → connection state, same as the
                // reader's handle-then-write path.
                let mut sink = writer.lock().expect("writer lock");
                for frame in conn.drain_watch_frames() {
                    if sink.write(&frame).is_err() {
                        return;
                    }
                }
            }
        })
    };

    read_loop(&service, &conn, stream, &writer);

    conn.close();
    closed.store(true, Ordering::SeqCst);
    let _ = pusher.join();
}

/// Reads frames until EOF, error, or post-drain grace expiry.
fn read_loop(
    service: &Arc<ProbeService>,
    conn: &Arc<Connection>,
    mut stream: TcpStream,
    writer: &Arc<Mutex<FrameSink>>,
) {
    let mut inbound = LineBuffer::new(MAX_FRAME_BYTES);
    let mut chunk = [0u8; 16 * 1024];
    let mut drain_ticks = 0u32;
    loop {
        // Serve every complete frame already buffered.
        while let Some(line) = inbound.take_line() {
            let interaction = match Request::decode(&line) {
                Ok(request) => conn.handle_locked(writer, request),
                Err((code, message)) => {
                    let mut sink = writer.lock().expect("writer lock");
                    if sink.write(&Response::Error { code, message }).is_err() {
                        return;
                    }
                    continue;
                }
            };
            if interaction.is_err() {
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                drain_ticks = 0;
                if !inbound.push(&chunk[..n]) {
                    // A peer streaming an endless line: answer once, hang up.
                    let mut sink = writer.lock().expect("writer lock");
                    let _ = sink.write(&Response::Error {
                        code: crate::protocol::ErrorCode::MalformedFrame,
                        message: format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                    });
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if service.draining() {
                    drain_ticks += 1;
                    if drain_ticks > DRAIN_GRACE_TICKS {
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Inbound bytes not yet split into newline-delimited frames. A scan
/// cursor means each byte is searched for a newline once, however many
/// reads a frame spans, and a frame longer than the limit is refused
/// before its bytes are buffered.
pub(crate) struct LineBuffer {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` known to hold no newline.
    scanned: usize,
    /// Longest frame accepted, newline excluded.
    limit: usize,
}

impl LineBuffer {
    /// An empty buffer refusing frames longer than `limit` bytes.
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            buf: Vec::new(),
            scanned: 0,
            limit,
        }
    }

    /// Splits the oldest complete line out of the buffer, if any.
    pub(crate) fn take_line(&mut self) -> Option<String> {
        let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.buf.len();
            return None;
        };
        let mut line: Vec<u8> = self.buf.drain(..=self.scanned + at).collect();
        self.scanned = 0;
        line.pop();
        // Invalid UTF-8 degrades lossily; the JSON decode then reports a
        // structured malformed_frame rather than the connection dying.
        Some(
            String::from_utf8(line)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
        )
    }

    /// Appends one read's bytes. Call it once every complete line is
    /// taken; returns false, buffering nothing, when the frame the bytes
    /// continue would exceed the limit.
    pub(crate) fn push(&mut self, bytes: &[u8]) -> bool {
        debug_assert_eq!(self.scanned, self.buf.len(), "take every line first");
        let frame = bytes
            .iter()
            .position(|&b| b == b'\n')
            .unwrap_or(bytes.len());
        if self.buf.len() + frame > self.limit {
            return false;
        }
        self.buf.extend_from_slice(bytes);
        true
    }
}

/// One connection's write half and the reply buffer it reuses for every
/// frame.
struct FrameSink {
    stream: TcpStream,
    buf: String,
}

impl FrameSink {
    /// Encodes `frame` and a newline into the reused buffer and sends it.
    fn write(&mut self, frame: &Response) -> std::io::Result<()> {
        self.buf.clear();
        frame.encode_into(&mut self.buf);
        self.buf.push('\n');
        let sent = self.stream.write_all(self.buf.as_bytes());
        if self.buf.capacity() > RETAINED_REPLY_BYTES {
            self.buf = String::new();
        }
        sent?;
        self.stream.flush()
    }
}

impl Connection {
    /// Handles one request with the connection's writer lock held across
    /// handle-then-write, so pushed frames never interleave with the
    /// response+events sequence. Returns `Err(())` when the peer is gone.
    fn handle_locked(
        self: &Arc<Self>,
        writer: &Arc<Mutex<FrameSink>>,
        request: Request,
    ) -> Result<(), ()> {
        let mut sink = writer.lock().expect("writer lock");
        let Interaction { response, events } = self.handle(request);
        sink.write(&response).map_err(|_| ())?;
        for event in &events {
            sink.write(event).map_err(|_| ())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `bytes` to `inbound` in reads of `chunk` bytes, taking every
    /// complete line after each read as the read loop does.
    fn feed(inbound: &mut LineBuffer, bytes: &[u8], chunk: usize) -> Vec<String> {
        let mut lines = Vec::new();
        for read in bytes.chunks(chunk) {
            assert!(inbound.push(read), "within the limit");
            while let Some(line) = inbound.take_line() {
                lines.push(line);
            }
        }
        lines
    }

    #[test]
    fn a_frame_split_across_many_reads_is_scanned_once() {
        let frame = "{\"verb\":\"health\"}".repeat(500);
        let mut inbound = LineBuffer::new(MAX_FRAME_BYTES);
        let lines = feed(&mut inbound, format!("{frame}\n").as_bytes(), 7);
        assert_eq!(lines, std::slice::from_ref(&frame));
        assert_eq!(inbound.buf.len(), 0);
        // Mid-frame, the cursor sits at the end of what is buffered.
        assert!(inbound.push(&frame.as_bytes()[..100]));
        assert_eq!(inbound.take_line(), None);
        assert_eq!(inbound.scanned, 100);
    }

    #[test]
    fn two_frames_in_one_read_are_both_taken() {
        let mut inbound = LineBuffer::new(MAX_FRAME_BYTES);
        let lines = feed(&mut inbound, b"{\"a\":1}\n{\"b\":2}\n{\"c\"", 1 << 10);
        assert_eq!(lines, ["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(
            inbound.buf.len(),
            "{\"c\"".len(),
            "the partial third frame waits"
        );
        assert!(inbound.push(b":3}\n"));
        assert_eq!(inbound.take_line().as_deref(), Some("{\"c\":3}"));
        // Invalid UTF-8 degrades to a line the decoder refuses.
        assert!(inbound.push(b"\xff\n"));
        assert_eq!(inbound.take_line().as_deref(), Some("\u{fffd}"));
    }

    #[test]
    fn an_oversize_frame_is_refused_before_it_is_buffered() {
        let (limit, chunk) = (1_000, 64);
        let mut inbound = LineBuffer::new(limit);
        // A frame of exactly the limit passes.
        let exact = "x".repeat(limit);
        assert_eq!(
            feed(&mut inbound, format!("{exact}\n").as_bytes(), chunk),
            [exact]
        );
        // One byte more is refused at the read that would cross the
        // limit, with the buffer still under it.
        let endless = vec![b'y'; 10 * limit];
        let mut refused = false;
        for read in endless.chunks(chunk) {
            if !inbound.push(read) {
                refused = true;
                break;
            }
            assert_eq!(inbound.take_line(), None);
        }
        assert!(refused, "an endless line is refused");
        assert!(inbound.buf.len() <= limit && inbound.buf.len() + chunk > limit);
    }

    #[test]
    fn the_server_answers_an_oversize_frame_with_malformed_frame() {
        let service = Arc::new(ProbeService::new());
        let server = ProbeServer::start(service, "127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = stream.try_clone().expect("clone");
        let sender = thread::spawn(move || {
            let block = vec![b'z'; 1 << 20];
            for _ in 0..=MAX_FRAME_BYTES >> 20 {
                if stream.write_all(&block).is_err() {
                    return;
                }
            }
        });
        // The server hangs up on unread bytes, so the reply may be
        // followed by a reset rather than EOF.
        let mut reply = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = reader.read(&mut buf) {
            reply.extend_from_slice(&buf[..n]);
        }
        let reply = String::from_utf8(reply).expect("UTF-8 reply");
        assert!(reply.starts_with("{\"type\":\"error\",\"code\":\"malformed_frame\""));
        assert!(reply.ends_with("bytes\"}\n"), "{reply}");
        sender.join().expect("sender");
        server.stop();
    }
}
