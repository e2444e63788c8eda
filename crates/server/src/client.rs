//! A blocking protocol client over one TCP connection.
//!
//! [`ProbeClient`] frames requests, reads reply frames, and sorts
//! unsolicited `watch_delta` event frames (pushed after ingests
//! elsewhere) into a side buffer so [`request`](ProbeClient::request)
//! always returns the actual reply. Tests and the `plasma-serve`
//! self-check drive it; it also documents, in code, what any
//! non-Rust client must do.
//!
//! Every received frame is kept as its **raw** wire string next to the
//! parsed value: the trace harness compares raw strings, so bit-identity
//! claims never pass through a decode/re-encode that could mask a
//! formatting drift.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::json::{self, Json};
use crate::protocol::Request;
use crate::server::LineBuffer;

/// One received frame: the exact bytes off the wire plus their parse.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The frame as received, newline stripped.
    pub raw: String,
    /// The parsed document.
    pub json: Json,
}

impl Frame {
    /// The frame's `type` field.
    pub fn frame_type(&self) -> &str {
        self.json.get("type").and_then(Json::as_str).unwrap_or("")
    }

    /// True for pushed `watch_delta` event frames.
    pub fn is_event(&self) -> bool {
        self.json.get("event").and_then(Json::as_bool) == Some(true)
    }

    /// The `code` field of an error frame.
    pub fn error_code(&self) -> Option<&str> {
        self.json.get("code").and_then(Json::as_str)
    }
}

/// A blocking client over one connection.
pub struct ProbeClient {
    stream: TcpStream,
    inbound: LineBuffer,
    events: VecDeque<Frame>,
}

impl ProbeClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ProbeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ProbeClient {
            stream,
            // The client trusts its server's frame lengths.
            inbound: LineBuffer::new(usize::MAX),
            events: VecDeque::new(),
        })
    }

    /// Sends one already-encoded frame (no newline).
    pub fn send_raw(&mut self, frame: &str) -> std::io::Result<()> {
        let mut bytes = frame.as_bytes().to_vec();
        bytes.push(b'\n');
        self.stream.write_all(&bytes)?;
        self.stream.flush()
    }

    /// Sends a request and returns its reply, buffering any event
    /// frames that arrive first.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Frame> {
        self.send_raw(&request.encode())?;
        loop {
            let frame = self.read_frame(None)?.ok_or_else(|| {
                std::io::Error::new(ErrorKind::UnexpectedEof, "server closed the connection")
            })?;
            if frame.is_event() {
                self.events.push_back(frame);
            } else {
                return Ok(frame);
            }
        }
    }

    /// The next event frame: a buffered one, or whatever arrives within
    /// `timeout` (`Ok(None)` when nothing does).
    pub fn poll_event(&mut self, timeout: Duration) -> std::io::Result<Option<Frame>> {
        if let Some(frame) = self.events.pop_front() {
            return Ok(Some(frame));
        }
        match self.read_frame(Some(timeout))? {
            Some(frame) if frame.is_event() => Ok(Some(frame)),
            Some(frame) => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("expected an event frame, got {}", frame.raw),
            )),
            None => Ok(None),
        }
    }

    /// Reads frames until a non-event frame arrives (events are
    /// buffered), or the timeout lapses (`Ok(None)`).
    pub fn read_reply(&mut self, timeout: Duration) -> std::io::Result<Option<Frame>> {
        let started = Instant::now();
        loop {
            let left = match timeout.checked_sub(started.elapsed()) {
                Some(left) if !left.is_zero() => left,
                _ => return Ok(None),
            };
            match self.read_frame(Some(left))? {
                None => return Ok(None),
                Some(frame) if frame.is_event() => self.events.push_back(frame),
                Some(frame) => return Ok(Some(frame)),
            }
        }
    }

    /// Buffered event frames received so far (does not read the socket).
    pub fn take_events(&mut self) -> Vec<Frame> {
        self.events.drain(..).collect()
    }

    /// Drops the connection abruptly — from the server's side this is a
    /// client death, which fault-injection tests rely on.
    pub fn abort(self) {
        drop(self);
    }

    /// Reads one frame; `deadline: None` blocks until a frame or EOF.
    fn read_frame(&mut self, timeout: Option<Duration>) -> std::io::Result<Option<Frame>> {
        let started = Instant::now();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(raw) = self.inbound.take_line() {
                let json = json::parse(&raw).map_err(|e| {
                    std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("unparseable frame {raw:?}: {e}"),
                    )
                })?;
                return Ok(Some(Frame { raw, json }));
            }
            let remaining = match timeout {
                None => None,
                Some(limit) => match limit.checked_sub(started.elapsed()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Ok(None),
                },
            };
            self.stream
                .set_read_timeout(remaining.map(|r| r.min(Duration::from_millis(50))))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => {
                    self.inbound.push(&chunk[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if timeout.is_none() {
                        continue;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}
