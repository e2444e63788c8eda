//! The harness's own end of the wire: a line-framed connection, field
//! extraction from reply frames, and the FNV-1a hash replies are compared
//! by. It shares no code with `plasma_server::{json, protocol, client}`,
//! so a change there cannot silently change what is measured.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One reply or event frame, split into its top-level members. Values are
/// borrowed raw JSON text: `"probe_result"` keeps its quotes, `[[0,2,0.5]]`
/// its brackets.
#[derive(Debug)]
pub struct Fields<'a> {
    members: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Splits one JSON object frame. Only the structure the server's
    /// frames have is understood (an object at top level; strings with
    /// backslash escapes; nested arrays and objects); anything else is a
    /// malformed reply.
    pub fn parse(frame: &'a str) -> Result<Fields<'a>, String> {
        let bytes = frame.as_bytes();
        let malformed = |why: &str| format!("malformed frame ({why}): {}", preview(frame));
        if bytes.first() != Some(&b'{') || bytes.last() != Some(&b'}') {
            return Err(malformed("not an object"));
        }
        let mut members = Vec::new();
        let mut at = 1;
        let end = bytes.len() - 1;
        while at < end {
            if bytes[at] != b'"' {
                return Err(malformed("member key is not a string"));
            }
            let key_end = string_end(bytes, at).ok_or_else(|| malformed("unterminated key"))?;
            if bytes.get(key_end) != Some(&b':') {
                return Err(malformed("no colon after key"));
            }
            let value_start = key_end + 1;
            let value_end =
                value_end(bytes, value_start, end).ok_or_else(|| malformed("unbalanced value"))?;
            members.push((&frame[at + 1..key_end - 1], &frame[value_start..value_end]));
            at = value_end;
            if at < end {
                if bytes[at] != b',' {
                    return Err(malformed("no comma between members"));
                }
                at += 1;
            }
        }
        Ok(Fields { members })
    }

    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.members
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// A string member without its quotes (the server's type names,
    /// codes and fingerprints carry no escapes).
    pub fn string(&self, key: &str) -> Option<&'a str> {
        let raw = self.raw(key)?;
        raw.strip_prefix('"')?.strip_suffix('"')
    }

    pub fn uint(&self, key: &str) -> Option<u64> {
        self.raw(key)?.parse().ok()
    }

    pub fn float(&self, key: &str) -> Option<f64> {
        self.raw(key)?.parse().ok()
    }

    pub fn frame_type(&self) -> &'a str {
        self.string("type").unwrap_or("")
    }
}

fn preview(frame: &str) -> String {
    let cut = frame
        .char_indices()
        .nth(120)
        .map_or(frame.len(), |(i, _)| i);
    frame[..cut].to_string()
}

/// Index just past the closing quote of the string opening at `start`.
fn string_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut at = start + 1;
    while at < bytes.len() {
        match bytes[at] {
            b'\\' => at += 2,
            b'"' => return Some(at + 1),
            _ => at += 1,
        }
    }
    None
}

/// Index just past the value starting at `start` (which ends at a
/// top-level comma or at `end`).
fn value_end(bytes: &[u8], start: usize, end: usize) -> Option<usize> {
    let (mut at, mut depth) = (start, 0usize);
    while at < end {
        match bytes[at] {
            b'"' => {
                at = string_end(bytes, at)?;
                continue;
            }
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth = depth.checked_sub(1)?,
            b',' if depth == 0 => return Some(at),
            _ => {}
        }
        at += 1;
    }
    (depth == 0 && at > start).then_some(at)
}

/// Parses a `pairs` / `new_pairs` member: `[[i,j,similarity],...]`.
pub fn parse_pairs(raw: &str) -> Result<Vec<(u32, u32, f64)>, String> {
    let inner = raw
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or("pairs member is not an array")?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    let inner = inner
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or("pairs member does not hold arrays")?;
    inner
        .split("],[")
        .map(|triple| {
            let mut parts = triple.split(',');
            let mut next = || parts.next().ok_or_else(|| format!("short pair '{triple}'"));
            let i = next()?
                .parse::<u32>()
                .map_err(|e| format!("pair index: {e}"))?;
            let j = next()?
                .parse::<u32>()
                .map_err(|e| format!("pair index: {e}"))?;
            let s = next()?
                .parse::<f64>()
                .map_err(|e| format!("pair similarity: {e}"))?;
            Ok((i, j, s))
        })
        .collect()
}

/// One client connection: writes frames, reads reply lines, stamps the
/// moment a line's last byte arrived.
pub struct Conn {
    stream: TcpStream,
    chunk: Box<[u8]>,
    buf: Vec<u8>,
    /// Bytes of `buf` already searched for a newline, so a 1 MB reply
    /// arriving in 64 KiB reads is scanned once and not sixteen times.
    scanned: usize,
}

/// A reply that takes longer than this is a failure, not a slow sample.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn::over(stream))
    }

    fn over(stream: TcpStream) -> Conn {
        Conn {
            stream,
            chunk: vec![0u8; 64 * 1024].into_boxed_slice(),
            buf: Vec::new(),
            scanned: 0,
        }
    }

    /// A second handle on the same socket, for a reader thread.
    pub fn split_reader(&self) -> io::Result<Conn> {
        Ok(Conn::over(self.stream.try_clone()?))
    }

    /// Writes one frame and its newline.
    pub fn send(&mut self, frame: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// Reads one line (without its newline) and the instant its last byte
    /// was in hand. A timeout or a closed socket is an error.
    pub fn read_line(&mut self) -> io::Result<(String, Instant)> {
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let arrived = Instant::now();
                let end = self.scanned + pos;
                let line = String::from_utf8(self.buf[..end].to_vec())
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
                self.buf.drain(..=end);
                self.scanned = 0;
                return Ok((line, arrived));
            }
            self.scanned = self.buf.len();
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends a frame and reads lines until the reply (the first non-event
    /// line). Returns the reply, the events read before it, and the
    /// request's latency: frame handed to the socket, to last reply byte.
    pub fn request(&mut self, frame: &str) -> io::Result<Reply> {
        let sent = Instant::now();
        self.send(frame)?;
        let mut events = Vec::new();
        loop {
            let (line, arrived) = self.read_line()?;
            if is_event_line(&line) {
                events.push(line);
                continue;
            }
            return Ok(Reply {
                line,
                events,
                latency: arrived.duration_since(sent),
            });
        }
    }
}

/// True for a pushed event frame. The server writes `"event":true` as an
/// event's second member, so only the head of the line is searched: a
/// 1 MB probe reply is not scanned for it.
pub fn is_event_line(line: &str) -> bool {
    let head = &line.as_bytes()[..line.len().min(64)];
    const MARK: &[u8] = b"\"event\":true";
    head.windows(MARK.len()).any(|w| w == MARK)
}

/// What one request brought back.
pub struct Reply {
    pub line: String,
    pub events: Vec<String>,
    pub latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fields_split_a_probe_reply() {
        let frame = "{\"type\":\"probe_result\",\"threshold\":0.85,\"epoch\":3,\
                     \"pairs\":[[0,2,0.3333333333333333],[1,5,1]],\"candidates\":5,\
                     \"pruned\":2,\"cache_hits\":1,\"hashes_compared\":96}";
        let f = Fields::parse(frame).unwrap();
        assert_eq!(f.frame_type(), "probe_result");
        assert_eq!(f.float("threshold"), Some(0.85));
        assert_eq!(f.uint("epoch"), Some(3));
        assert_eq!(f.uint("hashes_compared"), Some(96));
        assert!(!is_event_line(frame));
        let pairs = parse_pairs(f.raw("pairs").unwrap()).unwrap();
        assert_eq!(pairs, vec![(0, 2, 1.0 / 3.0), (1, 5, 1.0)]);
        assert_eq!(parse_pairs("[]").unwrap(), Vec::new());
    }

    #[test]
    fn fields_split_nested_events_and_escaped_strings() {
        let frame = "{\"type\":\"watch_delta\",\"event\":true,\"watch_id\":2,\"epoch\":7,\
                     \"threshold\":0.6,\"new_pairs\":[[3,9,0.75]],\
                     \"estimates\":[[3,9,{\"decision\":\"accepted\",\"matches\":24}]],\
                     \"work\":{\"candidates\":1,\"pruned\":0}}";
        let f = Fields::parse(frame).unwrap();
        assert!(is_event_line(frame));
        assert!(!is_event_line("{\"type\":\"ingested\",\"epoch\":4}"));
        assert_eq!(f.uint("watch_id"), Some(2));
        assert_eq!(f.raw("new_pairs"), Some("[[3,9,0.75]]"));
        assert_eq!(f.raw("work"), Some("{\"candidates\":1,\"pruned\":0}"));
        let err = Fields::parse(
            "{\"type\":\"error\",\"code\":\"bad_request\",\"message\":\"say \\\"hi\\\", ok\"}",
        )
        .unwrap();
        assert_eq!(err.string("code"), Some("bad_request"));
        assert_eq!(err.raw("message"), Some("\"say \\\"hi\\\", ok\""));
    }

    #[test]
    fn malformed_frames_are_refused() {
        for bad in [
            "",
            "[1,2]",
            "{\"a\":[1,2}",
            "{\"a\"1}",
            "{a:1}",
            "{\"a\":1 \"b\":2",
        ] {
            assert!(Fields::parse(bad).is_err(), "{bad}");
        }
        assert!(parse_pairs("[[1,2]]").is_err());
        assert!(parse_pairs("{}").is_err());
    }
}
