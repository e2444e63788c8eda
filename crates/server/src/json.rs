//! A minimal JSON value, writer, and parser.
//!
//! The offline build container carries no serde, so the wire protocol
//! hand-rolls its serialization over this module. Two properties matter
//! more than generality:
//!
//! * **Exact `f64` round-trips.** Floats are written with Rust's shortest
//!   round-trip formatting (`{}`), which [`str::parse::<f64>`] inverts bit
//!   for bit for every finite value — the foundation of the serving
//!   layer's "replayed responses are bit-identical" guarantee. Non-finite
//!   floats (which no engine output produces) degrade to `null`.
//! * **Hostile-input safety.** The parser is recursion-depth-bounded and
//!   rejects trailing garbage, so a malformed frame becomes a structured
//!   protocol error, never a stack overflow or a silent partial parse.
//!
//! Numbers keep their integer-ness: a token without `.`/`e` parses to
//! [`Json::Int`], everything else to [`Json::Float`]. Readers that expect
//! a float accept either ([`Json::as_f64`]), so `1.0` surviving a trip as
//! `1` still decodes exactly.
//!
//! Two writers keep a large `probe_result` cheap without changing a byte:
//!
//! * `write_int` writes its digits through a 20-byte stack buffer
//!   (`i64::MIN` is 20 bytes with its sign), not through `fmt`.
//! * `FloatMemo` remembers the tokens `write_float` produced, in 256
//!   direct-mapped slots keyed by [`f64::to_bits`]. A hit copies the
//!   stored bytes; a miss formats exactly as `write_float` does, then
//!   fills the slot. Equal bits format to equal bytes, so a memoized
//!   frame cannot differ from a formatted one. It pays off because an
//!   estimate-only reply draws every similarity from BayesLSH's 256 grid
//!   points.
//!
//! One reader keeps a large request cheap the same way: `parse_taking`
//! hands one top-level member's bytes to the caller, which reads the
//! shape it expects straight into its own types (the protocol's
//! `records`) or declines, and then the member is parsed into the tree
//! as usual. Every error stays [`parse`]'s own.

use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number token without fraction or exponent.
    Int(i64),
    /// A number token with fraction or exponent (finite).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (the writer is canonical).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (exact for `Int` up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric value as `u64`, when integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Numeric value as `usize`, when integral and in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace). The encoding is
    /// canonical for a given value: field order is the construction
    /// order, floats use shortest round-trip formatting.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends [`encode`](Self::encode)'s bytes to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(*i, out),
            Json::Float(f) => write_float(*f, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (n, item) in items.iter().enumerate() {
                    if n > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (n, (k, v)) in fields.iter().enumerate() {
                    if n > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends an integer token: the decimal digits, built right to left in
/// a stack buffer, after a `-` for a negative. `unsigned_abs` keeps
/// `i64::MIN` exact.
pub(crate) fn write_int(i: i64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Appends a float token: `{}` is Rust's shortest exact round-trip form;
/// it may drop the fraction ("1"), which decodes as Int — readers accept
/// both, so the value survives unchanged. Non-finite floats write `null`.
pub(crate) fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
    } else {
        out.push_str("null");
    }
}

/// Longest token a [`FloatMemo`] slot stores. The shortest round-trip
/// token of a similarity in `[-1, 1]` fits unless it is tiny; a longer one
/// (`{}` writes `1e-300` with 300 zeros) is formatted every time.
const TOKEN_CAP: usize = 22;

/// Slots in a [`FloatMemo`]: one per BayesLSH grid point (see
/// [`FloatMemo`] for how grid points map to slots).
const SLOTS: usize = 256;

/// One memoized float token.
#[derive(Clone, Copy)]
struct Slot {
    /// The float's bits; meaningful only when `len > 0`.
    bits: u64,
    /// Token length; 0 marks an empty slot (no token is empty).
    len: u8,
    token: [u8; TOKEN_CAP],
}

/// The tokens [`write_float`] produced, in [`SLOTS`] direct-mapped slots
/// keyed by [`f64::to_bits`], so a stream of repeated floats formats each
/// one once. A value picks slot `⌊256·f⌋ mod 256`, so BayesLSH's grid
/// points take distinct slots: the MinHash grid (256 points over
/// `[0, 1]`) fills every slot once, and the SimHash grid's points in
/// `[0, 1]` (128 of 256 over `[−1, 1]`) fill every other one. A colliding
/// value evicts the slot's token. The memo is ≈ 8 KB and lives on the
/// caller's stack for one frame.
pub(crate) struct FloatMemo {
    slots: [Slot; SLOTS],
}

impl FloatMemo {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        let empty = Slot {
            bits: 0,
            len: 0,
            token: [0; TOKEN_CAP],
        };
        FloatMemo {
            slots: [empty; SLOTS],
        }
    }

    /// Appends [`write_float`]'s bytes for `f` to `out`.
    pub(crate) fn write(&mut self, f: f64, out: &mut String) {
        let bits = f.to_bits();
        // `as` saturates: ±inf and NaN land in a slot like any value.
        let slot = &mut self.slots[(f * SLOTS as f64) as i64 as usize % SLOTS];
        let len = usize::from(slot.len);
        if len > 0 && slot.bits == bits {
            out.push_str(std::str::from_utf8(&slot.token[..len]).expect("a stored token"));
            return;
        }
        let start = out.len();
        write_float(f, out);
        let token = &out.as_bytes()[start..];
        if token.len() <= TOKEN_CAP {
            slot.bits = bits;
            slot.len = token.len() as u8;
            slot.token[..token.len()].copy_from_slice(token);
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting depth past which the parser refuses a document (a hostile
/// frame cannot drive the recursive parser off the stack).
const MAX_DEPTH: usize = 64;

/// Parses one JSON document, rejecting trailing non-whitespace.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    end_of_document(bytes, pos)?;
    Ok(value)
}

/// Parses one JSON document as [`parse`] does, except that the value of
/// the first member named `key` of a top-level object is first offered
/// to `take`, at the byte where that value starts (whitespace not yet
/// skipped). When `take` returns `Some`, it must have left `pos` just
/// past the value, as [`parse`] would; the member then holds
/// [`Json::Null`] in the returned tree. When it returns `None`, the value
/// is rewound and parsed as [`parse`] parses it. So the tree, the `take`
/// result aside, and every error are [`parse`]'s own.
pub(crate) fn parse_taking<T>(
    input: &str,
    key: &str,
    mut take: impl FnMut(&[u8], &mut usize) -> Option<T>,
) -> Result<(Json, Option<T>), String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let mut taken = None;
    let value = if bytes.get(pos) == Some(&b'{') {
        let mut seen = false;
        parse_object(bytes, &mut pos, 0, &mut |name, bytes, pos| {
            if !seen && name == key {
                seen = true;
                let start = *pos;
                taken = take(bytes, pos);
                if taken.is_some() {
                    return Ok(Json::Null);
                }
                *pos = start;
            }
            parse_value(bytes, pos, 1)
        })?
    } else {
        parse_value(bytes, &mut pos, 0)?
    };
    end_of_document(bytes, pos)?;
    Ok((value, taken))
}

/// Refuses anything but whitespace after a document's value.
fn end_of_document(bytes: &[u8], mut pos: usize) -> Result<(), String> {
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

pub(crate) fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth, &mut |_, bytes, pos| {
            parse_value(bytes, pos, depth + 1)
        }),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

/// Parses one object member's value: `(key, bytes, pos)`, called at the
/// byte after the member's `:`.
type MemberValue<'a> = dyn FnMut(&str, &[u8], &mut usize) -> Result<Json, String> + 'a;

/// Parses an object whose `{` is at `pos`, at nesting `depth`, taking
/// each member's value from `value`.
fn parse_object(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    value: &mut MemberValue<'_>,
) -> Result<Json, String> {
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = match parse_value(bytes, pos, depth + 1)? {
            Json::Str(s) => s,
            other => return Err(format!("object key must be a string, got {other:?}")),
        };
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let member = value(&key, bytes, pos)?;
        fields.push((key, member));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        // Run of plain UTF-8 bytes, appended in one slice.
        while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
            *pos += 1;
        }
        out.push_str(
            std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8".to_string())?,
        );
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pair?
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err("unpaired surrogate".to_string());
                            }
                            let hex2 = bytes
                                .get(*pos + 3..*pos + 7)
                                .ok_or("truncated \\u escape")?;
                            let hex2 = std::str::from_utf8(hex2).map_err(|_| "bad \\u escape")?;
                            let lo = u32::from_str_radix(hex2, 16).map_err(|_| "bad \\u escape")?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("unpaired surrogate".to_string());
                            }
                            *pos += 6;
                            char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                                .ok_or("bad surrogate pair")?
                        } else {
                            char::from_u32(cp).ok_or("bad \\u codepoint")?
                        };
                        out.push(c);
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => unreachable!("loop stops only at quote or backslash"),
        }
    }
}

pub(crate) fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if token.is_empty() || token == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    // "-0" must stay a float: as an i64 it would lose the sign bit the
    // exact round-trip promises to keep.
    if fractional || token == "-0" {
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number '{token}'"))
    } else {
        match token.parse::<i64>() {
            Ok(i) => Ok(Json::Int(i)),
            // Integer tokens beyond i64 fall back to f64 (lossy past 2^53;
            // no protocol field gets near that).
            Err(_) => token
                .parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("invalid number '{token}'")),
        }
    }
}

/// Shorthand for building an object.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":"x\n\"y\"","d":true,"e":null}}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(parse(&v.encode()).expect("re-parses"), v);
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -0.0,
            std::f64::consts::FRAC_1_SQRT_2,
            1.000000123e8,
        ] {
            let enc = Json::Float(x).encode();
            let back = parse(&enc).expect("parses").as_f64().expect("number");
            assert_eq!(back.to_bits(), x.to_bits(), "{x} → {enc} → {back}");
        }
    }

    #[test]
    fn integers_stay_integers() {
        let v = parse("[0,-7,9007199254740993]").expect("parses");
        let items = v.as_arr().expect("array");
        assert_eq!(items[0], Json::Int(0));
        assert_eq!(items[1], Json::Int(-7));
        // Beyond 2^53 still parses (as the closest representable).
        assert!(items[2].as_f64().is_some() || items[2].as_u64().is_some());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "{\"a\":1}extra",
            "",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_bound_refuses_hostile_nesting() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    /// `format!`'s token for a float, `null` when non-finite: the bytes
    /// the writers must produce, computed without them.
    fn reference(f: f64) -> String {
        if f.is_finite() {
            format!("{f}")
        } else {
            "null".into()
        }
    }

    /// Writes `floats` through one memo, comma-separated, and checks the
    /// bytes against [`reference`].
    fn assert_memo_writes(floats: &[f64]) {
        let mut memo = FloatMemo::new();
        let mut out = String::new();
        for &f in floats {
            memo.write(f, &mut out);
            out.push(',');
        }
        let want: String = floats.iter().map(|&f| reference(f) + ",").collect();
        assert_eq!(out, want, "{floats:?}");
    }

    #[test]
    fn integers_write_the_digits_format_writes() {
        let mut cases = vec![0, 1, -1, 9, -9, 10, -10, i64::MIN, i64::MAX];
        let mut power = 1i64;
        for _ in 1..=18 {
            power *= 10;
            for i in [power - 1, power, power + 1] {
                cases.extend([i, -i]);
            }
        }
        // Counters are u64 on the wire and cast as `encode_into` casts them.
        for counter in [i64::MAX as u64 + 1, u64::MAX - 7, u64::MAX] {
            cases.push(counter as i64);
        }
        for i in cases {
            let mut out = String::from("x");
            write_int(i, &mut out);
            assert_eq!(out, format!("x{i}"));
        }
    }

    #[test]
    fn float_memo_writes_the_tokens_format_writes() {
        // Repeats hit; 0.5 and 0.5 + 1e-9, then 0.0 and -0.0, share a slot
        // and evict each other.
        assert_memo_writes(&[0.25, 0.75, 0.25, 0.25, 0.75, 1.0 / 3.0, 0.25]);
        assert_memo_writes(&[0.5, 0.5 + 1e-9, 0.5, 0.5 + 1e-9, 0.5, 0.0, -0.0, 0.0, -0.0]);
        // Tokens longer than a slot are formatted every time.
        assert_memo_writes(&[1e-300, 5e-324, 1e-300, 5e-324, 1e300, 1e300]);
        assert_memo_writes(&[-0.0, 1.0, 0.1 + 0.2, 1.0, -0.0, 0.1 + 0.2]);
        assert_memo_writes(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn float_memo_matches_format_on_random_bits(
            bits in proptest::collection::vec(0u64..u64::MAX, 1..64),
            sims in proptest::collection::vec(-1.0f64..1.0, 1..64),
            repeats in 1usize..4
        ) {
            let mut floats: Vec<f64> = bits
                .into_iter()
                .map(f64::from_bits)
                .filter(|f| f.is_finite())
                .collect();
            floats.extend(sims);
            let stream = floats.repeat(repeats);
            assert_memo_writes(&stream);
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""Aé😀""#).expect("parses");
        assert_eq!(v.as_str(), Some("Aé😀"));
        // Control characters are escaped on the way out.
        assert_eq!(Json::Str("\u{1}".into()).encode(), "\"\\u0001\"");
    }
}
