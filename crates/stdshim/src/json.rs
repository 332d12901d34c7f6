//! Minimal JSON reader/writer for experiment and benchmark artifacts.
//!
//! The workspace's primary JSON direction is results out to disk
//! (`BENCH_*.json`, figure artifacts, `--metrics-out`). One serializer,
//! [`JsonWriter`], writes every byte: objects, arrays, field names and
//! scalars straight into a [`JsonSink`] (a `String`, a `Formatter` or a
//! `BufWriter`). A type that has a JSON form implements the one trait,
//! [`ToJson`], by hand and streams itself through that writer with no tree
//! in between; there is no derive machinery, so every schema stays explicit.
//!
//! The CI perf-gate binary also needs to read those artifacts back, so
//! [`JsonValue::parse`] provides the matching recursive-descent parser
//! (strict JSON, byte-offset errors, bounded nesting depth) together with
//! the typed accessors ([`JsonValue::get`], [`JsonValue::as_f64`], …) gate
//! checks are written against. A [`JsonValue`] built by hand prints through
//! the same writer.
//!
//! Object fields keep insertion order so emitted files are stable and
//! diffable across runs.

use std::fmt::{self, Write as _};
use std::io::{self, Write as _};

/// A JSON document fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (emitted without a decimal point).
    Int(i64),
    /// Floating-point number. Non-finite values serialize as `null`, since
    /// JSON has no NaN/Infinity.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered array.
    Array(Vec<JsonValue>),
    /// Object with insertion-ordered fields.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(name, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array by converting each item.
    pub fn array<T: Into<JsonValue>>(items: impl IntoIterator<Item = T>) -> JsonValue {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }

    /// Serializes with two-space indentation, for human-inspected artifacts.
    pub fn to_pretty_string(&self) -> String {
        Json(self).to_pretty_string()
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl From<f64> for JsonValue {
    fn from(f: f64) -> Self {
        JsonValue::Float(f)
    }
}

impl JsonValue {
    /// Parses a complete JSON document (strict grammar, no trailing data
    /// other than whitespace). Errors carry the byte offset and a short
    /// message; nesting deeper than 128 levels is rejected rather than
    /// risking stack exhaustion on hostile input.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup: `Some(value)` if `self` is an object containing
    /// `key` (first occurrence wins), else `None`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value as `f64` (`Int` widens), else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The integer value, else `None` (floats do not truncate).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean value, else `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, else `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, else `None`.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Error from [`JsonValue::parse`]: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Consumes `lit` if the input starts with it here.
    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The slice boundaries sit on ASCII delimiters, so this is
            // always valid UTF-8 (the input is &str to begin with).
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        // Delegating validation to the std float parser keeps the grammar
        // slightly lax (e.g. `1.`), which is fine for our own artifacts.
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonParseError {
                offset: start,
                message: format!("invalid number '{text}'"),
            })
    }
}

/// Where a [`JsonWriter`] puts its text: a `String`, a `Formatter`, or a
/// `BufWriter` over a file or pipe. Errors pass through unchanged, so an io
/// error reaches the caller as itself.
pub trait JsonSink {
    /// What a failed write reports.
    type Error;
    /// Appends `s`.
    fn put(&mut self, s: &str) -> Result<(), Self::Error>;
    /// Appends formatted text (floats and `\u00XX` escapes).
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), Self::Error>;
    /// Appends an integer's decimal text, formatted without `core::fmt`. A
    /// sink that only measures counts the digits and converts nothing.
    fn put_int(&mut self, i: i64) -> Result<(), Self::Error> {
        let mut buf = [0; 20];
        let text = decimal(i, &mut buf);
        // lint:allow(unwrap, `decimal` writes only ASCII digits and a sign)
        self.put(std::str::from_utf8(text).expect("ASCII digits are UTF-8"))
    }
}

/// `i` in decimal, written into the end of `buf` (20 bytes hold `i64::MIN`),
/// two digits per division.
#[inline]
fn decimal(i: i64, buf: &mut [u8; 20]) -> &[u8] {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let mut at = buf.len();
    let mut n = i.unsigned_abs();
    while n >= 10 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n > 0 || at == buf.len() {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    &buf[at..]
}

impl JsonSink for String {
    type Error = fmt::Error;
    fn put(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) -> fmt::Result {
        self.write_fmt(args)
    }
}

impl JsonSink for fmt::Formatter<'_> {
    type Error = fmt::Error;
    fn put(&mut self, s: &str) -> fmt::Result {
        self.write_str(s)
    }
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) -> fmt::Result {
        self.write_fmt(args)
    }
}

impl<W: io::Write> JsonSink for io::BufWriter<W> {
    type Error = io::Error;
    fn put(&mut self, s: &str) -> io::Result<()> {
        self.write_all(s.as_bytes())
    }
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) -> io::Result<()> {
        io::Write::write_fmt(self, args)
    }
}

/// A sink that keeps only the length of what it is given: the measuring
/// pass of [`Json::to_pretty_string`].
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl JsonSink for ByteCount {
    type Error = fmt::Error;
    fn put(&mut self, s: &str) -> fmt::Result {
        self.write_str(s)
    }
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) -> fmt::Result {
        self.write_fmt(args)
    }
    fn put_int(&mut self, i: i64) -> fmt::Result {
        self.0 += decimal(i, &mut [0; 20]).len();
        Ok(())
    }
}

impl<S: JsonSink + ?Sized> JsonSink for &mut S {
    type Error = S::Error;
    fn put(&mut self, s: &str) -> Result<(), S::Error> {
        (**self).put(s)
    }
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), S::Error> {
        (**self).put_fmt(args)
    }
    fn put_int(&mut self, i: i64) -> Result<(), S::Error> {
        (**self).put_int(i)
    }
}

/// The workspace's one JSON serializer: a caller opens objects and arrays,
/// names fields and writes scalars, and the writer adds the separators and,
/// in pretty form, the line breaks and two-space indentation. Nothing is
/// buffered, so a document of any size costs only what its sink grows by.
///
/// Float formatting, escaping and indentation live here and nowhere else;
/// [`JsonValue`] prints by walking its tree through this writer.
pub struct JsonWriter<S> {
    out: S,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// The innermost open container has no item yet.
    empty: bool,
    /// A field name was just written; its value follows it directly.
    after_key: bool,
}

impl<S: JsonSink> JsonWriter<S> {
    /// A writer in pretty form (two-space indentation, one item per line)
    /// or compact form (no whitespace at all). [`Json`] starts every
    /// document.
    fn new(out: S, pretty: bool) -> Self {
        JsonWriter {
            out,
            pretty,
            depth: 0,
            empty: true,
            after_key: false,
        }
    }

    /// A comma if `comma`, then, in pretty form, a line break and the
    /// indentation for `depth`: one write at any depth up to 16.
    fn separator(&mut self, comma: bool, depth: usize) -> Result<(), S::Error> {
        const BREAK: &str = ",\n                                ";
        const WIDTH: usize = BREAK.len() - 2;
        if !self.pretty {
            return if comma { self.out.put(",") } else { Ok(()) };
        }
        let mut left = 2 * depth;
        let n = left.min(WIDTH);
        self.out.put(&BREAK[usize::from(!comma)..2 + n])?;
        left -= n;
        while left > 0 {
            let n = left.min(WIDTH);
            self.out.put(&BREAK[2..2 + n])?;
            left -= n;
        }
        Ok(())
    }

    /// The separator before an item: nothing after a field name, else a
    /// comma unless it is the container's first item, then the line break.
    fn item(&mut self) -> Result<(), S::Error> {
        if std::mem::take(&mut self.after_key) {
            return Ok(());
        }
        let comma = !std::mem::replace(&mut self.empty, false);
        if self.depth > 0 {
            self.separator(comma, self.depth)?;
        }
        Ok(())
    }

    fn open(&mut self, bracket: &str) -> Result<(), S::Error> {
        self.item()?;
        self.out.put(bracket)?;
        self.depth += 1;
        self.empty = true;
        Ok(())
    }

    /// A non-empty container closes on a line of its own; an empty one
    /// right after its opening bracket: `{}`, `[]`.
    fn close(&mut self, bracket: &str) -> Result<(), S::Error> {
        self.depth -= 1;
        if !self.empty {
            self.separator(false, self.depth)?;
        }
        self.empty = false;
        self.out.put(bracket)
    }

    /// Opens an object; name each field with [`JsonWriter::key`].
    pub fn begin_object(&mut self) -> Result<(), S::Error> {
        self.open("{")
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> Result<(), S::Error> {
        self.close("}")
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> Result<(), S::Error> {
        self.open("[")
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> Result<(), S::Error> {
        self.close("]")
    }

    /// Names the next field of the open object; its value comes next.
    pub fn key(&mut self, name: &str) -> Result<(), S::Error> {
        self.item()?;
        self.escaped(name, if self.pretty { "\": " } else { "\":" })?;
        self.after_key = true;
        Ok(())
    }

    /// `null`.
    pub fn null(&mut self) -> Result<(), S::Error> {
        self.item()?;
        self.out.put("null")
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) -> Result<(), S::Error> {
        self.item()?;
        self.out.put(if b { "true" } else { "false" })
    }

    /// An integer, without a decimal point.
    pub(crate) fn int(&mut self, i: i64) -> Result<(), S::Error> {
        self.item()?;
        self.out.put_int(i)
    }

    /// An unsigned integer: an integer up to `i64::MAX`, a float past it
    /// (only plausible for raw nanosecond counters).
    pub fn uint(&mut self, u: u64) -> Result<(), S::Error> {
        match i64::try_from(u) {
            Ok(i) => self.int(i),
            Err(_) => self.float(u as f64),
        }
    }

    /// A float that keeps its decimal point or exponent (`1.0`, not `1`),
    /// so it reads back as a float; NaN and ±inf, which JSON lacks, are
    /// `null`.
    pub fn float(&mut self, f: f64) -> Result<(), S::Error> {
        self.item()?;
        if f.is_finite() {
            self.out.put_fmt(format_args!("{f:?}"))
        } else {
            self.out.put("null")
        }
    }

    /// A string.
    pub fn str(&mut self, s: &str) -> Result<(), S::Error> {
        self.item()?;
        self.escaped(s, "\"")
    }

    /// `s` quoted, with `"`, `\` and control characters escaped, then
    /// `close`: the closing quote and whatever follows it. Every byte
    /// escaped is ASCII, so the runs between them are whole characters.
    fn escaped(&mut self, s: &str, close: &str) -> Result<(), S::Error> {
        self.out.put("\"")?;
        // One pass with no early exit finds the common string with nothing
        // to escape; only the others go through `escape_each`.
        let plain = s.bytes().fold(true, |plain, b| {
            plain & (b >= 0x20) & (b != b'"') & (b != b'\\')
        });
        if plain {
            self.out.put(s)?;
            return self.out.put(close);
        }
        self.escape_each(s, close)
    }

    /// The rest of [`JsonWriter::escaped`] for a string with something to
    /// escape: runs of plain bytes, each escape between them.
    #[cold]
    #[inline(never)]
    fn escape_each(&mut self, s: &str, close: &str) -> Result<(), S::Error> {
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.put(&s[run..i])?;
            if escape.is_empty() {
                self.out.put_fmt(format_args!("\\u{b:04x}"))?;
            } else {
                self.out.put(escape)?;
            }
            run = i + 1;
        }
        self.out.put(&s[run..])?;
        self.out.put(close)
    }
}

/// A value with a JSON form, which it writes through a [`JsonWriter`],
/// building nothing; the workspace's replacement for `#[derive(Serialize)]`.
pub trait ToJson {
    /// Writes `self` as one JSON value.
    fn write_json<S: JsonSink>(&self, w: &mut JsonWriter<S>) -> Result<(), S::Error>;
}

/// A borrowed JSON document: `Json(&value)` serializes `value` on demand,
/// pretty through [`Json::to_pretty_string`] or [`Json::write_pretty`],
/// compact through `Display`.
pub struct Json<'a, T: ?Sized>(pub &'a T);

impl<T: ToJson + ?Sized> Json<'_, T> {
    /// The pretty text plus a trailing newline. The document is measured
    /// first, then written once into a `String` of exactly that capacity:
    /// one allocation, not one per doubling as the text grows.
    pub fn to_pretty_string(&self) -> String {
        let mut len = ByteCount(0);
        let mut out = String::new();
        self.write_pretty(&mut len)
            .and_then(|()| {
                out.reserve_exact(len.0);
                self.write_pretty(&mut out)
            })
            // lint:allow(unwrap, a String sink fails only if a number's Display does, and std's never do)
            .expect("a String accepts every write");
        debug_assert_eq!(out.len(), len.0, "both passes run the same writer");
        out
    }

    /// Streams the pretty text plus a trailing newline into `out`.
    pub fn write_pretty<S: JsonSink>(&self, out: S) -> Result<(), S::Error> {
        let mut w = JsonWriter::new(out, true);
        self.0.write_json(&mut w)?;
        w.out.put("\n")
    }
}

impl<T: ToJson + ?Sized> fmt::Display for Json<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write_json(&mut JsonWriter::new(f, false))
    }
}

/// Compact serialization (no whitespace), written straight into the
/// formatter; `to_string()` comes for free.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&Json(self), f)
    }
}

/// Walks the tree through the one serializer.
impl ToJson for JsonValue {
    fn write_json<S: JsonSink>(&self, w: &mut JsonWriter<S>) -> Result<(), S::Error> {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::Int(i) => w.int(*i),
            JsonValue::Float(f) => w.float(*f),
            JsonValue::Str(s) => w.str(s),
            JsonValue::Array(items) => {
                w.begin_array()?;
                for item in items {
                    item.write_json(w)?;
                }
                w.end_array()
            }
            JsonValue::Object(fields) => {
                w.begin_object()?;
                for (key, value) in fields {
                    w.key(key)?;
                    value.write_json(w)?;
                }
                w.end_object()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::Bool(true).to_string(), "true");
        assert_eq!(JsonValue::Int(42).to_string(), "42");
        assert_eq!(JsonValue::Int(-7).to_string(), "-7");
        assert_eq!(JsonValue::Float(1.5).to_string(), "1.5");
        assert_eq!(JsonValue::from("hi".to_string()).to_string(), "\"hi\"");
    }

    #[test]
    fn floats_stay_floats() {
        // A whole-number float must keep its decimal point.
        assert_eq!(JsonValue::from(1.0).to_string(), "1.0");
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape() {
        let s = "a\"b\\c\nd\te\u{1}";
        assert_eq!(
            JsonValue::Str(s.to_string()).to_string(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn collections_nest() {
        let v = JsonValue::object([
            ("name", JsonValue::Str("pool".to_string())),
            (
                "samples",
                JsonValue::Array((1..=3).map(JsonValue::Int).collect()),
            ),
            ("p99", JsonValue::Float(1.25)),
            ("skipped", JsonValue::Null),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"pool","samples":[1,2,3],"p99":1.25,"skipped":null}"#
        );
    }

    #[test]
    fn field_order_preserved() {
        let v = JsonValue::object([("z", JsonValue::Int(1)), ("a", JsonValue::Int(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn pretty_print_indents() {
        let v = JsonValue::object([("xs", JsonValue::Array(vec![JsonValue::Int(1)]))]);
        assert_eq!(v.to_pretty_string(), "{\n  \"xs\": [\n    1\n  ]\n}\n");
    }

    /// Golden text for the serializer: the literal bytes of a depth-4 tree
    /// with empty and non-empty containers at inner levels, pretty and
    /// compact. `--metrics-out` files are compared byte for byte across
    /// commits, so the indentation rules are pinned here, not just "parses
    /// back".
    #[test]
    fn golden_pretty_and_compact_text() {
        let v = JsonValue::object([
            ("counters", JsonValue::object([("a/b", JsonValue::Int(7))])),
            ("empty_obj", JsonValue::Object(vec![])),
            ("empty_arr", JsonValue::Array(vec![])),
            (
                "series",
                JsonValue::object([(
                    "pool/live",
                    JsonValue::Array(vec![
                        JsonValue::Array(vec![JsonValue::Float(30.0), JsonValue::Float(2.5)]),
                        JsonValue::Array(vec![]),
                        JsonValue::Array(vec![JsonValue::Object(vec![]), JsonValue::Null]),
                    ]),
                )]),
            ),
            ("flag", JsonValue::Bool(true)),
        ]);
        let pretty = r#"{
  "counters": {
    "a/b": 7
  },
  "empty_obj": {},
  "empty_arr": [],
  "series": {
    "pool/live": [
      [
        30.0,
        2.5
      ],
      [],
      [
        {},
        null
      ]
    ]
  },
  "flag": true
}
"#;
        assert_eq!(v.to_pretty_string(), pretty);
        assert_eq!(
            v.to_string(),
            r#"{"counters":{"a/b":7},"empty_obj":{},"empty_arr":[],"series":{"pool/live":[[30.0,2.5],[],[{},null]]},"flag":true}"#
        );
        // Indentation wider than the serializer's padding chunk.
        let mut deep = JsonValue::Array(vec![JsonValue::Int(1)]);
        for _ in 0..19 {
            deep = JsonValue::Array(vec![deep]);
        }
        let text = deep.to_pretty_string();
        let widest = text.lines().map(|l| l.len()).max().unwrap();
        assert_eq!(widest, 2 * 20 + 1, "innermost scalar sits at depth 20");
        assert!(text.lines().any(|l| l == format!("{}1", " ".repeat(40))));
        assert_eq!(JsonValue::parse(&text).unwrap(), deep);
    }

    #[test]
    fn empty_containers_compact() {
        assert_eq!(JsonValue::Array(vec![]).to_pretty_string(), "[]\n");
        assert_eq!(JsonValue::Object(vec![]).to_string(), "{}");
    }

    /// `to_pretty_string` measures, then writes into a `String` of exactly
    /// the measured length, whatever the document holds.
    #[test]
    fn pretty_string_is_allocated_to_its_length() {
        struct Wide;
        impl ToJson for Wide {
            fn write_json<S: JsonSink>(&self, w: &mut JsonWriter<S>) -> Result<(), S::Error> {
                w.begin_array()?;
                w.uint(u64::MAX)?;
                w.uint(i64::MAX as u64 + 1)?;
                w.int(i64::MIN)?;
                w.end_array()
            }
        }
        let text = Json(&Wide).to_pretty_string();
        assert_eq!(text.capacity(), text.len(), "{text}");
        assert!(text.contains("-9223372036854775808"), "{text}");
        let docs = [
            JsonValue::Str("q\"b\\n\nt\tc\u{1}\u{1f}é".to_string()),
            JsonValue::array([f64::NAN, f64::INFINITY, -0.0, 1e300, 0.1]),
            JsonValue::Int(i64::MIN),
            JsonValue::object([
                ("max", JsonValue::Int(i64::MAX)),
                ("zero", JsonValue::Int(0)),
            ]),
            JsonValue::object([
                ("empty", JsonValue::Array(vec![JsonValue::Object(vec![])])),
                ("nested", JsonValue::Array(vec![JsonValue::Array(vec![])])),
            ]),
        ];
        for doc in docs {
            let text = doc.to_pretty_string();
            assert_eq!(text.capacity(), text.len(), "{text}");
            assert_eq!(JsonValue::parse(&text).unwrap().to_pretty_string(), text);
        }
        assert_eq!(JsonValue::Int(i64::MIN).to_string(), i64::MIN.to_string());
    }

    /// `decimal` writes what `Display` does, at every digit count and sign.
    #[test]
    fn decimal_matches_display() {
        let mut values = vec![0, i64::MAX, i64::MIN, i64::MIN + 1];
        let mut power = 1i64;
        while let Some(next) = power.checked_mul(10) {
            values.extend([power - 1, power, power + 1, -power, next / 3]);
            power = next;
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(x as i64 >> (x % 64));
        }
        for i in values {
            let mut buf = [0; 20];
            assert_eq!(decimal(i, &mut buf), i.to_string().as_bytes(), "{i}");
        }
    }

    #[test]
    fn huge_u64_degrades_to_float() {
        let uint = |u| {
            let mut out = String::new();
            JsonWriter::new(&mut out, false).uint(u).unwrap();
            out
        };
        assert_eq!(uint(i64::MAX as u64), i64::MAX.to_string());
        let v = uint(u64::MAX);
        assert!(v.contains('e') || v.contains('.'), "got {v}");
    }

    #[test]
    fn parse_round_trips_serializer_output() {
        let v = JsonValue::object([
            ("name", JsonValue::Str("pool\n\"x\"".to_string())),
            (
                "samples",
                JsonValue::Array((1..=3).map(JsonValue::Int).collect()),
            ),
            ("p99", JsonValue::Float(1.25)),
            ("neg", JsonValue::Int(-7)),
            ("flag", JsonValue::Bool(true)),
            ("skipped", JsonValue::Null),
            (
                "nested",
                JsonValue::object([("deep", JsonValue::array([0.5]))]),
            ),
        ]);
        assert_eq!(JsonValue::parse(&v.to_string()).expect("compact"), v);
        assert_eq!(JsonValue::parse(&v.to_pretty_string()).expect("pretty"), v);
    }

    #[test]
    fn parse_scalars_and_numbers() {
        assert_eq!(JsonValue::parse(" null ").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-42").unwrap(), JsonValue::Int(-42));
        assert_eq!(JsonValue::parse("1.5e2").unwrap(), JsonValue::Float(150.0));
        // Integer overflowing i64 degrades to float instead of erroring.
        assert!(matches!(
            JsonValue::parse("99999999999999999999").unwrap(),
            JsonValue::Float(_)
        ));
    }

    #[test]
    fn parse_string_escapes() {
        let v = JsonValue::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Surrogate pair for 𝄞 (U+1D11E).
        let v = JsonValue::parse(r#""𝄞""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1D11E}"));
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for (input, needle) in [
            ("", "end of input"),
            ("[1, 2", "expected ',' or ']'"),
            ("{\"a\" 1}", "expected ':'"),
            ("\"abc", "unterminated"),
            ("[1] tail", "trailing"),
            ("nul", "unexpected character"),
            (r#""\ud834""#, "unpaired surrogate"),
        ] {
            let err = JsonValue::parse(input).expect_err(input);
            assert!(
                err.message.contains(needle),
                "input {input:?}: got {:?}, wanted {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn parse_rejects_runaway_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = JsonValue::parse(&deep).expect_err("deep nesting");
        assert!(err.message.contains("nesting too deep"));
    }

    #[test]
    fn accessors_select_by_type() {
        let v = JsonValue::parse(r#"{"a": 1, "b": 2.5, "c": "x", "d": [1]}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_i64), Some(1));
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(v.get("b").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(
            v.get("b").and_then(JsonValue::as_i64),
            None,
            "no truncation"
        );
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(
            v.get("d").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("a"), None);
    }
}
