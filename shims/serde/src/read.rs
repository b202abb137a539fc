//! The streaming JSON reader every [`Deserialize`](crate::Deserialize) impl
//! reads from.

use crate::{Deserialize, Error};
use std::borrow::Cow;

/// Deepest nesting of arrays and objects a document may have. The deepest
/// document this workspace writes is under a dozen levels; the limit keeps
/// a hostile `[[[[…` from recursing the decoder off the end of its stack.
pub const MAX_DEPTH: usize = 128;

/// A number token: integers stay exact, anything with a fraction or an
/// exponent is a float, and digit strings beyond `i128` fall back to `f64`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Number {
    /// An integer literal.
    Int(i128),
    /// A float literal, or an integer literal too large for `i128`.
    Float(f64),
}

/// Reads JSON values out of a borrowed string, one token at a time.
///
/// Every method skips leading whitespace and checks the syntax of exactly
/// what it consumes, so no value tree is ever built: a derived impl reads
/// the shape it expects and skips what it does not know.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// Checks that only whitespace follows the value just read.
    pub fn finish(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(Error(format!("trailing input at byte {}", self.pos)))
        }
    }

    /// The next non-whitespace byte, without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Consumes a `null` if one comes next.
    #[inline]
    pub(crate) fn null(&mut self) -> Result<bool, Error> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reads `true` or `false`.
    #[inline]
    pub(crate) fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.expected("bool")),
        }
    }

    /// Reads a number token: a `-` or digit, then every byte of
    /// `0-9 . e E + -` that follows. A token of digits alone is an integer;
    /// anything else is a float.
    #[inline]
    pub(crate) fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos_of_value();
        let bytes = self.src.as_bytes();
        let negative = match bytes.get(start) {
            Some(b'-') => true,
            Some(b'0'..=b'9') => false,
            _ => return Err(self.expected("number")),
        };
        let int_start = start + usize::from(negative);
        let (int_end, mut mantissa) = digits(bytes, int_start, 0);
        let mut frac_digits = 0;
        let mut end = int_end;
        if bytes.get(end) == Some(&b'.') {
            let (frac_end, m) = digits(bytes, end + 1, mantissa);
            frac_digits = frac_end - end - 1;
            mantissa = m;
            end = frac_end;
        }
        let plain_end = end;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(end) {
            end += 1;
        }
        self.pos = end;
        let int_digits = int_end - int_start;
        // at most 19 digits cannot overflow the u64 mantissa
        if end == int_end && (1..=19).contains(&int_digits) {
            let m = i128::from(mantissa);
            return Ok(Number::Int(if negative { -m } else { m }));
        }
        if end == plain_end
            && int_digits > 0
            && frac_digits > 0
            && int_digits + frac_digits <= 19
            && mantissa <= 1 << 53
            && frac_digits < POW10.len()
        {
            // Both operands are exact doubles, so the one correctly
            // rounded division is the correctly rounded value of the
            // decimal, the same double a full parse finds.
            let v = mantissa as f64 / POW10[frac_digits];
            return Ok(Number::Float(if negative { -v } else { v }));
        }
        let text = &self.src[start..end];
        if end > int_end {
            return text
                .parse()
                .map(Number::Float)
                .map_err(|_| Error(format!("invalid number `{text}`")));
        }
        // Longer digit strings are exact while they fit an i128; past that
        // they are huge floats: `Display` for f64 never uses an exponent,
        // so our own 2.8e164 arrives as 165 digits.
        text.parse()
            .map(Number::Int)
            .or_else(|_| text.parse().map(Number::Float))
            .map_err(|_| Error(format!("invalid integer `{text}`")))
    }

    /// Reads a string, borrowing it from the input unless it has escapes.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("string"));
        }
        self.pos += 1;
        let start = self.pos;
        self.skip_plain();
        if self.byte() == Some(b'"') {
            let s = &self.src[start..self.pos];
            self.pos += 1;
            return Ok(Cow::Borrowed(s));
        }
        let mut out = String::from(&self.src[start..self.pos]);
        loop {
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => {
                    let run = self.pos;
                    self.skip_plain();
                    out.push_str(&self.src[run..self.pos]);
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    /// Opens an object; read its entries with [`Reader::next_key`].
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    /// The next key of the open object, with its `:` consumed, or `None`
    /// once the closing `}` is consumed. `first` starts `true` for each
    /// object and tracks whether a `,` is due.
    #[inline]
    pub fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_entry(first, b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        if self.peek() != Some(b':') {
            return Err(self.expected("`:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Consumes the next key of the open object if it is exactly
    /// `quoted_colon` (the key as a quoted JSON string, then `:`), and says
    /// whether it did. Derived impls try their fields in declaration order,
    /// the order they are written in, before reading keys in general.
    #[inline]
    pub fn expect_key(&mut self, first: &mut bool, quoted_colon: &str) -> bool {
        self.skip_ws();
        let at = if *first {
            self.pos
        } else if self.byte() == Some(b',') {
            self.pos + 1
        } else {
            return false;
        };
        let matched = self.src.as_bytes()[at..].starts_with(quoted_colon.as_bytes());
        if matched {
            self.pos = at + quoted_colon.len();
            *first = false;
        }
        matched
    }

    /// Opens an array; read its elements with [`Reader::next_element`].
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    /// True when another element of the open array follows, false once the
    /// closing `]` is consumed. `first` works as for [`Reader::next_key`].
    #[inline]
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool, Error> {
        self.next_entry(first, b']')
    }

    /// Consumes one value of any shape, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        let mut first = true;
        match self.peek() {
            Some(b'"') => self.str().map(drop),
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key(&mut first)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element(&mut first)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') => self.literal("null"),
            _ => self.number().map(drop),
        }
    }

    /// Reads the value of object field `name` into `slot`, rejecting a
    /// second occurrence of the same key.
    #[inline]
    pub fn field<T: Deserialize>(&mut self, slot: &mut Option<T>, name: &str) -> Result<(), Error> {
        if slot.is_some() {
            return Err(Error(format!("duplicate field `{name}`")));
        }
        *slot = Some(T::deserialize(self)?);
        Ok(())
    }

    /// Reads the next element of an array that must hold exactly `arity`.
    #[inline]
    pub fn element<T: Deserialize>(&mut self, first: &mut bool, arity: usize) -> Result<T, Error> {
        if !self.next_element(first)? {
            return Err(Error(format!("expected {arity} elements, found fewer")));
        }
        T::deserialize(self)
    }

    /// Closes an array that must hold exactly the `arity` elements already
    /// read.
    #[inline]
    pub fn end_tuple(&mut self, first: &mut bool, arity: usize) -> Result<(), Error> {
        if self.next_element(first)? {
            return Err(Error(format!("expected {arity} elements, found more")));
        }
        Ok(())
    }

    // ------------------------------------------------------------ internals

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
    }

    /// Skips whitespace and returns where the value starts.
    #[inline]
    fn pos_of_value(&mut self) -> usize {
        self.skip_ws();
        self.pos
    }

    /// Advances to the next `"` or `\` (or the end of input).
    #[inline]
    fn skip_plain(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
    }

    fn literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{lit}` at byte {}", self.pos)))
        }
    }

    fn expected(&self, what: &str) -> Error {
        match self.byte() {
            Some(b) => Error(format!(
                "expected {what}, found {:?} at byte {}",
                b as char, self.pos
            )),
            None => Error(format!("expected {what}, found end of input")),
        }
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        if self.peek() != Some(bracket) {
            return Err(self.expected(if bracket == b'{' { "`{`" } else { "`[`" }));
        }
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// Shared by objects and arrays: consumes the `,` before every entry
    /// but the first, or the closing bracket.
    #[inline]
    fn next_entry(&mut self, first: &mut bool, close: u8) -> Result<bool, Error> {
        let b = self.peek();
        if b == Some(close) {
            // a `,` is always consumed together with the entry after it,
            // so `[1,]` fails in that entry's read, never here
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        if !std::mem::take(first) {
            if b != Some(b',') {
                return Err(self.expected(if close == b'}' {
                    "`,` or `}`"
                } else {
                    "`,` or `]`"
                }));
            }
            self.pos += 1;
        }
        Ok(true)
    }

    /// Decodes one escape; the `\` is already consumed.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .src
                    .as_bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| Error("truncated \\u escape".into()))?;
                let code = std::str::from_utf8(hex)
                    .ok()
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| Error("bad \\u escape".into()))?;
                self.pos += 4;
                // lone surrogates (and pairs) become U+FFFD
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            other => return Err(Error(format!("bad escape {other:?}"))),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }
}

/// The powers of ten that are exact doubles.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Scans the ASCII digits from `start`, folding them onto `m`; returns the
/// end of the run and the (wrapping) accumulated value. Whole runs of eight
/// digits are folded in one step, since a float's sixteen-odd digits are
/// most of the work of reading a network.
#[inline]
fn digits(bytes: &[u8], start: usize, mut m: u64) -> (usize, u64) {
    let mut end = start;
    while let Some(chunk) = bytes.get(end..end + 8) {
        let v = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let Some(eight) = eight_digits(v) else { break };
        m = m.wrapping_mul(100_000_000).wrapping_add(eight);
        end += 8;
    }
    while let Some(&b @ b'0'..=b'9') = bytes.get(end) {
        m = m.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        end += 1;
    }
    (end, m)
}

/// The value of eight ASCII digits loaded little-endian (first digit in
/// the low byte), or `None` if any byte is not a digit.
#[inline]
fn eight_digits(v: u64) -> Option<u64> {
    const HIGH: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    const ZEROS: u64 = 0x3030_3030_3030_3030;
    // every high nibble is 3, and adding 6 to any byte keeps it that way
    if v & HIGH != ZEROS || v.wrapping_add(0x0606_0606_0606_0606) & HIGH != ZEROS {
        return None;
    }
    // pairwise combine adjacent lanes: bytes → 2-digit, → 4-digit, → 8-digit
    let v = v - ZEROS;
    let v = (v * 10 + (v >> 8)) & 0x00FF_00FF_00FF_00FF;
    let v = (v * 100 + (v >> 16)) & 0x0000_FFFF_0000_FFFF;
    Some((v * 10_000 + (v >> 32)) & 0xFFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skip(json: &str) -> Result<(), Error> {
        let mut r = Reader::new(json);
        r.skip_value()?;
        r.finish()
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let nest = |n: usize| format!("{}0{}", "[{\"k\":".repeat(n), "}]".repeat(n));
        assert!(skip(&nest(MAX_DEPTH / 2)).is_ok());
        let e = skip(&nest(MAX_DEPTH / 2 + 1)).unwrap_err();
        assert!(e.0.contains("nesting deeper than 128 levels"), "{e}");
        // far past the limit, on a default-size stack, still just an error
        let bomb = format!("{{\"id\":1,\"body\":{}", "[".repeat(200_000));
        assert!(skip(&bomb).is_err());
    }

    #[test]
    fn depth_is_released_as_containers_close() {
        let sibling = format!("[{}]", vec!["[[[]]]"; 1000].join(","));
        assert!(skip(&sibling).is_ok());
    }
}
