//! The streaming JSON writer every [`Serialize`](crate::Serialize) impl
//! writes into.

use std::fmt::Write as _;

/// Appends JSON text to an owned buffer as values are serialized.
///
/// Containers are written with `begin_*` / `key` or `element` / `end_*`
/// calls; the writer places the separators, and in pretty mode the
/// newlines and two-space indentation. One `first` flag is enough for any
/// nesting depth: a container that just closed was, by construction, an
/// element of its parent, so the parent's next entry always needs a comma.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    first: bool,
    /// Where the last two floats formatted by `Display` were written, as
    /// `(bits, start, end)` in `out`.
    recent: [(u64, usize, usize); 2],
}

impl Writer {
    /// A writer producing compact JSON.
    pub fn compact() -> Self {
        Writer {
            out: String::new(),
            pretty: false,
            depth: 0,
            first: true,
            // only finite floats are looked up, so NaN bits never match
            recent: [(f64::NAN.to_bits(), 0, 0); 2],
        }
    }

    /// A writer producing two-space-indented JSON.
    pub fn pretty() -> Self {
        Writer {
            pretty: true,
            ..Writer::compact()
        }
    }

    /// The JSON text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    #[inline]
    pub(crate) fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    #[inline]
    pub(crate) fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
    }

    /// Writes a signed integer.
    #[inline]
    pub(crate) fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push('-');
        }
        self.u64(v.unsigned_abs());
    }

    /// Writes a 128-bit integer.
    pub(crate) fn i128(&mut self, v: i128) {
        let _ = write!(self.out, "{v}");
    }

    /// Writes a float: `null` when non-finite; integral magnitudes below
    /// 1e15 keep a `.0` marker so they read back as floats; everything else
    /// in Rust's shortest round-trip `Display` form, which never uses an
    /// exponent (2.8e164 is written as 165 digits).
    #[inline]
    pub(crate) fn f64(&mut self, f: f64) {
        if !f.is_finite() {
            self.null();
        } else if f == f.trunc() && f.abs() < 1e15 {
            // exact in i64, and digit-for-digit what `{:.1}` prints
            if f == 0.0 && f.is_sign_negative() {
                self.out.push('-');
            }
            self.i64(f as i64);
            self.out.push_str(".0");
        } else {
            self.shortest(f);
        }
    }

    /// Writes `f` in its shortest round-trip form. Formatting it is most of
    /// the cost of writing a network, and an undirected link writes its
    /// payload twice in a row (once per direction), so a float equal to
    /// one of the last two formatted is copied from where it was written.
    fn shortest(&mut self, f: f64) {
        let bits = f.to_bits();
        if let Some(&(_, start, end)) = self.recent.iter().find(|r| r.0 == bits) {
            self.out.extend_from_within(start..end);
            return;
        }
        let start = self.out.len();
        let _ = write!(self.out, "{f}");
        self.recent = [self.recent[1], (bits, start, self.out.len())];
    }

    /// Writes a string with JSON escapes: `"`, `\`, `\n`, `\r`, `\t`, and
    /// `\u00xx` for the other control characters; everything else raw.
    #[inline]
    pub(crate) fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut start = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `i` indexes an ASCII byte, so both slices end on char boundaries
            self.out.push_str(&s[start..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    /// Writes an already-rendered JSON token verbatim (the derive passes
    /// pre-quoted unit-variant names).
    #[inline]
    pub fn raw(&mut self, json: &str) {
        self.out.push_str(json);
    }

    /// Opens an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Starts an object entry: `quoted_colon` is the key as an escaped,
    /// quoted JSON string followed by `:`. The value is written next.
    #[inline]
    pub fn key(&mut self, quoted_colon: &str) {
        self.entry();
        self.out.push_str(quoted_colon);
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Closes an object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Starts an array element; the element is written next.
    #[inline]
    pub fn element(&mut self) {
        self.entry();
    }

    /// Closes an array.
    #[inline]
    pub fn end_array(&mut self) {
        self.close(']');
    }

    #[inline]
    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    #[inline]
    fn entry(&mut self) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        if self.pretty {
            self.newline();
        }
    }

    #[inline]
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}
