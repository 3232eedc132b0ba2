//! Streaming XML writer with escaping.

use std::fmt;
use std::io::{self, Write};

/// A writer-level failure: either the underlying sink failed, or the caller
/// drove the writer through a malformed element tree (mismatched or unclosed
/// tags). The latter is a programming error in the *tree*, not the stream,
/// and must surface as a typed error — a serve worker can never afford to
/// panic on it.
#[derive(Debug)]
pub enum XmlError {
    /// The underlying sink failed.
    Io(io::Error),
    /// The open/close sequence does not describe a well-formed tree.
    Malformed(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Io(e) => write!(f, "xml writer I/O error: {e}"),
            XmlError::Malformed(m) => write!(f, "malformed element tree: {m}"),
        }
    }
}

impl std::error::Error for XmlError {}

impl From<io::Error> for XmlError {
    fn from(e: io::Error) -> Self {
        XmlError::Io(e)
    }
}

/// A streaming XML emitter. Tracks element nesting for well-formedness and
/// reports the maximum depth reached (the tagger's constant-space claim is
/// checked against it in tests). Once its buffers have grown to the
/// document's depth it allocates nothing: open elements' tags are kept
/// rendered, back to back, in one byte vector.
pub struct XmlWriter<W: Write> {
    out: W,
    /// Each open element's tags, `<a></a><b></b>…`, outermost first: the
    /// start tag is what `open` wrote, the end tag what `close` will.
    open_tags: Vec<u8>,
    /// Where each open element's start tag begins in `open_tags`.
    starts: Vec<usize>,
    max_depth: usize,
    bytes: u64,
    /// Pretty-print with newlines and two-space indentation.
    pub pretty: bool,
}

/// The bytes [`XmlWriter::text`] does not copy through: the three markup
/// characters, `\r`, and the C0 controls XML 1.0 forbids.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'&' | b'<' | b'>') || (b < 0x20 && b != b'\t' && b != b'\n')
}

/// One element's rendered tags, `<name></name>`, as its name and end tag.
fn split_tags(tags: &[u8]) -> (&[u8], &[u8]) {
    // Five bytes of markup around two copies of the name.
    let name_len = (tags.len() - 5) / 2;
    (&tags[1..1 + name_len], &tags[name_len + 2..])
}

impl<W: Write> XmlWriter<W> {
    /// A compact (non-pretty) writer.
    pub fn new(out: W) -> Self {
        XmlWriter {
            out,
            open_tags: Vec::new(),
            starts: Vec::new(),
            max_depth: 0,
            bytes: 0,
            pretty: false,
        }
    }

    /// Current nesting depth.
    pub fn depth(&self) -> usize {
        self.starts.len()
    }

    /// Maximum nesting depth reached.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    fn write(&mut self, s: &[u8]) -> io::Result<()> {
        self.out.write_all(s)?;
        self.bytes += s.len() as u64;
        Ok(())
    }

    fn newline_indent(&mut self, depth: usize) -> io::Result<()> {
        if self.pretty {
            self.write(b"\n")?;
            for _ in 0..depth {
                self.write(b"  ")?;
            }
        }
        Ok(())
    }

    /// Open `<tag>`.
    pub fn open(&mut self, tag: &str) -> io::Result<()> {
        let depth = self.starts.len();
        if depth > 0 || self.bytes > 0 {
            self.newline_indent(depth)?;
        }
        let start = self.open_tags.len();
        for (before, after) in [(&b"<"[..], &b">"[..]), (b"</", b">")] {
            self.open_tags.extend_from_slice(before);
            self.open_tags.extend_from_slice(tag.as_bytes());
            self.open_tags.extend_from_slice(after);
        }
        self.starts.push(start);
        self.max_depth = self.max_depth.max(self.starts.len());
        let start_tag = &self.open_tags[start..start + tag.len() + 2];
        self.out.write_all(start_tag)?;
        self.bytes += start_tag.len() as u64;
        Ok(())
    }

    /// The open elements' names, outermost first.
    fn open_names(&self) -> Vec<String> {
        let ends = self.starts.iter().skip(1).copied();
        (self.starts.iter().zip(ends.chain([self.open_tags.len()])))
            .map(|(&s, e)| {
                String::from_utf8_lossy(split_tags(&self.open_tags[s..e]).0).into_owned()
            })
            .collect()
    }

    /// Close the innermost element, which must be `tag`.
    pub fn close(&mut self, tag: &str) -> Result<(), XmlError> {
        let start = *self
            .starts
            .last()
            .ok_or_else(|| XmlError::Malformed(format!("close </{tag}> with no open element")))?;
        let (name, end_tag) = split_tags(&self.open_tags[start..]);
        if name != tag.as_bytes() {
            // The open set is untouched, so `finish` reports it truly.
            let top = String::from_utf8_lossy(name);
            return Err(XmlError::Malformed(format!(
                "mismatched close: <{top}> vs </{tag}>"
            )));
        }
        self.out.write_all(end_tag)?;
        self.bytes += end_tag.len() as u64;
        self.open_tags.truncate(start);
        self.starts.pop();
        Ok(())
    }

    /// Emit escaped character data. Characters outside the XML 1.0 `Char`
    /// production (0x00–0x08, 0x0B, 0x0C, 0x0E–0x1F) are stripped — no
    /// escape can make them valid — and `\r` is emitted as `&#13;` so XML
    /// line-ending normalization cannot rewrite it on re-parse. `\t` and
    /// `\n` are valid and pass through untouched.
    pub fn text(&mut self, data: &str) -> io::Result<()> {
        self.text_bytes(data.as_bytes())
    }

    /// [`XmlWriter::text`] over bytes already known to be UTF-8. Every byte
    /// it treats specially is ASCII, so multi-byte sequences ride along
    /// inside the clean spans, which go to the sink as they are.
    pub(crate) fn text_bytes(&mut self, data: &[u8]) -> io::Result<()> {
        let mut rest = data;
        while let Some(at) = rest.iter().position(|&b| needs_escape(b)) {
            self.write(&rest[..at])?;
            match rest[at] {
                b'&' => self.write(b"&amp;")?,
                b'<' => self.write(b"&lt;")?,
                b'>' => self.write(b"&gt;")?,
                b'\r' => self.write(b"&#13;")?,
                _ => {} // XML-1.0-invalid: strip
            }
            rest = &rest[at + 1..];
        }
        self.write(rest)
    }

    /// Emit an integer as character data, exactly as `{v}` formats it.
    pub(crate) fn int(&mut self, v: i64) -> io::Result<()> {
        // 20 bytes hold `-9223372036854775808`.
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut n = v.unsigned_abs();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0 {
            at -= 1;
            buf[at] = b'-';
        }
        self.write(&buf[at..])
    }

    /// Emit a float as character data, exactly as `{v}` formats it. The
    /// output is digits, `-`, `.`, `NaN` or `inf`: nothing to escape, and
    /// of no bounded length, so it is formatted straight into the sink.
    pub(crate) fn float(&mut self, v: f64) -> io::Result<()> {
        struct Counted<'w, W: Write>(&'w mut XmlWriter<W>, io::Result<()>);
        impl<W: Write> fmt::Write for Counted<'_, W> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.1 = self.0.write(s.as_bytes());
                self.1.as_ref().map(|_| ()).map_err(|_| fmt::Error)
            }
        }
        let mut sink = Counted(self, Ok(()));
        let _ = fmt::Write::write_fmt(&mut sink, format_args!("{v}"));
        sink.1
    }

    /// Finish: every element must be closed.
    pub fn finish(mut self) -> Result<W, XmlError> {
        if !self.starts.is_empty() {
            return Err(XmlError::Malformed(format!(
                "unclosed elements at finish: {:?}",
                self.open_names()
            )));
        }
        if self.pretty && self.bytes > 0 {
            self.write(b"\n")?;
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture<F: FnOnce(&mut XmlWriter<Vec<u8>>)>(f: F) -> String {
        let mut w = XmlWriter::new(Vec::new());
        f(&mut w);
        String::from_utf8(w.finish().unwrap()).unwrap()
    }

    #[test]
    fn nested_elements() {
        let s = capture(|w| {
            w.open("a").unwrap();
            w.open("b").unwrap();
            w.text("hi").unwrap();
            w.close("b").unwrap();
            w.close("a").unwrap();
        });
        assert_eq!(s, "<a><b>hi</b></a>");
    }

    #[test]
    fn escaping() {
        let s = capture(|w| {
            w.open("x").unwrap();
            w.text("a < b & c > d").unwrap();
            w.close("x").unwrap();
        });
        assert_eq!(s, "<x>a &lt; b &amp; c &gt; d</x>");
    }

    #[test]
    fn max_depth_tracked() {
        let mut w = XmlWriter::new(Vec::new());
        w.open("a").unwrap();
        w.open("b").unwrap();
        w.close("b").unwrap();
        w.open("c").unwrap();
        w.close("c").unwrap();
        w.close("a").unwrap();
        assert_eq!(w.max_depth(), 2);
        assert_eq!(w.depth(), 0);
        w.finish().unwrap();
    }

    #[test]
    fn mismatched_close_is_typed_error() {
        let mut w = XmlWriter::new(Vec::new());
        w.open("a").unwrap();
        match w.close("b") {
            Err(XmlError::Malformed(m)) => assert!(m.contains("mismatched close"), "{m}"),
            other => panic!("expected malformed error, got {other:?}"),
        }
        // The open set is intact: the element can still be closed properly.
        w.close("a").unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn close_with_nothing_open_is_typed_error() {
        let mut w = XmlWriter::new(Vec::new());
        match w.close("a") {
            Err(XmlError::Malformed(m)) => assert!(m.contains("no open element"), "{m}"),
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn unclosed_finish_is_typed_error() {
        let mut w = XmlWriter::new(Vec::new());
        w.open("a").unwrap();
        match w.finish() {
            Err(XmlError::Malformed(m)) => assert!(m.contains("unclosed elements"), "{m}"),
            other => panic!("expected malformed error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn invalid_control_chars_stripped_and_cr_escaped() {
        let s = capture(|w| {
            w.open("x").unwrap();
            w.text("a\u{0}b\u{8}c\u{b}\u{c}d\u{1f}e\rf\tg\nh").unwrap();
            w.close("x").unwrap();
        });
        assert_eq!(s, "<x>abcde&#13;f\tg\nh</x>");
    }

    /// The char-by-char escaper `text` used to be: the reference the bulk
    /// one must match byte for byte.
    fn reference_escape(data: &str) -> String {
        let mut buf = String::with_capacity(data.len());
        for c in data.chars() {
            match c {
                '&' => buf.push_str("&amp;"),
                '<' => buf.push_str("&lt;"),
                '>' => buf.push_str("&gt;"),
                '\r' => buf.push_str("&#13;"),
                '\t' | '\n' => buf.push(c),
                c if (c as u32) < 0x20 => {} // XML-1.0-invalid: strip
                _ => buf.push(c),
            }
        }
        buf
    }

    fn written(f: impl FnOnce(&mut XmlWriter<Vec<u8>>) -> io::Result<()>) -> String {
        let mut w = XmlWriter::new(Vec::new());
        f(&mut w).unwrap();
        let len = w.bytes_written();
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(len, out.len() as u64, "byte count tracks the sink");
        out
    }

    #[test]
    fn bulk_escaper_matches_the_reference_on_every_control_and_edge() {
        let mut cases: Vec<String> = (0u8..0x20)
            .flat_map(|b| {
                let c = b as char;
                [
                    format!("{c}"),
                    format!("a{c}"),
                    format!("{c}b"),
                    format!("\u{e9}{c}\u{4e16}"),
                ]
            })
            .collect();
        cases.extend(
            [
                "",
                "&",
                "<<",
                "&&&x",
                "x>>>",
                "<&>\r<&>",
                "caf\u{e9} < \u{1f600} & \u{7f}\u{80}",
            ]
            .map(String::from),
        );
        for case in &cases {
            assert_eq!(
                written(|w| w.text(case)),
                reference_escape(case),
                "{case:?}"
            );
        }
    }

    #[test]
    fn integers_and_floats_format_as_display_does() {
        let ints = [
            0,
            1,
            -1,
            9,
            10,
            -10,
            1_000_000,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ];
        for v in ints {
            assert_eq!(written(|w| w.int(v)), format!("{v}"));
        }
        let floats = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            0.1,
            1e21,
            1e300,
            -1e-7,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in floats {
            assert_eq!(written(|w| w.float(v)), format!("{v}"));
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Text dense in what the escaper treats specially, multi-byte
        /// characters around it, specials at both ends of clean spans.
        fn tricky_text() -> impl Strategy<Value = String> {
            let piece = prop_oneof![
                3 => "[a-z ]{0,6}",
                2 => "[&<>]{1,3}",
                2 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap().to_string()),
                2 => proptest::sample::select(vec!["\u{e9}", "\u{4e16}", "\u{1f600}", "\u{7f}", "\u{85}"])
                    .prop_map(String::from),
            ];
            proptest::collection::vec(piece, 0..12).prop_map(|v| v.concat())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn bulk_escaper_matches_the_reference(text in tricky_text()) {
                prop_assert_eq!(written(|w| w.text(&text)), reference_escape(&text));
            }

            #[test]
            fn integer_formatter_matches_display(v in any::<i64>()) {
                prop_assert_eq!(written(|w| w.int(v)), format!("{v}"));
            }

            #[test]
            fn float_formatter_matches_display(mantissa in any::<f64>(), exp in -330i32..310) {
                // Reaches subnormals, the exponent forms' range and ±inf.
                let v = mantissa * 10f64.powi(exp);
                prop_assert_eq!(written(|w| w.float(v)), format!("{v}"));
                let bits = f64::from_bits(mantissa.to_bits() ^ exp as u64);
                prop_assert_eq!(written(|w| w.float(bits)), format!("{bits}"));
            }
        }
    }

    #[test]
    fn pretty_mode_indents() {
        let mut w = XmlWriter::new(Vec::new());
        w.pretty = true;
        w.open("a").unwrap();
        w.open("b").unwrap();
        w.close("b").unwrap();
        w.close("a").unwrap();
        let s = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(s, "<a>\n  <b></b></a>\n");
    }

    #[test]
    fn forest_of_roots_separated() {
        let s = capture(|w| {
            w.open("r").unwrap();
            w.close("r").unwrap();
            w.open("r").unwrap();
            w.close("r").unwrap();
        });
        assert_eq!(s, "<r></r><r></r>");
    }
}
