//! A small streaming JSON writer: the one serialiser behind every
//! machine-readable artifact in the workspace.
//!
//! [`Json`] owns escaping, number formatting, separators and
//! indentation, so an emitter states only keys, values, and whether
//! each container is *one-line* or *block*. One layout rule covers
//! every document:
//!
//! * a one-line container separates members with `", "` and keys from
//!   values with `": "`;
//! * a block container puts each member on its own line, indented two
//!   spaces per enclosing block container (one-line containers add no
//!   indent), and closes on a line of its own at its parent's indent;
//!   an empty block container prints `[]` or `{}`.
//!
//! The output is a pure function of the calls made, which is what lets
//! CI diff the artifacts byte for byte against committed fixtures.
//!
//! ```
//! use sal_des::json::Json;
//!
//! let mut j = Json::new();
//! j.obj_block();
//! j.key("link").str("I2");
//! j.key("point").obj().key("x").f64(2.0).key("y").fixed(0.5, 3).end();
//! j.key("rows").arr_block().num(1).num(2).end();
//! j.key("none").arr_block().end();
//! j.end();
//! assert_eq!(
//!     j.finish(),
//!     "{\n  \"link\": \"I2\",\n  \"point\": {\"x\": 2.0, \"y\": 0.500},\n  \
//!      \"rows\": [\n    1,\n    2\n  ],\n  \"none\": []\n}\n"
//! );
//! ```

use std::fmt::{self, Display, Write as _};

/// A string rendered as a quoted, escaped JSON string literal: `"` and
/// `\` are backslash-escaped, newline and tab use their short forms,
/// and other control characters become `\u00XX`. Usable wherever a
/// [`Display`] is, e.g. by the kernel's compact trace JSONL lines.
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(pub &'a str);

impl Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// An open container.
#[derive(Debug)]
struct Frame {
    block: bool,
    close: char,
    empty: bool,
}

/// Streaming JSON writer; see the [module docs](self) for the layout
/// rule. Each method returns `&mut Self`, so a member reads as
/// `j.key("k").num(1)`, and [`end`](Self::end) closes the innermost
/// open container.
#[derive(Debug, Default)]
pub struct Json {
    out: String,
    stack: Vec<Frame>,
    /// A key was just written, so the next value follows it directly.
    keyed: bool,
}

impl Json {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a one-line object.
    pub fn obj(&mut self) -> &mut Self {
        self.open('{', '}', false)
    }

    /// Opens a block object: one member per line.
    pub fn obj_block(&mut self) -> &mut Self {
        self.open('{', '}', true)
    }

    /// Opens a one-line array.
    pub fn arr(&mut self) -> &mut Self {
        self.open('[', ']', false)
    }

    /// Opens a block array: one element per line.
    pub fn arr_block(&mut self) -> &mut Self {
        self.open('[', ']', true)
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    ///
    /// Panics if no container is open.
    pub fn end(&mut self) -> &mut Self {
        let frame = self.stack.pop().expect("end() with no open container");
        if frame.block && !frame.empty {
            self.out.push('\n');
            self.indent();
        }
        self.out.push(frame.close);
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.value(format_args!("{}: ", Quoted(k)));
        self.keyed = true;
        self
    }

    /// Writes an escaped string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.value(format_args!("{}", Quoted(s)))
    }

    /// Writes an integer value (any value whose `Display` form is a
    /// JSON number).
    pub fn num(&mut self, v: impl Display) -> &mut Self {
        self.value(format_args!("{v}"))
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value(format_args!("{v}"))
    }

    /// Writes a float with exactly `decimals` digits after the point;
    /// `null` for NaN and the infinities, which JSON cannot spell.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.value(format_args!("{v:.decimals$}"))
        } else {
            self.null()
        }
    }

    /// Writes a float in canonical form: integral values below 1e15 as
    /// `2.0`, everything else as the shortest string that round-trips;
    /// `null` for NaN and the infinities, which JSON cannot spell.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            self.null()
        } else if v.fract() == 0.0 && v.abs() < 1e15 {
            self.value(format_args!("{v:.1}"))
        } else {
            self.value(format_args!("{v}"))
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value(format_args!("null"))
    }

    /// Writes `some(self, v)` for `Some(v)` and `null` for `None`.
    pub fn opt<T>(
        &mut self,
        v: Option<T>,
        some: impl FnOnce(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        match v {
            Some(v) => some(self, v),
            None => self.null(),
        }
    }

    /// Writes already-serialised JSON verbatim as one value: a record
    /// replayed from a store, or a compact form outside the layout
    /// rule.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.value(format_args!("{json}"))
    }

    /// The finished document, followed by a newline.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open or a key has no value.
    pub fn finish(mut self) -> String {
        assert!(self.stack.is_empty() && !self.keyed, "unfinished JSON document: {}", self.out);
        self.out.push('\n');
        self.out
    }

    fn open(&mut self, start: char, close: char, block: bool) -> &mut Self {
        self.value(format_args!("{start}"));
        self.stack.push(Frame { block, close, empty: true });
        self
    }

    /// Writes a new member of the innermost container, preceded by
    /// its separator and indent (nothing after a key).
    fn value(&mut self, args: fmt::Arguments<'_>) -> &mut Self {
        let keyed = std::mem::take(&mut self.keyed);
        if let Some(top) = self.stack.last_mut().filter(|_| !keyed) {
            let block = top.block;
            if !std::mem::replace(&mut top.empty, false) {
                self.out.push_str(if block { "," } else { ", " });
            }
            if block {
                self.out.push('\n');
                self.indent();
            }
        }
        self.out.write_fmt(args).expect("writing to a String cannot fail");
        self
    }

    fn indent(&mut self) {
        for _ in self.stack.iter().filter(|f| f.block) {
            self.out.push_str("  ");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(f: impl FnOnce(&mut Json) -> &mut Json) -> String {
        let mut j = Json::new();
        f(&mut j);
        j.finish().trim_end_matches('\n').to_string()
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(one(|j| j.str("a\"b\\c")), r#""a\"b\\c""#);
        assert_eq!(one(|j| j.str("line1\nline2\tend")), r#""line1\nline2\tend""#);
        assert_eq!(one(|j| j.str("\u{1}\r\u{1f}")), r#""\u0001\u000d\u001f""#);
        assert_eq!(one(|j| j.str("µs → ok")), "\"µs → ok\"");
        assert_eq!(one(|j| j.obj().key("k\"").num(1).end()), r#"{"k\"": 1}"#);
        assert_eq!(Quoted("x\\y").to_string(), r#""x\\y""#);
    }

    #[test]
    fn float_forms() {
        assert_eq!(one(|j| j.f64(2.0)), "2.0");
        assert_eq!(one(|j| j.f64(-64.0)), "-64.0");
        assert_eq!(one(|j| j.f64(0.1 + 0.2)), "0.30000000000000004");
        assert_eq!(one(|j| j.f64(2.0657424)), "2.0657424");
        assert_eq!(one(|j| j.f64(1e15)), "1000000000000000");
        assert_eq!(one(|j| j.fixed(0.628272123, 6)), "0.628272");
        assert_eq!(one(|j| j.fixed(23.449, 2)), "23.45");
        assert_eq!(one(|j| j.fixed(0.0, 3)), "0.000");
        assert_eq!(one(|j| j.opt(None::<f64>, Json::f64)), "null");
        assert_eq!(one(|j| j.opt(Some(8.0), Json::f64)), "8.0");
    }

    #[test]
    fn non_finite_floats_are_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(one(|j| j.f64(v)), "null", "{v}");
            assert_eq!(one(|j| j.fixed(v, 3)), "null", "{v}");
        }
        assert_eq!(
            one(|j| j.obj().key("jain").f64(f64::NAN).key("x").fixed(f64::INFINITY, 2).end()),
            r#"{"jain": null, "x": null}"#
        );
    }

    #[test]
    fn one_line_containers_nest_inline() {
        let s = one(|j| {
            j.obj().key("a").num(1).key("b").arr().bool(true).null().raw("[0,2]").end();
            j.key("c").obj().end().end()
        });
        assert_eq!(s, r#"{"a": 1, "b": [true, null, [0,2]], "c": {}}"#);
    }

    #[test]
    fn block_containers_indent_per_enclosing_block() {
        let mut j = Json::new();
        j.obj_block();
        j.key("rows").arr_block();
        j.obj().key("id").num(1).key("items").arr_block().num(7).num(8).end().end();
        j.obj().key("id").num(2).key("items").arr_block().end().end();
        j.end();
        j.key("empty").obj_block().end();
        j.end();
        assert_eq!(
            j.finish(),
            "{\n  \"rows\": [\n    {\"id\": 1, \"items\": [\n      7,\n      8\n    ]},\n    \
             {\"id\": 2, \"items\": []}\n  ],\n  \"empty\": {}\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "unfinished JSON document")]
    fn finishing_with_an_open_container_panics() {
        let mut j = Json::new();
        j.obj_block().key("a");
        let _ = j.finish();
    }
}
