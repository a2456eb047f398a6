//! A tiny JSON object writer.
//!
//! The workspace has no JSON library; this module is the one place that
//! knows the format of the trace export and the `ExecMetrics` schema.
//! Callers chain one method per field and the writer handles the rest:
//! fields appear in call order (callers use declaration order), strings
//! are escaped, floats use Rust's shortest round-trip formatting and
//! non-finite floats render as `null`.

/// Builds one compact JSON object (no whitespace), field by field.
#[derive(Debug)]
pub struct JsonObject {
    out: String,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            out: String::from("{"),
        }
    }

    /// Starts an object whose first field is `"type": tag` — the shape of
    /// one enum variant in the trace export.
    pub fn tagged(tag: &str) -> Self {
        Self::new().str("type", tag)
    }

    fn key(&mut self, name: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        write_string(&mut self.out, name);
        self.out.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        write_string(&mut self.out, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, name: &str, value: u64) -> Self {
        self.key(name);
        self.out.push_str(&value.to_string());
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, name: &str, value: bool) -> Self {
        self.key(name);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a float field; NaN and infinities render as `null`.
    pub fn f64(mut self, name: &str, value: f64) -> Self {
        self.key(name);
        if value.is_finite() {
            self.out.push_str(&value.to_string());
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Adds an array-of-integers field.
    pub fn u64_array(mut self, name: &str, values: &[u64]) -> Self {
        self.key(name);
        self.out.push('[');
        for (index, value) in values.iter().enumerate() {
            if index > 0 {
                self.out.push(',');
            }
            self.out.push_str(&value.to_string());
        }
        self.out.push(']');
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_value_shape() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(
            JsonObject::new()
                .bool("t", true)
                .bool("f", false)
                .u64("n", 42)
                .finish(),
            "{\"t\":true,\"f\":false,\"n\":42}"
        );
        assert_eq!(JsonObject::new().f64("x", 1.5).finish(), "{\"x\":1.5}");
        assert_eq!(JsonObject::new().f64("x", 24.0).finish(), "{\"x\":24}");
        assert_eq!(
            JsonObject::new().f64("x", f64::NAN).finish(),
            "{\"x\":null}"
        );
        assert_eq!(
            JsonObject::new().f64("x", f64::INFINITY).finish(),
            "{\"x\":null}"
        );
        assert_eq!(
            JsonObject::new().str("s", "a\"b\n\\\t\u{1}").finish(),
            "{\"s\":\"a\\\"b\\n\\\\\\t\\u0001\"}"
        );
        assert_eq!(
            JsonObject::new().u64_array("a", &[1, 2]).finish(),
            "{\"a\":[1,2]}"
        );
        assert_eq!(JsonObject::new().u64_array("a", &[]).finish(), "{\"a\":[]}");
        assert_eq!(
            JsonObject::tagged("Power").str("node", "s").finish(),
            "{\"type\":\"Power\",\"node\":\"s\"}"
        );
    }
}
