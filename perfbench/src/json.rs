//! A reader for the flat JSON objects of the service's result lines,
//! kept apart from the service's own parser.

/// A JSON scalar.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A parsed flat object: `(key, value)` pairs in order.
#[derive(Clone, Debug, Default)]
pub struct Object(pub Vec<(String, Value)>);

impl Object {
    /// The value of `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string value of `key`.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of `key`.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value of `key`.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (no nested objects or arrays).
pub fn parse(line: &str) -> Result<Object, String> {
    let mut p = Parser {
        s: line.as_bytes(),
        i: 0,
    };
    p.ws();
    p.eat(b'{')?;
    let mut fields = Vec::new();
    p.ws();
    if p.peek() == Some(b'}') {
        return Ok(Object(fields));
    }
    loop {
        p.ws();
        let key = p.string()?;
        p.ws();
        p.eat(b':')?;
        p.ws();
        let value = p.value()?;
        fields.push((key, value));
        p.ws();
        match p.peek() {
            Some(b',') => p.i += 1,
            Some(b'}') => return Ok(Object(fields)),
            _ => return Err(format!("expected ',' or '}}' at {}", p.i)),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = self.peek().ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Copy one UTF-8 sequence whole.
                    let start = self.i - 1;
                    let len = match c {
                        0xf0..=0xff => 4,
                        0xe0..=0xef => 3,
                        0xc0..=0xdf => 2,
                        _ => 1,
                    };
                    let end = (start + len).min(self.s.len());
                    out.push_str(&String::from_utf8_lossy(&self.s[start..end]));
                    self.i = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("missing value")? {
            b'"' => Ok(Value::Str(self.string()?)),
            b't' if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Value::Bool(true))
            }
            b'f' if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Value::Bool(false))
            }
            b'n' if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Value::Null)
            }
            _ => {
                let start = self.i;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad value at {start}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let o = parse(
            r#"{"event":"result","job":3,"verdict":"not-equivalent","total_ms":1.5e0,"cancelled":true,"cex":"0101","id":7,"x":null}"#,
        )
        .unwrap();
        assert_eq!(o.str("event"), Some("result"));
        assert_eq!(o.num("job"), Some(3.0));
        assert_eq!(o.num("total_ms"), Some(1.5));
        assert_eq!(o.bool("cancelled"), Some(true));
        assert_eq!(o.str("cex"), Some("0101"));
        assert_eq!(o.get("x"), Some(&Value::Null));
        assert!(o.get("missing").is_none());
    }

    #[test]
    fn escapes_and_errors() {
        let o = parse(r#"{ "m" : "a\"bA" }"#).unwrap();
        assert_eq!(o.str("m"), Some("a\"bA"));
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert_eq!(parse("{}").unwrap().0.len(), 0);
    }
}
