//! HTTP/1.1 framing for the load generator: request encoding and an
//! incremental response parser that splits pipelined responses on a
//! keep-alive connection by their `Content-Length`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response head accepted before the stream is declared broken.
const MAX_HEAD: usize = 64 * 1024;

/// A complete request, ready to write.
pub fn encode_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    /// `X-Thor-Engine: <fingerprint>@<epoch>`, when present.
    pub engine: Option<String>,
    /// The server will close the connection after this response.
    pub close: bool,
    pub body: Vec<u8>,
}

impl Reply {
    /// `(fingerprint, epoch)` from the `X-Thor-Engine` header.
    pub fn engine_tag(&self) -> Option<(&str, u64)> {
        let (fp, epoch) = self.engine.as_deref()?.rsplit_once('@')?;
        Some((fp, epoch.parse().ok()?))
    }
}

/// Incremental parser: feed bytes as they arrive, take complete
/// responses out in order.
#[derive(Default)]
pub struct ReplyParser {
    buf: Vec<u8>,
}

impl ReplyParser {
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` if more bytes are needed,
    /// or an error when the stream cannot be framed.
    pub fn next_reply(&mut self) -> Result<Option<Reply>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            if self.buf.len() > MAX_HEAD {
                return Err("response head exceeds 64 KiB".into());
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line `{status_line}`"))?;
        let mut length = None;
        let mut engine = None;
        let mut close = false;
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("bad header line `{line}`"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("bad Content-Length `{value}`"))?;
                if length.is_some_and(|m| m != n) {
                    return Err("conflicting Content-Length headers".into());
                }
                length = Some(n);
            } else if name.eq_ignore_ascii_case("x-thor-engine") {
                engine = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let body_start = head_end + 4;
        if self.buf.len() < body_start + length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok(Some(Reply {
            status,
            engine,
            close,
            body,
        }))
    }

    /// Bytes received but not yet framed into a response.
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// One request on a fresh connection; the whole response.
pub fn roundtrip(addr: SocketAddr, request: &[u8], timeout: Duration) -> Result<Reply, String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream.write_all(request).map_err(|e| e.to_string())?;
    read_reply(&mut stream, &mut ReplyParser::default())
}

/// Block until `parser` yields one response from `stream`.
pub fn read_reply(stream: &mut TcpStream, parser: &mut ReplyParser) -> Result<Reply, String> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(reply) = parser.next_reply()? {
            return Ok(reply);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".into()),
            Ok(n) => parser.push(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, engine: &str, body: &str, close: bool) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {status} OK\r\nContent-Type: text/csv\r\nX-Thor-Engine: {engine}\r\n\
             Content-Length: {}\r\n",
            body.len()
        );
        if close {
            out.push_str("Connection: close\r\n");
        }
        out.push_str("\r\n");
        out.push_str(body);
        out.into_bytes()
    }

    fn stream() -> (Vec<u8>, Vec<Reply>) {
        let parts = [
            (200, "abc@1", "doc\tAnatomy\tlung\n", false),
            (200, "abc@1", "", false),
            (200, "def@2", "S,C\r\nx,\"a\r\n\r\nb\"\n", false),
            (429, "def@2", "{\"error\":\"overloaded\"}", true),
        ];
        let mut bytes = Vec::new();
        let mut replies = Vec::new();
        for (status, engine, body, close) in parts {
            bytes.extend(response(status, engine, body, close));
            replies.push(Reply {
                status,
                engine: Some(engine.into()),
                close,
                body: body.as_bytes().to_vec(),
            });
        }
        (bytes, replies)
    }

    fn drain(p: &mut ReplyParser, out: &mut Vec<Reply>) {
        while let Some(r) = p.next_reply().expect("frames") {
            out.push(r);
        }
    }

    #[test]
    fn pipelined_responses_split_at_every_byte() {
        let (bytes, want) = stream();
        for cut in 0..=bytes.len() {
            let mut p = ReplyParser::default();
            let mut got = Vec::new();
            p.push(&bytes[..cut]);
            drain(&mut p, &mut got);
            p.push(&bytes[cut..]);
            drain(&mut p, &mut got);
            assert_eq!(got, want, "cut at {cut}");
            assert_eq!(p.pending(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_and_body_bytes_that_look_like_heads() {
        let (bytes, want) = stream();
        let mut p = ReplyParser::default();
        let mut got = Vec::new();
        for b in &bytes {
            p.push(std::slice::from_ref(b));
            drain(&mut p, &mut got);
        }
        assert_eq!(got, want);
        assert_eq!(got[2].engine_tag(), Some(("def", 2)));
        assert!(got[3].close);
    }

    #[test]
    fn unframeable_streams_are_errors() {
        let mut p = ReplyParser::default();
        p.push(b"HTTP/1.1 200 OK\r\nX-Thor-Engine: a@1\r\n\r\n");
        assert!(p.next_reply().is_err(), "no Content-Length");
        let mut p = ReplyParser::default();
        p.push(b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab");
        assert!(p.next_reply().is_err(), "conflicting lengths");
        let mut p = ReplyParser::default();
        p.push(b"SPDY 200\r\n\r\n");
        assert!(p.next_reply().is_err(), "bad status line");
    }

    #[test]
    fn request_declares_its_body_length() {
        let req = encode_request("POST", "/extract", b"{\"documents\":[]}");
        let text = String::from_utf8(req).unwrap();
        assert!(text.starts_with("POST /extract HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 16\r\n\r\n{\"documents\":[]}"));
    }
}
