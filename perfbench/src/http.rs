//! A blocking keep-alive HTTP/1.1 client for the pricing service: one
//! connection, one request in flight, JSON bodies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use qirana_bench::json::{self, Json};

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A response: status code and JSON body text.
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    /// A number field of the top-level object, found by a scan that skips
    /// nested values instead of building them: a purchase carries its whole
    /// answer, and parsing thousands of rows would put the client's cost
    /// into the service's latency.
    pub fn num(&self, key: &str) -> Option<f64> {
        let b = self.body.as_bytes();
        let (mut depth, mut i) = (0usize, 0usize);
        while i < b.len() {
            match b[i] {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth = depth.saturating_sub(1),
                b'"' => {
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && b[i] != b'"' {
                        i += if b[i] == b'\\' { 2 } else { 1 };
                    }
                    let is_key = depth == 1
                        && b.get(i + 1) == Some(&b':')
                        && b.get(start..i) == Some(key.as_bytes());
                    if is_key {
                        let rest = &self.body[i + 2..];
                        let end = rest.find([',', '}']).unwrap_or(rest.len());
                        return rest[..end].trim().parse().ok();
                    }
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// The whole body, parsed (small bodies only).
    pub fn json(&self) -> Option<Json> {
        json::parse(&self.body).ok()
    }
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request and reads its response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream
            .write_all(head.as_bytes())
            .and_then(|()| self.stream.write_all(body.as_bytes()))
            .map_err(|e| format!("send {path}: {e}"))?;
        read_response(&mut self.reader).map_err(|e| format!("{path}: {e}"))
    }

    pub fn post(&mut self, path: &str, fields: Vec<(&str, &str)>) -> Result<Response, String> {
        let body = json::render(&Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Str(v.to_string())))
                .collect(),
        ));
        self.call("POST", path, &body)
    }

    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.call("GET", path, "")
    }
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Response, String> {
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let status = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(|e| e.to_string())?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| "bad content length")?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    let body = String::from_utf8(body).map_err(|e| e.to_string())?;
    Ok(Response { status, body })
}
