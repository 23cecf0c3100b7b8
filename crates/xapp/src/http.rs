//! Minimal HTTP/1.1 server and client — the REST northbound.
//!
//! Supports exactly what the controller specializations need: `GET` and
//! `POST` with optional JSON bodies, `Content-Length` framing, one request
//! per roundtrip with keep-alive.  No TLS, no chunked encoding, no
//! multipart — the zero-overhead principle applied to the northbound.
//!
//! One thread accepts, one thread serves each connection; a handler runs on
//! its connection's thread and may block (a control relay waits for the
//! agent's acknowledgement there).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use crate::json::{self, FromJson, ToJson};

/// Largest request body the server reads.
const MAX_BODY: usize = json::MAX_INPUT;

/// An HTTP request as seen by a handler.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET` / `POST` / ….
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Body bytes (often JSON).
    pub body: Vec<u8>,
}

impl Request {
    /// Parses the body as JSON.
    pub fn json<T: FromJson>(&self) -> Result<T, json::Error> {
        json::from_slice(&self.body)
    }
}

/// An HTTP response from a handler.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Content type.
    pub content_type: &'static str,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json<T: ToJson + ?Sized>(value: &T) -> Response {
        Response {
            status: 200,
            body: value.to_json().to_string().into_bytes(),
            content_type: "application/json",
        }
    }

    /// 200 with a plain-text body.
    pub fn text(s: impl Into<String>) -> Response {
        Response { status: 200, body: s.into().into_bytes(), content_type: "text/plain" }
    }

    /// An error status with a plain-text body.
    pub fn error(status: u16, msg: impl Into<String>) -> Response {
        Response { status, body: msg.into().into_bytes(), content_type: "text/plain" }
    }

    fn status_line(&self) -> &'static str {
        match self.status {
            200 => "200 OK",
            201 => "201 Created",
            204 => "204 No Content",
            400 => "400 Bad Request",
            404 => "404 Not Found",
            405 => "405 Method Not Allowed",
            _ => "500 Internal Server Error",
        }
    }
}

/// A request handler; it may block.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// A tiny route table: exact `(method, path)` matches.
#[derive(Default, Clone)]
pub struct Router {
    routes: HashMap<(String, String), Handler>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler for `(method, path)`.
    pub fn route<F>(mut self, method: &str, path: &str, f: F) -> Self
    where
        F: Fn(Request) -> Response + Send + Sync + 'static,
    {
        self.routes.insert((method.to_uppercase(), path.to_owned()), Arc::new(f));
        self
    }

    fn lookup(&self, method: &str, path: &str) -> Option<Handler> {
        self.routes.get(&(method.to_uppercase(), path.to_owned())).cloned()
    }
}

/// A running HTTP server.
pub struct HttpServer {
    /// The bound address (ephemeral port resolved).
    pub addr: SocketAddr,
}

impl HttpServer {
    /// Binds `addr` and serves `router` until the process exits: the
    /// accepting thread and the per-connection threads are never joined.
    pub fn spawn(addr: &str, router: Router) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let router = Arc::new(router);
        std::thread::Builder::new().name("flexric-http".into()).spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let router = router.clone();
                // A connection that cannot get a thread is dropped.
                let _ =
                    std::thread::Builder::new().name("flexric-http-conn".into()).spawn(move || {
                        let _ = serve_conn(stream, router);
                    });
            }
        })?;
        Ok(HttpServer { addr })
    }
}

fn serve_conn(stream: TcpStream, router: Arc<Router>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut wr = stream.try_clone()?;
    let mut rd = BufReader::new(stream);
    loop {
        let Some(req) = read_request(&mut rd)? else { return Ok(()) };
        let resp = match router.lookup(&req.method, &req.path) {
            Some(h) => h(req),
            None => Response::error(404, "not found"),
        };
        let head = format!(
            "HTTP/1.1 {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            resp.status_line(),
            resp.content_type,
            resp.body.len()
        );
        wr.write_all(head.as_bytes())?;
        wr.write_all(&resp.body)?;
        wr.flush()?;
    }
}

/// The value of a `content-length` header line, if `line` is one.
fn content_length(line: &str) -> Option<io::Result<usize>> {
    let (name, value) = line.split_once(':')?;
    name.eq_ignore_ascii_case("content-length").then(|| {
        value
            .trim()
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))
    })
}

fn read_request<R: BufRead>(rd: &mut R) -> io::Result<Option<Request>> {
    let mut line = String::new();
    if rd.read_line(&mut line)? == 0 {
        return Ok(None); // clean close
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let target = parts.next().unwrap_or_default().to_owned();
    if method.is_empty() || target.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad request line"));
    }
    let (path, query) = parse_target(&target);
    let mut body_len = 0usize;
    loop {
        let mut h = String::new();
        if rd.read_line(&mut h)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "headers truncated"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some(len) = content_length(h) {
            body_len = len?;
            if body_len > MAX_BODY {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
            }
        }
    }
    let mut body = vec![0u8; body_len];
    rd.read_exact(&mut body)?;
    Ok(Some(Request { method, path, query, body }))
}

fn parse_target(target: &str) -> (String, HashMap<String, String>) {
    match target.split_once('?') {
        None => (target.to_owned(), HashMap::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter_map(|kv| kv.split_once('=').map(|(k, v)| (k.to_owned(), v.to_owned())))
                .collect();
            (path.to_owned(), query)
        }
    }
}

/// Minimal HTTP client: one request per call, fresh connection.
pub struct HttpClient;

impl HttpClient {
    /// Issues a request; returns `(status, body)`.
    pub fn request(
        addr: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;

        let mut rd = BufReader::new(stream);
        let mut status_line = String::new();
        rd.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut body_len = None;
        loop {
            let mut h = String::new();
            if rd.read_line(&mut h)? == 0 {
                break;
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(len) = content_length(h) {
                body_len = Some(len?);
            }
        }
        let mut body = Vec::new();
        match body_len {
            // The announced length comes from outside: read up to it
            // instead of allocating it.
            Some(n) => {
                rd.by_ref().take(n as u64).read_to_end(&mut body)?;
                if body.len() != n {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
            }
            None => {
                rd.read_to_end(&mut body)?;
            }
        }
        Ok((status, body))
    }

    /// GET returning `(status, body)`.
    pub fn get(addr: &str, path: &str) -> io::Result<(u16, Vec<u8>)> {
        Self::request(addr, "GET", path, &[])
    }

    /// POST with a JSON body.
    pub fn post_json<T: ToJson + ?Sized>(
        addr: &str,
        path: &str,
        value: &T,
    ) -> io::Result<(u16, Vec<u8>)> {
        Self::request(addr, "POST", path, value.to_json().to_string().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn test_server() -> HttpServer {
        let router = Router::new()
            .route("GET", "/ping", |_req| Response::text("pong"))
            .route("POST", "/echo", |req: Request| Response {
                status: 200,
                body: req.body,
                content_type: "application/json",
            })
            .route("GET", "/query", |req: Request| {
                Response::text(req.query.get("key").cloned().unwrap_or_default())
            });
        HttpServer::spawn("127.0.0.1:0", router).unwrap()
    }

    #[test]
    fn get_roundtrip() {
        let srv = test_server();
        let addr = srv.addr.to_string();
        let (status, body) = HttpClient::get(&addr, "/ping").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"pong");
    }

    #[test]
    fn post_json_roundtrip() {
        let srv = test_server();
        let addr = srv.addr.to_string();
        let payload = json!({"slice": 1, "share": 0.66});
        let (status, body) = HttpClient::post_json(&addr, "/echo", &payload).unwrap();
        assert_eq!(status, 200);
        let back = json::parse(&body).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn query_params_parsed() {
        let srv = test_server();
        let addr = srv.addr.to_string();
        let (status, body) = HttpClient::get(&addr, "/query?key=value&x=1").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"value");
    }

    #[test]
    fn unknown_route_404() {
        let srv = test_server();
        let addr = srv.addr.to_string();
        let (status, _) = HttpClient::get(&addr, "/nope").unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn wrong_method_404() {
        let srv = test_server();
        let addr = srv.addr.to_string();
        let (status, _) = HttpClient::request(&addr, "POST", "/ping", b"").unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn concurrent_requests() {
        let srv = test_server();
        let addr = srv.addr.to_string();
        let mut handles = Vec::new();
        for _ in 0..32 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || HttpClient::get(&addr, "/ping").unwrap().0));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 200);
        }
    }
}
