//! A blocking keep-alive connection for the closed loops: one request at a
//! time, reconnecting when the server ends the connection.

use servebench::wire::{parse_response, Response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One keep-alive connection to the server.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connects made so far.
    pub connects: u64,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            connects: 0,
        }
    }

    /// Sends one request and reads its response. The connection is dropped
    /// after a transport error or a `Connection: close` response, and the
    /// next exchange reconnects.
    ///
    /// # Errors
    ///
    /// Any transport error, or a response that does not parse.
    pub fn exchange(&mut self, request: &[u8]) -> Result<Response, String> {
        let outcome = self.exchange_inner(request);
        match &outcome {
            Ok(resp) if !resp.close => {}
            _ => {
                self.stream = None;
                self.buf.clear();
            }
        }
        outcome
    }

    fn exchange_inner(&mut self, request: &[u8]) -> Result<Response, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            self.connects += 1;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((resp, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                return Ok(resp);
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
