//! A keep-alive HTTP/1.1 client connection for the daemon workloads.
//! Responses are parsed by the daemon crate's own client-side reader;
//! its request writer always asks to close the connection, so requests
//! are written here.

use ermesd::http::{read_response, ClientResponse};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer })
    }

    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        read_response(&mut self.reader, usize::MAX)
    }
}
