//! Transport plumbing: endpoint addressing and a stream abstraction over
//! TCP and (on unix) unix-domain sockets.
//!
//! `wmsd` treats the two transports identically — framing, timeouts,
//! backpressure and drain semantics live above this layer. Unix sockets
//! are what the CI smoke jobs and the fault harness use (no port
//! allocation races); TCP is for actual network service.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address, e.g. `127.0.0.1:7171`.
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `tcp:HOST:PORT`, `unix:PATH`, or a bare `HOST:PORT`.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("empty tcp address".into());
            }
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            #[cfg(unix)]
            return Ok(Endpoint::Unix(PathBuf::from(path)));
            #[cfg(not(unix))]
            return Err(format!(
                "unix socket endpoint {path:?} is not available on this platform"
            ));
        }
        if s.contains(':') {
            return Ok(Endpoint::Tcp(s.to_string()));
        }
        Err(format!(
            "bad endpoint {s:?}: expected tcp:HOST:PORT or unix:PATH"
        ))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound listening socket on either transport.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds the endpoint. A pre-existing unix socket file is removed
    /// first (a daemon that died under `kill -9` leaves one behind; a
    /// *live* daemon on the same path would lose its socket — run one
    /// daemon per path).
    pub(crate) fn bind(ep: &Endpoint) -> io::Result<Listener> {
        match ep {
            Endpoint::Tcp(addr) => TcpListener::bind(addr.as_str()).map(Listener::Tcp),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path).map(Listener::Unix)
            }
        }
    }

    pub(crate) fn set_nonblocking(&self, v: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(v),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(v),
        }
    }

    pub(crate) fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                // Replies are small frames; Nagle would batch them
                // behind delayed ACKs and add milliseconds per batch.
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Conn::Unix(s))
            }
        }
    }

    /// The concrete bound address (TCP may have been bound to port 0).
    pub(crate) fn local_desc(&self) -> String {
        match self {
            Listener::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp:{a}"),
                Err(_) => "tcp:?".into(),
            },
            #[cfg(unix)]
            Listener::Unix(l) => match l.local_addr() {
                Ok(a) => match a.as_pathname() {
                    Some(p) => format!("unix:{}", p.display()),
                    None => "unix:?".into(),
                },
                Err(_) => "unix:?".into(),
            },
        }
    }
}

/// One established connection on either transport.
#[derive(Debug)]
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

/// Connects to a daemon endpoint (one blocking attempt).
pub fn connect(ep: &Endpoint) -> io::Result<Conn> {
    match ep {
        Endpoint::Tcp(addr) => {
            let s = TcpStream::connect(addr.as_str())?;
            s.set_nodelay(true)?; // frames are latency-sensitive
            Ok(Conn::Tcp(s))
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
    }
}

impl Conn {
    /// Sets the blocking-read timeout (`None` = wait forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Sets the blocking-write timeout (`None` = wait forever).
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// Clones the handle (shared underlying socket) so a reader and a
    /// writer thread can own the two directions independently.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Shuts down both directions, waking any thread blocked on the
    /// socket.
    pub fn shutdown(&self) -> io::Result<()> {
        self.shutdown_how(std::net::Shutdown::Both)
    }

    /// Shuts down the read direction only: a thread blocked reading
    /// wakes with EOF, while replies still queued for the peer can be
    /// written out.
    pub fn shutdown_read(&self) -> io::Result<()> {
        self.shutdown_how(std::net::Shutdown::Read)
    }

    fn shutdown_how(&self, how: std::net::Shutdown) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Whether an I/O error is a read/write timeout expiring (the two kinds
/// differ across platforms).
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7000").unwrap(),
            Endpoint::Tcp("127.0.0.1:7000".into())
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7000").unwrap(),
            Endpoint::Tcp("127.0.0.1:7000".into())
        );
        #[cfg(unix)]
        assert_eq!(
            Endpoint::parse("unix:/tmp/wmsd.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/wmsd.sock"))
        );
        assert!(Endpoint::parse("nonsense").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("unix:").is_err());
    }

    #[test]
    fn endpoint_display_roundtrips() {
        for s in ["tcp:127.0.0.1:9", "unix:/tmp/x.sock"] {
            #[cfg(not(unix))]
            if s.starts_with("unix:") {
                continue;
            }
            let ep = Endpoint::parse(s).unwrap();
            assert_eq!(ep.to_string(), s);
        }
    }
}
