//! Rendezvous + mesh bootstrap of the socket transport.
//!
//! Rank 0 collects validated hello frames and broadcasts the address
//! table, then the full mesh is built deterministically (dial lower
//! ranks, accept higher ones, ID frames resolving accept-order races).
//! [`establish_mesh`] runs both phases and hands back one connected
//! `TcpStream` per peer; [`crate::ReactorTransport`] registers them with
//! its event loop.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::config::TransportConfig;
use crate::error::CommError;

/// Version of the TCP bootstrap + framing protocol. Bumped together with
/// the wire codec so mismatched builds refuse to form a cluster instead
/// of mis-decoding each other's slabs.
pub const TCP_PROTOCOL_VERSION: u16 = 2;

/// `"SPCM"` — first bytes of every handshake frame.
const MAGIC: u32 = 0x5350_434d;

/// Back-off between dial attempts while a listener is still coming up.
const DIAL_RETRY: Duration = Duration::from_millis(10);

/// Environment variable carrying this process's rank.
pub const ENV_RANK: &str = "SPARCML_RANK";
/// Environment variable carrying the cluster size.
pub const ENV_WORLD: &str = "SPARCML_WORLD";
/// Environment variable carrying rank 0's rendezvous address.
pub const ENV_ROOT_ADDR: &str = "SPARCML_ROOT_ADDR";

pub(crate) fn env_usize(var: &str) -> Result<usize, CommError> {
    std::env::var(var)
        .map_err(|_| CommError::Protocol(format!("{var} is not set")))?
        .trim()
        .parse::<usize>()
        .map_err(|_| CommError::Protocol(format!("{var} is not a non-negative integer")))
}

// ---------------------------------------------------------------------------
// Handshake frames
// ---------------------------------------------------------------------------

fn check_magic_version(magic: u32, version: u16) -> Result<(), CommError> {
    if magic != MAGIC {
        return Err(CommError::HandshakeMismatch {
            detail: format!("bad protocol magic {magic:#010x} (expected {MAGIC:#010x})"),
        });
    }
    if version != TCP_PROTOCOL_VERSION {
        return Err(CommError::HandshakeMismatch {
            detail: format!(
                "protocol version {version} (this build speaks {TCP_PROTOCOL_VERSION})"
            ),
        });
    }
    Ok(())
}

fn read_exact_vec(stream: &mut TcpStream, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

/// Peer → root: `[magic][version][world: u32][rank: u32][addr_len: u16][addr]`.
fn write_hello(stream: &mut TcpStream, rank: usize, world: usize, addr: &str) -> io::Result<()> {
    let addr = addr.as_bytes();
    let mut buf = Vec::with_capacity(16 + addr.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&TCP_PROTOCOL_VERSION.to_le_bytes());
    buf.extend_from_slice(&(world as u32).to_le_bytes());
    buf.extend_from_slice(&(rank as u32).to_le_bytes());
    buf.extend_from_slice(&(addr.len() as u16).to_le_bytes());
    buf.extend_from_slice(addr);
    stream.write_all(&buf)
}

fn read_hello(stream: &mut TcpStream, world: usize) -> Result<(usize, String), CommError> {
    let head = read_exact_vec(stream, 16)?;
    let magic = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
    let version = u16::from_le_bytes(head[4..6].try_into().expect("2 bytes"));
    check_magic_version(magic, version)?;
    let peer_world = u32::from_le_bytes(head[6..10].try_into().expect("4 bytes")) as usize;
    if peer_world != world {
        return Err(CommError::HandshakeMismatch {
            detail: format!("cluster size {peer_world} (this cluster has {world} ranks)"),
        });
    }
    let rank = u32::from_le_bytes(head[10..14].try_into().expect("4 bytes")) as usize;
    let addr_len = u16::from_le_bytes(head[14..16].try_into().expect("2 bytes")) as usize;
    let addr = String::from_utf8(read_exact_vec(stream, addr_len)?).map_err(|_| {
        CommError::HandshakeMismatch {
            detail: "peer address is not valid UTF-8".into(),
        }
    })?;
    Ok((rank, addr))
}

/// Root → peers: `[magic][version][world: u32]([addr_len: u16][addr])*world`.
fn encode_table(addrs: &[String]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&TCP_PROTOCOL_VERSION.to_le_bytes());
    buf.extend_from_slice(&(addrs.len() as u32).to_le_bytes());
    for addr in addrs {
        buf.extend_from_slice(&(addr.len() as u16).to_le_bytes());
        buf.extend_from_slice(addr.as_bytes());
    }
    buf
}

fn read_table(stream: &mut TcpStream, world: usize) -> Result<Vec<String>, CommError> {
    let head = read_exact_vec(stream, 10)?;
    let magic = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
    let version = u16::from_le_bytes(head[4..6].try_into().expect("2 bytes"));
    check_magic_version(magic, version)?;
    let table_world = u32::from_le_bytes(head[6..10].try_into().expect("4 bytes")) as usize;
    if table_world != world {
        return Err(CommError::HandshakeMismatch {
            detail: format!("address table for {table_world} ranks (expected {world})"),
        });
    }
    let mut addrs = Vec::with_capacity(world);
    for _ in 0..world {
        let len_bytes = read_exact_vec(stream, 2)?;
        let len = u16::from_le_bytes(len_bytes[..].try_into().expect("2 bytes")) as usize;
        let addr = String::from_utf8(read_exact_vec(stream, len)?).map_err(|_| {
            CommError::HandshakeMismatch {
                detail: "table address is not valid UTF-8".into(),
            }
        })?;
        addrs.push(addr);
    }
    Ok(addrs)
}

/// Mesh dialer → listener: `[magic][version][rank: u32]`.
fn write_id_frame(stream: &mut TcpStream, rank: usize) -> io::Result<()> {
    let mut buf = [0u8; 10];
    buf[..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4..6].copy_from_slice(&TCP_PROTOCOL_VERSION.to_le_bytes());
    buf[6..].copy_from_slice(&(rank as u32).to_le_bytes());
    stream.write_all(&buf)
}

fn read_id_frame(stream: &mut TcpStream) -> Result<usize, CommError> {
    let buf = read_exact_vec(stream, 10)?;
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let version = u16::from_le_bytes(buf[4..6].try_into().expect("2 bytes"));
    check_magic_version(magic, version)?;
    Ok(u32::from_le_bytes(buf[6..10].try_into().expect("4 bytes")) as usize)
}

// ---------------------------------------------------------------------------
// Bootstrap plumbing
// ---------------------------------------------------------------------------

/// How this rank reaches the rendezvous point.
pub(crate) enum RootRendezvous {
    /// Rank 0 with an address to bind.
    Bind(String),
    /// Rank 0 with a pre-bound listener (in-process loopback clusters —
    /// avoids the bind/re-bind race on ephemeral ports).
    Listener(TcpListener),
    /// Every other rank: the address to dial.
    Dial(String),
}

impl RootRendezvous {
    /// The standard role split: rank 0 binds `root_addr`, everyone else
    /// dials it.
    pub(crate) fn for_rank(rank: usize, root_addr: &str) -> RootRendezvous {
        if rank == 0 {
            RootRendezvous::Bind(root_addr.to_string())
        } else {
            RootRendezvous::Dial(root_addr.to_string())
        }
    }
}

fn dial_with_retry(addr: &str, deadline: Instant) -> Result<TcpStream, CommError> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(CommError::Io(format!(
                        "connecting to {addr} until deadline: {e}"
                    )));
                }
                std::thread::sleep(DIAL_RETRY);
            }
        }
    }
}

fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Instant,
    waiting_for: &str,
) -> Result<TcpStream, CommError> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                listener.set_nonblocking(false)?;
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(CommError::Io(format!(
                        "timed out accepting {waiting_for} connection(s)"
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Rank 0's rendezvous: collect one hello per peer, then broadcast the
/// address table. Returns this rank's mesh listener and the table.
fn root_collect_addrs(
    root_listener: &TcpListener,
    world: usize,
    deadline: Instant,
    config: &TransportConfig,
) -> Result<(TcpListener, Vec<String>), CommError> {
    let root_ip = root_listener.local_addr()?.ip();
    let mesh_listener = TcpListener::bind((root_ip, 0))?;
    let mut addrs = vec![String::new(); world];
    addrs[0] = mesh_listener.local_addr()?.to_string();
    let mut peer_streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
    for _ in 1..world {
        let mut stream = accept_with_deadline(root_listener, deadline, "rendezvous")?;
        stream.set_read_timeout(Some(config.connect_timeout))?;
        let (peer, addr) = read_hello(&mut stream, world)?;
        if peer == 0 || peer >= world {
            return Err(CommError::HandshakeMismatch {
                detail: format!("hello claims rank {peer}, expected (0, {world})"),
            });
        }
        if peer_streams[peer].is_some() {
            return Err(CommError::HandshakeMismatch {
                detail: format!("rank {peer} rendezvoused twice"),
            });
        }
        addrs[peer] = addr;
        peer_streams[peer] = Some(stream);
    }
    let table = encode_table(&addrs);
    for stream in peer_streams.iter_mut().flatten() {
        stream.write_all(&table)?;
    }
    Ok((mesh_listener, addrs))
}

/// A non-root rank's rendezvous: dial the root, announce our mesh
/// address, and receive the full table back.
fn peer_fetch_addrs(
    rank: usize,
    world: usize,
    root_addr: &str,
    deadline: Instant,
    config: &TransportConfig,
) -> Result<(TcpListener, Vec<String>), CommError> {
    let mut root_stream = dial_with_retry(root_addr, deadline)?;
    root_stream.set_nodelay(true)?;
    root_stream.set_read_timeout(Some(config.connect_timeout))?;
    // Bind the mesh listener on whatever local interface routes to the
    // root — the address peers can reach us by.
    let local_ip = root_stream.local_addr()?.ip();
    let mesh_listener = TcpListener::bind((local_ip, 0))?;
    let my_addr = mesh_listener.local_addr()?.to_string();
    write_hello(&mut root_stream, rank, world, &my_addr)?;
    let mut addrs = read_table(&mut root_stream, world)?;
    // Rank 0 may have bound a wildcard or host-local IP; the one address
    // we *know* reaches it is the root address we just dialed, so rewrite
    // its table entry with that host and the announced mesh port.
    if let (Some((root_host, _)), Some((_, mesh_port))) =
        (root_addr.rsplit_once(':'), addrs[0].rsplit_once(':'))
    {
        addrs[0] = format!("{root_host}:{mesh_port}");
    }
    Ok((mesh_listener, addrs))
}

/// Runs the full bootstrap — rendezvous (phase 1) and deterministic mesh
/// construction (phase 2) — and returns one connected, blocking,
/// `TCP_NODELAY` stream per peer (`None` at this rank's own index).
pub(crate) fn establish_mesh(
    rank: usize,
    world: usize,
    root: RootRendezvous,
    config: &TransportConfig,
) -> Result<Vec<Option<TcpStream>>, CommError> {
    debug_assert!(world > 1 && rank < world);
    let deadline = Instant::now() + config.connect_timeout;

    // Phase 1: rendezvous — learn every rank's mesh address.
    let (mesh_listener, addrs) = match root {
        RootRendezvous::Bind(addr) => {
            let listener = TcpListener::bind(&addr)
                .map_err(|e| CommError::Io(format!("binding rendezvous {addr}: {e}")))?;
            root_collect_addrs(&listener, world, deadline, config)?
        }
        RootRendezvous::Listener(listener) => {
            root_collect_addrs(&listener, world, deadline, config)?
        }
        RootRendezvous::Dial(root_addr) => {
            peer_fetch_addrs(rank, world, &root_addr, deadline, config)?
        }
    };

    // Phase 2: deterministic mesh — dial lower ranks, accept higher
    // ones, each connection labelled by an ID frame.
    let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
    for (peer, addr) in addrs.iter().enumerate().take(rank) {
        let mut stream = dial_with_retry(addr, deadline)?;
        stream.set_nodelay(true)?;
        write_id_frame(&mut stream, rank)?;
        streams[peer] = Some(stream);
    }
    for _ in rank + 1..world {
        let mut stream = accept_with_deadline(&mesh_listener, deadline, "mesh")?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.connect_timeout))?;
        let peer = read_id_frame(&mut stream)?;
        if peer <= rank || peer >= world {
            return Err(CommError::HandshakeMismatch {
                detail: format!("mesh connection claims rank {peer}, expected ({rank}, {world})"),
            });
        }
        if streams[peer].is_some() {
            return Err(CommError::HandshakeMismatch {
                detail: format!("rank {peer} connected twice"),
            });
        }
        stream.set_read_timeout(None)?;
        streams[peer] = Some(stream);
    }
    Ok(streams)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> TransportConfig {
        TransportConfig::default().with_connect_timeout(Duration::from_secs(5))
    }

    /// Runs rank 0's side of a 2-rank rendezvous against `intruder`, a
    /// stray client that dials the root and says whatever it likes.
    fn root_rendezvous_against(
        intruder: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> CommError {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let intruder = std::thread::spawn(move || {
            let mut s = dial_with_retry(&addr, Instant::now() + Duration::from_secs(5)).unwrap();
            intruder(&mut s);
            // Hold the socket open so the root reads the full hello.
            std::thread::sleep(Duration::from_millis(200));
        });
        let err = establish_mesh(0, 2, RootRendezvous::Listener(listener), &quick_config())
            .expect_err("rendezvous must fail");
        intruder.join().unwrap();
        err
    }

    #[test]
    fn rendezvous_rejects_wrong_version() {
        // A stray client speaking a different protocol version must fail
        // rank 0's rendezvous with a typed HandshakeMismatch.
        let err = root_rendezvous_against(|s| {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC.to_le_bytes());
            buf.extend_from_slice(&(TCP_PROTOCOL_VERSION + 1).to_le_bytes());
            buf.extend_from_slice(&2u32.to_le_bytes());
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&0u16.to_le_bytes());
            let _ = s.write_all(&buf);
        });
        assert!(
            matches!(err, CommError::HandshakeMismatch { ref detail } if detail.contains("version")),
            "got {err:?}"
        );
    }

    #[test]
    fn rendezvous_rejects_wrong_world_size() {
        let err = root_rendezvous_against(|s| {
            // Claims a 3-rank cluster against a 2-rank rendezvous.
            let _ = write_hello(s, 1, 3, "127.0.0.1:1");
        });
        assert!(
            matches!(err, CommError::HandshakeMismatch { ref detail } if detail.contains("size")),
            "got {err:?}"
        );
    }
}
