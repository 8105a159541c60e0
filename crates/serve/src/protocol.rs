//! The serve-v1 wire protocol: a versioned extension of the transport
//! layer's length-prefixed framing for client↔server sessions.
//!
//! Every frame is `[len: u32 LE][kind: u8][payload: len bytes]` — `len`
//! counts only the payload, and the receiver checks it against its
//! `max_frame_len` *before* allocating (servers default to the small
//! [`sparcml_net::SERVER_MAX_FRAME_LEN`] cap). CONTRIBUTE, STATE and
//! UPDATE payloads embed a stream wire-v6 frame verbatim — dense, or
//! sparse with an Elias–Fano index — so the stream codec, and all of its
//! peer-untrusting validation, is reused unchanged.
//!
//! ```text
//! client → server                      server → client
//! 0x01 HELLO    magic ver session      0x81 WELCOME  magic ver shard table
//! 0x02 CONTRIBUTE model seq stream     0x82 ACK      model seq generation
//! 0x03 FETCH    model                  0x83 BUSY     model seq queued cap
//! 0x04 SUBSCRIBE model                 0x84 STATE    model gen contribs stream
//! 0x05 BYE      —                      0x85 UPDATE   model gen stream
//!                                      0x86 ERROR    code detail
//! ```

use std::io::{self, Read, Write};

use sparcml_net::framing;
use sparcml_net::CommError;

use crate::config::AggregationMode;
use crate::error::ServeError;

/// Protocol magic opening HELLO and WELCOME payloads.
pub const SERVE_MAGIC: [u8; 4] = *b"SPSV";
/// Version of the serve wire protocol this module speaks.
pub const SERVE_PROTOCOL_VERSION: u16 = 1;
/// Bytes preceding every payload: the length word plus the kind byte.
pub const FRAME_HEADER_LEN: usize = 5;

const KIND_HELLO: u8 = 0x01;
const KIND_CONTRIBUTE: u8 = 0x02;
const KIND_FETCH: u8 = 0x03;
const KIND_SUBSCRIBE: u8 = 0x04;
const KIND_BYE: u8 = 0x05;
const KIND_WELCOME: u8 = 0x81;
const KIND_ACK: u8 = 0x82;
const KIND_BUSY: u8 = 0x83;
const KIND_STATE: u8 = 0x84;
const KIND_UPDATE: u8 = 0x85;
const KIND_ERROR: u8 = 0x86;

/// Machine-readable reason in an ERROR frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The client declared a frame beyond the server's cap.
    FrameTooLarge,
    /// A model id outside the server's table.
    UnknownModel,
    /// A contribution whose support leaves this shard's index range.
    OutOfRange,
    /// Admission control refused the session (server full).
    SessionLimit,
    /// A session with this name is already active.
    DuplicateSession,
    /// HELLO failed validation (magic/version).
    Handshake,
    /// A payload that does not parse.
    Malformed,
    /// The server is shutting down.
    ShuttingDown,
}

impl ErrorCode {
    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::FrameTooLarge => 1,
            ErrorCode::UnknownModel => 2,
            ErrorCode::OutOfRange => 3,
            ErrorCode::SessionLimit => 4,
            ErrorCode::DuplicateSession => 5,
            ErrorCode::Handshake => 6,
            ErrorCode::Malformed => 7,
            ErrorCode::ShuttingDown => 8,
        }
    }

    fn from_u8(tag: u8) -> Option<Self> {
        Some(match tag {
            1 => ErrorCode::FrameTooLarge,
            2 => ErrorCode::UnknownModel,
            3 => ErrorCode::OutOfRange,
            4 => ErrorCode::SessionLimit,
            5 => ErrorCode::DuplicateSession,
            6 => ErrorCode::Handshake,
            7 => ErrorCode::Malformed,
            8 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// One row of the WELCOME model table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Model name.
    pub name: String,
    /// Logical dimension.
    pub dim: usize,
    /// Sum vs. average serving.
    pub mode: AggregationMode,
}

/// A decoded serve-v1 frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opener: the client announces its (stable, reconnectable)
    /// session name.
    Hello {
        /// Session name.
        session: String,
    },
    /// One sparse contribution: a stream wire-v4 frame targeted at a
    /// model, tagged with the client's sequence number for ACK matching.
    Contribute {
        /// Model id (index into the WELCOME table).
        model: u16,
        /// Client-chosen sequence number echoed in ACK/BUSY.
        seq: u64,
        /// Stream wire-v4 frame bytes.
        payload: Vec<u8>,
    },
    /// Request the model's current merged state.
    Fetch {
        /// Model id.
        model: u16,
    },
    /// Ask for UPDATE pushes after every aggregation batch that touches
    /// the model.
    Subscribe {
        /// Model id.
        model: u16,
    },
    /// Orderly goodbye.
    Bye,
    /// Handshake answer: this shard's place in the group plus the model
    /// table.
    Welcome {
        /// This server's shard id.
        shard: u16,
        /// Number of shards in the group.
        shards: u16,
        /// Whether the session resumed an earlier incarnation.
        resumed: bool,
        /// The model table (ids are indices).
        models: Vec<ModelInfo>,
    },
    /// A contribution was applied; `generation` is the model's counter
    /// after application.
    Ack {
        /// Model id.
        model: u16,
        /// Echo of the contribution's sequence number.
        seq: u64,
        /// Post-apply generation.
        generation: u64,
    },
    /// Typed backpressure: the contribution was dropped because a queue
    /// was full. Retry later.
    Busy {
        /// Model id.
        model: u16,
        /// Echo of the contribution's sequence number.
        seq: u64,
        /// Jobs queued at rejection time.
        queued: u32,
        /// Queue capacity.
        capacity: u32,
    },
    /// Answer to FETCH: the merged state of this shard's index range.
    State {
        /// Model id.
        model: u16,
        /// Generation at snapshot time.
        generation: u64,
        /// Contributions folded in so far.
        contributions: u64,
        /// Stream wire-v4 frame bytes.
        payload: Vec<u8>,
    },
    /// Subscription push after an aggregation batch.
    Update {
        /// Model id.
        model: u16,
        /// Generation after the batch.
        generation: u64,
        /// Stream wire-v4 frame bytes.
        payload: Vec<u8>,
    },
    /// Typed rejection; the session stays open unless the error is
    /// fatal (frame-size or handshake violations close it).
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

impl Frame {
    /// The frame's kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Contribute { .. } => KIND_CONTRIBUTE,
            Frame::Fetch { .. } => KIND_FETCH,
            Frame::Subscribe { .. } => KIND_SUBSCRIBE,
            Frame::Bye => KIND_BYE,
            Frame::Welcome { .. } => KIND_WELCOME,
            Frame::Ack { .. } => KIND_ACK,
            Frame::Busy { .. } => KIND_BUSY,
            Frame::State { .. } => KIND_STATE,
            Frame::Update { .. } => KIND_UPDATE,
            Frame::Error { .. } => KIND_ERROR,
        }
    }

    /// Serializes the whole frame (header included) into `out`, clearing
    /// it first — `out` is typically a pool-recycled buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        begin_frame(out, self.kind());
        match self {
            Frame::Hello { session } => {
                out.extend_from_slice(&SERVE_MAGIC);
                out.extend_from_slice(&SERVE_PROTOCOL_VERSION.to_le_bytes());
                put_str(out, session);
            }
            Frame::Contribute {
                model,
                seq,
                payload,
            } => {
                put_contribute_head(out, *model, *seq);
                out.extend_from_slice(payload);
            }
            Frame::Fetch { model } | Frame::Subscribe { model } => {
                out.extend_from_slice(&model.to_le_bytes());
            }
            Frame::Bye => {}
            Frame::Welcome {
                shard,
                shards,
                resumed,
                models,
            } => {
                out.extend_from_slice(&SERVE_MAGIC);
                out.extend_from_slice(&SERVE_PROTOCOL_VERSION.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
                out.push(u8::from(*resumed));
                out.extend_from_slice(&(models.len() as u16).to_le_bytes());
                for m in models {
                    put_str(out, &m.name);
                    out.extend_from_slice(&(m.dim as u64).to_le_bytes());
                    out.push(m.mode.as_u8());
                }
            }
            Frame::Ack {
                model,
                seq,
                generation,
            } => {
                out.extend_from_slice(&model.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Frame::Busy {
                model,
                seq,
                queued,
                capacity,
            } => {
                out.extend_from_slice(&model.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&queued.to_le_bytes());
                out.extend_from_slice(&capacity.to_le_bytes());
            }
            Frame::State {
                model,
                generation,
                contributions,
                payload,
            } => {
                put_state_head(out, *model, *generation, *contributions);
                out.extend_from_slice(payload);
            }
            Frame::Update {
                model,
                generation,
                payload,
            } => {
                put_update_head(out, *model, *generation);
                out.extend_from_slice(payload);
            }
            Frame::Error { code, detail } => {
                out.push(code.as_u8());
                put_str(out, detail);
            }
        }
        end_frame(out);
    }

    /// Serializes a STATE frame into `out` (cleared first) with a payload
    /// that `payload` appends in place: the bytes
    /// [`Frame::encode_into`] writes for [`Frame::State`], without a
    /// buffer of the payload's own.
    pub(crate) fn encode_state_into(
        out: &mut Vec<u8>,
        model: u16,
        generation: u64,
        contributions: u64,
        payload: impl FnOnce(&mut Vec<u8>),
    ) {
        begin_frame(out, KIND_STATE);
        put_state_head(out, model, generation, contributions);
        payload(out);
        end_frame(out);
    }

    /// [`Frame::encode_state_into`] for a CONTRIBUTE frame.
    pub(crate) fn encode_contribute_into(
        out: &mut Vec<u8>,
        model: u16,
        seq: u64,
        payload: impl FnOnce(&mut Vec<u8>),
    ) {
        begin_frame(out, KIND_CONTRIBUTE);
        put_contribute_head(out, model, seq);
        payload(out);
        end_frame(out);
    }

    /// [`Frame::encode_state_into`] for an UPDATE frame.
    pub(crate) fn encode_update_into(
        out: &mut Vec<u8>,
        model: u16,
        generation: u64,
        payload: impl FnOnce(&mut Vec<u8>),
    ) {
        begin_frame(out, KIND_UPDATE);
        put_update_head(out, model, generation);
        payload(out);
        end_frame(out);
    }

    /// Decodes a payload previously produced by [`Frame::encode_into`].
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Frame, ServeError> {
        let (head, stream) = payload.split_at(stream_head_len(kind, payload.len()));
        Frame::decode_parts(kind, head, stream.to_vec())
    }

    /// Decodes a payload split at [`stream_head_len`]: the fields in
    /// `head`, and the stream frame a CONTRIBUTE, STATE or UPDATE payload
    /// carries, handed over as it is (empty for the other kinds).
    fn decode_parts(kind: u8, head: &[u8], stream: Vec<u8>) -> Result<Frame, ServeError> {
        let mut cur = Cur(head);
        let frame = match kind {
            KIND_HELLO => {
                check_magic(&mut cur)?;
                Frame::Hello {
                    session: cur.take_str()?,
                }
            }
            KIND_CONTRIBUTE => Frame::Contribute {
                model: cur.take_u16()?,
                seq: cur.take_u64()?,
                payload: stream,
            },
            KIND_FETCH => Frame::Fetch {
                model: cur.take_u16()?,
            },
            KIND_SUBSCRIBE => Frame::Subscribe {
                model: cur.take_u16()?,
            },
            KIND_BYE => Frame::Bye,
            KIND_WELCOME => {
                check_magic(&mut cur)?;
                let shard = cur.take_u16()?;
                let shards = cur.take_u16()?;
                let resumed = cur.take_u8()? != 0;
                let n = cur.take_u16()? as usize;
                let mut models = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = cur.take_str()?;
                    let dim = cur.take_u64()? as usize;
                    let mode = AggregationMode::from_u8(cur.take_u8()?)
                        .ok_or_else(|| ServeError::Protocol("unknown aggregation mode".into()))?;
                    models.push(ModelInfo { name, dim, mode });
                }
                Frame::Welcome {
                    shard,
                    shards,
                    resumed,
                    models,
                }
            }
            KIND_ACK => Frame::Ack {
                model: cur.take_u16()?,
                seq: cur.take_u64()?,
                generation: cur.take_u64()?,
            },
            KIND_BUSY => Frame::Busy {
                model: cur.take_u16()?,
                seq: cur.take_u64()?,
                queued: cur.take_u32()?,
                capacity: cur.take_u32()?,
            },
            KIND_STATE => Frame::State {
                model: cur.take_u16()?,
                generation: cur.take_u64()?,
                contributions: cur.take_u64()?,
                payload: stream,
            },
            KIND_UPDATE => Frame::Update {
                model: cur.take_u16()?,
                generation: cur.take_u64()?,
                payload: stream,
            },
            KIND_ERROR => {
                let code = ErrorCode::from_u8(cur.take_u8()?)
                    .ok_or_else(|| ServeError::Protocol("unknown error code".into()))?;
                Frame::Error {
                    code,
                    detail: cur.take_str()?,
                }
            }
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown frame kind 0x{other:02x}"
                )))
            }
        };
        Ok(frame)
    }
}

/// Bytes of a `kind` payload of `len` bytes that [`Frame::decode_parts`]
/// reads as fields: those ahead of the stream frame a CONTRIBUTE, STATE or
/// UPDATE payload carries (at most `len`, so a short one reads as
/// truncated), the whole payload for the other kinds.
fn stream_head_len(kind: u8, len: usize) -> usize {
    let head = match kind {
        KIND_CONTRIBUTE => CONTRIBUTE_HEAD_LEN,
        KIND_STATE => STATE_HEAD_LEN,
        KIND_UPDATE => UPDATE_HEAD_LEN,
        _ => len,
    };
    head.min(len)
}

/// Clears `out` and writes a frame header of `kind`, its length word left
/// for [`end_frame`].
fn begin_frame(out: &mut Vec<u8>, kind: u8) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
    out.push(kind);
}

/// Backpatches the length word of the frame `out` holds.
fn end_frame(out: &mut [u8]) {
    let len = (out.len() - FRAME_HEADER_LEN) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
}

/// Bytes of the fields ahead of the stream frame a payload carries: a
/// CONTRIBUTE's model and sequence number, an UPDATE's model and
/// generation, and a STATE's model, generation and contribution count.
const CONTRIBUTE_HEAD_LEN: usize = 2 + 8;
const UPDATE_HEAD_LEN: usize = 2 + 8;
const STATE_HEAD_LEN: usize = UPDATE_HEAD_LEN + 8;

/// The fields of a CONTRIBUTE payload ahead of its stream frame, written
/// behind the frame header.
fn put_contribute_head(out: &mut Vec<u8>, model: u16, seq: u64) {
    out.extend_from_slice(&model.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    debug_assert_eq!(out.len(), FRAME_HEADER_LEN + CONTRIBUTE_HEAD_LEN);
}

/// The fields of a STATE payload ahead of its stream frame, written
/// behind the frame header.
fn put_state_head(out: &mut Vec<u8>, model: u16, generation: u64, contributions: u64) {
    put_update_head(out, model, generation);
    out.extend_from_slice(&contributions.to_le_bytes());
    debug_assert_eq!(out.len(), FRAME_HEADER_LEN + STATE_HEAD_LEN);
}

/// The fields of an UPDATE payload ahead of its stream frame, written
/// behind the frame header.
fn put_update_head(out: &mut Vec<u8>, model: u16, generation: u64) {
    out.extend_from_slice(&model.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    debug_assert_eq!(out.len(), FRAME_HEADER_LEN + UPDATE_HEAD_LEN);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.extend_from_slice(&(bytes.len().min(u16::MAX as usize) as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

fn check_magic(cur: &mut Cur<'_>) -> Result<(), ServeError> {
    let magic = cur.take_bytes(4)?;
    if magic != SERVE_MAGIC {
        return Err(ServeError::Handshake(format!(
            "bad protocol magic {magic:02x?}"
        )));
    }
    let version = cur.take_u16()?;
    if version != SERVE_PROTOCOL_VERSION {
        return Err(ServeError::Handshake(format!(
            "protocol version mismatch: we speak v{SERVE_PROTOCOL_VERSION}, peer sent v{version}"
        )));
    }
    Ok(())
}

/// Minimal little-endian payload cursor with typed truncation errors.
struct Cur<'a>(&'a [u8]);

impl<'a> Cur<'a> {
    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if self.0.len() < n {
            return Err(ServeError::Protocol(format!(
                "truncated frame payload: needed {n} more bytes, had {}",
                self.0.len()
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn take_u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take_bytes(1)?[0])
    }

    fn take_u16(&mut self) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(
            self.take_bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn take_u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(
            self.take_bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(
            self.take_bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn take_str(&mut self) -> Result<String, ServeError> {
        let len = self.take_u16()? as usize;
        let bytes = self.take_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServeError::Protocol("string field is not UTF-8".into()))
    }
}

/// Why [`read_frame`] stopped without a frame.
#[derive(Debug)]
pub enum FrameReadError {
    /// Clean EOF at a frame boundary — an orderly (or at least complete)
    /// close.
    Eof,
    /// The socket's read timeout expired — the idle watchdog's signal to
    /// reap a silent session (including one that went quiet mid-frame).
    TimedOut,
    /// The peer declared a payload beyond `max_frame_len`.
    TooLarge {
        /// Declared payload length.
        declared: usize,
        /// Configured cap.
        limit: usize,
    },
    /// The connection died mid-frame (EOF inside a frame, reset, or any
    /// other I/O failure).
    Closed(String),
    /// The payload arrived whole but does not parse.
    Malformed(String),
}

/// Reads one frame. The caller controls blocking behavior through the
/// socket's read timeout: on expiry this returns
/// [`FrameReadError::TimedOut`] whether the silence was between frames or
/// in the middle of one — either way the peer stopped talking.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Frame, FrameReadError> {
    read_frame_counted(r, max_frame).map(|(frame, _)| frame)
}

/// [`read_frame`] that also reports the frame's total wire size (header
/// included) for byte accounting.
pub fn read_frame_counted(
    r: &mut impl Read,
    max_frame: usize,
) -> Result<(Frame, usize), FrameReadError> {
    // First header byte separately: EOF here is a clean close, EOF later
    // is a mid-frame death.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameReadError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(classify(e)),
        }
    }
    let mut rest = [0u8; FRAME_HEADER_LEN - 1];
    read_exact_frame(r, &mut rest)?;
    let kind = rest[3];
    // The shared length gate (`sparcml_net::framing`) runs before the
    // payload allocation, same as the transports' data-frame readers.
    let len = framing::parse_frame_len([first[0], rest[0], rest[1], rest[2]], max_frame).map_err(
        |e| match e {
            CommError::FrameTooLarge { declared, limit } => {
                FrameReadError::TooLarge { declared, limit }
            }
            other => FrameReadError::Malformed(other.to_string()),
        },
    )?;
    // A carried stream frame is read into a buffer of its own, which the
    // frame then owns: the payload is never copied.
    let mut head = vec![0u8; stream_head_len(kind, len)];
    read_exact_frame(r, &mut head)?;
    let mut stream = vec![0u8; len - head.len()];
    read_exact_frame(r, &mut stream)?;
    let frame = Frame::decode_parts(kind, &head, stream)
        .map_err(|e| FrameReadError::Malformed(e.to_string()))?;
    Ok((frame, FRAME_HEADER_LEN + len))
}

fn read_exact_frame(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameReadError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameReadError::Closed("connection closed mid-frame".into())
        } else {
            classify(e)
        }
    })
}

fn classify(e: io::Error) -> FrameReadError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameReadError::TimedOut,
        _ => FrameReadError::Closed(e.to_string()),
    }
}

/// Writes one already-encoded frame (as produced by
/// [`Frame::encode_into`]).
pub fn write_frame_bytes(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        frame.encode_into(&mut buf);
        let decoded = read_frame(&mut &buf[..], 1 << 20).expect("decode");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn a_payload_written_in_place_is_the_owned_payloads_frame() {
        let payload = vec![0xC5, 4, 4, 0, 9, 9];
        let mut want = Vec::new();
        let mut got = vec![0xFF; 40]; // a recycled buffer: cleared first
        Frame::State {
            model: 2,
            generation: 5,
            contributions: 6,
            payload: payload.clone(),
        }
        .encode_into(&mut want);
        Frame::encode_state_into(&mut got, 2, 5, 6, |out| out.extend_from_slice(&payload));
        assert_eq!(got, want);
        Frame::Update {
            model: 2,
            generation: 5,
            payload: payload.clone(),
        }
        .encode_into(&mut want);
        Frame::encode_update_into(&mut got, 2, 5, |out| out.extend_from_slice(&payload));
        assert_eq!(got, want);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Hello {
            session: "worker-7".into(),
        });
        round_trip(Frame::Contribute {
            model: 3,
            seq: 42,
            payload: vec![1, 2, 3, 4],
        });
        round_trip(Frame::Fetch { model: 0 });
        round_trip(Frame::Subscribe { model: 65535 });
        round_trip(Frame::Bye);
        round_trip(Frame::Welcome {
            shard: 1,
            shards: 2,
            resumed: true,
            models: vec![
                ModelInfo {
                    name: "grad".into(),
                    dim: 1 << 20,
                    mode: AggregationMode::Sum,
                },
                ModelInfo {
                    name: "emb".into(),
                    dim: 10,
                    mode: AggregationMode::Average,
                },
            ],
        });
        round_trip(Frame::Ack {
            model: 1,
            seq: 9,
            generation: 77,
        });
        round_trip(Frame::Busy {
            model: 1,
            seq: 9,
            queued: 64,
            capacity: 64,
        });
        round_trip(Frame::State {
            model: 2,
            generation: 5,
            contributions: 5,
            payload: vec![0xC5],
        });
        round_trip(Frame::Update {
            model: 2,
            generation: 6,
            payload: vec![],
        });
        round_trip(Frame::Error {
            code: ErrorCode::OutOfRange,
            detail: "index 9 beyond shard range".into(),
        });
    }

    #[test]
    fn a_carried_stream_frame_is_handed_over_and_a_short_head_is_malformed() {
        let payload = vec![0xC5, 5, 4, 1, 7, 7, 7];
        for frame in [
            Frame::Contribute {
                model: 3,
                seq: 42,
                payload: payload.clone(),
            },
            Frame::State {
                model: 2,
                generation: 5,
                contributions: 6,
                payload: payload.clone(),
            },
            Frame::Update {
                model: 2,
                generation: 6,
                payload: payload.clone(),
            },
        ] {
            let mut buf = Vec::new();
            frame.encode_into(&mut buf);
            let (got, bytes) = read_frame_counted(&mut &buf[..], 1 << 20).expect("decode");
            assert_eq!((got, bytes), (frame.clone(), buf.len()));
            // Every declared length that ends inside the fields ahead of
            // the stream frame is a typed error, as it was before the
            // stream bytes got a buffer of their own.
            let head = buf.len() - FRAME_HEADER_LEN - payload.len();
            for len in 0..head {
                let mut cut = buf[..FRAME_HEADER_LEN + len].to_vec();
                cut[..4].copy_from_slice(&(len as u32).to_le_bytes());
                assert!(
                    matches!(
                        read_frame(&mut &cut[..], 1 << 20),
                        Err(FrameReadError::Malformed(_))
                    ),
                    "{frame:?} cut to {len}"
                );
            }
        }
    }

    #[test]
    fn oversized_declaration_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        Frame::Bye.encode_into(&mut buf);
        buf[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        match read_frame(&mut &buf[..], 1024) {
            Err(FrameReadError::TooLarge { declared, limit }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn eof_between_frames_is_clean_but_mid_frame_is_closed() {
        assert!(matches!(
            read_frame(&mut &[][..], 1024),
            Err(FrameReadError::Eof)
        ));
        let mut buf = Vec::new();
        Frame::Hello {
            session: "w".into(),
        }
        .encode_into(&mut buf);
        let truncated = &buf[..buf.len() - 1];
        assert!(matches!(
            read_frame(&mut &truncated[..], 1024),
            Err(FrameReadError::Closed(_))
        ));
    }

    #[test]
    fn wrong_magic_is_a_handshake_error() {
        let mut buf = Vec::new();
        Frame::Hello {
            session: "w".into(),
        }
        .encode_into(&mut buf);
        buf[FRAME_HEADER_LEN] = b'X'; // corrupt first magic byte
        match read_frame(&mut &buf[..], 1024) {
            Err(FrameReadError::Malformed(detail)) => {
                assert!(detail.contains("magic"), "{detail}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn mutated_state_and_update_frames_never_panic_the_decoder() {
        use sparcml_stream::{random_sparse, SparseStream, XorShift64};
        // A shard's state of two runs of 20 (an Elias–Fano index of 6 low
        // bits) and one 40 % dense (of no low bits, a bitmap).
        let runs: Vec<(u32, f32)> = (100..120).chain(3000..3020).map(|i| (i, 1.0)).collect();
        let streams = [
            SparseStream::from_pairs(4096, &runs).unwrap(),
            random_sparse::<f32>(4096, 1600, 2),
        ];
        let payloads = streams.each_ref().map(|s| s.encode().to_vec());
        let valid: Vec<Vec<u8>> = payloads
            .iter()
            .flat_map(|payload| {
                [
                    Frame::State {
                        model: 1,
                        generation: 9,
                        contributions: 4,
                        payload: payload.clone(),
                    },
                    Frame::Update {
                        model: 1,
                        generation: 10,
                        payload: payload.clone(),
                    },
                ]
            })
            .map(|frame| {
                let mut buf = Vec::new();
                frame.encode_into(&mut buf);
                buf
            })
            .collect();
        let mut rng = XorShift64::new(0x5e4e);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..4000 {
            // Mutate kind and payload; the length word is the framing's.
            let mut bytes = valid[case % valid.len()][4..].to_vec();
            match rng.next_u64() % 4 {
                0 => bytes.truncate(rng.next_u64() as usize % (bytes.len() + 1)),
                1 => bytes.extend((0..rng.next_u64() % 9).map(|_| rng.next_u64() as u8)),
                _ => {}
            }
            for _ in 0..rng.next_u64() % 4 {
                if !bytes.is_empty() {
                    let at = rng.next_u64() as usize % bytes.len();
                    bytes[at] ^= 1 << (rng.next_u64() % 8);
                }
            }
            let Some((&kind, payload)) = bytes.split_first() else {
                continue;
            };
            // Ok or a typed error, the frame and the stream it embeds; an
            // embedded stream that decodes is the one frame encoding it.
            let Ok(Frame::State { payload, .. } | Frame::Update { payload, .. }) =
                Frame::decode(kind, payload)
            else {
                continue;
            };
            match SparseStream::<f32>::decode(&payload) {
                Ok(s) => {
                    assert_eq!(s.encode().as_ref(), &payload[..], "case {case}");
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = Vec::new();
        Frame::Bye.encode_into(&mut buf);
        buf[4] = 0x7F;
        assert!(matches!(
            read_frame(&mut &buf[..], 1024),
            Err(FrameReadError::Malformed(_))
        ));
    }
}
