//! Length-prefixed frame protocol between the sweep coordinator and
//! its workers.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! frame <body-len> <checksum-hex16>\n
//! <body-len bytes of body>
//! ```
//!
//! The checksum is a splitmix64 chain over the body bytes, so a
//! receiver detects corruption deterministically (a corrupted frame is
//! reported, the containing lease simply expires and the shard is
//! re-issued). The body is a header line `VERB key=value …` followed by
//! raw payload bytes whose lengths the header declares — the payloads
//! (spec text, fault plan, aggregate blobs) are opaque byte strings and
//! never escaped.
//!
//! The verbs:
//!
//! | verb        | direction      | payloads              |
//! |-------------|----------------|-----------------------|
//! | `SPEC`      | coord → worker | fault plan, spec text |
//! | `HELLO`     | worker → coord | —                     |
//! | `LEASE`     | coord → worker | —                     |
//! | `RESULT`    | worker → coord | aggregate blob        |
//! | `HEARTBEAT` | worker → coord | —                     |
//! | `NACK`      | worker → coord | reason                |
//! | `SHUTDOWN`  | coord → worker | —                     |

use antdensity_stats::rng::splitmix64;
use std::io::{BufRead, Read, Write};

/// Message kind, used by the fault filter to address "the m-th RESULT"
/// and friends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    /// Coordinator → worker: resolved-spec handshake.
    Spec,
    /// Worker → coordinator: join, carrying the resolved fingerprint.
    Hello,
    /// Coordinator → worker: shard lease.
    Lease,
    /// Worker → coordinator: completed shard blob.
    Result,
    /// Worker → coordinator: liveness while computing.
    Heartbeat,
    /// Worker → coordinator: lease refused.
    Nack,
    /// Coordinator → worker: drain and exit.
    Shutdown,
}

impl Verb {
    /// All verbs, in wire-name order.
    pub const ALL: [Verb; 7] = [
        Verb::Spec,
        Verb::Hello,
        Verb::Lease,
        Verb::Result,
        Verb::Heartbeat,
        Verb::Nack,
        Verb::Shutdown,
    ];

    /// Lower-case wire/plan name.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Spec => "spec",
            Verb::Hello => "hello",
            Verb::Lease => "lease",
            Verb::Result => "result",
            Verb::Heartbeat => "heartbeat",
            Verb::Nack => "nack",
            Verb::Shutdown => "shutdown",
        }
    }

    /// Parses a verb name, case-insensitively (fault plans convention-
    /// ally write verbs upper-case: `drop:RESULT@2`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown verb.
    pub fn parse(name: &str) -> Result<Verb, String> {
        let lower = name.to_ascii_lowercase();
        Verb::ALL
            .into_iter()
            .find(|v| v.name() == lower)
            .ok_or_else(|| format!("unknown message verb `{name}`"))
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// First frame the coordinator sends on a fresh connection: the
    /// worker's identity, effort mode, fusion setting, heartbeat
    /// interval, the fault plan (workers apply their own `kill:`
    /// entries), and the sweep spec text to resolve.
    Spec {
        /// Worker slot id assigned by the coordinator.
        worker: u64,
        /// Resolve the spec in quick (CI smoke) mode.
        quick: bool,
        /// Execute shards fused (the default path).
        fuse: bool,
        /// Heartbeat interval while computing, milliseconds.
        hb_ms: u64,
        /// Fault plan text ([`super::fault::FaultPlan`] grammar).
        plan: String,
        /// Sweep spec text ([`crate::SweepSpec`] grammar).
        spec: String,
    },
    /// Worker joined; `fingerprint` must match the coordinator's
    /// resolved spec or the worker is shut down.
    Hello {
        /// Worker slot id (echoed from [`Msg::Spec`]).
        worker: u64,
        /// Fingerprint of the worker's resolved spec.
        fingerprint: u64,
    },
    /// Lease of one fused shard to one worker.
    Lease {
        /// Globally unique lease id (1-based, ascending).
        lease: u64,
        /// Fused shard index to execute.
        shard: u64,
    },
    /// Completed shard: the blob is checkpoint text covering exactly
    /// the shard's member cells.
    Result {
        /// Lease this result answers.
        lease: u64,
        /// Shard index (must match the lease).
        shard: u64,
        /// Checkpoint-text aggregate blob.
        blob: String,
    },
    /// Worker liveness while a lease is computing.
    Heartbeat {
        /// Worker slot id.
        worker: u64,
        /// Lease being computed.
        lease: u64,
    },
    /// Lease refused (e.g. shard index out of range).
    Nack {
        /// Refused lease id.
        lease: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Coordinator is done with this worker; drain and exit.
    Shutdown,
}

impl Msg {
    /// This message's verb.
    pub fn verb(&self) -> Verb {
        match self {
            Msg::Spec { .. } => Verb::Spec,
            Msg::Hello { .. } => Verb::Hello,
            Msg::Lease { .. } => Verb::Lease,
            Msg::Result { .. } => Verb::Result,
            Msg::Heartbeat { .. } => Verb::Heartbeat,
            Msg::Nack { .. } => Verb::Nack,
            Msg::Shutdown => Verb::Shutdown,
        }
    }

    /// Renders the frame body (header line + raw payloads).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Spec {
                worker,
                quick,
                fuse,
                hb_ms,
                plan,
                spec,
            } => {
                out.extend_from_slice(
                    format!(
                        "SPEC worker={worker} quick={} fuse={} hb={hb_ms} plan={} spec={}\n",
                        u8::from(*quick),
                        u8::from(*fuse),
                        plan.len(),
                        spec.len()
                    )
                    .as_bytes(),
                );
                out.extend_from_slice(plan.as_bytes());
                out.extend_from_slice(spec.as_bytes());
            }
            Msg::Hello {
                worker,
                fingerprint,
            } => {
                out.extend_from_slice(
                    format!("HELLO worker={worker} fingerprint={fingerprint:016x}\n").as_bytes(),
                );
            }
            Msg::Lease { lease, shard } => {
                out.extend_from_slice(format!("LEASE lease={lease} shard={shard}\n").as_bytes());
            }
            Msg::Result { lease, shard, blob } => {
                out.extend_from_slice(
                    format!("RESULT lease={lease} shard={shard} blob={}\n", blob.len()).as_bytes(),
                );
                out.extend_from_slice(blob.as_bytes());
            }
            Msg::Heartbeat { worker, lease } => {
                out.extend_from_slice(
                    format!("HEARTBEAT worker={worker} lease={lease}\n").as_bytes(),
                );
            }
            Msg::Nack { lease, reason } => {
                out.extend_from_slice(
                    format!("NACK lease={lease} reason={}\n", reason.len()).as_bytes(),
                );
                out.extend_from_slice(reason.as_bytes());
            }
            Msg::Shutdown => out.extend_from_slice(b"SHUTDOWN\n"),
        }
        out
    }

    /// Parses a frame body produced by [`Msg::encode_body`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural problem
    /// (unknown verb, missing field, payload length mismatch).
    pub fn decode_body(body: &[u8]) -> Result<Msg, String> {
        let nl = body
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("frame body has no header line")?;
        let header = std::str::from_utf8(&body[..nl])
            .map_err(|_| "frame header is not UTF-8".to_string())?;
        let payload = &body[nl + 1..];
        let toks: Vec<&str> = header.split_whitespace().collect();
        let field = |key: &str| -> Result<&str, String> {
            toks.iter()
                .filter_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                .next()
                .ok_or_else(|| format!("frame header `{header}` missing `{key}=`"))
        };
        let int = |key: &str| -> Result<u64, String> {
            field(key)?
                .parse()
                .map_err(|_| format!("bad integer for `{key}` in `{header}`"))
        };
        let text = |bytes: &[u8]| -> Result<String, String> {
            String::from_utf8(bytes.to_vec()).map_err(|_| "frame payload is not UTF-8".to_string())
        };
        match toks.first().copied() {
            Some("SPEC") => {
                let plan_len = int("plan")? as usize;
                let spec_len = int("spec")? as usize;
                if payload.len() != plan_len + spec_len {
                    return Err(format!(
                        "SPEC payload is {} bytes, header declares {}",
                        payload.len(),
                        plan_len + spec_len
                    ));
                }
                Ok(Msg::Spec {
                    worker: int("worker")?,
                    quick: int("quick")? != 0,
                    fuse: int("fuse")? != 0,
                    hb_ms: int("hb")?,
                    plan: text(&payload[..plan_len])?,
                    spec: text(&payload[plan_len..])?,
                })
            }
            Some("HELLO") => Ok(Msg::Hello {
                worker: int("worker")?,
                fingerprint: u64::from_str_radix(field("fingerprint")?, 16)
                    .map_err(|_| format!("bad fingerprint in `{header}`"))?,
            }),
            Some("LEASE") => Ok(Msg::Lease {
                lease: int("lease")?,
                shard: int("shard")?,
            }),
            Some("RESULT") => {
                let blob_len = int("blob")? as usize;
                if payload.len() != blob_len {
                    return Err(format!(
                        "RESULT payload is {} bytes, header declares {blob_len}",
                        payload.len()
                    ));
                }
                Ok(Msg::Result {
                    lease: int("lease")?,
                    shard: int("shard")?,
                    blob: text(payload)?,
                })
            }
            Some("HEARTBEAT") => Ok(Msg::Heartbeat {
                worker: int("worker")?,
                lease: int("lease")?,
            }),
            Some("NACK") => Ok(Msg::Nack {
                lease: int("lease")?,
                reason: text(payload)?,
            }),
            Some("SHUTDOWN") => Ok(Msg::Shutdown),
            other => Err(format!("unknown frame verb `{}`", other.unwrap_or(""))),
        }
    }

    /// Renders the complete frame (prefix line + body).
    pub fn encode_frame(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = format!("frame {} {:016x}\n", body.len(), checksum(&body)).into_bytes();
        out.extend_from_slice(&body);
        out
    }
}

/// Splitmix64 chain over the body bytes — cheap, deterministic, and
/// sensitive to any single-byte corruption.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// Writes one frame and flushes.
///
/// # Errors
///
/// Returns the underlying I/O error (e.g. a broken pipe when the peer
/// died).
pub fn write_frame<W: Write>(w: &mut W, msg: &Msg) -> std::io::Result<()> {
    w.write_all(&msg.encode_frame())?;
    w.flush()
}

/// Largest frame body [`read_frame`] accepts. The reader allocates the
/// declared length before reading a byte, so an unchecked prefix such as
/// `frame 18446744073709551615 0` would panic (or, for a large but
/// representable length, abort on allocation failure). The largest
/// frames are `RESULT` shard blobs: about 8 KiB in the test suites' dist
/// sweeps and 14 KiB for a quick `alg1_accuracy` sweep. 64 MiB leaves
/// over three orders of magnitude of headroom for larger grids while
/// bounding what a corrupt or hostile prefix can make a peer allocate.
const MAX_FRAME_BYTES: usize = 64 << 20;

/// Longest frame prefix line [`read_frame`] reads before giving up. The
/// longest valid prefix, `frame <20-digit usize> <16 hex digits>\n`, is
/// 44 bytes; the cap stops a peer that never sends a newline from making
/// the reader buffer without limit.
const MAX_PREFIX_BYTES: u64 = 64;

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary;
/// any other failure — truncated frame, bad prefix, checksum mismatch,
/// undecodable body — is an error (the stream may be unrecoverable).
///
/// # Errors
///
/// Returns a message describing the framing problem; checksum failures
/// mention "checksum" so callers can count corruption distinctly.
pub fn read_frame<R: BufRead>(r: &mut R) -> Result<Option<Msg>, String> {
    let mut prefix = String::new();
    match r.take(MAX_PREFIX_BYTES).read_line(&mut prefix) {
        Ok(0) => return Ok(None),
        Ok(n) if n as u64 == MAX_PREFIX_BYTES && !prefix.ends_with('\n') => {
            return Err(format!(
                "frame prefix exceeds the {MAX_PREFIX_BYTES}-byte limit"
            ))
        }
        Ok(_) => {}
        Err(e) => return Err(format!("frame read failed: {e}")),
    }
    let toks: Vec<&str> = prefix.split_whitespace().collect();
    let (len, declared) = match toks[..] {
        ["frame", len, sum] => (
            len.parse::<usize>()
                .map_err(|_| format!("bad frame length `{len}`"))?,
            u64::from_str_radix(sum, 16).map_err(|_| format!("bad frame checksum `{sum}`"))?,
        ),
        _ => return Err(format!("bad frame prefix `{}`", prefix.trim_end())),
    };
    if len > MAX_FRAME_BYTES {
        return Err(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| format!("truncated frame body: {e}"))?;
    if checksum(&body) != declared {
        return Err(format!(
            "frame checksum mismatch (declared {declared:016x}, computed {:016x})",
            checksum(&body)
        ));
    }
    Msg::decode_body(&body).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Spec {
                worker: 3,
                quick: true,
                fuse: false,
                hb_ms: 200,
                plan: "kill:w0@lease1".into(),
                spec: "name = x\ntrials = 1\n".into(),
            },
            Msg::Hello {
                worker: 3,
                fingerprint: 0xDEAD_BEEF_0102_0304,
            },
            Msg::Lease { lease: 7, shard: 2 },
            Msg::Result {
                lease: 7,
                shard: 2,
                blob: "antdensity-sweep-checkpoint v1\nbody with\nnewlines".into(),
            },
            Msg::Heartbeat {
                worker: 3,
                lease: 7,
            },
            Msg::Nack {
                lease: 7,
                reason: "shard out of range".into(),
            },
            Msg::Shutdown,
        ]
    }

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        for msg in samples() {
            write_frame(&mut wire, &msg).unwrap();
        }
        let mut r = BufReader::new(&wire[..]);
        for msg in samples() {
            assert_eq!(read_frame(&mut r).unwrap(), Some(msg));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn corruption_is_detected() {
        let frame = Msg::Lease { lease: 1, shard: 0 }.encode_frame();
        // flip one payload byte: checksum must catch it
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x04;
            let got = read_frame(&mut BufReader::new(&bad[..]));
            assert!(
                got.is_err() || got != Ok(Some(Msg::Lease { lease: 1, shard: 0 })),
                "flipping byte {i} went unnoticed"
            );
        }
        let mut body_flip = frame.clone();
        let body_start = frame.iter().position(|&b| b == b'\n').unwrap() + 1;
        body_flip[body_start] ^= 0x01;
        let err = read_frame(&mut BufReader::new(&body_flip[..])).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn truncation_is_an_error_not_eof() {
        let frame = Msg::Result {
            lease: 1,
            shard: 0,
            blob: "0123456789".into(),
        }
        .encode_frame();
        let cut = &frame[..frame.len() - 3];
        let err = read_frame(&mut BufReader::new(cut)).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn oversized_declared_length_is_an_error() {
        let prefix = b"frame 18446744073709551615 0\n";
        let err = read_frame(&mut BufReader::new(&prefix[..])).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn length_one_past_the_cap_is_an_error() {
        let prefix = format!("frame {} 0\n", MAX_FRAME_BYTES + 1);
        let err = read_frame(&mut BufReader::new(prefix.as_bytes())).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn newline_free_prefix_is_an_error_after_the_cap() {
        let mut r = std::io::Cursor::new(vec![b'a'; 1 << 20]);
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(
            r.position() <= MAX_PREFIX_BYTES,
            "read {} bytes",
            r.position()
        );
    }

    #[test]
    fn verbs_round_trip_by_name() {
        for v in Verb::ALL {
            assert_eq!(Verb::parse(v.name()).unwrap(), v);
        }
        assert!(Verb::parse("gossip").is_err());
    }
}
