//! Control message wire formats.
//!
//! All protocol control traffic (eager headers, rendezvous start/reply,
//! P-RRS segment-ready, fin) travels as channel-semantics sends into the
//! pre-posted eager buffers, so these messages are genuinely serialized
//! into simulated memory and parsed back on arrival — a malformed
//! encoder shows up as a test failure, not a silent mismatch.

use ibdt_datatype::cache::TypeTag;
use ibdt_datatype::FlatLayout;
use ibdt_simcore::InlineVec;

/// Per-segment `(addr, rkey)` reply targets. Inline up to 4 entries:
/// steady-state rendezvous replies carry a handful of segments, so the
/// common decode allocates nothing; wide replies spill to the heap.
pub type SegList = InlineVec<(u64, u32), 4>;

/// A control message.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Small-message data; the packed payload follows the header in the
    /// same eager buffer.
    EagerData {
        /// MPI tag.
        tag: u32,
        /// Per-(src,dst) message sequence number.
        seq: u64,
        /// Packed payload bytes.
        size: u64,
    },
    /// Rendezvous start (sender → receiver).
    RndvStart {
        /// MPI tag.
        tag: u32,
        /// Message sequence number.
        seq: u64,
        /// Total packed size of the message.
        size: u64,
        /// Scheme the sender proposes (wire code).
        scheme: u8,
        /// Number of segments the sender will use.
        nsegs: u32,
        /// Segment size in bytes.
        seg_size: u64,
        /// Minimum contiguous block size on the sender side (bytes),
        /// input to adaptive selection (§6).
        blk_min: u64,
        /// Median contiguous block size on the sender side (bytes).
        blk_median: u64,
    },
    /// Rendezvous reply (receiver → sender).
    RndvReply {
        /// Sequence number echoed from the start message.
        seq: u64,
        /// Scheme the receiver selected (wire code).
        scheme: u8,
        /// Scheme-specific body.
        body: ReplyBody,
    },
    /// P-RRS: a packed segment is ready to be read (sender → receiver).
    SegReady {
        /// Sequence number.
        seq: u64,
        /// Segment index.
        k: u32,
        /// Address of the packed segment in the sender's memory.
        addr: u64,
        /// rkey covering the segment.
        rkey: u32,
        /// Segment length.
        len: u64,
    },
    /// Transfer finished (direction depends on scheme: P-RRS receiver →
    /// sender; zero-size rendezvous sender → receiver).
    Fin {
        /// Sequence number.
        seq: u64,
    },
    /// Sender's reply-timeout probe: "resend your rendezvous reply for
    /// `seq` if it already went out" (it may have been lost with an
    /// errored queue pair). Receivers still preparing simply ignore it.
    RndvProbe {
        /// Sequence number of the stalled rendezvous.
        seq: u64,
    },
    /// Connection-recovery resume request, sent after a queue pair is
    /// re-established. Sender → receiver: "report how far `seq` got and
    /// resend your reply". Receiver → sender (P-RRS): "re-announce your
    /// packed segments for `seq`".
    RndvResume {
        /// Sequence number of the interrupted rendezvous.
        seq: u64,
    },
    /// Receiver's answer to [`CtrlMsg::RndvResume`]: the contiguous
    /// chunk prefix that already arrived (the sender restarts from this
    /// boundary), or `done` when the transfer had already completed.
    RndvResumeAck {
        /// Sequence number.
        seq: u64,
        /// Segments `0..from_k` arrived and are safe to skip.
        from_k: u32,
        /// True when the receiver completed the transfer before the
        /// connection died; the sender can complete immediately.
        done: bool,
    },
    /// Eager flow-control credit grant (receiver → sender): the
    /// receiver matched this many eager messages from the destination
    /// peer, freeing their credits. Usually piggybacked in front of
    /// another control message in the same eager buffer; travels alone
    /// when a starved sender must be unblocked.
    CreditUpdate {
        /// Credits returned.
        credits: u32,
    },
}

/// Scheme-specific rendezvous reply payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// Generic: one dynamically allocated unpack buffer.
    Buffer {
        /// Buffer address on the receiver.
        addr: u64,
        /// rkey covering it.
        rkey: u32,
    },
    /// BC-SPUP / RWG-UP: one unpack pool buffer per segment.
    Segments {
        /// `(addr, rkey)` per segment, in segment order.
        segs: SegList,
    },
    /// Multi-W: receiver buffer origin, datatype tag (with layout on
    /// cache miss), instance count, and the registered regions.
    MultiW {
        /// Receiver user-buffer address (datatype offset 0).
        base: u64,
        /// Receiver datatype tag (index + version).
        tag: TypeTag,
        /// Instance count on the receiver.
        count: u64,
        /// Flattened layout; `None` when the receiver knows this peer
        /// already caches `(tag.index, tag.version)`.
        layout: Option<FlatLayout>,
        /// Registered regions `(addr, len, rkey)` covering the buffer.
        regions: Vec<(u64, u64, u32)>,
    },
    /// P-RRS: receiver accepts; sender should announce packed segments.
    ReadGo,
    /// Hybrid (§10 future work): Multi-W-style layout information for
    /// the direct part plus unpack segment buffers for the packed part.
    Hybrid {
        /// Receiver user-buffer address (datatype offset 0).
        base: u64,
        /// Receiver datatype tag.
        tag: TypeTag,
        /// Instance count on the receiver.
        count: u64,
        /// Flattened layout; `None` when cached by this sender.
        layout: Option<FlatLayout>,
        /// Registered regions `(addr, len, rkey)`.
        regions: Vec<(u64, u64, u32)>,
        /// Unpack segment buffers `(addr, rkey)` for the packed part.
        segs: SegList,
        /// Block-size threshold the receiver used to partition.
        threshold: u64,
    },
}

const K_EAGER: u8 = 1;
const K_START: u8 = 2;
const K_REPLY: u8 = 3;
const K_SEGREADY: u8 = 4;
const K_FIN: u8 = 5;
const K_PROBE: u8 = 6;
const K_RESUME: u8 = 7;
const K_RESUME_ACK: u8 = 8;
const K_CREDIT: u8 = 9;

const B_BUFFER: u8 = 1;
const B_SEGMENTS: u8 = 2;
const B_MULTIW: u8 = 3;
const B_READGO: u8 = 4;
const B_HYBRID: u8 = 5;

struct W<'a>(&'a mut Vec<u8>);
impl W<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
    fn segs(&mut self, segs: &SegList) {
        self.u32(segs.len() as u32);
        for &(a, k) in segs {
            self.u64(a);
            self.u32(k);
        }
    }
    /// The receiver-layout part Multi-W and Hybrid replies share.
    fn layout_part(
        &mut self,
        base: u64,
        tag: &TypeTag,
        count: u64,
        layout: &Option<FlatLayout>,
        regions: &[(u64, u64, u32)],
    ) {
        self.u64(base);
        self.u32(tag.index);
        self.u32(tag.version);
        self.u64(count);
        match layout {
            Some(l) => self.bytes(&l.encode()),
            None => self.u64(u64::MAX),
        }
        self.u32(regions.len() as u32);
        for &(a, l, k) in regions {
            self.u64(a);
            self.u64(l);
            self.u32(k);
        }
    }
}

/// Decoded [`W::layout_part`]: base, tag, count, layout, regions.
type LayoutPart = (u64, TypeTag, u64, Option<FlatLayout>, Vec<(u64, u64, u32)>);

struct R<'a>(&'a [u8], usize);
impl<'a> R<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.0.get(self.1)?;
        self.1 += 1;
        Some(v)
    }
    fn u32(&mut self) -> Option<u32> {
        let s = self.0.get(self.1..self.1 + 4)?;
        self.1 += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        let s = self.0.get(self.1..self.1 + 8)?;
        self.1 += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u64()? as usize;
        let s = self.0.get(self.1..self.1 + n)?;
        self.1 += n;
        Some(s)
    }
    fn segs(&mut self) -> Option<SegList> {
        let n = self.u32()? as usize;
        let mut segs = SegList::new();
        for _ in 0..n {
            segs.push((self.u64()?, self.u32()?));
        }
        Some(segs)
    }
    fn layout_part(&mut self) -> Option<LayoutPart> {
        let base = self.u64()?;
        let tag = TypeTag {
            index: self.u32()?,
            version: self.u32()?,
        };
        let count = self.u64()?;
        // Peek the length: u64::MAX means "no layout".
        let layout = if R(self.0, self.1).u64()? == u64::MAX {
            self.u64()?;
            None
        } else {
            Some(FlatLayout::decode(self.bytes()?)?)
        };
        let n = self.u32()? as usize;
        let mut regions = Vec::with_capacity(n);
        for _ in 0..n {
            regions.push((self.u64()?, self.u64()?, self.u32()?));
        }
        Some((base, tag, count, layout, regions))
    }
}

impl CtrlMsg {
    /// Serializes the header. For [`CtrlMsg::EagerData`], append the
    /// packed payload to the returned vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Serializes the header by *appending* to `out` — the
    /// allocation-free twin of [`Self::encode`] for callers that keep
    /// a reusable per-rank encode buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = W(out);
        match self {
            CtrlMsg::EagerData { tag, seq, size } => {
                w.u8(K_EAGER);
                w.u32(*tag);
                w.u64(*seq);
                w.u64(*size);
            }
            CtrlMsg::RndvStart {
                tag,
                seq,
                size,
                scheme,
                nsegs,
                seg_size,
                blk_min,
                blk_median,
            } => {
                w.u8(K_START);
                w.u32(*tag);
                w.u64(*seq);
                w.u64(*size);
                w.u8(*scheme);
                w.u32(*nsegs);
                w.u64(*seg_size);
                w.u64(*blk_min);
                w.u64(*blk_median);
            }
            CtrlMsg::RndvReply { seq, scheme, body } => {
                w.u8(K_REPLY);
                w.u64(*seq);
                w.u8(*scheme);
                match body {
                    ReplyBody::Buffer { addr, rkey } => {
                        w.u8(B_BUFFER);
                        w.u64(*addr);
                        w.u32(*rkey);
                    }
                    ReplyBody::Segments { segs } => {
                        w.u8(B_SEGMENTS);
                        w.segs(segs);
                    }
                    ReplyBody::MultiW {
                        base,
                        tag,
                        count,
                        layout,
                        regions,
                    } => {
                        w.u8(B_MULTIW);
                        w.layout_part(*base, tag, *count, layout, regions);
                    }
                    ReplyBody::ReadGo => w.u8(B_READGO),
                    ReplyBody::Hybrid {
                        base,
                        tag,
                        count,
                        layout,
                        regions,
                        segs,
                        threshold,
                    } => {
                        w.u8(B_HYBRID);
                        w.layout_part(*base, tag, *count, layout, regions);
                        w.segs(segs);
                        w.u64(*threshold);
                    }
                }
            }
            CtrlMsg::SegReady {
                seq,
                k,
                addr,
                rkey,
                len,
            } => {
                w.u8(K_SEGREADY);
                w.u64(*seq);
                w.u32(*k);
                w.u64(*addr);
                w.u32(*rkey);
                w.u64(*len);
            }
            CtrlMsg::Fin { seq } => {
                w.u8(K_FIN);
                w.u64(*seq);
            }
            CtrlMsg::RndvProbe { seq } => {
                w.u8(K_PROBE);
                w.u64(*seq);
            }
            CtrlMsg::RndvResume { seq } => {
                w.u8(K_RESUME);
                w.u64(*seq);
            }
            CtrlMsg::RndvResumeAck { seq, from_k, done } => {
                w.u8(K_RESUME_ACK);
                w.u64(*seq);
                w.u32(*from_k);
                w.u8(u8::from(*done));
            }
            CtrlMsg::CreditUpdate { credits } => {
                w.u8(K_CREDIT);
                w.u32(*credits);
            }
        }
    }

    /// Parses a header, returning the message and the header length
    /// (payload, if any, starts there).
    pub fn decode(buf: &[u8]) -> Option<(CtrlMsg, usize)> {
        let mut r = R(buf, 0);
        let msg = match r.u8()? {
            K_EAGER => CtrlMsg::EagerData {
                tag: r.u32()?,
                seq: r.u64()?,
                size: r.u64()?,
            },
            K_START => CtrlMsg::RndvStart {
                tag: r.u32()?,
                seq: r.u64()?,
                size: r.u64()?,
                scheme: r.u8()?,
                nsegs: r.u32()?,
                seg_size: r.u64()?,
                blk_min: r.u64()?,
                blk_median: r.u64()?,
            },
            K_REPLY => {
                let seq = r.u64()?;
                let scheme = r.u8()?;
                let body = match r.u8()? {
                    B_BUFFER => ReplyBody::Buffer {
                        addr: r.u64()?,
                        rkey: r.u32()?,
                    },
                    B_SEGMENTS => ReplyBody::Segments { segs: r.segs()? },
                    B_MULTIW => {
                        let (base, tag, count, layout, regions) = r.layout_part()?;
                        ReplyBody::MultiW {
                            base,
                            tag,
                            count,
                            layout,
                            regions,
                        }
                    }
                    B_READGO => ReplyBody::ReadGo,
                    B_HYBRID => {
                        let (base, tag, count, layout, regions) = r.layout_part()?;
                        ReplyBody::Hybrid {
                            base,
                            tag,
                            count,
                            layout,
                            regions,
                            segs: r.segs()?,
                            threshold: r.u64()?,
                        }
                    }
                    _ => return None,
                };
                CtrlMsg::RndvReply { seq, scheme, body }
            }
            K_SEGREADY => CtrlMsg::SegReady {
                seq: r.u64()?,
                k: r.u32()?,
                addr: r.u64()?,
                rkey: r.u32()?,
                len: r.u64()?,
            },
            K_FIN => CtrlMsg::Fin { seq: r.u64()? },
            K_PROBE => CtrlMsg::RndvProbe { seq: r.u64()? },
            K_RESUME => CtrlMsg::RndvResume { seq: r.u64()? },
            K_RESUME_ACK => CtrlMsg::RndvResumeAck {
                seq: r.u64()?,
                from_k: r.u32()?,
                done: r.u8()? != 0,
            },
            K_CREDIT => CtrlMsg::CreditUpdate { credits: r.u32()? },
            _ => return None,
        };
        Some((msg, r.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibdt_datatype::Datatype;

    fn roundtrip(m: CtrlMsg) {
        let enc = m.encode();
        let (dec, used) = CtrlMsg::decode(&enc).unwrap();
        assert_eq!(dec, m);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn eager_roundtrip() {
        roundtrip(CtrlMsg::EagerData {
            tag: 7,
            seq: 123,
            size: 512,
        });
    }

    #[test]
    fn eager_payload_offset() {
        let m = CtrlMsg::EagerData {
            tag: 1,
            seq: 2,
            size: 3,
        };
        let mut enc = m.encode();
        let hdr = enc.len();
        enc.extend_from_slice(&[9, 9, 9]);
        let (_, used) = CtrlMsg::decode(&enc).unwrap();
        assert_eq!(used, hdr);
        assert_eq!(&enc[used..], &[9, 9, 9]);
    }

    #[test]
    fn start_roundtrip() {
        roundtrip(CtrlMsg::RndvStart {
            tag: 99,
            seq: 1,
            size: 1 << 20,
            scheme: 2,
            nsegs: 8,
            seg_size: 128 * 1024,
            blk_min: 16,
            blk_median: 2048,
        });
    }

    #[test]
    fn reply_buffer_roundtrip() {
        roundtrip(CtrlMsg::RndvReply {
            seq: 5,
            scheme: 0,
            body: ReplyBody::Buffer {
                addr: 0xABCD,
                rkey: 42,
            },
        });
    }

    #[test]
    fn reply_segments_roundtrip() {
        roundtrip(CtrlMsg::RndvReply {
            seq: 6,
            scheme: 1,
            body: ReplyBody::Segments {
                segs: vec![(0x1000, 1), (0x2000, 2), (0x3000, 3)].into(),
            },
        });
    }

    #[test]
    fn reply_multiw_with_layout() {
        let t = Datatype::vector(4, 2, 8, &Datatype::int()).unwrap();
        roundtrip(CtrlMsg::RndvReply {
            seq: 9,
            scheme: 4,
            body: ReplyBody::MultiW {
                base: 0x40000,
                tag: TypeTag {
                    index: 3,
                    version: 2,
                },
                count: 5,
                layout: Some(t.flat().as_ref().clone()),
                regions: vec![(0x40000, 4096, 77)],
            },
        });
    }

    #[test]
    fn reply_multiw_cached_layout() {
        roundtrip(CtrlMsg::RndvReply {
            seq: 9,
            scheme: 4,
            body: ReplyBody::MultiW {
                base: 0x40000,
                tag: TypeTag {
                    index: 3,
                    version: 2,
                },
                count: 1,
                layout: None,
                regions: vec![(0x40000, 4096, 77), (0x80000, 64, 78)],
            },
        });
    }

    #[test]
    fn readgo_and_segready_and_fin() {
        roundtrip(CtrlMsg::RndvReply {
            seq: 1,
            scheme: 3,
            body: ReplyBody::ReadGo,
        });
        roundtrip(CtrlMsg::SegReady {
            seq: 2,
            k: 4,
            addr: 0x99,
            rkey: 1,
            len: 65536,
        });
        roundtrip(CtrlMsg::Fin { seq: 3 });
        roundtrip(CtrlMsg::RndvProbe { seq: 77 });
        roundtrip(CtrlMsg::RndvResume { seq: 78 });
        roundtrip(CtrlMsg::RndvResumeAck {
            seq: 79,
            from_k: 3,
            done: false,
        });
        roundtrip(CtrlMsg::RndvResumeAck {
            seq: 80,
            from_k: 0,
            done: true,
        });
    }

    #[test]
    fn reply_hybrid_roundtrip() {
        let t = Datatype::vector(4, 2, 8, &Datatype::int()).unwrap();
        roundtrip(CtrlMsg::RndvReply {
            seq: 11,
            scheme: 6,
            body: ReplyBody::Hybrid {
                base: 0x9000,
                tag: TypeTag {
                    index: 1,
                    version: 3,
                },
                count: 2,
                layout: Some(t.flat().as_ref().clone()),
                regions: vec![(0x9000, 8192, 5)],
                segs: vec![(0x20000, 9), (0x40000, 9)].into(),
                threshold: 1024,
            },
        });
        roundtrip(CtrlMsg::RndvReply {
            seq: 12,
            scheme: 6,
            body: ReplyBody::Hybrid {
                base: 0x9000,
                tag: TypeTag {
                    index: 1,
                    version: 3,
                },
                count: 2,
                layout: None,
                regions: vec![],
                segs: SegList::new(),
                threshold: 512,
            },
        });
    }

    #[test]
    fn credit_update_roundtrip() {
        roundtrip(CtrlMsg::CreditUpdate { credits: 17 });
    }

    #[test]
    fn credit_update_piggybacks_before_eager() {
        // The flow-control path prepends a grant in front of the real
        // message inside one eager buffer; both decode in sequence.
        let mut buf = CtrlMsg::CreditUpdate { credits: 3 }.encode();
        let eager = CtrlMsg::EagerData {
            tag: 1,
            seq: 2,
            size: 2,
        };
        eager.encode_into(&mut buf);
        buf.extend_from_slice(&[7, 7]);
        let (first, used) = CtrlMsg::decode(&buf).unwrap();
        assert_eq!(first, CtrlMsg::CreditUpdate { credits: 3 });
        let (second, used2) = CtrlMsg::decode(&buf[used..]).unwrap();
        assert_eq!(second, eager);
        assert_eq!(&buf[used + used2..], &[7, 7]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CtrlMsg::decode(&[]).is_none());
        assert!(CtrlMsg::decode(&[0xFF, 1, 2]).is_none());
        let enc = CtrlMsg::Fin { seq: 1 }.encode();
        assert!(CtrlMsg::decode(&enc[..enc.len() - 1]).is_none());
    }
}
