//! Wire framing for live transports.
//!
//! One frame = one [`Segment`] plus the path index it rides on. The
//! layout is a hand-rolled little-endian binary format (the vendored
//! serde stand-ins are for JSON tooling, not datagrams): a fixed header,
//! optional fields gated by a presence byte, then zero padding out to the
//! segment's modeled [`Segment::wire_bytes`] size. The padding matters:
//! the simulator charges links for realistic Ethernet/IP/TCP(+options)
//! byte counts, and padding the UDP datagram to the same size means live
//! goodput over a real NIC is directly comparable to simulated goodput.
//!
//! SACK blocks travel as absolute `u64` pairs, but a [`Segment`] holds
//! them as `u32` offsets from its cumulative ack, so a block starting
//! below the ack, ending before it starts, or ending more than 4 GiB above
//! the ack cannot be held: the frame is rejected as
//! [`CodecError::BadSack`]. The stacks never send one; only a peer
//! sending beyond any window could make one. Nor can a segment whose
//! sequence range runs past `u64::MAX` (`seq` plus its payload, SYN and
//! FIN): that frame is [`CodecError::SeqOverflow`].
//!
//! Every frame the duplex transport carries round-trips through
//! [`encode_frame`]/[`decode_frame`], so the parity harness certifies the
//! codec as a side effect: a single mis-encoded field would desynchronize
//! the two backends' decision logs immediately.

use emptcp_sim::SimTime;
use emptcp_tcp::segment::MAX_SACK_BLOCKS;
use emptcp_tcp::{Dss, SegFlags, Segment};

/// Frame magic: "eM" little-endian, versioned separately.
const MAGIC: u16 = 0x4d65;
/// Bump when the layout changes; decoders reject mismatches.
const VERSION: u8 = 1;

/// Presence/flag bits packed into one byte.
const F_SYN: u16 = 1 << 0;
const F_ACK: u16 = 1 << 1;
const F_FIN: u16 = 1 << 2;
const F_TS_ECR: u16 = 1 << 3;
const F_DSS: u16 = 1 << 4;
const F_MP_PRIO: u16 = 1 << 5;
const F_MP_PRIO_BACKUP: u16 = 1 << 6;
const F_RETRANSMIT: u16 = 1 << 7;
/// SACK block count occupies two bits above the flag byte.
const SACK_SHIFT: u16 = 8;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Shorter than the fixed header, or an optional field ran off the end.
    Truncated,
    /// Magic bytes wrong — not one of our frames.
    BadMagic,
    /// Frame from an incompatible codec version.
    BadVersion(u8),
    /// A SACK block a [`Segment`] cannot hold: it starts below the ack,
    /// ends before it starts, or ends more than 4 GiB above the ack.
    BadSack,
    /// The segment's sequence range runs past `u64::MAX`.
    SeqOverflow,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            CodecError::BadSack => write!(f, "SACK block out of range of the ack"),
            CodecError::SeqOverflow => write!(f, "sequence range past u64::MAX"),
        }
    }
}

impl std::error::Error for CodecError {}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

/// Encode `seg` riding on `path` into one datagram-sized frame, padded
/// with zeros to at least the segment's modeled wire size.
pub fn encode_frame(path: u8, seg: &Segment) -> Vec<u8> {
    let mut out = Vec::with_capacity(seg.wire_bytes() as usize + 32);
    encode_frame_into(path, seg, &mut out);
    out
}

/// [`encode_frame`] into a caller-owned buffer (cleared first), so a
/// transport that sends at once can reuse one allocation for every frame.
pub fn encode_frame_into(path: u8, seg: &Segment, out: &mut Vec<u8>) {
    out.clear();
    put_u16(out, MAGIC);
    out.push(VERSION);
    out.push(path);
    let mut flags: u16 = 0;
    if seg.flags.syn {
        flags |= F_SYN;
    }
    if seg.flags.ack {
        flags |= F_ACK;
    }
    if seg.flags.fin {
        flags |= F_FIN;
    }
    if seg.ts_ecr.is_some() {
        flags |= F_TS_ECR;
    }
    if seg.dss.is_some() {
        flags |= F_DSS;
    }
    match seg.mp_prio {
        Some(true) => flags |= F_MP_PRIO | F_MP_PRIO_BACKUP,
        Some(false) => flags |= F_MP_PRIO,
        None => {}
    }
    if seg.retransmit {
        flags |= F_RETRANSMIT;
    }
    let sack_blocks = seg.sack_blocks().count() as u16;
    flags |= sack_blocks << SACK_SHIFT;
    put_u16(out, flags);
    put_u64(out, seg.seq);
    put_u32(out, seg.payload);
    put_u64(out, seg.ack);
    put_u64(out, seg.rwnd);
    put_u64(out, seg.ts_val.as_nanos());
    if let Some(ecr) = seg.ts_ecr {
        put_u64(out, ecr.as_nanos());
    }
    if let Some(dss) = seg.dss {
        put_u64(out, dss.data_seq);
        put_u32(out, dss.len);
        put_u64(out, dss.data_ack);
    }
    for (start, end) in seg.sack_blocks() {
        put_u64(out, start);
        put_u64(out, end);
    }
    // Pad out to the modeled on-the-wire size so a live datagram costs
    // the network what the simulator charged its links. Headers larger
    // than the modeled size (possible for option-dense pure ACKs) are
    // left as-is.
    let wire = seg.wire_bytes() as usize;
    if out.len() < wire {
        out.resize(wire, 0);
    }
}

/// Decode one frame back into `(path, segment)`. Trailing padding is
/// ignored; anything structurally wrong is an error, not a panic — a UDP
/// socket is a public interface.
pub fn decode_frame(frame: &[u8]) -> Result<(u8, Segment), CodecError> {
    let mut r = Reader { buf: frame, at: 0 };
    if r.u16()? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let path = r.u8()?;
    let flags = r.u16()?;
    let mut seg = Segment::empty(SimTime::ZERO);
    seg.flags = SegFlags {
        syn: flags & F_SYN != 0,
        ack: flags & F_ACK != 0,
        fin: flags & F_FIN != 0,
    };
    seg.retransmit = flags & F_RETRANSMIT != 0;
    seg.seq = r.u64()?;
    seg.payload = r.u32()?;
    seg.ack = r.u64()?;
    seg.rwnd = r.u64()?;
    seg.ts_val = SimTime::from_nanos(r.u64()?);
    if flags & F_TS_ECR != 0 {
        seg.ts_ecr = Some(SimTime::from_nanos(r.u64()?));
    }
    if flags & F_DSS != 0 {
        seg.dss = Some(Dss {
            data_seq: r.u64()?,
            len: r.u32()?,
            data_ack: r.u64()?,
        });
    }
    if flags & F_MP_PRIO != 0 {
        seg.mp_prio = Some(flags & F_MP_PRIO_BACKUP != 0);
    }
    let sack_blocks = ((flags >> SACK_SHIFT) & 0b11) as usize;
    for _ in 0..sack_blocks.min(MAX_SACK_BLOCKS) {
        let (start, end) = (r.u64()?, r.u64()?);
        if !seg.push_sack(start, end) {
            return Err(CodecError::BadSack);
        }
    }
    if seg.seq.checked_add(seg.seq_space()).is_none() {
        return Err(CodecError::SeqOverflow);
    }
    Ok((path, seg))
}

/// A frame whose one SACK block says `[start, end)` against an ack of
/// `ack`, written past [`Segment::push_sack`], which refuses to hold a
/// block out of range.
#[cfg(test)]
pub(crate) fn frame_with_sack(ack: u64, start: u64, end: u64) -> Vec<u8> {
    let mut seg = Segment::empty(SimTime::ZERO);
    seg.flags.ack = true;
    seg.ack = ack;
    assert!(seg.push_sack(ack, ack));
    let mut frame = encode_frame(0, &seg);
    // The block follows the 42-byte fixed header: no TSecr or DSS here.
    frame[42..50].copy_from_slice(&start.to_le_bytes());
    frame[50..58].copy_from_slice(&end.to_le_bytes());
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimRng;

    fn arbitrary_segment(rng: &mut SimRng) -> Segment {
        let mut seg = Segment::empty(SimTime::from_nanos(rng.below(1 << 40)));
        seg.seq = rng.next_u64() >> 20;
        seg.payload = rng.below(1500) as u32;
        seg.ack = rng.next_u64() >> 20;
        seg.flags = SegFlags {
            syn: rng.chance(0.2),
            ack: rng.chance(0.8),
            fin: rng.chance(0.1),
        };
        seg.rwnd = rng.below(1 << 30);
        if rng.chance(0.7) {
            seg.ts_ecr = Some(SimTime::from_nanos(rng.below(1 << 40)));
        }
        if rng.chance(0.5) {
            seg.dss = Some(Dss {
                data_seq: rng.next_u64() >> 20,
                len: seg.payload,
                data_ack: rng.next_u64() >> 20,
            });
        }
        if rng.chance(0.3) {
            seg.mp_prio = Some(rng.chance(0.5));
        }
        let blocks = rng.below(MAX_SACK_BLOCKS as u64 + 1) as usize;
        for _ in 0..blocks {
            let s = seg.ack + rng.below(1 << 30);
            assert!(seg.push_sack(s, s + 1 + rng.below(1 << 16)));
        }
        seg.retransmit = rng.chance(0.2);
        seg
    }

    #[test]
    fn round_trips_exactly() {
        let mut rng = SimRng::new(0xC0DEC);
        for i in 0..2000 {
            let seg = arbitrary_segment(&mut rng);
            let path = (i % 3) as u8;
            let frame = encode_frame(path, &seg);
            let (p, got) = decode_frame(&frame).expect("decodes");
            assert_eq!(p, path);
            assert_eq!(got, seg, "iteration {i}");
        }
    }

    #[test]
    fn a_reused_buffer_encodes_what_a_fresh_one_does() {
        let mut rng = SimRng::new(0xB0FF);
        let mut buf = vec![0xEE; 4096]; // stale contents must not leak
        for i in 0..500 {
            let seg = arbitrary_segment(&mut rng);
            encode_frame_into((i % 3) as u8, &seg, &mut buf);
            assert_eq!(buf, encode_frame((i % 3) as u8, &seg), "iteration {i}");
        }
    }

    #[test]
    fn frames_carry_modeled_wire_size() {
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.payload = 1428;
        seg.dss = Some(Dss {
            data_seq: 0,
            len: 1428,
            data_ack: 0,
        });
        let frame = encode_frame(0, &seg);
        assert!(frame.len() as u64 >= seg.wire_bytes());
    }

    #[test]
    fn a_sack_block_a_segment_cannot_hold_is_rejected() {
        let ack = 1 << 40;
        // The edges of what a segment holds still decode.
        for (start, end) in [(ack, ack), (ack, ack + u32::MAX as u64)] {
            let (_, seg) = decode_frame(&frame_with_sack(ack, start, end)).expect("decodes");
            assert_eq!(seg.sack_blocks().collect::<Vec<_>>(), [(start, end)]);
        }
        for (what, start, end) in [
            ("starts below the ack", ack - 1, ack + 10),
            ("ends before it starts", ack + 10, ack + 9),
            ("ends more than 4 GiB above the ack", ack, ack + (1 << 32)),
        ] {
            assert_eq!(
                decode_frame(&frame_with_sack(ack, start, end)),
                Err(CodecError::BadSack),
                "{what}"
            );
        }
    }

    #[test]
    fn a_sequence_range_past_the_top_of_the_space_is_rejected() {
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.seq = u64::MAX - 100;
        seg.payload = 100;
        // Ending exactly at `u64::MAX` still decodes.
        assert_eq!(decode_frame(&encode_frame(0, &seg)), Ok((0, seg)));
        for (what, payload, fin) in [("payload", 101, false), ("FIN", 100, true)] {
            seg.payload = payload;
            seg.flags.fin = fin;
            assert_eq!(
                decode_frame(&encode_frame(0, &seg)),
                Err(CodecError::SeqOverflow),
                "{what}"
            );
        }
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        assert_eq!(decode_frame(&[]), Err(CodecError::Truncated));
        assert_eq!(decode_frame(&[0xff; 64]).unwrap_err(), CodecError::BadMagic);
        let mut frame = encode_frame(0, &Segment::empty(SimTime::ZERO));
        frame[2] = 99;
        assert_eq!(decode_frame(&frame), Err(CodecError::BadVersion(99)));
        // Truncation mid-header.
        let frame = encode_frame(1, &Segment::empty(SimTime::ZERO));
        for cut in 0..16 {
            assert!(decode_frame(&frame[..cut]).is_err());
        }
    }
}
