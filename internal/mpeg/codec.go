// Package mpeg implements the MPEG-style video codec the demonstration
// application of §4 decodes: 16×16 macroblocks of 8×8 DCT blocks, 4:2:0
// chroma, quantisation with the MPEG-1 intra matrix, zigzag run-level
// entropy coding, and I/P group-of-pictures with motion compensation.
//
// Substitutions relative to MPEG-1 proper (recorded in DESIGN.md): run-level
// pairs are coded with Elias-gamma codes instead of the MPEG-1 Huffman
// tables, and B-frames are omitted. Neither changes what the paper's
// experiments need from the codec: a computationally expensive decoder whose
// per-frame cost correlates with the encoded frame size (§4.4) and whose
// output is produced in ALF units — packets carrying an integral number of
// macroblocks (§4.1).
package mpeg

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FrameKind distinguishes intra and predicted frames.
type FrameKind byte

const (
	FrameI FrameKind = 'I'
	FrameP FrameKind = 'P'
)

// intraMatrix is the MPEG-1 default intra quantiser matrix.
var intraMatrix = [64]int32{
	8, 16, 19, 22, 26, 27, 29, 34,
	16, 16, 22, 24, 27, 29, 34, 37,
	19, 22, 26, 27, 29, 34, 34, 38,
	22, 22, 26, 27, 29, 34, 37, 40,
	22, 26, 27, 29, 32, 35, 40, 48,
	26, 27, 29, 32, 35, 40, 48, 58,
	26, 27, 29, 34, 38, 46, 56, 69,
	27, 29, 35, 38, 46, 56, 69, 83,
}

// zigzag is the coefficient scan order.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// quantize maps coefficients to levels. Intra blocks use the MPEG-1 intra
// matrix with rounding; inter blocks use the flat matrix with a dead zone
// (truncation toward zero), which is what keeps P-frames from wasting bits
// re-coding the reference frame's quantisation noise — exactly as MPEG-1
// specifies.
func quantize(coef *[64]int32, out *[64]int32, qscale int32, intra bool) {
	for i := 0; i < 64; i++ {
		c := coef[i] * 8
		if intra {
			d := qscale * intraMatrix[i]
			if c >= 0 {
				out[i] = (c + d/2) / d
			} else {
				out[i] = -((-c + d/2) / d)
			}
		} else {
			d := qscale * 16
			if c >= 0 {
				out[i] = c / d
			} else {
				out[i] = -(-c / d)
			}
		}
	}
}

func dequantize(lvl *[64]int32, out *[64]int32, qscale int32, intra bool) {
	for i := 0; i < 64; i++ {
		if intra {
			out[i] = lvl[i] * qscale * intraMatrix[i] / 8
			continue
		}
		d := qscale * 16
		switch {
		case lvl[i] > 0:
			// Reconstruct at the middle of the dead-zone bin.
			out[i] = (lvl[i]*d + d/2) / 8
		case lvl[i] < 0:
			out[i] = -((-lvl[i]*d + d/2) / 8)
		default:
			out[i] = 0
		}
	}
}

// encodeBlock writes the quantised levels of one block as (run, level)
// pairs in zigzag order, terminated by an end-of-block code.
func encodeBlock(w *BitWriter, lvl *[64]int32) {
	run := uint32(0)
	for _, zi := range zigzag {
		v := lvl[zi]
		if v == 0 {
			run++
			continue
		}
		w.WriteGamma(run + 1)
		w.WriteSGamma(v)
		run = 0
	}
	w.WriteGamma(1) // run code 1 followed by level 0 = EOB
	w.WriteSGamma(0)
}

// decodeBlock reads levels back into natural order.
func decodeBlock(r *BitReader, lvl *[64]int32) error {
	*lvl = [64]int32{}
	pos := 0
	for {
		run, err := r.ReadGamma()
		if err != nil {
			return err
		}
		v, err := r.ReadSGamma()
		if err != nil {
			return err
		}
		if v == 0 {
			if run != 1 {
				return ErrBitstream
			}
			return nil // EOB
		}
		pos += int(run) - 1
		if pos >= 64 {
			return ErrBitstream
		}
		lvl[zigzag[pos]] = v
		pos++
	}
}

// plane helpers ------------------------------------------------------------

// getBlock copies an 8×8 block at (x,y) of plane (stride w) into blk.
func getBlock(plane []byte, w, x, y int, blk *[64]int32) {
	for r := 0; r < 8; r++ {
		off := (y+r)*w + x
		for c := 0; c < 8; c++ {
			blk[r*8+c] = int32(plane[off+c])
		}
	}
}

// putBlock writes blk into the plane with clamping.
func putBlock(plane []byte, w, x, y int, blk *[64]int32) {
	for r := 0; r < 8; r++ {
		off := (y+r)*w + x
		for c := 0; c < 8; c++ {
			plane[off+c] = clampByte(blk[r*8+c])
		}
	}
}

// getBlockDiff loads cur−pred for an 8×8 block, with pred offset by (dx,dy).
func getBlockDiff(cur, pred []byte, w, h, x, y, dx, dy int, blk *[64]int32) {
	for r := 0; r < 8; r++ {
		co := (y+r)*w + x
		for c := 0; c < 8; c++ {
			px, py := clampi(x+c+dx, 0, w-1), clampi(y+r+dy, 0, h-1)
			blk[r*8+c] = int32(cur[co+c]) - int32(pred[py*w+px])
		}
	}
}

// putBlockAdd writes pred+residual into the plane.
func putBlockAdd(dst, pred []byte, w, h, x, y, dx, dy int, blk *[64]int32) {
	for r := 0; r < 8; r++ {
		do := (y+r)*w + x
		for c := 0; c < 8; c++ {
			px, py := clampi(x+c+dx, 0, w-1), clampi(y+r+dy, 0, h-1)
			dst[do+c] = clampByte(int32(pred[py*w+px]) + blk[r*8+c])
		}
	}
}

func clampi(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Packet is one ALF unit: an integral number of macroblocks of one frame,
// independently decodable given the decoder's reference frame. The MPEG
// source sends these in Ethernet-MTU-sized network packets (§4.1).
type Packet struct {
	FrameNo  uint32
	Kind     FrameKind
	QScale   uint8
	MBW, MBH uint8 // frame dimensions in macroblocks
	MBStart  uint16
	MBCount  uint16
	TotalMB  uint16
	Data     []byte // entropy-coded macroblocks
}

// PacketHeaderLen is the size of the marshalled ALF packet header.
const PacketHeaderLen = 15

// Marshal serializes the packet.
func (p *Packet) Marshal() []byte {
	b := make([]byte, PacketHeaderLen+len(p.Data))
	p.PutHeader(b)
	copy(b[PacketHeaderLen:], p.Data)
	return b
}

// PutHeader writes the packet header into b[:PacketHeaderLen].
func (p *Packet) PutHeader(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], p.FrameNo)
	b[4] = byte(p.Kind)
	b[5] = p.QScale
	b[6], b[7] = p.MBW, p.MBH
	binary.BigEndian.PutUint16(b[8:10], p.MBStart)
	binary.BigEndian.PutUint16(b[10:12], p.MBCount)
	binary.BigEndian.PutUint16(b[12:14], p.TotalMB)
	b[14] = 0 // reserved
}

// ParsePacket deserializes a packet; Data aliases b.
func ParsePacket(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := ParsePacketInto(b, p); err != nil {
		return nil, err
	}
	return p, nil
}

// ParsePacketInto deserializes a packet into caller-owned storage (Data
// aliases b): the per-packet receive path reuses one scratch Packet per
// stage instead of allocating. Validation is identical to ParsePacket.
func ParsePacketInto(b []byte, p *Packet) error {
	if len(b) < PacketHeaderLen {
		return errors.New("mpeg: short packet")
	}
	*p = Packet{
		FrameNo: binary.BigEndian.Uint32(b[0:4]),
		Kind:    FrameKind(b[4]),
		QScale:  b[5],
		MBW:     b[6],
		MBH:     b[7],
		MBStart: binary.BigEndian.Uint16(b[8:10]),
		MBCount: binary.BigEndian.Uint16(b[10:12]),
		TotalMB: binary.BigEndian.Uint16(b[12:14]),
		Data:    b[PacketHeaderLen:],
	}
	if p.Kind != FrameI && p.Kind != FrameP {
		return fmt.Errorf("mpeg: bad frame kind %q", p.Kind)
	}
	if p.QScale == 0 || p.MBW == 0 || p.MBH == 0 {
		return errors.New("mpeg: bad packet header")
	}
	if int(p.MBStart)+int(p.MBCount) > int(p.TotalMB) {
		return errors.New("mpeg: packet exceeds frame")
	}
	return nil
}
