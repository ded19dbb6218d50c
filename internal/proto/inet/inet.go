// Package inet holds the small pieces every networking router shares:
// IPv4-style addresses, the participants attribute value (§4.1's
// PA_NET_PARTICIPANTS), protocol numbers, and the Internet checksum.
package inet

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"scout/internal/attr"
)

// Addr is an IPv4 address.
type Addr [4]byte

// IP builds an address from four octets.
func IP(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

func (a Addr) String() string { return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]) }

// Uint32 returns the address in host integer form.
func (a Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// AddrFromUint32 converts back from integer form.
func AddrFromUint32(v uint32) Addr {
	var a Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// SameSubnet reports whether a and b share the network selected by mask —
// the IP-local knowledge the paper uses as its path-creation example (§2.2:
// "if IP can determine that the remote host is on the same Ethernet").
func SameSubnet(a, b, mask Addr) bool {
	for i := range a {
		if a[i]&mask[i] != b[i]&mask[i] {
			return false
		}
	}
	return true
}

// Participants is the value of the PA_NET_PARTICIPANTS attribute: the
// network address of the remote process a path talks to.
type Participants struct {
	RemoteAddr Addr
	RemotePort uint16
}

func (p Participants) String() string {
	return fmt.Sprintf("%s:%d", p.RemoteAddr, p.RemotePort)
}

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Ethernet types (also carried in PA_PROTID when IP hands path creation to
// ETH, mirroring the paper's "reset by each networking router" behaviour).
const (
	EtherTypeIP  = 0x0800
	EtherTypeARP = 0x0806
)

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 {
	return ^Fold(Sum(0, b))
}

// ChecksumPseudo computes the checksum of payload prefixed by the UDP/TCP
// pseudo-header. The one's-complement sum is commutative and associative, so
// the pseudo-header words are folded in directly instead of materializing a
// prefixed copy of the payload — this runs once per checksummed packet on
// the data path and must not allocate.
func ChecksumPseudo(src, dst Addr, proto uint8, payload []byte) uint16 {
	return ^Fold(Sum(PseudoSum(src, dst, proto, len(payload)), payload))
}

// PseudoSum is the one's-complement sum of the UDP/TCP pseudo-header for a
// segment of length bytes: the accumulator to hand Sum.
func PseudoSum(src, dst Addr, proto uint8, length int) uint64 {
	acc := uint64(src[0])<<8 | uint64(src[1])
	acc += uint64(src[2])<<8 | uint64(src[3])
	acc += uint64(dst[0])<<8 | uint64(dst[1])
	acc += uint64(dst[2])<<8 | uint64(dst[3])
	acc += uint64(proto) // zero byte then proto, as on the wire
	return acc + uint64(uint16(length))
}

// Sum, Fold and SwapSum are the pieces a checksum is composed from when its
// bytes are not summed in one pass: ^Fold(Sum(Sum(acc, head), tail)) is the
// checksum of head‖tail when len(head) is even, and a part's folded sum can
// be kept and added into a later accumulator (a uint16 widened to uint64)
// instead of re-reading its bytes. A part that starts at an odd offset of the
// whole has its bytes in the opposite halves of their words: SwapSum of its
// sum is its contribution (RFC 1071 §2(B)).
//
// Sum adds the 16-bit big-endian words of b (an odd last byte padded with a
// zero) to the one's-complement accumulator acc, 32 bytes per step. Since
// 2^16 ≡ 1 (mod 2^16−1), a 32-bit load is two words whose sum survives
// folding, and the sum of b's words taken little-endian is the byte swap of
// their big-endian sum (RFC 1071 §2(B)). So Sum adds little-endian 32-bit
// loads into four independent 64-bit accumulators with no carry chain
// between them (RFC 1071 §2(C)), folds their total once, and swaps the bytes
// of that (SwapSum). There is one load per 4 bytes and each is below 2^32, so
// the total cannot overflow before b is 16 GiB long. The result folds to 0
// exactly when acc and every byte of b are 0.
func Sum(acc uint64, b []byte) uint64 {
	var s0, s1, s2, s3 uint64
	for len(b) >= 32 {
		s0 += uint64(binary.LittleEndian.Uint32(b[0:4])) + uint64(binary.LittleEndian.Uint32(b[16:20]))
		s1 += uint64(binary.LittleEndian.Uint32(b[4:8])) + uint64(binary.LittleEndian.Uint32(b[20:24]))
		s2 += uint64(binary.LittleEndian.Uint32(b[8:12])) + uint64(binary.LittleEndian.Uint32(b[24:28]))
		s3 += uint64(binary.LittleEndian.Uint32(b[12:16])) + uint64(binary.LittleEndian.Uint32(b[28:32]))
		b = b[32:]
	}
	if len(b) >= 16 {
		s0 += uint64(binary.LittleEndian.Uint32(b[0:4]))
		s1 += uint64(binary.LittleEndian.Uint32(b[4:8]))
		s2 += uint64(binary.LittleEndian.Uint32(b[8:12]))
		s3 += uint64(binary.LittleEndian.Uint32(b[12:16]))
		b = b[16:]
	}
	if len(b) >= 8 {
		s0 += uint64(binary.LittleEndian.Uint32(b[0:4]))
		s1 += uint64(binary.LittleEndian.Uint32(b[4:8]))
		b = b[8:]
	}
	if len(b) >= 4 {
		s2 += uint64(binary.LittleEndian.Uint32(b[0:4]))
		b = b[4:]
	}
	if len(b) >= 2 {
		s3 += uint64(binary.LittleEndian.Uint16(b[0:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		s0 += uint64(b[0]) // the high byte of a big-endian word: the low one here
	}
	acc, carry := bits.Add64(acc, uint64(SwapSum(Fold(s0+s1+s2+s3))), 0)
	return acc + carry
}

// Fold reduces a one's-complement accumulator to 16 bits; the checksum is
// its complement.
func Fold(acc uint64) uint16 {
	acc = acc>>48 + acc>>32&0xffff + acc>>16&0xffff + acc&0xffff
	for acc>>16 != 0 {
		acc = acc>>16 + acc&0xffff
	}
	return uint16(acc)
}

// SwapSum moves a folded sum to the other byte parity.
func SwapSum(s uint16) uint16 { return bits.ReverseBytes16(s) }

// Attribute names used by the networking routers beyond the paper-named
// ones; declared in the central vocabulary (package attr) and re-exported
// here for doc locality.
const (
	// AttrEthDst carries the resolved destination MAC as a path
	// attribute; IP's stage sets it once ARP answers, ETH's stage reads
	// it per frame. Value: netdev.MAC.
	AttrEthDst = attr.EthDst
	// AttrLocalPort requests a specific local UDP/TCP port. Value: int.
	AttrLocalPort = attr.LocalPort
)
