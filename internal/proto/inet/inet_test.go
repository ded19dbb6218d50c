package inet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestAddrString(t *testing.T) {
	if got := IP(10, 0, 0, 1).String(); got != "10.0.0.1" {
		t.Fatalf("String = %q", got)
	}
}

func TestAddrUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return AddrFromUint32(v).Uint32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSameSubnet(t *testing.T) {
	mask := IP(255, 255, 255, 0)
	if !SameSubnet(IP(10, 0, 0, 1), IP(10, 0, 0, 200), mask) {
		t.Fatal("same /24 not detected")
	}
	if SameSubnet(IP(10, 0, 0, 1), IP(10, 0, 1, 1), mask) {
		t.Fatal("different /24 matched")
	}
	if !SameSubnet(IP(10, 0, 0, 1), IP(10, 77, 3, 9), IP(255, 0, 0, 0)) {
		t.Fatal("same /8 not detected")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: the checksum of this sequence is 0xddf2 before
	// complement... use the self-verification property instead: appending
	// the checksum makes the total sum verify to 0.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	ck := Checksum(data)
	withCk := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
	if Checksum(withCk) != 0 {
		t.Fatalf("checksum does not self-verify: %#04x", Checksum(withCk))
	}
}

func TestChecksumOddLength(t *testing.T) {
	data := []byte{0xab, 0xcd, 0xef}
	ck := Checksum(data)
	withCk := append(append([]byte(nil), data...), 0x00) // pad to even
	_ = withCk
	// Verify oddness handled: manual sum 0xabcd + 0xef00 = 0x19acd ->
	// 0x9acd + 1 = 0x9ace -> ^0x9ace.
	if ck != ^uint16(0x9ace) {
		t.Fatalf("odd checksum = %#04x", ck)
	}
}

func TestChecksumPseudoDetectsCorruption(t *testing.T) {
	src, dst := IP(10, 0, 0, 1), IP(10, 0, 0, 2)
	payload := []byte{1, 2, 3, 4, 5, 6, 0, 0} // checksum field zeroed
	ck := ChecksumPseudo(src, dst, ProtoUDP, payload)
	// Embed and verify.
	payload[6] = byte(ck >> 8)
	payload[7] = byte(ck)
	if ChecksumPseudo(src, dst, ProtoUDP, payload) != 0 {
		t.Fatal("pseudo checksum does not verify")
	}
	payload[0] ^= 0xff
	if ChecksumPseudo(src, dst, ProtoUDP, payload) == 0 {
		t.Fatal("corruption not detected")
	}
	payload[0] ^= 0xff // restore
	// Note: swapping src and dst does NOT change a ones-complement sum
	// (addition commutes) — a genuine limitation of the real Internet
	// checksum, preserved here.
	if ChecksumPseudo(dst, src, ProtoUDP, payload) != 0 {
		t.Fatal("ones-complement commutativity violated")
	}
}

// Property: checksum of data+checksum always verifies to zero.
func TestPropertyChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		ck := Checksum(data)
		with := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		return Checksum(with) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// checksum16 and checksumPseudo16 are the textbook word-at-a-time Internet
// checksum: the oracle the 32-bytes-per-step implementation must match bit
// for bit.
func checksum16(sum uint32, b []byte) uint16 {
	return ^fold16(uint64(sum), b)
}

// fold16 adds b's big-endian words to acc one at a time, folding at the end:
// 0 only when acc and every byte are 0, as Fold(Sum(acc, b)) must be. acc is
// folded first so that no add can overflow.
func fold16(acc uint64, b []byte) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	for len(b) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint64(b[0]) << 8
	}
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return uint16(acc)
}

func checksumPseudo16(src, dst Addr, proto uint8, payload []byte) uint16 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(uint16(len(payload)))
	return checksum16(sum, payload)
}

// oracleAccs are the accumulators Sum is started from: none, an all-ones
// word, the largest pseudo-header (every address byte, the protocol and the
// length all ones), one far above 16 bits and one that any add carries out
// of.
var oracleAccs = []uint64{0, 0xffff, PseudoSum(IP(255, 255, 255, 255), IP(255, 255, 255, 255), 0xff, 0xffff), 1 << 40, ^uint64(0)}

func checkAgainstOracle(t *testing.T, b []byte) {
	t.Helper()
	if got, want := Checksum(b), checksum16(0, b); got != want {
		t.Fatalf("Checksum over %d bytes = %#04x, word-at-a-time oracle says %#04x", len(b), got, want)
	}
	src, dst := IP(10, 0, 0, 1), IP(255, 255, 255, 255)
	if got, want := ChecksumPseudo(src, dst, ProtoUDP, b), checksumPseudo16(src, dst, ProtoUDP, b); got != want {
		t.Fatalf("ChecksumPseudo over %d bytes = %#04x, word-at-a-time oracle says %#04x", len(b), got, want)
	}
	for _, acc := range oracleAccs {
		if got, want := Fold(Sum(acc, b)), fold16(acc, b); got != want {
			t.Fatalf("Fold(Sum(%#x, %d bytes)) = %#04x, word-at-a-time oracle says %#04x", acc, len(b), got, want)
		}
	}
}

// unaligned copies b to off bytes into a larger buffer whose other bytes are
// not zero, so a kernel that read outside its slice could not match.
func unaligned(b []byte, off int) []byte {
	buf := bytes.Repeat([]byte{0x5a}, off+len(b)+8)
	return buf[off : off+copy(buf[off:], b)]
}

// checksumCorpus is every length a frame can have (odd ones included) in
// three fills: zeros, all-0xff (every add carries) and random.
func checksumCorpus(visit func([]byte)) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 1600; n++ {
		visit(make([]byte, n))
		visit(bytes.Repeat([]byte{0xff}, n))
		b := make([]byte, n)
		rng.Read(b)
		visit(b)
	}
}

// TestChecksumMatchesWordOracle walks the corpus at every start offset 0-7,
// then spot-checks long datagrams up to the 65 535 bytes a 16-bit length
// field allows.
func TestChecksumMatchesWordOracle(t *testing.T) {
	checksumCorpus(func(b []byte) {
		for off := 0; off < 8; off++ {
			checkAgainstOracle(t, unaligned(b, off))
		}
	})
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4095, 4096, 9001, 32768, 65534, 65535} {
		random := make([]byte, n)
		rng.Read(random)
		for _, b := range [][]byte{make([]byte, n), bytes.Repeat([]byte{0xff}, n), random} {
			checkAgainstOracle(t, unaligned(b, n%8))
		}
	}
}

func FuzzChecksum(f *testing.F) {
	checksumCorpus(func(b []byte) {
		if len(b)%97 == 0 { // a spread of lengths; the test above walks them all
			f.Add(b, uint8(len(b)/97))
		}
	})
	f.Fuzz(func(t *testing.T, b []byte, off uint8) { checkAgainstOracle(t, unaligned(b, int(off%8))) })
}

// BenchmarkSum times the kernel over an IP header (20), an rx_* datagram
// (26), a short packet (64) and an MTU-sized UDP payload (1472).
func BenchmarkSum(b *testing.B) {
	for _, n := range []int{20, 26, 64, 1472} {
		buf := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(buf)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			var acc uint64
			for b.Loop() {
				acc = Sum(acc, buf)
			}
			sink = acc
		})
	}
}

var sink uint64

// checkSplit cuts b at cut and composes the checksum the way a sender with a
// stored tail sum does: pseudo-header + head bytes + the tail's folded sum at
// the parity of the cut. The result must be ChecksumPseudo over the whole.
func checkSplit(t *testing.T, b []byte, cut int) {
	t.Helper()
	src, dst := IP(10, 0, 0, 1), IP(255, 255, 255, 255)
	tail := Fold(Sum(0, b[cut:]))
	if cut%2 == 1 {
		tail = SwapSum(tail)
	}
	got := ^Fold(Sum(PseudoSum(src, dst, ProtoUDP, len(b))+uint64(tail), b[:cut]))
	if want := ChecksumPseudo(src, dst, ProtoUDP, b); got != want {
		t.Fatalf("%d bytes cut at %d: head + stored tail = %#04x, one pass says %#04x", len(b), cut, got, want)
	}
}

// videoCut is where a video packet's stored sum starts: behind the UDP and
// MFLOW headers (8 + 17 bytes), an odd offset.
const videoCut = 25

// TestChecksumSplitAtEveryCut walks every cut (odd and even, both halves
// empty) of short and MTU-sized datagrams in the corpus's three fills.
func TestChecksumSplitAtEveryCut(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 7, 8, 9, videoCut, videoCut + 1, 100, 1472} {
		random := make([]byte, n)
		rng.Read(random)
		for _, b := range [][]byte{make([]byte, n), bytes.Repeat([]byte{0xff}, n), random} {
			for cut := 0; cut <= n; cut++ {
				checkSplit(t, b, cut)
			}
		}
	}
}

func FuzzChecksumSplit(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x80}, uint16(1))
	f.Add(bytes.Repeat([]byte{0xff}, 1472), uint16(videoCut))
	f.Add(bytes.Repeat([]byte{0xff}, 1472), uint16(1472))
	f.Add(append(make([]byte, videoCut), 0x49, 0x01, 0x04, 0x03), uint16(videoCut))
	f.Add([]byte("an even cut in the middle"), uint16(8))
	f.Fuzz(func(t *testing.T, b []byte, cut uint16) {
		if len(b) > 0xffff {
			b = b[:0xffff] // the pseudo-header's length field is 16 bits
		}
		checkSplit(t, b, int(cut)%(len(b)+1))
	})
}
