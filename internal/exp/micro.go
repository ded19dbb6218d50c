package exp

import (
	"encoding/binary"
	"io"
	"unsafe"

	"scout/internal/appliance"
	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
)

// NewMicroKernel boots an appliance for the wall-clock microbenchmarks (E1
// path creation, E2 demux). The simulation clock is irrelevant there; the
// benchmarks measure real nanoseconds with testing.B.
func NewMicroKernel() (*appliance.Kernel, error) {
	w, err := buildWorld(worldSpec{seed: 2})
	if err != nil {
		return nil, err
	}
	return w.k, nil
}

// TestPathAttrs builds the attribute set for a TEST→UDP→IP→ETH path — the
// paper's 6-stage UDP path of §3.6 (our count is 4 core stages; the paper
// counts the two extreme queue-connector stages as well).
func TestPathAttrs(lport int) *attr.Attrs {
	return attr.New().
		Set(attr.NetParticipants, inet.Participants{RemoteAddr: srcAddr, RemotePort: 9000}).
		Set(inet.AttrLocalPort, lport)
}

// BuildVideoFrame hand-assembles a complete Ethernet frame addressed to the
// given UDP port of kernel k, as the classifier would receive it from the
// wire; E2 measures how fast Classify maps it to a path.
func BuildVideoFrame(k *appliance.Kernel, dstPort uint16, payload int) *msg.Msg {
	total := eth.HeaderLen + ip.HeaderLen + udp.HeaderLen + mflow.HeaderLen + payload
	buf := make([]byte, total)
	eth.Header{Dst: k.Cfg.MAC, Src: srcMAC, Type: inet.EtherTypeIP}.Put(buf)
	ih := ip.Header{
		TotalLen: uint16(total - eth.HeaderLen),
		ID:       1,
		TTL:      64,
		Proto:    inet.ProtoUDP,
		Src:      srcAddr,
		Dst:      k.Cfg.Addr,
	}
	ih.Put(buf[eth.HeaderLen:])
	uh := udp.Header{SrcPort: 9000, DstPort: dstPort, Length: uint16(udp.HeaderLen + mflow.HeaderLen + payload)}
	uh.Put(buf[eth.HeaderLen+ip.HeaderLen:])
	mflow.Header{Kind: mflow.KindData, Seq: 1}.Put(buf[eth.HeaderLen+ip.HeaderLen+udp.HeaderLen:])
	// No UDP checksum (zero = unchecked): E2 measures classification, not
	// checksumming.
	binary.BigEndian.PutUint16(buf[eth.HeaderLen+ip.HeaderLen+6:], 0)
	return msg.New(buf)
}

// Footprint is E3: the memory footprint of the path machinery, compared
// with the paper's ≈300-byte path object and ≈150-byte stages (§3.6).
type Footprint struct {
	PathBytes    int
	StageBytes   int // stage struct plus its two interfaces
	PathLen      int
	WholePathEst int // path + stages + interfaces (queues excluded)
}

// MeasureFootprint reports struct sizes for a freshly created UDP path.
func MeasureFootprint(k *appliance.Kernel) (Footprint, error) {
	testR, _ := k.Graph.Router("TEST")
	p, err := k.Graph.CreatePath(testR, TestPathAttrs(9100))
	if err != nil {
		return Footprint{}, err
	}
	defer p.Delete()
	f := Footprint{
		PathBytes:  int(unsafe.Sizeof(core.Path{})),
		StageBytes: int(unsafe.Sizeof(core.Stage{}) + 2*unsafe.Sizeof(core.NetIface{})),
		PathLen:    p.Len(),
	}
	f.WholePathEst = f.PathBytes + p.Len()*f.StageBytes
	return f, nil
}

// Print renders E3.
func (f Footprint) Print(w io.Writer) {
	fprintf(w, "§3.6: object sizes\n")
	fprintf(w, "path object: %d bytes (paper ≈300)\n", f.PathBytes)
	fprintf(w, "stage + 2 interfaces: %d bytes (paper ≈150)\n", f.StageBytes)
	fprintf(w, "UDP path: %d stages, ≈%d bytes excluding queues\n", f.PathLen, f.WholePathEst)
	fprintf(w, "(run `go test -bench='BenchmarkE1|BenchmarkE2' .` for the\n")
	fprintf(w, " wall-clock path-creation and demux microbenchmarks)\n")
}
