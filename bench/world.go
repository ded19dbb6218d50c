package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"scout/internal/appliance"
	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/fbuf"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/udp"
	"scout/internal/sim"
)

// The topology every world shares: the appliance under test and one traffic
// source on the same wire.
var (
	scoutMAC  = netdev.MAC{2, 0, 0, 0, 0, 0x10}
	scoutAddr = inet.IP(10, 0, 0, 10)
	srcMAC    = netdev.MAC{2, 0, 0, 0, 0, 0x20}
	srcAddr   = inet.IP(10, 0, 0, 20)
)

const (
	srcPort   = 9000 // the remote port every TEST path names as its participant
	frameLen  = 60   // minimum Ethernet frame (without FCS)
	udpDstOff = eth.HeaderLen + ip.HeaderLen + 2
)

// env is what main hands every world: the seed, the sizes, and the wall
// clock. Worlds never read the clock themselves.
type env struct {
	seed int64
	sc   scale
	now  func() time.Time
}

// blockResult is one block's outcome. run excludes any world construction
// the block had to do, which is reported as setup instead.
type blockResult struct {
	ops, attempted, failed int64
	setup, run             time.Duration
}

// world is one workload's system under test.
type world interface {
	// block runs the next block. rec is nil on the untraced pass.
	block(rec *recorder) blockResult
	// digest mixes the world's observable outputs so far into h.
	digest(h hash.Hash64)
	// addCounts adds the layers' public counters, cumulative since build.
	addCounts(c *counts)
	// violations lists invariants that do not hold.
	violations() []string
}

// bootKernel boots the appliance with its default configuration: the
// benchmark sets no mode switch, so it measures whatever the default data
// path is.
func bootKernel(eng *sim.Engine, link *netdev.Link, refreshHz int) (*appliance.Kernel, error) {
	cfg := appliance.DefaultConfig()
	cfg.MAC, cfg.Addr = scoutMAC, scoutAddr
	if refreshHz > 0 {
		cfg.RefreshHz = refreshHz
	}
	return appliance.Boot(eng, link, cfg)
}

// testAttrs is the invariant set of a TEST/UDP/IP/ETH path on local port
// lport.
func testAttrs(lport int) *attr.Attrs {
	return attr.New().
		Set(attr.NetParticipants, inet.Participants{RemoteAddr: srcAddr, RemotePort: srcPort}).
		Set(inet.AttrLocalPort, lport)
}

// testFrame builds the smallest UDP frame addressed to port dstPort of the
// appliance. The UDP checksum is 0 (unchecked), so patching the port later
// keeps the frame valid.
func testFrame(dstPort uint16) []byte {
	b := make([]byte, frameLen)
	eth.Header{Dst: scoutMAC, Src: srcMAC, Type: inet.EtherTypeIP}.Put(b)
	ip.Header{
		TotalLen: frameLen - eth.HeaderLen, ID: 1, TTL: 64,
		Proto: inet.ProtoUDP, Src: srcAddr, Dst: scoutAddr,
	}.Put(b[eth.HeaderLen:])
	udp.Header{SrcPort: srcPort, DstPort: dstPort, Length: frameLen - eth.HeaderLen - ip.HeaderLen}.
		Put(b[eth.HeaderLen+ip.HeaderLen:])
	return b
}

// generator is the open-loop load generator of the packet workloads: a raw
// NIC that transmits one frame per event on the virtual clock, so the
// offered rate does not depend on how fast the system under test runs.
type generator struct {
	eng  *sim.Engine
	dev  *netdev.Device
	pool *fbuf.Pool // the NIC's buffer ring: frames return here when freed
	rng  *rand.Rand

	templates [][]byte
	flowOf    func(i int64) int

	sent, want int64
	done       bool
	fire       func()
	// every, when positive, calls control after each every-th frame.
	every   int64
	control func()

	getFailed int64
}

// Mean and spread of the gap between frames: 62.5k frames/s offered, which
// the appliance's modelled CPU (≈9 µs per frame) serves without a backlog.
const (
	genGapMin  = 8 * time.Microsecond
	genGapSpan = 16 * time.Microsecond
)

func newGenerator(eng *sim.Engine, dev *netdev.Device, templates [][]byte, flowOf func(int64) int) *generator {
	g := &generator{
		eng:       eng,
		dev:       dev,
		pool:      fbuf.NewPool(frameLen, 0, 512, 0),
		rng:       eng.DeriveRand(0x67656e), // the generator's own stream
		templates: templates,
		flowOf:    flowOf,
		done:      true,
	}
	g.fire = g.step
	return g
}

// start offers n more frames, the first one now.
func (g *generator) start(n int64) {
	g.want += n
	g.done = false
	g.eng.At(g.eng.Now(), g.fire)
}

func (g *generator) step() {
	g.send(g.templates[g.flowOf(g.sent)])
	g.sent++
	if g.every > 0 && g.sent%g.every == 0 {
		g.control()
	}
	if g.sent >= g.want {
		// Let the last frames cross the wire and the paths drain before
		// the block ends.
		g.eng.After(5*time.Millisecond, func() { g.done = true })
		return
	}
	gap := genGapMin + time.Duration(g.rng.Int63n(int64(genGapSpan)))
	g.eng.After(gap, g.fire)
}

func (g *generator) send(frame []byte) {
	m, err := g.pool.Get(len(frame))
	if err != nil {
		g.getFailed++
		return
	}
	copy(m.Bytes(), frame)
	g.dev.Transmit(scoutMAC, m)
}

// drive steps eng until stop holds or no event remains. Both passes use this
// one loop, so the traced pass differs from the untraced one only by its
// clock reads.
func drive(eng *sim.Engine, rec *recorder, stop func() bool) {
	if rec == nil {
		for !stop() && eng.Step() {
		}
		return
	}
	for !stop() {
		rec.begin(spStep)
		more := eng.Step()
		rec.end()
		if !more {
			return
		}
	}
}

// mix writes vs into h.
func mix(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:]) // hash.Hash never returns an error
	}
}

// kernelCounts adds one appliance's public counters to c.
func kernelCounts(c *counts, k *appliance.Kernel) {
	c[cEvents] += int64(k.Eng.EventsRun())
	rx, _, rxDropped := k.Dev.Stats()
	c[cRxFrames] += rx
	c[cRxDropped] += rxDropped
	_, linkDropped, _ := k.Link.Stats()
	c[cLinkDropped] += linkDropped
	bursts, burstFrames := k.Dev.BurstStats()
	c[cBursts] += bursts
	c[cBurstFrames] += burstFrames
	es := k.ETH.Stats()
	c[cEthNoPath] += es.RxNoPath
	c[cEthQueueFull] += es.RxQueueFull
	c[cEthBurstShared] += es.BurstShared
	if fc := k.Dev.Flows; fc != nil {
		fs := fc.Stats()
		c[cFcHits] += fs.Hits
		c[cFcMisses] += fs.Misses
		c[cFcInserts] += fs.Inserts
		c[cFcEvictions] += fs.Evictions
		c[cFcInvalidations] += fs.Invalidations
		c[cFcDeadLookups] += fs.DeadLookups
	}
	ss := k.CPU.Stats()
	c[cDispatches] += ss.Dispatches
	c[cInterrupts] += ss.Interrupts
	c[cBusyNs] += int64(ss.Busy)
	c[cIrqNs] += int64(ss.IRQ)
}

// pathQueueCounts adds the drops of p's four queues to c.
func pathQueueCounts(c *counts, p *core.Path) {
	for _, q := range p.Q {
		if q != nil {
			c[cQDropped] += q.Dropped()
			c[cQShed] += q.Shed()
		}
	}
}

// flowCacheLaw checks the cache's conservation law.
func flowCacheLaw(name string, fc *core.FlowCache) []string {
	if fc == nil {
		return nil
	}
	s := fc.Stats()
	if s.Inserts != s.Evictions+s.Invalidations+s.DeadLookups+int64(fc.Len()) {
		return []string{fmt.Sprintf("%s: flow cache inserts %d != evictions %d + invalidations %d + dead lookups %d + len %d",
			name, s.Inserts, s.Evictions, s.Invalidations, s.DeadLookups, fc.Len())}
	}
	return nil
}
