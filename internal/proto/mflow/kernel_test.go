package mflow_test

import (
	"encoding/binary"
	"testing"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/arp"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
	"scout/internal/routers"
	"scout/internal/sched"
	"scout/internal/sim"
)

// testKernel is the smallest Scout kernel with MFLOW under TEST: the router
// graph TEST → MFLOW → UDP → IP → ETH (plus ARP) on one NIC.
type testKernel struct {
	graph *core.Graph
	test  *routers.TestImpl
}

func bootTestKernel(t *testing.T, eng *sim.Engine, link *netdev.Link, mac netdev.MAC, addr inet.Addr) *testKernel {
	t.Helper()
	cpu := sched.New(eng)
	sched.AddDefaultPolicies(cpu, 8, 50, 50)
	dev := netdev.NewDevice(link, mac, cpu)
	dev.RxIRQCost = 5 * time.Microsecond
	k := &testKernel{graph: core.NewGraph(), test: routers.NewTest(cpu)}
	g := k.graph
	rETH := g.Add("ETH", eth.New(dev))
	rARP := g.Add("ARP", arp.New(addr, cpu))
	rIP := g.Add("IP", ip.New(ip.Config{Addr: addr, Mask: inet.IP(255, 255, 255, 0)}, cpu))
	rUDP := g.Add("UDP", udp.New())
	rMFLOW := g.Add("MFLOW", mflow.New(eng))
	rTEST := g.Add("TEST", k.test)
	g.MustConnect(rARP, "down", rETH, "up")
	g.MustConnect(rIP, "down", rETH, "up")
	g.MustConnect(rIP, "res", rARP, "resolver")
	g.MustConnect(rUDP, "down", rIP, "up")
	g.MustConnect(rMFLOW, "down", rUDP, "up")
	g.MustConnect(rTEST, "down", rMFLOW, "up")
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	return k
}

// reliablePath creates the kernel's TEST path to (raddr, rport) from lport.
func (k *testKernel) reliablePath(t *testing.T, raddr inet.Addr, rport, lport int) *core.Path {
	t.Helper()
	r, _ := k.graph.Router("TEST")
	p, err := k.graph.CreatePath(r, attr.New().
		Set(attr.NetParticipants, inet.Participants{RemoteAddr: raddr, RemotePort: uint16(rport)}).
		Set(inet.AttrLocalPort, lport).
		Set(attr.MFLOWReliable, true))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestKernelSendsReliably drives the MFLOW stage's FWD side: one kernel
// pushes numbered messages down a reliable path over a lossy wire, the other
// receives them through its own MFLOW stage. Every message must arrive, in
// order, repaired by the sending stage's retransmissions.
func TestKernelSendsReliably(t *testing.T) {
	eng := sim.New(7)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 10_000_000, Delay: 100 * time.Microsecond})
	addrA, addrB := inet.IP(10, 0, 0, 1), inet.IP(10, 0, 0, 2)
	ka := bootTestKernel(t, eng, link, netdev.MAC{2, 0, 0, 0, 0, 1}, addrA)
	kb := bootTestKernel(t, eng, link, netdev.MAC{2, 0, 0, 0, 0, 2}, addrB)
	pa := ka.reliablePath(t, addrB, 5000, 4000)
	pb := kb.reliablePath(t, addrA, 4000, 5000)

	var got []uint32
	kb.test.OnMsg = func(_ *core.Path, m *msg.Msg) {
		got = append(got, binary.BigEndian.Uint32(m.Bytes()))
		m.Free()
	}
	send := func(n uint32) {
		m := msg.NewWithHeadroom(64, 200)
		binary.BigEndian.PutUint32(m.Bytes(), n)
		if err := pa.Inject(core.FWD, m); err != nil {
			t.Errorf("inject %d: %v", n, err)
		}
	}

	// The first message resolves ARP on a clean wire; the loss (data and
	// acks alike, IP frames only) starts after it.
	eng.At(0, func() { send(1) })
	eng.RunFor(10 * time.Millisecond)
	link.InjectFaults(netdev.FaultPlan{
		Loss:  0.05,
		Match: func(_, _ netdev.MAC, etherType uint16) bool { return etherType == 0x0800 },
	})
	const total = 400
	for n := uint32(2); n <= total; n++ {
		n := n
		eng.At(sim.Time(10*time.Millisecond).Add(time.Duration(n)*500*time.Microsecond), func() { send(n) })
	}
	eng.RunFor(5 * time.Second)

	if len(got) != total {
		t.Fatalf("received %d of %d messages", len(got), total)
	}
	for i, n := range got {
		if n != uint32(i+1) {
			t.Fatalf("message %d carries %d: reordered or duplicated", i+1, n)
		}
	}
	sa, _ := mflow.StatsOf(pa, "MFLOW")
	sb, _ := mflow.StatsOf(pb, "MFLOW")
	if link.FaultStats().Lost == 0 || sa.Retransmits == 0 {
		t.Fatalf("lost %d frames, retransmitted %d: the sender's recovery never ran", link.FaultStats().Lost, sa.Retransmits)
	}
	if sb.Gaps != 0 || sb.Delivered != total {
		t.Fatalf("receiver delivered %d with %d gaps", sb.Delivered, sb.Gaps)
	}
	if sa.AcksSeen == 0 || sa.RTTEWMA == 0 || sa.Abandoned != 0 {
		t.Fatalf("sender stats %+v: want acks seen, an RTT estimate, nothing abandoned", sa.SenderStats)
	}

	// Teardown with a packet in flight: the armed timer must go with the
	// path, not fire into a dead one.
	link.SetDown()
	send(total + 1)
	pa.Destroy()
	pb.Destroy()
	eng.RunFor(time.Millisecond)
	if n := eng.Pending(); n != 0 {
		t.Fatalf("%d events pending after teardown", n)
	}
}
