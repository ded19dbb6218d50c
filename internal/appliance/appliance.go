// Package appliance assembles the Scout MPEG appliance: the router graph of
// Figure 9 (DISPLAY/MPEG/MFLOW/SHELL/UDP/IP/ETH) extended with the ARP and
// ICMP routers of Figure 6 and the TEST router of Figure 7, wired to a
// simulated Ethernet device and framebuffer, scheduled by the two-policy
// Scout scheduler. Experiments, examples and tools all boot kernels through
// this package.
package appliance

import (
	"fmt"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/mpath"
	"scout/internal/netdev"
	"scout/internal/pathtrace"
	"scout/internal/proto/arp"
	"scout/internal/proto/eth"
	"scout/internal/proto/icmp"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
	"scout/internal/routers"
	"scout/internal/sched"
	"scout/internal/sim"
	"scout/internal/splice"
)

// Config parameterizes a kernel boot.
type Config struct {
	MAC     netdev.MAC
	Addr    inet.Addr
	Mask    inet.Addr
	Gateway inet.Addr

	ShellPort int // default 5001

	DisplayW, DisplayH int // default 640×480
	RefreshHz          int // default 60

	RRLevels int // default 8
	RRShare  int // default 50
	EDFShare int // default 50

	// EnableILP registers the UDP-checksum-into-MPEG transformation rule.
	EnableILP bool
	// UDPChecksum controls whether UDP computes/verifies checksums.
	UDPChecksum bool
	// RxIRQCost is the per-frame receive-interrupt (classifier) cost;
	// default 5µs, the paper's §3.6 upper bound for UDP demux.
	RxIRQCost time.Duration

	// Tracing enables the pathtrace subsystem: paths created with the
	// PA_TRACE attribute get their stages and queues instrumented, and the
	// scheduler reports execution spans to Kernel.Tracer. Off by default;
	// when off, data-path code pays only nil checks.
	Tracing bool

	// StarveAfter is the watchdog's runnable-to-dispatch latency beyond
	// which a thread without a deadline counts as starving (default 50ms;
	// < 0 disables starvation detection).
	StarveAfter time.Duration

	// ExtraLinks attaches additional parallel links: each gets its own NIC
	// (MAC derived from MAC by bumping the last byte) and its own ETH
	// router ("ETH1", "ETH2", …), all wired under the one IP/ARP pair, so a
	// multipath flow can spread subpaths across independent wires. The
	// primary link stays NIC 0 / router "ETH".
	ExtraLinks []*netdev.Link
}

// DefaultConfig returns a workable single-host configuration.
func DefaultConfig() Config {
	return Config{
		MAC:         netdev.MAC{2, 0, 0, 0, 0, 0x10},
		Addr:        inet.IP(10, 0, 0, 10),
		Mask:        inet.IP(255, 255, 255, 0),
		ShellPort:   5001,
		DisplayW:    640,
		DisplayH:    480,
		RefreshHz:   60,
		RRLevels:    8,
		RRShare:     50,
		EDFShare:    50,
		UDPChecksum: true,
		RxIRQCost:   5 * time.Microsecond,
	}
}

// Kernel is a booted Scout appliance.
type Kernel struct {
	Cfg  Config
	Eng  *sim.Engine
	CPU  *sched.Sched
	Dev  *netdev.Device
	Link *netdev.Link
	// Devs and Links list every NIC/wire in link order; index 0 is
	// Dev/Link. ETHs are the matching ETH router implementations.
	Devs  []*netdev.Device
	Links []*netdev.Link
	ETHs  []*eth.Impl
	FB    *display.Device
	Graph *core.Graph
	// Tracer is always non-nil after Boot; it records only when
	// Config.Tracing was set.
	Tracer *pathtrace.Tracer

	// Watch is the scheduler watchdog, always attached: deadline misses and
	// starvation are counted (and routed to per-path degradation callbacks)
	// whether or not anyone is looking — detection is two nil checks per
	// execution, and overload is exactly when nobody remembered to enable
	// monitoring.
	Watch *sched.Watchdog

	ETH     *eth.Impl
	ARP     *arp.Impl
	IP      *ip.Impl
	UDP     *udp.Impl
	ICMP    *icmp.Impl
	MFLOW   *mflow.Impl
	MPEG    *routers.MPEGImpl
	Display *routers.DisplayImpl
	Shell   *routers.ShellImpl
	Test    *routers.TestImpl
}

// Boot builds and initializes a kernel attached to link.
func Boot(eng *sim.Engine, link *netdev.Link, cfg Config) (*Kernel, error) {
	return boot(eng, link, cfg, false)
}

// BootReference boots the reference kernel: no device-edge flow cache (every
// frame pays the full demux walk) and no path fusion (every hop pays dynamic
// dispatch and full revalidation). It is the oracle the differential
// experiments (E12, E14) and tests hold the real kernel to — same seeded
// world, outputs identical to the nanosecond — and nothing else boots it.
func BootReference(eng *sim.Engine, link *netdev.Link, cfg Config) (*Kernel, error) {
	return boot(eng, link, cfg, true)
}

func boot(eng *sim.Engine, link *netdev.Link, cfg Config, reference bool) (*Kernel, error) {
	if cfg.ShellPort == 0 {
		cfg.ShellPort = 5001
	}
	if cfg.DisplayW == 0 {
		cfg.DisplayW, cfg.DisplayH = 640, 480
	}
	if cfg.RefreshHz == 0 {
		cfg.RefreshHz = 60
	}
	if cfg.RRLevels == 0 {
		cfg.RRLevels = 8
	}
	if cfg.RRShare == 0 {
		cfg.RRShare = 50
	}
	if cfg.EDFShare == 0 {
		cfg.EDFShare = 50
	}
	if cfg.RxIRQCost == 0 {
		cfg.RxIRQCost = 5 * time.Microsecond
	}

	if cfg.StarveAfter == 0 {
		cfg.StarveAfter = 50 * time.Millisecond
	}

	k := &Kernel{Cfg: cfg, Eng: eng, Link: link}
	k.CPU = sched.New(eng)
	sched.AddDefaultPolicies(k.CPU, cfg.RRLevels, cfg.RRShare, cfg.EDFShare)
	starve := cfg.StarveAfter
	if starve < 0 {
		starve = 0
	}
	k.Watch = sched.NewWatchdog(k.CPU, starve)
	k.Tracer = pathtrace.New(eng, pathtrace.Options{})
	if cfg.Tracing {
		k.Tracer.SetEnabled(true)
		k.CPU.OnExec = func(_ *sched.Thread, p *core.Path, start, end sim.Time, charged time.Duration) {
			if p != nil {
				k.Tracer.ExecSpan(p.PID, "exec", start, end, charged)
			}
		}
	}

	k.Dev = netdev.NewDevice(link, cfg.MAC, k.CPU)
	k.Dev.RxIRQCost = cfg.RxIRQCost
	k.Links = []*netdev.Link{link}
	k.Devs = []*netdev.Device{k.Dev}
	for i, l := range cfg.ExtraLinks {
		mac := cfg.MAC
		mac[5] += byte(i + 1) // per-NIC MAC; hosts on the wire use distinct bases
		d := netdev.NewDevice(l, mac, k.CPU)
		d.RxIRQCost = cfg.RxIRQCost
		k.Links = append(k.Links, l)
		k.Devs = append(k.Devs, d)
	}
	k.Tracer.SetDeviceSampler(func() []pathtrace.DevSummary {
		out := make([]pathtrace.DevSummary, len(k.Devs))
		for i, d := range k.Devs {
			out[i] = pathtrace.SampleDevice(fmt.Sprintf("eth%d", i), d)
		}
		return out
	})
	k.FB = display.New(eng, k.CPU, cfg.DisplayW, cfg.DisplayH, cfg.RefreshHz)
	k.FB.VsyncIRQCost = 2 * time.Microsecond

	k.ETH = eth.New(k.Dev)
	k.ETHs = []*eth.Impl{k.ETH}
	for _, d := range k.Devs[1:] {
		k.ETHs = append(k.ETHs, eth.New(d))
	}
	k.ARP = arp.New(cfg.Addr, k.CPU)
	k.IP = ip.New(ip.Config{Addr: cfg.Addr, Mask: cfg.Mask, Gateway: cfg.Gateway}, k.CPU)
	k.UDP = udp.New()
	k.UDP.ChecksumTx = cfg.UDPChecksum
	k.UDP.ChecksumRx = cfg.UDPChecksum
	k.ICMP = icmp.New(k.CPU)
	k.MFLOW = mflow.New(eng)
	k.MPEG = routers.NewMPEG()
	k.Display = routers.NewDisplay(k.FB, k.CPU)
	k.Shell = routers.NewShell(k.CPU, cfg.ShellPort)
	k.Test = routers.NewTest(k.CPU)

	g := core.NewGraph()
	k.Graph = g
	if reference {
		g.SetFuse(false)
		for _, e := range k.ETHs {
			e.FlowCacheCap = -1 // no flow cache on this NIC
		}
	}
	rETH := g.Add("ETH", k.ETH)
	rETHs := []*core.Router{rETH}
	for i, e := range k.ETHs[1:] {
		rETHs = append(rETHs, g.Add(fmt.Sprintf("ETH%d", i+1), e))
	}
	rARP := g.Add("ARP", k.ARP)
	rIP := g.Add("IP", k.IP)
	rUDP := g.Add("UDP", k.UDP)
	rICMP := g.Add("ICMP", k.ICMP)
	rMFLOW := g.Add("MFLOW", k.MFLOW)
	rMPEG := g.Add("MPEG", k.MPEG)
	rDISP := g.Add("DISPLAY", k.Display)
	rSHELL := g.Add("SHELL", k.Shell)
	rTEST := g.Add("TEST", k.Test)

	// Figure 6 wiring. ARP and IP see every wire: their "down" link order
	// matches Kernel.Devs, so PA_MPATH_LINK=i descends to NIC i.
	for _, r := range rETHs {
		g.MustConnect(rARP, "down", r, "up")
	}
	for _, r := range rETHs {
		g.MustConnect(rIP, "down", r, "up")
	}
	g.MustConnect(rIP, "res", rARP, "resolver")
	// Figure 9 wiring.
	g.MustConnect(rUDP, "down", rIP, "up")
	g.MustConnect(rICMP, "down", rIP, "up")
	g.MustConnect(rMFLOW, "down", rUDP, "up")
	g.MustConnect(rSHELL, "down", rUDP, "up")
	g.MustConnect(rTEST, "down", rUDP, "up")
	g.MustConnect(rMPEG, "down", rMFLOW, "up")
	g.MustConnect(rDISP, "down", rMPEG, "up")

	if cfg.EnableILP {
		g.AddRule(routers.ILPRule("MPEG", "MFLOW", "UDP"))
	}
	if err := g.Build(); err != nil {
		return nil, fmt.Errorf("appliance: %w", err)
	}
	return k, nil
}

// CreateVideoPath creates an MPEG path directly (without going through
// SHELL's network protocol) for a source at src, returning the path and the
// local UDP port the source must send to.
func (k *Kernel) CreateVideoPath(a *VideoAttrs) (*core.Path, uint16, error) {
	attrs := a.build()
	disp, _ := k.Graph.Router("DISPLAY")
	p, err := k.Graph.CreatePath(disp, attrs)
	if err != nil {
		return nil, 0, err
	}
	if traced, _ := p.Attrs.Bool(attr.Trace); traced && k.Tracer.Enabled() {
		label, _ := p.Attrs.String(attr.TraceLabel)
		k.InstrumentPath(p, label)
	}
	if deg, _ := p.Attrs.Bool(attr.Degrade); deg {
		routers.AttachDegrader(k.Eng, p, routers.DegradeConfig{
			GOP: p.Attrs.IntDefault(attr.MPEGGOP, 15),
		})
	}
	lport, _ := p.Attrs.Int(inet.AttrLocalPort)
	return p, uint16(lport), nil
}

// CreateVideoPathSet creates one logical video flow carried by `subpaths`
// parallel paths — the multipath extension of CreateVideoPath. Subpath 0 is
// a full DISPLAY→…→ETH path (the flow's primary, owning the MFLOW state);
// subpaths 1..k-1 are sibling paths created at MFLOW that join the primary's
// flow (PA_MPATH_JOIN) and descend to NIC i (PA_MPATH_LINK), each with its
// own worker thread feeding the shared decoder chain. The source must send
// subflow i to the returned local port from its port base+i: UDP's exact
// (lport, raddr, rport) demux is what separates the subpaths.
//
// The returned PathSet tracks per-subpath quality — the MFLOW receiver's
// observer feeds each arrival's one-way latency and device-end queue depth
// to it — and runs the named selection policy at sender dispatch. startSub
// is the "pinned" policy's fixed subpath and every other policy's seeded
// incumbent, so competing flows can start spread across the set.
func (k *Kernel) CreateVideoPathSet(va *VideoAttrs, subpaths int, policyName string, startSub int) (*mpath.PathSet, uint16, error) {
	if subpaths < 1 {
		subpaths = 1
	}
	if subpaths > len(k.Devs) {
		return nil, 0, fmt.Errorf("appliance: %d subpaths but only %d links", subpaths, len(k.Devs))
	}
	pol, err := mpath.ByName(policyName, startSub)
	if err != nil {
		return nil, 0, err
	}
	base := va.TraceLabel
	if base == "" {
		base = fmt.Sprintf("flow-%d", va.Source.RemotePort)
	}
	if va.Trace {
		va.TraceLabel = fmt.Sprintf("%s/sub0@%s", base, policyName)
	}
	prim, lport, err := k.CreateVideoPath(va)
	if err != nil {
		return nil, 0, err
	}
	ps := mpath.New(base, pol)
	ps.Add(prim, k.Dev, fmt.Sprintf("%s/sub0@%s", base, policyName))

	rMFLOW, ok := k.Graph.Router("MFLOW")
	if !ok {
		prim.Destroy()
		return nil, 0, fmt.Errorf("appliance: no MFLOW router")
	}
	for i := 1; i < subpaths; i++ {
		label := fmt.Sprintf("%s/sub%d@%s", base, i, policyName)
		attrs := attr.New().
			Set(attr.NetParticipants, inet.Participants{
				RemoteAddr: va.Source.RemoteAddr,
				RemotePort: va.Source.RemotePort + uint16(i),
			}).
			Set(inet.AttrLocalPort, int(lport)).
			Set(attr.MPathJoin, prim).
			Set(attr.MPathSub, i).
			Set(attr.MPathLink, i)
		if va.QueueLen > 0 {
			attrs.Set(attr.QueueLen, va.QueueLen)
		}
		if va.Trace {
			attrs.Set(attr.Trace, true).Set(attr.TraceLabel, label)
		}
		sib, err := k.Graph.CreatePath(rMFLOW, attrs)
		if err != nil {
			for j := ps.K() - 1; j >= 0; j-- {
				ps.Sub(j).Path.Destroy()
			}
			return nil, 0, fmt.Errorf("appliance: subpath %d: %w", i, err)
		}
		if va.Trace && k.Tracer.Enabled() {
			k.InstrumentPath(sib, label)
		}
		k.Display.ServeJoined(prim, sib, fmt.Sprintf("video-%d-sub%d", prim.PID, i))
		ps.Add(sib, k.Devs[i], label)
	}
	ps.SeedPick(startSub)
	mflow.SetObserver(prim, "MFLOW", func(sub int, oneWay time.Duration, qdepth int) {
		ps.NoteArrival(sub, oneWay, qdepth)
	})
	return ps, lport, nil
}

// NewMigrator returns a splice.Manager that migrates this kernel's video
// paths at the MFLOW boundary — everything below (UDP, IP, ETH) is
// device-specific and rebuilt, everything above owns the flow state and
// survives — with MFLOW readvertising its window down the fresh chain before
// the path resumes. Trace spans, chaos faults and transformation rules need
// no hook here: they are interposers, which the resplice re-applies to the
// rebuilt stages. Arm plans on it with Manager.Arm; Kernel.Devs supplies the
// From/To devices in link order.
func (k *Kernel) NewMigrator() *splice.Manager {
	m := splice.New(k.Eng, "MFLOW")
	m.Readvertise = func(p *core.Path) {
		k.MFLOW.Readvertise(p, "MFLOW")
	}
	return m
}

// Degrader returns the degradation controller attached to p via the
// PA_DEGRADE attribute, or nil.
func (k *Kernel) Degrader(p *core.Path) *routers.VideoDegrader {
	return routers.DegraderOf(p)
}

// InstrumentPath attaches the kernel tracer to p. The generic NetIface
// stages and the queues are wrapped by pathtrace itself; the DISPLAY stage
// speaks the video interface type, which pathtrace cannot wrap generically,
// so this layer — which knows the concrete type — brackets it with
// StageEnter/StageExit. Both are interposers (core.Path.Interpose), so they
// wrap whatever the transformation rules left and survive a resplice.
func (k *Kernel) InstrumentPath(p *core.Path, label string) {
	tr := k.Tracer
	tr.InstrumentPath(p, label)
	p.Interpose(func(_ int, s *core.Stage) {
		if s.Router.Name != "DISPLAY" {
			return
		}
		vi, ok := s.End[core.BWD].(*routers.VideoIface)
		if !ok || vi == nil || vi.DeliverFrame == nil {
			return
		}
		orig := vi.DeliverFrame
		vi.DeliverFrame = func(i *routers.VideoIface, f *display.Frame) error {
			tr.StageEnter(p, "DISPLAY", int64(f.Seq))
			err := orig(i, f)
			tr.StageExit(p)
			return err
		}
	})
}
