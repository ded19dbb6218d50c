package exp

import (
	"fmt"
	"time"

	"scout/internal/appliance"
	"scout/internal/baseline"
	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/host"
	"scout/internal/mpath"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/sim"
)

// The standard experiment machine: a same-segment 10 Mb/s Ethernet (the
// paper's era; LAN propagation is a few tens of microseconds, serialization
// dominates), the Scout (or baseline) host, a video source, and — for loaded
// runs — a flooding host.
const (
	linkBps   = 10_000_000
	linkDelay = 20 * time.Microsecond
)

var (
	scoutMAC  = netdev.MAC{2, 0, 0, 0, 0, 0x10}
	scoutAddr = inet.IP(10, 0, 0, 10)
	srcMAC    = netdev.MAC{2, 0, 0, 0, 0, 0x20}
	srcAddr   = inet.IP(10, 0, 0, 20)
	pingMAC   = netdev.MAC{2, 0, 0, 0, 0, 0x21}
	pingAddr  = inet.IP(10, 0, 0, 21)
)

// bootFunc is appliance.Boot or appliance.BootReference.
type bootFunc func(*sim.Engine, *netdev.Link, appliance.Config) (*appliance.Kernel, error)

// worldSpec describes one experiment's machine as its differences from the
// standard one; the zero value is the standard machine with no streams.
type worldSpec struct {
	seed int64
	// shard builds the world on an existing engine (one shard of E15's
	// cluster) instead of a fresh sim.New(seed).
	shard *sim.Engine
	// cross puts the source host on another shard, across a cross-shard wire.
	cross *crossWire
	// link overrides the standard wire; zero BitsPerSec and Delay keep its.
	link netdev.LinkConfig
	// wires is the number of parallel links (0 = 1). Wire i has ID i, its
	// own kernel NIC and its own source host of the one source identity, and
	// 20µs·i more delay so latency ranks the wires.
	wires int
	// faults is installed on wire 0 from the start.
	faults *netdev.FaultPlan
	// boot is the appliance kernel to boot (nil = appliance.Boot); baseline
	// boots the monolithic stack instead.
	boot     bootFunc
	baseline bool
	// maxRate gives the kernel a 2000 Hz display so vsync never limits
	// throughput; tune adjusts the remaining boot configuration.
	maxRate bool
	tune    func(*appliance.Config)

	streams []streamSpec
	// flood adds the `ping -f` host with this pipeline depth (0 = none).
	flood int
}

// crossWire locates the far end of a cross-shard wire.
type crossWire struct {
	c   *sim.Cluster
	xid int64
	far *sim.Engine
}

// streamSpec is one video stream: a path on the kernel and the source that
// feeds it.
type streamSpec struct {
	// attrs.Source is filled in from the sending host and source.SrcPort.
	attrs  appliance.VideoAttrs
	source host.SourceConfig
	// mac and addr give the stream a sending host of its own, so concurrent
	// streams keep distinct ARP and UDP demux keys (zero = the world's
	// source host).
	mac  netdev.MAC
	addr inet.Addr
	// policy makes the stream a PathSet with one subpath per wire, selected
	// by the named mpath policy starting from subpath startSub; the source
	// gets one subflow per wire (port SrcPort+i) and the set's dispatch.
	policy   string
	startSub int
	// startAt delays the source's start.
	startAt time.Duration
}

// maxRateStream is Table 1's stream, which most later experiments reuse: the
// clip sent as fast as flow control allows, to a path at the paper's "default
// round robin priority" (§4.3) whose display rate never limits it. reliable
// selects reliable MFLOW on the path and a retransmitting source.
func maxRateStream(clip mpeg.ClipSpec, reliable bool) streamSpec {
	return streamSpec{
		attrs: appliance.VideoAttrs{
			FPS: 2000, CostModel: true, QueueLen: 32, Sched: "rr", Priority: 2, Reliable: reliable,
		},
		source: host.SourceConfig{
			Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, Seed: 11, Retransmit: reliable,
		},
	}
}

// prefix is clip cut to its first frames frames (0 = the whole clip).
func prefix(clip mpeg.ClipSpec, frames int) mpeg.ClipSpec {
	if frames > 0 {
		clip.Frames = frames
	}
	return clip
}

// world is a built machine.
type world struct {
	eng     *sim.Engine
	links   []*netdev.Link
	k       *appliance.Kernel // nil in a baseline world
	base    *baseline.Stack
	hostEng *sim.Engine  // the engine source hosts live on
	hosts   []*host.Host // the source host on each wire, once a stream needs it
	ping    *host.Host   // the flooding host, if any
	streams []*stream
}

// stream is the handle on one running video stream.
type stream struct {
	p     *core.Path     // nil in a baseline world
	set   *mpath.PathSet // nil unless the spec named a policy
	port  uint16         // the kernel's local UDP port
	src   *host.Source
	sink  *display.Sink
	total int64 // frames in the clip
	// lastChange is when play last saw the sink show a new frame.
	lastChange sim.Time
}

// must is where an experiment gives up: its machine is fixed at compile
// time, so a set-up step that fails is a bug in the experiment's definition.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("exp: %w", err))
	}
}

// newWorld is buildWorld for specs that cannot fail.
func newWorld(spec worldSpec) *world {
	w, err := buildWorld(spec)
	must(err)
	return w
}

// buildWorld builds the machine in one fixed order — wires, kernel, then per
// stream its sending host, path, source and start event, and the flood host
// last — so the engine numbers every experiment's events the same way run
// after run.
func buildWorld(spec worldSpec) (*world, error) {
	w := &world{eng: spec.shard}
	if w.eng == nil {
		w.eng = sim.New(spec.seed)
	}
	w.hostEng = w.eng
	lc := spec.link
	if lc.BitsPerSec == 0 {
		lc.BitsPerSec = linkBps
	}
	if lc.Delay == 0 {
		lc.Delay = linkDelay
	}
	if x := spec.cross; x != nil {
		w.hostEng = x.far
		w.links = []*netdev.Link{netdev.NewCrossLink(x.c, x.xid, w.eng, x.far, lc)}
	} else {
		for i := 0; i < max(spec.wires, 1); i++ {
			w.links = append(w.links, netdev.NewLink(w.eng, lc))
			lc.ID++
			lc.Delay += 20 * time.Microsecond
		}
	}
	if spec.faults != nil {
		w.links[0].InjectFaults(*spec.faults)
	}

	if spec.baseline {
		cfg := baseline.DefaultConfig()
		cfg.MAC, cfg.Addr = scoutMAC, scoutAddr
		if spec.maxRate {
			cfg.RefreshHz = 2000
		}
		w.base = baseline.New(w.eng, w.links[0], cfg)
	} else {
		cfg := appliance.DefaultConfig()
		cfg.MAC, cfg.Addr = scoutMAC, scoutAddr
		if spec.maxRate {
			cfg.RefreshHz = 2000
		}
		cfg.ExtraLinks = w.links[1:]
		if spec.tune != nil {
			spec.tune(&cfg)
		}
		boot := spec.boot
		if boot == nil {
			boot = appliance.Boot
		}
		k, err := boot(w.eng, w.links[0], cfg)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		w.k = k
	}

	for i, ss := range spec.streams {
		s, err := w.addStream(ss)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", i, err)
		}
		w.streams = append(w.streams, s)
	}
	if spec.flood > 0 {
		w.ping = host.New(w.links[0], pingMAC, pingAddr)
		w.ping.FloodEchoAdaptive(scoutAddr, spec.flood, 8, 30*time.Microsecond)
	}
	return w, nil
}

func (w *world) addStream(ss streamSpec) (*stream, error) {
	var h *host.Host
	if ss.addr != (inet.Addr{}) {
		h = host.New(w.links[0], ss.mac, ss.addr)
	} else {
		if w.hosts == nil {
			for _, l := range w.links {
				w.hosts = append(w.hosts, host.NewOn(l, srcMAC, srcAddr, w.hostEng))
			}
		}
		h = w.hosts[0]
	}
	va := ss.attrs
	va.Source = inet.Participants{RemoteAddr: h.Addr, RemotePort: ss.source.SrcPort}
	s := &stream{}
	var err error
	switch {
	case w.base != nil:
		// The decoder process stands in for the path: same rate, cost model
		// and output queue, behind a socket on the well-known port.
		var proc *baseline.Proc
		s.port = 7000
		proc, err = w.base.NewProc(baseline.ProcConfig{
			Port: s.port, FPS: va.FPS, Frames: va.Frames, CostOnly: va.CostModel, OutQueue: va.QueueLen,
		})
		if err == nil {
			s.sink = proc.Sink()
		}
	case ss.policy != "":
		s.set, s.port, err = w.k.CreateVideoPathSet(&va, len(w.links), ss.policy, ss.startSub)
		if err == nil {
			s.p = s.set.Sub(0).Path
		}
	default:
		s.p, s.port, err = w.k.CreateVideoPath(&va)
	}
	if err != nil {
		return nil, err
	}
	if s.p != nil {
		s.sink = w.k.Display.Sink(s.p, "DISPLAY")
	}
	if s.src, err = host.NewSource(h, ss.source); err != nil {
		return nil, err
	}
	if s.set != nil {
		for i, hi := range w.hosts[1:] {
			s.src.AddSubflow(hi, ss.source.SrcPort+uint16(i+1))
		}
		s.src.Dispatch, s.src.OnSubAck, s.src.OnSubLoss = s.set.Dispatch, s.set.NoteAck, s.set.NoteLoss
	}
	s.total = int64(s.src.NumFrames())
	h.Engine().At(sim.Time(ss.startAt), func() { s.src.Start(scoutAddr, s.port) })
	return s, nil
}

// runUntil advances the engine until pred holds or the cap elapses, returning
// the time pred first held (or the cap).
func runUntil(eng *sim.Engine, cap time.Duration, pred func() bool) sim.Time {
	const step = 100 * time.Millisecond
	deadline := sim.Time(cap)
	for eng.Now() < deadline && !pred() {
		eng.RunUntil(min(eng.Now().Add(step), deadline))
	}
	return eng.Now()
}

// play runs until every stream has displayed its whole clip. A stream that
// lost packets for good, or a wedged migration, never gets there, so play
// also stops once frames have been shown and no sink has shown another for 3
// sim-seconds — far beyond the 500ms retransmission-timeout ceiling.
func (w *world) play(cap time.Duration) sim.Time {
	shown := make([]int64, len(w.streams))
	var anyChange sim.Time
	return runUntil(w.eng, cap, func() bool {
		done := true
		for i, s := range w.streams {
			if d := s.sink.Displayed(); d != shown[i] {
				shown[i], s.lastChange, anyChange = d, w.eng.Now(), w.eng.Now()
			}
			done = done && shown[i] >= s.total
		}
		return done || anyChange > 0 && w.eng.Now().Sub(anyChange) >= 3*time.Second
	})
}

// sent reports whether the stream's source has sent its last packet.
func (s *stream) sent() bool {
	done, _ := s.src.Done()
	return done
}

func rate(n int64, at sim.Time) float64 {
	if at <= 0 {
		return 0
	}
	return float64(n) / at.Seconds()
}
