package routers

import (
	"errors"
	"fmt"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/msg"
	"scout/internal/sched"
	"scout/internal/sim"
)

// DisplayImpl is the DISPLAY router at the top of Figure 9: it owns the
// framebuffer, attaches each video path's output queue to a vsync-drained
// sink, runs the path's worker thread, and implements the wakeup callback
// that gives the thread its EDF deadline from the bottleneck queue (§4.3).
type DisplayImpl struct {
	dev *display.Device
	cpu *sched.Sched

	// DitherPerPixel is the CPU charged per pixel for dithering and
	// display conversion — with decompression, one of the two dominant
	// costs (§4.1).
	DitherPerPixel time.Duration
	// PipeDepth is the n of §4.3's input-queue deadline rule: the number
	// of packets that should stay in transit to keep the network busy.
	PipeDepth int

	// OnFrameDone, when non-nil, observes every completed frame together
	// with the CPU the path spent producing it since the previous frame —
	// the measurement §4.4's admission-control model is fit from.
	OnFrameDone func(p *core.Path, f *display.Frame, cpu time.Duration)
}

// NewDisplay returns a DISPLAY router over dev, scheduling path threads on
// cpu.
func NewDisplay(dev *display.Device, cpu *sched.Sched) *DisplayImpl {
	return &DisplayImpl{dev: dev, cpu: cpu, DitherPerPixel: 30 * time.Nanosecond, PipeDepth: 2}
}

// Device exposes the framebuffer.
func (d *DisplayImpl) Device() *display.Device { return d.dev }

// Services declares down links to decoders (video type); a DISPLAY may be
// connected to several decoder routers.
func (d *DisplayImpl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{{Name: "down", Type: VideoServiceType}}
}

// Init has no work.
func (d *DisplayImpl) Init(r *core.Router) error { return nil }

// displayStage is the per-path display-end state.
type displayStage struct {
	impl    *DisplayImpl
	path    *core.Path
	sink    *display.Sink
	thread  *sched.Thread
	done    func() // the thread's completion callback (see flusher)
	pending []*display.Frame
	period  time.Duration
	cpuAcc  time.Duration // CPU since the last completed frame

	Overflow int64 // frames that found the output queue full (dropped)
	Injected int64
}

// CreateStage contributes the DISPLAY stage. Paths are created on DISPLAY
// (by SHELL or directly); PA_PATHNAME names the decoder router the creation
// is forwarded to ("MPEG" in the paper's example).
func (d *DisplayImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	if enter != core.NoService {
		return nil, nil, errors.New("display: paths must start at DISPLAY")
	}
	name, _ := a.String(attr.PathName)
	if name == "" {
		return nil, nil, errors.New("display: PA_PATHNAME required to pick a decoder")
	}
	var next *core.NextHop
	for _, l := range r.Links(r.ServiceIndex("down")) {
		if l.Peer.Name == name {
			next = &core.NextHop{Router: l.Peer, Service: l.PeerService}
			break
		}
	}
	if next == nil {
		return nil, nil, fmt.Errorf("display: no decoder router %q connected", name)
	}

	sd := &displayStage{impl: d}
	s := &core.Stage{Data: sd}
	// BWD: decoded frames arrive here; this is the end of the path. The
	// dithering/display-conversion cost lives in this stage.
	s.SetIface(core.BWD, NewVideoIface(func(i *VideoIface, f *display.Frame) error {
		i.Base().Stage.Path.ChargeExec(time.Duration(f.W*f.H) * d.DitherPerPixel)
		sd.pending = append(sd.pending, f)
		return nil
	}))

	s.Establish = func(s *core.Stage, a *attr.Attrs) error {
		p := s.Path
		sd.path = p
		fps := a.IntDefault(AttrFPS, 30)
		if fps <= 0 {
			return fmt.Errorf("display: bad fps %d", fps)
		}
		frames := a.IntDefault(AttrFrames, 0)
		sd.period = time.Duration(int64(time.Second) / int64(fps))
		sd.sink = d.dev.Attach(fmt.Sprintf("%s#%d", name, p.PID), p.Q[core.QOutBWD], sd.period, frames)
		sd.sink.WaitFirst = true
		// Pre-buffer a handful of frames before playback starts, bounded
		// by what the output queue can hold.
		sd.sink.Prime = 8
		if max := p.Q[core.QOutBWD].Max() / 2; sd.sink.Prime > max {
			sd.sink.Prime = max
		}
		sd.thread = d.cpu.NewThread(fmt.Sprintf("video-%d", p.PID), sched.PolicyRR, sd.run)
		sd.thread.AttachPath(p)
		sd.done = sd.flusher(p.Q[core.QInBWD], sd.thread)
		p.Q[core.QInBWD].NotEmpty = sd.thread.Wake
		sd.sink.OnDrain = sd.thread.Wake
		d.installWakeup(p, sd, a)
		return nil
	}
	s.Destroy = func(*core.Stage) {
		if sd.sink != nil {
			d.dev.Detach(sd.sink)
		}
	}
	return s, next, nil
}

// installWakeup sets the path's wakeup callback according to its scheduling
// attributes: EDF with the bottleneck-queue deadline (the default, §4.3) or
// fixed-priority round-robin.
func (d *DisplayImpl) installWakeup(p *core.Path, sd *displayStage, a *attr.Attrs) {
	policy, _ := a.String(AttrSched)
	switch policy {
	case "", "edf":
		from, _ := a.String(AttrDeadlineFrom)
		p.Wakeup = func(p *core.Path, t core.ThreadControl) {
			t.SetPolicy(sched.PolicyEDF)
			t.SetDeadline(int64(sd.deadline(from)))
		}
	case "rr":
		prio := a.IntDefault(AttrPriority, 2)
		p.Wakeup = func(p *core.Path, t core.ThreadControl) {
			t.SetPolicy(sched.PolicyRR)
			t.SetPriority(prio)
		}
	default:
		// Leave the thread on its creation policy.
	}
}

// deadline computes the thread's next deadline from the bottleneck queue.
func (sd *displayStage) deadline(from string) sim.Time {
	switch from {
	case "", "out":
		return sd.outDeadline()
	case "in":
		return sd.inDeadline()
	default: // "min": effective deadline is the earlier of the two (§4.3)
		o, i := sd.outDeadline(), sd.inDeadline()
		if i < o {
			return i
		}
		return o
	}
}

// outDeadline is the display time of the next frame to be put in the output
// queue: if the queue holds k frames, the frame we are about to produce is
// needed k display periods after the sink's next due time.
func (sd *displayStage) outDeadline() sim.Time {
	k := sd.path.Q[core.QOutBWD].Len()
	return sd.sink.NextDue().Add(time.Duration(k) * sd.period)
}

// inDeadline is the time at which the input queue would no longer let MFLOW
// advertise an open window of PipeDepth packets, estimated from the average
// packet arrival rate (§4.3).
func (sd *displayStage) inDeadline() sim.Time {
	q := sd.path.Q[core.QInBWD]
	now := sd.impl.cpu.Engine().Now()
	slack := q.Free() - sd.impl.PipeDepth
	if slack <= 0 {
		return now
	}
	// Average arrival interval so far; before any arrivals, no pressure.
	enq := q.Enqueued()
	if enq == 0 || now == 0 {
		return sim.Never
	}
	interarrival := time.Duration(int64(now) / enq)
	return now.Add(time.Duration(slack) * interarrival)
}

// run services one input-queue packet per execution; it sleeps while the
// output queue is full — "if the output queue is full already, there is
// little point in scheduling a thread to process a packet in the input
// queue" (§4.1).
func (sd *displayStage) run(*sched.Thread) (time.Duration, func()) {
	p := sd.path
	if p.Dead() || p.Paused() {
		return 0, nil // Resume refires the input queue's NotEmpty hook
	}
	outQ := p.Q[core.QOutBWD]
	inQ := p.Q[core.QInBWD]
	if outQ.Full() {
		return 0, nil // sink's OnDrain will wake us
	}
	item := inQ.Dequeue()
	if item == nil {
		return 0, nil
	}
	m := item.(*msg.Msg)
	sd.Injected++
	if err := p.Inject(core.BWD, m); err != nil {
		// Stages free the message on their error paths; nothing to do.
		_ = err
	}
	cost := p.TakeExecCost()
	sd.cpuAcc += cost
	return cost, sd.done
}

// flusher builds the completion callback of a worker thread t that feeds
// this stage from inQ — once per thread, since it runs after every packet.
// It moves the frames the execution completed into the output queue and
// re-wakes the thread while there is input and room for its output.
func (sd *displayStage) flusher(inQ *core.Queue, t *sched.Thread) func() {
	p := sd.path
	outQ := p.Q[core.QOutBWD]
	return func() {
		if p.Dead() { // destroyed mid-execution: its queues are drained for good
			sd.pending = sd.pending[:0]
			return
		}
		for _, f := range sd.pending {
			if sd.impl.OnFrameDone != nil {
				sd.impl.OnFrameDone(p, f, sd.cpuAcc)
			}
			sd.cpuAcc = 0
			if !outQ.Enqueue(f) {
				sd.Overflow++
			}
		}
		sd.pending = sd.pending[:0]
		if !inQ.Empty() && !outQ.Full() {
			t.Wake()
		}
	}
}

// ServeJoined runs the worker thread for a multipath sibling path joined to
// prim's flow. Packets injected on sib climb sib's lower stages into the
// shared MFLOW state and, once in sequence, continue up prim's decoder
// chain — so decoded frames land in prim's DISPLAY stage. The sibling's
// thread therefore mirrors prim's worker exactly: it backs off while the
// shared output queue is full, and it flushes prim's pending frames after
// each injection. Returns nil if prim has no DISPLAY stage.
func (d *DisplayImpl) ServeJoined(prim, sib *core.Path, name string) *sched.Thread {
	s := prim.StageOf("DISPLAY")
	if s == nil {
		return nil
	}
	sd, ok := s.Data.(*displayStage)
	if !ok {
		return nil
	}
	var done func()
	t := d.cpu.NewThread(name, sched.PolicyRR, func(*sched.Thread) (time.Duration, func()) {
		if sib.Dead() || prim.Dead() || sib.Paused() || prim.Paused() {
			return 0, nil // Resume refires the input queue's NotEmpty hook
		}
		outQ := prim.Q[core.QOutBWD]
		inQ := sib.Q[core.QInBWD]
		if outQ.Full() {
			return 0, nil // the sink's OnDrain will wake us
		}
		item := inQ.Dequeue()
		if item == nil {
			return 0, nil
		}
		m := item.(*msg.Msg)
		sd.Injected++
		if err := sib.Inject(core.BWD, m); err != nil {
			// Stages free the message on their error paths; nothing to do.
			_ = err
		}
		// Lower-stage cost accrued on sib, decode/dither above MFLOW on prim.
		cost := sib.TakeExecCost() + prim.TakeExecCost()
		sd.cpuAcc += cost
		return cost, done
	})
	done = sd.flusher(sib.Q[core.QInBWD], t)
	// The sibling rides the flow's scheduling contract: prim's wakeup closure
	// computes EDF deadlines from the shared bottleneck queues, so it applies
	// unchanged to every subpath's thread.
	sib.Wakeup = prim.Wakeup
	t.AttachPath(sib)
	sib.Q[core.QInBWD].NotEmpty = t.Wake
	if sd.sink != nil {
		prev := sd.sink.OnDrain
		sd.sink.OnDrain = func() {
			if prev != nil {
				prev()
			}
			t.Wake()
		}
	}
	return t
}

// Sink returns the display sink of path p's DISPLAY stage (nil if absent).
func (d *DisplayImpl) Sink(p *core.Path, routerName string) *display.Sink {
	s := p.StageOf(routerName)
	if s == nil {
		return nil
	}
	sd, ok := s.Data.(*displayStage)
	if !ok {
		return nil
	}
	return sd.sink
}

// Thread returns the worker thread of path p's DISPLAY stage.
func (d *DisplayImpl) Thread(p *core.Path, routerName string) *sched.Thread {
	s := p.StageOf(routerName)
	if s == nil {
		return nil
	}
	sd, ok := s.Data.(*displayStage)
	if !ok {
		return nil
	}
	return sd.thread
}
