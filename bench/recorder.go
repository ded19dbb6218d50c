package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"time"

	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/routers"
)

// spanKind names a layer boundary the recorder can bracket from outside the
// program: one engine step, the device's receive handler, and each stage's
// deliver function.
type spanKind uint8

const (
	spStep  spanKind = iota // one Engine.Step (or a whole Cluster.RunUntil)
	spEthRx                 // Device.OnReceive / OnReceiveBurst
	spETH
	spIP
	spUDP
	spMFLOW
	spMPEG
	spDISPLAY
	spTEST
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"sim.step", "eth.rx", "stage.ETH", "stage.IP", "stage.UDP",
	"stage.MFLOW", "stage.MPEG", "stage.DISPLAY", "stage.TEST",
}

// stageKind maps a router name to the span that brackets its stages.
// Routers without an entry (ARP, ICMP, SHELL) are left unwrapped; their time
// stays in the enclosing span's self time.
func stageKind(router string) (spanKind, bool) {
	for k := spETH; k < nSpanKinds; k++ {
		if spanNames[k] == "stage."+router {
			return k, true
		}
	}
	return 0, false
}

// rawSpan is one recorded span. parent indexes the enclosing span of the
// same step in the raw slice, or -1 for a step's root.
type rawSpan struct {
	kind       spanKind
	parent     int32
	step       uint32
	start, end int64 // ns since the recorder was created
}

// rawSteps is how many steps keep their raw spans; aggregates cover the
// whole run.
const rawSteps = 100_000

type openSpan struct {
	kind     spanKind
	start    int64
	children int64 // ns covered by already-closed child spans
	raw      int32 // index in raw, or -1 past the raw window
}

type spanAgg struct {
	count, total, self int64
	kids               int64 // direct child spans closed inside spans of this kind
}

// recorder measures wall-clock spans around calls into the layers. All its
// state lives here, and the clock is handed in by main: the wrappers it
// installs run on the simulated data path, where scoutlint bans both
// package-level state and direct wall-clock reads.
type recorder struct {
	now   func() time.Time
	base  time.Time
	stack []openSpan
	agg   [nSpanKinds]spanAgg
	raw   []rawSpan
	steps uint32

	// What one span costs the ledger, calibrated by probeCost: inner lands
	// in the span's own self time, outer in its parent's.
	inner, outer float64
}

func newRecorder(now func() time.Time) *recorder {
	return &recorder{now: now, base: now(), stack: make([]openSpan, 0, 16)}
}

func (r *recorder) begin(k spanKind) {
	o := openSpan{kind: k, raw: -1}
	if r.steps < rawSteps {
		parent := int32(-1)
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].raw
		}
		o.raw = int32(len(r.raw))
		r.raw = append(r.raw, rawSpan{kind: k, parent: parent, step: r.steps})
	}
	r.stack = append(r.stack, o)
	// Read the clock last so the bookkeeping above is charged to the parent.
	r.stack[len(r.stack)-1].start = int64(r.now().Sub(r.base))
}

func (r *recorder) end() {
	end := int64(r.now().Sub(r.base))
	n := len(r.stack) - 1
	o := r.stack[n]
	r.stack = r.stack[:n]
	dur := end - o.start
	a := &r.agg[o.kind]
	a.count++
	a.total += dur
	a.self += dur - o.children
	if n > 0 {
		r.stack[n-1].children += dur
		r.agg[r.stack[n-1].kind].kids++
	} else {
		r.steps++
	}
	if o.raw >= 0 {
		r.raw[o.raw].start, r.raw[o.raw].end = o.start, end
	}
}

// wrapDevice brackets the device's receive handlers.
func (r *recorder) wrapDevice(d *netdev.Device) {
	if rx := d.OnReceive; rx != nil {
		d.OnReceive = func(m *msg.Msg) {
			r.begin(spEthRx)
			rx(m)
			r.end()
		}
	}
	if rxb := d.OnReceiveBurst; rxb != nil {
		d.OnReceiveBurst = func(frames []*msg.Msg) {
			r.begin(spEthRx)
			rxb(frames)
			r.end()
		}
	}
}

// wrapPath brackets every stage's deliver function in both directions. It
// must run after CreatePath, so the wrappers sit on top of whatever fusion
// and the transformation rules installed.
func (r *recorder) wrapPath(p *core.Path) {
	for _, st := range p.Stages() {
		k, ok := stageKind(st.Router.Name)
		if !ok {
			continue
		}
		for d := 0; d < 2; d++ {
			switch i := st.End[d].(type) {
			case *core.NetIface:
				if i == nil || i.Deliver == nil {
					continue
				}
				orig := i.Deliver
				i.Deliver = func(ni *core.NetIface, m *msg.Msg) error {
					r.begin(k)
					err := orig(ni, m)
					r.end()
					return err
				}
			case *routers.VideoIface:
				if i == nil || i.DeliverFrame == nil {
					continue
				}
				orig := i.DeliverFrame
				i.DeliverFrame = func(vi *routers.VideoIface, f *display.Frame) error {
					r.begin(k)
					err := orig(vi, f)
					r.end()
					return err
				}
			}
		}
	}
}

// probeCost measures what an empty span adds to its own self time (inner)
// and to its parent's (outer): two clock reads and the bookkeeping around
// them, which on the packet workloads is more than the work being timed.
func probeCost(now func() time.Time) (inner, outer float64) {
	const n = 20000
	r := newRecorder(now)
	r.steps = rawSteps // aggregates only, as in all but the start of a run
	r.begin(spStep)
	for i := 0; i < n; i++ {
		r.begin(spEthRx)
		r.end()
	}
	r.end()
	return float64(r.agg[spEthRx].self) / n, float64(r.agg[spStep].self) / n
}

// netSelf is kind k's total self time in ns, net of the probes' own cost.
func (r *recorder) netSelf(k spanKind) float64 {
	a := r.agg[k]
	return math.Max(0, float64(a.self)-float64(a.count)*r.inner-float64(a.kids)*r.outer)
}

// selfNs reports kind k's net self time in ns per op.
func (r *recorder) selfNs(k spanKind, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return r.netSelf(k) / float64(ops)
}

// netTotal is the time under the root spans net of probe cost; it equals
// the sum of every kind's net self time.
func (r *recorder) netTotal() float64 {
	sum := 0.0
	for k := spStep; k < nSpanKinds; k++ {
		sum += r.netSelf(k)
	}
	return sum
}

// coveragePct is the share of root-span time attributed to spans below it.
func (r *recorder) coveragePct() float64 {
	total := r.netTotal()
	if total == 0 {
		return 0
	}
	return 100 * (total - r.netSelf(spStep)) / total
}

// writeTrace writes the raw spans as one JSON document; README.md describes
// the layout.
func (r *recorder) writeTrace(w io.Writer, workload string, seed int64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"workload":%q,"seed":%d,"unit":"ns","probe_inner_ns":%.1f,"probe_outer_ns":%.1f,"names":[`,
		workload, seed, r.inner, r.outer)
	for k, name := range spanNames {
		if k > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%q", name)
	}
	bw.WriteString(`],"columns":["name","start","end","parent","step"],"spans":[`)
	for i, s := range r.raw {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n[%d,%d,%d,%d,%d]", s.kind, s.start, s.end, s.parent, s.step)
	}
	bw.WriteString(`],"aggregates":{`)
	for k, name := range spanNames {
		if k > 0 {
			bw.WriteByte(',')
		}
		a := r.agg[k]
		fmt.Fprintf(bw, "\n%q:{\"count\":%d,\"children\":%d,\"total_ns\":%d,\"self_ns\":%d,\"net_self_ns\":%.0f}",
			name, a.count, a.kids, a.total, a.self, r.netSelf(spanKind(k)))
	}
	bw.WriteString("}}\n")
	return bw.Flush()
}
