package splice_test

import (
	"fmt"
	"testing"
	"time"

	"scout/internal/appliance"
	"scout/internal/chaos"
	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/pathtrace"
	"scout/internal/proto/inet"
	"scout/internal/sim"
	"scout/internal/splice"
)

var (
	srcMAC  = netdev.MAC{2, 0, 0, 0, 0, 0x20}
	srcAddr = inet.IP(10, 0, 0, 20)
)

// rig is a two-NIC appliance receiving a reliable, traced Neptune prefix at
// max rate. The sending host has the same identity on both wires, and the
// source rides subflow active: 0 until failover moves it to wire 1.
type rig struct {
	eng    *sim.Engine
	k      *appliance.Kernel
	p      *core.Path
	src    *host.Source
	sink   *display.Sink
	frames int64
	active int
}

func newRig(t *testing.T, tune func(*appliance.Config)) *rig {
	t.Helper()
	eng := sim.New(1)
	var links []*netdev.Link
	for id := 0; id < 2; id++ {
		links = append(links, netdev.NewLink(eng, netdev.LinkConfig{
			ID: id, BitsPerSec: 10_000_000, Delay: 20 * time.Microsecond,
		}))
	}
	cfg := appliance.DefaultConfig()
	cfg.RefreshHz = 2000
	cfg.Tracing = true
	cfg.ExtraLinks = links[1:]
	if tune != nil {
		tune(&cfg)
	}
	k, err := appliance.Boot(eng, links[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, lport, err := k.CreateVideoPath(&appliance.VideoAttrs{
		Source: inet.Participants{RemoteAddr: srcAddr, RemotePort: 7000},
		FPS:    2000, CostModel: true, QueueLen: 32, Sched: "rr", Priority: 2,
		Reliable: true, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	clip := mpeg.Neptune
	clip.Frames = 60
	src, err := host.NewSource(host.NewOn(links[0], srcMAC, srcAddr, eng), host.SourceConfig{
		Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, Seed: 11, Retransmit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.AddSubflow(host.NewOn(links[1], srcMAC, srcAddr, eng), 7000)
	r := &rig{eng: eng, k: k, p: p, src: src, sink: k.Display.Sink(p, "DISPLAY"), frames: int64(clip.Frames)}
	src.Dispatch = func(uint32, bool) int { return r.active }
	eng.At(0, func() { src.Start(cfg.Addr, lport) })
	return r
}

// arm arms m to move the path from NIC 0 to the NIC of link toLink.
func (r *rig) arm(t *testing.T, m *splice.Manager, toLink int) {
	t.Helper()
	if err := m.Arm(splice.Plan{Path: r.p, From: r.k.Devs[0], To: r.k.Devs[1], ToLink: toLink}); err != nil {
		t.Fatal(err)
	}
}

// failover delivers the link-down verdict the armed manager migrates on, and
// moves the source onto wire 1 in the same instant.
func (r *rig) failover() {
	r.active = 1
	r.p.NotifyOverload(core.OverloadLinkDown, 0)
	r.src.RedispatchUnacked()
}

// play runs until every frame has displayed, or fails after 5 virtual
// seconds.
func (r *rig) play(t *testing.T) {
	t.Helper()
	for r.sink.Displayed() < r.frames {
		if r.eng.Now() > sim.Time(5*time.Second) {
			t.Fatalf("displayed %d/%d frames", r.sink.Displayed(), r.frames)
		}
		r.eng.RunUntil(r.eng.Now().Add(10 * time.Millisecond))
	}
}

func TestArmRejectsIncompletePlans(t *testing.T) {
	r := newRig(t, nil)
	m := r.k.NewMigrator()
	from, to := r.k.Devs[0], r.k.Devs[1]
	for _, c := range []struct {
		name string
		pl   splice.Plan
	}{
		{"nil Path", splice.Plan{From: from, To: to}},
		{"nil From", splice.Plan{Path: r.p, To: to}},
		{"nil To", splice.Plan{Path: r.p, From: from}},
	} {
		if m.Arm(c.pl) == nil {
			t.Errorf("Arm accepted a plan with %s", c.name)
		}
	}
	if splice.New(r.eng, "NOPE").Arm(splice.Plan{Path: r.p, From: from, To: to}) == nil {
		t.Error("Arm accepted a path without the boundary stage")
	}
}

// TestArmKeepsEarlierOverloadHandler: arming wraps the path's OnOverload; the
// handler installed before keeps every kind but the link-down verdict, which
// migrates the path instead.
func TestArmKeepsEarlierOverloadHandler(t *testing.T) {
	r := newRig(t, nil)
	var got []core.OverloadKind
	r.p.OnOverload = func(_ *core.Path, kind core.OverloadKind, _ time.Duration) { got = append(got, kind) }
	m := r.k.NewMigrator()
	r.arm(t, m, 1)
	r.p.NotifyOverload(core.OverloadDeadlineMiss, time.Millisecond)
	r.p.NotifyOverload(core.OverloadStarvation, time.Millisecond)
	r.p.NotifyOverload(core.OverloadRevocation, 0)
	r.p.NotifyOverload(core.OverloadLinkDown, 0)
	if want := "[deadline-miss starvation revocation]"; fmt.Sprint(got) != want {
		t.Errorf("earlier handler saw %v, want %s", got, want)
	}
	if n := len(m.Migrations()); n != 1 {
		t.Errorf("%d migrations, want 1", n)
	}
}

// TestFailedRespliceDestroysPath: a plan naming a link the kernel does not
// have fails in the resplice; the manager counts it, destroys the path, and
// the path's conservation audit stays clean.
func TestFailedRespliceDestroysPath(t *testing.T) {
	r := newRig(t, nil)
	m := r.k.NewMigrator()
	r.arm(t, m, 7)
	r.eng.At(sim.Time(100*time.Millisecond), r.failover)
	r.eng.RunUntil(sim.Time(300 * time.Millisecond))
	if m.Failed() != 1 || len(m.Migrations()) != 0 {
		t.Errorf("failed %d, migrated %d; want 1 and 0", m.Failed(), len(m.Migrations()))
	}
	if !r.p.Dead() {
		t.Error("path survived a failed resplice")
	}
	for _, v := range chaos.AuditPath(r.p) {
		t.Errorf("audit: %s", v.String())
	}
}

// TestTracedMigrationKeepsRows: a traced path keeps its trace rows across a
// migration. The retained DISPLAY/MPEG/MFLOW rows and the rebuilt
// UDP/IP/ETH rows keep their trace IDs, the last row is renamed for the new
// NIC's router, and the rebuilt rows keep accruing executions.
func TestTracedMigrationKeepsRows(t *testing.T) {
	r := newRig(t, nil)
	m := r.k.NewMigrator()
	r.arm(t, m, 1)
	pi := r.k.Tracer.Path(r.p.PID)
	if pi == nil {
		t.Fatal("path not traced")
	}
	var rows []*pathtrace.StageMetrics
	var execs []int64
	r.eng.At(sim.Time(100*time.Millisecond), func() {
		rows = append(rows, pi.Stages...)
		for _, sm := range pi.Stages {
			execs = append(execs, sm.Execs)
		}
		r.failover()
	})
	r.play(t)
	if len(m.Migrations()) != 1 {
		t.Fatalf("%d migrations, want 1", len(m.Migrations()))
	}

	var names []string
	for i, sm := range pi.Stages {
		names = append(names, sm.Stage)
		if i < len(rows) && sm != rows[i] {
			t.Errorf("row %d (%s) was replaced", i, sm.Stage)
		}
		if i < len(execs) && sm.Execs <= execs[i] {
			t.Errorf("row %d (%s): %d executions before the migration, %d after", i, sm.Stage, execs[i], sm.Execs)
		}
	}
	if want := "[DISPLAY MPEG MFLOW UDP IP ETH1]"; fmt.Sprint(names) != want {
		t.Fatalf("rows %v, want %s", names, want)
	}
	// Every span, before and after the migration, carries its row's trace
	// ID; the retired ETH stage's spans share the row ETH1 took over.
	for _, ev := range r.k.Tracer.Events() {
		if ev.Kind != pathtrace.KindSpan {
			continue
		}
		want := map[string]int{"DISPLAY": 1, "MPEG": 2, "MFLOW": 3, "UDP": 4, "IP": 5, "ETH": 6, "ETH1": 6}[ev.Name]
		if ev.TID != want {
			t.Fatalf("span %s at %v has trace ID %d, want %d", ev.Name, ev.TS, ev.TID, want)
		}
	}
}

// TestILPSurvivesMigration: the ILP rule folds UDP's receive checksum into
// MPEG's read, so the path is charged no verification pass per inbound
// datagram. The UDP stage a migration rebuilds must keep that: the CPU the
// path is charged per UDP traversal after the migration stays what it was
// before it, instead of growing by a checksum pass over every datagram.
func TestILPSurvivesMigration(t *testing.T) {
	r := newRig(t, func(c *appliance.Config) { c.EnableILP = true })
	if !r.p.Transformed("ilp-udp-cksum-into-mpeg") {
		t.Fatal("ILP rule did not fire")
	}
	m := r.k.NewMigrator()
	r.arm(t, m, 1)
	row := r.k.Tracer.Path(r.p.PID).Stages[3]
	var execs int64
	var self time.Duration
	r.eng.At(sim.Time(100*time.Millisecond), func() {
		execs, self = row.Execs, row.SelfCPU
		r.failover()
	})
	r.play(t)
	if len(m.Migrations()) != 1 {
		t.Fatalf("%d migrations, want 1", len(m.Migrations()))
	}
	before := self / time.Duration(execs)
	after := (row.SelfCPU - self) / time.Duration(row.Execs-execs)
	t.Logf("UDP self CPU per traversal: %v before the migration, %v after", before, after)
	if after > before+before/10 {
		t.Errorf("UDP charges %v per traversal after the migration, %v before: the rebuilt stage verifies checksums again", after, before)
	}
}
