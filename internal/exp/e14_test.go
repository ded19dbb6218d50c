package exp

import (
	"bytes"
	"testing"
	"time"

	"scout/internal/appliance"
	"scout/internal/chaos"
	"scout/internal/core"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/sim"
	"scout/internal/splice"
)

// e14TestWorld is the two-NIC migration topology at test size: a reliable
// Neptune stream over link 0 with link 1 idle as the spare.
type e14TestWorld struct {
	eng   *sim.Engine
	kern  *appliance.Kernel
	links []*netdev.Link
	p     *core.Path
	src   *host.Source
}

func newE14TestWorld(t *testing.T, frames int) *e14TestWorld {
	t.Helper()
	eng := sim.New(1)
	links := make([]*netdev.Link, 2)
	for i := range links {
		links[i] = netdev.NewLink(eng, netdev.LinkConfig{
			ID:         i,
			BitsPerSec: linkBps,
			Delay:      linkDelay + time.Duration(i)*20*time.Microsecond,
		})
	}
	bcfg := appliance.DefaultConfig()
	bcfg.MAC, bcfg.Addr = scoutMAC, scoutAddr
	bcfg.RefreshHz = 2000
	bcfg.ExtraLinks = links[1:]
	kern, err := appliance.Boot(eng, links[0], bcfg)
	if err != nil {
		t.Fatal(err)
	}
	hostA := host.New(links[0], srcMAC, srcAddr)
	hostB := host.New(links[1], srcMAC, srcAddr)
	clip := mpeg.Neptune
	clip.Frames = frames
	p, lport, err := kern.CreateVideoPath(&appliance.VideoAttrs{
		Source:    inet.Participants{RemoteAddr: srcAddr, RemotePort: 7000},
		FPS:       2000,
		CostModel: true,
		QueueLen:  32,
		Sched:     "rr",
		Priority:  2,
		Reliable:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := host.NewSource(hostA, host.SourceConfig{
		Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, Seed: 11,
		Retransmit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.AddSubflow(hostB, 7000)
	lp := lport
	eng.At(0, func() { src.Start(kern.Cfg.Addr, lp) })
	return &e14TestWorld{eng: eng, kern: kern, links: links, p: p, src: src}
}

// TestE14MigrationGate is the live-migration acceptance test: the smoke-size
// E14 pair must migrate exactly once, within budget, with zero incomplete
// frames, outputs matching the reference kernel, clean conservation audits,
// and flow-cache generation bumps on both the retired and adopting NIC (the
// stale-burst-memo guard).
func TestE14MigrationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("two migration runs")
	}
	res := RunE14(SmokeE14Config())
	if !res.Ok() {
		var b bytes.Buffer
		PrintE14(&b, res)
		t.Fatalf("E14 gate violated:\n%s", b.String())
	}
	budget := int64(res.Cfg.withDefaults().Budget)
	for name, c := range map[string]E14Cell{"fast": res.Fast, "reference": res.Ref} {
		if c.Migrations != 1 {
			t.Errorf("%s kernel: %d migrations, want 1", name, c.Migrations)
		}
		if c.MigrateLatencyNs > budget {
			t.Errorf("%s kernel: migration took %v, budget %v",
				name, time.Duration(c.MigrateLatencyNs), time.Duration(budget))
		}
		if c.Incomplete != 0 || c.Displayed != c.Total {
			t.Errorf("%s kernel: %d/%d displayed, %d incomplete",
				name, c.Displayed, c.Total, c.Incomplete)
		}
		if c.DeadLinkDrops == 0 {
			t.Errorf("%s kernel: dead link swallowed nothing — experiment degenerate", name)
		}
		// The failover redispatch is the whole repair: the loss signal the
		// sender raises is the threshold's worth of timeouts, not a second
		// timer chain's echo of them.
		if want := int64(res.Cfg.withDefaults().FailoverLosses); c.RTOs != want || c.Retx != 0 {
			t.Errorf("%s kernel: %d RTOs, %d fast retransmits; want %d and 0", name, c.RTOs, c.Retx, want)
		}
	}
	// The kernel actually runs the caches, so the resplice must have
	// advanced both generations: the retired NIC's (forget the path, burst
	// memos included) and the adopting NIC's (revalidate any memo formed
	// against pre-migration contents).
	if !res.Fast.OldGenBumped {
		t.Error("retired NIC's flow-cache generation did not advance")
	}
	if !res.Fast.NewGenBumped {
		t.Error("adopting NIC's flow-cache generation did not advance")
	}
}

// TestDestroyWhilePausedDrainsRetainedWork: a pause retains queued messages
// and their fbuf references at the boundary; a Destroy that races the
// migration window must drain all of it (conservation audit clean), stay
// idempotent, and make a later Resume a no-op.
func TestDestroyWhilePausedDrainsRetainedWork(t *testing.T) {
	w := newE14TestWorld(t, 60)
	sawRetained := false
	w.eng.At(sim.Time(100*time.Millisecond), func() {
		if err := w.p.PauseAt("MFLOW"); err != nil {
			t.Errorf("PauseAt: %v", err)
		}
	})
	w.eng.At(sim.Time(200*time.Millisecond), func() {
		// The sender kept streaming into the paused path, so work piled up
		// in the retained input queues.
		for _, qi := range []int{core.QInFWD, core.QInBWD} {
			if w.p.Q[qi].Len() > 0 {
				sawRetained = true
			}
		}
		w.p.Destroy()
		w.p.Destroy() // idempotent
		w.p.Resume()  // no-op on a dead path
		if !w.p.Dead() {
			t.Error("path not dead after Destroy")
		}
		if w.p.Paused() {
			t.Error("destroyed path still reports paused")
		}
	})
	runUntil(w.eng, 2*time.Second, func() bool { return false })
	if !sawRetained {
		t.Error("pause retained no queued work — test degenerate")
	}
	for _, v := range chaos.AuditPath(w.p) {
		t.Errorf("audit after destroy-while-paused: %s", v.String())
	}
}

// TestDestroyBeforeVerdictSkipsMigration: the path dies between the link
// death and the detector's silence verdict. The armed migration must notice
// the dead path and do nothing — no migration, no failure, no panic from
// the link-down overload notification — and the audit must stay clean.
func TestDestroyBeforeVerdictSkipsMigration(t *testing.T) {
	w := newE14TestWorld(t, 60)
	mig := w.kern.NewMigrator()
	err := mig.Arm(splice.Plan{
		Path: w.p, From: w.kern.Devs[0], To: w.kern.Devs[1], ToLink: 1,
		Silence: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.eng.At(sim.Time(250*time.Millisecond), func() { w.links[0].SetDown() })
	// Destroy before the 50ms silence window can elapse: the verdict then
	// fires on a dead path.
	w.eng.At(sim.Time(270*time.Millisecond), func() { w.p.Destroy() })
	runUntil(w.eng, 2*time.Second, func() bool { return false })
	if got := len(mig.Migrations()); got != 0 {
		t.Errorf("%d migrations on a destroyed path, want 0", got)
	}
	if mig.Failed() != 0 {
		t.Errorf("%d failed migrations, want 0 (dead path is a skip, not a failure)", mig.Failed())
	}
	for _, v := range chaos.AuditPath(w.p) {
		t.Errorf("audit after destroy-before-verdict: %s", v.String())
	}
}

// TestE14Deterministic re-runs the smoke pair and requires byte-identical
// rendered output (the in-process version of `make miggate`).
func TestE14Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pairs")
	}
	var a, b bytes.Buffer
	PrintE14(&a, RunE14(SmokeE14Config()))
	PrintE14(&b, RunE14(SmokeE14Config()))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("E14 output differs between identical runs")
	}
}
