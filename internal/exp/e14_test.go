package exp

import (
	"bytes"
	"testing"
	"time"

	"scout/internal/appliance"
	"scout/internal/chaos"
	"scout/internal/core"
	"scout/internal/sim"
	"scout/internal/splice"
)

// newE14TestWorld is E14's two-NIC migration topology at test size, on the
// kernel, with no migration armed and the link left alone.
func newE14TestWorld(frames int) (*world, *core.Path) {
	w := e14World(E14Config{Frames: frames}.withDefaults(), appliance.Boot)
	return w, w.streams[0].p
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
		res.Print(&b)
		t.Fatalf("E14 gate violated:\n%s", b.String())
	}
	for name, c := range map[string]E14Cell{"fast": res.Fast, "reference": res.Ref} {
		if c.Migrations != 1 {
			t.Errorf("%s kernel: %d migrations, want 1", name, c.Migrations)
		}
		if c.MigrateLatencyNs > int64(e14Budget) {
			t.Errorf("%s kernel: migration took %v, budget %v",
				name, time.Duration(c.MigrateLatencyNs), e14Budget)
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
		if want := int64(e14FailoverLosses); c.RTOs != want || c.Retx != 0 {
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
	w, p := newE14TestWorld(60)
	sawRetained := false
	w.eng.At(sim.Time(100*time.Millisecond), func() {
		if err := p.PauseAt("MFLOW"); err != nil {
			t.Errorf("PauseAt: %v", err)
		}
	})
	w.eng.At(sim.Time(200*time.Millisecond), func() {
		// The sender kept streaming into the paused path, so work piled up
		// in the retained input queues.
		for _, qi := range []int{core.QInFWD, core.QInBWD} {
			if p.Q[qi].Len() > 0 {
				sawRetained = true
			}
		}
		p.Destroy()
		p.Destroy() // idempotent
		p.Resume()  // no-op on a dead path
		if !p.Dead() {
			t.Error("path not dead after Destroy")
		}
		if p.Paused() {
			t.Error("destroyed path still reports paused")
		}
	})
	w.eng.RunUntil(sim.Time(2 * time.Second))
	if !sawRetained {
		t.Error("pause retained no queued work — test degenerate")
	}
	for _, v := range chaos.AuditPath(p) {
		t.Errorf("audit after destroy-while-paused: %s", v.String())
	}
}

// TestDestroyBeforeVerdictSkipsMigration: the path dies between the link
// death and the detector's silence verdict. The armed migration must notice
// the dead path and do nothing — no migration, no failure, no panic from
// the link-down overload notification — and the audit must stay clean.
func TestDestroyBeforeVerdictSkipsMigration(t *testing.T) {
	w, p := newE14TestWorld(60)
	mig := w.k.NewMigrator()
	err := mig.Arm(splice.Plan{
		Path: p, From: w.k.Devs[0], To: w.k.Devs[1], ToLink: 1,
		Silence: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.eng.At(sim.Time(250*time.Millisecond), func() { w.links[0].SetDown() })
	// Destroy before the 50ms silence window can elapse: the verdict then
	// fires on a dead path.
	w.eng.At(sim.Time(270*time.Millisecond), func() { p.Destroy() })
	w.eng.RunUntil(sim.Time(2 * time.Second))
	if got := len(mig.Migrations()); got != 0 {
		t.Errorf("%d migrations on a destroyed path, want 0", got)
	}
	if mig.Failed() != 0 {
		t.Errorf("%d failed migrations, want 0 (dead path is a skip, not a failure)", mig.Failed())
	}
	for _, v := range chaos.AuditPath(p) {
		t.Errorf("audit after destroy-before-verdict: %s", v.String())
	}
}

// TestStallSurvivesMigration: a chaos stall on the UDP stage is a path
// interposer, so the UDP stage the migration rebuilds carries it too. The
// link dies at 250ms, the path migrates about 47ms later, and the sender
// fails over to subflow 1 at 320ms; stalled deliveries must keep counting
// after that, as the rebuilt stage carries the traffic.
func TestStallSurvivesMigration(t *testing.T) {
	w, p := newE14TestWorld(300)
	mig := w.k.NewMigrator()
	if err := mig.Arm(splice.Plan{
		Path: p, From: w.k.Devs[0], To: w.k.Devs[1], ToLink: 1, Silence: e14Silence,
	}); err != nil {
		t.Fatal(err)
	}
	src := w.streams[0].src
	active := 0
	src.Dispatch = func(uint32, bool) int { return active }
	w.eng.At(sim.Time(e14KillAt), w.links[0].SetDown)
	w.eng.At(sim.Time(320*time.Millisecond), func() {
		active = 1
		src.RedispatchUnacked()
	})
	inj := chaos.New(w.eng)
	if !inj.StallStage(p, "UDP", time.Microsecond, 0, sim.Time(time.Hour)) {
		t.Fatal("no UDP stage to stall")
	}
	var at400 int64
	w.eng.At(sim.Time(400*time.Millisecond), func() { at400 = inj.Stats().StalledCalls })
	w.play(10 * time.Minute)

	if n := len(mig.Migrations()); n != 1 {
		t.Fatalf("%d migrations, want 1", n)
	}
	if s := w.streams[0]; s.sink.Displayed() != s.total {
		t.Fatalf("displayed %d/%d frames", s.sink.Displayed(), s.total)
	}
	if end := inj.Stats().StalledCalls; end <= at400 {
		t.Errorf("stalled deliveries: %d at 400ms, %d at the end; the rebuilt UDP stage lost the stall", at400, end)
	}
}
