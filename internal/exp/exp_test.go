package exp

import (
	"testing"
	"time"
)

// The experiment tests assert the paper's *shapes* — who wins, by roughly
// what factor, where the crossovers are — not absolute numbers (see
// EXPERIMENTS.md). They run the full experiments on the virtual clock, so
// they are deterministic and fast in wall-clock terms.

func TestTable1ScoutBeatsBaselineOnEveryClip(t *testing.T) {
	rows := RunTable1(nil)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.ScoutFPS <= r.BaselineFPS {
			t.Errorf("%s: Scout %.1f <= baseline %.1f", r.Clip, r.ScoutFPS, r.BaselineFPS)
		}
		ratio := r.ScoutFPS / r.BaselineFPS
		if ratio < 1.05 || ratio > 1.6 {
			t.Errorf("%s: Scout/baseline ratio %.2f outside the paper's 1.1–1.4 band", r.Clip, ratio)
		}
		paper := PaperTable1[r.Clip]
		if r.ScoutFPS < paper[0]*0.8 || r.ScoutFPS > paper[0]*1.2 {
			t.Errorf("%s: Scout %.1f fps not within 20%% of paper's %.1f", r.Clip, r.ScoutFPS, paper[0])
		}
	}
	// Clip ordering must match the paper: Canyon ≫ RedsNightmare >
	// Neptune > Flower.
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Clip] = r
	}
	if !(byName["Canyon"].ScoutFPS > byName["RedsNightmare"].ScoutFPS &&
		byName["RedsNightmare"].ScoutFPS > byName["Neptune"].ScoutFPS &&
		byName["Neptune"].ScoutFPS > byName["Flower"].ScoutFPS) {
		t.Errorf("clip ordering wrong: %+v", rows)
	}
}

func TestTable2EarlySeparationProtectsScout(t *testing.T) {
	r := RunTable2()
	ds, db := r.Delta()
	if ds < -2 {
		t.Errorf("Scout dropped %.1f%% under flood; paper: -0.2%%", ds)
	}
	if db > -20 {
		t.Errorf("baseline dropped only %.1f%% under flood; paper: -42%%", db)
	}
	if r.ScoutLoaded <= r.BaselineLoaded {
		t.Errorf("loaded Scout %.1f <= loaded baseline %.1f", r.ScoutLoaded, r.BaselineLoaded)
	}
}

func TestEDFMeetsDeadlinesRRStarves(t *testing.T) {
	cfg := EDFConfig{NeptuneFrames: 400, CanyonFrames: 600}
	rows := RunEDF(cfg, []string{"edf", "rr"}, []int{128})
	var edf, rr EDFRow
	for _, r := range rows {
		switch r.Sched {
		case "edf":
			edf = r
		case "rr":
			rr = r
		}
	}
	if edf.NeptuneMissed > 2 {
		t.Errorf("EDF missed %d Neptune deadlines; paper: none", edf.NeptuneMissed)
	}
	if rr.NeptuneMissed < edf.NeptuneMissed+50 {
		t.Errorf("RR missed only %d vs EDF %d; paper: RR misses a large number", rr.NeptuneMissed, edf.NeptuneMissed)
	}
}

func TestRRMissesGrowWithQueueSize(t *testing.T) {
	cfg := EDFConfig{NeptuneFrames: 400, CanyonFrames: 600}
	rows := RunEDF(cfg, []string{"rr"}, []int{16, 128, 512})
	if !(rows[0].NeptuneMissed <= rows[1].NeptuneMissed && rows[1].NeptuneMissed < rows[2].NeptuneMissed) {
		t.Errorf("misses not monotone in queue size: %+v", rows)
	}
	if rows[2].NeptuneMissed*2 < rows[2].NeptuneTotal {
		t.Errorf("big queues: RR missed %d/%d, want a majority (the paper's ≈850/1345 regime)",
			rows[2].NeptuneMissed, rows[2].NeptuneTotal)
	}
}

func TestAdmissionModelAndEarlyDrop(t *testing.T) {
	r := RunAdmission(300)
	if r.R2 < 0.95 {
		t.Errorf("bits↔CPU R² = %.3f; paper reports a good correlation", r.R2)
	}
	// The configured decode model is 300ns/bit; the fit must recover it.
	if r.SlopeNsBit < 250 || r.SlopeNsBit > 350 {
		t.Errorf("fit slope %.0f ns/bit, configured 300", r.SlopeNsBit)
	}
	if r.EarlyDrops == 0 {
		t.Error("no packets dropped at the adapter with decimation 3")
	}
	if r.SavedFrac < 0.5 || r.SavedFrac > 0.75 {
		t.Errorf("early drop saved %.0f%%; expected ≈2/3", r.SavedFrac*100)
	}
}

func TestQueueSizingKnee(t *testing.T) {
	rtt := 20 * time.Millisecond
	rows := RunQueueSizing([]time.Duration{rtt}, []int{2, 8, 64})
	small, mid, big := rows[0], rows[1], rows[2]
	if small.PktPerSec*1.5 > big.PktPerSec {
		t.Errorf("qlen 2 throughput %.0f not clearly below qlen 64's %.0f at RTT %v",
			small.PktPerSec, big.PktPerSec, rtt)
	}
	if mid.PktPerSec <= small.PktPerSec {
		t.Errorf("throughput not increasing with queue size: %.0f <= %.0f", mid.PktPerSec, small.PktPerSec)
	}
	if big.Drops != 0 {
		t.Errorf("window flow control let %d packets drop", big.Drops)
	}
	if big.Predicted < 8 || big.Predicted > 64 {
		t.Errorf("predicted knee %d outside swept range", big.Predicted)
	}
}

func TestFootprintNearPaperSizes(t *testing.T) {
	k, err := NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	f, err := MeasureFootprint(k)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: path ≈300B, stage ≈150B. 64-bit Go fields are wider
	// than 1996 Alpha C structs; stay within smallish multiples.
	if f.PathBytes < 100 || f.PathBytes > 900 {
		t.Errorf("path object %d bytes (paper ≈300)", f.PathBytes)
	}
	if f.StageBytes < 80 || f.StageBytes > 450 {
		t.Errorf("stage+ifaces %d bytes (paper ≈150)", f.StageBytes)
	}
	if f.PathLen != 4 {
		t.Errorf("UDP path has %d stages (TEST/UDP/IP/ETH)", f.PathLen)
	}
}

func TestDemuxFindsVideoPath(t *testing.T) {
	k, err := NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	p, err := k.Graph.CreatePath(testR, TestPathAttrs(9200))
	if err != nil {
		t.Fatal(err)
	}
	m := BuildVideoFrame(k, 9200, 512)
	got, err := k.ETH.Classify(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("classifier returned %v, want %v", got, p)
	}
	// Classification must not consume the message.
	if m.Len() != 14+20+8+17+512 {
		t.Fatalf("classifier consumed bytes: len=%d", m.Len())
	}
}

func TestILPTransformationReducesCost(t *testing.T) {
	withILP := RunILP(true, 100)
	without := RunILP(false, 100)
	if withILP >= without {
		t.Errorf("ILP fused path cost %v >= unfused %v", withILP, without)
	}
	// The saving is the checksum pass: 2ns/byte over ≈1400B ≈ 2.8µs.
	saved := without - withILP
	if saved < time.Microsecond || saved > 10*time.Microsecond {
		t.Errorf("ILP saved %v per packet, expected a few µs", saved)
	}
}
