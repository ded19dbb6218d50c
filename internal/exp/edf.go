package exp

import (
	"io"
	"time"

	"scout/internal/appliance"
	"scout/internal/host"
	"scout/internal/mpeg"
)

// EDFRow is one configuration of the §4.3 scheduling experiment: 8 Canyon
// movies at 10 fps plus one Neptune movie at 30 fps, under EDF or
// single-priority round-robin, with a given per-path queue size. The paper
// reports that EDF misses no deadlines while round-robin with 128-frame
// queues misses on the order of 850 of Neptune's 1345.
type EDFRow struct {
	Sched    string
	QueueLen int

	NeptuneMissed, NeptuneTotal int64
	CanyonMissed, CanyonTotal   int64
}

// EDFRows is the scheduler × queue-size sweep.
type EDFRows []EDFRow

// EDFConfig bounds the experiment (full-length clips by default).
type EDFConfig struct {
	NeptuneFrames int // default 1345
	CanyonFrames  int // default 1758
	Canyons       int // default 8
}

// RunEDF runs the experiment for each scheduler × queue-size combination.
func RunEDF(cfg EDFConfig, scheds []string, queueLens []int) EDFRows {
	if cfg.NeptuneFrames == 0 {
		cfg.NeptuneFrames = mpeg.Neptune.Frames
	}
	if cfg.CanyonFrames == 0 {
		cfg.CanyonFrames = mpeg.Canyon.Frames
	}
	if cfg.Canyons == 0 {
		cfg.Canyons = 8
	}
	if scheds == nil {
		scheds = []string{"edf", "rr"}
	}
	if queueLens == nil {
		queueLens = []int{16, 32, 64, 128}
	}
	var rows EDFRows
	for _, sc := range scheds {
		for _, ql := range queueLens {
			rows = append(rows, edfContenders.play(sc, cfg, appliance.VideoAttrs{
				QueueLen: ql, Sched: sc,
				Priority: 2, // single-priority RR: everyone at the default
			}))
		}
	}
	return rows
}

// contenders identifies one instance of §4.3's workload — a Neptune movie at
// 30 fps against Canyon movies at 10 fps on a real 60 Hz display — by its
// world seed and where its senders' MACs, addresses and clip seeds start:
// each stream gets a source host of its own.
type contenders struct {
	seed      int64
	mac, addr byte
	clipSeed  int64
}

var (
	edfContenders      = contenders{seed: 3, mac: 0x40, addr: 100, clipSeed: 21}
	deadlineContenders = contenders{seed: 6, mac: 0x60, addr: 150, clipSeed: 31}
)

// play runs the workload, every path created from attrs, until the Neptune
// sink has accounted for every frame (display or miss); its clip is the
// shortest in wall-clock terms. sched labels the row.
func (c contenders) play(sched string, cfg EDFConfig, attrs appliance.VideoAttrs) EDFRow {
	neptune, canyon := mpeg.Neptune, mpeg.Canyon
	neptune.Frames, canyon.Frames = cfg.NeptuneFrames, cfg.CanyonFrames
	spec := worldSpec{seed: c.seed}
	for i := 0; i <= cfg.Canyons; i++ {
		clip, fps := canyon, 10
		if i == 0 {
			clip, fps = neptune, 30
		}
		ss := streamSpec{attrs: attrs, mac: srcMAC, addr: srcAddr}
		ss.mac[5], ss.addr[3] = c.mac+byte(i), c.addr+byte(i)
		ss.attrs.FPS, ss.attrs.Frames, ss.attrs.CostModel = fps, clip.Frames, true
		ss.source = host.SourceConfig{
			Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, Seed: c.clipSeed + int64(i),
		}
		spec.streams = append(spec.streams, ss)
	}
	w := newWorld(spec)
	runUntil(w.eng, 30*time.Minute, w.streams[0].sink.Done)
	row := EDFRow{Sched: sched, QueueLen: attrs.QueueLen}
	for i, s := range w.streams {
		missed, owed := s.sink.Missed(), s.sink.Displayed()+s.sink.Missed()
		if i == 0 {
			row.NeptuneMissed, row.NeptuneTotal = missed, owed
		} else {
			row.CanyonMissed += missed
			row.CanyonTotal += owed
		}
	}
	return row
}

// Print renders the sweep.
func (rows EDFRows) Print(w io.Writer) {
	fprintf(w, "§4.3: deadline misses, 8×Canyon@10fps + Neptune@30fps\n")
	fprintf(w, "(paper: EDF misses none; single-priority RR with 128-frame queues\n")
	fprintf(w, " misses ≈850 of Neptune's 1345)\n")
	width := 6 // of the sched column; the deadline-mode ablation's labels are longer
	for _, r := range rows {
		width = max(width, len(r.Sched))
	}
	fprintf(w, "%-*s %6s | %14s | %14s\n", width, "sched", "qlen", "Neptune missed", "Canyon missed")
	for _, r := range rows {
		fprintf(w, "%-*s %6d | %7d/%6d | %7d/%6d\n",
			width, r.Sched, r.QueueLen, r.NeptuneMissed, r.NeptuneTotal, r.CanyonMissed, r.CanyonTotal)
	}
}
