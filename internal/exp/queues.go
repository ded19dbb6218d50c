package exp

import (
	"io"
	"time"

	"scout/internal/appliance"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/mflow"
)

// QueueRow is one point of the §4.2 input-queue sizing experiment: with a
// given round-trip time and input queue size, the achieved throughput of a
// stream whose per-packet processing is cheaper than its serialization time
// (so the network, not the CPU, is the bottleneck). The paper's rule: the
// input queue must hold two times the RTT×bandwidth product to keep the
// pipe full.
type QueueRow struct {
	RTT       time.Duration
	QueueLen  int
	Predicted int // 2 × RTT × BW / packet size, packets
	PktPerSec float64
	Drops     int64
}

// wireClip is a deliberately cheap-to-decode stream: ~1kbit frames, so
// packet processing ≪ serialization and the window is what limits
// throughput.
var wireClip = mpeg.ClipSpec{
	Name: "Wire", Frames: 40000, W: 32, H: 32, FPS: 30, GOP: 1,
	AvgPBits: 10800, Jitter: 0,
}

// QueueRows is the RTT × queue-size sweep.
type QueueRows []QueueRow

// RunQueueSizing sweeps queue sizes for each RTT.
func RunQueueSizing(rtts []time.Duration, queueLens []int) QueueRows {
	if rtts == nil {
		rtts = []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	}
	if queueLens == nil {
		queueLens = []int{2, 4, 8, 16, 32, 64}
	}
	var rows QueueRows
	for _, rtt := range rtts {
		for _, ql := range queueLens {
			rows = append(rows, runQueueOnce(rtt, ql))
		}
	}
	return rows
}

func runQueueOnce(rtt time.Duration, queueLen int) QueueRow {
	w := newWorld(worldSpec{
		seed: 5, maxRate: true, link: netdev.LinkConfig{Delay: rtt / 2},
		streams: []streamSpec{{
			attrs: appliance.VideoAttrs{FPS: 2000, CostModel: true, QueueLen: queueLen},
			source: host.SourceConfig{
				Clip: wireClip, SrcPort: 7000, CostOnly: true, MaxRate: true,
				InitialWindow: uint32(queueLen), Seed: 7,
			},
		}},
	})
	const measure = 20 * time.Second
	w.eng.RunFor(measure)
	st, _ := mflow.StatsOf(w.streams[0].p, "MFLOW")
	// Packet on the wire: ~1350B of ALF payload + headers ≈ 1450B.
	const pktBits = 1450 * 8
	predicted := int(2 * float64(rtt) / float64(time.Second) * linkBps / pktBits)
	return QueueRow{
		RTT:       rtt,
		QueueLen:  queueLen,
		Predicted: predicted,
		PktPerSec: float64(st.Delivered) / measure.Seconds(),
		Drops:     w.k.ETH.Stats().RxQueueFull,
	}
}

// Print renders the sweep, marking the predicted knee.
func (rows QueueRows) Print(w io.Writer) {
	fprintf(w, "§4.2: input queue sizing (network-bottleneck stream, 10 Mb/s)\n")
	fprintf(w, "(rule: queue ≥ 2×RTT×BW keeps the pipe full)\n")
	fprintf(w, "%-8s %6s %10s %12s %8s\n", "RTT", "qlen", "predicted", "pkts/s", "drops")
	for _, r := range rows {
		mark := ""
		if r.QueueLen >= r.Predicted {
			mark = " *"
		}
		fprintf(w, "%-8v %6d %10d %12.0f %8d%s\n", r.RTT, r.QueueLen, r.Predicted, r.PktPerSec, r.Drops, mark)
	}
}
