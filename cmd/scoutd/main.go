// scoutd boots the Scout MPEG appliance (the router graph of Figure 9),
// streams one of the paper's clips into it, and reports what the kernel
// did: paths created, classification decisions, per-path CPU, deadlines.
//
// Usage:
//
//	scoutd -clip Neptune -frames 300          # cost-model decode
//	scoutd -clip Canyon -real -frames 60      # real pixel decode
//	scoutd -clip Neptune -frames 300 -flood   # with a ping -f flood
//	scoutd -sched rr -prio 2                  # round-robin instead of EDF
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"scout/internal/appliance"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/proto/mflow"
	"scout/internal/routers"
	"scout/internal/sim"
)

func main() {
	clipName := flag.String("clip", "Neptune", "clip: Flower|Neptune|RedsNightmare|Canyon")
	frames := flag.Int("frames", 300, "frames to play (0 = whole clip)")
	real := flag.Bool("real", false, "really encode/decode pixels (slow) instead of the cost model")
	flood := flag.Bool("flood", false, "add a ping -f ICMP flood from a second host")
	schedPolicy := flag.String("sched", "edf", "video path scheduling: edf|rr")
	prio := flag.Int("prio", 2, "RR priority when -sched rr")
	qlen := flag.Int("qlen", 32, "path queue length")
	maxRate := flag.Bool("maxrate", false, "stream at maximum rate instead of the clip frame rate")
	flag.Parse()

	clip, ok := mpeg.ClipByName(*clipName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown clip %q\n", *clipName)
		os.Exit(2)
	}
	if *frames > 0 && *frames < clip.Frames {
		clip.Frames = *frames
	}

	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 10_000_000, Delay: 20 * time.Microsecond})
	cfg := appliance.DefaultConfig()
	if *maxRate {
		cfg.RefreshHz = 2000
	}
	k, err := appliance.Boot(eng, link, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted Scout appliance %s (%d routers)\n", k.Cfg.Addr, len(k.Graph.Routers()))

	src := host.New(link, netdev.MAC{2, 0, 0, 0, 0, 0x20}, inet.IP(10, 0, 0, 20))
	fps := clip.FPS
	if *maxRate {
		fps = 2000
	}
	sinkFrames := clip.Frames
	if *maxRate {
		sinkFrames = 0 // unbounded sink: throughput, not deadlines
	}
	p, lport, err := k.CreateVideoPath(&appliance.VideoAttrs{
		Source:    inet.Participants{RemoteAddr: src.Addr, RemotePort: 7000},
		FPS:       fps,
		Frames:    sinkFrames,
		CostModel: !*real,
		QueueLen:  *qlen,
		Sched:     *schedPolicy,
		Priority:  *prio,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %v (local port %d)\n", p, lport)

	vs, err := host.NewSource(src, host.SourceConfig{
		Clip: clip, SrcPort: 7000, CostOnly: !*real, MaxRate: *maxRate,
		QScale: 3, SearchRange: 4, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("source ready: %d frames, %d packets\n", vs.NumFrames(), vs.NumPackets())
	eng.At(0, func() { vs.Start(k.Cfg.Addr, lport) })

	if *flood {
		ping := host.New(link, netdev.MAC{2, 0, 0, 0, 0, 0x21}, inet.IP(10, 0, 0, 21))
		f := ping.FloodEchoAdaptive(k.Cfg.Addr, 1, 8, 30*time.Microsecond)
		defer func() {
			fmt.Printf("flood: %d sent, %d replied (%.0f pps achieved)\n", f.Sent, f.Replies, f.Rate())
		}()
	}

	// Run until the sink accounted for every frame, or a cap.
	sink := k.Display.Sink(p, "DISPLAY")
	cap := eng.Now().Add(10 * time.Minute)
	for eng.Now() < cap {
		if *maxRate {
			if sink.Displayed() >= int64(vs.NumFrames()) {
				break
			}
		} else if sink.Done() {
			break
		}
		eng.RunFor(250 * time.Millisecond)
	}

	elapsed := eng.Now().Seconds()
	fmt.Printf("\n--- after %.2fs of virtual time ---\n", elapsed)
	if *maxRate {
		fmt.Printf("displayed %d frames → %.1f fps (max-rate run; deadlines not meaningful)\n",
			sink.Displayed(), float64(sink.Displayed())/elapsed)
	} else {
		fmt.Printf("displayed %d frames, missed %d deadlines → %.1f fps\n",
			sink.Displayed(), sink.Missed(), float64(sink.Displayed())/elapsed)
	}
	fl, _ := mflow.StatsOf(p, "MFLOW")
	fmt.Printf("MFLOW: delivered=%d gaps=%d acks=%d (source RTT≈%v)\n",
		fl.Delivered, fl.Gaps, fl.AcksSent, vs.RTTEWMA)
	pk, fr, errs, _ := routers.MPEGStats(p, "MPEG")
	fmt.Printf("MPEG: packets=%d frames=%d errors=%d\n", pk, fr, errs)
	fmt.Printf("path: CPU=%v EWMA=%v/execution mem=%dB\n", p.CPUTime(), p.ExecEWMA(), p.MemoryBytes())
	fmt.Printf("classifier: %+v\n", k.ETH.Stats())
	st := k.CPU.Stats()
	fmt.Printf("CPU: busy=%v irq=%v dispatches=%d interrupts=%d\n",
		st.Busy, st.IRQ, st.Dispatches, st.Interrupts)
	ireq, irep := k.ICMP.Stats()
	if ireq > 0 {
		fmt.Printf("ICMP path: %d requests processed, %d replies, input queue dropped %d early\n",
			ireq, irep, k.ICMP.Path().Q[2].Dropped())
	}
}
