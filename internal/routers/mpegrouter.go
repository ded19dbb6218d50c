package routers

import (
	"errors"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/mpeg"
	"scout/internal/msg"
)

// CostModel translates work into virtual CPU time. The per-bit term encodes
// the paper's observation that decode time correlates with frame size in
// bits (§4.4); the per-pixel term covers dithering and display conversion,
// the other dominant cost (§4.1). Defaults are calibrated so the Scout
// column of Table 1 lands at the paper's absolute frame rates on the
// 300 MHz Alpha (see EXPERIMENTS.md for the arithmetic).
type CostModel struct {
	PerPacket time.Duration // header handling per ALF packet
	PerBit    time.Duration // decompression per encoded bit
	PerPixel  time.Duration // dithering + display conversion per pixel
}

// DefaultCostModel reproduces the Alpha-era absolute numbers.
func DefaultCostModel() CostModel {
	return CostModel{
		PerPacket: 5 * time.Microsecond,
		PerBit:    300 * time.Nanosecond,
		PerPixel:  30 * time.Nanosecond,
	}
}

// MPEGImpl is the MPEG router: it accepts ALF packets from MFLOW, decodes
// them, and forwards completed frames to DISPLAY.
type MPEGImpl struct {
	// Model is the CPU cost model charged per packet/frame.
	Model CostModel
}

// NewMPEG returns an MPEG router with the default cost model.
func NewMPEG() *MPEGImpl {
	return &MPEGImpl{Model: DefaultCostModel()}
}

// Services declares up (to DISPLAY, video frames) and down (to MFLOW).
func (mp *MPEGImpl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{
		{Name: "up", Type: VideoServiceType},
		{Name: "down", Type: core.NetServiceType, InitAfterPeers: true},
	}
}

// Init has no work; MPEG paths are created on DISPLAY at runtime.
func (mp *MPEGImpl) Init(r *core.Router) error { return nil }

// mpegStage is the per-path decode state.
type mpegStage struct {
	impl     *MPEGImpl
	costOnly bool
	dec      *mpeg.Decoder
	hdrDec   *mpeg.HeaderDecoder
	frameSeq int
	bitsAcc  int // encoded bits since the last completed frame
	// scratch is reused by input for every parsed packet (neither decoder
	// retains the pointer past its call), keeping parse off the heap.
	scratch mpeg.Packet
	// degrader is the path's overload controller, when AttachDegrader
	// installed one.
	degrader *VideoDegrader

	// Stats
	Packets int64
	Frames  int64
	Errors  int64
	// Complete counts displayed frames whose packets all arrived. Frames
	// holed by packet loss still display (a glitch, as on real hardware),
	// so Frames alone overstates delivered quality on a lossy link.
	Complete int64
	// CompleteI/CompleteP split Complete by frame kind; the overload
	// experiment uses them to verify the degradation ladder never costs an
	// I frame.
	CompleteI int64
	CompleteP int64
}

func (sd *mpegStage) noteComplete(kind mpeg.FrameKind) {
	sd.Complete++
	if kind == mpeg.FrameI {
		sd.CompleteI++
	} else {
		sd.CompleteP++
	}
}

// CreateStage contributes the MPEG decode stage. The path must enter from
// DISPLAY (the "up" side); creation continues toward MFLOW.
func (mp *MPEGImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	if enter == core.NoService {
		return nil, nil, errors.New("mpeg: paths start at DISPLAY, not MPEG")
	}
	sd := &mpegStage{impl: mp}
	if v, ok := a.Get(AttrCostModel); ok {
		sd.costOnly, _ = v.(bool)
	}
	if sd.costOnly {
		sd.hdrDec = &mpeg.HeaderDecoder{}
	} else {
		sd.dec = mpeg.NewDecoder()
	}

	s := &core.Stage{Data: sd}
	// Path creation ran DISPLAY→…→ETH, so packets to decode travel BWD:
	// the BWD interface is the decode function, and its Next in the BWD
	// chain is DISPLAY's video interface.
	s.SetIface(core.BWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return sd.input(i, m)
	}))
	s.SetIface(core.FWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return i.DeliverNext(m) // passthrough for outbound control traffic
	}))

	if n := a.IntDefault(AttrDecimate, 1); n > 1 {
		s.Establish = func(s *core.Stage, a *attr.Attrs) error {
			s.Path.EarlyDiscard = DecimationFilter(n)
			return nil
		}
	}

	mfl, err := r.Link("down")
	if err != nil {
		return nil, nil, err
	}
	return s, &core.NextHop{Router: mfl.Peer, Service: mfl.PeerService}, nil
}

// DecimationFilter peeks the ALF frame number through the stacked headers
// of a raw frame and discards packets of frames that will not be displayed.
// It runs at interrupt time, before any queueing (§4.4).
func DecimationFilter(n int) func(any) bool {
	// Offset of the ALF header within a full Ethernet frame.
	const off = 14 /*eth*/ + 20 /*ip*/ + 8 /*udp*/ + 17 /*mflow*/
	return func(item any) bool {
		m, ok := item.(*msg.Msg)
		if !ok {
			return false
		}
		hdr, err := m.Peek(off + 4)
		if err != nil {
			return false
		}
		frameNo := uint32(hdr[off])<<24 | uint32(hdr[off+1])<<16 | uint32(hdr[off+2])<<8 | uint32(hdr[off+3])
		return frameNo%uint32(n) != 0
	}
}

// input decodes one ALF packet; on frame completion the frame continues to
// the DISPLAY stage through the video interface.
func (sd *mpegStage) input(i *core.NetIface, m *msg.Msg) error {
	mp := sd.impl
	p := i.Path()
	sd.Packets++
	p.ChargeExec(mp.Model.PerPacket)
	pkt := &sd.scratch
	if err := mpeg.ParsePacketInto(m.Bytes(), pkt); err != nil {
		sd.Errors++
		m.Free()
		return err
	}
	// The decompression cost is proportional to the encoded bits (§4.4).
	bits := len(pkt.Data) * 8
	p.ChargeExec(time.Duration(bits) * mp.Model.PerBit)
	sd.bitsAcc += bits

	var done *display.Frame
	if sd.costOnly {
		tf, ok, err := sd.hdrDec.Consume(pkt)
		if err != nil {
			sd.Errors++
			m.Free()
			return err
		}
		if ok {
			if tf.Complete {
				sd.noteComplete(tf.Kind)
			}
			done = &display.Frame{
				Seq:  int(tf.No),
				W:    int(pkt.MBW) * 16,
				H:    int(pkt.MBH) * 16,
				Bits: tf.Bits,
			}
		}
	} else {
		f, err := sd.dec.Decode(pkt)
		if err != nil && f == nil {
			sd.Errors++
			m.Free()
			return err
		}
		if f != nil {
			sd.noteComplete(pkt.Kind) // the real decoder only emits fully decoded frames
			done = &display.Frame{
				Seq: sd.frameSeq,
				W:   f.W,
				H:   f.H,
			}
			done.Pixels = mpeg.DitherRGB332(f, nil)
		}
	}
	m.Free()
	if done == nil {
		return nil
	}
	sd.Frames++
	sd.frameSeq++
	done.Seq = sd.frameSeq - 1
	done.Bits = sd.bitsAcc // per-frame encoded size, for the §4.4 model
	sd.bitsAcc = 0
	// Dithering cost is charged by the DISPLAY stage (it owns that work
	// conceptually); pass the frame to the next stage in the BWD chain,
	// which speaks the video interface.
	nx := i.Next
	vi, ok := nx.(*VideoIface)
	if !ok || vi.DeliverFrame == nil {
		return core.ErrEndOfPath
	}
	return vi.DeliverFrame(vi, done)
}

// mpegStageOf returns p's MPEG stage state, or nil when p has no MPEG stage.
func mpegStageOf(p *core.Path) *mpegStage {
	for _, s := range p.Stages() {
		if sd, ok := s.Data.(*mpegStage); ok {
			return sd
		}
	}
	return nil
}

// MPEGStats reports per-path decode counters.
func MPEGStats(p *core.Path, routerName string) (packets, frames, errs int64, ok bool) {
	s := p.StageOf(routerName)
	if s == nil {
		return 0, 0, 0, false
	}
	sd, isMPEG := s.Data.(*mpegStage)
	if !isMPEG {
		return 0, 0, 0, false
	}
	return sd.Packets, sd.Frames, sd.Errors, true
}

// MPEGComplete reports how many displayed frames arrived with no packets
// missing — the loss-sensitive quality metric of the E9 experiment.
func MPEGComplete(p *core.Path, routerName string) (int64, bool) {
	s := p.StageOf(routerName)
	if s == nil {
		return 0, false
	}
	sd, isMPEG := s.Data.(*mpegStage)
	if !isMPEG {
		return 0, false
	}
	return sd.Complete, true
}

// MPEGCompleteByKind splits MPEGComplete by frame kind; E11 uses it to show
// degradation sacrifices only P frames.
func MPEGCompleteByKind(p *core.Path, routerName string) (iFrames, pFrames int64, ok bool) {
	s := p.StageOf(routerName)
	if s == nil {
		return 0, 0, false
	}
	sd, isMPEG := s.Data.(*mpegStage)
	if !isMPEG {
		return 0, 0, false
	}
	return sd.CompleteI, sd.CompleteP, true
}
