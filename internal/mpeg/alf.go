package mpeg

// HeaderDecoder tracks ALF frame assembly from packet headers alone,
// without touching pixel data. The experiment harness uses it for
// cost-model runs, where packets carry synthetic payloads of the right size
// (generated from the clip traces) and decode cost is charged from the
// calibrated bits→CPU model rather than spent decoding (see DESIGN.md).
// Its assembly semantics mirror Decoder exactly: frames complete when all
// macroblocks arrive, a newer frame flushes an incomplete one, stale
// packets are rejected.
type HeaderDecoder struct {
	frameNo uint32
	minNext uint32
	started bool
	gotMB   int
	bits    int
	kind    FrameKind

	FramesOut  int64
	Incomplete int64
	PacketsIn  int64
}

// TraceFrame summarizes one assembled frame.
type TraceFrame struct {
	No       uint32
	Kind     FrameKind
	Bits     int
	Complete bool
}

// Consume processes one packet header. done reports that a frame finished
// (completely, or flushed incomplete by a newer one) and out describes it.
func (d *HeaderDecoder) Consume(p *Packet) (out TraceFrame, done bool, err error) {
	d.PacketsIn++
	if p.FrameNo < d.minNext {
		return TraceFrame{}, false, ErrStale
	}
	if d.started && p.FrameNo != d.frameNo {
		d.Incomplete++
		out, done = d.finish(false), true
	}
	if !d.started {
		d.started = true
		d.frameNo = p.FrameNo
		d.gotMB = 0
		d.bits = 0
		d.kind = p.Kind
	}
	d.gotMB += int(p.MBCount)
	d.bits += len(p.Data) * 8
	if d.gotMB >= int(p.TotalMB) {
		out, done = d.finish(true), true
	}
	return out, done, nil
}

func (d *HeaderDecoder) finish(complete bool) TraceFrame {
	d.started = false
	d.minNext = d.frameNo + 1
	d.FramesOut++
	return TraceFrame{No: d.frameNo, Kind: d.kind, Bits: d.bits, Complete: complete}
}

// TraceLayout packetises a traced frame: it calls emit once per ALF packet,
// in order, with the packet's header fields (Data nil) and the size of its
// synthetic payload. The frame's bits are spread over MTU-budget packets with
// valid headers, so the whole network path (including UDP checksums) is
// exercised while pixel decode is replaced by the cost model.
func TraceLayout(frameNo uint32, info FrameInfo, mbw, mbh, payloadBudget int, emit func(hdr Packet, size int)) {
	if payloadBudget <= 0 {
		payloadBudget = DefaultPayloadBudget
	}
	total := mbw * mbh
	bytes := info.Bits / 8
	if bytes < 1 {
		bytes = 1
	}
	n := (bytes + payloadBudget - 1) / payloadBudget
	if n > total {
		n = total // at least one macroblock per packet
	}
	if n < 1 {
		n = 1
	}
	mbStart := 0
	for i := 0; i < n; i++ {
		sz := bytes / n
		if i == n-1 {
			sz = bytes - sz*(n-1)
		}
		mbs := total / n
		if i == n-1 {
			mbs = total - mbStart
		}
		emit(Packet{
			FrameNo: frameNo,
			Kind:    info.Kind,
			QScale:  1,
			MBW:     uint8(mbw),
			MBH:     uint8(mbh),
			MBStart: uint16(mbStart),
			MBCount: uint16(mbs),
			TotalMB: uint16(total),
		}, sz)
		mbStart += mbs
	}
}

// TracePackets expands a traced frame into ALF packets with zeroed payloads
// of the sizes TraceLayout assigns.
func TracePackets(frameNo uint32, info FrameInfo, mbw, mbh, payloadBudget int) []*Packet {
	var pkts []*Packet
	TraceLayout(frameNo, info, mbw, mbh, payloadBudget, func(hdr Packet, size int) {
		hdr.Data = make([]byte, size)
		pkts = append(pkts, &hdr)
	})
	return pkts
}
