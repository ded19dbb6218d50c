package mflow

import (
	"reflect"
	"testing"
	"time"

	"scout/internal/sim"
)

const (
	tRTOMin   = 50 * time.Millisecond
	tRTOMax   = 500 * time.Millisecond
	tMaxTries = 4
)

// senderRig is a Sender on a bare engine whose Resend logs (seq, when).
type senderRig struct {
	eng    *sim.Engine
	st     SenderStats
	s      Sender[int]
	resent []uint32
	at     []time.Duration
}

func newSenderRig() *senderRig {
	r := &senderRig{eng: sim.New(1)}
	r.s = NewSender[int](r.eng, &r.st, tRTOMin, tRTOMax, tMaxTries)
	r.s.Resend = func(seq uint32, v *int) {
		*v++ // the owner's per-packet value is its to update
		r.resent = append(r.resent, seq)
		r.at = append(r.at, r.eng.Now().Duration())
	}
	return r
}

func (r *senderRig) send(n int) {
	for seq := uint32(1); seq <= uint32(n); seq++ {
		r.s.Sent(seq, 0)
	}
}

func (r *senderRig) acks(cum uint32, n int) {
	for ; n > 0; n-- {
		r.s.Ack(cum, 0)
	}
}

func ms(v ...int) []time.Duration {
	out := make([]time.Duration, len(v))
	for i, x := range v {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

func TestSender(t *testing.T) {
	cases := []struct {
		name        string
		drive       func(t *testing.T, r *senderRig)
		resent      []uint32
		at          []time.Duration // nil = not checked
		stats       SenderStats
		outstanding int
		pending     int // engine events left: the one timer, or none
	}{
		{
			name: "cumulative ack trims and resets backoff",
			drive: func(t *testing.T, r *senderRig) {
				r.send(4)
				r.eng.RunFor(160 * time.Millisecond) // RTOs at 50, 150: backoff is at 200ms
				r.acks(2, 1)                         // progress: next RTO is rtoMin again
				r.eng.RunFor(60 * time.Millisecond)
			},
			resent: []uint32{1, 1, 3}, at: ms(50, 150, 210),
			stats:       SenderStats{Retransmits: 3, RTOs: 3},
			outstanding: 2, pending: 1,
		},
		{
			name: "three dup acks retransmit once per hole",
			drive: func(t *testing.T, r *senderRig) {
				r.send(6)
				r.acks(1, 1) // progress
				r.acks(1, 2) // two duplicates: not yet
				if len(r.resent) != 0 {
					t.Errorf("re-sent %v before the third duplicate", r.resent)
				}
				r.acks(1, 2) // third fires, fourth is an echo
				r.acks(3, 1) // hole 2 repaired; next hole is 4
				r.acks(3, 3)
			},
			resent:      []uint32{2, 4},
			stats:       SenderStats{Retransmits: 2, FastRetransmits: 2},
			outstanding: 3, pending: 1,
		},
		{
			name: "RTO doubles then saturates",
			drive: func(t *testing.T, r *senderRig) {
				r.s.maxTries = 100
				r.send(1)
				r.eng.RunFor(2300 * time.Millisecond)
			},
			resent: []uint32{1, 1, 1, 1, 1, 1, 1}, at: ms(50, 150, 350, 750, 1250, 1750, 2250),
			stats:       SenderStats{Retransmits: 7, RTOs: 7},
			outstanding: 1, pending: 1,
		},
		{
			name: "MaxTries abandons the head and continues",
			drive: func(t *testing.T, r *senderRig) {
				r.send(2)
				// Head: 3 re-sends, then abandoned at the 4th timeout; the
				// second packet then gets its own tries.
				r.eng.RunFor(1300 * time.Millisecond)
			},
			resent: []uint32{1, 1, 1, 2}, at: ms(50, 150, 350, 1150),
			stats:       SenderStats{Retransmits: 4, RTOs: 5, Abandoned: 1},
			outstanding: 1, pending: 1,
		},
		{
			name: "redispatch re-sends all in order and restarts backoff",
			drive: func(t *testing.T, r *senderRig) {
				r.send(3)
				r.eng.RunFor(60 * time.Millisecond) // backoff at 100ms
				r.s.Redispatch()
				r.eng.RunFor(50 * time.Millisecond) // rtoMin after the redispatch
			},
			resent: []uint32{1, 1, 2, 3, 1}, at: ms(50, 60, 60, 60, 110),
			stats:       SenderStats{Retransmits: 5, RTOs: 2},
			outstanding: 3, pending: 1,
		},
		{
			name: "redispatch from a timeout's loss observer stands",
			drive: func(t *testing.T, r *senderRig) {
				r.s.OnLoss = func(*int) { r.s.Redispatch() }
				r.send(3)
				r.eng.RunFor(60 * time.Millisecond)
			},
			// No second re-send of the head, no backoff, one timer.
			resent: []uint32{1, 2, 3}, at: ms(50, 50, 50),
			stats:       SenderStats{Retransmits: 3, RTOs: 1},
			outstanding: 3, pending: 1,
		},
		{
			name: "redispatch from a fast retransmit's loss observer stands",
			drive: func(t *testing.T, r *senderRig) {
				r.s.OnLoss = func(*int) { r.s.Redispatch() }
				r.send(3)
				r.acks(0, 3)
			},
			resent:      []uint32{1, 2, 3},
			stats:       SenderStats{Retransmits: 3, FastRetransmits: 1},
			outstanding: 3, pending: 1,
		},
		{
			name: "observers see the owner's value",
			drive: func(t *testing.T, r *senderRig) {
				var acked, lost []int
				r.s.OnAcked = func(v *int) { acked = append(acked, *v) }
				r.s.OnLoss = func(v *int) { lost = append(lost, *v) }
				r.send(2)
				r.eng.RunFor(160 * time.Millisecond) // head re-sent twice: its value is 2
				r.acks(2, 1)
				if !reflect.DeepEqual(acked, []int{2, 0}) || !reflect.DeepEqual(lost, []int{0, 1}) {
					t.Errorf("observers saw acked %v lost %v", acked, lost)
				}
			},
			resent:  []uint32{1, 1},
			stats:   SenderStats{Retransmits: 2, RTOs: 2},
			pending: 0,
		},
		{
			name: "echoed timestamps smooth the RTT and stretch the RTO",
			drive: func(t *testing.T, r *senderRig) {
				r.eng.RunFor(100 * time.Millisecond)
				r.send(1)
				r.s.Ack(0, int64(20*time.Millisecond)) // sample 80ms: RTO 160ms
				r.s.Ack(0, int64(60*time.Millisecond)) // sample 40ms: EWMA 75ms
				r.s.Sent(2, 0)
				r.acks(1, 1) // re-armed at 2*75ms
				r.eng.RunFor(151 * time.Millisecond)
			},
			resent: []uint32{2}, at: ms(250),
			stats:       SenderStats{Retransmits: 1, RTOs: 1, RTTEWMA: 75 * time.Millisecond},
			outstanding: 1, pending: 1,
		},
		{
			name: "trim abandons the oldest",
			drive: func(t *testing.T, r *senderRig) {
				r.send(5)
				r.s.Trim(2)
				r.acks(3, 1) // trimmed seqs are gone: nothing to retire
			},
			stats:       SenderStats{Abandoned: 3},
			outstanding: 2, pending: 1,
		},
		{
			name: "stop cancels the timer and drops the buffer",
			drive: func(t *testing.T, r *senderRig) {
				r.send(3)
				r.s.Stop()
				r.eng.RunFor(time.Second)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newSenderRig()
			c.drive(t, r)
			if !reflect.DeepEqual(r.resent, c.resent) {
				t.Errorf("re-sent %v, want %v", r.resent, c.resent)
			}
			if c.at != nil && !reflect.DeepEqual(r.at, c.at) {
				t.Errorf("re-sent at %v, want %v", r.at, c.at)
			}
			if r.st != c.stats {
				t.Errorf("stats %+v, want %+v", r.st, c.stats)
			}
			if n := r.s.Outstanding(); n != c.outstanding {
				t.Errorf("outstanding %d, want %d", n, c.outstanding)
			}
			if n := r.eng.Pending(); n != c.pending {
				t.Errorf("%d events pending, want %d", n, c.pending)
			}
		})
	}
}
