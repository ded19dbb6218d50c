package mflow

import (
	"time"

	"scout/internal/sim"
)

// SenderStats counts a reliable sender's recovery behaviour.
type SenderStats struct {
	Retransmits     int64 // data packets re-sent (timeout, fast retransmit or redispatch)
	FastRetransmits int64 // of those, re-sent on three duplicate acks
	RTOs            int64 // retransmission timeouts fired
	Abandoned       int64 // packets given up on (MaxTries transmissions, or trimmed)
	// RTTEWMA is the smoothed round trip measured from echoed timestamps.
	RTTEWMA time.Duration
}

// Sender is the reliable-MFLOW sender state machine, the one implementation
// behind both host.Source and the kernel's MFLOW stage: a buffer of
// transmitted-but-unacknowledged packets trimmed by cumulative acks, one fast
// retransmit per hole on three duplicate acks, and a single retransmission
// timer with exponential backoff that abandons a packet after maxTries
// transmissions. It knows nothing about hosts, paths or payloads: the owner
// transmits, then reports each sequence number with Sent and each
// acknowledgment with Ack, and is called back through Resend to put one
// outstanding packet on the wire again. T is whatever the owner needs to do
// that (a payload copy, a packet index and subflow).
type Sender[T any] struct {
	eng            *sim.Engine
	stats          *SenderStats
	rtoMin, rtoMax time.Duration
	maxTries       int

	// Resend retransmits one outstanding packet. Required before Sent.
	Resend func(seq uint32, v *T)
	// OnAcked, when set, observes each packet as a cumulative ack retires it.
	// OnLoss observes the head packet at each loss signal (fast retransmit
	// or timeout) before the sender repairs it. A loss observer may call
	// Redispatch (or Stop); what it did then stands — the sender neither
	// re-sends the head a second time, nor backs off, nor arms a second
	// timer on top of the one the redispatch armed.
	OnAcked, OnLoss func(v *T)

	// Every flow and source embeds a Sender, reliable or not; the small
	// fields are sized and ordered to pack.
	out       []outstanding[T] // ascending seq; trimmed from the front
	timer     sim.Event        // the one RTO timer, re-armed in place
	onRTOFn   func()           // s.onRTO, bound at first arm (the Sender has settled by then)
	shift     uint             // RTO doublings since the last ack progress
	lastAck   uint32
	frSeq     uint32 // highest seq fast-retransmitted: one per hole
	dupAcks   int32
	preempted bool // Redispatch or Stop ran (checked around OnLoss)
}

type outstanding[T any] struct {
	seq   uint32
	tries int
	v     T
}

// NewSender returns a sender on eng that counts into stats. The timeout is
// twice the smoothed RTT clamped to [rtoMin, rtoMax]; the floor belongs
// above the receiver's ack jitter (a decode-bound path turns acks around
// after ~20ms of frame decode) or every stall would look like a loss — fast
// retransmit handles prompt recovery, the RTO is a backstop.
func NewSender[T any](eng *sim.Engine, stats *SenderStats, rtoMin, rtoMax time.Duration, maxTries int) Sender[T] {
	return Sender[T]{eng: eng, stats: stats, rtoMin: rtoMin, rtoMax: rtoMax, maxTries: maxTries}
}

// Outstanding reports how many transmitted packets await acknowledgment.
func (s *Sender[T]) Outstanding() int { return len(s.out) }

// Sent records the first transmission of seq. Call it after the packet is on
// its way: the timer is armed here, and event order is observable.
func (s *Sender[T]) Sent(seq uint32, v T) {
	s.out = append(s.out, outstanding[T]{seq: seq, tries: 1, v: v})
	if !s.timer.Queued() {
		s.arm()
	}
}

// Ack feeds one acknowledgment: cum is the cumulative ack (every sequence
// number at or below it arrived), ts the echoed send timestamp (0 = none).
func (s *Sender[T]) Ack(cum uint32, ts int64) {
	if ts > 0 {
		rtt := s.eng.Now().Sub(sim.Time(ts))
		if s.stats.RTTEWMA == 0 {
			s.stats.RTTEWMA = rtt
		} else {
			s.stats.RTTEWMA += (rtt - s.stats.RTTEWMA) / 8
		}
	}
	acked := false
	for len(s.out) > 0 && s.out[0].seq <= cum {
		if s.OnAcked != nil {
			s.OnAcked(&s.out[0].v)
		}
		s.pop()
		acked = true
	}
	switch {
	case acked:
		s.shift = 0
		s.dupAcks = 0
		s.lastAck = cum
		s.rearm()
	case cum == s.lastAck && len(s.out) > 0:
		s.dupAcks++
		if s.dupAcks >= 3 && s.out[0].seq > s.frSeq {
			// The packet right after the cumulative ack is missing while
			// later data keeps arriving: re-send it now, not at RTO — but
			// only once per hole; further duplicates are echoes of data
			// already in flight (a lost re-send falls back to the RTO).
			s.frSeq = s.out[0].seq
			s.stats.FastRetransmits++
			if !s.lossPreempted() {
				s.retransmit(&s.out[0])
			}
		}
	default:
		s.lastAck = cum
		s.dupAcks = 0
	}
}

// Redispatch re-sends every outstanding packet immediately, in sequence
// order, and restarts the backoff — the sender half of a path failover.
// When the wire under a flow died, everything it may have swallowed is
// re-driven at once instead of trickling out one RTO at a time: recovering N
// packets serially at rtoMin each would lose the race against the receiver's
// hold timeout. Duplicates of packets that did arrive are discarded by the
// receiver's seq filter.
func (s *Sender[T]) Redispatch() {
	s.preempted = true
	for i := range s.out {
		s.retransmit(&s.out[i])
	}
	s.shift = 0
	s.rearm()
}

// Trim abandons the oldest outstanding packets until at most limit remain.
func (s *Sender[T]) Trim(limit int) {
	for len(s.out) > limit {
		s.stats.Abandoned++
		s.pop()
	}
}

// Stop cancels the timer and drops the buffer.
func (s *Sender[T]) Stop() {
	s.preempted = true
	s.out = nil
	s.rearm()
}

func (s *Sender[T]) pop() {
	s.out[0] = outstanding[T]{} // release what v references
	s.out = s.out[1:]
}

func (s *Sender[T]) retransmit(u *outstanding[T]) {
	u.tries++
	s.stats.Retransmits++
	s.Resend(u.seq, &u.v)
}

// lossPreempted signals the head's loss to the observer and reports whether
// the observer took the repair over (see OnLoss).
func (s *Sender[T]) lossPreempted() bool {
	if s.OnLoss == nil {
		return false
	}
	s.preempted = false
	s.OnLoss(&s.out[0].v)
	return s.preempted
}

// rto returns the current retransmission timeout: twice the smoothed RTT,
// clamped to [rtoMin, rtoMax], doubled per back-to-back timeout until it
// saturates at rtoMax (a plain shift overflows under a silent peer).
func (s *Sender[T]) rto() time.Duration {
	rto := max(2*s.stats.RTTEWMA, s.rtoMin)
	for i := uint(0); i < s.shift && rto < s.rtoMax; i++ {
		rto *= 2
	}
	return min(rto, s.rtoMax)
}

func (s *Sender[T]) arm() {
	if s.onRTOFn == nil {
		s.onRTOFn = s.onRTO
	}
	s.eng.Rearm(&s.timer, s.eng.Now().Add(s.rto()), s.onRTOFn)
}

// rearm restarts the timer from now while packets are outstanding, and
// cancels it otherwise.
func (s *Sender[T]) rearm() {
	if len(s.out) > 0 {
		s.arm()
	} else {
		s.timer.Cancel()
	}
}

func (s *Sender[T]) onRTO() {
	if len(s.out) == 0 {
		return
	}
	s.stats.RTOs++
	if s.lossPreempted() {
		return
	}
	if u := &s.out[0]; u.tries >= s.maxTries {
		s.stats.Abandoned++
		s.pop()
	} else {
		s.retransmit(u)
		s.shift++
	}
	if len(s.out) > 0 {
		s.arm()
	}
}
