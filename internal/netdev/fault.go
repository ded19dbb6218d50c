package netdev

import (
	"math/rand"
	"time"

	"scout/internal/msg"
)

// FaultPlan describes deterministic fault injection: a plan installed on a
// Link subjects matching frames to adverse wire behaviour — independent
// loss, burst loss, duplication, deliberate reordering, byte corruption —
// with every random decision drawn from the link's own seeded stream
// (engine seed ⊕ link ID), so a faulty run replays bit-for-bit and
// parallel links fault independently of one another. This is the adversarial
// regime the loss experiment (E9) drives the protocol stack through. All
// probabilities are per frame in [0, 1).
type FaultPlan struct {
	// Loss drops a frame independently.
	Loss float64
	// BurstLoss starts a loss burst: the frame and the next BurstLen-ish
	// matching frames (mean BurstLen, drawn uniformly) are dropped.
	BurstLoss float64
	// BurstLen is the mean burst length in frames (default 4).
	BurstLen int
	// Dup delivers a second copy of the frame, one serialization slot
	// behind the original.
	Dup float64
	// Reorder holds a frame for a bounded extra delay so that later frames
	// overtake it — the only way this link ever inverts delivery order.
	Reorder float64
	// ReorderDelay bounds the extra holding delay (default 1ms).
	ReorderDelay time.Duration
	// Corrupt flips one payload byte (past the 14-byte Ethernet header, so
	// the frame still reaches its addressee and the damage is left for the
	// checksums above to catch).
	Corrupt float64
	// Match restricts the plan to frames it returns true for; nil matches
	// every frame. etherType is 0 for runt frames.
	Match func(src, dst MAC, etherType uint16) bool
}

// FaultStats counts injected faults.
type FaultStats struct {
	Matched   int64 // frames the plan applied to
	Lost      int64 // independent drops
	BurstLost int64 // drops inside bursts (including the burst starter)
	Dupped    int64 // duplicated frames
	Reordered int64 // deliberately held frames
	Corrupted int64 // frames with a flipped byte
}

type faultState struct {
	plan      FaultPlan
	burstLeft int
	stats     FaultStats
}

// InjectFaults installs plan on the link, replacing any previous plan and
// resetting fault statistics. Zero-probability fault kinds are free.
// Cross-shard links take no fault plans (both sides would race on the
// shared plan state); their base Loss still applies per direction.
func (l *Link) InjectFaults(plan FaultPlan) {
	l.mustBeLocal("InjectFaults")
	if plan.BurstLen <= 0 {
		plan.BurstLen = 4
	}
	if plan.ReorderDelay <= 0 {
		plan.ReorderDelay = time.Millisecond
	}
	l.faults = &faultState{plan: plan}
}

// FaultStats reports the injected-fault counters (zero without a plan).
func (l *Link) FaultStats() FaultStats {
	if l.faults == nil {
		return FaultStats{}
	}
	return l.faults.stats
}

// matchFaults returns the fault state if a plan is installed and applies to
// this frame.
func (l *Link) matchFaults(src *Device, dst MAC, m *msg.Msg) *faultState {
	fs := l.faults
	if fs == nil {
		return nil
	}
	if fs.plan.Match != nil && !fs.plan.Match(src.Addr, dst, etherTypeOf(m)) {
		return nil
	}
	fs.stats.Matched++
	return fs
}

// lossRoll decides whether the frame is dropped on the wire, combining the
// link's base loss probability with the fault plan's loss and burst models.
// Every draw comes from the link's own derived stream, so parallel links see
// uncorrelated faults regardless of how their transmissions interleave.
func (l *Link) lossRoll(fs *faultState) bool {
	if l.cfg.Loss > 0 && l.frand.Float64() < l.cfg.Loss {
		return true
	}
	if fs == nil {
		return false
	}
	if fs.burstLeft > 0 {
		fs.burstLeft--
		fs.stats.BurstLost++
		return true
	}
	if fs.plan.Loss > 0 && l.frand.Float64() < fs.plan.Loss {
		fs.stats.Lost++
		return true
	}
	if fs.plan.BurstLoss > 0 && l.frand.Float64() < fs.plan.BurstLoss {
		// Burst length uniform on [1, 2·mean-1] keeps the configured mean;
		// this frame is the first of the burst.
		fs.burstLeft = l.frand.Intn(2*fs.plan.BurstLen - 1)
		fs.stats.BurstLost++
		return true
	}
	return false
}

// etherTypeOf reads the EtherType field of a raw Ethernet frame (bytes
// 12:14); 0 for runt frames.
func etherTypeOf(m *msg.Msg) uint16 {
	b := m.Bytes()
	if len(b) < ethHeaderLen {
		return 0
	}
	return uint16(b[12])<<8 | uint16(b[13])
}

// corruptFrame flips one byte of the frame payload in place.
func corruptFrame(rng *rand.Rand, m *msg.Msg) {
	b := m.Bytes()
	if len(b) <= ethHeaderLen {
		return
	}
	i := ethHeaderLen + rng.Intn(len(b)-ethHeaderLen)
	b[i] ^= byte(1 + rng.Intn(255))
}
