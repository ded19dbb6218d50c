package netdev

import (
	"testing"
	"time"

	"scout/internal/msg"
	"scout/internal/sched"
	"scout/internal/sim"
)

// countingPool counts buffer releases so tests can prove burst frames are
// freed, not leaked.
type countingPool struct{ released int }

func (c *countingPool) Release([]byte) { c.released++ }

// fastWorld builds a link so fast (and with zero delay) that back-to-back
// transmissions arrive at the same virtual instant — one burst.
func fastWorld(t *testing.T) (*sim.Engine, *Link, *Device, *Device, *sched.Sched) {
	t.Helper()
	eng := sim.New(1)
	l := NewLink(eng, LinkConfig{BitsPerSec: 1 << 60})
	src := NewDevice(l, macA, nil)
	cpu := sched.New(eng)
	dst := NewDevice(l, macB, cpu)
	return eng, l, src, dst, cpu
}

func burstFrame(pool msg.Releaser) *msg.Msg {
	buf := make([]byte, 64)
	return msg.FromBuffer(buf, 0, len(buf), pool)
}

// TestSameInstantOneInterrupt: same-instant arrivals are one link event and
// one interrupt entry charging the summed IRQ cost, with the per-frame
// handler run once per frame in arrival order.
func TestSameInstantOneInterrupt(t *testing.T) {
	eng, _, src, dst, cpu := fastWorld(t)
	dst.RxIRQCost = 5 * time.Microsecond

	var got []byte
	dst.OnReceive = func(m *msg.Msg) { got = append(got, m.Bytes()[0]); m.Free() }

	const n = 8
	for i := 0; i < n; i++ {
		src.Transmit(macB, msg.New([]byte{byte(i)}))
	}
	if eng.Pending() != 1 {
		t.Errorf("%d events queued for one arrival instant, want 1", eng.Pending())
	}
	eng.Run()

	if len(got) != n {
		t.Fatalf("handler ran %d times, want %d", len(got), n)
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("frame %d handled in position %d", v, i)
		}
	}
	st := cpu.Stats()
	if st.Interrupts != 1 {
		t.Errorf("interrupt entries = %d, want 1", st.Interrupts)
	}
	if want := time.Duration(n) * dst.RxIRQCost; st.IRQ != want {
		t.Errorf("IRQ charge = %v, want %v (sum of per-frame costs)", st.IRQ, want)
	}
	if bursts, frames := dst.BurstStats(); bursts != 1 || frames != n {
		t.Errorf("burst stats = (%d, %d), want (1, %d)", bursts, frames, n)
	}
}

// TestBurstHandlerTakesWholeBurst: when OnReceiveBurst is installed it gets
// the whole burst in one call, in arrival order, and the per-frame handler
// stays out of it.
func TestBurstHandlerTakesWholeBurst(t *testing.T) {
	eng, _, src, dst, _ := fastWorld(t)

	var calls int
	var got []byte
	dst.OnReceive = func(m *msg.Msg) { t.Error("per-frame handler ran despite burst handler"); m.Free() }
	dst.OnReceiveBurst = func(frames []*msg.Msg) {
		calls++
		for _, m := range frames {
			got = append(got, m.Bytes()[0])
			m.Free()
		}
	}

	const n = 5
	for i := 0; i < n; i++ {
		src.Transmit(macB, msg.New([]byte{byte(i)}))
	}
	eng.Run()

	if calls != 1 || len(got) != n {
		t.Fatalf("burst handler calls=%d frames=%d, want one call of %d frames", calls, len(got), n)
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("frame %d handed over in position %d", v, i)
		}
	}
}

// TestJitterClampedFramesShareOneBurst: the FIFO clamp turns a jittered
// arrival that would overtake its predecessor into a same-instant arrival,
// and every frame of one instant must reach the device in one burst — no
// two bursts share an instant, one interrupt per burst, N×RxIRQCost charged
// in total, transmit order kept.
func TestJitterClampedFramesShareOneBurst(t *testing.T) {
	eng := sim.New(3)
	l := NewLink(eng, LinkConfig{BitsPerSec: 1 << 40, Delay: time.Millisecond, Jitter: 5 * time.Millisecond})
	src := NewDevice(l, macA, nil)
	cpu := sched.New(eng)
	dst := NewDevice(l, macB, cpu)
	dst.RxIRQCost = time.Microsecond

	var got []byte
	var at []sim.Time
	multi := 0
	dst.OnReceiveBurst = func(frames []*msg.Msg) {
		at = append(at, eng.Now())
		if len(frames) > 1 {
			multi++
		}
		for _, m := range frames {
			got = append(got, m.Bytes()[0])
			m.Free()
		}
	}
	const n = 100
	for i := 0; i < n; i++ {
		src.Transmit(macB, msg.New([]byte{byte(i)}))
	}
	eng.Run()

	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("frame %d delivered in position %d", v, i)
		}
	}
	for i := 1; i < len(at); i++ {
		if at[i] <= at[i-1] {
			t.Fatalf("bursts %d and %d both at %v: one instant split across bursts", i-1, i, at[i])
		}
	}
	if multi == 0 {
		t.Error("jitter never clamped two frames to one instant: test degenerate")
	}
	st := cpu.Stats()
	if st.Interrupts != int64(len(at)) {
		t.Errorf("%d interrupt entries for %d bursts", st.Interrupts, len(at))
	}
	if want := n * dst.RxIRQCost; st.IRQ != want {
		t.Errorf("IRQ charge = %v, want %v", st.IRQ, want)
	}
}

// TestDistinctInstantsBurstsOfOne: frames at distinct instants are bursts of
// one, each costing exactly one engine event — batching never delays a frame
// and never adds an event.
func TestDistinctInstantsBurstsOfOne(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, LinkConfig{BitsPerSec: 10_000_000})
	src := NewDevice(l, macA, nil)
	cpu := sched.New(eng)
	dst := NewDevice(l, macB, cpu) // zero RxIRQCost: no completion events

	var arrivals []sim.Time
	dst.OnReceive = func(m *msg.Msg) { arrivals = append(arrivals, eng.Now()); m.Free() }

	// Serialization separates these arrivals.
	const n = 3
	for i := 0; i < n; i++ {
		src.Transmit(macB, msg.New(make([]byte, 1000)))
	}
	eng.Run()

	if len(arrivals) != n {
		t.Fatalf("received %d frames, want %d", len(arrivals), n)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] == arrivals[i-1] {
			t.Error("serialized frames share an arrival instant")
		}
	}
	if bursts, frames := dst.BurstStats(); bursts != n || frames != n {
		t.Errorf("burst stats = (%d, %d), want (%d, %d): distinct instants must not batch", bursts, frames, n, n)
	}
	if st := cpu.Stats(); st.Interrupts != n {
		t.Errorf("interrupt entries = %d, want %d", st.Interrupts, n)
	}
	if ran := eng.EventsRun(); ran != n {
		t.Errorf("engine ran %d events for %d singleton arrivals, want %d", ran, n, n)
	}
}

// TestTwoDevicesOneInstant: frames of one instant addressed to two devices
// (unicast and broadcast interleaved) give each device one interrupt
// carrying its own frames in order, devices served in first-arrival order.
func TestTwoDevicesOneInstant(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, LinkConfig{BitsPerSec: 1 << 60})
	src := NewDevice(l, macA, nil)
	cpuB, cpuC := sched.New(eng), sched.New(eng)
	b := NewDevice(l, macB, cpuB)
	c := NewDevice(l, macC, cpuC)
	b.RxIRQCost, c.RxIRQCost = time.Microsecond, time.Microsecond

	var served []MAC
	got := map[MAC][]byte{}
	handler := func(d *Device) func([]*msg.Msg) {
		return func(frames []*msg.Msg) {
			served = append(served, d.Addr)
			for _, m := range frames {
				got[d.Addr] = append(got[d.Addr], m.Bytes()[0])
				m.Free()
			}
		}
	}
	b.OnReceiveBurst, c.OnReceiveBurst = handler(b), handler(c)

	for i, dst := range []MAC{macC, macB, Broadcast, macC} {
		src.Transmit(dst, msg.New([]byte{byte(i)}))
	}
	eng.Run()

	if len(served) != 2 || served[0] != macC || served[1] != macB {
		t.Fatalf("devices served %v, want [C B] (first-arrival order, once each)", served)
	}
	if string(got[macC]) != "\x00\x02\x03" || string(got[macB]) != "\x01\x02" {
		t.Errorf("C got %v, B got %v; want [0 2 3] and [1 2]", got[macC], got[macB])
	}
	for name, cpu := range map[string]*sched.Sched{"B": cpuB, "C": cpuC} {
		if st := cpu.Stats(); st.Interrupts != 1 {
			t.Errorf("device %s: %d interrupt entries, want 1", name, st.Interrupts)
		}
	}
	if cpuC.Stats().IRQ != 3*time.Microsecond || cpuB.Stats().IRQ != 2*time.Microsecond {
		t.Errorf("IRQ charges C=%v B=%v, want 3µs and 2µs", cpuC.Stats().IRQ, cpuB.Stats().IRQ)
	}
}

// TestHandlerTeardownMidInstant: a device whose handlers are torn down by
// an earlier handler of the same instant (appliance shutdown while frames
// for it have already left the wire) drops its landed frames — counted per
// frame, buffers released, no interrupt charged for work no handler will do.
func TestHandlerTeardownMidInstant(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, LinkConfig{BitsPerSec: 1 << 60})
	src := NewDevice(l, macA, nil)
	b := NewDevice(l, macB, nil)
	cpu := sched.New(eng)
	c := NewDevice(l, macC, cpu)
	c.RxIRQCost = 5 * time.Microsecond
	c.OnReceive = func(m *msg.Msg) { t.Error("handler ran after teardown"); m.Free() }
	b.OnReceive = func(m *msg.Msg) {
		c.OnReceive, c.OnReceiveBurst = nil, nil
		m.Free()
	}

	pool := &countingPool{}
	const n = 4
	src.Transmit(macB, burstFrame(pool))
	for i := 0; i < n; i++ {
		src.Transmit(macC, burstFrame(pool))
	}
	eng.Run()

	if rx, _, dropped := c.Stats(); rx != n || dropped != n {
		t.Errorf("rx=%d rxDropped=%d, want %d and %d", rx, dropped, n, n)
	}
	if pool.released != n+1 {
		t.Errorf("released %d frame buffers, want %d (teardown leaked frames)", pool.released, n+1)
	}
	if st := cpu.Stats(); st.Interrupts != 0 || st.IRQ != 0 {
		t.Errorf("handlerless device charged the CPU: %d interrupts, %v IRQ", st.Interrupts, st.IRQ)
	}
	if bursts, _ := c.BurstStats(); bursts != 0 {
		t.Errorf("dropped burst counted as handled (%d)", bursts)
	}
}

// TestReorderHeldFramesArriveAlone: frames the fault plan holds bypass the
// FIFO, so even when several come off hold at the same instant each is its
// own burst with its own interrupt.
func TestReorderHeldFramesArriveAlone(t *testing.T) {
	eng, l, src, dst, cpu := fastWorld(t)
	// ReorderDelay 1ns pins every hold to exactly 1ns: all n held frames
	// come due at one instant.
	l.InjectFaults(FaultPlan{Reorder: 1, ReorderDelay: time.Nanosecond})
	dst.RxIRQCost = time.Microsecond

	var sizes []int
	var at []sim.Time
	dst.OnReceiveBurst = func(frames []*msg.Msg) {
		sizes = append(sizes, len(frames))
		at = append(at, eng.Now())
		for _, m := range frames {
			m.Free()
		}
	}
	const n = 6
	for i := 0; i < n; i++ {
		src.Transmit(macB, msg.New(make([]byte, 64)))
	}
	eng.Run()

	if len(sizes) != n {
		t.Fatalf("%d bursts for %d held frames, want %d singletons (sizes %v)", len(sizes), n, n, sizes)
	}
	for i := range sizes {
		if sizes[i] != 1 || at[i] != at[0] {
			t.Fatalf("burst %d: size %d at %v; want size 1, all at %v", i, sizes[i], at[i], at[0])
		}
	}
	if st := cpu.Stats(); st.Interrupts != n {
		t.Errorf("interrupt entries = %d, want %d", st.Interrupts, n)
	}
}
