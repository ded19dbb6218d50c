package netdev

import (
	"testing"
	"time"

	"scout/internal/msg"
	"scout/internal/sim"
)

func newCross(t *testing.T, shards int, cfg LinkConfig) (*sim.Cluster, *Link) {
	t.Helper()
	c := sim.NewCluster(1, shards, time.Millisecond)
	dst := c.Shard(0)
	if shards > 1 {
		dst = c.Shard(1)
	}
	return c, NewCrossLink(c, 1, c.Shard(0), dst, cfg)
}

func TestCrossLinkUnicast(t *testing.T) {
	c, l := newCross(t, 2, LinkConfig{Delay: time.Millisecond})
	a := NewDevice(l, macA, nil) // home side (shard 0)
	b := NewDeviceOn(l, macB, nil, c.Shard(1))
	var got []byte
	var at sim.Time
	b.OnReceive = func(m *msg.Msg) { got = m.CopyOut(); at = c.Shard(1).Now(); m.Free() }
	a.Transmit(macB, msg.New([]byte("hello")))
	c.RunUntil(sim.Time(10 * time.Millisecond))
	if string(got) != "hello" {
		t.Fatalf("received %q", got)
	}
	// 5 bytes at 10 Mb/s = 4 µs serialization, plus 1 ms propagation.
	want := sim.Time(4*time.Microsecond + time.Millisecond)
	if at != want {
		t.Fatalf("arrived at %v, want %v", at, want)
	}
	sent, dropped, delivered := l.Stats()
	if sent != 1 || dropped != 0 || delivered != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/0/1", sent, dropped, delivered)
	}
}

func TestCrossLinkBroadcastReachesPeer(t *testing.T) {
	c, l := newCross(t, 2, LinkConfig{Delay: time.Millisecond})
	a := NewDevice(l, macA, nil)
	b := NewDeviceOn(l, macB, nil, c.Shard(1))
	gotA, gotB := 0, 0
	a.OnReceive = func(m *msg.Msg) { gotA++; m.Free() }
	b.OnReceive = func(m *msg.Msg) { gotB++; m.Free() }
	a.Transmit(Broadcast, msg.New([]byte("arp?")))
	c.RunUntil(sim.Time(10 * time.Millisecond))
	if gotA != 0 || gotB != 1 {
		t.Fatalf("broadcast reached a=%d b=%d, want 0/1", gotA, gotB)
	}
	// And back: the far side can answer.
	b.Transmit(macA, msg.New([]byte("arp!")))
	c.RunUntil(sim.Time(20 * time.Millisecond))
	if gotA != 1 {
		t.Fatalf("reply not delivered to home side (got %d)", gotA)
	}
}

func TestCrossLinkBothSidesOnOneShard(t *testing.T) {
	// A cross link may connect two engines that are the same shard (the
	// one-shard layout of a sharded world); delivery still rides the mailbox.
	c, l := newCross(t, 1, LinkConfig{Delay: time.Millisecond})
	a := NewDevice(l, macA, nil)
	b := NewDeviceOn(l, macB, nil, c.Shard(0))
	_ = a
	got := 0
	b.OnReceive = func(m *msg.Msg) { got++; m.Free() }
	a.Transmit(macB, msg.New([]byte("x")))
	c.RunUntil(sim.Time(10 * time.Millisecond))
	if got != 1 {
		t.Fatalf("same-shard cross delivery: got %d frames, want 1", got)
	}
}

func TestCrossLinkSerializesPerDirection(t *testing.T) {
	c, l := newCross(t, 2, LinkConfig{BitsPerSec: 8_000_000, Delay: time.Millisecond})
	a := NewDevice(l, macA, nil)
	b := NewDeviceOn(l, macB, nil, c.Shard(1))
	var at []sim.Time
	b.OnReceive = func(m *msg.Msg) { at = append(at, c.Shard(1).Now()); m.Free() }
	// Two 1000-byte frames back to back: 1 ms serialization each at 8 Mb/s.
	a.Transmit(macB, msg.New(make([]byte, 1000)))
	a.Transmit(macB, msg.New(make([]byte, 1000)))
	c.RunUntil(sim.Time(20 * time.Millisecond))
	if len(at) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(at))
	}
	if want := sim.Time(2 * time.Millisecond); at[0] != want {
		t.Fatalf("first frame at %v, want %v", at[0], want)
	}
	if want := sim.Time(3 * time.Millisecond); at[1] != want {
		t.Fatalf("second frame at %v, want %v (serialized behind the first)", at[1], want)
	}
	// Cross-link frames ride the mailbox, not the local FIFO: each is a
	// burst of one.
	if bursts, frames := b.BurstStats(); bursts != 2 || frames != 2 {
		t.Fatalf("burst stats = (%d, %d), want (2, 2)", bursts, frames)
	}
}

func TestCrossLinkRejectsShortDelay(t *testing.T) {
	c := sim.NewCluster(1, 2, time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("cross link with delay below lookahead did not panic")
		}
	}()
	NewCrossLink(c, 1, c.Shard(0), c.Shard(1), LinkConfig{Delay: time.Microsecond})
}

func TestCrossLinkRejectsJitter(t *testing.T) {
	c := sim.NewCluster(1, 2, time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("cross link with jitter did not panic")
		}
	}()
	NewCrossLink(c, 1, c.Shard(0), c.Shard(1), LinkConfig{Delay: time.Millisecond, Jitter: time.Microsecond})
}

func TestCrossLinkRejectsCarrierControl(t *testing.T) {
	c, l := newCross(t, 2, LinkConfig{Delay: time.Millisecond})
	_ = c
	for _, op := range []func(){l.SetDown, l.SetUp, func() { l.InjectFaults(FaultPlan{Loss: 0.5}) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("carrier/fault control on a cross link did not panic")
				}
			}()
			op()
		}()
	}
}

func TestCrossLinkOneDevicePerSide(t *testing.T) {
	c, l := newCross(t, 2, LinkConfig{Delay: time.Millisecond})
	NewDevice(l, macA, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second device on one cross side did not panic")
		}
	}()
	NewDeviceOn(l, macC, nil, c.Shard(0))
}

func TestCrossLinkLossIsDeterministic(t *testing.T) {
	run := func() (sent, dropped, delivered int64) {
		c, l := newCross(t, 2, LinkConfig{Delay: time.Millisecond, Loss: 0.3})
		a := NewDevice(l, macA, nil)
		b := NewDeviceOn(l, macB, nil, c.Shard(1))
		b.OnReceive = func(m *msg.Msg) { m.Free() }
		for i := 0; i < 50; i++ {
			d := time.Duration(i) * 100 * time.Microsecond
			c.Shard(0).At(sim.Time(d), func() { a.Transmit(macB, msg.New(make([]byte, 64))) })
		}
		c.RunUntil(sim.Time(100 * time.Millisecond))
		return l.Stats()
	}
	s1, d1, v1 := run()
	s2, d2, v2 := run()
	if s1 != s2 || d1 != d2 || v1 != v2 {
		t.Fatalf("cross-link loss not deterministic: %d/%d/%d vs %d/%d/%d", s1, d1, v1, s2, d2, v2)
	}
	if d1 == 0 || v1 == 0 {
		t.Fatalf("loss plan did not both drop and deliver (dropped=%d delivered=%d)", d1, v1)
	}
}
