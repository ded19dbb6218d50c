package msg

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewAndBytes(t *testing.T) {
	m := New([]byte("hello"))
	if m.Len() != 5 || string(m.Bytes()) != "hello" {
		t.Fatalf("got %q len %d", m.Bytes(), m.Len())
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	m := NewWithHeadroom(32, 4)
	copy(m.Bytes(), "data")
	h := m.Push(8)
	copy(h, "hdrhdrhd")
	if m.Len() != 12 {
		t.Fatalf("Len = %d, want 12", m.Len())
	}
	got, err := m.Pop(8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hdrhdrhd" {
		t.Fatalf("popped %q", got)
	}
	if string(m.Bytes()) != "data" {
		t.Fatalf("payload %q after pop", m.Bytes())
	}
}

func TestPushWithoutCopy(t *testing.T) {
	ResetStats()
	m := NewWithHeadroom(64, 100)
	m.Push(14)
	m.Push(20)
	m.Push(8)
	if re, _, _ := CopyStats(); re != 0 {
		t.Fatalf("pushes within headroom caused %d realloc copies", re)
	}
}

func TestPushGrowsWhenNoHeadroom(t *testing.T) {
	ResetStats()
	m := New([]byte("payload"))
	h := m.Push(4)
	copy(h, "HDR!")
	re, _, _ := CopyStats()
	if re != 1 {
		t.Fatalf("realloc copies = %d, want 1", re)
	}
	if string(m.Bytes()) != "HDR!payload" {
		t.Fatalf("after grow: %q", m.Bytes())
	}
}

func TestPopTooMuch(t *testing.T) {
	m := New([]byte("abc"))
	if _, err := m.Pop(4); err != ErrShort {
		t.Fatalf("Pop(4) err = %v, want ErrShort", err)
	}
	// The failed pop must not consume anything.
	if m.Len() != 3 {
		t.Fatalf("failed Pop consumed bytes, len=%d", m.Len())
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	m := New([]byte("abcdef"))
	p, err := m.Peek(3)
	if err != nil || string(p) != "abc" {
		t.Fatalf("Peek = %q, %v", p, err)
	}
	if m.Len() != 6 {
		t.Fatal("Peek consumed bytes")
	}
}

func TestTrimTailAndTruncate(t *testing.T) {
	m := New([]byte("abcdef"))
	if err := m.TrimTail(2); err != nil {
		t.Fatal(err)
	}
	if string(m.Bytes()) != "abcd" {
		t.Fatalf("after TrimTail: %q", m.Bytes())
	}
	if err := m.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if string(m.Bytes()) != "a" {
		t.Fatalf("after Truncate: %q", m.Bytes())
	}
	if err := m.Truncate(5); err != ErrShort {
		t.Fatalf("growing Truncate err = %v", err)
	}
}

func TestSplit(t *testing.T) {
	m := New([]byte("0123456789"))
	head, err := m.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	if string(head.Bytes()) != "0123" || string(m.Bytes()) != "456789" {
		t.Fatalf("split: head=%q rest=%q", head.Bytes(), m.Bytes())
	}
}

func TestSplitSharesBuffer(t *testing.T) {
	m := New([]byte("0123456789"))
	head, _ := m.Split(4)
	head.Bytes()[0] = 'X'
	// head and m share storage; m's view does not cover index 0, but the
	// underlying array is the same. Verify via re-push.
	m2 := m
	_ = m2
	if &head.Bytes()[0] == &m.Bytes()[0] {
		t.Fatal("views overlap")
	}
}

func TestCloneViewIndependence(t *testing.T) {
	m := New([]byte("abcdef"))
	c := m.Clone()
	if _, err := c.Pop(3); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 6 {
		t.Fatal("Pop on clone moved original view")
	}
	if string(c.Bytes()) != "def" {
		t.Fatalf("clone view %q", c.Bytes())
	}
}

type recordingPool struct{ released [][]byte }

func (p *recordingPool) Release(buf []byte) { p.released = append(p.released, buf) }

func TestFreeReturnsToPoolOnce(t *testing.T) {
	p := &recordingPool{}
	buf := make([]byte, 128)
	m := FromBuffer(buf, 32, 96, p)
	c := m.Clone()
	m.Free()
	if len(p.released) != 0 {
		t.Fatal("buffer released while a clone is alive")
	}
	c.Free()
	if len(p.released) != 1 {
		t.Fatalf("released %d times, want 1", len(p.released))
	}
}

// shellPool is a Recycler with a free list of one.
type shellPool struct {
	buf   []byte
	shell Shell
	n     int
}

func (p *shellPool) Release(buf []byte)          { p.Recycle(buf, Shell{}) }
func (p *shellPool) Recycle(buf []byte, s Shell) { p.buf, p.shell, p.n = buf, s, p.n+1 }

// TestRecyclerGetsTheShellBack: the last Free, of whichever view, hands a
// Recycler the buffer and that view's struct and cell; the next message is
// built out of them and allocates nothing; until then the freed view still
// trips the double-free check.
func TestRecyclerGetsTheShellBack(t *testing.T) {
	p := &shellPool{}
	m := Shell{}.FromBuffer(make([]byte, 128), 32, 96, p)
	c := m.Clone()
	m.Free()
	if p.n != 0 {
		t.Fatal("buffer recycled while a clone is alive")
	}
	c.Free()
	if p.n != 1 || len(p.buf) != 128 || p.shell == (Shell{}) {
		t.Fatalf("recycled %d times, %d bytes, shell %+v", p.n, len(p.buf), p.shell)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double free of a recycled view did not panic")
			}
		}()
		c.Free()
	}()
	if got := p.shell.FromBuffer(p.buf, 0, 10, p); got != c || got.Len() != 10 || got.Tag != nil {
		t.Fatalf("the next message is %p %v, want the freed view %p made new", got, got, c)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.Free()
		c = p.shell.FromBuffer(p.buf, 32, 96, p)
	}); allocs != 0 {
		t.Fatalf("a Free and FromBuffer round a Recycler allocate %.0f objects", allocs)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m := New([]byte("x"))
	m.Free()
	m.Free()
}

func TestCopyOutCounts(t *testing.T) {
	ResetStats()
	m := New([]byte("abcdef"))
	out := m.CopyOut()
	if !bytes.Equal(out, []byte("abcdef")) {
		t.Fatalf("CopyOut = %q", out)
	}
	_, ex, by := CopyStats()
	if ex != 1 || by != 6 {
		t.Fatalf("stats = %d copies %d bytes", ex, by)
	}
	out[0] = 'X'
	if m.Bytes()[0] == 'X' {
		t.Fatal("CopyOut aliases message")
	}
}

func TestCopyIn(t *testing.T) {
	ResetStats()
	m := NewWithHeadroom(0, 4)
	if err := m.CopyIn([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if string(m.Bytes()) != "abcd" {
		t.Fatalf("CopyIn result %q", m.Bytes())
	}
	if err := m.CopyIn([]byte("toolong")); err != ErrShort {
		t.Fatalf("mismatched CopyIn err = %v", err)
	}
}

func TestFromBufferBadViewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad view did not panic")
		}
	}()
	FromBuffer(make([]byte, 10), 4, 20, nil)
}

func TestPushAfterGrowDetaches(t *testing.T) {
	p := &recordingPool{}
	buf := make([]byte, 8)
	m := FromBuffer(buf, 0, 8, p)
	m.Push(16) // must grow and release old buffer to pool
	if len(p.released) != 1 {
		t.Fatalf("old buffer not released on grow, released=%d", len(p.released))
	}
	m.Free() // new private buffer has no pool; must not re-release
	if len(p.released) != 1 {
		t.Fatal("grown buffer wrongly released to old pool")
	}
}

// Property: any sequence of Push(k)/Pop(k) with matching sizes restores the
// original payload.
func TestPropertyPushPopInverse(t *testing.T) {
	f := func(payload []byte, sizes []uint8) bool {
		m := NewWithHeadroom(4096, len(payload))
		copy(m.Bytes(), payload)
		var pushed []int
		total := 0
		for _, s := range sizes {
			n := int(s % 64)
			if total+n > 4096 {
				break
			}
			m.Push(n)
			pushed = append(pushed, n)
			total += n
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			if _, err := m.Pop(pushed[i]); err != nil {
				return false
			}
		}
		return bytes.Equal(m.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Split(n) preserves total bytes and order.
func TestPropertySplitPreservesBytes(t *testing.T) {
	f := func(payload []byte, at uint8) bool {
		m := New(append([]byte(nil), payload...))
		n := 0
		if len(payload) > 0 {
			n = int(at) % (len(payload) + 1)
		}
		head, err := m.Split(n)
		if err != nil {
			return false
		}
		joined := append(append([]byte(nil), head.Bytes()...), m.Bytes()...)
		return bytes.Equal(joined, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	m := NewWithHeadroom(128, 1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Push(14)
		m.Push(20)
		m.Push(8)
		m.Pop(8)
		m.Pop(20)
		m.Pop(14)
	}
}
