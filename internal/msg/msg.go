// Package msg implements the message abstraction that flows along Scout
// paths. Like the x-kernel messages Scout inherited, a Msg is a view onto a
// shared backing buffer with headroom, so protocol layers can prepend and
// strip headers without copying the payload. Copies that do happen (headroom
// exhaustion, explicit CopyOut) are counted, which lets the benchmark
// harness verify the paper's claim that path-oriented buffering removes
// per-layer copies.
package msg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrShort is returned when a message is shorter than a requested header.
var ErrShort = errors.New("msg: message too short")

// Stats counts buffer copies performed by the message layer. The Scout path
// stack is expected to keep these at zero along the data path; the baseline
// stack copies deliberately.
var stats struct {
	reallocCopies  atomic.Int64 // Push had to grow the buffer
	explicitCopies atomic.Int64 // CopyOut / CopyIn calls
	copiedBytes    atomic.Int64
}

// CopyStats reports (reallocation copies, explicit copies, bytes copied)
// since the last ResetStats.
func CopyStats() (reallocs, explicit, bytes int64) {
	return stats.reallocCopies.Load(), stats.explicitCopies.Load(), stats.copiedBytes.Load()
}

// ResetStats zeroes the copy counters.
func ResetStats() {
	stats.reallocCopies.Store(0)
	stats.explicitCopies.Store(0)
	stats.copiedBytes.Store(0)
}

// Releaser is implemented by buffer pools (see package fbuf) that want their
// storage back when the last view of a message is freed.
type Releaser interface {
	Release(buf []byte)
}

// Recycler is a Releaser that also takes back what the freed message itself
// was made of. A pool that files the shell on its free list beside the buffer
// builds the next message over that buffer out of it, so a Get/Free cycle
// allocates nothing on any run of any build. (The sync.Pools below promise
// less: they empty at every collection, and under the race detector they
// drop a quarter of what they are given, at random.)
type Recycler interface {
	Releaser
	// Recycle is Release for a buffer whose message leaves s behind.
	Recycle(buf []byte, s Shell)
}

// Shell is the view struct and refcount cell of a message whose last view
// was freed. The zero Shell is empty.
type Shell struct {
	m    *Msg
	refs *atomic.Int32
}

// FromBuffer is the package's FromBuffer with the message built out of s; an
// empty shell allocates one, in one piece.
//
//scout:assert an out-of-range view is fbuf ownership corruption; continuing would alias foreign memory
func (s Shell) FromBuffer(buf []byte, off, end int, pool Releaser) *Msg {
	if off < 0 || end < off || end > len(buf) {
		panic(fmt.Sprintf("msg: bad view [%d:%d) over %d bytes", off, end, len(buf)))
	}
	m, refs := s.m, s.refs
	if m == nil {
		m, refs = newViewRefs(false)
	}
	*m = Msg{buf: buf, off: off, end: end, refs: refs, pool: pool}
	refs.Store(1)
	return m
}

// Msg is a mutable view [off:end) onto a backing buffer. Clones and Split
// results share the backing buffer; Free releases it to its pool when the
// last view goes away.
type Msg struct {
	buf  []byte
	off  int
	end  int
	refs *atomic.Int32
	pool Releaser

	// Arrival is the virtual time (sim.Time as int64 nanoseconds) at which
	// the message entered the system; devices stamp it so latency can be
	// measured end to end.
	Arrival int64
	// Trace is the per-message span identifier assigned by the pathtrace
	// subsystem the first time the message enters a traced path queue; zero
	// means untraced.
	Trace int64
	// TxStart/TxEnd bracket the link serialization of the frame this view
	// arrived in (virtual nanoseconds); the sending link stamps them so the
	// receiver's tracer can emit a wire-occupancy span. Zero when the message
	// never crossed a link.
	TxStart int64
	TxEnd   int64
	// Tag carries router-specific per-message context (e.g. the MPEG frame
	// number a packet belongs to). It travels with the view, not the buffer.
	Tag any

	// Flat per-message routing metadata. The protocol stages used to box
	// addresses and participant pairs into Tag, which heap-allocates on
	// every packet (an interface value holding a [4]byte escapes); the flat
	// fields below carry the same information allocation-free. They travel
	// with the view like Tag; meta records which of them are valid.
	netSrc, netDst         [4]byte
	netSrcPort, netDstPort uint16
	linkDst                [6]byte
	meta                   uint8
}

// meta validity bits.
const (
	metaNetSrc uint8 = 1 << iota
	metaNetDst
	metaLinkDst
)

// SetNetSrc records the network-layer source of the message (IP stamps the
// address on receive; UDP adds the port).
func (m *Msg) SetNetSrc(addr [4]byte, port uint16) {
	m.netSrc, m.netSrcPort = addr, port
	m.meta |= metaNetSrc
}

// NetSrc reports the network-layer source, if one was recorded.
func (m *Msg) NetSrc() (addr [4]byte, port uint16, ok bool) {
	return m.netSrc, m.netSrcPort, m.meta&metaNetSrc != 0
}

// SetNetDst records the network-layer destination override for outbound
// messages (wide paths route per message).
func (m *Msg) SetNetDst(addr [4]byte, port uint16) {
	m.netDst, m.netDstPort = addr, port
	m.meta |= metaNetDst
}

// NetDst reports the network-layer destination override, if any.
func (m *Msg) NetDst() (addr [4]byte, port uint16, ok bool) {
	return m.netDst, m.netDstPort, m.meta&metaNetDst != 0
}

// SetLinkDst records the resolved link-layer destination for an outbound
// frame (IP sets it after ARP resolution; ETH consumes it).
func (m *Msg) SetLinkDst(mac [6]byte) {
	m.linkDst = mac
	m.meta |= metaLinkDst
}

// LinkDst reports the link-layer destination, if one was recorded.
func (m *Msg) LinkDst() (mac [6]byte, ok bool) {
	return m.linkDst, m.meta&metaLinkDst != 0
}

// msgPool and refsPool recycle message views and their refcount cells for
// messages backed by a pool that is a plain Releaser, whose lifecycle is
// explicit: the data path cycles one view per packet, and without recycling
// those structs are the last per-packet allocation left. (A Recycler keeps
// them itself.) Views over plain buffers (New, NewWithHeadroom, FromBuffer
// with a nil pool) are not recycled — their lifetime is not tied to a pool,
// so the GC owns them.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}
var refsPool = sync.Pool{New: func() any { return new(atomic.Int32) }}

// newView returns a view struct, recycled when pooled.
func newView(pooled bool) *Msg {
	if pooled {
		return msgPool.Get().(*Msg)
	}
	return new(Msg)
}

// standalone packs a view and its refcount cell into one allocation for
// messages the GC owns (no pool to recycle them into) and for the first
// message over a Recycler's buffer (which keeps both from then on). The
// embedded cell never enters refsPool: Free returns a cell to that list only
// when the pool is a plain Releaser, and such cells always come from it.
type standalone struct {
	m    Msg
	refs atomic.Int32
}

// newViewRefs returns a view struct and refcount cell, recycled when
// pooled, combined in one allocation otherwise.
func newViewRefs(pooled bool) (*Msg, *atomic.Int32) {
	if pooled {
		return msgPool.Get().(*Msg), refsPool.Get().(*atomic.Int32)
	}
	s := new(standalone)
	return &s.m, &s.refs
}

// New wraps data in a message with no headroom. The message takes ownership
// of data.
func New(data []byte) *Msg {
	m, refs := newViewRefs(false)
	*m = Msg{buf: data, off: 0, end: len(data), refs: refs}
	refs.Store(1)
	return m
}

// NewWithHeadroom returns a message with size bytes of zeroed payload and
// headroom bytes of space in front of it for headers to be pushed.
//
//scout:assert negative sizes are caller arithmetic bugs, not packet data
func NewWithHeadroom(headroom, size int) *Msg {
	if headroom < 0 || size < 0 {
		panic("msg: negative size")
	}
	buf := make([]byte, headroom+size)
	m, refs := newViewRefs(false)
	*m = Msg{buf: buf, off: headroom, end: headroom + size, refs: refs}
	refs.Store(1)
	return m
}

// FromBuffer builds a message over an externally owned buffer (typically an
// fbuf). The view starts at [off:end); pool (may be nil) receives the buffer
// back on final Free.
//
//scout:assert an out-of-range view is fbuf ownership corruption; continuing would alias foreign memory
func FromBuffer(buf []byte, off, end int, pool Releaser) *Msg {
	if off < 0 || end < off || end > len(buf) {
		panic(fmt.Sprintf("msg: bad view [%d:%d) over %d bytes", off, end, len(buf)))
	}
	pooled := pool != nil
	m, refs := newViewRefs(pooled)
	*m = Msg{buf: buf, off: off, end: end, refs: refs, pool: pool}
	refs.Store(1)
	return m
}

// Len reports the number of bytes in the current view.
func (m *Msg) Len() int { return m.end - m.off }

// Headroom reports how many bytes can be pushed without reallocating.
func (m *Msg) Headroom() int { return m.off }

// Bytes returns the current view. The slice aliases the backing buffer.
func (m *Msg) Bytes() []byte { return m.buf[m.off:m.end] }

// Push prepends n bytes to the front of the message and returns the slice
// covering them, ready for a header to be written. If the headroom is
// insufficient, the backing buffer is grown with a copy (counted in
// CopyStats) — correct, but paths are expected to allocate enough headroom
// up front so this never triggers on the fast path.
//
//scout:assert a negative push is header-size arithmetic corruption in the protocol stage
func (m *Msg) Push(n int) []byte {
	if n < 0 {
		panic("msg: negative Push")
	}
	if n > m.off {
		grow := n - m.off + 64
		old := m.buf
		nb := make([]byte, grow+len(m.buf))
		copy(nb[grow:], m.buf)
		stats.reallocCopies.Add(1)
		stats.copiedBytes.Add(int64(m.end - m.off))
		m.buf = nb
		m.off += grow
		m.end += grow
		// The grown buffer is private; the original stays with other views.
		m.detach(old)
	}
	m.off -= n
	return m.buf[m.off : m.off+n]
}

// Pop strips n bytes from the front and returns them (aliasing the buffer).
// Short input returns ErrShort; only a negative n (caller arithmetic bug)
// panics.
//
//scout:assert a negative pop is header-size arithmetic corruption in the protocol stage
func (m *Msg) Pop(n int) ([]byte, error) {
	if n < 0 {
		panic("msg: negative Pop")
	}
	if n > m.Len() {
		return nil, ErrShort
	}
	h := m.buf[m.off : m.off+n]
	m.off += n
	return h, nil
}

// Peek returns the first n bytes without consuming them.
func (m *Msg) Peek(n int) ([]byte, error) {
	if n > m.Len() {
		return nil, ErrShort
	}
	return m.buf[m.off : m.off+n], nil
}

// TrimTail removes n bytes from the end of the view (e.g. padding).
func (m *Msg) TrimTail(n int) error {
	if n < 0 || n > m.Len() {
		return ErrShort
	}
	m.end -= n
	return nil
}

// Truncate shortens the view to n bytes.
func (m *Msg) Truncate(n int) error {
	if n < 0 || n > m.Len() {
		return ErrShort
	}
	m.end = m.off + n
	return nil
}

// Split removes the first n bytes into a new message that shares the backing
// buffer (used by IP fragmentation). The receiver keeps the remainder.
func (m *Msg) Split(n int) (*Msg, error) {
	if n < 0 || n > m.Len() {
		return nil, ErrShort
	}
	head := newView(m.pool != nil)
	*head = *m
	head.end = m.off + n
	m.refs.Add(1)
	m.off += n
	return head, nil
}

// Clone returns a new independent view of the same bytes. Mutating the view
// bounds of one clone does not affect the other; the payload bytes are
// shared.
func (m *Msg) Clone() *Msg {
	m.refs.Add(1)
	c := newView(m.pool != nil)
	*c = *m
	return c
}

// CopyOut returns a freshly allocated copy of the view, counting the copy.
func (m *Msg) CopyOut() []byte {
	out := make([]byte, m.Len())
	copy(out, m.Bytes())
	stats.explicitCopies.Add(1)
	stats.copiedBytes.Add(int64(len(out)))
	return out
}

// CopyIn overwrites the view's bytes with data (len(data) must equal Len),
// counting the copy. The baseline stack uses it to model the kernel/user
// boundary copy.
func (m *Msg) CopyIn(data []byte) error {
	if len(data) != m.Len() {
		return ErrShort
	}
	copy(m.Bytes(), data)
	stats.explicitCopies.Add(1)
	stats.copiedBytes.Add(int64(len(data)))
	return nil
}

// Free drops this view's reference; when the last reference goes, the
// backing buffer returns to its pool (if any). Using a Msg after Free is a
// bug; Free is idempotent per view only in that double-free panics.
//
// Pool-backed views are recycled: when the final reference of an fbuf-backed
// message goes, the view struct and refcount cell return to the pool with the
// buffer (a Recycler) or to the package's free lists (a plain Releaser), so
// the steady-state data path allocates nothing.
//
//scout:assert a double free means two owners of one fbuf; silent reuse would corrupt payloads
func (m *Msg) Free() {
	if m.refs == nil {
		panic("msg: double free")
	}
	refs, pool, buf := m.refs, m.pool, m.buf
	m.refs = nil
	m.buf = nil
	m.Tag = nil
	m.meta = 0
	if refs.Add(-1) == 0 && pool != nil {
		m.pool = nil
		if r, ok := pool.(Recycler); ok {
			r.Recycle(buf, Shell{m: m, refs: refs})
			return
		}
		pool.Release(buf)
		refsPool.Put(refs)
		msgPool.Put(m)
	}
}

// detach gives m a private reference after its buffer was reallocated,
// returning the old buffer to its pool if m held the last reference to it
// (the old cell is left to the collector: this is the copy path).
func (m *Msg) detach(oldBuf []byte) {
	oldRefs := m.refs
	m.refs = new(atomic.Int32)
	m.refs.Store(1)
	oldPool := m.pool
	m.pool = nil
	if oldRefs.Add(-1) == 0 && oldPool != nil {
		oldPool.Release(oldBuf)
	}
}

func (m *Msg) String() string {
	return fmt.Sprintf("Msg(len=%d headroom=%d)", m.Len(), m.Headroom())
}
