// Package attr implements the attribute sets (name/value pairs) that Scout
// uses both to describe the invariants of a path being created (§3.3 of the
// paper) and to let stages of a live path share state anonymously (§3.2).
package attr

import "sort"

// Name identifies an attribute. Well-known names below are the ones the
// paper mentions explicitly; routers are free to invent their own.
type Name string

// Attribute names from §4.1 of the paper.
const (
	// NetParticipants holds the remote <ip-addr, udp-port> pair a network
	// path talks to. The value is protocol-specific (see proto packages).
	NetParticipants Name = "PA_NET_PARTICIPANTS"
	// PathName forces or supplies routing decisions as a sequence of
	// router names ("MPEG" in the paper's example). Value: string.
	PathName Name = "PA_PATHNAME"
	// ProtID carries the protocol id of the next-higher protocol; it is
	// reset by each networking router during path creation. Value: int.
	ProtID Name = "PA_PROTID"
	// Deadline describes a soft-realtime requirement for the path.
	Deadline Name = "PA_DEADLINE"
	// QueueLen lets the creator size the path's queues. Value: int.
	QueueLen Name = "PA_QUEUELEN"
	// MemLimit is the admission-control memory budget in bytes. Value: int.
	MemLimit Name = "PA_MEMLIMIT"
)

// Attribute names invented by this reproduction's routers, beyond the ones
// §4.1 of the paper spells out. They live here — and only here — because the
// attribute vocabulary is the contract between path creators, routers, and
// the demux (§3.2): a name declared once is a name every party can agree on,
// while a raw string is a typo waiting to create an attribute nobody reads.
// scoutlint's attrkey analyzer enforces this. Routers re-export the subset
// they own (e.g. tcp.AttrPassive = attr.TCPPassive) for doc locality.
const (
	// ListenChild marks a connection path spawned by a listening TCP
	// path in response to a SYN, as opposed to one the application
	// created. Value: bool.
	ListenChild Name = "PA_LISTEN_CHILD"
	// TCPPassive marks a path created in response to a SYN. Value: bool.
	TCPPassive Name = "PA_TCP_PASSIVE"
	// TCPRemoteSeq carries the peer's initial sequence number. Value: int.
	TCPRemoteSeq Name = "PA_TCP_RSEQ"
	// EthDst carries the resolved destination MAC as a path attribute;
	// IP's stage sets it once ARP answers, ETH's stage reads it per
	// frame. Value: netdev.MAC.
	EthDst Name = "PA_ETH_DST"
	// LocalPort requests a specific local UDP/TCP port. Value: int.
	LocalPort Name = "PA_LOCAL_PORT"
	// MPEGFPS is the playback frame rate. Value: int.
	MPEGFPS Name = "PA_MPEG_FPS"
	// MPEGFrames is the expected clip length in frames (0 = open-ended).
	// Value: int.
	MPEGFrames Name = "PA_MPEG_FRAMES"
	// SchedPolicy selects the path's scheduling policy ("edf" or "rr").
	// Value: string.
	SchedPolicy Name = "PA_SCHED"
	// SchedPriority is the RR priority for SchedPolicy="rr". Value: int.
	SchedPriority Name = "PA_PRIORITY"
	// CostModel selects header-only decode with modeled CPU cost (true)
	// instead of full pixel decode. Value: bool.
	CostModel Name = "PA_COST_MODEL"
	// DeadlineFrom overrides bottleneck-queue selection for deadline
	// computation: "out" (default, §4.3), "in", or "min". Value: string.
	DeadlineFrom Name = "PA_DEADLINE_FROM"
	// Decimate displays only every Nth frame; with it set, the MPEG stage
	// installs an early-discard filter so packets of skipped frames are
	// dropped at the network adapter (§4.4). Value: int N>1.
	Decimate Name = "PA_DECIMATE"
	// MFLOWReliable selects reliable MFLOW on the path: the receiver
	// resequences out-of-order data and the sender buffers and retransmits
	// unacknowledged packets. Value: bool.
	MFLOWReliable Name = "PA_MFLOW_RELIABLE"
	// Trace opts the path into the pathtrace subsystem: the appliance
	// instruments its stages and queues after creation, provided the kernel
	// was booted with tracing enabled. Value: bool.
	Trace Name = "PA_TRACE"
	// TraceLabel is the human-readable label the tracer exports for the
	// path (e.g. the clip name) instead of the synthetic path#N string.
	// Value: string.
	TraceLabel Name = "PA_TRACE_LABEL"
	// Degrade opts the path into graceful overload degradation: the
	// appliance attaches a degradation controller that reacts to watchdog
	// deadline-miss signals by shedding late-GOP P frames (never I frames)
	// and throttling the source window. Value: bool.
	Degrade Name = "PA_DEGRADE"
	// MPEGGOP is the clip's group-of-pictures length, which the degradation
	// ladder needs to rank P frames by GOP position. Value: int (default 15).
	MPEGGOP Name = "PA_MPEG_GOP"
	// MPathLink selects which parallel down link (NIC) a multipath subpath
	// runs over: IP routes the path through its i-th "down" ETH service link
	// and resolves next hops through that link's ARP state. Value: int
	// (default 0, the only link of a single-homed appliance).
	MPathLink Name = "PA_MPATH_LINK"
	// MPathJoin marks a path as a sibling subpath of an existing multipath
	// flow: MFLOW's stage joins the primary path's flow state (shared
	// sequence space, hold buffer, and window) instead of creating its own.
	// Value: *core.Path (the primary).
	MPathJoin Name = "PA_MPATH_JOIN"
	// MPathSub is the subpath index within a multipath flow's PathSet,
	// used for trace/metrics labels. Value: int.
	MPathSub Name = "PA_MPATH_SUB"
)

// Attrs is a mutable set of name/value pairs. A nil *Attrs behaves like an
// empty, read-only set, so routers can call Get on whatever they are handed
// without nil checks.
type Attrs struct {
	m map[Name]any
}

// New returns an empty attribute set.
func New() *Attrs { return &Attrs{m: make(map[Name]any)} }

// Set stores v under n and returns a for chaining.
func (a *Attrs) Set(n Name, v any) *Attrs {
	if a.m == nil {
		a.m = make(map[Name]any)
	}
	a.m[n] = v
	return a
}

// Get returns the value stored under n.
func (a *Attrs) Get(n Name) (any, bool) {
	if a == nil || a.m == nil {
		return nil, false
	}
	v, ok := a.m[n]
	return v, ok
}

// Has reports whether n is present.
func (a *Attrs) Has(n Name) bool {
	_, ok := a.Get(n)
	return ok
}

// Delete removes n.
func (a *Attrs) Delete(n Name) {
	if a != nil && a.m != nil {
		delete(a.m, n)
	}
}

// Len reports the number of attributes.
func (a *Attrs) Len() int {
	if a == nil {
		return 0
	}
	return len(a.m)
}

// Int returns the attribute as an int. ok is false if the attribute is
// absent or not an int.
func (a *Attrs) Int(n Name) (int, bool) {
	v, ok := a.Get(n)
	if !ok {
		return 0, false
	}
	i, ok := v.(int)
	return i, ok
}

// IntDefault returns the attribute as an int, or def if absent/mistyped.
func (a *Attrs) IntDefault(n Name, def int) int {
	if i, ok := a.Int(n); ok {
		return i
	}
	return def
}

// Bool returns the attribute as a bool. ok is false if the attribute is
// absent or not a bool.
func (a *Attrs) Bool(n Name) (bool, bool) {
	v, ok := a.Get(n)
	if !ok {
		return false, false
	}
	b, ok := v.(bool)
	return b, ok
}

// String returns the attribute as a string.
func (a *Attrs) String(n Name) (string, bool) {
	v, ok := a.Get(n)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

// Float returns the attribute as a float64.
func (a *Attrs) Float(n Name) (float64, bool) {
	v, ok := a.Get(n)
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	return f, ok
}

// Clone returns an independent shallow copy. Cloning nil yields a usable
// empty set.
func (a *Attrs) Clone() *Attrs {
	c := New()
	if a != nil {
		for k, v := range a.m {
			c.m[k] = v
		}
	}
	return c
}

// Names returns the attribute names in sorted order (for stable printing).
func (a *Attrs) Names() []Name {
	if a == nil {
		return nil
	}
	names := make([]Name, 0, len(a.m))
	for k := range a.m {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}
