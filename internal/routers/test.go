package routers

import (
	"errors"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/sched"
)

// TestImpl is the TEST router of Figure 7: a message source/sink above UDP,
// used by the microbenchmarks (path creation, demux), the examples and the
// protocol integration tests. Each TEST path gets a worker thread that
// services its input queue.
type TestImpl struct {
	cpu *sched.Sched

	// PerMsgCost is charged per message absorbed.
	PerMsgCost time.Duration
	// Priority is the RR priority of TEST path threads.
	Priority int
	// OnMsg, when non-nil, observes each inbound message (and owns it).
	OnMsg func(p *core.Path, m *msg.Msg)

	Received int64
	Bytes    int64
}

// NewTest returns a TEST router scheduling its path threads on cpu (nil is
// allowed for graphs that only create paths without running traffic).
func NewTest(cpu *sched.Sched) *TestImpl {
	return &TestImpl{cpu: cpu, PerMsgCost: time.Microsecond, Priority: 2}
}

// Services declares the down link to UDP.
func (ti *TestImpl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{{Name: "down", Type: core.NetServiceType, InitAfterPeers: true}}
}

// Init has no work.
func (ti *TestImpl) Init(r *core.Router) error { return nil }

// CreateStage contributes the TEST end stage.
func (ti *TestImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	if enter != core.NoService {
		return nil, nil, errors.New("test: paths must start at TEST")
	}
	s := &core.Stage{}
	s.SetIface(core.BWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		i.Path().ChargeExec(ti.PerMsgCost)
		ti.Received++
		ti.Bytes += int64(m.Len())
		if ti.OnMsg != nil {
			ti.OnMsg(i.Path(), m)
			return nil
		}
		m.Free()
		return nil
	}))
	s.SetIface(core.FWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return i.DeliverNext(m)
	}))
	if ti.cpu != nil {
		s.Establish = func(s *core.Stage, a *attr.Attrs) error {
			sched.ServeIncoming(ti.cpu, "test", sched.PolicyRR, ti.Priority, s.Path, core.BWD)
			return nil
		}
	}
	down, err := r.Link("down")
	if err != nil {
		return nil, nil, err
	}
	return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}
