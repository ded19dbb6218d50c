package routers

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"scout/internal/admission"
	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/proto/inet"
	"scout/internal/sched"
)

// ShellImpl is the SHELL router (§4.1): it listens for command requests over
// UDP and maps each command into a path-create invocation — for the
// mpeg command, a pathCreate on the DISPLAY router with
// PA_NET_PARTICIPANTS naming the requester and PA_PATHNAME forcing the
// creation through MPEG.
type ShellImpl struct {
	cpu *sched.Sched

	// Port is the UDP port SHELL listens on.
	Port int
	// Target names the router commands create paths on.
	Target string
	// Priority is the shell path thread's RR priority.
	Priority int
	// PerCommandCost is the CPU charged per command processed.
	PerCommandCost time.Duration

	// Admission, when non-nil, gates mpeg commands through §4.4's
	// admission control: the policy decides the memory grant before path
	// creation starts, and CPU demand is predicted from the bits→CPU
	// model. (The paper designs this but notes it was "not yet
	// implemented in Scout"; here it is.)
	Admission *admission.Controller

	router *core.Router
	path   *core.Path
	thread *sched.Thread

	paths  map[int64]*core.Path
	grants map[int64]int64 // path pid → admission grant id
}

// NewShell returns a SHELL router listening on the given UDP port.
func NewShell(cpu *sched.Sched, port int) *ShellImpl {
	return &ShellImpl{
		cpu:            cpu,
		Port:           port,
		Target:         "DISPLAY",
		Priority:       2,
		PerCommandCost: 50 * time.Microsecond,
		paths:          make(map[int64]*core.Path),
		grants:         make(map[int64]int64),
	}
}

// Services declares the down link to UDP.
func (sh *ShellImpl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{{Name: "down", Type: core.NetServiceType, InitAfterPeers: true}}
}

// Init creates the shell's own listen path (SHELL→UDP→IP→ETH).
func (sh *ShellImpl) Init(r *core.Router) error {
	sh.router = r
	p, err := r.Graph.CreatePath(r, attr.New().Set(inet.AttrLocalPort, sh.Port))
	if err != nil {
		return fmt.Errorf("shell: creating listen path: %w", err)
	}
	sh.path = p
	sh.thread = sched.ServeIncoming(sh.cpu, "shell", sched.PolicyRR, sh.Priority, p, core.BWD)
	return nil
}

// CreateStage contributes the SHELL stage of the listen path.
func (sh *ShellImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	if enter != core.NoService {
		return nil, nil, errors.New("shell: paths may only start at SHELL")
	}
	s := &core.Stage{}
	s.SetIface(core.BWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		i.Path().ChargeExec(sh.PerCommandCost)
		sh.handle(m)
		return nil
	}))
	s.SetIface(core.FWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return i.DeliverNext(m)
	}))
	down, err := r.Link("down")
	if err != nil {
		return nil, nil, err
	}
	return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

// handle processes one inbound command datagram and replies to the sender.
func (sh *ShellImpl) handle(m *msg.Msg) {
	var from inet.Participants
	if a, port, ok := m.NetSrc(); ok { // stamped by the UDP stage
		from = inet.Participants{RemoteAddr: inet.Addr(a), RemotePort: port}
	} else {
		from, _ = m.Tag.(inet.Participants)
	}
	cmd := string(m.Bytes())
	m.Free()
	reply := sh.Execute(cmd, from)
	out := msg.NewWithHeadroom(80, len(reply))
	copy(out.Bytes(), reply)
	out.SetNetDst([4]byte(from.RemoteAddr), from.RemotePort)
	if err := sh.path.Inject(core.FWD, out); err != nil {
		out.Free()
	}
}

// Execute runs one shell command on behalf of a requester and returns the
// reply text. It is exported so local tools (and tests) can drive SHELL
// without the network. Commands:
//
//	mpeg <srcport> <fps> [frames] [sched] [prio] [qlen] [avgbits]
//	    create an MPEG path; the video source is the requester's address
//	    at <srcport>. Replies "OK <pid> <local-port>". With admission
//	    control enabled and avgbits supplied, an inadmissible video is
//	    refused ("BUSY try decimation N" when reduced quality would fit,
//	    §4.4).
//	stop <pid>
//	    delete a path created by this shell. Replies "OK".
//	stat <pid>
//	    report a path's display statistics.
func (sh *ShellImpl) Execute(cmd string, from inet.Participants) string {
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return "ERR empty command"
	}
	switch fields[0] {
	case "mpeg", "mpeg_decode":
		return sh.cmdMPEG(fields[1:], from)
	case "stop":
		if len(fields) != 2 {
			return "ERR usage: stop <pid>"
		}
		pid, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return "ERR bad pid"
		}
		p, ok := sh.paths[pid]
		if !ok {
			return "ERR no such path"
		}
		p.Delete()
		delete(sh.paths, pid)
		if gid, ok := sh.grants[pid]; ok {
			sh.Admission.Release(gid)
			delete(sh.grants, pid)
		}
		return "OK"
	case "stat":
		if len(fields) != 2 {
			return "ERR usage: stat <pid>"
		}
		pid, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return "ERR bad pid"
		}
		p, ok := sh.paths[pid]
		if !ok {
			return "ERR no such path"
		}
		return fmt.Sprintf("OK msgs=%d cpu=%v mem=%d", p.Msgs[core.BWD], p.CPUTime(), p.MemoryBytes())
	default:
		return "ERR unknown command " + fields[0]
	}
}

func (sh *ShellImpl) cmdMPEG(args []string, from inet.Participants) string {
	if len(args) < 2 {
		return "ERR usage: mpeg <srcport> <fps> [frames] [sched] [prio] [qlen] [avgbits]"
	}
	srcPort, err1 := strconv.Atoi(args[0])
	fps, err2 := strconv.Atoi(args[1])
	if err1 != nil || err2 != nil || srcPort <= 0 || srcPort > 0xffff || fps <= 0 {
		return "ERR bad srcport/fps"
	}
	a := attr.New().
		Set(attr.NetParticipants, inet.Participants{RemoteAddr: from.RemoteAddr, RemotePort: uint16(srcPort)}).
		Set(attr.PathName, "MPEG").
		Set(AttrFPS, fps)
	if len(args) >= 3 {
		frames, err := strconv.Atoi(args[2])
		if err != nil {
			return "ERR bad frames"
		}
		a.Set(AttrFrames, frames)
	}
	if len(args) >= 4 {
		a.Set(AttrSched, args[3])
	}
	if len(args) >= 5 {
		prio, err := strconv.Atoi(args[4])
		if err != nil {
			return "ERR bad prio"
		}
		a.Set(AttrPriority, prio)
	}
	qlen := 32
	if len(args) >= 6 {
		q, err := strconv.Atoi(args[5])
		if err != nil || q <= 0 {
			return "ERR bad qlen"
		}
		qlen = q
		a.Set(attr.QueueLen, qlen)
	}

	// Admission control (§4.4): decide the memory grant before path
	// creation starts, and predict CPU demand from the average frame size
	// (the source advertises it in the command).
	grantID := int64(0)
	if sh.Admission != nil && len(args) >= 7 {
		avgBits, err := strconv.ParseFloat(args[6], 64)
		if err != nil || avgBits <= 0 {
			return "ERR bad avgbits"
		}
		memNeed := int64(4*qlen*16 + 2048) // path footprint: 4 queues + objects
		id, g, aerr := sh.Admission.AdmitVideo(fps, avgBits, memNeed)
		if aerr != nil {
			if n := sh.Admission.SuggestDecimation(fps, avgBits, memNeed); n > 1 {
				return fmt.Sprintf("BUSY try decimation %d", n)
			}
			return "ERR " + aerr.Error()
		}
		grantID = id
		a.Set(attr.MemLimit, int(g.Mem))
	}

	target, ok := sh.router.Graph.Router(sh.Target)
	if !ok {
		return "ERR no target router " + sh.Target
	}
	p, err := sh.router.Graph.CreatePath(target, a)
	if err != nil {
		if grantID != 0 {
			sh.Admission.Release(grantID)
		}
		return "ERR " + err.Error()
	}
	sh.paths[p.PID] = p
	if grantID != 0 {
		sh.grants[p.PID] = grantID
	}
	lport, _ := p.Attrs.Int(inet.AttrLocalPort)
	return fmt.Sprintf("OK %d %d", p.PID, lport)
}

// Paths returns the live paths created by this shell, keyed by pid.
func (sh *ShellImpl) Paths() map[int64]*core.Path { return sh.paths }
