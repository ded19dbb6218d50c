// Package web implements the HTTP router at the apex of the paper's Figure
// 3 router graph and a boot helper for the web-server appliance. A request
// exercises both of the figure's path families: the network path
// HTTP→TCP→IP→ETH (one per TCP connection) and the storage path
// HTTP→VFS→UFS→SCSI.
package web

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/fs"
	"scout/internal/msg"
	"scout/internal/proto/inet"
	"scout/internal/proto/tcp"
	"scout/internal/sched"
)

// HTTPImpl is the HTTP/1.0 server router.
type HTTPImpl struct {
	cpu *sched.Sched

	// Port is the listening TCP port (default 80).
	Port int
	// DocRoot prefixes request paths in the filesystem.
	DocRoot string
	// PerRequestCost models request parsing and response assembly.
	PerRequestCost time.Duration
	// Priority is the RR priority of connection threads.
	Priority int

	router     *core.Router
	listenPath *core.Path
	diskPath   *core.Path
	diskIface  *fs.FileIface

	Requests, Errors int64
	BytesOut         int64
}

// NewHTTP returns an HTTP router.
func NewHTTP(cpu *sched.Sched, port int) *HTTPImpl {
	return &HTTPImpl{
		cpu:            cpu,
		Port:           port,
		DocRoot:        "/www",
		PerRequestCost: 100 * time.Microsecond,
		Priority:       2,
	}
}

// Services declares net (TCP below) and file (VFS below); both initialize
// first.
func (h *HTTPImpl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{
		{Name: "net", Type: core.NetServiceType, InitAfterPeers: true},
		{Name: "file", Type: fs.FileServiceType, InitAfterPeers: true},
	}
}

// Init creates the two long-lived paths: the disk path and the TCP listen
// path (§3.3's boot-time path creation).
func (h *HTTPImpl) Init(r *core.Router) error {
	h.router = r
	dp, err := r.Graph.CreatePath(r, attr.New().Set(attr.PathName, "DISK"))
	if err != nil {
		return fmt.Errorf("web: creating disk path: %w", err)
	}
	h.diskPath = dp
	fi, ok := dp.End[0].End[core.FWD].(*fs.FileIface)
	if !ok {
		return errors.New("web: disk path has no file interface")
	}
	h.diskIface = fi

	lp, err := r.Graph.CreatePath(r, attr.New().Set(inet.AttrLocalPort, h.Port))
	if err != nil {
		return fmt.Errorf("web: creating listen path: %w", err)
	}
	h.listenPath = lp
	return nil
}

// httpConn is the per-connection state.
type httpConn struct {
	impl    *HTTPImpl
	path    *core.Path
	reqBuf  []byte
	replied bool
}

// CreateStage contributes the HTTP stage. PA_PATHNAME "DISK" selects the
// storage side; otherwise the stage heads toward TCP (a listening path, or
// a connection path when TCP's listen stage clones it on SYN).
func (h *HTTPImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	if enter != core.NoService {
		return nil, nil, errors.New("web: paths must start at HTTP")
	}
	if name, _ := a.String(attr.PathName); name == "DISK" {
		s := &core.Stage{}
		// The HTTP stage of the disk path forwards file operations to VFS.
		fi := &fs.FileIface{}
		fi.ReadFile = func(i *fs.FileIface, path string, cb func([]byte, error)) {
			nx, ok := i.Next.(*fs.FileIface)
			if !ok || nx.ReadFile == nil {
				cb(nil, core.ErrEndOfPath)
				return
			}
			nx.ReadFile(nx, path, cb)
		}
		fi.Stat = func(i *fs.FileIface, path string, cb func(int, bool, error)) {
			nx, ok := i.Next.(*fs.FileIface)
			if !ok || nx.Stat == nil {
				cb(0, false, core.ErrEndOfPath)
				return
			}
			nx.Stat(nx, path, cb)
		}
		s.SetIface(core.FWD, fi)
		down, err := r.Link("file")
		if err != nil {
			return nil, nil, err
		}
		return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
	}

	hc := &httpConn{impl: h}
	s := &core.Stage{Data: hc}
	s.SetIface(core.FWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return i.DeliverNext(m) // responses pass through to TCP
	}))
	s.SetIface(core.BWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return hc.input(m)
	}))
	s.Establish = func(s *core.Stage, a *attr.Attrs) error {
		p := s.Path
		hc.path = p
		th := sched.ServeIncoming(h.cpu, fmt.Sprintf("http-%d", p.PID), sched.PolicyRR, h.Priority, p, core.BWD)
		_ = th
		return nil
	}
	down, err := r.Link("net")
	if err != nil {
		return nil, nil, err
	}
	return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

// input handles TCP events and request bytes.
func (hc *httpConn) input(m *msg.Msg) error {
	h := hc.impl
	switch m.Tag {
	case tcp.EventEstablished:
		m.Free()
		return nil
	case tcp.EventRemoteClosed, tcp.EventClosed:
		m.Free()
		return nil
	}
	hc.reqBuf = append(hc.reqBuf, m.Bytes()...)
	m.Free()
	if hc.replied {
		return nil
	}
	idx := strings.Index(string(hc.reqBuf), "\r\n\r\n")
	if idx < 0 {
		if len(hc.reqBuf) > 16*1024 {
			hc.respond(400, "text/plain", []byte("request too large"))
		}
		return nil
	}
	hc.path.ChargeExec(h.PerRequestCost)
	hc.replied = true
	hc.handle(string(hc.reqBuf[:idx]))
	return nil
}

// handle parses the request line and serves the file through the disk path.
func (hc *httpConn) handle(req string) {
	h := hc.impl
	h.Requests++
	line := req
	if i := strings.Index(line, "\r\n"); i >= 0 {
		line = line[:i]
	}
	parts := strings.Fields(line)
	if len(parts) < 2 || parts[0] != "GET" {
		hc.respond(400, "text/plain", []byte("bad request"))
		return
	}
	urlPath := parts[1]
	if urlPath == "/" {
		urlPath = "/index.html"
	}
	if strings.Contains(urlPath, "..") {
		hc.respond(400, "text/plain", []byte("bad path"))
		return
	}
	full := h.DocRoot + urlPath
	fi := h.diskIface
	fi.ReadFile(fi, full, func(data []byte, err error) {
		// Disk completion arrives in event context; account its CPU to
		// the connection's next response work.
		h.diskPath.TakeExecCost()
		if err != nil {
			h.Errors++
			hc.respond(404, "text/plain", []byte("not found: "+urlPath))
			return
		}
		hc.respond(200, contentType(urlPath), data)
	})
}

func contentType(p string) string {
	switch {
	case strings.HasSuffix(p, ".html"):
		return "text/html"
	case strings.HasSuffix(p, ".txt"):
		return "text/plain"
	default:
		return "application/octet-stream"
	}
}

// respond sends the response and closes the connection (HTTP/1.0).
func (hc *httpConn) respond(code int, ctype string, body []byte) {
	status := "OK"
	switch code {
	case 400:
		status = "Bad Request"
	case 404:
		status = "Not Found"
	}
	hdr := fmt.Sprintf("HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		code, status, ctype, len(body))
	out := msg.NewWithHeadroom(64, len(hdr)+len(body))
	copy(out.Bytes(), hdr)
	copy(out.Bytes()[len(hdr):], body)
	hc.impl.BytesOut += int64(out.Len())
	if err := hc.path.Inject(core.FWD, out); err != nil {
		out.Free()
	}
	closeMsg := msg.New(nil)
	closeMsg.Tag = tcp.EventClose
	if err := hc.path.Inject(core.FWD, closeMsg); err != nil {
		closeMsg.Free()
	}
}
