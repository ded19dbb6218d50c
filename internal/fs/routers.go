package fs

import (
	"errors"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
)

// FileIfaceType is the file-system interface type (§3.1 mentions it as one
// of Scout's handful of interface types). A file interface answers
// whole-file reads (VFS, UFS) or raw block reads (SCSI).
var FileIfaceType = core.NewIfaceType("file", nil)

// FileServiceType types VFS↔UFS↔SCSI edges.
var FileServiceType = &core.ServiceType{Name: "file", Provides: FileIfaceType, Requires: FileIfaceType}

// FileIface carries the storage operations along a disk path. Requests flow
// FWD (toward the device) and complete through callbacks.
type FileIface struct {
	core.BaseIface
	// ReadFile resolves and reads a whole file (VFS and UFS layers).
	ReadFile func(i *FileIface, path string, cb func(data []byte, err error))
	// ReadBlocks reads raw blocks (the SCSI layer).
	ReadBlocks func(i *FileIface, start, n int, cb func(data []byte, err error))
	// Stat reports size/type without moving data.
	Stat func(i *FileIface, path string, cb func(size int, isDir bool, err error))
}

// nextFile returns the next file interface toward the device.
func (i *FileIface) nextFile() (*FileIface, error) {
	nx, ok := i.Next.(*FileIface)
	if !ok || nx == nil {
		return nil, core.ErrEndOfPath
	}
	return nx, nil
}

// SCSIImpl is the SCSI router: the disk device driver at the bottom of
// Figure 3.
type SCSIImpl struct {
	disk *Disk
	// PerRequestCost is the CPU charged per disk command issued.
	PerRequestCost time.Duration
}

// NewSCSI returns a SCSI router driving disk.
func NewSCSI(disk *Disk) *SCSIImpl {
	return &SCSIImpl{disk: disk, PerRequestCost: 20 * time.Microsecond}
}

// Disk exposes the device.
func (s *SCSIImpl) Disk() *Disk { return s.disk }

// Services declares the single "up" service file systems connect to.
func (s *SCSIImpl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{{Name: "up", Type: FileServiceType}}
}

// Init has no work.
func (s *SCSIImpl) Init(r *core.Router) error { return nil }

// CreateStage contributes the device (leaf) stage.
func (s *SCSIImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	st := &core.Stage{}
	fi := &FileIface{}
	fi.ReadBlocks = func(i *FileIface, start, n int, cb func([]byte, error)) {
		i.Path().ChargeExec(s.PerRequestCost)
		s.disk.Read(start, n, cb)
	}
	st.SetIface(core.FWD, fi)
	return st, nil, nil
}

// UFSImpl is the UFS router: it resolves paths to block lists over the
// SCSI router below it.
type UFSImpl struct {
	fsys *FS
	// PerLookupCost is the CPU charged per name resolution.
	PerLookupCost time.Duration
}

// NewUFS returns a UFS router over a mounted filesystem.
func NewUFS(fsys *FS) *UFSImpl {
	return &UFSImpl{fsys: fsys, PerLookupCost: 30 * time.Microsecond}
}

// FS exposes the mounted filesystem (examples populate it directly).
func (u *UFSImpl) FS() *FS { return u.fsys }

// Services declares up (VFS) and down (SCSI, init first).
func (u *UFSImpl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{
		{Name: "up", Type: FileServiceType},
		{Name: "down", Type: FileServiceType, InitAfterPeers: true},
	}
}

// Init has no work.
func (u *UFSImpl) Init(r *core.Router) error { return nil }

// CreateStage contributes the UFS stage: ReadFile resolves the inode
// (buffer-cached metadata) and issues the data-block reads through the SCSI
// stage below.
func (u *UFSImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	st := &core.Stage{}
	fi := &FileIface{}
	fi.ReadFile = func(i *FileIface, path string, cb func([]byte, error)) {
		p := i.Path()
		p.ChargeExec(u.PerLookupCost)
		nx, err := i.nextFile()
		if err != nil {
			cb(nil, err)
			return
		}
		u.readVia(nx, path, cb)
	}
	fi.Stat = func(i *FileIface, path string, cb func(int, bool, error)) {
		i.Path().ChargeExec(u.PerLookupCost)
		size, isDir, err := u.fsys.Stat(path)
		cb(size, isDir, err)
	}
	st.SetIface(core.FWD, fi)
	down, err := r.Link("down")
	if err != nil {
		return nil, nil, err
	}
	return st, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

// readVia walks the file's blocks and reads each through the SCSI stage.
func (u *UFSImpl) readVia(scsi *FileIface, path string, cb func([]byte, error)) {
	fsys := u.fsys
	_, _, ino, err := fsys.walk(path)
	if err != nil {
		cb(nil, err)
		return
	}
	if ino == 0 {
		cb(nil, ErrNotFound)
		return
	}
	in, err := fsys.readInode(ino)
	if err != nil {
		cb(nil, err)
		return
	}
	if in.Mode != ModeFile {
		cb(nil, ErrIsDir)
		return
	}
	size := int(in.Size)
	if size == 0 {
		cb(nil, nil)
		return
	}
	nblocks := (size + BlockSize - 1) / BlockSize
	out := make([]byte, 0, nblocks*BlockSize)
	var step func(i int)
	step = func(i int) {
		bk, err := fsys.blockOf(&in, i, false)
		if err != nil {
			cb(nil, err)
			return
		}
		scsi.ReadBlocks(scsi, bk, 1, func(data []byte, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			out = append(out, data...)
			if i+1 < nblocks {
				step(i + 1)
				return
			}
			cb(out[:size], nil)
		})
	}
	step(0)
}

// VFSImpl is the VFS router: the namespace layer above UFS.
type VFSImpl struct {
	// PerOpCost is the CPU charged per VFS operation.
	PerOpCost time.Duration
}

// NewVFS returns a VFS router.
func NewVFS() *VFSImpl { return &VFSImpl{PerOpCost: 10 * time.Microsecond} }

// Services declares up (applications) and down (UFS, init first).
func (v *VFSImpl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{
		{Name: "up", Type: FileServiceType},
		{Name: "down", Type: FileServiceType, InitAfterPeers: true},
	}
}

// Init has no work.
func (v *VFSImpl) Init(r *core.Router) error { return nil }

// CreateStage contributes the VFS stage (pass-through namespace; a fuller
// system would mount multiple UFS instances here).
func (v *VFSImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	st := &core.Stage{}
	fi := &FileIface{}
	fi.ReadFile = func(i *FileIface, path string, cb func([]byte, error)) {
		i.Path().ChargeExec(v.PerOpCost)
		nx, err := i.nextFile()
		if err != nil {
			cb(nil, err)
			return
		}
		nx.ReadFile(nx, path, cb)
	}
	fi.Stat = func(i *FileIface, path string, cb func(int, bool, error)) {
		i.Path().ChargeExec(v.PerOpCost)
		nx, err := i.nextFile()
		if err != nil {
			cb(0, false, err)
			return
		}
		nx.Stat(nx, path, cb)
	}
	st.SetIface(core.FWD, fi)
	down, err := r.Link("down")
	if err != nil {
		return nil, nil, err
	}
	return st, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

// ErrNoFileIface is returned when a disk path is missing its interfaces.
var ErrNoFileIface = errors.New("fs: stage has no file interface")
