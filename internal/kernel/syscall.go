package kernel

import (
	"errors"

	"rescon/internal/rc"
)

// This file is the syscall-level container API of §4.6 — the operations
// Table 1 prices. They are thin, validated wrappers over internal/rc
// operating on per-process descriptor tables, exactly the shape a real
// kernel would expose. bench_test.go measures their real cost (our
// Table 1); a simulated server that creates, binds and destroys a
// container per connection charges ContainerCreateCost,
// ContainerRebindCost and ContainerDestroyCost for it (§5.4).

// ErrWrongMode is returned when container syscalls are used on a kernel
// without container support.
var ErrWrongMode = errors.New("kernel: container operations require ModeRC")

// NoParent passes "no parent" to CreateContainer and SetContainerParent.
const NoParent = rc.Desc(-1)

func (p *Process) requireRC() error {
	if p.k.mode != ModeRC {
		return ErrWrongMode
	}
	if p.exited {
		return ErrProcessExited
	}
	return nil
}

// CreateContainer creates a new resource container, child of the
// container at parent (or top-level for NoParent), and returns its
// descriptor ("create resource container", Table 1).
func (p *Process) CreateContainer(parent rc.Desc, class rc.Class, name string, attrs rc.Attributes) (rc.Desc, error) {
	if err := p.requireRC(); err != nil {
		return -1, err
	}
	var pc *rc.Container
	if parent != NoParent {
		var err error
		pc, err = p.Containers.Lookup(parent)
		if err != nil {
			return -1, err
		}
	}
	c, err := rc.New(pc, class, name, attrs)
	if err != nil {
		return -1, err
	}
	d, err := p.Containers.Open(c)
	if err != nil {
		return -1, err
	}
	// The table holds the descriptor reference; drop the creation ref.
	if err := c.Release(); err != nil {
		return -1, err
	}
	return d, nil
}

// ReleaseContainer closes the descriptor; the container is destroyed when
// its last reference disappears ("destroy resource container", Table 1).
func (p *Process) ReleaseContainer(d rc.Desc) error {
	if err := p.requireRC(); err != nil {
		return err
	}
	return p.Containers.Close(d)
}

// SetContainerParent changes the container's parent (§4.6 "set a
// container's parent"); NoParent detaches it.
func (p *Process) SetContainerParent(d, parent rc.Desc) error {
	if err := p.requireRC(); err != nil {
		return err
	}
	c, err := p.Containers.Lookup(d)
	if err != nil {
		return err
	}
	var pc *rc.Container
	if parent != NoParent {
		if pc, err = p.Containers.Lookup(parent); err != nil {
			return err
		}
	}
	return c.SetParent(pc)
}

// ContainerAttrs reads the container's attributes ("set/get container
// attributes", Table 1).
func (p *Process) ContainerAttrs(d rc.Desc) (rc.Attributes, error) {
	if err := p.requireRC(); err != nil {
		return rc.Attributes{}, err
	}
	c, err := p.Containers.Lookup(d)
	if err != nil {
		return rc.Attributes{}, err
	}
	return c.Attributes(), nil
}

// SetContainerAttrs updates the container's attributes.
func (p *Process) SetContainerAttrs(d rc.Desc, attrs rc.Attributes) error {
	if err := p.requireRC(); err != nil {
		return err
	}
	c, err := p.Containers.Lookup(d)
	if err != nil {
		return err
	}
	return c.SetAttributes(attrs)
}

// ContainerUsage reads the resource usage charged to the container
// ("obtain container resource usage", Table 1).
func (p *Process) ContainerUsage(d rc.Desc) (rc.Usage, error) {
	if err := p.requireRC(); err != nil {
		return rc.Usage{}, err
	}
	c, err := p.Containers.Lookup(d)
	if err != nil {
		return rc.Usage{}, err
	}
	return c.Usage(), nil
}

// MoveContainer passes the container to another process, as descriptors
// pass over UNIX-domain sockets; the sender retains access ("move
// container between processes", Table 1).
func (p *Process) MoveContainer(d rc.Desc, dst *Process) (rc.Desc, error) {
	if err := p.requireRC(); err != nil {
		return -1, err
	}
	if dst.exited {
		return -1, ErrProcessExited
	}
	return p.Containers.Transfer(d, dst.Containers)
}

// ContainerHandle opens a descriptor for a container the process can
// already reference ("obtain handle for existing container", Table 1).
func (p *Process) ContainerHandle(c *rc.Container) (rc.Desc, error) {
	if err := p.requireRC(); err != nil {
		return -1, err
	}
	return p.Containers.Open(c)
}

// Lookup resolves a descriptor to its container (kernel-internal helper
// for binding operations).
func (p *Process) Lookup(d rc.Desc) (*rc.Container, error) {
	return p.Containers.Lookup(d)
}

// BindThread sets the thread's resource binding to the container at d
// ("change thread's resource binding", Table 1). Binding requires a leaf
// container (§4.5 prototype restriction).
func (p *Process) BindThread(t *Thread, d rc.Desc) error {
	if err := p.requireRC(); err != nil {
		return err
	}
	c, err := p.Containers.Lookup(d)
	if err != nil {
		return err
	}
	return p.BindThreadContainer(t, c)
}

// BindThreadContainer is BindThread for a directly held container.
func (p *Process) BindThreadContainer(t *Thread, c *rc.Container) error {
	if err := p.requireRC(); err != nil {
		return err
	}
	if !c.IsLeaf() {
		return rc.ErrNotLeaf
	}
	if c.Destroyed() {
		return rc.ErrDestroyed
	}
	p.k.sch.Bind(t.ent, c, p.k.Now())
	return nil
}

// ThreadBinding returns the thread's current resource binding.
func (p *Process) ThreadBinding(t *Thread) *rc.Container { return t.ent.Resource }

// ResetSchedBinding resets the thread's scheduler binding to its current
// resource binding (§4.6 "reset the scheduler binding").
func (p *Process) ResetSchedBinding(t *Thread) {
	p.k.sch.ResetBinding(t.ent)
}

// BindConn binds an established connection's descriptor to the container
// at d (§4.6 "binding a socket or file to a container").
func (p *Process) BindConn(conn *Conn, d rc.Desc) error {
	if err := p.requireRC(); err != nil {
		return err
	}
	c, err := p.Containers.Lookup(d)
	if err != nil {
		return err
	}
	conn.SetContainer(c)
	return nil
}

// BindListenSocket binds a listening socket to the container at d.
func (p *Process) BindListenSocket(ls *ListenSocket, d rc.Desc) error {
	if err := p.requireRC(); err != nil {
		return err
	}
	c, err := p.Containers.Lookup(d)
	if err != nil {
		return err
	}
	ls.SetContainer(c)
	return nil
}
