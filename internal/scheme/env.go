package scheme

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Env is a lexical environment frame. The global frame is shared by every
// thread in a VM (the paper's single address space) and binds each name to
// one Cell; closure frames are created by one thread and — as in the paper
// — may be shared across threads whenever data dependencies warrant, so
// they take the same small lock on mutation.
type Env struct {
	mu     sync.Mutex
	vars   map[Symbol]Value // a closure frame's bindings
	cells  map[Symbol]*Cell // the global frame's bindings; nil elsewhere
	slab   []Cell           // the global frame's unused cells, allocated in blocks
	parent *Env
}

// Cell is one global binding. The tree-walker reaches it through the
// global Env's table, and compiled code holds a pointer to it, so both
// engines share one binding: a define or set! stores into the cell in
// place and every reader sees it on its next load. A cell is unbound until
// its name is first defined, and stays bound from then on.
type Cell struct {
	p     atomic.Pointer[Value] // nil while unbound
	first Value                 // backs p for the first binding, saving an allocation
}

// Load answers the cell's value; ok is false while the name is unbound.
func (c *Cell) Load() (v Value, ok bool) {
	p := c.p.Load()
	if p == nil {
		return nil, false
	}
	return *p, true
}

// Set assigns a bound cell (set!); it reports failure when the name is
// unbound.
func (c *Cell) Set(v Value) bool {
	if c.p.Load() == nil {
		return false
	}
	c.p.Store(&v)
	return true
}

// NewEnv creates a closure frame under parent.
func NewEnv(parent *Env) *Env {
	return &Env{vars: make(map[Symbol]Value), parent: parent}
}

// NewGlobalEnv creates an empty global frame.
func NewGlobalEnv() *Env {
	return &Env{cells: make(map[Symbol]*Cell)}
}

// Define binds sym in this frame.
func (e *Env) Define(sym Symbol, v Value) {
	e.mu.Lock()
	if e.cells == nil {
		e.vars[sym] = v
	} else {
		e.bindLocked(e.cellLocked(sym), v)
	}
	e.mu.Unlock()
}

// cellBlock is how many global cells one allocation provides; an
// interpreter's primitives and prelude bind a few hundred names.
const cellBlock = 64

// cellLocked answers the global frame's cell for sym, adding an unbound one
// when the name has none.
func (e *Env) cellLocked(sym Symbol) *Cell {
	if c := e.cells[sym]; c != nil {
		return c
	}
	if len(e.slab) == 0 {
		e.slab = make([]Cell, cellBlock)
	}
	c := &e.slab[0]
	e.slab = e.slab[1:]
	e.cells[sym] = c
	return c
}

// Cell answers the global frame's cell for sym, adding an unbound one when
// the name has no binding yet. Compiled code links its global references
// through it once, before it first runs.
func (e *Env) Cell(sym Symbol) *Cell {
	e.mu.Lock()
	c := e.cellLocked(sym)
	e.mu.Unlock()
	return c
}

// DefineCell binds a cell of this global frame (a compiled toplevel
// define).
func (e *Env) DefineCell(c *Cell, v Value) {
	e.mu.Lock()
	e.bindLocked(c, v)
	e.mu.Unlock()
}

// bindLocked stores v into c. The first binding of a cell linked while
// unbound reuses its own first field; holding e.mu keeps that one write
// exclusive, and the pointer store publishes it.
func (e *Env) bindLocked(c *Cell, v Value) {
	if c.p.Load() == nil {
		c.first = v
		c.p.Store(&c.first)
		return
	}
	box := new(Value) // only a rebinding allocates
	*box = v
	c.p.Store(box)
}

// global answers the bound cell for sym in the global frame e, or nil.
func (e *Env) global(sym Symbol) *Cell {
	e.mu.Lock()
	c := e.cells[sym]
	e.mu.Unlock()
	return c
}

// Lookup resolves sym through the frame chain.
func (e *Env) Lookup(sym Symbol) (Value, bool) {
	for f := e; f != nil; f = f.parent {
		if f.cells != nil {
			if c := f.global(sym); c != nil {
				return c.Load()
			}
			return nil, false
		}
		f.mu.Lock()
		v, ok := f.vars[sym]
		f.mu.Unlock()
		if ok {
			return v, true
		}
	}
	return nil, false
}

// Set assigns to the nearest binding of sym (set!); it reports failure when
// sym is unbound.
func (e *Env) Set(sym Symbol, v Value) bool {
	for f := e; f != nil; f = f.parent {
		if f.cells != nil {
			c := f.global(sym)
			return c != nil && c.Set(v)
		}
		f.mu.Lock()
		if _, ok := f.vars[sym]; ok {
			f.vars[sym] = v
			f.mu.Unlock()
			return true
		}
		f.mu.Unlock()
	}
	return false
}

// Error is a Scheme-level error with irritants.
type Error struct {
	Message   string
	Irritants []Value
}

func (e *Error) Error() string {
	if len(e.Irritants) == 0 {
		return e.Message
	}
	s := e.Message
	for _, irr := range e.Irritants {
		s += " " + WriteString(irr)
	}
	return s
}

// Errorf builds a Scheme error.
func Errorf(format string, args ...any) *Error {
	return &Error{Message: fmt.Sprintf(format, args...)}
}
