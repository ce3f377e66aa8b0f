package core

import (
	"sync"
	"sync/atomic"
	"time"
)

var groupIDs atomic.Uint64

// Group is a thread group: a means of gaining control over a related
// collection of threads. Every thread carries a group identifier
// associating it with a group; groups provide operations analogous to
// ordinary thread operations applied en masse (termination, suspension) as
// well as debugging and monitoring operations (listing members, profiling
// genealogy information).
//
// A group lists only what is still live. A thread joins its group when it
// is created and leaves it when it is determined; the created and
// determined counters keep counting every thread. A group with a parent
// sits on its parent's subgroup list while something live may be reached
// through it: it unlinks itself once it has no members and no linked
// subgroups and its owner thread (the thread whose children it holds, see
// Thread.ChildGroup) is determined or it has none. Unlinking cascades up
// the chain of such groups, and adding a member to an unlinked group links
// it back, so every live thread stays reachable from its root group and
// kill-group still reaches a live orphan whose ancestors have finished.
//
// Lock order: a Thread's childMu may be held while a Group's mu is taken,
// never the reverse, and group locks are taken only from child to parent.
// Relinking an unlinked chain holds the caller's group lock while it
// climbs hand over hand, so it can hold three group locks at once, but
// always in that order.
type Group struct {
	id     uint64
	name   string
	parent *Group
	owner  *Thread // nil unless this is a thread's child group

	mu      sync.Mutex
	members ilist[Thread] // through Thread.member
	subs    ilist[Group]  // linked subgroups, through Group.sib
	sib     inode[Group]  // on parent.subs; guarded by parent.mu
	linked  bool          // on parent.subs; changed under mu and parent.mu

	created    atomic.Uint64
	determined atomic.Uint64
}

func memberNode(t *Thread) *inode[Thread] { return &t.member }
func subNode(g *Group) *inode[Group]      { return &g.sib }

// NewGroup creates a group; parent may be nil for root groups.
func NewGroup(name string, parent *Group) *Group {
	return newGroup(name, parent, nil)
}

func newGroup(name string, parent *Group, owner *Thread) *Group {
	g := &Group{
		id:     groupIDs.Add(1),
		name:   name,
		parent: parent,
		owner:  owner,
		linked: parent == nil,
	}
	if parent != nil {
		g.mu.Lock()
		g.link()
		g.mu.Unlock()
	}
	return g
}

// ID returns the group identifier.
func (g *Group) ID() uint64 { return g.id }

// Name returns the group's debugging name.
func (g *Group) Name() string { return g.name }

// Parent returns the enclosing group, or nil.
func (g *Group) Parent() *Group { return g.parent }

// add makes t a member. A thread can be terminated (through the group
// or its parent's children) before add runs; it is then already
// determined and has left, so it is not added. Checking under g.mu, which
// leave also takes, closes the window between the two.
func (g *Group) add(t *Thread) {
	g.created.Add(1)
	g.mu.Lock()
	if t.Determined() {
		g.mu.Unlock()
		return
	}
	g.members.push(t, memberNode)
	if !g.linked {
		g.link()
	}
	g.mu.Unlock()
}

// leave removes a determined thread from the group.
func (g *Group) leave(t *Thread) {
	g.determined.Add(1)
	g.mu.Lock()
	g.members.remove(t, memberNode)
	g.unlinkAndUnlock()
}

// link puts g on its parent's subgroup list and, while the parent is
// itself unlinked, carries on up the tree. The caller holds g.mu.
func (g *Group) link() {
	for c := g; ; {
		p := c.parent
		p.mu.Lock()
		p.subs.push(c, subNode)
		c.linked = true
		if c != g {
			c.mu.Unlock()
		}
		if p.linked {
			p.mu.Unlock()
			return
		}
		c = p
	}
}

// unlinkAndUnlock takes g off its parent's subgroup list if nothing live
// can be reached through it any more, repeats the check on the parent, and
// so on up the tree. The caller holds g.mu; it is released.
func (g *Group) unlinkAndUnlock() {
	for g.done() {
		p := g.parent
		p.mu.Lock()
		p.subs.remove(g, subNode)
		g.linked = false
		g.mu.Unlock()
		g = p
	}
	g.mu.Unlock()
}

// done reports whether g may leave its parent's subgroup list: it is on
// it, holds no members and no linked subgroups, and its owner (if any) is
// determined. The caller holds g.mu.
func (g *Group) done() bool {
	return g.linked && g.parent != nil && g.members.n == 0 && g.subs.n == 0 &&
		(g.owner == nil || g.owner.Determined())
}

// ownerDetermined rechecks a child group once its owner is determined.
func (g *Group) ownerDetermined() {
	g.mu.Lock()
	g.unlinkAndUnlock()
}

// Threads lists all threads currently belonging to the group: its live
// members (a member that is determining may still be listed, in state
// Determined, until it has left).
func (g *Group) Threads() []*Thread {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Thread, 0, g.members.n)
	for t := g.members.head; t != nil; t = t.member.next {
		out = append(out, t)
	}
	return out
}

// Subgroups lists the group's linked child groups: those through which a
// live thread may still be reached.
func (g *Group) Subgroups() []*Group {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Group, 0, g.subs.n)
	for s := g.subs.head; s != nil; s = s.sib.next {
		out = append(out, s)
	}
	return out
}

// AllThreads lists the group's members and, recursively, every member of
// its subgroups (a thread subtree, under the child-group genealogy).
func (g *Group) AllThreads() []*Thread {
	out := g.Threads()
	for _, sub := range g.Subgroups() {
		out = append(out, sub.AllThreads()...)
	}
	return out
}

// Live returns the members that are not yet determined.
func (g *Group) Live() []*Thread {
	var out []*Thread
	for _, t := range g.Threads() {
		if !t.Determined() {
			out = append(out, t)
		}
	}
	return out
}

// Terminate terminates every member thread and, recursively, every
// subgroup (the paper's kill-group).
func (g *Group) Terminate() {
	for _, t := range g.Threads() {
		ThreadTerminate(t)
	}
	for _, sub := range g.Subgroups() {
		sub.Terminate()
	}
}

// Suspend requests suspension of every live member.
func (g *Group) Suspend(ctx *Context) {
	for _, t := range g.Live() {
		if t != ctx.Thread() {
			ctx.ThreadSuspend(t, 0)
		}
	}
}

// Resume reschedules every suspended member.
func (g *Group) Resume() {
	for _, t := range g.Live() {
		if t.Exec() == ExecSuspended {
			_ = ThreadRun(t, pickVP(t))
		}
	}
}

// GroupProfile summarizes the dynamic unfolding of a group's process tree,
// the genealogy-based monitoring facility described in §3.1.
type GroupProfile struct {
	Group      string
	Created    uint64
	Determined uint64
	Live       int
	ByState    map[ThreadState]int
	MaxDepth   int // deepest parent chain among members
	Subgroups  int
	At         time.Time
}

// Profile computes a snapshot profile of the group.
func (g *Group) Profile() GroupProfile {
	p := GroupProfile{
		Group:      g.name,
		Created:    g.created.Load(),
		Determined: g.determined.Load(),
		ByState:    make(map[ThreadState]int),
		At:         time.Now(),
	}
	for _, t := range g.Threads() {
		st := t.State()
		p.ByState[st]++
		if st != Determined {
			p.Live++
		}
		depth := 0
		for a := t.parent; a != nil; a = a.parent {
			depth++
		}
		if depth > p.MaxDepth {
			p.MaxDepth = depth
		}
	}
	p.Subgroups = len(g.Subgroups())
	return p
}
