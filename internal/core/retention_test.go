package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reachableSubgroups counts the groups linked below g, recursively.
func reachableSubgroups(g *Group) int {
	n := 0
	for _, sub := range g.Subgroups() {
		n += 1 + reachableSubgroups(sub)
	}
	return n
}

// TestRetentionBoundedByLiveThreads: a long-lived thread that forks ~10k
// children (some with grandchildren, some in an explicit group) leaves
// behind only what is still live. Group member lists, the subgroups
// reachable from the root group and the genealogy list stay bounded by the
// live threads, while a live orphan — a grandchild whose parent finished
// first, as a wait-for-one loser — stays reachable for kill-group.
func TestRetentionBoundedByLiveThreads(t *testing.T) {
	const rounds = 10000
	vm := testVM(t, 2, 2)
	root := vm.RootGroup()
	var orphan *Thread
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		me := ctx.Thread()
		// The loser forks a grandchild that runs until it is terminated,
		// then finishes before it.
		orphanc := make(chan *Thread, 1)
		loser := ctx.Fork(func(c *Context) ([]Value, error) {
			orphanc <- c.Fork(func(cc *Context) ([]Value, error) {
				for {
					cc.Poll()
					cc.Yield()
				}
			}, nil, WithStealable(false))
			return nil, nil
		}, nil, WithStealable(false))
		ctx.Wait(loser)
		orphan = <-orphanc

		// Every thread checks, while it runs, that kill-group on the root
		// group would reach it.
		var unreachable atomic.Int32
		reach := func(c *Context) {
			for _, th := range root.AllThreads() {
				if th == c.Thread() {
					return
				}
			}
			unreachable.Add(1)
		}
		leaf := func(c *Context) ([]Value, error) { reach(c); return nil, nil }

		explicit := NewGroup("explicit", root)
		var mu sync.Mutex
		var detached []*Thread // grandchildren nobody waits for
		for i := 0; i < rounds; i++ {
			var opts []ThreadOption
			thunk := leaf
			switch i % 4 {
			case 1: // a grandchild the child waits for
				thunk = func(c *Context) ([]Value, error) {
					reach(c)
					return c.Value(c.Fork(leaf, nil))
				}
			case 2: // a grandchild that outlives its parent briefly
				thunk = func(c *Context) ([]Value, error) {
					reach(c)
					gc := c.Fork(leaf, nil)
					mu.Lock()
					detached = append(detached, gc)
					mu.Unlock()
					return nil, nil
				}
			case 3: // empties the explicit group, which must link back
				opts = append(opts, WithGroup(explicit))
			}
			ctx.Wait(ctx.Fork(thunk, nil, opts...))
			if i%100 == 99 || i == rounds-1 {
				mu.Lock()
				for _, gc := range detached {
					ctx.Wait(gc)
				}
				detached = detached[:0]
				mu.Unlock()
			}
		}

		// ctx.Wait can return while a determining thread on the other VP
		// is still leaving its lists, so let the bookkeeping settle.
		// Live now: me (root group) and the orphan (loser's child group,
		// under mine).
		live := 2
		settled := func() bool {
			return len(root.AllThreads()) <= live && reachableSubgroups(root) <= live &&
				len(me.Children()) == 0
		}
		for deadline := time.Now().Add(5 * time.Second); !settled() && time.Now().Before(deadline); {
			ctx.Yield()
		}
		if n := unreachable.Load(); n != 0 {
			t.Errorf("%d running threads were not reachable from the root group", n)
		}
		if n := len(root.AllThreads()); n != live {
			t.Errorf("root group reaches %d threads, want %d live", n, live)
		}
		if n := reachableSubgroups(root); n != 2 {
			t.Errorf("%d subgroups reachable from the root, want 2 (mine, the loser's)", n)
		}
		if kids := me.Children(); len(kids) != 0 {
			t.Errorf("%d children listed, want 0 live", len(kids))
		}
		if n := len(explicit.Threads()); n != 0 {
			t.Errorf("explicit group lists %d threads after all determined", n)
		}
		// The counters still count every thread: the loser and the
		// children outside the explicit group, and those inside it.
		want := uint64(rounds - rounds/4 + 1)
		if p := me.ChildGroup().Profile(); p.Created != want || p.Determined != want {
			t.Errorf("child group created/determined = %d/%d, want %d/%d",
				p.Created, p.Determined, want, want)
		}
		if p := explicit.Profile(); p.Created != rounds/4 || p.Determined != rounds/4 {
			t.Errorf("explicit group created/determined = %d/%d, want %d/%d",
				p.Created, p.Determined, rounds/4, rounds/4)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every ancestor of the orphan has finished, yet kill-group on the
	// root group still reaches it.
	if all := root.AllThreads(); len(all) != 1 || all[0] != orphan {
		t.Fatalf("root group reaches %v, want only the orphan %v", all, orphan)
	}
	root.Terminate()
	if _, err := JoinThread(orphan); err == nil || !orphan.Terminated() {
		t.Fatalf("orphan after root Terminate: err=%v terminated=%v", err, orphan.Terminated())
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if len(root.AllThreads()) == 0 && reachableSubgroups(root) == 0 {
			return
		}
	}
	t.Fatalf("after the orphan died the root still reaches %d threads and %d subgroups",
		len(root.AllThreads()), reachableSubgroups(root))
}
