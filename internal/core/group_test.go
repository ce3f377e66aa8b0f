package core

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestGroupSuspendResume(t *testing.T) {
	vm := testVM(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		g := NewGroup("suspendable", nil)
		workers := make([]*Thread, 3)
		for i := range workers {
			workers[i] = ctx.Fork(func(c *Context) ([]Value, error) {
				for {
					c.Poll()
					c.Yield()
				}
			}, nil, WithGroup(g), WithStealable(false))
		}
		// Let them start, then suspend the whole group.
		for i := 0; i < 20; i++ {
			ctx.Yield()
		}
		g.Suspend(ctx)
		deadline := time.Now().Add(2 * time.Second)
		suspended := 0
		for suspended < len(workers) && time.Now().Before(deadline) {
			suspended = 0
			for _, w := range workers {
				if w.Exec() == ExecSuspended {
					suspended++
				}
			}
			ctx.Yield()
		}
		if suspended != len(workers) {
			t.Errorf("only %d/%d workers suspended", suspended, len(workers))
		}
		// Resume and verify they run again, then terminate.
		g.Resume()
		for i := 0; i < 20; i++ {
			ctx.Yield()
		}
		running := 0
		for _, w := range workers {
			if w.Exec() != ExecSuspended {
				running++
			}
		}
		if running == 0 {
			t.Error("no worker resumed")
		}
		g.Terminate()
		for _, w := range workers {
			ctx.Wait(w)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupHierarchy(t *testing.T) {
	parent := NewGroup("parent", nil)
	child := NewGroup("child", parent)
	grand := NewGroup("grand", child)
	if child.Parent() != parent || grand.Parent() != child {
		t.Fatal("parent links wrong")
	}
	subs := parent.Subgroups()
	if len(subs) != 1 || subs[0] != child {
		t.Fatalf("subgroups %v", subs)
	}
	if parent.Name() != "parent" || parent.ID() == child.ID() {
		t.Fatal("identity wrong")
	}
}

func TestGroupAllThreadsRecursive(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		top := NewGroup("top", nil)
		a := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil },
			WithGroup(top))
		sub := NewGroup("sub", top)
		b := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil },
			WithGroup(sub))
		all := top.AllThreads()
		if len(all) != 2 {
			t.Fatalf("AllThreads = %d, want 2", len(all))
		}
		seen := map[*Thread]bool{}
		for _, th := range all {
			seen[th] = true
		}
		if !seen[a] || !seen[b] {
			t.Fatal("missing members")
		}
		ThreadTerminate(a)
		ThreadTerminate(b)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupLiveExcludesDetermined: a determined member leaves the group's
// lists (Threads, Live, AllThreads of an enclosing group) while the
// profile's Created/Determined counters still count it.
func TestGroupLiveExcludesDetermined(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		top := NewGroup("top", nil)
		g := NewGroup("live-check", top)
		done := ctx.Fork(func(*Context) ([]Value, error) { return nil, nil },
			nil, WithGroup(g), WithStealable(false))
		ctx.Wait(done)
		pending := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil },
			WithGroup(g))
		for _, c := range []struct {
			name string
			got  []*Thread
		}{
			{"Live", g.Live()},
			{"Threads", g.Threads()},
			{"AllThreads", top.AllThreads()},
		} {
			if len(c.got) != 1 || c.got[0] != pending {
				t.Errorf("%s = %v, want only %v", c.name, c.got, pending)
			}
		}
		p := g.Profile()
		if p.Created != 2 || p.Determined != 1 || p.Live != 1 {
			t.Errorf("profile created/determined/live = %d/%d/%d, want 2/1/1",
				p.Created, p.Determined, p.Live)
		}
		ThreadTerminate(pending)
		ctx.Wait(pending)
		if n := len(g.Threads()); n != 0 {
			t.Errorf("%d members after the last one determined", n)
		}
		if p := g.Profile(); p.Created != 2 || p.Determined != 2 {
			t.Errorf("profile created/determined = %d/%d, want 2/2", p.Created, p.Determined)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupTerminateWhileForking: one thread forks into a group while two
// goroutines terminate, in a loop, the group's members and the forker's
// children. A thread can so be terminated before it is on both lists; it
// must then stay off them, and once every forked thread is determined,
// Threads() and Children() list none of them.
func TestGroupTerminateWhileForking(t *testing.T) {
	const forks = 3000
	vm := testVM(t, 2, 2)
	g := NewGroup("forking", vm.RootGroup())
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		me := ctx.Thread()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		killer := func(kill func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				kill()
				runtime.Gosched()
			}
		}
		wg.Add(2)
		go killer(g.Terminate)
		go killer(func() {
			for _, c := range me.Children() {
				ThreadTerminate(c)
			}
		})
		kids := make([]*Thread, 0, forks)
		for i := 0; i < forks; i++ {
			kids = append(kids, ctx.Fork(func(c *Context) ([]Value, error) {
				c.Yield()
				return nil, nil
			}, nil, WithGroup(g)))
		}
		close(stop)
		wg.Wait()
		for _, k := range kids {
			ThreadTerminate(k)
			ctx.Wait(k)
		}
		// Wait returns once a thread is determined, possibly before it has
		// left its lists on the other VP.
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); ctx.Yield() {
			if len(g.Threads()) == 0 && len(me.Children()) == 0 {
				break
			}
		}
		if ths := g.Threads(); len(ths) != 0 {
			t.Errorf("group lists %d threads after all determined", len(ths))
		}
		if kids := me.Children(); len(kids) != 0 {
			t.Errorf("%d children listed after all determined", len(kids))
		}
		if p := g.Profile(); p.Created != forks || p.Determined != forks {
			t.Errorf("profile created/determined = %d/%d, want %d/%d",
				p.Created, p.Determined, forks, forks)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
