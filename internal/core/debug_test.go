package core

import (
	"errors"
	"strings"
	"testing"
)

func TestDefaultAuthority(t *testing.T) {
	vm := testVM(t, 1, 1)
	vm.SetAuthority(DefaultAuthority)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(c *Context) ([]Value, error) {
			for {
				c.Yield()
			}
		}, nil, WithStealable(false))
		// A parent may terminate its descendant…
		if err := ctx.Terminate(child); err != nil {
			t.Errorf("parent lacked authority over child: %v", err)
		}
		ctx.Wait(child)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// …but a sibling may not touch another sibling.
	_, err = vm.Run(func(ctx *Context) ([]Value, error) {
		victim := ctx.Fork(func(c *Context) ([]Value, error) {
			for {
				c.Yield()
			}
		}, nil, WithStealable(false))
		attacker := ctx.Fork(func(c *Context) ([]Value, error) {
			return nil, c.Terminate(victim)
		}, nil, WithStealable(false))
		_, aerr := ctx.Value(attacker)
		if !errors.Is(aerr, ErrNoAuthority) {
			t.Errorf("sibling terminate: %v, want ErrNoAuthority", aerr)
		}
		ThreadTerminate(victim) // privileged cleanup
		ctx.Wait(victim)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAuthorityDefaultPermissive(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		other := ctx.Fork(func(c *Context) ([]Value, error) {
			for {
				c.Yield()
			}
		}, nil, WithStealable(false))
		stranger := ctx.Fork(func(c *Context) ([]Value, error) {
			return nil, c.Terminate(other)
		}, nil, WithStealable(false))
		if _, err := ctx.Value(stranger); err != nil {
			t.Errorf("permissive VM refused: %v", err)
		}
		ctx.Wait(other)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDumpTree(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		me := ctx.Thread()
		a := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil },
			WithName("alpha"))
		b := ctx.Fork(func(*Context) ([]Value, error) { return nil, nil }, nil,
			WithName("beta"), WithStealable(false))
		ctx.Wait(b)
		out := DumpTree(me)
		if !strings.Contains(out, "alpha [delayed]") {
			t.Errorf("missing alpha: %q", out)
		}
		// A determined child has left its parent's genealogy list.
		if strings.Contains(out, "beta") {
			t.Errorf("determined beta still listed: %q", out)
		}
		if !strings.Contains(out, "evaluating") {
			t.Errorf("missing self state: %q", out)
		}
		ThreadTerminate(a)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
