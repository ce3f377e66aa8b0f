package vm_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/scheme"
)

// TestTerminateValuesOutliveCall: a primitive borrows its arguments — under
// the VM they are a window of the operand stack — so one that keeps them
// must copy. thread-terminate and terminate! store their values as the
// thread's result; the (list ...) call after them, in the same toplevel
// form and so on the same stack, reuses those slots and must not show
// through.
func TestTerminateValuesOutliveCall(t *testing.T) {
	for _, prim := range []string{"thread-terminate", "terminate!"} {
		in := newEngine(t, "vm", 1, 1)
		evalOn(t, in, `(define t (create-thread 'x)) (let () (`+prim+` t 'a 'b) (list 1 2 3 4 5))`, `(1 2 3 4 5)`)
		v, ok := in.Global().Lookup("t")
		if !ok {
			t.Fatalf("%s: t unbound", prim)
		}
		vals, err := v.(*core.Thread).TryValue()
		if !errors.Is(err, core.ErrTerminated) {
			t.Fatalf("%s: TryValue error %v, want ErrTerminated", prim, err)
		}
		if got := scheme.WriteString(scheme.List(vals...)); got != "(a b)" {
			t.Fatalf("%s: thread values %s, want (a b)", prim, got)
		}
	}
}

// TestDefineOnAnotherVP: a define run by a thread on another virtual
// processor fills the cell an already-compiled reader linked while the
// name was unbound.
func TestDefineOnAnotherVP(t *testing.T) {
	for _, engine := range []string{"tree", "vm"} {
		in := newEngine(t, engine, 2, 2)
		evalOn(t, in, `(define (probe) late) 'ok`, `ok`)
		_, err := in.EvalString(`(probe)`)
		if err == nil || stripThread(err.Error()) != "unbound variable: late" {
			t.Fatalf("%s: (probe) before define: %v", engine, err)
		}
		evalOn(t, in, `(thread-wait (fork-thread (eval '(define late 42)) 1)) (probe)`, `42`)
	}
}

// TestConcurrentGlobalSetAndRead: threads on two VPs set! and read one
// global at once. The race detector checks the cell's accesses (CI runs
// this package under -race -count=3); the reader must see the writer's
// values in order, and the final value is the writer's last.
func TestConcurrentGlobalSetAndRead(t *testing.T) {
	const src = `
(define counter 0)
(define (bump n)
  (let loop ((i 0)) (when (< i n) (set! counter (+ counter 1)) (loop (+ i 1)))))
(define (watch n)
  (let loop ((i 0) (last 0))
    (cond ((= i n) #t)
          ((< counter last) #f)
          (else (loop (+ i 1) counter)))))
(let ((w (fork-thread (bump 3000) 0))
      (r (fork-thread (watch 3000) 1)))
  (thread-wait w)
  (list (thread-value r) counter))`
	for _, engine := range []string{"tree", "vm"} {
		in := newEngine(t, engine, 2, 2)
		evalOn(t, in, src, `(#t 3000)`)
		// Two writers: updates may be lost, but never torn.
		v, err := in.EvalString(`(define counter 0)
(let ((a (fork-thread (bump 3000) 0)) (b (fork-thread (bump 3000) 1)))
  (thread-wait a) (thread-wait b) counter)`)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if n, ok := v.(int64); !ok || n < 1 || n > 6000 {
			t.Fatalf("%s: counter after two writers = %s", engine, scheme.WriteString(v))
		}
	}
}
