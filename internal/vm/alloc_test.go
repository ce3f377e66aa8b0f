package vm_test

import (
	"testing"
)

// TestAllocationBudget gates the VM's allocation rate per unit of Scheme
// work. Allocation counts repeat exactly on any hardware, so unlike the
// advisory timing gates this one can block CI. Each run evaluates enough
// work to amortize the toplevel thread, reader, expander and compiler.
//
// A compiled call allocates its frame and nothing else — arguments stay on
// the VM stack and globals are linked cells — so (fib 20) stays near one
// allocation per call. A named-let iteration adds the boxed integers of
// (+ i 1), (* i i) and (+ acc ...), so sum-squares stays near four.
func TestAllocationBudget(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	if _, err := in.EvalString(`
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (sum-squares n)
  (let loop ((i 0) (acc 0))
    (if (= i n) acc (loop (+ i 1) (+ acc (* i i))))))`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src   string
		units float64 // calls or iterations one evaluation performs
		max   float64
	}{
		{`(fib 20)`, 21891, 1.5},
		{`(sum-squares 20000)`, 20000, 4.5},
	} {
		var err error
		allocs := testing.AllocsPerRun(5, func() {
			_, err = in.EvalString(c.src)
		})
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		per := allocs / c.units
		t.Logf("%s: %.2f allocations per unit", c.src, per)
		if per > c.max {
			t.Errorf("%s: %.2f allocations per unit, budget %.1f", c.src, per, c.max)
		}
	}
}
