package scheme_test

import (
	"io"
	"testing"

	"repro/internal/scheme"
	"repro/internal/testkit"
)

// BenchmarkInterpSetup measures interpreter set-up on the default engine:
// installing the primitives, loading the prelude and two definitions — the
// per-interpreter cost the benchmark's setup_s includes. Run it with
// -benchmem: global bindings are allocated here, so allocs/op shows what a
// change to the global environment costs at set-up.
func BenchmarkInterpSetup(b *testing.B) {
	v := testkit.VM(b, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := scheme.New(v, scheme.WithOutput(io.Discard))
		if _, err := in.EvalString(`(define (sq x) (* x x)) (define n (sq 12))`); err != nil {
			b.Fatal(err)
		}
	}
}
