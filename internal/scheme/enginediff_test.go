// Differential fuzzing of the two execution engines. This file lives in
// package scheme_test (not scheme) because it imports internal/vm, and
// vm imports scheme — an external test package is the standard way to
// break that cycle.
//
// The fuzz input is not Scheme source: arbitrary text mostly fails to
// parse and can trivially loop forever. Instead the bytes drive a
// generator that only emits *terminating* programs — every loop it
// writes carries a small literal bound — covering the expander's and the
// compiler's whole form repertoire (binding forms, body defines interleaved
// with expressions, conditionals, bounded named-let and do loops, set!,
// fluid-let, quasiquote nested to depth 2, tuple-space put/get pairs,
// atomic). Each program runs on a fresh interpreter per
// engine and the results must agree exactly: value printout, captured
// output, and error presence + text (thread-id prefixes stripped).
package scheme_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scheme"
	"repro/internal/testkit"
	"repro/internal/vm" // also registers the "vm" engine under test
)

// diffGen consumes fuzz bytes as a decision stream. Exhausted input
// yields zeros, so every byte string maps to one finite program.
type diffGen struct {
	data []byte
	pos  int
}

func (g *diffGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b)
}

// pick answers a decision in [0,n).
func (g *diffGen) pick(n int) int { return g.next() % n }

// atom emits a leaf expression; vars lists the lexicals in scope.
func (g *diffGen) atom(vars []string) string {
	switch g.pick(6) {
	case 0:
		return fmt.Sprintf("%d", g.pick(21)-10)
	case 1:
		return []string{"#t", "#f"}[g.pick(2)]
	case 2:
		return fmt.Sprintf("%q", []string{"a", "fuzz", ""}[g.pick(3)])
	case 3:
		return "'" + []string{"sym", "()", "(1 2 3)", "(a (b c))"}[g.pick(4)]
	case 4:
		if len(vars) > 0 {
			return vars[g.pick(len(vars))]
		}
		return fmt.Sprintf("%d", g.pick(10))
	default:
		return fmt.Sprintf("%d", g.pick(10))
	}
}

// expr emits one expression of at most the given depth.
func (g *diffGen) expr(depth int, vars []string) string {
	if depth <= 0 || g.pick(5) == 0 {
		return g.atom(vars)
	}
	sub := func() string { return g.expr(depth-1, vars) }
	switch g.pick(21) {
	case 0: // arithmetic (quotient/modulo included: divide-by-zero must error identically)
		op := []string{"+", "-", "*", "quotient", "modulo", "min", "max"}[g.pick(7)]
		return fmt.Sprintf("(%s %s %s)", op, sub(), sub())
	case 1: // comparisons
		op := []string{"=", "<", ">", "<=", ">=", "eq?", "equal?"}[g.pick(7)]
		return fmt.Sprintf("(%s %s %s)", op, sub(), sub())
	case 2: // list ops — car/cdr on non-pairs must error identically
		op := []string{"car", "cdr", "length", "reverse", "pair?", "null?", "not"}[g.pick(7)]
		return fmt.Sprintf("(%s %s)", op, sub())
	case 3:
		return fmt.Sprintf("(cons %s %s)", sub(), sub())
	case 4:
		return fmt.Sprintf("(list %s %s %s)", sub(), sub(), sub())
	case 5:
		return fmt.Sprintf("(if %s %s %s)", sub(), sub(), sub())
	case 6: // let/let*/letrec introduce a fresh lexical
		v := fmt.Sprintf("v%d", depth)
		inner := append(append([]string{}, vars...), v)
		form := []string{"let", "let*", "letrec"}[g.pick(3)]
		return fmt.Sprintf("(%s ((%s %s)) %s)", form, v, sub(),
			g.expr(depth-1, inner))
	case 7: // lambda applied immediately
		v := fmt.Sprintf("p%d", depth)
		inner := append(append([]string{}, vars...), v)
		return fmt.Sprintf("((lambda (%s) %s) %s)", v,
			g.expr(depth-1, inner), sub())
	case 8: // bounded named-let loop (tail-call path)
		n := 1 + g.pick(8)
		return fmt.Sprintf(
			"(let lp%d ((i 0) (acc %s)) (if (>= i %d) acc (lp%d (+ i 1) (cons i acc))))",
			depth, sub(), n, depth)
	case 9: // bounded do loop (backward-branch path)
		n := 1 + g.pick(8)
		return fmt.Sprintf("(do ((i 0 (+ i 1)) (acc 0 (+ acc i))) ((>= i %d) acc))", n)
	case 10:
		op := []string{"and", "or"}[g.pick(2)]
		return fmt.Sprintf("(%s %s %s %s)", op, sub(), sub(), sub())
	case 11:
		op := []string{"when", "unless"}[g.pick(2)]
		return fmt.Sprintf("(%s %s %s)", op, sub(), sub())
	case 12:
		return fmt.Sprintf("(cond (%s %s) (%s => not) (else %s))",
			sub(), sub(), sub(), sub())
	case 13:
		return fmt.Sprintf("(case %s ((0 1 2) 'low) ((3 4) 'mid) (else 'high))", sub())
	case 14: // set! on a fresh binding
		v := fmt.Sprintf("s%d", depth)
		inner := append(append([]string{}, vars...), v)
		return fmt.Sprintf("(let ((%s %s)) (set! %s %s) %s)",
			v, sub(), v, g.expr(depth-1, inner), v)
	case 15: // quasiquote: the expander lowers it to embedded primitive calls
		return fmt.Sprintf("`(a ,%s ,@(list %s))", sub(), sub())
	case 16: // fluid-let extent + read-back
		return fmt.Sprintf("(fluid-let ((fz %s)) (fluid 'fz))", sub())
	case 17: // tuple space: put then get of the same key never blocks;
		// wrapped in atomic half the time
		body := fmt.Sprintf(
			"(let ((ts (make-tuple-space))) (put ts (list 'k %s)) (get ts (k ?v) v))",
			sub())
		if g.pick(2) == 0 {
			return "(atomic " + body + ")"
		}
		return body
	case 18: // body defines interleaved with expressions, one read before
		// its init (the letrec* slot is still unspecified there)
		d, e := fmt.Sprintf("d%d", depth), fmt.Sprintf("e%d", depth)
		inner := append(append([]string{}, vars...), d)
		return fmt.Sprintf("((lambda () (define r (list %s)) %s (define %s %s) (set! %s (list %s)) (define %s %s) (list r %s)))",
			e, sub(), d, sub(), d, d, e, g.expr(depth-1, inner), e)
	case 19: // let*/letrec chains: the second init sees the first binding
		a, b := fmt.Sprintf("a%d", depth), fmt.Sprintf("b%d", depth)
		inner := append(append([]string{}, vars...), a, b)
		form := []string{"let*", "letrec"}[g.pick(2)]
		return fmt.Sprintf("(%s ((%s %s) (%s (list %s %s))) %s)", form, a, sub(), b, a, sub(),
			g.expr(depth-1, inner))
	case 20: // quasiquote nested to depth 2
		return fmt.Sprintf("`(x `(y ,(z ,%s ,@(list %s))) ,@(list %s))", sub(), sub(), sub())
	}
	return g.atom(vars)
}

// program emits 1–3 toplevel forms, optionally a define used afterwards,
// and always displays something so output comparison has teeth.
func (g *diffGen) program() string {
	var b strings.Builder
	if g.pick(2) == 0 {
		fmt.Fprintf(&b, "(define (fn x) %s)\n", g.expr(2, []string{"x"}))
		fmt.Fprintf(&b, "(display (fn %d)) (newline)\n", g.pick(10))
	}
	n := 1 + g.pick(2)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "(display %s) (newline)\n", g.expr(3, nil))
	}
	b.WriteString(g.expr(3, nil))
	return b.String()
}

// TestVMNeverDeclines: once expanded, every toplevel form of the prelude,
// the example programs and the committed FuzzEngines corpus compiles —
// the VM has no fallback to decline into. (parityPrograms get the same
// check in internal/vm.)
func TestVMNeverDeclines(t *testing.T) {
	sources := map[string]string{"prelude": scheme.Prelude}
	examples, _ := filepath.Glob("../../examples/scheme/*.scm")
	corpus, _ := filepath.Glob("testdata/fuzz/FuzzEngines/*")
	if len(examples) == 0 || len(corpus) == 0 {
		t.Fatalf("found %d examples and %d corpus entries", len(examples), len(corpus))
	}
	for _, f := range examples {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources[f] = string(b)
	}
	for _, f := range corpus {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// go test fuzz v1, then one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		sources[f] = (&diffGen{data: []byte(data)}).program()
	}
	for name, src := range sources {
		data, err := scheme.ReadAll(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range data {
			x, err := scheme.Expand(d)
			if err != nil {
				t.Fatalf("%s: expand %s: %v", name, scheme.WriteString(d), err)
			}
			if _, err := vm.Compile(x); err != nil {
				t.Fatalf("%s: compile %s: %v", name, scheme.WriteString(d), err)
			}
		}
	}
}

// FuzzExpand: for any datum the reader produces, the expander never
// panics; whatever it accepts uses only core-form heads in expression
// position, and the VM compiles it — the no-decline guarantee on
// arbitrary input, not just on the fixed sources above. Run longer with:
// go test -run xxx -fuzz FuzzExpand -fuzztime 30s ./internal/scheme/
func FuzzExpand(f *testing.F) {
	for _, src := range []string{
		"(let* ((a 1) (b a)) (cond ((= a b) => list) (else (when a b))))",
		"(define (f . xs) (define y 1) (display y) (define z `(1 ,@xs ,y)) z)",
		"(let loop ((i 0)) (unless (> i 3) (block (loop (+ i 1)))))",
		"`(a `(b ,(c ,(d)) ,@e) . ,f)",
		"(get ts (tag ,(let* () 1) ?x (cond (x))) (define q x) q)",
		"(do ((i 0 (+ i 1))) ((= i 2) (case i ((1) `,i) (else 0))) (letrec ((g g)) g))",
		"(named-lambda (f x) (fluid-let ((a (when 1 2))) (spawn ts ((cond)))))",
		"(lambda () (if 1 (define x 2)))",
		"(define p (delay (begin (define x 1) x)))",
		"(cond (#f => f) (else (define y 1)))",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		data, err := scheme.ReadAll(src)
		if err != nil {
			return
		}
		for _, d := range data {
			x, err := scheme.Expand(d)
			if err != nil {
				continue
			}
			if err := scheme.CoreOnly(x); err != nil {
				t.Fatalf("Expand(%s) = %s: %v", scheme.WriteString(d), scheme.WriteString(x), err)
			}
			if _, err := vm.Compile(x); err != nil {
				t.Fatalf("Expand(%s) = %s does not compile: %v", scheme.WriteString(d), scheme.WriteString(x), err)
			}
		}
	})
}

// stripThreadDiff removes the varying "thread N (name): " error prefix —
// thread IDs differ across fresh machines while the message must not.
func stripThreadDiff(msg string) string {
	if strings.HasPrefix(msg, "thread ") {
		if i := strings.Index(msg, "): "); i >= 0 {
			return msg[i+3:]
		}
	}
	return msg
}

// engineRun is one engine's observable outcome for a program.
type engineRun struct {
	val    string
	out    string
	errTxt string
	failed bool
}

func runUnderEngine(t *testing.T, engine, src string) engineRun {
	t.Helper()
	m := testkit.VM(t, 1, 1)
	var out strings.Builder
	in := scheme.New(m, scheme.WithOutput(&out), scheme.WithEngine(engine))
	v, err := in.EvalString(src)
	if err != nil {
		return engineRun{out: out.String(), errTxt: stripThreadDiff(err.Error()), failed: true}
	}
	return engineRun{val: scheme.WriteString(v), out: out.String()}
}

// FuzzEngines: for every generated program, the bytecode VM and the
// tree-walker must produce identical values, identical output, and
// identical errors. Seed corpus: testdata/fuzz/FuzzEngines. Run longer
// with: go test -run xxx -fuzz FuzzEngines -fuzztime 30s ./internal/scheme/
func FuzzEngines(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("engines"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		src := (&diffGen{data: data}).program()
		tree := runUnderEngine(t, "tree", src)
		vm := runUnderEngine(t, "vm", src)
		if tree != vm {
			t.Fatalf("engines diverge on:\n%s\ntree: %+v\nvm:   %+v", src, tree, vm)
		}
	})
}
