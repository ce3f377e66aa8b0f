package vm_test

import (
	"strings"
	"testing"

	"repro/internal/scheme"
	"repro/internal/testkit"
	"repro/internal/vm"
)

// newEngine builds an interpreter on a fresh virtual machine running the
// given engine. Importing this package registers "vm", which also makes it
// the default.
func newEngine(t testing.TB, engine string, procs, vps int) *scheme.Interp {
	t.Helper()
	m := testkit.VM(t, procs, vps)
	return scheme.New(m, scheme.WithOutput(&strings.Builder{}), scheme.WithEngine(engine))
}

func evalOn(t *testing.T, in *scheme.Interp, src, want string) {
	t.Helper()
	v, err := in.EvalString(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	if got := scheme.WriteString(v); got != want {
		t.Fatalf("eval %q = %s, want %s", src, got, want)
	}
}

// parityPrograms run under both engines and must produce identical written
// results. They cover every core form and every form the expander lowers.
var parityPrograms = []struct{ src, want string }{
	{`(+ 1 2)`, `3`},
	{`(if #f 1)`, `#[unspecified]`},
	{`(define (fact n) (if (= n 0) 1 (* n (fact (- n 1))))) (fact 10)`, `3628800`},
	{`(define (evn? n) (if (= n 0) #t (od? (- n 1))))
	  (define (od? n) (if (= n 0) #f (evn? (- n 1))))
	  (list (evn? 30001) (od? 30001))`, `(#f #t)`},
	{`(let ((x 1) (y 2)) (+ x y))`, `3`},
	{`(let* ((x 1) (y (+ x 1)) (z (* y 10))) (list x y z))`, `(1 2 20)`},
	{`(letrec ((f (lambda (n) (if (= n 0) 'done (f (- n 1)))))) (f 5))`, `done`},
	{`(let loop ((i 0) (acc '())) (if (= i 4) (reverse acc) (loop (+ i 1) (cons i acc))))`, `(0 1 2 3)`},
	{`(cond (#f 1) ((+ 1 1)) (else 3))`, `2`},
	{`(cond ((assv 2 '((1 . a) (2 . b))) => cdr) (else 'none))`, `b`},
	{`(cond (#f 1) (else (define y 7))) y`, `7`},
	{`(define p (delay (+ 1 2))) (force p)`, `3`},
	{`(cond (#f 1))`, `#[unspecified]`},
	{`(case (* 2 3) ((2 3 5 7) 'prime) ((1 4 6 8 9) 'composite))`, `composite`},
	{`(case 42 ((1) 'one) (else 'other))`, `other`},
	{`(case 42 ((1) 'one))`, `#[unspecified]`},
	{`(and 1 2 3)`, `3`},
	{`(and 1 #f 3)`, `#f`},
	{`(and)`, `#t`},
	{`(or #f #f 7)`, `7`},
	{`(or #f 2 (car '()))`, `2`},
	{`(or)`, `#f`},
	{`(when (> 2 1) 'a 'b)`, `b`},
	{`(when (< 2 1) 'a)`, `#[unspecified]`},
	{`(unless (< 2 1) 'a 'b)`, `b`},
	{`(do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i 10) s))`, `45`},
	{`(do ((i 0 (+ i 1)) (v (make-vector 3))) ((= i 3) v) (vector-set! v i (* i i)))`, `#(0 1 4)`},
	{`(define p (delay (begin 21 42))) (list (force p) (force p))`, `(42 42)`},
	{`(define x 10) (set! x (+ x 1)) x`, `11`},
	{`(define (counter) (let ((n 0)) (lambda () (set! n (+ n 1)) n)))
	  (define c (counter)) (c) (c) (c)`, `3`},
	{`((lambda args args) 1 2 3)`, `(1 2 3)`},
	{`((lambda (a . rest) (list a rest)) 1 2 3)`, `(1 (2 3))`},
	{`(define (k . xs) (length xs)) (k)`, `0`},
	{`(begin)`, `#[unspecified]`},
	{`(begin 1 2 3)`, `3`},
	{`(define (f) (define a 1) (define b (+ a 1)) (* a b)) (f)`, `2`},
	{`(let ((x 5)) (define y 6) (+ x y))`, `11`},
	{`'(a b . c)`, `(a b . c)`},
	{"`(a ,(+ 1 2) ,@(list 3 4))", `(a 3 3 4)`},
	{"`(1 `(2 ,(3 ,(+ 1 3))))", `(1 (quasiquote (2 (unquote (3 4)))))`},
	{"`(a . ,(+ 1 2))", `(a . 3)`},
	{"(let ((a 5)) (list `,a (car `(,a))))", `(5 5)`},
	{`(define (g) (display "") (define y 2) (define (h) (* y 3)) (h)) (g)`, `6`},
	{`(letrec* ((a 1) (b (+ a 1))) (list a b))`, `(1 2)`},
	{`(let* () (define z 4) z)`, `4`},
	{`(block 1 2)`, `2`},
	{`(apply + 1 '(2 3))`, `6`},
	{`(map + '(1 2) '(10 20))`, `(11 22)`},
	{`(touch (future (+ 20 22)))`, `42`},
	{`(thread-value (fork-thread (* 6 7)))`, `42`},
	{`(let ((ts (make-tuple-space)))
	    (put ts '(job 1)) (put ts '(job 2))
	    (let ((a (get ts (job ?n) n))) (list a (get ts (job ?m) m))))`, `(1 2)`},
	{`(let ((ts (make-tuple-space)))
	    (put ts '(k 9))
	    (rd ts (k ?v))
	    (get ts (k ?v)))`, `(k 9)`},
	{`(let ((ts (make-tuple-space)) (tag 'job))
	    (put ts '(job 7))
	    (get ts (,tag ?n) n))`, `7`},
	{`(without-preemption (+ 1 2) (+ 3 4))`, `7`},
	{`(without-interrupts 'ok)`, `ok`},
	{`(let ((m (make-mutex))) (with-mutex m 1 2 3))`, `3`},
	{`(fluid-let ((a 1) (b 2)) (+ (fluid 'a) (fluid 'b)))`, `3`},
	{`(let ((ts (make-tuple-space)))
	    (atomic (put ts '(x 1)) (put ts '(x 2)))
	    (list (get ts (x ?a) a) (get ts (x ?b) b)))`, `(1 2)`},
	{`(define v (make-vector 2 'z)) (vector-ref v 1)`, `z`},
	{`(string-append "ab" "cd")`, `"abcd"`},
	{`(let ((l (spawn (make-tuple-space) ((+ 1 1) (+ 2 2))))) (map thread-value l))`, `(2 4)`},
}

func TestEngineParity(t *testing.T) {
	tree := newEngine(t, "tree", 2, 2)
	vmIn := newEngine(t, "vm", 2, 2)
	if got := tree.EngineName(); got != "tree" {
		t.Fatalf("tree engine name = %s", got)
	}
	if got := vmIn.EngineName(); got != "vm" {
		t.Fatalf("vm engine name = %s", got)
	}
	for _, p := range parityPrograms {
		requireCompiles(t, p.src)
		tv, terr := tree.EvalString(p.src)
		vv, verr := vmIn.EvalString(p.src)
		if (terr == nil) != (verr == nil) {
			t.Fatalf("%s: tree err=%v, vm err=%v", p.src, terr, verr)
		}
		if terr != nil {
			continue
		}
		ts, vs := scheme.WriteString(tv), scheme.WriteString(vv)
		if ts != vs {
			t.Errorf("%s: tree=%s vm=%s", p.src, ts, vs)
		}
		if vs != p.want {
			t.Errorf("%s: got %s, want %s", p.src, vs, p.want)
		}
	}
}

// requireCompiles checks the VM compiles every toplevel form of src once
// expanded: no form is declined. FuzzEngines' corpus, the prelude and the
// example programs get the same check in internal/scheme
// (TestVMNeverDeclines).
func requireCompiles(t *testing.T, src string) {
	t.Helper()
	data, err := scheme.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range data {
		x, err := scheme.Expand(d)
		if err != nil {
			t.Fatalf("expand %s: %v", scheme.WriteString(d), err)
		}
		if _, err := vm.Compile(x); err != nil {
			t.Fatalf("compile %s: %v", scheme.WriteString(d), err)
		}
	}
}

// stripThread drops the varying "thread N (name): " prefix the toplevel
// runner wraps errors with, leaving the engine-produced message.
func stripThread(msg string) string {
	if i := strings.Index(msg, "): "); i >= 0 && strings.HasPrefix(msg, "thread ") {
		return msg[i+3:]
	}
	return msg
}

// TestErrorParity checks the two engines produce the same error text for
// runtime failures in compiled code and for malformed forms, which the
// expander rejects with the tree-walker's messages. want, when set, is the
// exact expected text.
func TestErrorParity(t *testing.T) {
	tree := newEngine(t, "tree", 1, 1)
	vmIn := newEngine(t, "vm", 1, 1)
	for _, c := range []struct{ src, want string }{
		{`(nosuchvar)`, ""},
		{`nosuchvar`, ""},
		{`(set! nosuch 1)`, ""},
		{`(1 2)`, ""},
		{`((lambda (x) x) 1 2)`, ""},
		{`(define (f a b) a) (f 1)`, ""},
		{`(car 1 2)`, ""},
		{`(let ((m 5)) (with-mutex m 1))`, ""},
		{`(spawn 17 (1))`, ""},
		{`(get 17 (?x))`, ""},
		{`(let* x 1)`, "bad bindings: improper list ends in x"},
		{`(cond 1)`, "cond: bad clause 1"},
		{`(cond (#t => car cdr))`, "cond: bad => clause"},
		{`(when)`, "bad form: (when)"},
		{`(unless)`, "bad form: (unless)"},
		{`(let loop)`, "bad form: (let loop)"},
		{`(letrec ((1 2)) 3)`, "bad binding name: 1"},
		{`(lambda (1) 1)`, "bad parameter: 1"},
		{`(case 1 (2 'x))`, "case: bad datum list 2"},
		{`(do ((i 0 1 2)) (#t))`, "do: bad variable spec (i 0 1 2)"},
		{"`(a ,@1 b)", "unquote-splicing of non-list"},
		{"`(a ,@(cons 1 2))", "unquote-splicing of non-list"},
		{"`(a (unquote-splicing 1 2))", "bad unquote-splicing"},
		{`(define (f) (if #t (define z 1)) z)`, "define: definition in expression context: (define z 1)"},
		{`(define p (delay (define x 1)))`, "define: definition in expression context: (define x 1)"},
		{`(cond (#f => car) (else (define y 1)))`, "define: definition in expression context: (define y 1)"},
		{`()`, "cannot evaluate ()"},
		{`(+ 1 . 2)`, "improper argument list"},
	} {
		_, terr := tree.EvalString(c.src)
		_, verr := vmIn.EvalString(c.src)
		if terr == nil || verr == nil {
			t.Fatalf("%s: expected errors, tree=%v vm=%v", c.src, terr, verr)
		}
		if stripThread(terr.Error()) != stripThread(verr.Error()) {
			t.Errorf("%s:\n  tree: %v\n  vm:   %v", c.src, terr, verr)
		}
		if c.want != "" && stripThread(verr.Error()) != c.want {
			t.Errorf("%s: error %q, want %q", c.src, stripThread(verr.Error()), c.want)
		}
	}
}

// TestTailCallElimination runs a million-iteration tail loop and deep
// mutual recursion — constant-space under the VM's tail-call replacement.
func TestTailCallElimination(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	evalOn(t, in, `(let loop ((i 0)) (if (= i 1000000) 'done (loop (+ i 1))))`, `done`)
	evalOn(t, in, `(define (pong n) (if (= n 0) 'pong (ping (- n 1))))
	               (define (ping n) (if (= n 0) 'ping (pong (- n 1))))
	               (ping 1000001)`, `pong`)
}

// TestDeepNonTailRecursion exercises the explicit call stack: non-tail
// recursion is heap-bounded, not Go-stack-bounded.
func TestDeepNonTailRecursion(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	evalOn(t, in, `(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 100000)`, `5000050000`)
}

// TestEnginePrims covers (engine) and (compiled? p) on both engines.
func TestEnginePrims(t *testing.T) {
	vmIn := newEngine(t, "vm", 1, 1)
	tree := newEngine(t, "tree", 1, 1)
	evalOn(t, vmIn, `(engine)`, `vm`)
	evalOn(t, tree, `(engine)`, `tree`)
	evalOn(t, vmIn, `(define (f x) x) (compiled? f)`, `#t`)
	evalOn(t, tree, `(define (f x) x) (compiled? f)`, `#f`)
	evalOn(t, vmIn, `(compiled? car)`, `#f`)
	evalOn(t, vmIn, `(procedure? (lambda (x) x))`, `#t`)
	// eval expands and runs on the active engine too.
	evalOn(t, vmIn, `(compiled? (eval '(lambda (x) x)))`, `#t`)
	evalOn(t, tree, `(compiled? (eval '(lambda (x) x)))`, `#f`)
	evalOn(t, vmIn, `(eval '(let* ((a 1) (b (+ a 1))) `+"`"+`(,a ,b)))`, `(1 2)`)
}

// TestCompiledProcedurePrinting: compiled closures print like tree closures,
// and binding forms name anonymous procedures.
func TestCompiledProcedurePrinting(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	evalOn(t, in, `(define f (lambda (x) x)) 'ok`, `ok`)
	v, err := in.EvalString(`f`)
	if err != nil {
		t.Fatal(err)
	}
	if got := scheme.WriteString(v); got != "#[procedure f]" {
		t.Fatalf("printed %s", got)
	}
	evalOn(t, in, `(letrec ((g (lambda () 1))) (eq? 'g (string->symbol "g")))`, `#t`)
}

// TestCrossEngineCalls: tree-created procedures call compiled ones and vice
// versa — Apply, map, and higher-order primitives all cross the boundary.
func TestCrossEngineCalls(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	// A tree closure built by the reference engine, applied from
	// compiled code.
	tree := newEngine(t, "tree", 1, 1)
	tf, err := tree.EvalString(`(lambda (x) (* x 2))`)
	if err != nil {
		t.Fatal(err)
	}
	in.Global().Define("tf", tf)
	evalOn(t, in, `(tf 21)`, `42`)
	// A compiled closure crossing into tree-driven apply/map.
	evalOn(t, in, `(apply (lambda (a b) (+ a b)) '(20 22))`, `42`)
	evalOn(t, in, `(map (lambda (x) (* x x)) '(1 2 3 4))`, `(1 4 9 16)`)
	// sort's comparator is a compiled closure called from Go.
	evalOn(t, in, `(length (list (lambda () 1) car))`, `2`)
}

// TestDisassemble sanity-checks the disassembler output shape.
func TestDisassemble(t *testing.T) {
	expr, err := scheme.ReadAll(`(lambda (n) (if (< n 2) n (f (- n 1))))`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := vm.Compile(expr[0])
	if err != nil {
		t.Fatal(err)
	}
	d := code.Disassemble()
	for _, want := range []string{"closure", "global", "tail-call", "return"} {
		if !strings.Contains(d, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, d)
		}
	}
}

// TestBodyDefineReadsLetrecSlot: a body's defines are one letrec*, so a
// define read before its init sees the unspecified slot value — not the
// outer binding of the same name — and both engines agree on it.
func TestBodyDefineReadsLetrecSlot(t *testing.T) {
	tree := newEngine(t, "tree", 1, 1)
	vmIn := newEngine(t, "vm", 1, 1)
	for _, c := range []struct{ src, want string }{
		{`(define a 100) (define (f) (define b a) (define a 1) b) (f)`, `#[unspecified]`},
		{`(define (f) (define b (lambda () a)) (define a 1) (b)) (f)`, `1`},
		{`(define (f) (define x 1) (set! x (+ x 1)) (define y (* x 10)) y) (f)`, `20`},
		{`(define (f) (define x 1) (define x 2) x) (f)`, `2`},
		{`(define (f) 'no-body-value (define x 1)) (f)`, `#[unspecified]`},
	} {
		evalOn(t, tree, c.src, c.want)
		evalOn(t, vmIn, c.src, c.want)
	}
}

// TestQuasiquoteHygiene: an expanded quasiquote calls the primitive values
// it embeds, so rebinding cons, list and append leaves its result — and its
// fresh pairs — unchanged on both engines.
func TestQuasiquoteHygiene(t *testing.T) {
	const src = "(define (qq x) `(a ,x ,@'(2 3) (b . ,x)))" +
		"(define before (qq 1))" +
		"(set! cons (lambda (a b) 'rebound))" +
		"(set! list (lambda xs 'rebound))" +
		"(set! append (lambda xs 'rebound))" +
		"(define after (qq 1))"
	for _, engine := range []string{"tree", "vm"} {
		in := newEngine(t, engine, 1, 1)
		if _, err := in.EvalString(src); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		evalOn(t, in, `before`, `(a 1 2 3 (b . 1))`)
		evalOn(t, in, `after`, `(a 1 2 3 (b . 1))`)
		evalOn(t, in, `(eq? (qq 1) (qq 1))`, `#f`)
		evalOn(t, in, `(eq? (cdr (cdr (qq 1))) (cdr (cdr (qq 1))))`, `#f`)
	}
}
