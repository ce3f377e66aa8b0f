package scheme

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/testkit"
)

// (Engine-differential fuzzing — the tree-walker against the bytecode VM
// on generated terminating programs — lives in enginediff_test.go, in the
// external test package so it can import internal/vm.)

// genExpr builds a random *program-shaped* datum: mostly lists headed by
// known symbols with random arguments, so the evaluator's form handlers and
// primitives all get exercised with adversarial inputs.
func genExpr(rng *rand.Rand, depth int) Value {
	heads := []Symbol{
		"quote", "if", "begin", "let", "let*", "lambda", "cond", "case",
		"and", "or", "when", "unless", "do", "+", "-", "*", "car", "cdr",
		"cons", "list", "append", "length", "map", "apply", "vector-ref",
		"string-append", "set!", "define", "delay", "quasiquote", "unquote",
		"fork-thread-not-really", "nonexistent-procedure",
	}
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0:
			return int64(rng.Intn(10) - 5)
		case 1:
			return heads[rng.Intn(len(heads))]
		case 2:
			return rng.Intn(2) == 0
		case 3:
			return NewSString("s")
		default:
			return Empty
		}
	}
	n := rng.Intn(4)
	items := make([]Value, 0, n+1)
	items = append(items, heads[rng.Intn(len(heads))])
	for i := 0; i < n; i++ {
		items = append(items, genExpr(rng, depth-1))
	}
	return List(items...)
}

// Property: evaluating arbitrary program-shaped data returns a value or an
// error — never a panic, never a wedged machine.
func TestEvalFuzzNeverPanics(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	in := New(vm, WithOutput(&strings.Builder{}))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		expr := genExpr(rng, 4)
		_, err := vm.Run(func(ctx *core.Context) ([]core.Value, error) {
			// Both the raw datum (the tree-walker's own checks on core
			// forms; derived heads are unbound variables to it) and its
			// expansion run, each in a fresh frame so fuzz defines cannot
			// poison the global environment for later cases. An error
			// is fine; a panic is not.
			_, _ = in.Eval(ctx, expr, NewEnv(in.Global()))
			if x, err := Expand(expr); err == nil {
				_, _ = in.Eval(ctx, x, NewEnv(in.Global()))
			}
			return nil, nil
		})
		if err != nil {
			// A panic inside Eval would surface as a PanicError here.
			t.Logf("seed %d: expr %s => %v", seed, WriteString(expr), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestCoreForms: the tree-walker's form table is exactly the core the
// expander documents, and the expander checks every core form too.
func TestCoreForms(t *testing.T) {
	core := strings.Fields(`quote if define set! lambda begin let letrec* and or
		case do delay fork-thread create-thread future spawn without-preemption
		without-interrupts with-mutex fluid-let atomic get rd`)
	if len(specialForms) != len(core) {
		t.Fatalf("form table has %d forms, the core %d", len(specialForms), len(core))
	}
	for _, f := range core {
		if !IsSpecialForm(Symbol(f)) {
			t.Errorf("core form %s missing from the form table", f)
		}
		if _, ok := expanders[Symbol(f)]; !ok {
			t.Errorf("core form %s has no expander", f)
		}
	}
}

// coreOnly walks an expanded expression and reports a derived-form head
// left in expression position, or a malformed core form.
func coreOnly(x Value) error {
	p, ok := x.(*Pair)
	if !ok {
		return nil
	}
	items, err := ListToSlice(x)
	if err != nil {
		return fmt.Errorf("improper form %s", WriteString(x))
	}
	head, _ := p.Car.(Symbol)
	if _, keyword := expanders[head]; keyword && !IsSpecialForm(head) {
		return fmt.Errorf("derived form %s left in the output", head)
	}
	arg := func(i int) []Value { // the list operand i, or nothing
		if i < len(items) {
			if l, err := ListToSlice(items[i]); err == nil {
				return l
			}
		}
		return nil
	}
	var exprs []Value
	switch {
	case !IsSpecialForm(head): // an application
		exprs = items
	case head == "quote":
	case head == "lambda" || head == "define" || head == "set!":
		exprs = items[2:]
	case head == "let" || head == "letrec*" || head == "fluid-let":
		for _, b := range arg(1) {
			exprs = append(exprs, arg0(b)...)
		}
		exprs = append(exprs, items[2:]...)
	case head == "do":
		for _, sp := range arg(1) {
			exprs = append(exprs, arg0(sp)...)
		}
		exprs = append(append(exprs, arg(2)...), items[3:]...)
	case head == "case":
		exprs = items[1:2]
		for _, cl := range items[2:] {
			exprs = append(exprs, arg0(cl)...)
		}
	case head == "spawn":
		exprs = append(items[1:2], arg(2)...)
	case head == "get" || head == "rd":
		exprs = items[1:2]
		for _, it := range arg(2) {
			if u, ok := it.(*Pair); ok && u.Car == symUnquote {
				exprs = append(exprs, arg0(it)...)
			} else if ok {
				exprs = append(exprs, it)
			}
		}
		exprs = append(exprs, items[3:]...)
	default:
		exprs = items[1:]
	}
	for _, e := range exprs {
		if err := coreOnly(e); err != nil {
			return err
		}
	}
	return nil
}

// arg0 answers the elements after the first of a list (a binding's init,
// a clause's body), or nothing.
func arg0(v Value) []Value {
	l, err := ListToSlice(v)
	if err != nil || len(l) == 0 {
		return nil
	}
	return l[1:]
}

// Property: the reader never panics on arbitrary byte strings.
func TestReaderFuzzNeverPanics(t *testing.T) {
	f := func(src string) bool {
		if len(src) > 200 {
			src = src[:200]
		}
		_, _ = ReadAll(src) // error or data; must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Arithmetic identity properties through the interpreter.
func TestArithmeticProperties(t *testing.T) {
	in := newInterp(t, 1, 1)
	f := func(a, b int32) bool {
		x, y := int64(a%10000), int64(b%10000)
		src := WriteString(List(Symbol("+"), x, y))
		v, err := in.EvalString(src)
		if err != nil {
			return false
		}
		if v != x+y {
			return false
		}
		// Commutativity via the evaluator.
		src2 := WriteString(List(Symbol("+"), y, x))
		v2, err := in.EvalString(src2)
		return err == nil && v2 == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// List reverse/append properties through the interpreter.
func TestListProperties(t *testing.T) {
	in := newInterp(t, 1, 1)
	f := func(xs []int8) bool {
		if len(xs) > 12 {
			xs = xs[:12]
		}
		items := make([]Value, len(xs))
		for i, x := range xs {
			items[i] = int64(x)
		}
		lst := WriteString(List(items...))
		// (reverse (reverse l)) == l
		v, err := in.EvalString("(reverse (reverse '" + lst + "))")
		if err != nil || !Equal(v, List(items...)) {
			return false
		}
		// (length (append l l)) == 2 (length l)
		v2, err := in.EvalString("(length (append '" + lst + " '" + lst + "))")
		return err == nil && v2 == int64(2*len(items))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
