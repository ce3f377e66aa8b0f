package vm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scheme"
)

// Compile lowers one expanded toplevel datum — scheme.Expand's output, the
// core language only — to bytecode. The expander has already checked the
// syntax, so the compiler never declines a form; a malformed datum can only
// come from a caller that skipped the expander, and the recover turns it
// into an ordinary error.
func Compile(expr scheme.Value) (code *Code, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("vm: compile: %v", r)
		}
	}()
	fc := newFn("", 0, false)
	c := &compiler{}
	c.expr(fc, nil, expr, true)
	fc.emit(OpReturn, 0, 0)
	return fc.code(), nil
}

// list answers the elements of a proper list; the expander guarantees the
// shape, so an improper one is a bug in the caller.
func list(v scheme.Value) []scheme.Value {
	items, err := scheme.ListToSlice(v)
	if err != nil {
		panic(err)
	}
	return items
}

// ---------------------------------------------------------------------------
// code builder

type fnCode struct {
	name     scheme.Symbol
	nparams  int
	hasRest  bool
	nslots   int
	ops      []Instr
	consts   []scheme.Value
	constIdx map[scheme.Value]int32
	subs     []*Code
}

func newFn(name scheme.Symbol, nparams int, hasRest bool) *fnCode {
	return &fnCode{name: name, nparams: nparams, hasRest: hasRest,
		constIdx: make(map[scheme.Value]int32)}
}

func (f *fnCode) emit(op Opcode, a, b int32) int {
	f.ops = append(f.ops, Instr{Op: op, A: a, B: b})
	return len(f.ops) - 1
}

// patchA points a previously emitted jump at the next instruction.
func (f *fnCode) patchA(at int) { f.ops[at].A = int32(len(f.ops)) }
func (f *fnCode) patchB(at int) { f.ops[at].B = int32(len(f.ops)) }

// konst interns a constant; immutable comparable kinds pool, the rest
// append.
func (f *fnCode) konst(v scheme.Value) int32 {
	switch v.(type) {
	case scheme.Symbol, int64, float64, bool, scheme.Char:
		if i, ok := f.constIdx[v]; ok {
			return i
		}
		i := int32(len(f.consts))
		f.consts = append(f.consts, v)
		f.constIdx[v] = i
		return i
	}
	f.consts = append(f.consts, v)
	return int32(len(f.consts) - 1)
}

func (f *fnCode) code() *Code {
	return &Code{Name: f.name, Ops: f.ops, Consts: f.consts, Subs: f.subs,
		NParams: f.nparams, HasRest: f.hasRest, NSlots: f.nslots}
}

// ---------------------------------------------------------------------------
// lexical scopes: one scope per runtime frame, so compile-time (depth, slot)
// addresses match the frame chain exactly.

type scope struct {
	parent *scope
	names  map[scheme.Symbol]int
	nslots int // slots allocated so far in this frame
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, names: make(map[scheme.Symbol]int)}
}

// add binds name to the frame's next slot, shadowing any earlier binding.
func (s *scope) add(name scheme.Symbol) int {
	s.names[name] = s.nslots
	s.nslots++
	return s.nslots - 1
}

// resolve walks the scope chain for sym.
func resolve(sc *scope, sym scheme.Symbol) (depth, slot int, found bool) {
	d := 0
	for s := sc; s != nil; s = s.parent {
		if i, ok := s.names[sym]; ok {
			return d, i, true
		}
		d++
	}
	return 0, 0, false
}

// ---------------------------------------------------------------------------
// compiler

type compiler struct{}

func (c *compiler) expr(fc *fnCode, sc *scope, x scheme.Value, tail bool) {
	switch v := x.(type) {
	case scheme.Symbol:
		if d, slot, ok := resolve(sc, v); ok {
			fc.emit(OpLocal, int32(d), int32(slot))
			return
		}
		fc.emit(OpGlobal, fc.konst(v), 0)
	case *scheme.Pair:
		if head, ok := v.Car.(scheme.Symbol); ok && scheme.IsSpecialForm(head) {
			c.form(fc, sc, head, list(v.Cdr), tail)
			return
		}
		c.application(fc, sc, list(v), tail)
	default:
		fc.emit(OpConst, fc.konst(x), 0)
	}
}

func (c *compiler) application(fc *fnCode, sc *scope, items []scheme.Value, tail bool) {
	for _, x := range items {
		c.expr(fc, sc, x, false)
	}
	op := OpCall
	if tail {
		op = OpTailCall
	}
	fc.emit(op, int32(len(items)-1), 0)
}

// seq compiles an expression sequence (begin, case clause bodies, the
// bodies the concurrency forms wrap as thunks).
func (c *compiler) seq(fc *fnCode, sc *scope, forms []scheme.Value, tail bool) {
	if len(forms) == 0 {
		fc.emit(OpUnspec, 0, 0)
		return
	}
	for _, x := range forms[:len(forms)-1] {
		c.expr(fc, sc, x, false)
		fc.emit(OpPop, 0, 0)
	}
	c.expr(fc, sc, forms[len(forms)-1], tail)
}

// thunk compiles forms as the body of a nullary closure and pushes it —
// the operand shape of every concurrency instruction. A thread's single
// expression runs in tail position; a wrapped body does not.
func (c *compiler) thunk(fc *fnCode, sc *scope, tail bool, forms ...scheme.Value) {
	fc.emit(OpClosure, c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) {
		c.seq(sub, subSc, forms, tail)
	}), 0)
}

func (c *compiler) form(fc *fnCode, sc *scope, head scheme.Symbol, rest []scheme.Value, tail bool) {
	switch head {
	case "quote":
		fc.emit(OpConst, fc.konst(rest[0]), 0)

	case "if":
		c.expr(fc, sc, rest[0], false)
		jElse := fc.emit(OpJumpIfFalse, 0, 0)
		c.expr(fc, sc, rest[1], tail)
		jEnd := fc.emit(OpJump, 0, 0)
		fc.patchA(jElse)
		if len(rest) == 3 {
			c.expr(fc, sc, rest[2], tail)
		} else {
			fc.emit(OpUnspec, 0, 0)
		}
		fc.patchA(jEnd)

	case "define":
		// Only global defines reach the compiler: the expander turns body
		// defines into letrec*. A procedure init takes the variable's name.
		name := rest[0].(scheme.Symbol)
		switch {
		case len(rest) == 1:
			fc.emit(OpUnspec, 0, 0)
		case isForm(rest[1], "lambda"):
			c.lambda(fc, sc, name, list(rest[1].(*scheme.Pair).Cdr))
		default:
			c.expr(fc, sc, rest[1], false)
		}
		fc.emit(OpDefGlobal, fc.konst(name), 0)

	case "set!":
		sym := rest[0].(scheme.Symbol)
		c.expr(fc, sc, rest[1], false)
		if d, slot, ok := resolve(sc, sym); ok {
			fc.emit(OpSetLocal, int32(d), int32(slot))
		} else {
			fc.emit(OpSetGlobal, fc.konst(sym), 0)
		}

	case "lambda":
		c.lambda(fc, sc, "", rest)

	case "begin":
		c.seq(fc, sc, rest, tail)

	case "let":
		names, inits := must2(scheme.ParseBindings(rest[0]))
		for _, init := range inits {
			c.expr(fc, sc, init, false)
		}
		newSc := newScope(sc)
		for _, n := range names {
			newSc.add(n)
		}
		c.frame(fc, newSc, len(names), rest[1:], tail)

	case "letrec*":
		// A fresh frame whose whole body is this letrec*: body() fills it.
		c.frame(fc, newScope(sc), 0,
			[]scheme.Value{scheme.Cons(scheme.Symbol(head), scheme.List(rest...))}, tail)

	case "case":
		c.caseForm(fc, sc, rest, tail)

	case "and", "or":
		// Each operand but the last short-circuits on its own value.
		jump, empty := OpJumpFalsyKeep, true
		if head == "or" {
			jump, empty = OpJumpTruthyKeep, false
		}
		if len(rest) == 0 {
			fc.emit(OpConst, fc.konst(empty), 0)
			return
		}
		var ends []int
		for _, x := range rest[:len(rest)-1] {
			c.expr(fc, sc, x, false)
			ends = append(ends, fc.emit(jump, 0, 0))
		}
		c.expr(fc, sc, rest[len(rest)-1], tail)
		for _, j := range ends {
			fc.patchA(j)
		}

	case "do":
		c.doLoop(fc, sc, rest)

	case "delay":
		fc.emit(OpPromise, c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) {
			c.expr(sub, subSc, rest[0], true)
		}), 0)

	case "fork-thread":
		c.thunk(fc, sc, true, rest[0])
		hasVP := int32(0)
		if len(rest) == 2 {
			hasVP = 1
			c.expr(fc, sc, rest[1], false)
		}
		fc.emit(OpFork, hasVP, 0)

	case "create-thread":
		c.thunk(fc, sc, true, rest[0])
		fc.emit(OpCreateThread, 0, 0)

	case "future":
		c.thunk(fc, sc, true, rest[0])
		fc.emit(OpFuture, 0, 0)

	case "spawn":
		c.expr(fc, sc, rest[0], false)
		exprs := list(rest[1])
		for _, e := range exprs {
			c.thunk(fc, sc, true, e)
		}
		fc.emit(OpSpawn, int32(len(exprs)), 0)

	case "without-preemption":
		c.thunk(fc, sc, false, rest...)
		fc.emit(OpNoPreempt, 0, 0)

	case "without-interrupts":
		c.thunk(fc, sc, false, rest...)
		fc.emit(OpNoInterrupt, 0, 0)

	case "with-mutex":
		c.expr(fc, sc, rest[0], false)
		c.thunk(fc, sc, false, rest[1:]...)
		fc.emit(OpWithMutex, 0, 0)

	case "fluid-let":
		names, inits := must2(scheme.ParseBindings(rest[0]))
		c.fluidLet(fc, sc, names, inits, rest[1:])

	case "atomic":
		c.thunk(fc, sc, false, rest...)
		fc.emit(OpAtomic, 0, 0)

	case "get", "rd":
		c.tupleForm(fc, sc, head, rest)

	default:
		panic(fmt.Sprintf("no core form %s", head))
	}
}

// must2 unwraps a parse the expander has already checked.
func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(err)
	}
	return a, b
}

// isForm reports whether x is a list headed by the symbol head.
func isForm(x scheme.Value, head scheme.Symbol) bool {
	p, ok := x.(*scheme.Pair)
	return ok && p.Car == head
}

// ---------------------------------------------------------------------------
// binding forms

// frame compiles a binding form's frame: nstaged already-evaluated inits
// fill the first slots, the body (plus any letrec* it merges) the rest.
func (c *compiler) frame(fc *fnCode, sc *scope, nstaged int, body []scheme.Value, tail bool) {
	push := fc.emit(OpPushFrame, 0, int32(nstaged))
	c.body(fc, sc, body, tail)
	fc.ops[push].A = int32(sc.nslots)
	if !tail {
		fc.emit(OpPopFrame, 0, 0)
	}
}

// body compiles a procedure or binding-form body. A body that is a single
// letrec* — the expander's lowering of internal defines — shares the
// enclosing frame: its bindings take the frame's next slots and initialize
// in order, so internal defines cost no frame of their own. A name bound
// twice by one letrec* is one binding.
func (c *compiler) body(fc *fnCode, sc *scope, forms []scheme.Value, tail bool) {
	for len(forms) == 1 && isForm(forms[0], "letrec*") {
		rest := list(forms[0].(*scheme.Pair).Cdr)
		names, inits := must2(scheme.ParseBindings(rest[0]))
		slots := make(map[scheme.Symbol]int, len(names))
		for _, n := range names {
			if _, dup := slots[n]; !dup {
				slots[n] = sc.add(n)
			}
		}
		for i, init := range inits {
			c.expr(fc, sc, init, false)
			fc.emit(OpInitSlot, int32(slots[names[i]]), fc.konst(names[i]))
		}
		forms = rest[1:]
	}
	c.seq(fc, sc, forms, tail)
}

func (c *compiler) caseForm(fc *fnCode, sc *scope, rest []scheme.Value, tail bool) {
	c.expr(fc, sc, rest[0], false)
	var ends []int
	for _, cl := range rest[1:] {
		parts := list(cl)
		if parts[0] == scheme.Symbol("else") {
			fc.emit(OpPop, 0, 0)
			c.seq(fc, sc, parts[1:], tail)
			for _, j := range ends {
				fc.patchA(j)
			}
			return
		}
		jNext := fc.emit(OpCaseMatch, fc.konst(list(parts[0])), 0)
		c.seq(fc, sc, parts[1:], tail)
		ends = append(ends, fc.emit(OpJump, 0, 0))
		fc.patchB(jNext)
	}
	fc.emit(OpPop, 0, 0)
	fc.emit(OpUnspec, 0, 0)
	for _, j := range ends {
		fc.patchA(j)
	}
}

// doLoop compiles (do ((v init step)...) (test result...) body...) with the
// tree-walker's runtime shape: ONE frame reused across iterations (closures
// made in the body share the live bindings), simultaneous step assignment,
// and a backward branch — a safepoint — per iteration.
func (c *compiler) doLoop(fc *fnCode, sc *scope, rest []scheme.Value) {
	specs := list(rest[0])
	newSc := newScope(sc)
	var stepped []int // slots with a step expression
	var steps []scheme.Value
	for _, sp := range specs {
		parts := list(sp)
		c.expr(fc, sc, parts[1], false)
		slot := newSc.add(parts[0].(scheme.Symbol))
		if len(parts) == 3 {
			stepped = append(stepped, slot)
			steps = append(steps, parts[2])
		}
	}
	testParts := list(rest[1])
	fc.emit(OpPushFrame, int32(len(specs)), int32(len(specs)))
	top := int32(len(fc.ops))
	c.expr(fc, newSc, testParts[0], false)
	jBody := fc.emit(OpJumpIfFalse, 0, 0)
	c.seq(fc, newSc, testParts[1:], false)
	fc.emit(OpPopFrame, 0, 0)
	jEnd := fc.emit(OpJump, 0, 0)
	fc.patchA(jBody)
	for _, b := range rest[2:] {
		c.expr(fc, newSc, b, false)
		fc.emit(OpPop, 0, 0)
	}
	for _, s := range steps {
		c.expr(fc, newSc, s, false)
	}
	for i := len(stepped) - 1; i >= 0; i-- {
		fc.emit(OpInitSlot, int32(stepped[i]), -1)
	}
	fc.emit(OpJump, top, 0) // backward branch: per-iteration safepoint
	fc.patchA(jEnd)
}

// fluidLet compiles nested single-binding extents: each init evaluates
// inside the previous bindings' extents — the tree-walker's exact order.
func (c *compiler) fluidLet(fc *fnCode, sc *scope, names []scheme.Symbol, inits []scheme.Value, body []scheme.Value) {
	if len(names) == 0 {
		c.seq(fc, sc, body, false)
		return
	}
	c.expr(fc, sc, inits[0], false)
	idx := c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) {
		if len(names) == 1 {
			c.seq(sub, subSc, body, false)
			return
		}
		c.fluidLet(sub, subSc, names[1:], inits[1:], body)
	})
	fc.emit(OpClosure, idx, 0)
	fc.emit(OpFluid, fc.konst(names[0]), 0)
}

// ---------------------------------------------------------------------------
// tuple-space binding forms

type tupleFieldKind uint8

const (
	fLit tupleFieldKind = iota
	fFormal
	fExpr
)

type tupleField struct {
	kind tupleFieldKind
	lit  core.Value
	name string // formal name
}

// tupleSpec is the compiled template for one get/rd form; it lives in the
// constant pool.
type tupleSpec struct {
	name    string // "get" | "rd"
	remove  bool
	fields  []tupleField
	nexpr   int
	formals []string // in template order; the body closure's params
	hasBody bool
}

func (c *compiler) tupleForm(fc *fnCode, sc *scope, head scheme.Symbol, rest []scheme.Value) {
	spec := &tupleSpec{name: string(head), remove: head == "get", hasBody: len(rest) > 2}
	var exprs []scheme.Value
	for _, it := range list(rest[1]) {
		switch x := it.(type) {
		case scheme.Symbol:
			if len(x) > 0 && x[0] == '?' {
				spec.fields = append(spec.fields, tupleField{kind: fFormal, name: string(x[1:])})
				spec.formals = append(spec.formals, string(x[1:]))
			} else {
				spec.fields = append(spec.fields, tupleField{kind: fLit, lit: x})
			}
		case *scheme.Pair:
			if isForm(x, "unquote") {
				it = list(x.Cdr)[0]
			}
			spec.fields = append(spec.fields, tupleField{kind: fExpr})
			exprs = append(exprs, it)
		default:
			spec.fields = append(spec.fields, tupleField{kind: fLit, lit: scheme.ToTupleValue(it)})
		}
	}
	spec.nexpr = len(exprs)
	c.expr(fc, sc, rest[0], false)
	for _, e := range exprs {
		c.expr(fc, sc, e, false)
	}
	if spec.hasBody {
		params := make([]scheme.Symbol, len(spec.formals))
		for i, f := range spec.formals {
			params[i] = scheme.Symbol(f)
		}
		fc.emit(OpClosure, c.procSub(fc, sc, "", params, "", rest[2:]), 0)
	}
	fc.emit(OpTuple, fc.konst(spec), 0)
}

// ---------------------------------------------------------------------------
// procedures

// lambda compiles the operands (params body...) of a lambda form to a
// closure named name.
func (c *compiler) lambda(fc *fnCode, sc *scope, name scheme.Symbol, rest []scheme.Value) {
	params, restSym := must2(scheme.ParseParams(rest[0]))
	fc.emit(OpClosure, c.procSub(fc, sc, name, params, restSym, rest[1:]), 0)
}

// procSub compiles a procedure with known params, returning its Subs
// index. restSym names the rest parameter (slot NParams); empty means a
// fixed arity.
func (c *compiler) procSub(fc *fnCode, sc *scope, name scheme.Symbol, params []scheme.Symbol, restSym scheme.Symbol, body []scheme.Value) int32 {
	sub := newFn(name, len(params), restSym != "")
	subSc := newScope(sc)
	for _, p := range params {
		subSc.add(p)
	}
	if restSym != "" {
		subSc.add(restSym)
	}
	c.body(sub, subSc, body, true)
	sub.nslots = subSc.nslots
	sub.emit(OpReturn, 0, 0)
	fc.subs = append(fc.subs, sub.code())
	return int32(len(fc.subs) - 1)
}

// thunkSub compiles a nullary procedure whose body is generated by gen
// (used by the forms that wrap their bodies as thunks).
func (c *compiler) thunkSub(fc *fnCode, sc *scope, gen func(sub *fnCode, subSc *scope)) int32 {
	sub := newFn("", 0, false)
	gen(sub, newScope(sc))
	sub.emit(OpReturn, 0, 0)
	fc.subs = append(fc.subs, sub.code())
	return int32(len(fc.subs) - 1)
}
