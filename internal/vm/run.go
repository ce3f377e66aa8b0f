package vm

import (
	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/synch"
	"repro/internal/tspace"
)

// frame is one runtime environment rib: the slots of a binding construct or
// procedure activation, lexically chained. Slots are addressed (depth, slot)
// so variable access never hashes or allocates.
type frame struct {
	slots  []scheme.Value
	parent *frame
}

func (f *frame) at(depth int) *frame {
	for ; depth > 0; depth-- {
		f = f.parent
	}
	return f
}

// newFrame allocates a frame of n slots under parent. Up to eight slots,
// the header and its slots are one object sized to n; a finished thread
// keeps its frames alive, so no frame carries spare slots.
func newFrame(parent *frame, n int) *frame {
	type vals = scheme.Value
	var f *frame
	switch n {
	case 0:
		f = &frame{}
	case 1:
		f = inlineFrame(func(s *[1]vals) []vals { return s[:] })
	case 2:
		f = inlineFrame(func(s *[2]vals) []vals { return s[:] })
	case 3:
		f = inlineFrame(func(s *[3]vals) []vals { return s[:] })
	case 4:
		f = inlineFrame(func(s *[4]vals) []vals { return s[:] })
	case 5:
		f = inlineFrame(func(s *[5]vals) []vals { return s[:] })
	case 6:
		f = inlineFrame(func(s *[6]vals) []vals { return s[:] })
	case 7:
		f = inlineFrame(func(s *[7]vals) []vals { return s[:] })
	case 8:
		f = inlineFrame(func(s *[8]vals) []vals { return s[:] })
	default:
		f = &frame{slots: make([]scheme.Value, n)}
	}
	f.parent = parent
	return f
}

// inlineFrame allocates a frame together with its slot array A; slice
// answers the array as the frame's slots.
func inlineFrame[A any](slice func(*A) []scheme.Value) *frame {
	x := new(struct {
		frame
		s A
	})
	x.slots = slice(&x.s)
	return &x.frame
}

// Closure is a compiled procedure: code plus its captured frame chain. It
// implements scheme.Procedure, so the tree-walker — Apply, map, thread
// thunks — calls it like any other procedure value.
type Closure struct {
	Code *Code
	Env  *frame
	Name scheme.Symbol
	eng  *Engine
}

// ApplyProc implements scheme.Procedure.
func (c *Closure) ApplyProc(in *scheme.Interp, ctx *core.Context, args []scheme.Value) (scheme.Value, error) {
	return c.eng.exec(ctx, c, args)
}

// ProcName implements scheme.Procedure.
func (c *Closure) ProcName() string { return string(c.Name) }

// Compiled implements scheme.CompiledProc for (compiled? p).
func (c *Closure) Compiled() bool { return true }

func (c *Closure) callName() string {
	if c.Name != "" {
		return string(c.Name)
	}
	return "#[procedure]"
}

// bindFrame builds the activation frame for a call, with the tree-walker's
// exact arity errors. args may be a window of the caller's stack: the
// frame copies what it keeps.
func bindFrame(c *Closure, args []scheme.Value) (*frame, error) {
	code := c.Code
	if !code.HasRest {
		if len(args) != code.NParams {
			return nil, scheme.Errorf("%s: want %d arguments, got %d",
				c.callName(), code.NParams, len(args))
		}
	} else if len(args) < code.NParams {
		return nil, scheme.Errorf("%s: want at least %d arguments, got %d",
			c.callName(), code.NParams, len(args))
	}
	fr := newFrame(c.Env, code.NSlots)
	slots := fr.slots
	next := copy(slots, args[:code.NParams])
	if code.HasRest {
		slots[next] = scheme.List(args[code.NParams:]...)
		next++
	}
	for i := next; i < len(slots); i++ {
		slots[i] = scheme.Unspecified
	}
	return fr, nil
}

// nameValue gives an anonymous procedure the name its binding uses, as the
// tree-walker's define and letrec do.
func nameValue(v scheme.Value, name scheme.Symbol) {
	switch c := v.(type) {
	case *Closure:
		if c.Name == "" {
			c.Name = name
		}
	case *scheme.Closure:
		if c.Name == "" {
			c.Name = name
		}
	}
}

// saved is one suspended activation on the explicit call stack; vm→vm calls
// never recurse in Go, so non-tail Scheme recursion is heap-bounded.
type saved struct {
	code *Code
	pc   int
	fr   *frame
	base int
}

// exec runs a compiled closure to completion. Safepoints — calls, tail
// calls, backward branches — feed the interpreter's shared poll budget, so
// preemption and stealing fire with the tree-walker's density.
func (e *Engine) exec(ctx *core.Context, clo *Closure, args []scheme.Value) (scheme.Value, error) {
	in := e.in
	fr, err := bindFrame(clo, args)
	if err != nil {
		return nil, err
	}
	code := clo.Code
	pc := 0
	base := 0
	// One allocation holds the stack of a small procedure called from Go
	// (map, apply, sort), which would otherwise grow it three times.
	stack := make([]scheme.Value, 0, 4)
	var calls []saved
	var ops uint64
	defer func() { dispatchOps.Add(ops) }()

	push := func(v scheme.Value) { stack = append(stack, v) }
	pop := func() scheme.Value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	for {
		ins := code.Ops[pc]
		pc++
		ops++
		switch ins.Op {
		case OpConst:
			push(code.Consts[ins.A])
		case OpUnspec:
			push(scheme.Unspecified)
		case OpLocal:
			push(fr.at(int(ins.A)).slots[ins.B])
		case OpSetLocal:
			fr.at(int(ins.A)).slots[ins.B] = pop()
			push(scheme.Unspecified)
		case OpInitSlot:
			v := pop()
			if ins.B >= 0 {
				nameValue(v, code.Consts[ins.B].(scheme.Symbol))
			}
			fr.slots[ins.A] = v
		case OpGlobal:
			v, ok := code.cells[ins.A].Load()
			if !ok {
				return nil, scheme.Errorf("unbound variable: %s", code.Consts[ins.A])
			}
			push(v)
		case OpSetGlobal:
			if !code.cells[ins.A].Set(pop()) {
				return nil, scheme.Errorf("set!: unbound variable %s", code.Consts[ins.A])
			}
			push(scheme.Unspecified)
		case OpDefGlobal:
			v := pop()
			nameValue(v, code.Consts[ins.A].(scheme.Symbol))
			in.Global().DefineCell(code.cells[ins.A], v)
			push(scheme.Unspecified)
		case OpJump:
			t := int(ins.A)
			if t < pc {
				ctx.Safepoint() // backward branch: loop safepoint
			}
			pc = t
		case OpJumpIfFalse:
			if !scheme.IsTruthy(pop()) {
				pc = int(ins.A)
			}
		case OpJumpTruthyKeep:
			if scheme.IsTruthy(stack[len(stack)-1]) {
				pc = int(ins.A)
			} else {
				pop()
			}
		case OpJumpFalsyKeep:
			if !scheme.IsTruthy(stack[len(stack)-1]) {
				pc = int(ins.A)
			} else {
				pop()
			}
		case OpPop:
			pop()
		case OpClosure:
			in.AccountClosure(ctx)
			sub := code.Subs[ins.A]
			push(&Closure{Code: sub, Env: fr, Name: sub.Name, eng: e})
		case OpCall, OpTailCall:
			ctx.Safepoint()
			fnAt := len(stack) - int(ins.A) - 1
			fn := stack[fnAt]
			// The arguments stay on the stack: a compiled callee's frame
			// copies them, and a foreign callee borrows the window, capped
			// so an append inside it cannot write over the stack.
			args := stack[fnAt+1 : len(stack) : len(stack)]
			for i, a := range args {
				// Call sites collapse singleton multiple values, as the
				// tree-walker's evalArgs does.
				if mv, ok := a.(*scheme.MultiValues); ok && len(mv.Values) == 1 {
					args[i] = mv.Values[0]
				}
			}
			stack = stack[:fnAt]
			if callee, ok := fn.(*Closure); ok && callee.eng == e {
				nfr, err := bindFrame(callee, args)
				if err != nil {
					return nil, err
				}
				if ins.Op == OpTailCall {
					stack = stack[:base]
				} else {
					calls = append(calls, saved{code: code, pc: pc, fr: fr, base: base})
					base = len(stack)
				}
				code, pc, fr = callee.Code, 0, nfr
				continue
			}
			// Foreign callee: a primitive, a tree closure, or another
			// engine's procedure. A tail call degrades to a plain call —
			// control always flows on to OpReturn.
			v, err := e.callForeign(ctx, fn, args)
			if err != nil {
				return nil, err
			}
			push(v)
		case OpReturn:
			v := pop()
			if len(calls) == 0 {
				return v, nil
			}
			s := calls[len(calls)-1]
			calls = calls[:len(calls)-1]
			stack = stack[:base]
			code, pc, fr, base = s.code, s.pc, s.fr, s.base
			push(v)
		case OpPushFrame:
			nslots, nstaged := int(ins.A), int(ins.B)
			fr = newFrame(fr, nslots)
			at := len(stack) - nstaged
			copy(fr.slots, stack[at:])
			stack = stack[:at]
			for i := nstaged; i < nslots; i++ {
				fr.slots[i] = scheme.Unspecified
			}
		case OpPopFrame:
			fr = fr.parent
		case OpCaseMatch:
			key := stack[len(stack)-1]
			matched := false
			for _, d := range code.Consts[ins.A].([]scheme.Value) {
				if scheme.Eqv(key, d) {
					matched = true
					break
				}
			}
			if matched {
				pop()
			} else {
				pc = int(ins.B)
			}
		case OpPromise:
			sub := code.Subs[ins.A]
			push(scheme.NewPromise(&Closure{Code: sub, Env: fr, Name: sub.Name, eng: e}))
		case OpFork:
			vp := ctx.VP()
			if ins.A == 1 {
				v, err := scheme.CoerceVP(ctx, pop())
				if err != nil {
					return nil, err
				}
				vp = v
			}
			push(ctx.Fork(in.CloseThunk(pop()), vp))
		case OpCreateThread:
			push(ctx.CreateThread(in.CloseThunk(pop())))
		case OpFuture:
			push(ctx.Fork(in.CloseThunk(pop()), nil))
		case OpSpawn:
			n := int(ins.A)
			thunks := make([]core.Thunk, n)
			for i := n - 1; i >= 0; i-- {
				thunks[i] = in.CloseThunk(pop())
			}
			tsv := pop()
			ts, ok := tsv.(tspace.TupleSpace)
			if !ok {
				return nil, scheme.Errorf("spawn: not a tuple space: %s", scheme.WriteString(tsv))
			}
			threads, err := ts.Spawn(ctx, thunks...)
			if err != nil {
				return nil, err
			}
			out := make([]scheme.Value, len(threads))
			for i, t := range threads {
				out[i] = t
			}
			push(scheme.List(out...))
		case OpNoPreempt:
			thunk := pop()
			var v scheme.Value
			var callErr error
			ctx.WithoutPreemption(func() { v, callErr = e.callValue(ctx, thunk, nil) })
			if callErr != nil {
				return nil, callErr
			}
			push(v)
		case OpNoInterrupt:
			thunk := pop()
			var v scheme.Value
			var callErr error
			ctx.WithoutInterrupts(func() { v, callErr = e.callValue(ctx, thunk, nil) })
			if callErr != nil {
				return nil, callErr
			}
			push(v)
		case OpWithMutex:
			thunk := pop()
			mv := pop()
			m, ok := mv.(*synch.Mutex)
			if !ok {
				return nil, scheme.Errorf("with-mutex: not a mutex: %s", scheme.WriteString(mv))
			}
			v, err := func() (scheme.Value, error) {
				m.Acquire(ctx)
				defer m.Release()
				return e.callValue(ctx, thunk, nil)
			}()
			if err != nil {
				return nil, err
			}
			push(v)
		case OpFluid:
			thunk := pop()
			v := pop()
			sym := code.Consts[ins.A].(scheme.Symbol)
			var out scheme.Value
			var callErr error
			ctx.FluidLet(sym, v, func() { out, callErr = e.callValue(ctx, thunk, nil) })
			if callErr != nil {
				return nil, callErr
			}
			push(out)
		case OpAtomic:
			thunk := pop()
			v, err := in.RunAtomic(ctx, func() (scheme.Value, error) {
				return e.callValue(ctx, thunk, nil)
			})
			if err != nil {
				return nil, err
			}
			push(v)
		case OpTuple:
			spec := code.Consts[ins.A].(*tupleSpec)
			var body scheme.Value
			if spec.hasBody {
				body = pop()
			}
			exprVals := make([]scheme.Value, spec.nexpr)
			for i := spec.nexpr - 1; i >= 0; i-- {
				exprVals[i] = pop()
			}
			tsv := pop()
			ts, ok := tsv.(tspace.TupleSpace)
			if !ok {
				return nil, scheme.Errorf("%s: not a tuple space: %s", spec.name, scheme.WriteString(tsv))
			}
			tpl := make(tspace.Template, len(spec.fields))
			nx := 0
			for i, f := range spec.fields {
				switch f.kind {
				case fLit:
					tpl[i] = f.lit
				case fFormal:
					tpl[i] = tspace.F(f.name)
				case fExpr:
					tpl[i] = scheme.ToTupleValue(exprVals[nx])
					nx++
				}
			}
			tup, bind, err := in.MatchTuple(ctx, ts, tpl, spec.remove)
			if err != nil {
				return nil, err
			}
			if !spec.hasBody {
				push(scheme.List(tup...))
				break
			}
			bargs := make([]scheme.Value, len(spec.formals))
			for i, name := range spec.formals {
				bargs[i] = scheme.FromTupleValue(bind[name])
			}
			v, err := e.callValue(ctx, body, bargs)
			if err != nil {
				return nil, err
			}
			push(v)
		default:
			return nil, scheme.Errorf("vm: bad opcode %s", ins.Op)
		}
	}
}

// callValue invokes any procedure value — compiled closures re-enter exec,
// everything else routes through the tree-walker's Apply.
func (e *Engine) callValue(ctx *core.Context, fn scheme.Value, args []scheme.Value) (scheme.Value, error) {
	if clo, ok := fn.(*Closure); ok && clo.eng == e {
		return e.exec(ctx, clo, args)
	}
	return e.in.Apply(ctx, fn, args)
}

// callForeign applies a non-bytecode callee from the dispatch loop;
// primitives inline (they are the hot path), the rest goes through Apply.
func (e *Engine) callForeign(ctx *core.Context, fn scheme.Value, args []scheme.Value) (scheme.Value, error) {
	if p, ok := fn.(*scheme.Primitive); ok {
		if len(args) < p.Min || (p.Max >= 0 && len(args) > p.Max) {
			return nil, scheme.Errorf("%s: bad argument count %d", p.Name, len(args))
		}
		return p.Fn(e.in, ctx, args)
	}
	return e.in.Apply(ctx, fn, args)
}
