package vm

import (
	"repro/internal/core"
	"repro/internal/scheme"
)

// Engine is the bytecode execution engine for one interpreter. It compiles
// each expanded toplevel form on arrival and runs it on the stack machine;
// the compiler covers the whole core language, so no form is declined.
type Engine struct {
	in *scheme.Interp
}

// New builds a bytecode engine bound to in.
func New(in *scheme.Interp) *Engine { return &Engine{in: in} }

// Name implements scheme.Engine.
func (e *Engine) Name() string { return "vm" }

// EvalToplevel implements scheme.Engine: compile the datum, run it in a
// fresh nullary activation over the global environment.
func (e *Engine) EvalToplevel(ctx *core.Context, expr scheme.Value) (scheme.Value, error) {
	code, err := Compile(expr)
	if err != nil {
		return nil, err
	}
	compiledForms.Add(1)
	e.link(code)
	return e.exec(ctx, &Closure{Code: code, eng: e}, nil)
}

// link resolves the global operands of code and its nested procedures to
// their cells in the global environment, once, so a global access at run
// time is one atomic load. A name not yet defined links to an unbound cell
// that a later define fills in place.
func (e *Engine) link(code *Code) {
	g := e.in.Global()
	for _, ins := range code.Ops {
		switch ins.Op {
		case OpGlobal, OpSetGlobal, OpDefGlobal:
			if code.cells == nil {
				code.cells = make([]*scheme.Cell, len(code.Consts))
			}
			if code.cells[ins.A] == nil {
				code.cells[ins.A] = g.Cell(code.Consts[ins.A].(scheme.Symbol))
			}
		}
	}
	for _, sub := range code.Subs {
		e.link(sub)
	}
}

func init() {
	scheme.RegisterEngine("vm", func(in *scheme.Interp) scheme.Engine { return New(in) })
}
