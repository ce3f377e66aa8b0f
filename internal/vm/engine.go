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
	return e.exec(ctx, &Closure{Code: code, eng: e}, nil)
}

func init() {
	scheme.RegisterEngine("vm", func(in *scheme.Interp) scheme.Engine { return New(in) })
}
