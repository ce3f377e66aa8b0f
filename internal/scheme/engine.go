package scheme

import (
	"sort"

	"repro/internal/core"
)

// An Engine is an alternative execution strategy for toplevel forms — the
// bytecode VM is the canonical one. Engines receive the expander's output,
// so they implement only the core forms; the tree-walker stays the
// executable reference semantics the "tree" engine name selects.
type Engine interface {
	// Name answers the engine's registry name.
	Name() string
	// EvalToplevel evaluates one expanded toplevel datum in the global
	// environment.
	EvalToplevel(ctx *core.Context, expr Value) (Value, error)
}

// EngineFactory builds an engine bound to one interpreter.
type EngineFactory func(in *Interp) Engine

// TreeEngineName selects the tree-walking reference evaluator.
const TreeEngineName = "tree"

var engineFactories = map[string]EngineFactory{}

// RegisterEngine installs an engine factory under name (called from the
// engine package's init; internal/vm registers "vm"). The interpreter
// defaults to "vm" when registered, so importing the vm package is enough
// to switch a program over.
func RegisterEngine(name string, f EngineFactory) { engineFactories[name] = f }

// DefaultEngineName answers the engine New selects when no WithEngine
// option is given: "vm" once the bytecode VM's package is imported,
// otherwise the tree-walker.
func DefaultEngineName() string {
	if _, ok := engineFactories["vm"]; ok {
		return "vm"
	}
	return TreeEngineName
}

// EngineNames lists the selectable engines, the tree-walker included.
func EngineNames() []string {
	names := []string{TreeEngineName}
	for n := range engineFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WithEngine selects the execution engine by registry name ("tree" for the
// reference evaluator). Unregistered names select the tree-walker.
func WithEngine(name string) Option { return func(in *Interp) { in.engineName = name } }

// EngineName answers the active engine's name ("tree" when no engine is
// installed).
func (in *Interp) EngineName() string {
	if in.engine == nil {
		return TreeEngineName
	}
	return in.engine.Name()
}

// initEngine resolves the configured engine name to an instance. Called
// from New before the prelude loads, so the prelude itself exercises the
// selected engine.
func (in *Interp) initEngine() {
	name := in.engineName
	if name == "" {
		if _, ok := engineFactories["vm"]; ok {
			name = "vm"
		} else {
			name = TreeEngineName
		}
	}
	if f, ok := engineFactories[name]; ok {
		in.engine = f(in)
	}
}

// evalToplevel expands one toplevel datum and evaluates it through the
// selected engine. EvalString, EvalIn and the eval primitive all come
// through here.
func (in *Interp) evalToplevel(ctx *core.Context, d Value) (Value, error) {
	x, err := Expand(d)
	if err != nil {
		return nil, err
	}
	if in.engine != nil {
		return in.engine.EvalToplevel(ctx, x)
	}
	return in.Eval(ctx, x, in.global)
}

// IsSpecialForm reports whether head names a core form — one the expander
// leaves in its output. The tree-walker consults the form table before the
// environment, so forms cannot be shadowed by bindings — compilers must
// mirror that resolution order.
func IsSpecialForm(head Symbol) bool {
	_, ok := specialForms[head]
	return ok
}

// installEngine binds the engine-introspection primitives.
func installEngine(in *Interp) {
	// (engine) → the active engine's name as a symbol.
	in.prim("engine", 0, 0, func(in *Interp, _ *core.Context, _ []Value) (Value, error) {
		return Symbol(in.EngineName()), nil
	})
	// (compiled? p) → whether p is a procedure carrying compiled code.
	in.prim("compiled?", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		c, ok := a[0].(CompiledProc)
		return ok && c.Compiled(), nil
	})
}
