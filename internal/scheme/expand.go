package scheme

// The syntax pass both engines share. Expand checks the syntax of one
// toplevel datum and lowers every derived form to the core language, so
// the tree-walker's form table and the bytecode compiler each implement
// only the core:
//
//	quote if define set! lambda begin let letrec* and or case do delay
//	fork-thread create-thread future spawn without-preemption
//	without-interrupts with-mutex fluid-let atomic get rd
//
// Lowered here: let*, letrec, named let, cond, when, unless, block,
// named-lambda, (define (f . args) ...), quasiquote, and body-level
// defines. and/or/case/do stay core because the compiler gives them
// shorter code than any lowering would.
//
// Two rules follow for defines. A body's defines become one letrec*, so a
// define read before its init sees the letrec* slot's unspecified value,
// not an outer binding of the same name. A define anywhere else inside a
// lexical scope is a syntax error; at toplevel (outside every binding
// form) a define is global wherever it sits. Two derived forms open a
// scope of their own: the operand of delay (a nullary procedure body to
// the tree-walker), and the clauses after a cond => clause (inside the
// let that holds the test value).

// expander lowers one form; rest is the form's operand list and local
// reports whether a lexical scope encloses it.
type expander func(form *Pair, rest []Value, local bool) (Value, error)

var expanders map[Symbol]expander

// Core-form head symbols the lowerings emit.
const (
	symBegin   Symbol = "begin"
	symIf      Symbol = "if"
	symLambda  Symbol = "lambda"
	symLet     Symbol = "let"
	symLetrec  Symbol = "letrec*"
	symQuote   Symbol = "quote"
	symDefine  Symbol = "define"
	symUnquote Symbol = "unquote"
	// condTemp holds a cond => clause's test value. The reader cannot
	// produce a symbol with a space, so no user variable can capture it.
	condTemp Symbol = "cond =>"
)

func init() {
	expanders = map[Symbol]expander{
		"quote":  xQuote,
		"if":     operands(2, 3),
		"define": xDefine,
		"set!":   xSet,
		"lambda": xLambda,
		// The reference evaluator has always read named-lambda as lambda:
		// the head of the spec list is just the first parameter.
		"named-lambda": xLambda,
		"begin":        operands(0, -1),
		"block":        xBlock, // the paper's (block e ...) sequencing form
		"let":          xLet,
		"let*":         xLetStar,
		"letrec":       xLetrec,
		"letrec*":      xLetrec,
		"cond":         xCond,
		"case":         xCase,
		"and":          operands(0, -1),
		"or":           operands(0, -1),
		"when":         xWhen,
		"unless":       xWhen,
		"do":           xDo,
		"delay":        xDelay,
		"quasiquote":   xQuasiquote,

		"fork-thread":        operands(1, 2),
		"create-thread":      operands(1, 1),
		"future":             operands(1, 1),
		"spawn":              xSpawn,
		"without-preemption": operands(0, -1),
		"without-interrupts": operands(0, -1),
		"with-mutex":         operands(1, -1),
		"fluid-let":          xFluidLet,
		"atomic":             operands(0, -1),
		"get":                xTuple,
		"rd":                 xTuple,
	}
}

// Expand checks and lowers one toplevel datum to the core language.
// Forms cannot be shadowed: a form keyword is a keyword in every scope,
// as it always was for the tree-walker.
func Expand(x Value) (Value, error) { return expand(x, false) }

func expand(x Value, local bool) (Value, error) {
	p, ok := x.(*Pair)
	if !ok {
		if IsEmptyList(x) {
			return nil, Errorf("cannot evaluate ()")
		}
		return x, nil
	}
	items, err := ListToSlice(x)
	if head, ok := p.Car.(Symbol); ok {
		if fn, ok := expanders[head]; ok {
			if err != nil {
				return nil, badForm(p)
			}
			return fn(p, items[1:], local)
		}
	}
	if err != nil {
		return nil, Errorf("improper argument list")
	}
	out, err := expandAll(items, local)
	return List(out...), err
}

// expandAll expands xs in place; every caller passes a slice it owns.
func expandAll(xs []Value, local bool) ([]Value, error) {
	for i, x := range xs {
		v, err := expand(x, local)
		if err != nil {
			return nil, err
		}
		xs[i] = v
	}
	return xs, nil
}

// operands expands a form whose operands are all expressions, checking
// their count (max < 0: no limit).
func operands(min, max int) expander {
	return func(form *Pair, rest []Value, local bool) (Value, error) {
		if len(rest) < min || (max >= 0 && len(rest) > max) {
			return nil, badForm(form)
		}
		out, err := expandAll(rest, local)
		return Cons(form.Car, List(out...)), err
	}
}

func xQuote(form *Pair, rest []Value, _ bool) (Value, error) {
	if len(rest) != 1 {
		return nil, badForm(form)
	}
	return form, nil
}

// xDelay expands the operand as in a scope of its own, the promise's
// thunk, so a define there is an error rather than a global define.
func xDelay(form *Pair, rest []Value, _ bool) (Value, error) {
	return operands(1, 1)(form, rest, true)
}

func xBlock(_ *Pair, rest []Value, local bool) (Value, error) {
	return expand(Cons(symBegin, List(rest...)), local)
}

func xSet(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) != 2 {
		return nil, badForm(form)
	}
	if _, ok := rest[0].(Symbol); !ok {
		return nil, badForm(form)
	}
	v, err := expand(rest[1], local)
	return List(form.Car, rest[0], v), err
}

// parseDefine splits a define into its name and init; a nil init means
// the variable starts unspecified. (define (f . params) body...) becomes
// (define f (lambda params body...)).
func parseDefine(form *Pair, rest []Value) (Symbol, Value, error) {
	if len(rest) < 1 {
		return "", nil, badForm(form)
	}
	switch target := rest[0].(type) {
	case Symbol:
		switch len(rest) {
		case 1:
			return target, nil, nil
		case 2:
			return target, rest[1], nil
		}
	case *Pair:
		if name, ok := target.Car.(Symbol); ok {
			return name, Cons(symLambda, Cons(target.Cdr, List(rest[1:]...))), nil
		}
	}
	return "", nil, badForm(form)
}

// xDefine handles a define outside any body: a global define at toplevel,
// a syntax error inside a lexical scope.
func xDefine(form *Pair, rest []Value, local bool) (Value, error) {
	if local {
		return nil, Errorf("define: definition in expression context: %s", WriteString(form))
	}
	name, init, err := parseDefine(form, rest)
	if err != nil || init == nil {
		return List(symDefine, name), err
	}
	v, err := expand(init, false)
	return List(symDefine, name, v), err
}

func xLambda(form *Pair, rest []Value, _ bool) (Value, error) {
	if len(rest) < 1 {
		return nil, badForm(form)
	}
	if _, _, err := ParseParams(rest[0]); err != nil {
		return nil, err
	}
	body, err := expandBody(rest[1:])
	if err != nil {
		return nil, err
	}
	return Cons(symLambda, Cons(rest[0], List(body...))), nil
}

// expandBody lowers a procedure or binding-form body. Body-level begins
// splice; the body's defines become one letrec* whose bindings initialize
// in order, an expression that precedes a define running as part of that
// define's init.
func expandBody(forms []Value) ([]Value, error) {
	forms, err := spliceBegins(forms)
	if err != nil {
		return nil, err
	}
	// exprs fills forms in place: it never gets ahead of the form read.
	var binds []Value
	exprs := forms[:0]
	for _, f := range forms {
		p, ok := f.(*Pair)
		if !ok || p.Car != symDefine {
			v, err := expand(f, true)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, v)
			continue
		}
		rest, err := ListToSlice(p.Cdr)
		if err != nil {
			return nil, badForm(p)
		}
		name, init, err := parseDefine(p, rest)
		if err != nil {
			return nil, err
		}
		var v Value = Unspecified
		if init != nil {
			if v, err = expand(init, true); err != nil {
				return nil, err
			}
		}
		if len(exprs) > 0 {
			v = Cons(symBegin, List(append(exprs, v)...))
			exprs = exprs[:0]
		}
		binds = append(binds, List(name, v))
	}
	if len(binds) == 0 {
		return exprs, nil
	}
	return []Value{Cons(symLetrec, Cons(List(binds...), List(exprs...)))}, nil
}

// spliceBegins flattens body-level (begin ...) and (block ...) forms; an
// empty one stays, evaluating to unspecified.
func spliceBegins(forms []Value) ([]Value, error) {
	var out []Value
	for _, f := range forms {
		p, ok := f.(*Pair)
		if !ok || (p.Car != symBegin && p.Car != Symbol("block")) || IsEmptyList(p.Cdr) {
			out = append(out, f)
			continue
		}
		sub, err := ListToSlice(p.Cdr)
		if err != nil {
			return nil, badForm(p)
		}
		if sub, err = spliceBegins(sub); err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// bindingForm expands (head ((name init) ...) body...); the inits see the
// new scope only for letrec*.
func bindingForm(head Symbol, bindings Value, body []Value, local bool) (Value, error) {
	names, inits, err := ParseBindings(bindings)
	if err != nil {
		return nil, err
	}
	if inits, err = expandAll(inits, local || head == symLetrec); err != nil {
		return nil, err
	}
	bs := make([]Value, len(names))
	for i, n := range names {
		bs[i] = List(n, inits[i])
	}
	out, err := expandBody(body)
	return Cons(head, Cons(List(bs...), List(out...))), err
}

// xLet handles plain let and named let, the paper's loop idiom:
// (let name ((v init) ...) body...) is
// ((letrec* ((name (lambda (v ...) body...))) name) init ...).
func xLet(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) < 1 {
		return nil, badForm(form)
	}
	name, named := rest[0].(Symbol)
	if !named {
		return bindingForm(symLet, rest[0], rest[1:], local)
	}
	if len(rest) < 2 {
		return nil, badForm(form)
	}
	names, inits, err := ParseBindings(rest[1])
	if err != nil {
		return nil, err
	}
	params := make([]Value, len(names))
	for i, n := range names {
		params[i] = n
	}
	proc := Cons(symLambda, Cons(List(params...), List(rest[2:]...)))
	loop := List(symLetrec, List(List(name, proc)), name)
	return expand(Cons(loop, List(inits...)), local)
}

// xLetStar nests one single-binding let per binding, the innermost
// holding the body; with no bindings the body runs in a begin.
func xLetStar(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) < 1 {
		return nil, badForm(form)
	}
	names, inits, err := ParseBindings(rest[0])
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		body, err := expandBody(rest[1:])
		return Cons(symBegin, List(body...)), err
	}
	body := List(rest[1:]...)
	for i := len(names) - 1; i >= 0; i-- {
		body = List(Cons(symLet, Cons(List(List(names[i], inits[i])), body)))
	}
	return expand(body.(*Pair).Car, local)
}

func xLetrec(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) < 1 {
		return nil, badForm(form)
	}
	return bindingForm(symLetrec, rest[0], rest[1:], local)
}

// xCond folds the clauses from the right into nested ifs: (test) becomes
// (or test ...), (test => f) binds the test value in a let, and else (or
// no match) ends the chain.
func xCond(_ *Pair, clauses []Value, local bool) (Value, error) {
	var parsed [][]Value
	for _, cl := range clauses {
		parts, err := ListToSlice(cl)
		if err != nil || len(parts) == 0 {
			return nil, Errorf("cond: bad clause %s", WriteString(cl))
		}
		parsed = append(parsed, parts)
		if parts[0] == Symbol("else") {
			break // later clauses are unreachable
		}
	}
	var out Value = List(symBegin)
	for i := len(parsed) - 1; i >= 0; i-- {
		parts := parsed[i]
		switch {
		case parts[0] == Symbol("else"):
			out = Cons(symBegin, List(parts[1:]...))
		case len(parts) == 1:
			out = List(Symbol("or"), parts[0], out)
		case parts[1] == Symbol("=>"):
			if len(parts) != 3 {
				return nil, Errorf("cond: bad => clause")
			}
			out = List(symLet, List(List(condTemp, parts[0])),
				List(symIf, condTemp, List(parts[2], condTemp), out))
		default:
			out = List(symIf, parts[0], Cons(symBegin, List(parts[1:]...)), out)
		}
	}
	return expand(out, local)
}

func xCase(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) < 1 {
		return nil, badForm(form)
	}
	key, err := expand(rest[0], local)
	if err != nil {
		return nil, err
	}
	out := []Value{form.Car, key}
	for _, cl := range rest[1:] {
		parts, err := ListToSlice(cl)
		if err != nil || len(parts) < 1 {
			return nil, Errorf("case: bad clause %s", WriteString(cl))
		}
		isElse := parts[0] == Symbol("else")
		if _, err := ListToSlice(parts[0]); err != nil && !isElse {
			return nil, Errorf("case: bad datum list %s", WriteString(parts[0]))
		}
		body, err := expandAll(parts[1:], local)
		if err != nil {
			return nil, err
		}
		out = append(out, Cons(parts[0], List(body...)))
		if isElse {
			break // later clauses are unreachable
		}
	}
	return List(out...), nil
}

// xWhen: (when t e...) is (if t (begin e...)); (unless t e...) is
// (if t (begin) (begin e...)).
func xWhen(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) < 1 {
		return nil, badForm(form)
	}
	body := Cons(symBegin, List(rest[1:]...))
	out := List(symIf, rest[0], body)
	if form.Car == Symbol("unless") {
		out = List(symIf, rest[0], List(symBegin), body)
	}
	return expand(out, local)
}

func xDo(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) < 2 {
		return nil, badForm(form)
	}
	specs, err := ListToSlice(rest[0])
	if err != nil {
		return nil, badForm(form)
	}
	for i, sp := range specs {
		parts, err := ListToSlice(sp)
		if err != nil || len(parts) < 2 || len(parts) > 3 {
			return nil, Errorf("do: bad variable spec %s", WriteString(sp))
		}
		if _, ok := parts[0].(Symbol); !ok {
			return nil, badForm(form)
		}
		init, err := expand(parts[1], local)
		if err != nil {
			return nil, err
		}
		step, err := expandAll(parts[2:], true)
		if err != nil {
			return nil, err
		}
		specs[i] = Cons(parts[0], Cons(init, List(step...)))
	}
	test, err := ListToSlice(rest[1])
	if err != nil || len(test) < 1 {
		return nil, Errorf("do: bad test clause")
	}
	if test, err = expandAll(test, true); err != nil {
		return nil, err
	}
	body, err := expandAll(rest[2:], true)
	return Cons(form.Car, Cons(List(specs...), Cons(List(test...), List(body...)))), err
}

func xSpawn(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) != 2 {
		return nil, badForm(form)
	}
	exprs, err := ListToSlice(rest[1])
	if err != nil {
		return nil, badForm(form)
	}
	ts, err := expand(rest[0], local)
	if err != nil {
		return nil, err
	}
	exprs, err = expandAll(exprs, local)
	return List(form.Car, ts, List(exprs...)), err
}

// xFluidLet expands the inits and the body; the body is an expression
// sequence, not a scope of its own.
func xFluidLet(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) < 1 {
		return nil, badForm(form)
	}
	names, inits, err := ParseBindings(rest[0])
	if err != nil {
		return nil, err
	}
	bs := make([]Value, len(names))
	for i, n := range names {
		v, err := expand(inits[i], local)
		if err != nil {
			return nil, err
		}
		bs[i] = List(n, v)
	}
	body, err := expandAll(rest[1:], local)
	return Cons(form.Car, Cons(List(bs...), List(body...))), err
}

// xTuple expands a get/rd form. The template stays literal except its
// ,x unquotes and compound items, which are expressions; the body is a
// scope binding the template's ?formals.
func xTuple(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) < 2 {
		return nil, badForm(form)
	}
	items, err := ListToSlice(rest[1])
	if err != nil {
		return nil, Errorf("bad template: %v", err)
	}
	for i, it := range items {
		p, ok := it.(*Pair)
		if !ok {
			continue
		}
		if p.Car != symUnquote {
			if items[i], err = expand(it, local); err != nil {
				return nil, err
			}
			continue
		}
		parts, err := ListToSlice(p.Cdr)
		if err != nil || len(parts) != 1 {
			return nil, Errorf("bad template unquote")
		}
		v, err := expand(parts[0], local)
		if err != nil {
			return nil, err
		}
		items[i] = List(symUnquote, v)
	}
	ts, err := expand(rest[0], local)
	if err != nil {
		return nil, err
	}
	body, err := expandBody(rest[2:])
	return Cons(form.Car, Cons(ts, Cons(List(items...), List(body...)))), err
}

func xQuasiquote(form *Pair, rest []Value, local bool) (Value, error) {
	if len(rest) != 1 {
		return nil, badForm(form)
	}
	return quasi(rest[0], 1, local)
}

// quasi lowers a quasiquote template at nesting depth to calls of the
// primitive values primCons and primSplice, embedded as constants so that
// rebinding the global cons cannot change what a template means. Every
// pair of the template is built fresh on each evaluation; atoms are quoted.
func quasi(tpl Value, depth int, local bool) (Value, error) {
	p, ok := tpl.(*Pair)
	if !ok {
		return List(symQuote, tpl), nil
	}
	if p.Car == symUnquote || p.Car == Symbol("quasiquote") {
		parts, err := ListToSlice(p.Cdr)
		inner := depth + 1
		if p.Car == symUnquote {
			if err != nil || len(parts) != 1 {
				return nil, Errorf("bad unquote")
			}
			if depth == 1 {
				return expand(parts[0], local)
			}
			inner = depth - 1
		} else if err != nil || len(parts) != 1 {
			return nil, Errorf("bad nested quasiquote")
		}
		v, err := quasi(parts[0], inner, local)
		return List(primCons, List(symQuote, p.Car),
			List(primCons, v, List(symQuote, Empty))), err
	}
	// Element-wise walk; a dotted unquote tail `(a . ,b) ends the walk.
	type item struct {
		v      Value
		splice bool
	}
	var items []item
	var cur Value = tpl
	for {
		pp, ok := cur.(*Pair)
		if !ok || pp.Car == symUnquote {
			break
		}
		var it item
		var err error
		if el, ok := pp.Car.(*Pair); ok && el.Car == Symbol("unquote-splicing") && depth == 1 {
			parts, perr := ListToSlice(el.Cdr)
			if perr != nil || len(parts) != 1 {
				return nil, Errorf("bad unquote-splicing")
			}
			it.splice = true
			it.v, err = expand(parts[0], local)
		} else {
			it.v, err = quasi(pp.Car, depth, local)
		}
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		cur = pp.Cdr
	}
	out, err := quasi(cur, depth, local)
	if err != nil {
		return nil, err
	}
	for i := len(items) - 1; i >= 0; i-- {
		prim := primCons
		if items[i].splice {
			prim = primSplice
		}
		out = List(prim, items[i].v, out)
	}
	return out, nil
}
