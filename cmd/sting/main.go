// Command sting is the STING Scheme system: a REPL and file runner for the
// dialect, with the whole coordination substrate (threads, VPs, tuple
// spaces, mutexes, streams, speculation) available as first-class values.
//
// Usage:
//
//	sting                  start a REPL
//	sting file.scm ...     run programs
//	sting -e '(+ 1 2)'     evaluate an expression
//	sting -vps 8 file.scm  size the virtual machine
//	sting -engine=tree f.scm  run on the tree-walking reference evaluator
//	                          (default: the bytecode VM)
//	sting -cluster nodes.json  bind *cluster* to a sharded fabric, so
//	                           (remote-open *cluster* "jobs") routes
//	                           across every stingd shard
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	sting "repro"
	"repro/internal/scheme"
	stingvm "repro/internal/vm" // registers the "vm" bytecode engine (the default)
)

func main() {
	var (
		vps      = flag.Int("vps", 0, "virtual processors (default: one per physical processor)")
		procs    = flag.Int("procs", 0, "physical processors (default GOMAXPROCS)")
		expr     = flag.String("e", "", "evaluate this expression and exit")
		stats    = flag.Bool("stats", false, "print VM statistics on exit")
		cluster  = flag.String("cluster", "", "cluster membership (nodes.json path or \"id=addr,…\"); binds *cluster* for remote-open")
		traceOut = flag.String("trace-out", "", "run the program under a root span and write finished spans (JSON dump) here on exit")
		engine   = flag.String("engine", "", "execution engine: "+strings.Join(scheme.EngineNames(), "|")+" (default vm)")
		rconns   = flag.Int("remote-conns", 0, "fabric connections per remote peer (0/1 = single; keyed ops shard across the pool)")
		rbatch   = flag.Bool("remote-batch", false, "coalesce remote puts into BATCH frames (protocol v4 peers; older peers fall back per-op)")
	)
	flag.Parse()
	if *rconns > 1 || *rbatch {
		scheme.SetRemoteDialDefaults(sting.RemoteDialConfig{Conns: *rconns, Batch: *rbatch})
	}
	if *engine != "" {
		known := false
		for _, n := range scheme.EngineNames() {
			known = known || n == *engine
		}
		if !known {
			fmt.Fprintf(os.Stderr, "sting: unknown engine %q (have %s)\n",
				*engine, strings.Join(scheme.EngineNames(), ", "))
			os.Exit(2)
		}
	}

	m := sting.NewMachine(sting.MachineConfig{Processors: *procs})
	defer m.Shutdown()
	vm, err := m.NewVM(sting.VMConfig{Name: "sting-repl", VPs: *vps})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sting:", err)
		os.Exit(1)
	}
	in := scheme.New(vm, scheme.WithOutput(os.Stdout), scheme.WithEngine(*engine))
	var spanBuf *sting.SpanBuffer
	var rootSpan *sting.Span
	if *traceOut != "" {
		// The sink goes in after New so the prelude load stays untraced;
		// every toplevel form then evaluates under one root span, so remote
		// ops in scripts open client spans that stitch to server spans.
		spanBuf = sting.NewSpanBuffer(1 << 14)
		sting.SetSpanSink(spanBuf.Record)
		rootSpan = sting.StartSpan(sting.SpanContext{}, "sting/run", sting.SpanInternal)
		in.SetToplevelOptions(sting.WithSpanContext(rootSpan.Context()))
	}
	if *cluster != "" {
		// The remote prims parse the "cluster:" prefix; scripts just use
		// the pre-bound address: (remote-open *cluster* "jobs").
		in.Global().Define(scheme.Symbol("*cluster*"), scheme.NewSString("cluster:"+*cluster))
	}

	exit := func(code int) {
		if *stats {
			s := vm.Stats()
			fmt.Fprintf(os.Stderr,
				"; threads=%d determined=%d steals=%d switches=%d blocks=%d\n",
				s.ThreadsCreated, s.ThreadsDetermined, s.Steals,
				s.VPs.Switches, s.VPs.Blocks)
			compiled, _, ops := stingvm.Stats()
			fmt.Fprintf(os.Stderr, "; engine=%s compiled=%d ops=%d\n",
				in.EngineName(), compiled, ops)
		}
		m.Shutdown()
		if *traceOut != "" {
			rootSpan.End()
			if n, err := writeSpanDump(*traceOut, spanBuf); err != nil {
				fmt.Fprintln(os.Stderr, "sting: span dump:", err)
			} else {
				fmt.Fprintf(os.Stderr, "; dumped %d spans to %s\n", n, *traceOut)
			}
		}
		os.Exit(code)
	}

	if *expr != "" {
		v, err := in.EvalString(*expr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sting:", err)
			exit(1)
		}
		fmt.Println(scheme.WriteString(v))
		exit(0)
	}

	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sting:", err)
				exit(1)
			}
			if _, err := in.EvalString(string(src)); err != nil {
				fmt.Fprintf(os.Stderr, "sting: %s: %v\n", path, err)
				exit(1)
			}
		}
		exit(0)
	}

	repl(in)
	exit(0)
}

// writeSpanDump drains the span ring to path in the JSON dump format
// under the node name "sting" (scripts/tracecat merges it with the
// daemons' dumps), returning the span count.
func writeSpanDump(path string, buf *sting.SpanBuffer) (int, error) {
	drained := buf.Drain()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := sting.WriteSpansJSON(f, "sting", drained); err != nil {
		f.Close() //nolint:errcheck
		return 0, err
	}
	return len(drained), f.Close()
}

// repl reads balanced forms from stdin and prints their values.
func repl(in *scheme.Interp) {
	fmt.Println("STING Scheme (PLDI '92 reproduction) — ctrl-D to exit")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := "sting> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		pending.WriteString(sc.Text())
		pending.WriteByte('\n')
		src := pending.String()
		if !balanced(src) {
			prompt = "  ...> "
			continue
		}
		pending.Reset()
		prompt = "sting> "
		if strings.TrimSpace(src) == "" {
			continue
		}
		v, err := in.EvalString(src)
		if err != nil {
			fmt.Println("; error:", err)
			continue
		}
		if v != scheme.Unspecified {
			fmt.Println(scheme.WriteString(v))
		}
	}
}

// balanced reports whether every paren in src is closed (strings and
// comments respected well enough for a REPL).
func balanced(src string) bool {
	depth := 0
	inStr := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		}
	}
	return depth <= 0 && !inStr
}
