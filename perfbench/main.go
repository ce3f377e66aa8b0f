// Command perfbench is the repository's benchmark. It runs one workload
// against the public APIs of the Scheme system, the remote fabric and the
// substrate, checks every answer, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	perfbench --workload fabric-rpc --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, timed by the client
// with tracing off. With --trace 1 it alternates untraced and traced
// slices of the same run, records spans around its own calls into each
// layer, reads the counters the program exports, times the layer probes,
// and reports the per-layer metrics. Workloads are listed in workloads
// below; see README.md for what each one stresses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"time"
)

var workloads = []workloadSpec{
	{name: "scheme-compute", callers: 1, setup: setupScheme(computeJobs, false)},
	{name: "scheme-coord", callers: 1, setup: setupScheme(coordJobs, true)},
	{name: "fabric-rpc", callers: rpcCallers, setup: setupRPC},
	{name: "fabric-puts", callers: 1, setup: setupPuts},
}

// runLimit bounds a whole run; past it the process dumps and exits.
const runLimit = 170 * time.Second

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed for the op mix, keys, job order and sizes")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	inject := fs.Int("inject-wrong", 0, "corrupt every n-th expected answer (for tests)")
	spansOut := fs.String("spans-out", "", "write the traced run's spans to this file, one JSON object a line")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return nil, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if findSpec(*name) == nil {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	return &config{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		injectWrong: *inject, spansOut: *spansOut}, nil
}

func findSpec(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up setupRepeat times (keeping the last instance),
// drives it for the timed phase, checks it, and assembles the result.
// Problems that make the figures meaningless are errors; wrong answers
// and broken invariants make the result incorrect and are logged to log.
func run(cfg *config, log io.Writer) (*result, error) {
	spec := findSpec(cfg.workload)
	stats := &runStats{}
	// The run limit's timer reads the instance under test from its own
	// goroutine.
	var mu sync.Mutex
	var w workload
	limit := time.AfterFunc(runLimit, func() {
		mu.Lock()
		inst, cs := w, stats.callers
		mu.Unlock()
		if inst != nil {
			stallExit(inst, cs, fmt.Sprintf("run exceeded %v", runLimit))
		}
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v during setup\n", runLimit)
		os.Exit(3)
	})
	defer limit.Stop()
	var last workload
	for i := 0; i < setupRepeat; i++ {
		// Each set-up starts from a collected heap, so a collection the
		// previous one left due does not land in its time.
		runtime.GC()
		t0 := time.Now()
		inst, err := spec.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		stats.setups = append(stats.setups, time.Since(t0).Seconds())
		if sw, ok := inst.(*schemeWorkload); ok {
			stats.compileMs = append(stats.compileMs, sw.compileMs)
		}
		if i < setupRepeat-1 {
			inst.close()
		} else {
			last = inst
		}
	}
	var cs []*caller
	for i := 0; i < spec.callers; i++ {
		cs = append(cs, newCaller(i, cfg.seed, cfg))
	}
	mu.Lock()
	w, stats.callers = last, cs
	mu.Unlock()
	stats.phase = runPhase(cfg, last, cs)
	checkErr := last.check()
	if cfg.traced {
		stats.liveHeap = finalLiveHeap()
		if rw, ok := last.(*rpcWorkload); ok {
			stats.echo = rw.echoTurnaround()
		}
	}
	last.close()
	if cfg.spansOut != "" {
		if err := writeSpans(cfg.spansOut, cs); err != nil {
			return nil, err
		}
	}

	attempted, failed, wrong, _, _, _ := stats.totals()
	res := &result{Correct: wrong == 0 && checkErr == nil, Attempted: attempted, Failed: failed}
	if checkErr != nil {
		fmt.Fprintf(log, "perfbench: %s: invariant broken: %v\n", cfg.workload, checkErr)
	}
	for _, c := range cs {
		if c.firstErr != nil {
			fmt.Fprintf(log, "perfbench: %s: caller %d: %d of %d ops failed; first: %v\n",
				cfg.workload, c.id, c.failed, c.attempts, c.firstErr)
		}
	}
	if attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed", cfg.workload)
	}

	defs, values := endToEnd, map[string]float64(nil)
	if cfg.traced {
		if err := runProbes(cfg, stats); err != nil {
			return nil, err
		}
		defs, values = perLayer, stats.perLayerMetrics()
	} else {
		values = stats.endToEndMetrics()
	}
	res.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// Probe sizes: iterations per repeat.
const (
	fig6Iters  = 2000
	codecIters = 20000
	frameIters = 2000
)

func runProbes(cfg *config, stats *runStats) error {
	var err error
	if stats.fig6, err = probeFig6(fig6Iters); err != nil {
		return err
	}
	if stats.codecEnc, stats.codecDec, err = probeCodec(cfg.workload, codecIters); err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	if stats.frameRTT, err = probeFrameRTT(frameIters); err != nil {
		return fmt.Errorf("frame probe: %w", err)
	}
	return nil
}
