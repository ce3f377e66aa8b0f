package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is what one run of the benchmark was asked to do.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// injectWrong, when > 0, corrupts the expected answer of every
	// injectWrong-th op of each caller, so tests can show that the answer
	// checks fire.
	injectWrong int
	// spansOut, when set, names a file the spans of a traced run are
	// written to.
	spansOut string

	// tracingNow is set while the timed phase runs a traced slice; code
	// the benchmark runs inside the program (echo threads) reads it.
	tracingNow atomic.Bool
}

// Limits of one op and one run. An op slower than opDeadline counts as
// failed; an op still running after stallLimit means the run cannot
// finish, and the watchdog dumps the system state and exits non-zero.
const (
	opDeadline  = 2 * time.Second
	stallLimit  = 20 * time.Second
	setupRepeat = 9
	traceSlice  = 250 * time.Millisecond
	sampleEvery = 50 * time.Millisecond
)

// errLate marks an op that returned after its deadline.
var errLate = errors.New("op exceeded its deadline")

// wrongAnswer is an op that completed but returned the wrong result.
type wrongAnswer struct {
	what      string
	got, want any
}

func (e *wrongAnswer) Error() string {
	return fmt.Sprintf("wrong answer from %s: got %v, want %v", e.what, e.got, e.want)
}

// workload is one booted instance of a benchmark workload: the machines,
// servers and clients its ops run against.
type workload interface {
	// kinds names the op kinds; op answers an index into it.
	kinds() []string
	// op runs one seeded op on behalf of c and reports its kind.
	op(c *caller) (kind int, err error)
	// check verifies the run-wide invariants once every caller stopped.
	check() error
	// counters snapshots the layer counters the program exports.
	counters() counters
	// dump writes the state a stalled run is diagnosed from.
	dump(w io.Writer)
	close()
}

// workloadSpec boots a workload.
type workloadSpec struct {
	name    string
	callers int
	setup   func(cfg *config) (workload, error)
}

// caller is one closed-loop client: it issues its next op only after the
// previous one returned. Everything but start and kindNow is owned by the
// caller's goroutine.
type caller struct {
	id          int
	rng         *rand.Rand
	injectWrong int

	lat      hist // every op
	attempts uint64
	failed   uint64
	wrong    uint64
	firstErr error

	// Ops split by whether they ran traced (traced runs alternate).
	opsPlain, opsTraced uint64

	traced bool
	spans  *spanLog
	// phaseStart and win bucket each op's latency by the half-second
	// window of the timed phase it started in.
	phaseStart time.Time
	win        []hist
	// opLatency, when an op sets it, overrides the op's measured latency:
	// a windowed op completes a request issued by an earlier call.
	opLatency time.Duration

	start   atomic.Int64 // unix ns when the op in progress began; 0 when idle
	kindNow atomic.Int32 // kind of the op in progress
}

func newCaller(id int, seed uint64, cfg *config) *caller {
	return &caller{
		id:          id,
		rng:         rand.New(rand.NewPCG(seed, uint64(id)+1)),
		injectWrong: cfg.injectWrong,
		spans:       newSpanLog(1 << 17),
	}
}

// expect compares an op's answer with the one computed in Go. Answers
// are int64s or printed Scheme values.
func (c *caller) expect(what string, got, want any) error {
	if c.injectWrong > 0 && (c.attempts+1)%uint64(c.injectWrong) == 0 {
		want = fmt.Sprintf("%v (injected)", want)
	}
	if got != want {
		return &wrongAnswer{what: what, got: got, want: want}
	}
	return nil
}

// span records a layer call that began at t0, when the op runs traced.
func (c *caller) span(name string, t0 time.Time) {
	if c.traced {
		c.spans.child(name, t0, time.Now())
	}
}

// runOnce issues one op and accounts for it.
func (c *caller) runOnce(w workload, traced bool) {
	c.traced = traced
	c.opLatency = 0
	t0 := time.Now()
	c.start.Store(t0.UnixNano())
	if traced {
		c.spans.openRoot(t0)
	}
	kind, err := w.op(c)
	d := time.Since(t0)
	c.start.Store(0)
	if traced {
		c.spans.closeRoot("op."+w.kinds()[kind], t0.Add(d))
	}
	if c.opLatency > 0 {
		d = c.opLatency
	}
	if err == nil && d > opDeadline {
		err = errLate
	}
	c.attempts++
	if traced {
		c.opsTraced++
	} else {
		c.opsPlain++
	}
	c.lat.add(d.Nanoseconds())
	c.win[min(int(t0.Sub(c.phaseStart)/windowLen), len(c.win)-1)].add(d.Nanoseconds())
	if err != nil {
		c.failed++
		var wa *wrongAnswer
		if errors.As(err, &wa) {
			c.wrong++
		}
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s: %w", w.kinds()[kind], err)
		}
	}
}

// spanLog keeps the spans of traced ops in memory: each op is a root span
// and the calls it makes into the program's layers are its children.
// Durations also feed one histogram per span name, so the per-layer
// figures cover every span even when the bounded log overflows; spans
// past the log's capacity are counted as dropped.
type spanLog struct {
	recs    []spanRec
	root    int
	dropped uint64
	byName  map[string]*hist
}

type spanRec struct {
	name       string
	parent     int32
	start, end int64
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{recs: make([]spanRec, 0, capacity), root: -1, byName: map[string]*hist{}}
}

func (l *spanLog) observe(name string, d time.Duration) {
	h := l.byName[name]
	if h == nil {
		h = &hist{}
		l.byName[name] = h
	}
	h.add(d.Nanoseconds())
}

func (l *spanLog) append(r spanRec) int {
	if len(l.recs) == cap(l.recs) {
		l.dropped++
		return -1
	}
	l.recs = append(l.recs, r)
	return len(l.recs) - 1
}

func (l *spanLog) openRoot(t0 time.Time) {
	l.root = l.append(spanRec{parent: -1, start: t0.UnixNano()})
}

func (l *spanLog) closeRoot(name string, end time.Time) {
	if l.root >= 0 {
		r := &l.recs[l.root]
		r.name, r.end = name, end.UnixNano()
		l.observe(name, time.Duration(r.end-r.start))
	}
	l.root = -1
}

func (l *spanLog) child(name string, t0, t1 time.Time) {
	l.append(spanRec{name: name, parent: int32(l.root), start: t0.UnixNano(), end: t1.UnixNano()})
	l.observe(name, t1.Sub(t0))
}

// writeSpans writes every caller's span log to path, one JSON object a
// line, with times in nanoseconds from the start of the timed phase.
func writeSpans(path string, cs []*caller) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, c := range cs {
		base := c.phaseStart.UnixNano()
		for i, r := range c.spans.recs {
			if err := enc.Encode(map[string]any{
				"caller": c.id, "id": i, "parent": r.parent, "name": r.name,
				"start_ns": r.start - base, "end_ns": r.end - base,
			}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanQuantile merges the callers' histograms for one span name.
func spanQuantile(cs []*caller, name string, q float64) float64 {
	var h hist
	for _, c := range cs {
		if x := c.spans.byName[name]; x != nil {
			h.merge(x)
		}
	}
	return h.quantile(q)
}

// runtimeSample reads the Go runtime metrics the benchmark reports.
type runtimeSample struct {
	allocBytes, gcCycles, liveHeap uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{allocBytes: u(0), gcCycles: u(1), liveHeap: u(2)}
}

// cpuTime answers the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak in-use heap while the timed phase runs: the
// heap the latest collection found live, which follows the program's
// retained memory without the sawtooth of garbage awaiting collection.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	if v := readRuntime().liveHeap; v > h.peak.Load() {
		h.peak.Store(v)
	}
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	h.sample()
	return h.peak.Load()
}

// watchdog turns a hang into a diagnosable failure: an op in progress for
// longer than stallLimit makes it dump the workload's state, every
// in-flight op and all goroutine stacks to stderr, then exit with code 3.
type watchdog struct {
	callers []*caller
	w       workload
	stop    chan struct{}
	done    chan struct{}
}

func startWatchdog(w workload, cs []*caller) *watchdog {
	d := &watchdog{callers: cs, w: w, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case now := <-t.C:
				for _, c := range cs {
					if s := c.start.Load(); s != 0 && now.UnixNano()-s > int64(stallLimit) {
						stallExit(w, cs, fmt.Sprintf("caller %d: op running for %v", c.id, time.Duration(now.UnixNano()-s)))
					}
				}
			}
		}
	}()
	return d
}

func (d *watchdog) halt() {
	close(d.stop)
	<-d.done
}

var stallOnce sync.Once

// stallExit writes the stall dump and ends the process.
func stallExit(w workload, cs []*caller, reason string) {
	stallOnce.Do(func() {
		out := os.Stderr
		fmt.Fprintf(out, "perfbench: STALL: %s\n", reason)
		now := time.Now().UnixNano()
		for _, c := range cs {
			if s := c.start.Load(); s != 0 {
				fmt.Fprintf(out, "  caller %d in flight: kind=%s age=%v\n", c.id,
					w.kinds()[c.kindNow.Load()], time.Duration(now-s))
			}
			fmt.Fprintf(out, "  caller %d: attempted=%d failed=%d\n", c.id, c.attempts, c.failed)
		}
		w.dump(out)
		fmt.Fprintln(out, "goroutines:")
		_ = pprof.Lookup("goroutine").WriteTo(out, 1) // best effort: the process exits next
		os.Exit(3)
	})
}

// phaseResult is what the timed phase measured.
type phaseResult struct {
	elapsed       time.Duration
	plainTime     time.Duration // time spent in untraced slices
	tracedTime    time.Duration
	windows       []window // the phase's full half-second windows
	peakHeap      uint64
	before, after counters
	rtBefore      runtimeSample
	rtAfter       runtimeSample
}

// window is half a second of the timed phase: the end-to-end metrics are
// medians over windows, so a short disturbance moves one window, not the
// run's figure.
type window struct {
	dur time.Duration
	cpu time.Duration
	lat hist // ops that started in the window
}

const (
	windowLen       = 500 * time.Millisecond
	slicesPerWindow = int(windowLen / traceSlice)
)

// runPhase drives every caller in a closed loop for cfg.seconds. A traced
// run alternates untraced and traced slices, so both see the same state of
// the system and the difference between them is the tracing overhead.
func runPhase(cfg *config, w workload, cs []*caller) phaseResult {
	var stop atomic.Bool
	tracing := &cfg.tracingNow
	var wg sync.WaitGroup
	length := time.Duration(cfg.seconds * float64(time.Second))
	nwin := int(length / windowLen)
	// Every run enters the timed phase with the set-ups' garbage collected,
	// so the collector's first cycles fall alike from run to run.
	runtime.GC()
	dog := startWatchdog(w, cs)
	res := phaseResult{before: w.counters(), rtBefore: readRuntime()}
	heap := startHeapSampler()
	t0 := time.Now()
	for _, c := range cs {
		c.phaseStart = t0
		c.win = make([]hist, nwin+1)
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for !stop.Load() {
				c.runOnce(w, tracing.Load())
			}
		}(c)
	}
	end := t0.Add(length)
	winStart, winCPU := t0, cpuTime()
	sliceStart := t0
	for k := 1; ; k++ {
		next := t0.Add(time.Duration(k) * traceSlice)
		if next.After(end) {
			next = end
		}
		time.Sleep(time.Until(next))
		now := time.Now()
		if cfg.traced {
			if tracing.Load() {
				res.tracedTime += now.Sub(sliceStart)
			} else {
				res.plainTime += now.Sub(sliceStart)
			}
			tracing.Store(!tracing.Load())
			sliceStart = now
		}
		if len(res.windows) < nwin && k%slicesPerWindow == 0 {
			cpu := cpuTime()
			res.windows = append(res.windows, window{dur: now.Sub(winStart), cpu: cpu - winCPU})
			winStart, winCPU = now, cpu
		}
		if !next.Before(end) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	res.elapsed = time.Since(t0)
	if !cfg.traced {
		res.plainTime = res.elapsed
	}
	if nwin == 0 {
		// A phase shorter than a window is measured as one window.
		res.windows = []window{{dur: res.elapsed, cpu: cpuTime() - winCPU}}
		nwin = 1
	}
	for i := range res.windows {
		for _, c := range cs {
			res.windows[i].lat.merge(&c.win[i])
		}
	}
	res.peakHeap = heap.finish()
	dog.halt()
	res.after = w.counters()
	res.rtAfter = readRuntime()
	return res
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
