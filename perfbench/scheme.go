package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/tspace"
	_ "repro/internal/vm" // registers the bytecode VM, the default engine
)

// The Scheme workloads: one caller submits seeded jobs, one at a time, to
// one interpreter on a 2-PP/2-VP machine. An op is one EvalString of a
// job. Every procedure a job calls is defined at setup; the expected
// answer of every job is computed in Go.

// computeDefs are evaluation-bound procedures: the VM does most of the
// work and the substrate little.
const computeDefs = `
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (fib-rep n k)
  (let loop ((i 0) (acc 0)) (if (= i k) acc (loop (+ i 1) (+ acc (fib n))))))
(define (sum-squares n)
  (let loop ((i 0) (acc 0))
    (if (= i n) acc (loop (+ i 1) (+ acc (* i i))))))
(define (make-scaler k) (lambda (x) (* k x)))
(define (closure-sum n k) (apply + (map (make-scaler k) (iota n))))
(define (qq-run n)
  (define (sq x) (* x x))
  (let loop ((i 0) (acc 0))
    (if (= i n)
        acc
        (loop (+ i 1) (+ acc (length ` + "`" + `(,i ,@(map sq (iota (modulo i 7))) end)))))))
(define (fork-join n k)
  (let ((a (fork-thread (fib-rep n k) 0))
        (b (fork-thread (fib-rep (- n 1) k) 1)))
    (+ (thread-value a) (thread-value b))))
`

// coordDefs are coordination-bound procedures: they evaluate almost
// nothing, so parking, waking, switching, stealing, tuple matching and
// STM do the work.
const coordDefs = `
(define work (named-space "work"))
(define bank (named-space "bank"))
(define (pc tag n)
  (let ((p (fork-thread
             (let loop ((i 0))
               (when (< i n) (put work (list tag i)) (loop (+ i 1))))
             1)))
    (let loop ((i 0) (acc 0))
      (if (= i n)
          (begin (thread-wait p) acc)
          (loop (+ i 1) (+ acc (get work (,tag ?v) v)))))))
(define (farm-slave tag)
  (get work (,tag task ?k)
    (if (< k 0)
        'done
        (begin (put work (list tag 'result (* k k))) (farm-slave tag)))))
(define (farm tag n)
  (let ((s1 (fork-thread (farm-slave tag) 0))
        (s2 (fork-thread (farm-slave tag) 1)))
    (let deal ((k 1))
      (when (<= k n) (put work (list tag 'task k)) (deal (+ k 1))))
    (let collect ((i 0) (acc 0))
      (if (= i n)
          (begin (put work (list tag 'task -1))
                 (put work (list tag 'task -1))
                 (thread-wait s1)
                 (thread-wait s2)
                 acc)
          (collect (+ i 1) (+ acc (get work (,tag result ?r) r)))))))
(define (filter-prime n ps)
  (let ((lst (touch ps)))
    (let loop ((j lst))
      (cond ((null? j) (append lst (list n)))
            ((> (* (car j) (car j)) n) (append lst (list n)))
            ((zero? (modulo n (car j))) lst)
            (else (loop (cdr j)))))))
(define (primes limit)
  (let loop ((i 3) (ps (future (list 2))))
    (cond ((> i limit) (touch ps))
          (else (loop (+ i 2) (future (filter-prime i ps)))))))
(define (spin-sum n)
  (let loop ((i 0) (acc 0)) (if (= i n) acc (loop (+ i 1) (+ acc i)))))
(define (race n)
  (wait-for-one (fork-thread (spin-sum n) 0) (fork-thread (spin-sum n) 1)))
(define (barrier n)
  (let ((ts (map (lambda (k) (fork-thread (* k k) (modulo k 2))) (iota n))))
    (wait-for-all ts)
    (apply + (map thread-value ts))))
(define (transfer a b)
  (atomic
    (get bank (acct ,a ?x)
      (get bank (acct ,b ?y)
        (put bank (list 'acct a (- x 1)))
        (put bank (list 'acct b (+ y 1)))))))
(define (transfers a b c d m)
  (let ((t1 (fork-thread (let loop ((i 0)) (when (< i m) (transfer a b) (loop (+ i 1)))) 0))
        (t2 (fork-thread (let loop ((i 0)) (when (< i m) (transfer c d) (loop (+ i 1)))) 1)))
    (thread-wait t1)
    (thread-wait t2)
    (let loop ((i 0) (acc 0))
      (if (= i accounts) acc (loop (+ i 1) (+ acc (rd bank (acct ,i ?x) x)))))))
`

const (
	bankAccounts = 8
	bankOpening  = 1000
)

// job is one generated op: the source the interpreter evaluates and the
// printed answer Go computed for it.
type job struct {
	kind int
	src  string
	want string
}

type schemeJobs struct {
	kinds []string
	defs  string
	gen   func(c *caller, tag int) job
}

var computeJobs = schemeJobs{
	kinds: []string{"fib", "loop", "closure", "qq", "forkjoin"},
	defs:  computeDefs,
	gen: func(c *caller, _ int) job {
		switch k := c.rng.IntN(5); k {
		// Every kind's size is drawn from a wide range, so job times
		// spread smoothly and a latency quantile never sits in a gap
		// between a few discrete job sizes.
		case 0:
			n := 8 + c.rng.IntN(25)
			return job{k, fmt.Sprintf("(fib-rep 12 %d)", n), fmt.Sprint(int64(n) * fib(12))}
		case 1:
			n := 4000 + c.rng.IntN(4000)
			var s int64
			for i := int64(0); i < int64(n); i++ {
				s += i * i
			}
			return job{k, fmt.Sprintf("(sum-squares %d)", n), fmt.Sprint(s)}
		case 2:
			n, m := 300+c.rng.IntN(300), 2+c.rng.IntN(8)
			return job{k, fmt.Sprintf("(closure-sum %d %d)", n, m), fmt.Sprint(m * n * (n - 1) / 2)}
		case 3:
			// The job text quasiquotes too, so the toplevel form itself
			// exercises the engine's fallback path.
			n := 150 + c.rng.IntN(150)
			s := 0
			for i := 0; i < n; i++ {
				s += 2 + i%7
			}
			return job{k, fmt.Sprintf("(car `(,(qq-run %d) done))", n), fmt.Sprint(s)}
		default:
			n := 6 + c.rng.IntN(20)
			return job{k, fmt.Sprintf("(fork-join 12 %d)", n), fmt.Sprint(int64(n) * fib(13))}
		}
	},
}

var coordJobs = schemeJobs{
	kinds: []string{"pc", "farm", "primes", "race", "barrier", "atomic"},
	defs:  fmt.Sprintf("(define accounts %d)\n", bankAccounts) + coordDefs,
	gen: func(c *caller, tag int) job {
		switch k := c.rng.IntN(6); k {
		case 0:
			n := 20 + c.rng.IntN(40)
			return job{k, fmt.Sprintf("(pc %d %d)", tag, n), fmt.Sprint(n * (n - 1) / 2)}
		case 1:
			n := 10 + c.rng.IntN(30)
			s := 0
			for i := 1; i <= n; i++ {
				s += i * i
			}
			return job{k, fmt.Sprintf("(farm %d %d)", tag, n), fmt.Sprint(s)}
		case 2:
			n := 40 + c.rng.IntN(60)
			return job{k, fmt.Sprintf("(length (primes %d))", n), fmt.Sprint(countPrimes(n))}
		case 3:
			n := 10 + c.rng.IntN(40)
			return job{k, fmt.Sprintf("(race %d)", n), fmt.Sprint(n * (n - 1) / 2)}
		case 4:
			n := 4 + c.rng.IntN(12)
			s := 0
			for i := 0; i < n; i++ {
				s += i * i
			}
			return job{k, fmt.Sprintf("(barrier %d)", n), fmt.Sprint(s)}
		default:
			// Two threads transfer between account pairs that may overlap,
			// so commits can conflict and retry; the total is conserved.
			p := c.rng.Perm(bankAccounts)
			q := c.rng.Perm(bankAccounts)
			m := 5 + c.rng.IntN(10)
			return job{k, fmt.Sprintf("(transfers %d %d %d %d %d)", p[0], p[1], q[0], q[1], m),
				fmt.Sprint(bankAccounts * bankOpening)}
		}
	},
}

func fib(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func countPrimes(limit int) int {
	n := 0
	for i := 2; i <= limit; i++ {
		prime := true
		for d := 2; d*d <= i; d++ {
			if i%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			n++
		}
	}
	return n
}

// schemeWorkload is a booted interpreter ready for jobs.
type schemeWorkload struct {
	jobs      schemeJobs
	spans     []string // span name of each job kind
	m         *core.Machine
	vm        *core.VM
	in        *scheme.Interp
	compileMs float64
	tag       int
	bank      bool
}

func setupScheme(jobs schemeJobs, bank bool) func(cfg *config) (workload, error) {
	return func(cfg *config) (workload, error) {
		m := core.NewMachine(core.MachineConfig{Processors: 2})
		v, err := m.NewVM(core.VMConfig{Name: "scheme", VPs: 2})
		if err != nil {
			m.Shutdown()
			return nil, err
		}
		w := &schemeWorkload{jobs: jobs, m: m, vm: v, bank: bank}
		for _, k := range jobs.kinds {
			w.spans = append(w.spans, "scheme.job."+k)
		}
		w.in = scheme.New(v, scheme.WithOutput(io.Discard))
		t0 := time.Now()
		if _, err := w.in.EvalString(jobs.defs); err != nil {
			m.Shutdown()
			return nil, fmt.Errorf("setup definitions: %w", err)
		}
		w.compileMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		if bank {
			for i := 0; i < bankAccounts; i++ {
				if _, err := w.in.EvalString(fmt.Sprintf("(put bank (list 'acct %d %d))", i, bankOpening)); err != nil {
					m.Shutdown()
					return nil, fmt.Errorf("open account %d: %w", i, err)
				}
			}
		}
		return w, nil
	}
}

func (w *schemeWorkload) kinds() []string { return w.jobs.kinds }

func (w *schemeWorkload) op(c *caller) (int, error) {
	w.tag++
	j := w.jobs.gen(c, w.tag)
	c.kindNow.Store(int32(j.kind))
	t0 := time.Now()
	v, err := w.in.EvalString(j.src)
	c.span(w.spans[j.kind], t0)
	if err != nil {
		return j.kind, err
	}
	return j.kind, c.expect(j.src, scheme.WriteString(v), j.want)
}

// check verifies that the transfers conserved the bank's total and that
// no job left a tuple behind in the work space.
func (w *schemeWorkload) check() error {
	if !w.bank {
		return nil
	}
	if ts, ok := w.in.Spaces().Lookup("work"); ok && ts.Len() != 0 {
		return fmt.Errorf("work space holds %d stray tuples", ts.Len())
	}
	ts, ok := w.in.Spaces().Lookup("bank")
	if !ok {
		return fmt.Errorf("bank space missing")
	}
	total, n := int64(0), 0
	for _, tup := range passiveTuples(ts) {
		total += tup[2].(int64)
		n++
	}
	if n != bankAccounts || total != bankAccounts*bankOpening {
		return fmt.Errorf("bank holds %d accounts totalling %d, want %d totalling %d",
			n, total, bankAccounts, bankAccounts*bankOpening)
	}
	return nil
}

func passiveTuples(ts tspace.TupleSpace) []tspace.Tuple {
	if p, ok := ts.(interface{ PassiveTuples() []tspace.Tuple }); ok {
		return p.PassiveTuples()
	}
	return nil
}

func (w *schemeWorkload) counters() counters {
	var c counters
	c.addVMs(w.vm)
	c.addSpaces(w.in.Spaces())
	c.addEngine()
	c.addSTM()
	return c
}

func (w *schemeWorkload) dump(out io.Writer) {
	dumpVM(out, w.vm)
	fmt.Fprintf(out, "tuple spaces: %v\n", w.in.Spaces().Depths())
}

func (w *schemeWorkload) close() { w.m.Shutdown() }

// dumpVM writes a VM's root-group profile and scheduler counters.
func dumpVM(out io.Writer, v *core.VM) {
	p := v.RootGroup().Profile()
	fmt.Fprintf(out, "vm %s: root group created=%d determined=%d live=%d by-state=%v\n",
		v.Name(), p.Created, p.Determined, p.Live, p.ByState)
	fmt.Fprintf(out, "vm %s: VPStats %+v\n", v.Name(), v.Stats().VPs)
}
