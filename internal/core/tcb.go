package core

import (
	"errors"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/storage"
)

// park states for the grant-token protocol between a TCB's backing
// goroutine and the VP schedulers.
const (
	pRunning     int32 = iota // the thread holds a VP's grant token
	pWakePending              // a wake arrived while the thread was running
	pParked                   // the thread announced it is giving up its VP
	pCached                   // the TCB is unbound, parked in a VP's cache
)

// TCB is the dynamic context of an evaluating thread: its stack and heap
// areas, preemption state, wait-count for group blocking, and the virtual
// processor currently hosting it. TCBs — including their storage areas and
// backing goroutine — are cached on VPs and recycled for immediate reuse
// when a thread terminates, which keeps thread startup cheap and the
// storage in the processor's working set.
type TCB struct {
	thread atomic.Pointer[Thread] // bound thread; nil when cached
	vp     atomic.Pointer[VP]     // VP currently hosting the thread
	homeVP *VP                    // VP whose cache owns this TCB

	areas *storage.AreaPair

	// resume carries the grant token: a VP sends itself to hand the CPU to
	// this TCB's goroutine. Capacity 1 decouples deposit from consumption.
	resume chan *VP

	park atomic.Int32 // pRunning/pWakePending/pParked/pCached
	exec atomic.Int32 // ExecState, diagnostic

	// wait packs the current wait generation (high 32 bits) with the
	// signed outstanding count (low 32); see blockgroup.go.
	wait atomic.Uint64

	// preemption machinery: pending is set by the VP's quantum timer and
	// honoured at the next Poll; noPreempt implements without-preemption,
	// deferred records a preemption that arrived while disabled (the
	// paper's second TCB bit).
	preemptPending  atomic.Bool
	asyncReq        atomic.Bool // a thread on this TCB has a pending request
	quantumEnd      int64       // grant deadline in UnixNano; 0 = no quantum.
	noPreempt       int32       // owner-only
	deferred        bool        // owner-only
	noInterrupt     int32       // owner-only; without-interrupts depth
	resumeRequested atomic.Bool

	// stolen is the stack of threads whose thunks this TCB is running
	// inline due to stealing; owner-only.
	stolen []*Thread

	fluid   *FluidEnv       // current dynamic environment; owner-only
	spanCtx obs.SpanContext // current trace context; owner-only, like fluid

	polls    uint64 // owner-only TC-entry counter
	steps    uint64 // owner-only safepoint counter; see Context.Safepoint
	preempts uint64 // owner-only preemptions taken

	dead bool // backing goroutine gone (runtime.Goexit); never recycle
}

// errGoexit marks threads whose goroutine was torn down from under them.
var errGoexit = errors.New("core: thread goroutine exited without determining")

func newTCB(home *VP, stackBytes, heapBytes uint64) *TCB {
	tcb := &TCB{
		homeVP: home,
		areas:  storage.NewAreaPair(stackBytes, heapBytes),
		resume: make(chan *VP, 1),
	}
	tcb.park.Store(pCached)
	go tcb.loop()
	return tcb
}

// Exec returns the TCB's execution status.
func (tcb *TCB) Exec() ExecState { return ExecState(tcb.exec.Load()) }

// VP returns the virtual processor currently hosting the thread.
func (tcb *TCB) VP() *VP { return tcb.vp.Load() }

// Thread returns the thread bound to this TCB (nil when cached).
func (tcb *TCB) Thread() *Thread { return tcb.thread.Load() }

// Areas returns the stack/heap pair backing the thread's private storage.
func (tcb *TCB) Areas() *storage.AreaPair { return tcb.areas }

// Polls returns the number of thread-controller entries this TCB has made;
// preemption and transition requests are honoured at these points. Both
// execution engines — the tree-walker and the bytecode VM — drive this
// counter through Context.Safepoint, which polls once every 256 steps of
// the running thread, so the two produce the same poll density for the
// same program.
func (tcb *TCB) Polls() uint64 { return tcb.polls }

// Preempts returns the number of preemptions this TCB has taken at its safe
// points. Engine-alignment tests use it to assert quantum expiry actually
// lands under whichever evaluator is running.
func (tcb *TCB) Preempts() uint64 { return tcb.preempts }

// PreemptPending reports whether a quantum expiry is recorded but not yet
// honoured — it clears at the next safe point outside without-preemption.
func (tcb *TCB) PreemptPending() bool { return tcb.preemptPending.Load() }

// loop is the TCB's backing goroutine: it repeatedly waits to be bound to a
// thread, runs the thread's thunk to completion, and returns itself to its
// home VP's cache. A nil grant poisons the goroutine at machine shutdown.
func (tcb *TCB) loop() {
	defer func() {
		// A runtime.Goexit escaping the thunk (e.g. t.Fatalf inside a test
		// thread) would otherwise strand the thread undetermined and its
		// host VP waiting forever. Determine the thread, mark the TCB dead
		// so it is never recycled, and release the VP.
		if tcb.park.Load() == pCached {
			return // normal exit (machine shutdown poison)
		}
		tcb.dead = true
		if t := tcb.thread.Load(); t != nil && !t.Determined() {
			t.determine(nil, errGoexit)
		}
		tcb.exec.Store(int32(ExecDone))
		tcb.park.Store(pCached)
		if host := tcb.vp.Load(); host != nil {
			host.yield <- yieldMsg{tcb: tcb, reason: yieldDone}
		}
	}()
	for {
		vp := <-tcb.resume
		if vp == nil {
			return // machine shut down
		}
		tcb.vp.Store(vp)
		tcb.park.Store(pRunning)
		tcb.exec.Store(int32(ExecRunning))
		t := tcb.thread.Load()
		ctx := &Context{tcb: tcb}
		tcb.fluid = t.fluid
		tcb.spanCtx = t.spanCtx
		tcb.stolen = tcb.stolen[:0]
		values, err := runThunk(t, ctx)
		t.determine(values, err)
		tcb.exec.Store(int32(ExecDone))
		tcb.park.Store(pCached)
		host := tcb.vp.Load()
		host.yield <- yieldMsg{tcb: tcb, reason: yieldDone}
	}
}

// runThunk applies the thread's thunk, converting a termination request or a
// stray panic into the thread's error result. Panics in user code become
// thread errors — they cross the thread boundary as exceptions, not as
// crashes of the whole machine.
func runThunk(t *Thread, ctx *Context) (values []Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ex, ok := r.(threadExitPanic); ok {
				// A terminate aimed at this thread (or, collaterally, one
				// aimed at a thread it was evaluating for) unwinds here.
				values, err = ex.values, ErrTerminated
				return
			}
			values, err = nil, &PanicError{Value: r}
		}
	}()
	return t.thunk(ctx)
}

// parkWait gives up the VP until a waker reschedules this TCB. It must be
// called inside a condition loop: a wake that arrived just before parking
// makes parkWait return immediately without yielding (the pending-wake fast
// path), so the caller re-checks its condition.
func (tcb *TCB) parkWait(st ExecState) {
	if !tcb.park.CompareAndSwap(pRunning, pParked) {
		// A wake raced in; consume it and keep running.
		tcb.park.Store(pRunning)
		return
	}
	tcb.exec.Store(int32(st))
	host := tcb.vp.Load()
	host.yield <- yieldMsg{tcb: tcb, reason: yieldParked}
	vp := <-tcb.resume
	tcb.vp.Store(vp)
	tcb.exec.Store(int32(ExecRunning))
}

// yieldTo re-enqueues the TCB (self-wake) and hands the VP back; used by
// yield-processor and preemption. Unlike parkWait it never loses the CPU
// grant that its own enqueue produces, so the park state stays pRunning and
// concurrent wakes degrade to harmless pending flags.
func (tcb *TCB) yieldTo(st EnqueueState) {
	host := tcb.vp.Load()
	tcb.exec.Store(int32(ExecReady))
	host.pm.EnqueueThread(host, tcb, st)
	host.NotifyWork()
	host.yield <- yieldMsg{tcb: tcb, reason: yieldParked}
	vp := <-tcb.resume
	tcb.vp.Store(vp)
	tcb.exec.Store(int32(ExecRunning))
}

// ThreadSpanEvent annotates the span of the thread bound to this TCB —
// the hook synchronization structures (tuple-space wakeups, baton
// handoffs) use to mark their decisions on the woken thread's trace. A
// no-op for untraced or unbound TCBs.
func (tcb *TCB) ThreadSpanEvent(name string) {
	if t := tcb.thread.Load(); t != nil {
		t.span.Event(name)
	}
}

// wakeTCB reschedules a parked TCB, or leaves a pending-wake mark if its
// thread is still running. Exactly one enqueue is produced per actual park.
func wakeTCB(tcb *TCB, st EnqueueState) {
	for {
		switch tcb.park.Load() {
		case pParked:
			if tcb.park.CompareAndSwap(pParked, pRunning) {
				vp := tcb.vp.Load()
				tcb.exec.Store(int32(ExecReady))
				if t := tcb.thread.Load(); t != nil {
					t.lifecycle(TraceWake, vp)
				}
				vp.pm.EnqueueThread(vp, tcb, st)
				vp.NotifyWork()
				return
			}
		case pRunning:
			if tcb.park.CompareAndSwap(pRunning, pWakePending) {
				return
			}
		case pWakePending, pCached:
			return
		}
	}
}
