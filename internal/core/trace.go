package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TraceKind classifies substrate events for the monitoring facilities the
// paper's programming-environment story calls for (debugging, profiling,
// observing the dynamic unfolding of computations).
type TraceKind int

// Trace event kinds.
const (
	TraceCreate TraceKind = iota
	TraceSchedule
	TraceDispatch
	TraceSteal
	TraceBlock
	TraceWake
	TracePreempt
	TraceYield
	TraceDetermine
	TraceTerminateReq
)

func (k TraceKind) String() string {
	switch k {
	case TraceCreate:
		return "create"
	case TraceSchedule:
		return "schedule"
	case TraceDispatch:
		return "dispatch"
	case TraceSteal:
		return "steal"
	case TraceBlock:
		return "block"
	case TraceWake:
		return "wake"
	case TracePreempt:
		return "preempt"
	case TraceYield:
		return "yield"
	case TraceDetermine:
		return "determine"
	case TraceTerminateReq:
		return "terminate-request"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one substrate occurrence.
type TraceEvent struct {
	At     time.Time
	Kind   TraceKind
	Thread uint64 // thread id, 0 when not applicable
	VP     int    // vp index, -1 when not applicable
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%s thread=%d vp=%d", e.Kind, e.Thread, e.VP)
}

// Tracer receives events; it runs on the emitting goroutine and must be
// brief and thread-safe.
type Tracer func(TraceEvent)

// traceHook is the machine-wide tracer; nil (the default) costs one atomic
// pointer load per event site.
var traceHook atomic.Pointer[Tracer]

// SetTracer installs the machine-wide tracer; nil disables tracing.
func SetTracer(t Tracer) {
	if t == nil {
		traceHook.Store(nil)
		return
	}
	traceHook.Store(&t)
}

// traceSpanEvents names the annotation each lifecycle kind adds to a
// traced thread's span; kinds without a name add none.
var traceSpanEvents = [TraceTerminateReq + 1]string{
	TraceSchedule: "scheduled",
	TraceDispatch: "evaluating",
	TraceSteal:    "stolen",
	TraceBlock:    "block",
	TraceWake:     "wake",
}

// lifecycle reports one transition of t on vp (nil when no VP applies) to
// t's span and to the machine-wide tracer. An untraced thread with no
// tracer installed pays one nil check and one atomic load.
func (t *Thread) lifecycle(kind TraceKind, vp *VP) {
	if t.span != nil {
		if name := traceSpanEvents[kind]; name != "" {
			t.span.Event(name)
		}
	}
	emit(kind, t.id, vpIndexOf(vp))
}

// emit reports an event to the installed tracer.
func emit(kind TraceKind, thread uint64, vp int) {
	if h := traceHook.Load(); h != nil {
		(*h)(TraceEvent{At: time.Now(), Kind: kind, Thread: thread, VP: vp})
	}
}

func vpIndexOf(vp *VP) int {
	if vp == nil {
		return -1
	}
	return vp.index
}

// TraceBuffer is a ready-made Tracer: a bounded, concurrent ring of recent
// events for post-mortem inspection, with the exact overflow accounting of
// obs.Ring.
type TraceBuffer struct {
	*obs.Ring[TraceEvent]
}

// NewTraceBuffer creates a ring holding the most recent n events.
func NewTraceBuffer(n int) *TraceBuffer {
	return &TraceBuffer{obs.NewRing[TraceEvent](n)}
}

// Events returns the buffered events, oldest first.
func (b *TraceBuffer) Events() []TraceEvent { return b.Snapshot() }
