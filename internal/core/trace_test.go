package core

import (
	"sync"
	"testing"
)

// Count tallies the buffered events by kind.
func (b *TraceBuffer) Count() map[TraceKind]int {
	out := make(map[TraceKind]int)
	for _, e := range b.Events() {
		out[e.Kind]++
	}
	return out
}

func TestTracerCapturesLifecycle(t *testing.T) {
	buf := NewTraceBuffer(4096)
	SetTracer(buf.Record)
	defer SetTracer(nil)

	vm := testVM(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		lazy := ctx.CreateThread(func(*Context) ([]Value, error) { return one(1), nil })
		ctx.Wait(lazy) // steal
		forked := ctx.Fork(func(c *Context) ([]Value, error) {
			c.Yield()
			return one(2), nil
		}, nil, WithStealable(false))
		ctx.Wait(forked) // block + wake
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := buf.Count()
	for _, kind := range []TraceKind{
		TraceCreate, TraceSchedule, TraceDispatch, TraceSteal,
		TraceYield, TraceDetermine,
	} {
		if counts[kind] == 0 {
			t.Errorf("no %v events captured (counts %v)", kind, counts)
		}
	}
}

func TestTraceBufferRing(t *testing.T) {
	buf := NewTraceBuffer(4)
	for i := 0; i < 10; i++ {
		buf.Record(TraceEvent{Kind: TraceYield, Thread: uint64(i)})
	}
	ev := buf.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d", len(ev))
	}
	// Oldest-first: threads 6,7,8,9.
	for i, e := range ev {
		if e.Thread != uint64(6+i) {
			t.Fatalf("events %v", ev)
		}
	}
}

func TestTracerDisabledIsDefault(t *testing.T) {
	// With no tracer the emit sites must be inert (this is implicitly a
	// benchmark-safety check: nil hook, no events, no panic).
	SetTracer(nil)
	vm := testVM(t, 1, 1)
	if _, err := vm.Run(func(ctx *Context) ([]Value, error) {
		ctx.Yield()
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceBufferOverflowAccounting(t *testing.T) {
	const n = 64
	buf := NewTraceBuffer(n)
	for i := 0; i < 2*n; i++ {
		buf.Record(TraceEvent{Kind: TraceYield, Thread: uint64(i)})
	}
	st := buf.Stats()
	if st.Recorded != 2*n {
		t.Fatalf("Recorded = %d, want %d", st.Recorded, 2*n)
	}
	if st.Dropped != n {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, n)
	}
	ev := buf.Events()
	if uint64(len(ev))+st.Dropped != st.Recorded {
		t.Fatalf("accounting broken: retained %d + dropped %d != recorded %d",
			len(ev), st.Dropped, st.Recorded)
	}
	// The survivors are exactly the newest n, oldest first.
	for i, e := range ev {
		if e.Thread != uint64(n+i) {
			t.Fatalf("event %d thread = %d, want %d", i, e.Thread, n+i)
		}
	}
	// Drain empties the ring but the cumulative totals survive.
	if got := len(buf.Drain()); got != n {
		t.Fatalf("Drain returned %d events, want %d", got, n)
	}
	if len(buf.Events()) != 0 {
		t.Fatal("ring not empty after Drain")
	}
	if st := buf.Stats(); st.Recorded != 2*n || st.Dropped != n {
		t.Fatalf("totals reset by Drain: recorded %d dropped %d", st.Recorded, st.Dropped)
	}
	// Refill past capacity: drop accounting restarts cleanly.
	for i := 0; i < n+5; i++ {
		buf.Record(TraceEvent{Kind: TraceYield, Thread: uint64(i)})
	}
	if got := buf.Stats().Dropped; got != n+5 {
		t.Fatalf("Dropped after refill = %d, want %d", got, n+5)
	}
}

// TestTraceBufferConcurrentEmitDrain hammers the ring from several emitters
// while a drainer races it, then checks two invariants: events are never
// torn (each event's fields stay mutually consistent), and every recorded
// event is either drained exactly once or counted dropped — the totals
// balance to the unit.
func TestTraceBufferConcurrentEmitDrain(t *testing.T) {
	const (
		writers = 8
		events  = 4000
		ring    = 256
	)
	buf := NewTraceBuffer(ring)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < events; seq++ {
				// Fields are derived from one another so a torn read/write
				// is detectable: Kind and VP must match the Thread payload.
				buf.Record(TraceEvent{
					Kind:   TraceKind(seq % 10),
					Thread: uint64(w)<<32 | uint64(seq),
					VP:     w,
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	lastSeq := make([]int, writers) // highest seq drained per writer, -1 none
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	var drained uint64
	check := func(batch []TraceEvent) {
		for _, e := range batch {
			w := int(e.Thread >> 32)
			seq := int(e.Thread & 0xffffffff)
			if w < 0 || w >= writers {
				t.Fatalf("torn event: writer %d out of range (%+v)", w, e)
			}
			if e.VP != w || e.Kind != TraceKind(seq%10) {
				t.Fatalf("torn event: fields disagree (%+v, want vp=%d kind=%d)", e, w, seq%10)
			}
			if seq <= lastSeq[w] {
				t.Fatalf("writer %d seq %d drained after %d: order violated", w, seq, lastSeq[w])
			}
			lastSeq[w] = seq
		}
		drained += uint64(len(batch))
	}
	for {
		select {
		case <-done:
			check(buf.Drain()) // final sweep after all writers stopped
			want := uint64(writers * events)
			st := buf.Stats()
			if st.Recorded != want {
				t.Fatalf("Recorded = %d, want %d", st.Recorded, want)
			}
			if drained+st.Dropped != want {
				t.Fatalf("accounting broken: drained %d + dropped %d != recorded %d",
					drained, st.Dropped, want)
			}
			return
		default:
			check(buf.Drain())
		}
	}
}

func TestTraceKindStrings(t *testing.T) {
	for k := TraceCreate; k <= TraceTerminateReq; k++ {
		if s := k.String(); s == "" || s[0] == 'T' {
			t.Errorf("kind %d stringer = %q", int(k), s)
		}
	}
}
