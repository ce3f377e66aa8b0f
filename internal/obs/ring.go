package obs

import "sync"

// Ring is the bounded event log behind every event collector in the
// system: the core trace ring, the span ring and the flight recorder. It
// holds the most recent Cap() values behind one mutex and returns them
// oldest first. Overflow overwrites the oldest value, and the accounting
// is exact at every instant a reader can observe:
//
//	Recorded == Drained + Retained + Dropped
//
// A slot is zeroed when it is drained or overwritten, so a ring of
// pointers releases what it hands out. Record does not allocate.
//
// One mutex rather than lock-free slot claiming: a writer that has claimed
// a slot but not yet stored into it would let a concurrent Drain take that
// writer's next value first, breaking per-writer order.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	head  int // slot of the oldest retained value
	stats RingStats
}

// RingStats is one consistent reading of a ring's accounting.
type RingStats struct {
	Recorded uint64 // values ever recorded
	Drained  uint64 // values removed by Drain
	Retained uint64 // values held now
	Dropped  uint64 // oldest values overwritten by overflow
}

// NewRing creates a ring holding the most recent n values (1024 when n <= 0).
func NewRing[T any](n int) *Ring[T] {
	if n <= 0 {
		n = 1024
	}
	return &Ring[T]{buf: make([]T, n)}
}

// Record appends v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Record(v T) {
	r.mu.Lock()
	r.buf[r.slot(int(r.stats.Retained))] = v
	r.stats.Recorded++
	if r.stats.Retained == uint64(len(r.buf)) {
		r.stats.Dropped++
		r.head = r.slot(1)
	} else {
		r.stats.Retained++
	}
	r.mu.Unlock()
}

// slot maps the k-th retained position (0 = oldest) to a buffer index.
func (r *Ring[T]) slot(k int) int {
	i := r.head + k
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// Snapshot returns the retained values, oldest first, leaving them in place.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.copyOut()
}

// Drain removes and returns the retained values, oldest first. The
// cumulative totals survive the drain.
func (r *Ring[T]) Drain() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.copyOut()
	clear(r.buf)
	r.stats.Drained += r.stats.Retained
	r.stats.Retained = 0
	return out
}

func (r *Ring[T]) copyOut() []T {
	out := make([]T, r.stats.Retained)
	k := copy(out, r.buf[r.head:])
	copy(out[k:], r.buf)
	return out
}

// Stats reads the ring's accounting under its lock.
func (r *Ring[T]) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }
