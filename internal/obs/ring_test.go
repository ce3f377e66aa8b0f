package obs

import (
	"sync"
	"testing"
)

// ringItem derives every field from (w, seq) so a torn write or read is
// detectable.
type ringItem struct {
	W, Seq int
	Check  uint64
	Ptr    *int
}

func mkItem(w, seq int) ringItem {
	return ringItem{W: w, Seq: seq, Check: uint64(w)<<32 ^ uint64(seq)*0x9e3779b97f4a7c15}
}

func (it ringItem) torn() bool { return it != mkItem(it.W, it.Seq) }

func checkConserved(t *testing.T, s RingStats) {
	t.Helper()
	if s.Recorded != s.Drained+s.Retained+s.Dropped {
		t.Fatalf("recorded %d != drained %d + retained %d + dropped %d",
			s.Recorded, s.Drained, s.Retained, s.Dropped)
	}
}

// TestRing checks the ring's contract: the newest Cap() values survive,
// oldest first; totals are exact and survive a drain; drained slots are
// zeroed; and under 8 concurrent writers racing Drain and Snapshot no
// value is torn, per-writer order holds across drains, and every recorded
// value is drained exactly once or counted dropped.
func TestRing(t *testing.T) {
	const n = 64
	r := NewRing[ringItem](n)
	for i := 0; i < 2*n; i++ {
		r.Record(mkItem(0, i))
	}
	s := r.Stats()
	if s.Recorded != 2*n || s.Dropped != n || s.Retained != n {
		t.Fatalf("stats after overflow = %+v", s)
	}
	checkConserved(t, s)
	for i, it := range r.Snapshot() {
		if it.Seq != n+i {
			t.Fatalf("survivor %d seq = %d, want %d (newest n, oldest first)", i, it.Seq, n+i)
		}
	}
	if got := len(r.Drain()); got != n {
		t.Fatalf("Drain returned %d, want %d", got, n)
	}
	if got := len(r.Snapshot()); got != 0 {
		t.Fatalf("%d values retained after Drain", got)
	}
	s = r.Stats()
	if s.Recorded != 2*n || s.Dropped != n || s.Drained != n || s.Retained != 0 {
		t.Fatalf("totals after Drain = %+v", s)
	}
	// Refill past capacity from the drained state.
	for i := 0; i < n+5; i++ {
		r.Record(mkItem(0, i))
	}
	if s = r.Stats(); s.Dropped != n+5 {
		t.Fatalf("Dropped after refill = %d, want %d", s.Dropped, n+5)
	}
	checkConserved(t, s)
	// A drain zeroes its slots, releasing whatever they referenced.
	x := 1
	r.Record(ringItem{Ptr: &x})
	r.Drain()
	for i, it := range r.buf {
		if it != (ringItem{}) {
			t.Fatalf("slot %d not zeroed after Drain: %+v", i, it)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Record(mkItem(1, 1)) }); allocs != 0 {
		t.Fatalf("Record allocates %.1f times once warm", allocs)
	}

	const writers, each = 8, 4000
	r = NewRing[ringItem](256)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < each; seq++ {
				r.Record(mkItem(w, seq))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	lastSeq := make([]int, writers) // highest seq drained per writer
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	var drained uint64
	inOrder := func(batch []ringItem, last []int) {
		for _, it := range batch {
			if it.W < 0 || it.W >= writers || it.torn() {
				t.Fatalf("torn value %+v", it)
			}
			if it.Seq <= last[it.W] {
				t.Fatalf("writer %d seq %d after %d: order violated", it.W, it.Seq, last[it.W])
			}
			last[it.W] = it.Seq
		}
	}
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		snap := r.Snapshot()
		if len(snap) > r.Cap() {
			t.Fatalf("snapshot of %d from a %d-slot ring", len(snap), r.Cap())
		}
		inOrder(snap, append([]int(nil), lastSeq...))
		batch := r.Drain()
		inOrder(batch, lastSeq)
		drained += uint64(len(batch))
		checkConserved(t, r.Stats())
	}
	s = r.Stats()
	if s.Recorded != writers*each || s.Drained != drained || s.Retained != 0 {
		t.Fatalf("final stats %+v, drained %d of %d", s, drained, writers*each)
	}
	checkConserved(t, s)
}
