package diag

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/obs"
)

// The flight recorder: a fixed-size ring of diagnostic events kept at
// all times, so the moments leading up to a hang or a crash are
// available after the fact — dumped by stingd on SIGQUIT, on a
// watchdog-detected scheduler stall, and on /debug/diag?dump=1. The
// dump format is line-oriented JSON that scripts/tracecat can merge
// across nodes by timestamp.

// Event is one flight-recorder entry.
type Event struct {
	T      time.Time `json:"t"`
	Kind   string    `json:"kind"`
	Space  string    `json:"space,omitempty"`
	Key    string    `json:"key,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Count  uint64    `json:"count,omitempty"`
}

// Recorder is the ring: an obs.Ring of events. Record never blocks beyond
// the ring's mutex and never allocates once the ring is warm; old events
// are overwritten.
type Recorder struct {
	ring *obs.Ring[Event]
}

// NewRecorder builds a ring holding at most cap events.
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = 4096
	}
	return &Recorder{ring: obs.NewRing[Event](cap)}
}

// Record appends ev, overwriting the oldest entry when full.
func (r *Recorder) Record(ev Event) {
	if ev.T.IsZero() {
		ev.T = time.Now()
	}
	r.ring.Record(ev)
}

// Stats reports how many events were recorded and how many the ring
// has overwritten.
func (r *Recorder) Stats() (added, dropped uint64) {
	s := r.ring.Stats()
	return s.Recorded, s.Dropped
}

// Events returns the ring's contents, oldest first.
func (r *Recorder) Events() []Event { return r.ring.Snapshot() }

// Tail returns the newest n events, oldest first.
func (r *Recorder) Tail(n int) []Event {
	evs := r.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Dump is the on-disk/wire shape of a flight-recorder dump.
type Dump struct {
	Node     string    `json:"node,omitempty"`
	DumpedAt time.Time `json:"dumped_at"`
	Dropped  uint64    `json:"dropped,omitempty"`
	Events   []Event   `json:"events"`
}

// DumpJSON writes the ring as one JSON document tagged with the node
// name. The recorder keeps recording while the dump is written.
func (r *Recorder) DumpJSON(w io.Writer, node string) error {
	_, dropped := r.Stats()
	d := Dump{Node: node, DumpedAt: time.Now(), Dropped: dropped, Events: r.Events()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// DecodeDump parses a dump produced by DumpJSON.
func DecodeDump(rd io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(rd).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}
