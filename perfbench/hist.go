package main

import "math/bits"

// hist is a log-linear histogram of nanosecond durations: 64 linear
// sub-buckets per power of two, so a recorded value is known to within
// 1/64 (1.6%). It has a fixed size and never allocates, so recording a
// sample costs the same at the start and at the end of a run.
type hist struct {
	counts [64 * 42]uint64
	n      uint64
}

func bucketOf(ns int64) int {
	if ns < 64 {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 7 // ns lies in [64<<e, 128<<e)
	b := 64 + e*64 + int(ns>>e) - 64
	if b >= len(hist{}.counts) {
		b = len(hist{}.counts) - 1
	}
	return b
}

// bucketRange answers the lower bound and width of bucket b.
func bucketRange(b int) (lo, width float64) {
	if b < 64 {
		return float64(b), 1
	}
	e := (b - 64) / 64
	sub := (b - 64) % 64
	return float64(int64(64+sub) << e), float64(int64(1) << e)
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile answers the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds it; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(b)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}
