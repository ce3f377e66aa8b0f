package obs

import "sort"

// SpanBuffer is the ready-made SpanSink: a Ring of the most recent
// finished spans whose reads come back ordered by start time. A drained
// span leaves the ring, so the buffer does not keep it alive.
type SpanBuffer struct {
	*Ring[*SpanData]
}

// NewSpanBuffer creates a ring retaining the most recent n spans.
func NewSpanBuffer(n int) *SpanBuffer {
	return &SpanBuffer{NewRing[*SpanData](n)}
}

// Spans returns a non-destructive snapshot of the retained spans, ordered
// by start time.
func (b *SpanBuffer) Spans() []*SpanData {
	return sortSpans(b.Snapshot())
}

// Drain removes and returns the retained spans, ordered by start time.
// The cumulative totals survive the drain.
func (b *SpanBuffer) Drain() []*SpanData {
	return sortSpans(b.Ring.Drain())
}

func sortSpans(spans []*SpanData) []*SpanData {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNanos != spans[j].StartNanos {
			return spans[i].StartNanos < spans[j].StartNanos
		}
		return spans[i].Span < spans[j].Span
	})
	return spans
}

// SpanCollector exposes a span ring's occupancy and overflow accounting,
// plus the process-wide open-span gauge, to the metrics registry.
type SpanCollector struct {
	Buffer *SpanBuffer
}

// Collect implements Collector.
func (c SpanCollector) Collect() []Metric {
	if c.Buffer == nil {
		return nil
	}
	s := c.Buffer.Stats()
	return []Metric{
		Gauge("sting_spans_retained", "Finished spans currently retained in the span ring.", float64(s.Retained)),
		Counter("sting_span_recorded_total", "Spans ever recorded into the span ring.", float64(s.Recorded)),
		Counter("sting_span_dropped_total", "Oldest spans overwritten by ring overflow.", float64(s.Dropped)),
		Counter("sting_span_drained_total", "Spans removed by explicit drains.", float64(s.Drained)),
		Gauge("sting_spans_open", "Spans started but not yet ended, process-wide.", float64(OpenSpans())),
	}
}
