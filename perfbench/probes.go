package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sio"
	"repro/internal/tspace"
)

// Layer probes: short, self-contained timings of one layer each, run by
// the traced run after the workload's own machines are shut down, so
// nothing else competes for the processors.

const probeRepeats = 5

// fig6Rows are the Figure 6 substrate operations, timed per op on a
// fresh 1-PP/1-VP machine with a single LIFO queue, as the paper did.
var fig6Rows = []struct {
	name string
	body func(ctx *core.Context, n int) error
}{
	{"create", func(ctx *core.Context, n int) error { bench.ThreadCreation(ctx, n); return nil }},
	{"fork_value", func(ctx *core.Context, n int) error { bench.ThreadForkValue(ctx, n); return nil }},
	{"schedule", func(ctx *core.Context, n int) error { bench.SchedulingThread(ctx, n); return nil }},
	{"switch", func(ctx *core.Context, n int) error { bench.ContextSwitch(ctx, n); return nil }},
	{"steal", func(ctx *core.Context, n int) error { bench.Stealing(ctx, n); return nil }},
	{"block_resume", bench.BlockResume},
	{"tuple_space", bench.TupleSpaceOp},
	{"spec_fork", bench.SpeculativeFork},
	{"barrier", func(ctx *core.Context, n int) error { bench.BarrierSync(ctx, n); return nil }},
	{"mutex", func(ctx *core.Context, n int) error { bench.MutexUncontended(ctx, n); return nil }},
}

// probeFig6 answers each row's median ns/op over probeRepeats runs of n
// iterations.
func probeFig6(n int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, row := range fig6Rows {
		var xs []float64
		for r := 0; r < probeRepeats; r++ {
			env, err := bench.NewEnv(1, 1)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			err = env.Run(func(ctx *core.Context) error { return row.body(ctx, n) })
			d := time.Since(t0)
			env.Close()
			if err != nil {
				return nil, fmt.Errorf("fig6 %s: %w", row.name, err)
			}
			xs = append(xs, float64(d.Nanoseconds())/float64(n))
		}
		out[row.name] = median(xs)
	}
	return out, nil
}

// codecShapes are the tuple shapes each workload sends over the wire or
// deposits in its spaces.
var codecShapes = map[string][]tspace.Tuple{
	"scheme-compute": {{int64(7), int64(1234)}},
	"scheme-coord":   {{int64(7), int64(1234)}, {int64(7), "result", int64(1089)}, {"acct", int64(3), int64(1000)}},
	"fabric-rpc":     {{int64(1)<<40 | 77, "req", int64(123456789)}, {int64(512), "val", int64(4054541)}, {"g0.3", int64(1), int64(1000)}},
	"fabric-puts":    {{"p", int64(123456), int64(654321)}},
}

// probeCodec answers the median ns to encode and to decode one tuple of
// the workload's shapes.
func probeCodec(workload string, n int) (enc, dec float64, err error) {
	shapes := codecShapes[workload]
	var encs, decs []float64
	buf := make([]byte, 0, 256)
	for r := 0; r < probeRepeats; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			buf, err = tspace.AppendTuple(buf[:0], shapes[i%len(shapes)])
			if err != nil {
				return 0, 0, err
			}
		}
		encs = append(encs, float64(time.Since(t0).Nanoseconds())/float64(n))
		frames := make([][]byte, len(shapes))
		for i, s := range shapes {
			if frames[i], err = tspace.AppendTuple(nil, s); err != nil {
				return 0, 0, err
			}
		}
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if _, _, err = tspace.DecodeTuple(frames[i%len(frames)]); err != nil {
				return 0, 0, err
			}
		}
		decs = append(decs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(encs), median(decs), nil
}

// probeFrameRTT answers the median round trip of a bare framed echo over
// loopback: the transport floor under every fabric op, with no decoding
// and no dispatch.
func probeFrameRTT(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	accepted := make(chan *sio.FrameConn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		fc := sio.NewFrameConn(c, 0, time.Second)
		fc.Start(func(frame []byte, err error) {
			if err == nil {
				_ = fc.WriteFrame(frame) // a failed echo shows up as the client's timeout
			}
		})
		accepted <- fc
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	replies := make(chan error, 1)
	fc := sio.NewFrameConn(c, 0, time.Second)
	fc.Start(func(_ []byte, err error) {
		select {
		case replies <- err:
		default: // the close after the last reply; nobody waits for it
		}
	})
	defer fc.Close()
	srv, ok := <-accepted
	if !ok {
		return 0, fmt.Errorf("frame echo: accept failed")
	}
	defer srv.Close()
	payload := make([]byte, 48)
	var h hist
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fc.WriteFrame(payload); err != nil {
			return 0, err
		}
		select {
		case err := <-replies:
			if err != nil {
				return 0, err
			}
		case <-time.After(opDeadline):
			return 0, fmt.Errorf("frame echo: no reply within %v", opDeadline)
		}
		h.add(time.Since(t0).Nanoseconds())
	}
	return h.quantile(0.5), nil
}
