package main

import (
	"math"
	"runtime"
)

// metricDef names one reported metric and its unit. The end-to-end and
// per-layer tables here are the ones BENCHMARK.json declares.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_heap_mb", "MB"},
	{"fail_ratio", "ratio"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"e2e.latency_p99_us", "us"},
	{"e2e.latency_samples", "count"},

	{"scheme.job.fib_us", "us"},
	{"scheme.job.loop_us", "us"},
	{"scheme.job.closure_us", "us"},
	{"scheme.job.qq_us", "us"},
	{"scheme.job.forkjoin_us", "us"},
	{"scheme.job.pc_us", "us"},
	{"scheme.job.farm_us", "us"},
	{"scheme.job.primes_us", "us"},
	{"scheme.job.race_us", "us"},
	{"scheme.job.barrier_us", "us"},
	{"scheme.job.atomic_us", "us"},
	{"vm.dispatch_ops_per_op", "1/op"},
	{"vm.fallback_forms", "1/op"},
	{"vm.setup_compile_ms", "ms"},

	{"fig6.create_ns", "ns"},
	{"fig6.fork_value_ns", "ns"},
	{"fig6.schedule_ns", "ns"},
	{"fig6.switch_ns", "ns"},
	{"fig6.steal_ns", "ns"},
	{"fig6.block_resume_ns", "ns"},
	{"fig6.tuple_space_ns", "ns"},
	{"fig6.spec_fork_ns", "ns"},
	{"fig6.barrier_ns", "ns"},
	{"fig6.mutex_ns", "ns"},
	{"fig6.steal_over_block_resume", "ratio"},
	{"fig6.switch_over_fork_value", "ratio"},

	{"core.threads_per_op", "1/op"},
	{"core.blocks_per_op", "1/op"},
	{"core.switches_per_op", "1/op"},
	{"core.steals_per_op", "1/op"},
	{"core.migrations_per_op", "1/op"},
	{"core.idles_per_op", "1/op"},
	{"core.tcb_hit_ratio", "ratio"},
	{"policy.steal_success_ratio", "ratio"},
	{"core.group_members_end", "count"},

	{"tspace.wakes_per_op", "1/op"},
	{"tspace.wake_miss_ratio", "ratio"},
	{"tspace.handoffs_per_op", "1/op"},
	{"tspace.echo_turnaround_us", "us"},

	{"stm.commit_ratio", "ratio"},
	{"stm.retries_per_txn", "1/txn"},

	{"rpc.put_p50_us", "us"},
	{"rpc.get_p50_us", "us"},
	{"rpc.rd_p50_us", "us"},
	{"rpc.tryget_p50_us", "us"},
	{"rpc.txn_p50_us", "us"},
	{"rpc.wildcard_p50_us", "us"},
	{"remote.server_put_p50_us", "us"},
	{"remote.server_get_p50_us", "us"},
	{"remote.server_rd_p50_us", "us"},
	{"remote.server_txn_p50_us", "us"},
	{"remote.bytes_per_op", "B/op"},
	{"remote.puts_per_batch", "1/batch"},
	{"remote.retries", "count"},
	{"remote.timeouts", "count"},
	{"codec.encode_ns", "ns"},
	{"codec.decode_ns", "ns"},
	{"sio.frame_rtt_us", "us"},
	{"cluster.fanouts_per_kop", "1/kop"},
	{"cluster.redirects", "count"},

	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles_per_kop", "1/kop"},
	{"go.live_heap_mb_end", "MB"},

	{"trace.overhead_pct", "%"},
	{"trace.spans_dropped", "count"},
	{"ledger.get_residual_pct", "%"},
}

// ratio answers a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wilsonUpper is the upper end of the 95% Wilson score interval for a
// failure probability observed as failed of attempted. Unlike the raw
// ratio it is never 0, and it shrinks as more ops succeed.
func wilsonUpper(failed, attempted uint64) float64 {
	if attempted == 0 {
		return 1
	}
	const z = 1.959963984540054
	n := float64(attempted)
	p := float64(failed) / n
	z2 := z * z
	return (p + z2/(2*n) + z*math.Sqrt(p*(1-p)/n+z2/(4*n*n))) / (1 + z2/n)
}

// runStats is what one run measured, ready to be turned into metrics.
type runStats struct {
	callers   []*caller
	phase     phaseResult
	setups    []float64 // seconds, one per setup
	compileMs []float64
	echo      *hist // echo-thread turnaround, fabric-rpc only
	fig6      map[string]float64
	codecEnc  float64
	codecDec  float64
	frameRTT  float64 // ns
	liveHeap  uint64
}

func (r *runStats) totals() (attempted, failed, wrong, plain, traced uint64, all hist) {
	for _, c := range r.callers {
		attempted += c.attempts
		failed += c.failed
		wrong += c.wrong
		plain += c.opsPlain
		traced += c.opsTraced
		all.merge(&c.lat)
	}
	return
}

// endToEndMetrics answers the untraced run's metrics. Rates, latencies
// and CPU per op are medians over the phase's half-second windows.
func (r *runStats) endToEndMetrics() map[string]float64 {
	attempted, failed, _, _, _, _ := r.totals()
	var rate, p50, p90, cpu []float64
	for _, w := range r.phase.windows {
		n := float64(w.lat.n)
		rate = append(rate, n/w.dur.Seconds())
		p50 = append(p50, w.lat.quantile(0.50)/1e3)
		p90 = append(p90, w.lat.quantile(0.90)/1e3)
		cpu = append(cpu, ratio(float64(w.cpu.Nanoseconds())/1e3, n))
	}
	return map[string]float64{
		"ops_per_s":      median(rate),
		"latency_p50_us": median(p50),
		"latency_p90_us": median(p90),
		"cpu_us_per_op":  median(cpu),
		"peak_heap_mb":   float64(r.phase.peakHeap) / (1 << 20),
		"fail_ratio":     wilsonUpper(failed, attempted),
		"setup_s":        median(r.setups),
	}
}

// perLayerMetrics answers the traced run's metrics.
func (r *runStats) perLayerMetrics() map[string]float64 {
	attempted, _, _, plain, traced, all := r.totals()
	ops := float64(attempted)
	b, a := r.phase.before, r.phase.after
	d := func(x, y uint64) float64 { return float64(y - x) }
	span := func(name string) float64 { return spanQuantile(r.callers, name, 0.5) / 1e3 }
	m := map[string]float64{
		"e2e.latency_p99_us":  all.quantile(0.99) / 1e3,
		"e2e.latency_samples": float64(all.n),

		"vm.dispatch_ops_per_op": ratio(d(b.vmDispatch, a.vmDispatch), ops),
		"vm.fallback_forms":      ratio(d(b.vmFallback, a.vmFallback), ops),
		"vm.setup_compile_ms":    median(r.compileMs),

		"core.threads_per_op":        ratio(d(b.threads, a.threads), ops),
		"core.blocks_per_op":         ratio(d(b.vp.Blocks, a.vp.Blocks), ops),
		"core.switches_per_op":       ratio(d(b.vp.Switches, a.vp.Switches), ops),
		"core.steals_per_op":         ratio(d(b.vp.Steals, a.vp.Steals), ops),
		"core.migrations_per_op":     ratio(d(b.vp.Migrations, a.vp.Migrations), ops),
		"core.idles_per_op":          ratio(d(b.vp.Idles, a.vp.Idles), ops),
		"core.tcb_hit_ratio":         ratio(d(b.vp.TCBHits, a.vp.TCBHits), d(b.vp.TCBHits, a.vp.TCBHits)+d(b.vp.TCBMisses, a.vp.TCBMisses)),
		"policy.steal_success_ratio": ratio(d(b.vp.StealBatches, a.vp.StealBatches), d(b.vp.StealBatches, a.vp.StealBatches)+d(b.vp.FailedSteals, a.vp.FailedSteals)),
		"core.group_members_end":     float64(a.groupMembers),

		"tspace.wakes_per_op":       ratio(d(b.wakes, a.wakes), ops),
		"tspace.wake_miss_ratio":    ratio(d(b.wakeMisses, a.wakeMisses), d(b.wakes, a.wakes)),
		"tspace.handoffs_per_op":    ratio(d(b.handoffs, a.handoffs), ops),
		"tspace.echo_turnaround_us": 0,

		"stm.commit_ratio":    ratio(d(b.stm.Commits, a.stm.Commits), d(b.stm.Commits, a.stm.Commits)+d(b.stm.Conflicts, a.stm.Conflicts)),
		"stm.retries_per_txn": ratio(d(b.stm.Retries, a.stm.Retries), d(b.stm.Commits, a.stm.Commits)),

		"rpc.put_p50_us":           span("rpc.put"),
		"rpc.get_p50_us":           span("rpc.get"),
		"rpc.rd_p50_us":            span("rpc.rd"),
		"rpc.tryget_p50_us":        span("rpc.tryget"),
		"rpc.txn_p50_us":           span("rpc.txn"),
		"rpc.wildcard_p50_us":      span("rpc.wildcard"),
		"remote.server_put_p50_us": a.serverP50["put"] * 1e6,
		"remote.server_get_p50_us": a.serverP50["get"] * 1e6,
		"remote.server_rd_p50_us":  a.serverP50["rd"] * 1e6,
		"remote.server_txn_p50_us": a.serverP50["txncommit"] * 1e6,
		"remote.bytes_per_op":      ratio(d(b.bytes, a.bytes), ops),
		"remote.puts_per_batch":    ratio(d(b.batchPuts, a.batchPuts), d(b.batchFrames, a.batchFrames)),
		"remote.retries":           d(b.retries, a.retries),
		"remote.timeouts":          d(b.timeouts, a.timeouts),
		"codec.encode_ns":          r.codecEnc,
		"codec.decode_ns":          r.codecDec,
		"sio.frame_rtt_us":         r.frameRTT / 1e3,
		"cluster.fanouts_per_kop":  ratio(d(b.fanouts, a.fanouts)*1000, ops),
		"cluster.redirects":        d(b.redirects, a.redirects),

		"go.alloc_bytes_per_op": ratio(float64(r.phase.rtAfter.allocBytes-r.phase.rtBefore.allocBytes), ops),
		"go.gc_cycles_per_kop":  ratio(float64(r.phase.rtAfter.gcCycles-r.phase.rtBefore.gcCycles)*1000, ops),
		"go.live_heap_mb_end":   float64(r.liveHeap) / (1 << 20),
	}
	for _, job := range append(append([]string{}, computeJobs.kinds...), coordJobs.kinds...) {
		m["scheme.job."+job+"_us"] = span("scheme.job." + job)
	}
	for _, row := range fig6Rows {
		m["fig6."+row.name+"_ns"] = r.fig6[row.name]
	}
	m["fig6.steal_over_block_resume"] = ratio(r.fig6["steal"], r.fig6["block_resume"])
	m["fig6.switch_over_fork_value"] = ratio(r.fig6["switch"], r.fig6["fork_value"])
	if r.echo != nil {
		m["tspace.echo_turnaround_us"] = r.echo.quantile(0.5) / 1e3
	}
	plainRate := ratio(float64(plain), r.phase.plainTime.Seconds())
	tracedRate := ratio(float64(traced), r.phase.tracedTime.Seconds())
	m["trace.overhead_pct"] = ratio(plainRate-tracedRate, plainRate) * 100
	var dropped uint64
	for _, c := range r.callers {
		dropped += c.spans.dropped
	}
	m["trace.spans_dropped"] = float64(dropped)
	// The part of a client-timed keyed Get that the server's own service
	// time plus a bare framed round trip do not explain.
	get := m["rpc.get_p50_us"]
	m["ledger.get_residual_pct"] = ratio(get-m["remote.server_get_p50_us"]-m["sio.frame_rtt_us"], get) * 100
	return m
}

// finalLiveHeap answers the live heap after a full collection.
func finalLiveHeap() uint64 {
	runtime.GC()
	return readRuntime().liveHeap
}
