// Command stingbench regenerates every table and figure of the paper's
// evaluation on this substrate:
//
//	-table fig6              the Figure 6 baseline-timings table
//	-table fig4              the Figure 4 stealing-dynamics experiment
//	-table pm-ablation       §3.3 queue locality/serialization regimes
//	-table preempt-ablation  §4.2.2 preemption vs barrier master/slave
//	-table steal-ablation    §4.1.1 stealing on/off
//	-table tspace-ablation   §4.2 per-bin vs global tuple-space locking
//	-table recycle-ablation  storage-model TCB recycling on/off
//	-table remote            networked tuple-space fabric ping-pong
//	-table cluster           sharded-cluster routing: 1 vs N shards
//	-table sched             scheduler core: fork-join fan-out, yield
//	                         ping-pong, keyed tuple throughput at 1/2/4/8 VPs
//	-table stm               STM contention sweep (update-rate × key-skew ×
//	                         workers) and transactional-overhead ablation
//	-table diag              runtime-diagnosis profiler overhead off/on
//	-table vm                execution-engine ablation: bytecode VM vs
//	                         tree-walker on fib, fork-join, producer/
//	                         consumer, atomic transfers
//	-table all               everything (default)
//
// -compare BENCH_<table>.json checks the rows of the one table just run
// against the committed baseline's rows for that table and exits 1 when
// one is more than 10% slower or missing (2 without a usable baseline).
//
// Absolute numbers will differ from the paper's 1992 MIPS R3000 (and this
// substrate simulates VPs over goroutines); the claims under test are the
// orderings and ratios — see EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// benchRecord is one machine-readable result row for -json: tooling (CI
// trend lines, the EXPERIMENTS.md overhead table) consumes these instead
// of scraping the human tables.
type benchRecord struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	OpsSec  float64 `json:"ops_per_sec"`
}

// benchRecords accumulates rows as the tables print; written by -json.
var benchRecords []benchRecord

// record appends one -json row; elapsed-per-run tables pass their whole
// run as the op.
func record(name string, nsPerOp float64) {
	ops := 0.0
	if nsPerOp > 0 {
		ops = 1e9 / nsPerOp
	}
	benchRecords = append(benchRecords, benchRecord{Name: name, NsPerOp: nsPerOp, OpsSec: ops})
}

func main() {
	table := flag.String("table", "all", "which table/figure to regenerate")
	n := flag.Int("n", 20000, "iterations per microbenchmark row")
	jsonOut := flag.String("json", "", "also write results as JSON to this file")
	spans := flag.Bool("spans", false, "install a span sink for the whole run (the overhead ablation); -table remote adds STING-thread-client rows traced off/on")
	sample := flag.Bool("sample", false, "-table remote adds rows with the time-series sampler + SLO engine running at an aggressive 10ms interval (the sampler-overhead ablation)")
	compareTo := flag.String("compare", "", "compare the -table rows against this baseline JSON file; exit 1 on a >10% ns/op regression or a missing row")
	flag.Parse()
	if *compareTo != "" && *table == "all" {
		fmt.Fprintln(os.Stderr, "stingbench: -compare needs a single -table")
		os.Exit(2)
	}

	if *spans {
		// The instrumentation-present configuration: every StartSpan site
		// pays its atomic sink load, untraced threads pay their nil checks.
		// Compare a -spans run's -json against a plain run for the overhead
		// gate in EXPERIMENTS.md.
		ring := obs.NewSpanBuffer(1 << 16)
		obs.SetSpanSink(ring.Record)
		fmt.Println("stingbench: span sink installed (-spans)")
	}

	run := func(name string, f func() error) {
		if *table != "all" && *table != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "stingbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig6", func() error { return fig6(*n) })
	run("fig4", fig4)
	run("pm-ablation", pmAblation)
	run("preempt-ablation", preemptAblation)
	run("steal-ablation", stealAblation)
	run("tspace-ablation", tspaceAblation)
	run("recycle-ablation", recycleAblation)
	run("remote", func() error { return remoteFabric(*spans, *sample) })
	run("cluster", clusterFabric)
	run("sched", schedCore)
	run("stm", func() error { return stmSweep(*n) })
	run("diag", diagAblation)
	run("vm", vmEngines)

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "stingbench: -json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("stingbench: wrote %d results to %s\n", len(benchRecords), *jsonOut)
	}
	if *compareTo != "" {
		os.Exit(compareBaseline(os.Stdout, *compareTo, *table, benchRecords))
	}
}

func writeJSON(path string) error {
	b, err := json.MarshalIndent(benchRecords, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func fig6(n int) error {
	fmt.Printf("Figure 6 — baseline timings (%d iterations/row)\n", n)
	rows, err := bench.MeasureFig6(n)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Case\tPaper (µs, R3000)\tMeasured (µs)\tRatio to switch\tNote")
	var switchUS float64
	for _, r := range rows {
		if r.Name == "Synchronous Context Switch" {
			switchUS = r.NsPerOp / 1e3
		}
	}
	for _, r := range rows {
		us := r.NsPerOp / 1e3
		ratio := 0.0
		if switchUS > 0 {
			ratio = us / switchUS
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.1fx\t%s\n", r.Name, r.PaperUS, us, ratio, r.Note)
		record("fig6/"+r.Name, r.NsPerOp)
	}
	return w.Flush()
}

func fig4() error {
	fmt.Println("Figure 4 — dynamics of thread stealing (futures primes, 1 VP)")
	w := newTab()
	fmt.Fprintln(w, "Regime\tLimit\tPrimes\tThreads\tSteals\tTCB allocs\tBlocks\tElapsed")
	for _, limit := range []int{200, 1000, 4000} {
		for _, regime := range []string{"lifo", "fifo", "delayed"} {
			r, err := bench.RunFig4(regime, limit)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
				r.Policy, r.Limit, r.NPrimes, r.Threads, r.Steals,
				r.TCBAllocs, r.Blocks, r.Elapsed.Round(time.Microsecond))
			if r.Threads > 0 {
				record(fmt.Sprintf("fig4/%s/limit=%d", r.Policy, r.Limit),
					float64(r.Elapsed.Nanoseconds())/float64(r.Threads))
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: LIFO dispatch makes stealing dominant; FIFO suppresses it.")
	return nil
}

func pmAblation() error {
	fmt.Println("§3.3 — policy-manager regimes by workload (4 VPs)")
	w := newTab()
	fmt.Fprintln(w, "Policy\tWorkload\tElapsed\tBlocks\tMigrated")
	for _, workload := range []string{"worker-farm", "tree"} {
		for _, pol := range []string{"global-fifo", "local-lifo", "local-lifo-nomigrate"} {
			var best bench.PMAblationResult
			for rep := 0; rep < 3; rep++ { // best of three (see tspace note)
				r, err := bench.RunPMAblation(pol, workload, 4, 4)
				if err != nil {
					return err
				}
				if rep == 0 || r.Elapsed < best.Elapsed {
					best = r
				}
			}
			fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%d\n",
				best.Policy, best.Workload, best.Elapsed.Round(time.Microsecond), best.Blocks, best.Migrated)
			record("pm-ablation/"+best.Policy+"/"+best.Workload, float64(best.Elapsed.Nanoseconds()))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: global queues suit worker farms; local LIFO suits fork trees.")
	return nil
}

func preemptAblation() error {
	fmt.Println("§4.2.2 — preemption vs barrier-round master/slave (Tucker & Gupta)")
	w := newTab()
	fmt.Fprintln(w, "Quantum\tRounds\tElapsed\tPreemptions")
	for _, q := range []time.Duration{0, 5 * time.Millisecond, 500 * time.Microsecond, 50 * time.Microsecond} {
		r, err := bench.RunPreemptAblation(q, 40, 2)
		if err != nil {
			return err
		}
		qs := "off"
		if q > 0 {
			qs = q.String()
		}
		fmt.Fprintf(w, "%s\t%d\t%v\t%d\n", qs, r.Rounds,
			r.Elapsed.Round(time.Microsecond), r.Preemptions)
		if r.Rounds > 0 {
			record("preempt-ablation/quantum="+qs, float64(r.Elapsed.Nanoseconds())/float64(r.Rounds))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: short quanta only disturb barrier-synchronized rounds.")
	return nil
}

func stealAblation() error {
	fmt.Println("§4.1.1 — stealing on/off (delayed futures primes, 1 VP)")
	w := newTab()
	fmt.Fprintln(w, "Stealing\tLimit\tElapsed\tSteals\tTCB allocs\tBlocks")
	for _, limit := range []int{500, 2000} {
		for _, stealing := range []bool{true, false} {
			r, err := bench.RunStealAblation(stealing, limit)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%v\t%d\t%v\t%d\t%d\t%d\n",
				r.Stealing, r.Limit, r.Elapsed.Round(time.Microsecond),
				r.Steals, r.TCBAllocs, r.Blocks)
			record(fmt.Sprintf("steal-ablation/stealing=%v/limit=%d", r.Stealing, r.Limit),
				float64(r.Elapsed.Nanoseconds()))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: stealing throttles TCB allocation and avoids context switches.")
	return nil
}

func tspaceAblation() error {
	fmt.Println("§4.2 — tuple-space locking granularity (4 producer/consumer pairs)")
	w := newTab()
	fmt.Fprintln(w, "Bins\tOps\tElapsed\tns/op")
	for _, bins := range []int{1, 4, 64} {
		// Best of three: single-CPU scheduling jitter dwarfs the effect in
		// an individual run.
		var best bench.TSLockResult
		for rep := 0; rep < 3; rep++ {
			r, err := bench.RunTSLockAblation(bins, 4, 500)
			if err != nil {
				return err
			}
			if rep == 0 || r.Elapsed < best.Elapsed {
				best = r
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%v\t%.0f\n", best.Bins, best.Ops,
			best.Elapsed.Round(time.Microsecond), best.PerOpNs)
		record(fmt.Sprintf("tspace-ablation/bins=%d", best.Bins), best.PerOpNs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: a mutex per hash bin admits concurrent producers/consumers.")
	return nil
}

func recycleAblation() error {
	fmt.Println("storage model — TCB recycling on VPs")
	w := newTab()
	fmt.Fprintln(w, "Recycling\tThreads\tElapsed\tTCB hits\tTCB misses")
	for _, rec := range []bool{true, false} {
		r, err := bench.RunRecycleAblation(rec, 3000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v\t%d\t%v\t%d\t%d\n", r.Recycling, r.Threads,
			r.Elapsed.Round(time.Microsecond), r.TCBHits, r.TCBMisses)
		if r.Threads > 0 {
			record(fmt.Sprintf("recycle-ablation/recycling=%v", r.Recycling),
				float64(r.Elapsed.Nanoseconds())/float64(r.Threads))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: recycling serves nearly every dispatch from the VP cache.")
	return nil
}

func remoteFabric(spansOn, sampleOn bool) error {
	fmt.Println("remote fabric — tuple ping-pong over loopback TCP (stingd protocol)")
	w := newTab()
	fmt.Fprintln(w, "Pairs\tRounds\tElapsed\tµs/RTT\tbytes in\tbytes out")
	for _, pairs := range []int{1, 2, 4} {
		// Best of three: loopback latency jitter dominates single runs.
		var best bench.RemoteResult
		for rep := 0; rep < 3; rep++ {
			r, err := bench.RunRemotePingPong(pairs, 300)
			if err != nil {
				return err
			}
			if rep == 0 || r.Elapsed < best.Elapsed {
				best = r
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%v\t%.1f\t%d\t%d\n", best.Pairs, best.Rounds,
			best.Elapsed.Round(time.Microsecond), best.PerRTTNs/1e3,
			best.BytesIn, best.BytesOut)
		record(fmt.Sprintf("remote/pairs=%d", best.Pairs), best.PerRTTNs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: a fabric round trip is network-bound; blocked remote readers cost no VP.")

	fmt.Println("\nremote fabric — Put saturation: pipelined vs serial, batched vs unbatched, 1-conn vs pooled")
	w = newTab()
	fmt.Fprintln(w, "Mode\tWorkers\tOps\tElapsed\tµs/op\tops/sec\tbatches")
	var serialNs, bestSatNs float64
	for _, row := range []struct {
		mode    string
		workers int
		ops     int
	}{
		{"serial", 1, 600},       // the floor: one op in flight, ever
		{"pipelined", 64, 40},    // same conn, 64 callers deep
		{"batch", 64, 40},        // + Put coalescing into BATCH frames
		{"batch+pool", 64, 40},   // + 4-connection keyed pool
		{"async", 1, 2560},       // one caller, 64-deep PutAsync window
		{"async+batch", 1, 2560}, // the window feeding the batcher
	} {
		var best bench.SaturationResult
		for rep := 0; rep < 3; rep++ { // best of three: loopback jitter
			r, err := bench.RunRemoteSaturation(row.mode, row.workers, row.ops)
			if err != nil {
				return err
			}
			if rep == 0 || r.Elapsed < best.Elapsed {
				best = r
			}
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%.1f\t%.0f\t%d\n", best.Mode, best.Workers,
			best.Ops, best.Elapsed.Round(time.Microsecond), best.PerOpNs/1e3,
			best.OpsSec, best.Batches)
		record("remote/sat/"+best.Mode, best.PerOpNs)
		if best.Mode == "serial" {
			serialNs = best.PerOpNs
		} else if bestSatNs == 0 || best.PerOpNs < bestSatNs {
			bestSatNs = best.PerOpNs
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if serialNs > 0 && bestSatNs > 0 {
		fmt.Printf("claim: filling the connection beats one-op-in-flight %.1f× on ops/sec (gate ≥5×); batching amortizes the per-frame syscall and per-request dispatch.\n",
			serialNs/bestSatNs)
	}

	if spansOn {
		fmt.Println("\nremote fabric — STING-thread clients, causal tracing off/on")
		w = newTab()
		fmt.Fprintln(w, "Traced\tPairs\tRounds\tElapsed\tµs/RTT")
		for _, traced := range []bool{false, true} {
			for _, pairs := range []int{1, 2, 4} {
				var best bench.RemoteResult
				for rep := 0; rep < 3; rep++ { // best of three: loopback jitter
					r, err := bench.RunRemotePingPongSpans(pairs, 300, traced)
					if err != nil {
						return err
					}
					if rep == 0 || r.Elapsed < best.Elapsed {
						best = r
					}
				}
				fmt.Fprintf(w, "%v\t%d\t%d\t%v\t%.1f\n", traced, best.Pairs, best.Rounds,
					best.Elapsed.Round(time.Microsecond), best.PerRTTNs/1e3)
				record(fmt.Sprintf("remote/spans=%v/pairs=%d", traced, pairs), best.PerRTTNs)
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println("claim: untraced ops pay only nil checks; a traced op records ~6 spans/RTT at ~1-2µs each.")
	}

	if sampleOn {
		fmt.Println("\nremote fabric — time-series sampler + SLO engine off/on (10ms interval)")
		w = newTab()
		fmt.Fprintln(w, "Sampled\tPairs\tRounds\tElapsed\tµs/RTT")
		for _, sampled := range []bool{false, true} {
			for _, pairs := range []int{1, 2, 4} {
				var best bench.RemoteResult
				// Best of five over longer runs: the deltas under test are
				// single-digit percents, below loopback jitter on a loaded box.
				for rep := 0; rep < 5; rep++ {
					r, err := bench.RunRemotePingPongSampled(pairs, 1000, sampled, 10*time.Millisecond)
					if err != nil {
						return err
					}
					if rep == 0 || r.Elapsed < best.Elapsed {
						best = r
					}
				}
				fmt.Fprintf(w, "%v\t%d\t%d\t%v\t%.1f\n", sampled, best.Pairs, best.Rounds,
					best.Elapsed.Round(time.Microsecond), best.PerRTTNs/1e3)
				record(fmt.Sprintf("remote/sampled=%v/pairs=%d", sampled, pairs), best.PerRTTNs)
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println("claim: the sampler's gather-and-ingest walk runs off the hot path; RTTs move <5% even at 100× the production sampling rate.")
	}
	return nil
}

func schedCore() error {
	fmt.Println("scheduler core — ready-queue machinery under fan-out, yields, and keyed wakeups")

	fmt.Println("\nfork-join fan-out (2000 threads forked onto one VP, joined)")
	w := newTab()
	fmt.Fprintln(w, "VPs\tThreads\tElapsed\tns/thread\tMigrated\tIdles")
	for _, vps := range []int{1, 2, 4, 8} {
		var best bench.SchedForkJoinResult
		for rep := 0; rep < 3; rep++ { // best of three: single-CPU jitter
			r, err := bench.RunSchedForkJoin(vps, 2000)
			if err != nil {
				return err
			}
			if rep == 0 || r.Elapsed < best.Elapsed {
				best = r
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%v\t%.0f\t%d\t%d\n", best.VPs, best.Threads,
			best.Elapsed.Round(time.Microsecond), best.PerThreadNs,
			best.Migrations, best.Idles)
		record(fmt.Sprintf("sched/forkjoin/vps=%d", best.VPs), best.PerThreadNs)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\nyield ping-pong (64 resident threads, 400 yields each)")
	w = newTab()
	fmt.Fprintln(w, "VPs\tThreads\tYields\tElapsed\tns/yield")
	for _, vps := range []int{1, 4} {
		var best bench.SchedYieldResult
		for rep := 0; rep < 3; rep++ {
			r, err := bench.RunSchedYield(vps, 64, 400)
			if err != nil {
				return err
			}
			if rep == 0 || r.Elapsed < best.Elapsed {
				best = r
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%.0f\n", best.VPs, best.Threads,
			best.Yields, best.Elapsed.Round(time.Microsecond), best.PerYieldNs)
		record(fmt.Sprintf("sched/yield/vps=%d", best.VPs), best.PerYieldNs)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\nkeyed tuple throughput (4 producer/consumer pairs, disjoint keys, one space)")
	w = newTab()
	fmt.Fprintln(w, "VPs\tOps\tElapsed\tns/op\tBlocks\tWakes\tWakeMiss\tHandoffs")
	for _, vps := range []int{1, 2, 4, 8} {
		var best bench.SchedTupleResult
		for rep := 0; rep < 3; rep++ {
			r, err := bench.RunSchedTuple(vps, 4, 400)
			if err != nil {
				return err
			}
			if rep == 0 || r.Elapsed < best.Elapsed {
				best = r
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%v\t%.0f\t%d\t%d\t%d\t%d\n", best.VPs, best.Ops,
			best.Elapsed.Round(time.Microsecond), best.PerOpNs, best.Blocks,
			best.Wakes, best.WakeMisses, best.WakeHandoffs)
		record(fmt.Sprintf("sched/tuple/vps=%d", best.VPs), best.PerOpNs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: batched steal-half drains fan-out queues; keyed wakeups kill the herd.")
	return nil
}

func clusterFabric() error {
	fmt.Println("sharded cluster — keyed ping-pong routed across stingd shards")
	w := newTab()
	fmt.Fprintln(w, "Shards\tPairs\tRounds\tElapsed\tµs/RTT\tfan-outs")
	for _, shards := range []int{1, 2, 4} {
		// Best of three: loopback latency jitter dominates single runs.
		var best bench.ClusterResult
		for rep := 0; rep < 3; rep++ {
			r, err := bench.RunClusterPingPong(shards, 4, 150)
			if err != nil {
				return err
			}
			if rep == 0 || r.Elapsed < best.Elapsed {
				best = r
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%.1f\t%d\n", best.Shards, best.Pairs,
			best.Rounds, best.Elapsed.Round(time.Microsecond),
			best.PerRTTNs/1e3, best.Fanouts)
		record(fmt.Sprintf("cluster/shards=%d", best.Shards), best.PerRTTNs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: rendezvous routing spreads keyed pairs across shards; wildcard reads still see the whole cluster.")
	return nil
}

func stmSweep(n int) error {
	fmt.Println("STM contention sweep — transactional transfers, Synchrobench-style update-rate × key-skew × workers")
	opsPer := n / 20 // transactions are whole bodies, not single ops
	if opsPer < 100 {
		opsPer = 100
	}
	w := newTab()
	fmt.Fprintln(w, "Workers\tKeys\tUpdate%\tZipf\tThink\tTxns\tElapsed\tµs/txn\tCommits\tConflicts\tRetries")
	// Two regimes. 32 keys, no think time: the dilute case, measuring raw
	// commit cost with conflicts rare. 4 keys with think time (a yield
	// between the body's reads and writes): transfers collide for real,
	// exercising conflict detection, retry, and backoff — including on
	// hosts with few processors, where pure timeslicing would otherwise
	// hide almost every interleaving.
	for _, cfg := range []struct {
		keys  int
		think bool
	}{{32, false}, {4, true}} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, update := range []int{10, 100} {
				for _, zipf := range []float64{0, 1.2} {
					if cfg.keys == 4 && (zipf > 0 || workers < 2) {
						continue // skew is meaningless over 4 keys; 1 worker cannot conflict
					}
					var best bench.STMContentionResult
					for rep := 0; rep < 3; rep++ {
						r, err := bench.RunSTMContention(4, workers, cfg.keys, update, zipf, opsPer, cfg.think)
						if err != nil {
							return err
						}
						if rep == 0 || r.Elapsed < best.Elapsed {
							best = r
						}
					}
					skew := "uni"
					if zipf > 0 {
						skew = fmt.Sprintf("%.1f", zipf)
					}
					think := "no"
					if cfg.think {
						think = "yes"
					}
					fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%v\t%.1f\t%d\t%d\t%d\n",
						best.Workers, best.Keys, best.UpdatePct, skew, think, best.Ops,
						best.Elapsed.Round(time.Microsecond), best.PerOpNs/1e3,
						best.Commits, best.Conflicts, best.Retries)
					record(fmt.Sprintf("stm/k=%d/g=%d/u=%d/skew=%s", cfg.keys, workers, update, skew), best.PerOpNs)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\ntransactional-overhead ablation (TryGet+Put pair, naked vs inside Atomic)")
	w = newTab()
	fmt.Fprintln(w, "Path\tns/pair")
	var best bench.STMOverheadResult
	for rep := 0; rep < 3; rep++ {
		r, err := bench.RunSTMOverhead(n)
		if err != nil {
			return err
		}
		if rep == 0 || r.NakedNs < best.NakedNs {
			best = r
		}
	}
	fmt.Fprintf(w, "naked ops\t%.0f\n", best.NakedNs)
	fmt.Fprintf(w, "inside Atomic\t%.0f\n", best.TxnNs)
	if err := w.Flush(); err != nil {
		return err
	}
	record("stm/overhead/naked", best.NakedNs)
	record("stm/overhead/txn", best.TxnNs)
	fmt.Printf("claim: non-transactional ops pay only a per-bin version bump (<5%% — gate against the tspace-ablation baseline); conflicts rise with skew and update rate, throughput degrades gracefully via backoff.\n")
	return nil
}

// vmEngines runs the same Scheme workloads under the tree-walking
// reference evaluator and the bytecode VM. The acceptance gate is the
// speedup column on the compute-bound rows: vm must be ≥2× on fib and
// fork-join (coordination-bound rows are substrate-limited and carry no
// gate).
func vmEngines() error {
	fmt.Println("execution engine — bytecode VM vs tree-walker (identical programs, 4 VPs)")
	w := newTab()
	fmt.Fprintln(w, "Workload\tEngine\tElapsed\tSpeedup vs tree")
	for _, row := range bench.VMEngineRows() {
		var treeNs float64
		for _, eng := range []string{"tree", "vm"} {
			// Best of three: scheduling jitter on shared runners dwarfs
			// dispatch cost in any individual run.
			var best bench.VMEngineResult
			for rep := 0; rep < 3; rep++ {
				r, err := bench.RunVMEngine(row, eng)
				if err != nil {
					return err
				}
				if rep == 0 || r.Elapsed < best.Elapsed {
					best = r
				}
			}
			ns := float64(best.Elapsed.Nanoseconds())
			speed := "—"
			if eng == "tree" {
				treeNs = ns
			} else if ns > 0 {
				speed = fmt.Sprintf("%.1fx", treeNs/ns)
			}
			fmt.Fprintf(w, "%s\t%s\t%v\t%s\n", row, eng,
				best.Elapsed.Round(time.Microsecond), speed)
			record(fmt.Sprintf("vm/%s/engine=%s", row, eng), ns)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("claim: lexically-addressed bytecode beats the tree-walker ≥2× where evaluation dominates; tuple and transaction rows are bounded by the substrate either way.")
	return nil
}

// diagAblation measures the runtime diagnoser's enabled-vs-disabled cost
// on a hot-key-skewed tuple workload and checks the sketch names the
// planted key — the EXPERIMENTS.md <5% overhead gate reads these rows.
func diagAblation() error {
	fmt.Println("runtime diagnosis — profiler overhead (4 pairs, 80% hot-key skew)")
	w := newTab()
	fmt.Fprintln(w, "Diagnosis\tOps\tElapsed\tns/op\tTop take key")
	var off, on bench.DiagResult
	for _, enabled := range []bool{false, true} {
		// Best of three: scheduling jitter on a loaded CI box dwarfs the
		// hook cost in any individual run.
		var best bench.DiagResult
		for rep := 0; rep < 3; rep++ {
			r, err := bench.RunDiagAblation(enabled, 4, 2000)
			if err != nil {
				return err
			}
			if rep == 0 || r.Elapsed < best.Elapsed {
				best = r
			}
		}
		top := "—"
		if best.TopKey != "" {
			top = fmt.Sprintf("%s ×%d", best.TopKey, best.TopCount)
		}
		label := "off"
		if enabled {
			label = "on"
			on = best
		} else {
			off = best
		}
		fmt.Fprintf(w, "%s\t%d\t%v\t%.0f\t%s\n", label, best.Ops,
			best.Elapsed.Round(time.Microsecond), best.PerOpNs, top)
		record("diag/enabled="+label, best.PerOpNs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if on.TopKey != "hot" {
		return fmt.Errorf("hot-key sketch reported %q, want the planted key \"hot\"", on.TopKey)
	}
	overhead := 0.0
	if off.PerOpNs > 0 {
		overhead = (on.PerOpNs - off.PerOpNs) / off.PerOpNs * 100
	}
	fmt.Printf("claim: the always-on diagnoser costs a nil check disabled and ~%.1f%% enabled (<5%% gate).\n", overhead)
	return nil
}
