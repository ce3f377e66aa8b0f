package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shortSeconds keeps each workload's timed phase brief in tests.
const shortSeconds = 0.3

func shortRun(t *testing.T, workload string, traced bool, inject int) *result {
	t.Helper()
	cfg := &config{workload: workload, seed: 7, seconds: shortSeconds, traced: traced, injectWrong: inject}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", workload, traced, err)
	}
	return res
}

// TestShortRunsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks that the run is correct and that every metric of its
// table is present with its unit.
func TestShortRunsReportEveryMetric(t *testing.T) {
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			res := shortRun(t, spec.name, traced, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					spec.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", spec.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", spec.name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", spec.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestSpansOut writes a traced run's spans and checks that every layer
// span points at the op span that caused it.
func TestSpansOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	cfg := &config{workload: "fabric-rpc", seed: 3, seconds: shortSeconds, traced: true, spansOut: path}
	if _, err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type rec struct {
		Caller, ID, Parent int
		Name               string
	}
	roots := map[[2]int]string{}
	var children []rec
	dec := json.NewDecoder(f)
	for dec.More() {
		var r rec
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Parent < 0 {
			roots[[2]int{r.Caller, r.ID}] = r.Name
		} else {
			children = append(children, r)
		}
	}
	if len(roots) == 0 || len(children) == 0 {
		t.Fatalf("%d op spans, %d layer spans", len(roots), len(children))
	}
	for _, c := range children {
		op, ok := roots[[2]int{c.Caller, c.Parent}]
		if !ok || !strings.HasPrefix(op, "op.") || !strings.HasPrefix(c.Name, "rpc.") {
			t.Errorf("span %q has parent %d (%q)", c.Name, c.Parent, op)
		}
	}
}

// TestInjectedWrongAnswersAreCaught corrupts every third expected answer
// and checks that each workload's answer checks notice.
func TestInjectedWrongAnswersAreCaught(t *testing.T) {
	for _, spec := range workloads {
		if spec.name == "fabric-puts" {
			continue // a Put has no answer to check; its tuples are checked by count and sum
		}
		res := shortRun(t, spec.name, false, 3)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d with injected wrong answers", spec.name, res.Correct, res.Failed)
		}
		if got := res.Metrics["fail_ratio"].Value; got < float64(res.Failed)/float64(res.Attempted) {
			t.Errorf("%s: fail_ratio %v below the observed %d/%d", spec.name, got, res.Failed, res.Attempted)
		}
	}
}

// TestPutsConservationCheck breaks the consumed-tuple books of a finished
// fabric-puts run and checks that the exactly-once check fires.
func TestPutsConservationCheck(t *testing.T) {
	w, err := setupPuts(&config{workload: "fabric-puts", seconds: shortSeconds})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	cfg := &config{seconds: shortSeconds}
	cs := []*caller{newCaller(0, 1, cfg)}
	runPhase(cfg, w, cs)
	pw := w.(*putsWorkload)
	pw.ackedSum++
	if err := w.check(); err == nil {
		t.Fatal("check passed with a sum that does not match")
	}
}

// TestTablesMatchBenchmarkJSON keeps the metric tables and the declared
// workloads in step with the repository's BENCHMARK.json.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	for _, w := range decl.Workloads {
		if findSpec(w.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestWilsonUpperNeverZero(t *testing.T) {
	prev := 1.0
	for _, n := range []uint64{10, 100, 1000, 100000} {
		u := wilsonUpper(0, n)
		if u <= 0 || u >= prev {
			t.Errorf("wilsonUpper(0, %d) = %v, want in (0, %v)", n, u, prev)
		}
		prev = u
	}
	if u := wilsonUpper(50, 100); u <= 0.5 || u >= 0.7 {
		t.Errorf("wilsonUpper(50, 100) = %v, want just above 0.5", u)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := int64(1); i <= 100000; i++ {
		h.add(i * 1000) // 1µs .. 100ms
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000 * 1000
		if got := h.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", q, got, want)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}
