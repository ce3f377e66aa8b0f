package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestCompareBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_sched.json")
	base := []benchRecord{
		{Name: "sched/a", NsPerOp: 100},
		{Name: "sched/b", NsPerOp: 200},
		{Name: "vm/c", NsPerOp: 1}, // another table's row: ignored
	}
	b, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		table   string
		path    string
		current []benchRecord
		want    int
	}{
		{"within threshold", "sched", path, []benchRecord{
			{Name: "sched/a", NsPerOp: 109}, {Name: "sched/b", NsPerOp: 150}, {Name: "sched/new", NsPerOp: 1e9},
		}, 0},
		{"regression", "sched", path, []benchRecord{
			{Name: "sched/a", NsPerOp: 111}, {Name: "sched/b", NsPerOp: 200},
		}, 1},
		{"missing row", "sched", path, []benchRecord{
			{Name: "sched/a", NsPerOp: 100},
		}, 1},
		{"no matching rows", "stm", path, []benchRecord{
			{Name: "stm/x", NsPerOp: 1},
		}, 2},
		{"no baseline", "sched", filepath.Join(dir, "absent.json"), nil, 2},
	} {
		if got := compareBaseline(io.Discard, tc.path, tc.table, tc.current); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
