package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// compareThreshold is the fractional ns/op slowdown a row may show against
// its committed baseline before -compare reports a regression. Shared CI
// runners add noise well beyond it, so CI runs the comparison as advisory.
const compareThreshold = 0.10

// compareBaseline checks the rows of the table just run against the rows
// of the baseline file whose names carry the "<table>/" prefix, printing
// one line per baseline row. It returns the process exit code: 0 when
// every row is within compareThreshold, 1 on a regression or a baseline
// row the run did not produce, and 2 when the baseline cannot be read or
// has no rows for the table.
func compareBaseline(w io.Writer, path, table string, current []benchRecord) int {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stingbench: -compare: %v (run 'stingbench -table %s -json %s' and commit it)\n", err, table, path)
		return 2
	}
	var base []benchRecord
	if err := json.Unmarshal(b, &base); err != nil {
		fmt.Fprintf(os.Stderr, "stingbench: -compare: %s: %v\n", path, err)
		return 2
	}
	prefix := table + "/"
	cur := make(map[string]float64, len(current))
	for _, r := range current {
		cur[r.Name] = r.NsPerOp
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Row\tBaseline ns/op\tCurrent ns/op\tDelta")
	compared, failed := 0, 0
	for _, r := range base {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		compared++
		now, ok := cur[r.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t%.1f\t(missing)\t-\n", r.Name, r.NsPerOp)
			failed++
			continue
		}
		delta := (now - r.NsPerOp) / r.NsPerOp
		mark := ""
		if delta > compareThreshold {
			mark = "  REGRESSION"
			failed++
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%+.1f%%%s\n", r.Name, r.NsPerOp, now, delta*100, mark)
	}
	tw.Flush() //nolint:errcheck

	switch {
	case compared == 0:
		fmt.Fprintf(os.Stderr, "stingbench: -compare: no %s rows in %s\n", prefix, path)
		return 2
	case failed > 0:
		fmt.Fprintf(os.Stderr, "stingbench: -compare: %d of %d row(s) regressed beyond %.0f%% or are missing\n",
			failed, compared, compareThreshold*100)
		return 1
	}
	fmt.Fprintf(w, "stingbench: %d row(s) within %.0f%% of %s\n", compared, compareThreshold*100, path)
	return 0
}
