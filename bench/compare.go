package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &resultFile{}
	if err := json.Unmarshal(b, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// verdict compares one metric of a (the base) and b by the rule the
// guides give: worse or better only when the medians differ by more
// than the bound allows or the base's own spread explains; unresolved
// when the spread is wider than the bound and the runs overlap.
func verdict(d metricDef, a, b value, sameSeed bool) string {
	if d.Exact && sameSeed && a.Median == b.Median {
		return "same"
	}
	if a.Median == 0 {
		return "unresolved"
	}
	change := (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		change = -change
	}
	// change > 0 means b is worse.
	if d.Exact && sameSeed {
		if change > 0 {
			return "worse"
		}
		return "better"
	}
	spreadA := (a.Q3 - a.Q1) / a.Median
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	switch {
	case spreadA > d.Bound && overlap:
		return "unresolved"
	case change > d.Bound:
		return "worse"
	case -change > spreadA && !overlap:
		return "better"
	default:
		return "within"
	}
}

// compareFiles prints one row per workload and end-to-end metric, with
// a as the base of every ratio.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	sameSeed := a.Seed == b.Seed && a.Scale == b.Scale
	fmt.Fprintf(w, "base a = %s (commit %s, seed %d)\n     b = %s (commit %s, seed %d)\n",
		pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	if !sameSeed {
		fmt.Fprintln(w, "seeds or scales differ: simulated metrics are compared by bound, not exactly")
	}
	fmt.Fprintf(w, "%-22s %-19s %12s %-25s %12s %-25s %8s %6s  %s\n",
		"workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a", "bound", "verdict")
	worse := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, x := range b.Workloads {
			if x.Name == wa.Name {
				wb = x
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-22s missing from b\n", wa.Name)
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d, va, vb, sameSeed)
			if v == "worse" {
				worse++
			}
			bound := fmt.Sprintf("%.2f", d.Bound)
			if d.Exact && sameSeed {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-22s %-19s %12.6g %-25s %12.6g %-25s %8.4f %6s  %s\n",
				wa.Name, d.Name, va.Median, fmt.Sprintf("[%.5g, %.5g]", va.Q1, va.Q3),
				vb.Median, fmt.Sprintf("[%.5g, %.5g]", vb.Q1, vb.Q3), vb.Median/va.Median, bound, v)
		}
		v := "same"
		if wa.Failed != wb.Failed {
			v = "differs"
		}
		fmt.Fprintf(w, "%-22s %-19s %12d %-25s %12d %-25s %8s %6s  %s\n",
			wa.Name, "failed_ops", wa.Failed, "", wb.Failed, "", "", "exact", v)
		if sameSeed {
			v = "same"
			if wa.Digest != wb.Digest {
				v = "differs"
			}
			fmt.Fprintf(w, "%-22s %-19s %12s %-25s %12s %-25s %8s %6s  %s\n",
				wa.Name, "sim_digest", wa.Digest[:12], "", wb.Digest[:12], "", "", "exact", v)
		}
	}
	fmt.Fprintf(w, "%d worse\n", worse)
	return nil
}
