package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json, the contract the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode holds BENCHMARK.json and the tables in this
// package together: same workloads, same metrics, same units, same
// directions, same bounds.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, code has %d", len(m.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, d := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, code %+v", i, got, d)
		}
		if d.Bound > largest {
			largest = d.Bound
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must carry the largest bound")
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, code has %d", len(m.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes at most 128", len(perLayer))
	}
	for i, d := range perLayer {
		got := m.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, code %+v", i, got, d)
		}
	}
}

// TestSmoke runs all five workloads and every probe at 1/50 of the
// work, with two repetitions and a traced one, every correctness check
// on, and checks that the result file carries every metric the manifest
// names, with its unit, for every workload.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	rf := runAll(smokeOptions(defaultSeed, dir))
	for _, w := range rf.Workloads {
		for _, e := range w.Errors {
			t.Errorf("%s: %s", w.Name, e)
		}
	}

	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("result files: %v %v", files, err)
	}
	got, err := readResult(files[0])
	if err != nil {
		t.Fatal(err)
	}
	m := readManifest(t)
	if len(got.Workloads) != len(m.Workloads) {
		t.Fatalf("result has %d workloads, manifest %d", len(got.Workloads), len(m.Workloads))
	}
	for i, w := range got.Workloads {
		if w.Name != m.Workloads[i].Name {
			t.Errorf("workload %d is %s, manifest says %s", i, w.Name, m.Workloads[i].Name)
		}
		if w.Digest == "" || w.Reps != 2 || len(w.RepLog) != 2 {
			t.Errorf("%s: digest %q, %d reps, %d logged", w.Name, w.Digest, w.Reps, len(w.RepLog))
		}
		for _, d := range m.EndToEnd {
			v, ok := w.EndToEnd[d.Name]
			if !ok || v.Unit != d.Unit || v.Median <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want unit %s and a value above 0", w.Name, d.Name, v, d.Unit)
			}
		}
		shares := 0.0
		for _, d := range m.PerLayer {
			v, ok := w.PerLayer[d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("%s: per-layer %s = %+v, want unit %s", w.Name, d.Name, v, d.Unit)
			}
			if strings.HasSuffix(d.Name, ".est_share") || d.Name == "bench.unattributed_share" {
				shares += v.Median
			}
		}
		if shares < 0.999 || shares > 1.001 {
			t.Errorf("%s: estimated shares and the remainder sum to %v, want 1", w.Name, shares)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace dump: %v", w.Name, err)
		}
	}
	if got.Commit == "" || got.GoVersion == "" || got.GOGC != gogc || got.Seed != defaultSeed || len(got.Probes) != len(probes) {
		t.Errorf("result file does not describe its run: %+v", got)
	}

	// A result compared with itself has nothing worse in it.
	var sb strings.Builder
	if err := compareFiles(&sb, files[0], files[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(sb.String(), "\n0 worse\n") || strings.Contains(sb.String(), "differs") {
		t.Errorf("self-comparison:\n%s", sb.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "ops_per_wall_s", Better: "higher", Bound: 0.10}
	base := value{Median: 100, Q1: 99, Q3: 101}
	for _, c := range []struct {
		b    value
		want string
	}{
		{value{Median: 100.5, Q1: 99.5, Q3: 101.5}, "within"},
		{value{Median: 85, Q1: 84, Q3: 86}, "worse"},
		{value{Median: 120, Q1: 119, Q3: 121}, "better"},
	} {
		if got := verdict(d, base, c.b, false); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b.Median, got, c.want)
		}
	}
	wide := value{Median: 100, Q1: 90, Q3: 110}
	if got := verdict(d, wide, value{Median: 95, Q1: 88, Q3: 104}, false); got != "unresolved" {
		t.Errorf("wide overlapping runs: %s, want unresolved", got)
	}
	exact := metricDef{Name: "virt_p99_us", Better: "lower", Bound: 0.05, Exact: true}
	if got := verdict(exact, value{Median: 10}, value{Median: 10.001}, true); got != "worse" {
		t.Errorf("exact metric that moved: %s, want worse", got)
	}
}
