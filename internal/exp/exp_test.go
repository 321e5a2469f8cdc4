package exp

import (
	"fmt"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// E1–E17 are contiguous; E18 is unassigned, E19 is the self-healing
	// fleet experiment, E20 the adversarial-tenancy matrix and E21 the
	// split-brain safety matrix.
	want := make([]string, 0, 20)
	for i := 1; i <= 17; i++ {
		want = append(want, fmt.Sprintf("E%d", i))
	}
	want = append(want, "E19", "E20", "E21")
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("expected %d experiments, have %v", len(want), ids)
	}
	for i, id := range ids {
		if id != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, id, want[i])
		}
	}
	if _, err := Run("E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestAllExperimentsSmoke asserts every registered experiment emits at
// least one non-empty table under its own header. It judges the same run
// TestTablesGolden compares against the goldens (runOnce), so each
// experiment executes once per `go test`.
func TestAllExperimentsSmoke(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res := runOnce(t, id)
			if res.ID != id {
				t.Errorf("result ID = %q, want %q", res.ID, id)
			}
			if len(res.Tables) == 0 {
				t.Fatal("experiment emitted no tables")
			}
			for ti, tb := range res.Tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %d (%q) has no rows", ti, tb.Title)
				}
			}
			if !strings.Contains(res.String(), "### "+id) {
				t.Error("rendered output missing experiment header")
			}
		})
	}
}

// TestE1Smoke runs the cheapest experiment end to end and sanity-checks
// the structure of its result (the full suite runs via cmd/nocpu-bench).
func TestE1Smoke(t *testing.T) {
	res, err := Run("E1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("tables = %d", len(res.Tables))
	}
	seq := res.Tables[0]
	if len(seq.Rows) != len(figure2Steps) {
		t.Fatalf("figure-2 rows = %d, want %d", len(seq.Rows), len(figure2Steps))
	}
	out := res.String()
	for _, want := range []string{"discover.req", "connect.resp", "decentralized"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestE1Deterministic: identical runs produce identical tables.
func TestE1Deterministic(t *testing.T) {
	a, _ := Run("E1")
	b, _ := Run("E1")
	if a.String() != b.String() {
		t.Error("E1 output differs across runs")
	}
}

func TestMeasureInitOrdering(t *testing.T) {
	// Decentralized single-app init must beat the centralized baselines
	// (fewer privileged transitions); this is E1's headline assertion.
	dec, _ := measureInit(kindDecentralized, nil)
	dir, _ := measureInit(kindCentralDirect, nil)
	med, _ := measureInit(kindCentralMediated, nil)
	if dec <= 0 || dir <= 0 || med <= 0 {
		t.Fatal("non-positive init latency")
	}
	if dec >= dir {
		t.Errorf("decentralized init (%v) not faster than centralized (%v)", dec, dir)
	}
	_ = med
}

func TestE7SmallSmoke(t *testing.T) {
	res, err := Run("E7")
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Latency must be monotone non-decreasing with fanout.
	if tb.Rows[0][1] > tb.Rows[3][1] && len(tb.Rows[0][1]) >= len(tb.Rows[3][1]) {
		t.Errorf("discovery latency shrank with fanout: %v vs %v", tb.Rows[0][1], tb.Rows[3][1])
	}
}
