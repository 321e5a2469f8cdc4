package fabric

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocpu/internal/kvs"
)

// goldenScenario is the fixed-seed 4-machine run the determinism test
// pins: boot, a scripted write workload, a whole-machine kill mid-way,
// more writes across the failover, then a full read-back. The cluster
// trace records every wire frame plus lifecycle and view events, so
// its hash witnesses the complete distributed event schedule.
func goldenScenario(t *testing.T) *Cluster {
	t.Helper()
	cl := mustBoot(t, Config{N: 4, Seed: 0x601D, Trace: true})
	key := func(i int) string { return keyFor(1000 + i) }
	for i := 0; i < 16; i++ {
		do(t, cl, cl.MachineIDs()[i%4], kvs.Request{Op: kvs.OpPut, Key: key(i), Value: val64(uint64(i))})
	}
	cl.Kill(2)
	for i := 16; i < 32; i++ {
		// Failover happens under load; some ops may answer Unavailable
		// while views converge — the trace, not the statuses, is pinned.
		ing := cl.LiveIDs()[i%3]
		do(t, cl, ing, kvs.Request{Op: kvs.OpPut, Key: key(i), Value: val64(uint64(i))})
	}
	for i := 0; i < 32; i++ {
		do(t, cl, cl.LiveIDs()[(i+1)%3], kvs.Request{Op: kvs.OpGet, Key: key(i)})
	}
	return cl
}

const goldenTraceFile = "testdata/golden_trace.hash"

// TestGoldenTraceDeterminism runs the scenario twice in-process and
// asserts byte-identical traces, then pins the hash against testdata —
// which also catches cross-run and race-vs-norace divergence, since
// `make check` runs this test under -race against the same file.
// Regenerate with NOCPU_REGEN_GOLDEN=1 after an intentional change to
// the fabric's event schedule.
func TestGoldenTraceDeterminism(t *testing.T) {
	a := goldenScenario(t)
	b := goldenScenario(t)

	al, alost := a.TraceLog()
	bl, blost := b.TraceLog()
	if alost != 0 || blost != 0 {
		t.Fatalf("trace overflowed (%d/%d lines lost); raise traceLimit", alost, blost)
	}
	if len(al) == 0 {
		t.Fatal("scenario produced an empty trace")
	}
	if len(al) != len(bl) {
		t.Fatalf("trace lengths differ across identical runs: %d vs %d", len(al), len(bl))
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Fatalf("traces diverge at line %d:\n  run A: %s\n  run B: %s", i, al[i], bl[i])
		}
	}

	hash := a.TraceHash()
	if os.Getenv("NOCPU_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenTraceFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTraceFile, []byte(hash+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s = %s", goldenTraceFile, hash)
		return
	}
	want, err := os.ReadFile(goldenTraceFile)
	if err != nil {
		t.Fatalf("missing golden hash (run with NOCPU_REGEN_GOLDEN=1 to create): %v", err)
	}
	if got := hash; got != strings.TrimSpace(string(want)) {
		t.Errorf("golden trace hash changed:\n  got  %s\n  want %s\n"+
			"The fabric's event schedule is no longer byte-identical to the pinned run. "+
			"If the change is intentional, regenerate with NOCPU_REGEN_GOLDEN=1.",
			got, strings.TrimSpace(string(want)))
	}
}
