package trace

import (
	"strings"
	"testing"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(0, "a", "b", "kind", "")
	if tr.Len() != 0 || tr.Events() != nil || tr.Kinds() != nil || tr.String() != "" {
		t.Error("nil tracer misbehaved")
	}
	if tr.Filter("x") != nil {
		t.Error("nil tracer Filter non-nil")
	}
}

func TestRecordAndKinds(t *testing.T) {
	tr := New()
	tr.Record(10, "nic", "bus", "discover.req", "file=kv.dat")
	tr.Record(20, "bus", "ssd", "discover.fwd", "")
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	kinds := tr.Kinds()
	if kinds[0] != "discover.req" || kinds[1] != "discover.fwd" {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestFilterByPrefix(t *testing.T) {
	tr := New()
	tr.Record(1, "a", "b", "mem.alloc", "")
	tr.Record(2, "a", "b", "mem.free", "")
	tr.Record(3, "a", "b", "svc.open", "")
	got := tr.Filter("mem.")
	if len(got) != 2 {
		t.Errorf("filter returned %d events", len(got))
	}
}

func TestStringRendering(t *testing.T) {
	tr := New()
	tr.Record(1500, "nic", "bus", "svc.open", "token=x")
	s := tr.String()
	if !strings.Contains(s, "nic") || !strings.Contains(s, "->") || !strings.Contains(s, "svc.open") {
		t.Errorf("render = %q", s)
	}
	// Event with no destination renders without an arrow.
	tr2 := New()
	tr2.Record(1, "dev", "", "self-test", "")
	if strings.Contains(tr2.String(), "->") {
		t.Errorf("dst-less event rendered arrow: %q", tr2.String())
	}
}
