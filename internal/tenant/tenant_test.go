package tenant

import (
	"errors"
	"testing"

	"nocpu/internal/sim"
)

func TestEmptyRegistryDeniesNothing(t *testing.T) {
	r := NewRegistry()
	if err := r.CheckDevApp(3, 100); err != nil {
		t.Fatalf("untenanted check: %v", err)
	}
	if !r.SameDomain(1, 2) {
		t.Fatal("untenanted devices must share the legacy broadcast domain")
	}
	if got := r.DeviceTenant(3); got != 0 {
		t.Fatalf("DeviceTenant = %v, want untenanted", got)
	}
}

func TestDomainCheck(t *testing.T) {
	r := NewRegistry()
	r.BindDevice(3, 1)
	r.BindDevice(4, 2)
	r.BindApp(100, 1)
	r.BindApp(200, 2)

	// Same domain: allowed.
	if err := r.CheckDevApp(3, 100); err != nil {
		t.Fatalf("same-domain check: %v", err)
	}
	// Either side untenanted: allowed (legacy behavior).
	if err := r.CheckDevApp(3, 999); err != nil {
		t.Fatalf("untenanted app check: %v", err)
	}
	if err := r.CheckDevApp(9, 100); err != nil {
		t.Fatalf("untenanted device check: %v", err)
	}
	// Cross-domain: typed, attributed denial.
	err := r.CheckDevApp(3, 200)
	var te *Error
	if !errors.As(err, &te) {
		t.Fatalf("cross-domain check: got %v, want *tenant.Error", err)
	}
	if te.Tenant != 1 || te.Victim != 2 || te.Class != DenyDMA {
		t.Fatalf("denial attribution: %+v", te)
	}

	// The per-device closure is the same check, and records its refusals.
	check := DomainCheck[uint32](r, sim.NewEngine(), 4)
	if err := check(200); err != nil {
		t.Fatalf("closure same-domain: %v", err)
	}
	if err := check(100); err == nil {
		t.Fatal("closure cross-domain: want denial")
	}
	if d := r.Denials(); len(d) != 1 || d[0].Tenant != 2 || d[0].Victim != 1 || d[0].Class != DenyDMA {
		t.Fatalf("closure denials = %+v, want one DMA denial of tenant 1 by 2", d)
	}

	if r.SameDomain(3, 4) {
		t.Fatal("cross-tenant devices must not share a broadcast domain")
	}
	if !r.SameDomain(3, 9) {
		t.Fatal("untenanted device shares every broadcast domain")
	}
}

func TestDenialRecordAndClassCounts(t *testing.T) {
	r := NewRegistry()
	r.Record(10, 2, 1, DenyGrant, "grant refused")
	r.Record(20, 2, 1, DenyGrant, "grant refused again")
	r.RecordError(30, &Error{Tenant: 2, Victim: 1, Class: DenyDMA, Detail: "walk refused"})
	if n := len(r.Denials()); n != 3 {
		t.Fatalf("denials = %d, want 3", n)
	}
	if n := len(r.DenialsBy(2)); n != 3 {
		t.Fatalf("denials by attacker = %d, want 3", n)
	}
	if n := len(r.DenialsBy(1)); n != 0 {
		t.Fatalf("denials by victim = %d, want 0", n)
	}
	byClass := map[Class]int{}
	for _, d := range r.Denials() {
		byClass[d.Class]++
	}
	if len(byClass) != 2 || byClass[DenyDMA] != 1 || byClass[DenyGrant] != 2 {
		t.Fatalf("class counts = %v", byClass)
	}
}

func TestLedgerS1(t *testing.T) {
	l := NewLedger(2, 1)
	l.NoteAttack(DenyDMA, false, true, "refused with fault")
	l.NoteAttack(DenyKVS, true, false, "cross-tenant read went through")
	l.NoteAttack(DenyGrant, false, false, "silently dropped")
	rep := l.Report()
	if rep.Attacks != 3 || rep.S1Viols != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Clean() {
		t.Fatal("run with S1 violations must not be clean")
	}
}

func TestLedgerS3Attribution(t *testing.T) {
	l := NewLedger(2, 1)
	l.AuditAttribution([]Denial{
		{Tenant: 2, Victim: 1, Class: DenyGrant},
		{Tenant: 1, Victim: 2, Class: DenyGrant}, // misattributed to victim
		{Tenant: 3, Victim: 1, Class: DenyKVS},   // bystander
	})
	rep := l.Report()
	if rep.S3Viols != 2 {
		t.Fatalf("S3 violations = %d, want 2", rep.S3Viols)
	}
}

func TestLedgerS3Containment(t *testing.T) {
	l := NewLedger(2, 1)
	l.AuditContainment(5, 0)
	if rep := l.Report(); rep.S3Viols != 0 {
		t.Fatalf("contained run: %+v", rep)
	}
	l2 := NewLedger(2, 1)
	l2.AuditContainment(0, 3)
	if rep := l2.Report(); rep.S3Viols != 2 {
		t.Fatalf("uncontained run: %+v", rep)
	}
}

func TestLedgerS2(t *testing.T) {
	l := NewLedger(2, 1)
	l.AuditGoodput(1000, 900, 100, 150, 0.8, 2.0)
	if rep := l.Report(); rep.S2Viols != 0 {
		t.Fatalf("within-bound run: %+v", rep)
	}
	l2 := NewLedger(2, 1)
	l2.AuditGoodput(1000, 500, 100, 250, 0.8, 2.0)
	if rep := l2.Report(); rep.S2Viols != 2 {
		t.Fatalf("out-of-bound run: %+v", rep)
	}
}
