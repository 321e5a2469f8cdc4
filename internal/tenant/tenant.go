// Package tenant is the multi-tenancy layer of the CPU-less machine:
// a registry binding devices and apps to isolation domains, per-tenant
// budgets layered on the PR-4 overload bounds, and the typed denial
// record every cross-tenant access attempt produces.
//
// The paper's §2.4 claims decentralized per-device control can answer
// the *security* question; this package makes the claim mechanical. A
// tenant's mappings live in disjoint IOMMU page-table roots (each
// device consults the registry before creating or extending a context),
// the bus refuses cross-tenant grants and scopes discovery broadcasts,
// and the KVS derives key ownership from a tenant prefix — so no single
// component, not even a compromised central kernel, can open a
// cross-tenant path without every enforcement point agreeing.
//
// Enforcement is deliberately passive and deterministic: the registry
// holds plain maps (no locks — everything runs on the one simulation
// engine), records every denial with attribution, and never schedules
// events itself.
package tenant

import (
	"fmt"

	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// ID names a tenant isolation domain. 0 means "untenanted": a device or
// app not bound to any tenant, which pre-tenancy configurations use
// everywhere — untenanted actors see the legacy, unrestricted behavior,
// which is how every knob defaults off.
type ID uint16

func (id ID) String() string {
	if id == 0 {
		return "untenanted"
	}
	return fmt.Sprintf("t%d", uint16(id))
}

// Class discriminates denial records: which enforcement point refused
// the access. The numeric values ride the DenialReport wire message.
type Class uint8

// Denial classes.
const (
	DenyInvalid     Class = iota
	DenyDMA               // IOMMU domain check: walk/map outside the tenant's domain
	DenyMapping           // bus refused programming a cross-tenant mapping
	DenyGrant             // bus refused a cross-tenant GrantReq
	DenyStaleCredit       // port refused a credit replenish fenced to a dead incarnation
	DenyStaleReplay       // bus fenced a stale-incarnation frame
	DenyDiscovery         // bus scoped a discovery broadcast away from another tenant
	DenyKVS               // kvs refused a cross-tenant key access
	DenyBudget            // a per-tenant budget (credits, inflight, rx) was exhausted
)

func (c Class) String() string {
	switch c {
	case DenyDMA:
		return "dma"
	case DenyMapping:
		return "mapping"
	case DenyGrant:
		return "grant"
	case DenyStaleCredit:
		return "stale-credit"
	case DenyStaleReplay:
		return "stale-replay"
	case DenyDiscovery:
		return "discovery"
	case DenyKVS:
		return "kvs"
	case DenyBudget:
		return "budget"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Budget declares a tenant's share of the machine's bounded resources.
// Zero fields inherit the global bound — a tenant without a declared
// budget competes in the shared pool like an untenanted actor.
type Budget struct {
	CreditWindow uint32 // per-tenant bus credit window
	KVSInflight  uint32 // per-tenant KVS admission concurrency
	RxBound      uint32 // per-tenant NIC rx-queue share
}

// Denial is one refused cross-tenant access, attributed to the tenant
// that attempted it. The S1 invariant says every attack produces one of
// these (typed, never a silent drop); the S3 invariant says Tenant is
// always the attacker.
type Denial struct {
	At     sim.Time
	Tenant ID // the attributed offender
	Victim ID // the targeted domain (0: infrastructure, not a tenant)
	Class  Class
	Detail string
}

// Error is the typed refusal handed back to the offender in Go call
// paths (IOMMU domain checks, KVS admission). Wire paths use
// msg.DenialReport instead; both carry the same attribution.
type Error struct {
	Tenant ID
	Victim ID
	Class  Class
	Detail string
}

func (e *Error) Error() string {
	return fmt.Sprintf("tenant: %v denied to %v (victim %v): %s", e.Class, e.Tenant, e.Victim, e.Detail)
}

// Registry is the tenancy control plane: who belongs to which domain,
// what budget each domain declared, and every denial recorded so far.
// One registry serves a whole configuration — in the fabric it is shared
// by all machines, which is deterministic because they share one engine.
type Registry struct {
	devs    map[msg.DeviceID]ID
	apps    map[msg.AppID]ID
	budgets map[ID]Budget

	denials []Denial
}

// NewRegistry returns an empty registry. An empty registry denies
// nothing: every actor is untenanted until bound.
func NewRegistry() *Registry {
	return &Registry{
		devs:    make(map[msg.DeviceID]ID),
		apps:    make(map[msg.AppID]ID),
		budgets: make(map[ID]Budget),
	}
}

// BindDevice places a device in a tenant domain.
func (r *Registry) BindDevice(d msg.DeviceID, t ID) { r.devs[d] = t }

// BindApp places an app (address space / PASID) in a tenant domain.
func (r *Registry) BindApp(a msg.AppID, t ID) { r.apps[a] = t }

// SetBudget declares a tenant's resource budget.
func (r *Registry) SetBudget(t ID, b Budget) { r.budgets[t] = b }

// DeviceTenant returns the domain a device is bound to (0: untenanted).
func (r *Registry) DeviceTenant(d msg.DeviceID) ID { return r.devs[d] }

// Budget returns the declared budget for a tenant (zero value: inherit
// global bounds).
func (r *Registry) Budget(t ID) Budget { return r.budgets[t] }

// CheckDevApp is the domain check behind every per-device IOMMU: may
// device d instantiate or extend a context for app a? Allowed when
// either side is untenanted (legacy behavior) or both are in the same
// domain; anything else is a typed, attributed denial. This is the
// check that holds even when a compromised central kernel misprograms a
// mapping — the kernel holds the IOMMU handle, but the IOMMU consults
// the registry, not the kernel.
func (r *Registry) CheckDevApp(d msg.DeviceID, a msg.AppID) error {
	dt, at := r.devs[d], r.apps[a]
	if dt == 0 || at == 0 || dt == at {
		return nil
	}
	return &Error{Tenant: dt, Victim: at, Class: DenyDMA,
		Detail: fmt.Sprintf("%v may not map app %d owned by %v", d, a, at)}
}

// DomainCheck is the check device d installs in its translation unit
// (iommu.SetDomainCheck; P is the PASID type, and AppID doubles as the
// PASID): CheckDevApp, with each refusal recorded at the engine's time.
func DomainCheck[P ~uint32](r *Registry, eng *sim.Engine, d msg.DeviceID) func(P) error {
	return func(p P) error {
		err := r.CheckDevApp(d, msg.AppID(p))
		if err != nil {
			r.RecordError(eng.Now(), err.(*Error))
		}
		return err
	}
}

// SameDomain reports whether two devices may see each other's control
// traffic (discovery scoping): true when either is untenanted or both
// share a domain.
func (r *Registry) SameDomain(a, b msg.DeviceID) bool {
	at, bt := r.devs[a], r.devs[b]
	return at == 0 || bt == 0 || at == bt
}

// Record appends an attributed denial. Every enforcement point calls
// this alongside its typed refusal, so the ledger can audit S1/S3 from
// the registry alone.
func (r *Registry) Record(at sim.Time, attacker, victim ID, class Class, detail string) {
	r.denials = append(r.denials, Denial{At: at, Tenant: attacker, Victim: victim, Class: class, Detail: detail})
}

// RecordError records a typed *Error denial (the Go-call-path twin of
// Record).
func (r *Registry) RecordError(at sim.Time, e *Error) {
	r.Record(at, e.Tenant, e.Victim, e.Class, e.Detail)
}

// Denials returns all recorded denials in record order (which is
// deterministic simulation order).
func (r *Registry) Denials() []Denial { return r.denials }

// DenialsBy returns the denials attributed to one tenant.
func (r *Registry) DenialsBy(t ID) []Denial {
	var out []Denial
	for _, d := range r.denials {
		if d.Tenant == t {
			out = append(out, d)
		}
	}
	return out
}
