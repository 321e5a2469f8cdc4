// Package exp is the experiment harness: one function per experiment
// (E1–E10 in DESIGN.md), each regenerating the tables recorded in
// EXPERIMENTS.md.
//
// "The Last CPU" is a position paper with no quantitative evaluation, so
// these experiments quantify its qualitative claims against the
// centralized-CPU baseline (see DESIGN.md for the claim → experiment
// mapping). Every experiment is deterministic: fixed seeds, virtual time.
package exp

import (
	"fmt"

	"nocpu/internal/core"
	"nocpu/internal/kvs"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/netsim"
)

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Notes  []string
}

// String renders the result for the terminal (and EXPERIMENTS.md).
func (r *Result) String() string {
	out := fmt.Sprintf("### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

type entry struct {
	id    string
	title string
	run   func() *Result
}

var registry = []entry{
	{"E1", "Figure-2 initialization sequence and latency", E1InitSequence},
	{"E2", "KVS data plane: throughput/latency vs offered load", E2Dataplane},
	{"E3", "Concurrent application-setup scalability", E3SetupScalability},
	{"E4", "Performance isolation under control-plane noise", E4Isolation},
	{"E5", "Device failure detection and recovery", E5FaultRecovery},
	{"E6", "IOMMU TLB ablation", E6IOMMUTLB},
	{"E7", "Broadcast discovery scalability", E7Discovery},
	{"E8", "Memory-management operation throughput", E8MemoryOps},
	{"E9", "Doorbell (notification) batching ablation", E9Doorbell},
	{"E10", "Management-bus speed sensitivity", E10BusSensitivity},
	{"E11", "NIC-side value cache ablation (KV-Direct-style extension)", E11ValueCache},
	{"E12", "Demand paging: eager vs first-touch backing (§4 page faults)", E12DemandPaging},
	{"E13", "IOMMU huge pages: setup cost and TLB reach", E13HugePages},
	{"E14", "Fault injection: init and steady-state KVS under message loss", E14FaultTolerance},
	{"E15", "Crash-restart-rejoin: chaos schedules over both control planes", E15CrashRecovery},
	{"E16", "Overload resilience: goodput under open-loop load ramps", E16Overload},
	{"E17", "Rack-scale fabric: sharded replicated KVS across N machines", E17Fabric},
	{"E19", "Self-healing fleet: reconciliation, live membership change, concurrent failures", E19SelfHealing},
	{"E20", "Adversarial multi-tenancy: attack matrix and blast radius", E20Tenancy},
	{"E21", "Split-brain safety: asymmetric partitions, gray failures, and the client-history audit", E21SplitBrain},
}

// IDs lists all experiment identifiers in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by id.
func Run(id string) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(), nil
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
}

// --- shared scenario plumbing ---

// machineKind names the three machine configurations under comparison.
type machineKind int

const (
	kindDecentralized machineKind = iota
	kindCentralDirect
	kindCentralMediated
)

func (k machineKind) label() string {
	switch k {
	case kindDecentralized:
		return "decentralized (paper)"
	case kindCentralDirect:
		return "centralized ctl, P2P data"
	default:
		return "kernel-mediated data"
	}
}

func (k machineKind) flavor() core.Flavor {
	if k == kindDecentralized {
		return core.Decentralized
	}
	return core.Centralized
}

// kvsRig is a booted machine with one ready KVS store.
type kvsRig struct {
	sys   *core.System
	store *kvs.Store
}

// boot builds and boots a machine, then creates each named empty file on
// its first SSD (CreateFile mounts it for a kernel too). It panics on
// failure: an experiment's machines are fixed, so one that does not boot
// is a bug.
func boot(opts core.Options, files ...string) *core.System {
	sys := core.MustNew(opts)
	if err := sys.Boot(); err != nil {
		panic(fmt.Sprintf("exp: boot: %v", err))
	}
	for _, f := range files {
		if err := sys.CreateFile(f, nil); err != nil {
			panic(fmt.Sprintf("exp: create %s: %v", f, err))
		}
	}
	return sys
}

// newKVSRig assembles, boots and readies a KVS machine. opts customizes
// the system options after defaults are applied.
func newKVSRig(kind machineKind, seed uint64, tweak func(*core.Options), kvsTweak func(*core.KVSOptions)) *kvsRig {
	opts := core.Options{Flavor: kind.flavor(), Seed: seed, NoTrace: true}
	if tweak != nil {
		tweak(&opts)
	}
	sys := boot(opts, "kv.dat")
	ko := core.KVSOptions{App: 1, File: "kv.dat", QueueEntries: 128, Mediated: kind == kindCentralMediated}
	if kvsTweak != nil {
		kvsTweak(&ko)
	}
	store := sys.NewKVS(ko)
	if err := sys.WaitReady(store); err != nil {
		panic(fmt.Sprintf("exp: ready: %v", err))
	}
	return &kvsRig{sys: sys, store: store}
}

// preload inserts n keys of valSize bytes via a closed loop. Its Rand
// is forked though the keys go in order: the fork advances the machine's
// Rand, and every later fork depends on it.
func (r *kvsRig) preload(n, valSize int) {
	netsim.Run(r.sys.Eng, r.target(), netsim.Spec{
		Workers: 8, PerWorker: (n + 7) / 8, Keys: keySet(keyName, n), Pick: netsim.Sequential,
		Ops: netsim.Puts, ValueSize: valSize, Rand: r.sys.Rand.Fork(),
	})
}

func keyName(i int) string { return fmt.Sprintf("key-%05d", i) }

// keySet is a load's key pool: name(0) to name(n-1).
func keySet(name func(int) string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = name(i)
	}
	return keys
}

// target returns the NIC network edge for app 1.
func (r *kvsRig) target() netsim.Edge {
	return netsim.Edge{NIC: r.sys.NIC(), App: r.store.AppID()}
}

// getLoad runs a closed-loop uniform-get workload and returns its stats.
func (r *kvsRig) getLoad(workers, perWorker, keys int) netsim.Stats {
	return netsim.Run(r.sys.Eng, r.target(), netsim.Spec{
		Workers: workers, PerWorker: perWorker, Keys: keySet(keyName, keys), Rand: r.sys.Rand.Fork(),
	})
}

// appID is a convenience for msg.AppID construction in loops.
func appID(i int) msg.AppID { return msg.AppID(i) }

// baseApp is what every harness app shares: its id, echo, no PeerFailed.
type baseApp struct{ id msg.AppID }

func (a *baseApp) AppID() msg.AppID                          { return a.id }
func (a *baseApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }
func (a *baseApp) PeerFailed(msg.DeviceID)                   {}
