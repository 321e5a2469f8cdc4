// kvstore runs the paper's motivating workload at scale on both machine
// flavors: a KVS offloaded to the smart NIC, values on the smart SSD,
// driven by simulated network clients with Zipf-distributed keys — then
// prints throughput and latency for the decentralized machine, the
// centralized-control baseline, and the fully kernel-mediated stack.
package main

import (
	"fmt"
	"log"

	"nocpu/internal/core"
	"nocpu/internal/kvs"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

const (
	numKeys   = 512
	valueSize = 512
	getRatio  = 0.9
)

func runFlavor(flavor core.Flavor, mediated bool) netsim.Stats {
	sys := core.MustNew(core.Options{Flavor: flavor, Seed: 7, NoTrace: true})
	if err := sys.Boot(); err != nil {
		log.Fatal(err)
	}
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		log.Fatal(err)
	}
	store := sys.NewKVS(core.KVSOptions{App: 1, File: "kv.dat", Mediated: mediated, QueueEntries: 128})
	if err := sys.WaitReady(store); err != nil {
		log.Fatal(err)
	}

	// Preload keys with a closed loop.
	preload := &netsim.ClosedLoop{
		Eng: sys.Eng, Rand: sys.Rand.Fork(), Workers: 8, PerWorker: numKeys / 8,
		Gen: func(r *sim.Rand, seq uint64) []byte {
			return kvs.EncodeRequest(kvs.Request{
				Op: kvs.OpPut, Key: fmt.Sprintf("key-%04d", seq), Value: make([]byte, valueSize),
			})
		},
		Target: func(p []byte, reply func([]byte)) { sys.NIC().Deliver(1, p, reply) },
	}
	loaded := false
	preload.Run(func() { loaded = true })
	for !loaded {
		sys.Eng.RunFor(sim.Millisecond)
	}

	// Measured phase: 90% gets / 10% puts, Zipf keys.
	zipf := sim.NewZipf(sys.Rand.Fork(), numKeys, 0.99)
	wl := &netsim.ClosedLoop{
		Eng: sys.Eng, Rand: sys.Rand.Fork(), Workers: 16, PerWorker: 500,
		Gen: func(r *sim.Rand, seq uint64) []byte {
			key := fmt.Sprintf("key-%04d", zipf.Next())
			if r.Float64() < getRatio {
				return kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
			}
			return kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: make([]byte, valueSize)})
		},
		IsError: func(b []byte) bool {
			r, err := kvs.DecodeResponse(b)
			return err != nil || r.Status != kvs.StatusOK
		},
		Target: func(p []byte, reply func([]byte)) { sys.NIC().Deliver(1, p, reply) },
	}
	finished := false
	wl.Run(func() { finished = true })
	for !finished {
		sys.Eng.RunFor(sim.Millisecond)
	}
	return wl.Stats()
}

func main() {
	type row struct {
		name     string
		flavor   core.Flavor
		mediated bool
	}
	rows := []row{
		{"decentralized (paper)", core.Decentralized, false},
		{"centralized control, P2P data", core.Centralized, false},
		{"kernel-mediated data path", core.Centralized, true},
	}
	fmt.Printf("%-32s %12s %10s %10s %10s\n", "machine", "ops/s", "p50", "p99", "errors")
	for _, r := range rows {
		st := runFlavor(r.flavor, r.mediated)
		fmt.Printf("%-32s %12.0f %10v %10v %10d\n",
			r.name, st.Throughput(), st.Latency.P50(), st.Latency.P99(), st.Errors)
	}
}
