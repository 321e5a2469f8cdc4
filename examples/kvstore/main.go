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
	nic := netsim.Edge{NIC: sys.NIC(), App: 1}
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	netsim.Run(sys.Eng, nic, netsim.Spec{
		Workers: 8, PerWorker: numKeys / 8, Keys: keys, Pick: netsim.Sequential,
		Ops: netsim.Puts, ValueSize: valueSize, Rand: sys.Rand.Fork(),
	})

	// Measured phase: 90% gets / 10% puts, Zipf keys.
	zipf := sim.NewZipf(sys.Rand.Fork(), numKeys, 0.99)
	return netsim.Run(sys.Eng, nic, netsim.Spec{
		Workers: 16, PerWorker: 500, Keys: keys, Zipf: zipf,
		Ops: netsim.Mixed, GetShare: getRatio, ValueSize: valueSize, Rand: sys.Rand.Fork(),
	})
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
			r.name, st.Throughput(), st.Latency.P50(), st.Latency.P99(), st.Errors())
	}
}
