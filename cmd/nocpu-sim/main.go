// nocpu-sim boots an emulated machine, runs the paper's §3 key-value
// store scenario, and prints the full control-plane trace — the emulator
// §2.4 of "The Last CPU" calls for, as a command.
//
// Usage:
//
//	nocpu-sim                     # decentralized machine, short KVS run
//	nocpu-sim -flavor central     # centralized-CPU baseline
//	nocpu-sim -ops 100 -trace=false
package main

import (
	"flag"
	"fmt"
	"log"

	"nocpu/internal/core"
	"nocpu/internal/kvs"
	"nocpu/internal/sim"
)

func main() {
	var (
		flavorFlag = flag.String("flavor", "decentralized", "machine flavor: decentralized | central | mediated")
		ops        = flag.Int("ops", 10, "KVS operations to run")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		showTrace  = flag.Bool("trace", true, "print the bus trace")
	)
	flag.Parse()

	flavor := core.Decentralized
	mediated := false
	switch *flavorFlag {
	case "decentralized":
	case "central":
		flavor = core.Centralized
	case "mediated":
		flavor = core.Centralized
		mediated = true
	default:
		log.Fatalf("unknown flavor %q", *flavorFlag)
	}

	sys := core.MustNew(core.Options{Flavor: flavor, Seed: *seed})
	if err := sys.Boot(); err != nil {
		log.Fatal(err)
	}
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		log.Fatal(err)
	}
	store := sys.NewKVS(core.KVSOptions{App: 1, File: "kv.dat", Mediated: mediated})
	if err := sys.WaitReady(store); err != nil {
		log.Fatal(err)
	}

	do := func(req kvs.Request) kvs.Response {
		var resp kvs.Response
		done := false
		sys.NIC().Deliver(1, kvs.EncodeRequest(req), func(b []byte) {
			resp, _ = kvs.DecodeResponse(b)
			done = true
		})
		for !done {
			sys.Eng.RunFor(20 * sim.Microsecond)
		}
		return resp
	}

	for i := 0; i < *ops; i++ {
		key := fmt.Sprintf("key-%03d", i)
		do(kvs.Request{Op: kvs.OpPut, Key: key, Value: []byte(fmt.Sprintf("value-%03d", i))})
	}
	hits := 0
	for i := 0; i < *ops; i++ {
		if r := do(kvs.Request{Op: kvs.OpGet, Key: fmt.Sprintf("key-%03d", i)}); r.Status == kvs.StatusOK {
			hits++
		}
	}
	fmt.Printf("machine: %s (mediated=%v)\n", flavor, mediated)
	fmt.Printf("%d puts, %d/%d gets served; virtual time %v\n", *ops, hits, *ops, sys.Eng.Now())
	st := store.Stats()
	fmt.Printf("store stats: %+v\n", st)
	fmt.Printf("bus stats: %+v\n", sys.Bus.Stats())
	fmt.Printf("fabric stats: %+v\n", sys.Fabric.Stats())

	if *showTrace && sys.Tracer != nil {
		fmt.Println("\n-- control-plane trace --")
		fmt.Print(sys.Tracer.String())
	}
}
