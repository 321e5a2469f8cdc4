// maintenance demonstrates §4's "System Maintenance": the CPU-less machine
// has no local console, so an operator manages it over the network through
// an admin console app on the smart NIC, which checks the operator's token,
// reads the KVS log off the smart SSD and forwards uploads to its loader.
package main

import (
	"fmt"
	"log"

	"nocpu/internal/admin"
	"nocpu/internal/core"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

const (
	consoleApp    msg.AppID = 2
	operatorToken           = 0xAD417
	loaderToken             = 0x10AD
)

var statusName = []string{admin.StatusOK: "ok", admin.StatusAuthFailed: "auth failed",
	admin.StatusUnavailable: "unavailable", admin.StatusError: "error"}

func main() {
	opts := core.Options{Flavor: core.Decentralized, Seed: 4}
	opts.SSD.LoaderToken = loaderToken
	sys := core.MustNew(opts)
	if err := sys.Boot(); err != nil {
		log.Fatal(err)
	}
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		log.Fatal(err)
	}
	store := sys.NewKVS(core.KVSOptions{App: 1, File: "kv.dat"})
	if err := sys.WaitReady(store); err != nil {
		log.Fatal(err)
	}
	console := admin.New(admin.Config{App: consoleApp, Token: operatorToken, LogFile: "kv.dat",
		Memctrl: core.ControlID, Loader: core.FirstSSD, LoaderToken: loaderToken})
	sys.NIC().AddApp(console)
	runUntil := func(done func() bool) {
		for deadline := sys.Eng.Now().Add(sim.Second); !done() && sys.Eng.Now() < deadline; {
			sys.Eng.RunFor(10 * sim.Microsecond)
		}
	}
	runUntil(console.Ready)

	// The operator, on another machine, reaches both apps at the NIC's edge.
	call := func(app msg.AppID, req []byte) []byte {
		var resp []byte
		sys.NIC().Deliver(app, req, func(b []byte) { resp = b })
		runUntil(func() bool { return resp != nil })
		return resp
	}
	call(store.AppID(), kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: "motd", Value: []byte("no CPU was harmed")}))
	operator := func(what string, req admin.Request) admin.Response {
		r, err := admin.DecodeResponse(call(consoleApp, admin.EncodeRequest(req)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %s\n", what+":", statusName[r.Status])
		return r
	}

	operator("ping, wrong token", admin.Request{Op: admin.OpPing, Token: 0xBAD})
	operator("ping", admin.Request{Op: admin.OpPing, Token: operatorToken})
	st := operator("stat log", admin.Request{Op: admin.OpStatLog, Token: operatorToken})
	fmt.Printf("  log is %d bytes\n", st.Size)
	tail := operator("tail log", admin.Request{Op: admin.OpTailLog, Token: operatorToken, N: 17})
	fmt.Printf("  last 17 bytes: %q\n", tail.Data)
	operator("upload fw.bin", admin.Request{Op: admin.OpUpload, Token: operatorToken, Name: "fw.bin", Data: make([]byte, 6000)})
	if f, ok := sys.SSD().FS().Lookup("fw.bin"); ok {
		fmt.Printf("  fw.bin on the volume: %d bytes\n", f.Size())
	}
	fmt.Printf("console served %d commands, refused %d\n", console.Served, console.AuthFailures)
	fmt.Printf("virtual time elapsed: %v\n", sys.Eng.Now())
}
