package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/interconnect"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/smartssd"
)

// sessionKinds are the three machines a file session runs on: opened at
// the SSD, or through the kernel with the queue peer-to-peer or the
// kernel's own.
var sessionKinds = []struct {
	name     string
	flavor   Flavor
	mediated bool
}{
	{"decentralized", Decentralized, false},
	{"central-direct", Centralized, false},
	{"central-mediated", Centralized, true},
}

// createOn creates an empty file on ssd and, on a machine with a kernel,
// mounts it in the kernel's registry.
func createOn(t *testing.T, s *System, ssd *smartssd.SSD, name string) {
	t.Helper()
	done := false
	ssd.FS().Create(name, func(_ *smartssd.File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	for deadline := s.Eng.Now().Add(sim.Second); !done && s.Eng.Now() < deadline; {
		s.advance(100 * sim.Microsecond)
	}
	if !done {
		t.Fatalf("create %q did not complete", name)
	}
	if s.CPU != nil {
		s.CPU.RegisterFile(name, ssd.Device().ID())
	}
}

// readFile reads a whole file back from its SSD.
func readFile(t *testing.T, s *System, ssd *smartssd.SSD, name string) []byte {
	t.Helper()
	f, ok := ssd.FS().Lookup(name)
	if !ok {
		t.Fatalf("no file %q", name)
	}
	var data []byte
	done := false
	f.ReadAt(0, int(f.Size()), func(b []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		data, done = b, true
	})
	for deadline := s.Eng.Now().Add(sim.Second); !done && s.Eng.Now() < deadline; {
		s.advance(100 * sim.Microsecond)
	}
	if !done {
		t.Fatalf("read of %q did not complete", name)
	}
	return data
}

// Only the opener closes an instance, on every machine: a CloseReq that
// names a store's connection from another app on the store's NIC is
// refused, and the store goes on serving.
func TestCloseByAnotherAppRefused(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			s := bootSystem(t, Options{Flavor: k.flavor})
			if err := s.CreateFile("kv.dat", nil); err != nil {
				t.Fatal(err)
			}
			store := s.NewKVS(KVSOptions{App: 10, File: "kv.dat", Mediated: k.mediated})
			if err := s.WaitReady(store); err != nil {
				t.Fatal(err)
			}
			provider, service := FirstSSD, "file:kv.dat"
			if s.CPU != nil {
				provider = ControlID
			}
			if k.mediated {
				service = "mediated:kv.dat"
			}
			var resp *msg.CloseResp
			nic := s.NIC().Device()
			nic.Handle(msg.KindCloseResp, func(e msg.Envelope) { resp = e.Msg.(*msg.CloseResp) })
			// The store's connection is the first its provider numbered.
			nic.Send(provider, &msg.CloseReq{Service: service, ConnID: 1, App: 11})
			s.Eng.RunFor(sim.Millisecond)
			if resp == nil || resp.OK {
				t.Fatalf("close of app 10's connection by app 11 answered %+v, want a refusal", resp)
			}
			if r := kvsOp(t, s, store, kvs.Request{Op: kvs.OpPut, Key: "k", Value: []byte("v")}); r.Status != kvs.StatusOK {
				t.Fatalf("put after the refused close: %+v", r)
			}
		})
	}
}

// Two SSDs number their connections independently, so two apps on one
// NIC that open files on both at once are each given a ConnID of the same
// value. Every answer must still reach its own app: the NIC keys a
// connect and a close by the provider too, and the kernel answers under
// IDs of its own. Both stores come up, and each file holds its own put.
func TestOpensOnTwoSSDsAtOnce(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			s := bootSystem(t, Options{Flavor: k.flavor, ExtraSSDs: 1})
			createOn(t, s, s.SSDs[0], "a.dat")
			createOn(t, s, s.SSDs[1], "b.dat")
			// Queues of 32 and 16 entries put the two decentralized
			// connects in flight together; through the kernel they are
			// anyway.
			a := s.NewKVS(KVSOptions{App: 20, File: "a.dat", Mediated: k.mediated, QueueEntries: 32})
			b := s.NewKVS(KVSOptions{App: 21, File: "b.dat", Mediated: k.mediated, QueueEntries: 16})
			for deadline := s.Eng.Now().Add(500 * sim.Millisecond); !(a.Ready() && b.Ready()) && s.Eng.Now() < deadline; {
				s.advance(100 * sim.Microsecond)
			}
			if !a.Ready() || !b.Ready() {
				t.Fatalf("after 500ms: app 20 ready %v, app 21 ready %v", a.Ready(), b.Ready())
			}
			for _, put := range []struct {
				store *kvs.Store
				value string
			}{{a, "value-of-20"}, {b, "value-of-21"}} {
				if r := kvsOp(t, s, put.store, kvs.Request{Op: kvs.OpPut, Key: "k", Value: []byte(put.value)}); r.Status != kvs.StatusOK {
					t.Fatalf("app %d put: %+v", put.store.AppID(), r)
				}
			}
			for _, f := range []struct {
				ssd        *smartssd.SSD
				name       string
				own, other string
			}{{s.SSDs[0], "a.dat", "value-of-20", "value-of-21"}, {s.SSDs[1], "b.dat", "value-of-21", "value-of-20"}} {
				data := readFile(t, s, f.ssd, f.name)
				if !bytes.Contains(data, []byte(f.own)) || bytes.Contains(data, []byte(f.other)) {
					t.Errorf("%s holds %q, want its own put %q only", f.name, data, f.own)
				}
			}
		})
	}
}

// Both queue placements read the SSD's quote at the 128-entry ring it was
// made for, so a file opened kernel-direct has the cells of one opened
// decentralized at any ring size, and the two stores compare like for
// like.
func TestQueuePlacementsShareCellGeometry(t *testing.T) {
	for _, entries := range []uint16{32, 64} {
		maxIO := map[smartnic.Placement]int{}
		for _, k := range []struct {
			flavor Flavor
			p      smartnic.Placement
		}{{Decentralized, smartnic.Decentralized}, {Centralized, smartnic.KernelDirect}} {
			s := bootSystem(t, Options{Flavor: k.flavor})
			createOn(t, s, s.SSDs[0], "g.dat")
			app := &regionApp{}
			s.NIC().AddApp(app)
			s.advance(sim.Millisecond)
			done := false
			app.rt.OpenFile(k.p, ControlID, "g.dat", 0, entries, func(f smartnic.FileAPI, err error) {
				if err != nil {
					t.Fatalf("%v open at %d entries: %v", k.flavor, entries, err)
				}
				maxIO[k.p], done = f.MaxIO(), true
			})
			for deadline := s.Eng.Now().Add(sim.Second); !done && s.Eng.Now() < deadline; {
				s.advance(100 * sim.Microsecond)
			}
			if !done {
				t.Fatalf("%v open at %d entries did not complete", k.flavor, entries)
			}
		}
		if direct, dec := maxIO[smartnic.KernelDirect], maxIO[smartnic.Decentralized]; direct != dec {
			t.Errorf("at %d entries: kernel-direct MaxIO %d, decentralized %d", entries, direct, dec)
		}
	}
}

// registered reports whether bell still reaches a handler, and leaves it as
// it found it.
func registered(fab *interconnect.Fabric, bell interconnect.DoorbellAddr) (held bool) {
	defer func() { held = recover() != nil }()
	fab.RegisterDoorbell(bell, func(uint64) {})
	fab.UnregisterDoorbell(bell)
	return false
}

// Every placement lives through one faulted session message. For each kind
// of the open, connect and close and each device that sends it on some
// placement (the NIC to its provider, the kernel to the SSD and back, the
// SSD), the first such message is dropped or duplicated while an app opens
// a file and closes it again. The open answers once, OK or with a typed
// error; physical memory comes back to where a fault-free first cycle left
// it; no doorbell the cycle allocated stays registered. One case stays, and
// is pinned here: the kernel sends the SSD its CloseReq once, without a
// retry of its own, so when that one is dropped the SSD keeps the session
// and its request doorbell.
func TestOneFaultedSessionMessage(t *testing.T) {
	placements := map[string]smartnic.Placement{
		"decentralized": smartnic.Decentralized, "central-direct": smartnic.KernelDirect, "central-mediated": smartnic.KernelMediated,
	}
	kinds := []msg.Kind{msg.KindOpenReq, msg.KindOpenResp, msg.KindConnectReq, msg.KindConnectResp, msg.KindCloseReq, msg.KindCloseResp}
	for _, k := range sessionKinds {
		faulted := 0
		for _, kind := range kinds {
			for _, src := range []msg.DeviceID{ControlID, FirstSSD, FirstSSD + 1} {
				for _, op := range []faultinject.Op{faultinject.Drop, faultinject.Dup} {
					name := fmt.Sprintf("%s/%v from %d/%v", k.name, kind, src, op)
					stuck := 0
					if k.flavor == Centralized && kind == msg.KindCloseReq && src == ControlID && op == faultinject.Drop {
						stuck = 1 // the SSD's request doorbell
					}
					if faultedCycle(t, name, k.flavor, placements[k.name], faultinject.Rule{Layer: faultinject.LayerBus, Kind: kind, Src: src, Op: op, Count: 1}, stuck) {
						faulted++
					}
				}
			}
		}
		// Two faults for each kind and sender the placement has: the NIC's
		// three requests and the SSD's answers; through the kernel, both
		// sides of it, less the connect the mediated app never sends.
		if want := map[string]int{"decentralized": 12, "central-direct": 24, "central-mediated": 20}[k.name]; faulted != want {
			t.Errorf("%s: %d cases met their fault, want %d", k.name, faulted, want)
		}
	}
}

// faultedCycle boots a machine, runs one fault-free open-close cycle of a
// file at placement p, then one more under rule, and judges the second. It
// reports whether the rule met a message.
func faultedCycle(t *testing.T, name string, flavor Flavor, p smartnic.Placement, rule faultinject.Rule, stuck int) bool {
	t.Helper()
	s := bootSystem(t, Options{Flavor: flavor, NoTrace: true})
	createOn(t, s, s.SSD(), "f.dat")
	app := &regionApp{}
	s.NIC().AddApp(app)
	s.Eng.Run()
	cycle := func() (answers int, openErr error) {
		var f smartnic.FileAPI
		app.rt.OpenFile(p, ControlID, "f.dat", 0, 16, func(fa smartnic.FileAPI, err error) {
			answers++
			f, openErr = fa, err
		})
		s.Eng.Run()
		if f != nil {
			f.Close(func(error) {})
			s.Eng.Run()
		}
		return answers, openErr
	}
	if n, err := cycle(); n != 1 || err != nil {
		t.Fatalf("%s: the fault-free cycle answered %d times, err %v", name, n, err)
	}
	allocated := s.Mem.AllocatedBytes()
	probe := func(uint64) {}
	first := s.Fabric.AllocDoorbell(probe)
	plane := faultinject.New(1)
	plane.Add(rule)
	s.Bus.SetFaultPlane(plane)
	n, err := cycle()
	if st := plane.Stats(); st.Dropped+st.Duped == 0 {
		return false
	}
	var timeout *smartnic.TimeoutError
	if n != 1 || (err != nil && !errors.As(err, &timeout)) {
		t.Errorf("%s: the open answered %d times, err %v", name, n, err)
	}
	if got := s.Mem.AllocatedBytes(); got != allocated {
		t.Errorf("%s: %d bytes allocated after the cycle, want %d", name, got, allocated)
	}
	held := 0
	for bell, last := first+1, s.Fabric.AllocDoorbell(probe); bell < last; bell++ {
		if registered(s.Fabric, bell) {
			held++
		}
	}
	if held != stuck {
		t.Errorf("%s: %d doorbells of the cycle still registered, want %d", name, held, stuck)
	}
	return true
}
