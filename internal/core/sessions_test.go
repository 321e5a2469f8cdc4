package core

import (
	"bytes"
	"testing"

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
