package core

import (
	"testing"

	"nocpu/internal/device"
)

// TestEveryDeviceInstallsRecoveryHooks asserts that every package which
// constructs a device.Device with soft state of its own wires a non-nil
// OnReset handler. A device without one silently keeps its pre-crash soft
// state across a bus Reset, which breaks the rejoin protocol's contract
// (the new incarnation must start from StateQuery/StateResp
// reconciliation, not stale memory) — exactly the class of bug the E15
// chaos harness exists to catch. The accelerator's only soft state is its
// sessions, which the chassis itself ends on a kill or reset (device's
// TestChassisEndsSessions), so it wires none.
func TestEveryDeviceInstallsRecoveryHooks(t *testing.T) {
	for _, flavor := range []Flavor{Decentralized, Centralized} {
		flavor := flavor
		name := map[Flavor]string{Decentralized: "decentralized", Centralized: "centralized"}[flavor]
		t.Run(name, func(t *testing.T) {
			sys := MustNew(Options{
				Flavor:    flavor,
				Seed:      1,
				NoTrace:   true,
				ExtraSSDs: 1,
				ExtraNICs: 1,
				WithAccel: true,
			})
			if err := sys.Boot(); err != nil {
				t.Fatal(err)
			}

			devs := map[string]*device.Device{}
			for i, ssd := range sys.SSDs {
				devs[ssd.Device().Name()] = ssd.Device()
				_ = i
			}
			for _, nic := range sys.NICs {
				devs[nic.Device().Name()] = nic.Device()
			}
			if sys.Accel != nil {
				devs[sys.Accel.Device().Name()] = sys.Accel.Device()
			}
			if sys.Memctrl != nil {
				devs[sys.Memctrl.Device().Name()] = sys.Memctrl.Device()
			}

			// Every device-constructing package must be represented, so a
			// new device type cannot dodge this test unnoticed.
			wantAtLeast := 5 // 2 SSDs + 2 NICs + accel
			if flavor == Decentralized {
				wantAtLeast++ // + memctrl
			}
			if len(devs) < wantAtLeast {
				t.Fatalf("only %d devices under test, want >= %d: %v", len(devs), wantAtLeast, keys(devs))
			}

			// OnAlive is optional (the device lifecycle itself re-sends
			// Hello with the configured services); OnReset is not.
			for name, d := range devs {
				if d.OnReset == nil && d != sys.Accel.Device() {
					t.Errorf("%s: OnReset is nil — device cannot recover from a crash", name)
				}
			}
		})
	}
}

func keys(m map[string]*device.Device) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
