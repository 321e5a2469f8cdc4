package iommu

// Adversarial negative tests: the translations an attacker would need
// must fault to the owning device and never produce a physical address.
// Each case sets up a legitimate mapping landscape and then drives one
// hostile access; the table asserts both the refusal and its typed
// reason, because a wrong reason means the wrong enforcement point
// caught it.

import (
	"errors"
	"fmt"
	"testing"

	"nocpu/internal/physmem"
)

func TestAdversarialTranslations(t *testing.T) {
	cases := []struct {
		name   string
		setup  func(t *testing.T, u *IOMMU, mem *physmem.Memory)
		pasid  PASID
		va     VirtAddr
		access Access
		reason FaultReason
	}{
		{
			// Out-of-domain walk: the attacker's own PASID walks a VA
			// only the victim's PASID maps. Disjoint page-table roots
			// mean the walk finds nothing — not the victim's frame.
			name: "out-of-domain walk",
			setup: func(t *testing.T, u *IOMMU, mem *physmem.Memory) {
				mustCreate(t, u, 1) // victim
				mustCreate(t, u, 2) // attacker
				f := mustAlloc(t, mem, 1)
				if err := u.Map(1, 0x4000, f, PermRW); err != nil {
					t.Fatal(err)
				}
			},
			pasid: 2, va: 0x4000, access: AccessRead,
			reason: FaultNotPresent,
		},
		{
			// Permission-bit mismatch: a read-only grant does not admit
			// writes, even for the PASID that legitimately holds it.
			name: "permission-bit mismatch",
			setup: func(t *testing.T, u *IOMMU, mem *physmem.Memory) {
				mustCreate(t, u, 1)
				f := mustAlloc(t, mem, 1)
				if err := u.Map(1, 0x8000, f, AccessRead); err != nil {
					t.Fatal(err)
				}
			},
			pasid: 1, va: 0x8000, access: AccessWrite,
			reason: FaultPermission,
		},
		{
			// Same mismatch through a warm TLB: the permission check
			// must hold on the hit path too, not only on walks.
			name: "permission-bit mismatch (TLB hit)",
			setup: func(t *testing.T, u *IOMMU, mem *physmem.Memory) {
				mustCreate(t, u, 1)
				f := mustAlloc(t, mem, 1)
				if err := u.Map(1, 0x8000, f, AccessRead); err != nil {
					t.Fatal(err)
				}
				if _, _, err := u.Translate(1, 0x8000, AccessRead); err != nil {
					t.Fatal(err) // warm the TLB with the legitimate read
				}
			},
			pasid: 1, va: 0x8000, access: AccessWrite,
			reason: FaultPermission,
		},
		{
			// Huge-page boundary straddle: a huge mapping ends exactly at
			// the next 2 MiB boundary; the first byte past it must fault,
			// not fall through into whatever frame run follows the huge
			// page's backing store.
			name: "huge-page boundary straddle",
			setup: func(t *testing.T, u *IOMMU, mem *physmem.Memory) {
				mustCreate(t, u, 1)
				f := mustAlloc(t, mem, HugeFrames)
				if err := u.install(1, VirtAddr(HugePageSize), f, PermRW, &leaf2M); err != nil {
					t.Fatal(err)
				}
				// Warm the TLB inside the huge page so the straddling
				// access is tempted by a resident neighbor entry.
				if _, _, err := u.Translate(1, VirtAddr(2*HugePageSize-1), AccessRead); err != nil {
					t.Fatal(err)
				}
			},
			pasid: 1, va: VirtAddr(2 * HugePageSize), access: AccessRead,
			reason: FaultNotPresent,
		},
		{
			// Unknown PASID: an attacker guessing address-space handles.
			name:  "unknown pasid",
			setup: func(t *testing.T, u *IOMMU, mem *physmem.Memory) {},
			pasid: 9, va: 0x1000, access: AccessRead,
			reason: FaultBadPASID,
		},
		{
			// Past the end of the translatable range.
			name: "out-of-range va",
			setup: func(t *testing.T, u *IOMMU, mem *physmem.Memory) {
				mustCreate(t, u, 1)
			},
			pasid: 1, va: MaxVirtAddr, access: AccessRead,
			reason: FaultOutOfRange,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u, mem := newTestIOMMU(t, 4096, DefaultConfig)
			tc.setup(t, u, mem)
			pa, _, err := u.Translate(tc.pasid, tc.va, tc.access)
			if err == nil {
				t.Fatalf("hostile access translated to pa %#x", uint64(pa))
			}
			var fault *Fault
			if !errors.As(err, &fault) {
				t.Fatalf("refusal is not a typed *Fault: %v", err)
			}
			// The fault names the offending access, so the owning device
			// can attribute it.
			if fault.Reason != tc.reason || fault.PASID != tc.pasid || fault.Addr != tc.va {
				t.Fatalf("fault = %+v, want reason %v pasid %d va %#x",
					fault, tc.reason, tc.pasid, uint64(tc.va))
			}
		})
	}
}

// TestDomainCheckRefusesForeignContexts exercises the tenancy hook: a
// domain check installed on the device's IOMMU refuses contexts and
// mappings for PASIDs outside the device's tenant — including mappings
// attempted through a directly held handle, the compromised-kernel path.
func TestDomainCheckRefusesForeignContexts(t *testing.T) {
	u, mem := newTestIOMMU(t, 4096, DefaultConfig)
	mustCreate(t, u, 7) // created before the check: legacy context
	denied := errors.New("cross-tenant")
	u.SetDomainCheck(func(p PASID) error {
		if p >= 100 {
			return fmt.Errorf("pasid %d: %w", p, denied)
		}
		return nil
	})

	if err := u.CreateContext(100); !errors.Is(err, denied) {
		t.Fatalf("foreign CreateContext: %v, want domain denial", err)
	}
	if err := u.CreateContext(8); err != nil {
		t.Fatalf("in-domain CreateContext: %v", err)
	}

	// A compromised kernel holding the handle maps into a pre-existing
	// context: the per-mapping check still refuses.
	u.SetDomainCheck(func(p PASID) error { return fmt.Errorf("pasid %d: %w", p, denied) })
	f := mustAlloc(t, mem, 1)
	if err := u.Map(7, 0x4000, f, PermRW); !errors.Is(err, denied) {
		t.Fatalf("foreign Map: %v, want domain denial", err)
	}
	fh := mustAlloc(t, mem, HugeFrames)
	if err := u.install(7, VirtAddr(HugePageSize), fh, PermRW, &leaf2M); !errors.Is(err, denied) {
		t.Fatalf("foreign huge map: %v, want domain denial", err)
	}
	if got := u.Stats().DomainDenials; got != 3 {
		t.Fatalf("DomainDenials = %d, want 3", got)
	}

	// Uninstalling restores the legacy behavior.
	u.SetDomainCheck(nil)
	if err := u.Map(7, 0x4000, f, PermRW); err != nil {
		t.Fatalf("post-uninstall Map: %v", err)
	}
}

func mustCreate(t *testing.T, u *IOMMU, p PASID) {
	t.Helper()
	if err := u.CreateContext(p); err != nil {
		t.Fatal(err)
	}
}

func mustAlloc(t *testing.T, mem *physmem.Memory, n int) physmem.Frame {
	t.Helper()
	f, err := mem.AllocFrames(n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
