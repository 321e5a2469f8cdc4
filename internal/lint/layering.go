package lint

import (
	"sort"
	"strconv"
	"strings"

	"nocpu/internal/lint/analysis"
)

// Layering machine-enforces the package architecture, in particular the
// paper's §2 decentralization boundary: self-managing devices cooperate
// only through the management-bus vocabulary (msg) and shared
// infrastructure (sim, trace, bus, interconnect, virtio, iommu), and
// never reach into the centralized-baseline kernel (centralos) or the
// experiment harness (exp). The full module DAG below is data: every
// in-module import must appear in its package's allowlist, so adding an
// edge is a reviewed, one-line decision here rather than an accident.
//
// Test files are exempt — tests may wire up whatever harness they need.
var Layering = &analysis.Analyzer{
	Name: "layering",
	Doc:  "enforce the package architecture DAG and the §2 decentralization boundary",
	Run:  runLayering,
}

// layerDAG maps each module package to the in-module imports it is
// allowed. The tiers, bottom-up:
//
//	leaves   msg, sim, physmem            (import nothing in-module)
//	infra    trace, metrics, iommu, faultinject, chaos, interconnect,
//	         virtio, bus
//	devices  device, smartssd, smartnic, memctrl, accel
//	kernel   centralos                    (baseline; may drive smartssd, runs memctrl's table)
//	apps     kvs, admin
//	clients  netsim, overload             (the KVS load client and its ramp ledger)
//	wiring   core
//	harness  exp
//	mains    cmd/*, examples/*
//
// Keep allowlists tight: list what a package imports today, not what it
// might want someday. Widening an entry is the reviewed way to add an
// edge.
var layerDAG = map[string][]string{
	"nocpu": {},

	// Leaves.
	"nocpu/internal/msg":     {},
	"nocpu/internal/sim":     {},
	"nocpu/internal/physmem": {},

	// Infrastructure.
	"nocpu/internal/trace":       {"nocpu/internal/sim"},
	"nocpu/internal/metrics":     {"nocpu/internal/sim"},
	"nocpu/internal/iommu":       {"nocpu/internal/physmem"},
	"nocpu/internal/faultinject": {"nocpu/internal/msg", "nocpu/internal/sim"},
	"nocpu/internal/linearize":   {"nocpu/internal/sim"},
	"nocpu/internal/chaos":       {"nocpu/internal/faultinject", "nocpu/internal/sim"},
	"nocpu/internal/tenant":      {"nocpu/internal/msg", "nocpu/internal/sim"},
	"nocpu/internal/interconnect": {
		"nocpu/internal/faultinject", "nocpu/internal/iommu", "nocpu/internal/metrics",
		"nocpu/internal/msg", "nocpu/internal/physmem", "nocpu/internal/sim",
	},
	"nocpu/internal/virtio": {
		"nocpu/internal/interconnect", "nocpu/internal/iommu",
		"nocpu/internal/physmem", "nocpu/internal/sim",
	},
	"nocpu/internal/bus": {
		"nocpu/internal/faultinject", "nocpu/internal/iommu", "nocpu/internal/metrics",
		"nocpu/internal/msg", "nocpu/internal/physmem", "nocpu/internal/sim",
		"nocpu/internal/tenant", "nocpu/internal/trace",
	},

	// Self-managing devices (§2): bus/infra only, never centralos/exp.
	"nocpu/internal/device": {
		"nocpu/internal/bus", "nocpu/internal/interconnect", "nocpu/internal/iommu",
		"nocpu/internal/msg", "nocpu/internal/sim", "nocpu/internal/trace",
		"nocpu/internal/virtio",
	},
	"nocpu/internal/smartssd": {
		"nocpu/internal/bus", "nocpu/internal/device", "nocpu/internal/interconnect",
		"nocpu/internal/msg", "nocpu/internal/sim", "nocpu/internal/trace",
		"nocpu/internal/virtio",
	},
	"nocpu/internal/smartnic": {
		"nocpu/internal/bus", "nocpu/internal/device", "nocpu/internal/interconnect",
		"nocpu/internal/iommu", "nocpu/internal/metrics", "nocpu/internal/msg",
		"nocpu/internal/physmem", "nocpu/internal/sim", "nocpu/internal/smartssd",
		"nocpu/internal/tenant", "nocpu/internal/trace", "nocpu/internal/virtio",
	},
	"nocpu/internal/memctrl": {
		"nocpu/internal/bus", "nocpu/internal/device", "nocpu/internal/interconnect",
		"nocpu/internal/iommu", "nocpu/internal/msg", "nocpu/internal/physmem",
		"nocpu/internal/sim", "nocpu/internal/trace",
	},
	"nocpu/internal/accel": {
		"nocpu/internal/bus", "nocpu/internal/device", "nocpu/internal/interconnect",
		"nocpu/internal/msg", "nocpu/internal/sim", "nocpu/internal/trace",
		"nocpu/internal/virtio",
	},

	// Centralized baseline kernel: the "traditional stack" the paper
	// argues against. It enrolls through the device chassis's enrollment,
	// runs the memory controller's region table (memctrl.Regions) behind
	// its mmap syscall and drives the SSD directly (kernel-mediated I/O),
	// but must not depend on the self-managing runtime.
	"nocpu/internal/centralos": {
		"nocpu/internal/bus", "nocpu/internal/device", "nocpu/internal/interconnect",
		"nocpu/internal/iommu", "nocpu/internal/memctrl", "nocpu/internal/metrics",
		"nocpu/internal/msg", "nocpu/internal/physmem", "nocpu/internal/sim",
		"nocpu/internal/smartssd", "nocpu/internal/trace", "nocpu/internal/virtio",
	},

	// Applications ride on the NIC runtime.
	"nocpu/internal/kvs": {
		"nocpu/internal/metrics", "nocpu/internal/msg", "nocpu/internal/sim",
		"nocpu/internal/smartnic", "nocpu/internal/tenant",
	},
	"nocpu/internal/admin": {"nocpu/internal/msg", "nocpu/internal/smartnic"},

	// Network clients: the one KVS load client, and the overload ledger
	// built from its stats.
	"nocpu/internal/netsim": {
		"nocpu/internal/chaos", "nocpu/internal/kvs", "nocpu/internal/linearize",
		"nocpu/internal/metrics", "nocpu/internal/msg", "nocpu/internal/sim",
		"nocpu/internal/smartnic",
	},
	"nocpu/internal/overload": {
		"nocpu/internal/kvs", "nocpu/internal/metrics", "nocpu/internal/netsim", "nocpu/internal/sim",
	},

	// Machine wiring.
	"nocpu/internal/core": {
		"nocpu/internal/accel", "nocpu/internal/bus", "nocpu/internal/centralos",
		"nocpu/internal/device", "nocpu/internal/faultinject", "nocpu/internal/interconnect",
		"nocpu/internal/iommu", "nocpu/internal/kvs", "nocpu/internal/memctrl",
		"nocpu/internal/msg", "nocpu/internal/physmem", "nocpu/internal/sim",
		"nocpu/internal/smartnic", "nocpu/internal/smartssd", "nocpu/internal/tenant",
		"nocpu/internal/trace",
	},

	// Seeded malicious device (E20): attaches raw to the bus — no chassis,
	// no runtime — and mounts the attack matrix against the isolation
	// mechanisms. Harness-side tooling, same tier as the apps it probes.
	"nocpu/internal/adversary": {
		"nocpu/internal/bus", "nocpu/internal/iommu", "nocpu/internal/kvs",
		"nocpu/internal/msg", "nocpu/internal/physmem", "nocpu/internal/sim",
		"nocpu/internal/smartnic", "nocpu/internal/tenant",
	},

	// Rack-scale fabric: N machines (core) on one engine, joined by a
	// modeled network, running the sharded/replicated KVS (E17).
	"nocpu/internal/fabric": {
		"nocpu/internal/core", "nocpu/internal/faultinject",
		"nocpu/internal/kvs", "nocpu/internal/msg", "nocpu/internal/sim",
		"nocpu/internal/smartnic", "nocpu/internal/tenant",
	},

	// Fleet reconciliation: level-triggered policy (observe→diff→act)
	// over the fabric's membership/drain mechanisms (E19). Policy rides
	// ABOVE mechanism: reconcile imports fabric, never the reverse.
	"nocpu/internal/reconcile": {
		"nocpu/internal/fabric", "nocpu/internal/msg", "nocpu/internal/sim",
	},

	// Experiment harness.
	"nocpu/internal/exp": {
		"nocpu/internal/adversary", "nocpu/internal/bus", "nocpu/internal/chaos",
		"nocpu/internal/core", "nocpu/internal/fabric", "nocpu/internal/faultinject",
		"nocpu/internal/iommu", "nocpu/internal/kvs", "nocpu/internal/linearize",
		"nocpu/internal/metrics", "nocpu/internal/msg", "nocpu/internal/netsim",
		"nocpu/internal/overload",
		"nocpu/internal/physmem", "nocpu/internal/reconcile", "nocpu/internal/sim",
		"nocpu/internal/smartnic", "nocpu/internal/smartssd", "nocpu/internal/tenant",
		"nocpu/internal/trace",
	},

	// The linter itself (host tooling).
	"nocpu/internal/lint":              {"nocpu/internal/lint/analysis"},
	"nocpu/internal/lint/analysis":     {},
	"nocpu/internal/lint/analysistest": {"nocpu/internal/lint/analysis"},

	// Binaries and examples.
	"nocpu/cmd/nocpu-bench": {"nocpu/internal/exp"},
	"nocpu/cmd/nocpu-sim":   {"nocpu/internal/core", "nocpu/internal/kvs", "nocpu/internal/sim"},
	"nocpu/cmd/nocpu-lint":  {"nocpu/internal/lint", "nocpu/internal/lint/analysis"},
	"nocpu/examples/faulttolerance": {
		"nocpu/internal/core", "nocpu/internal/kvs", "nocpu/internal/sim",
	},
	"nocpu/examples/kvstore": {
		"nocpu/internal/core", "nocpu/internal/netsim", "nocpu/internal/sim",
	},
	"nocpu/examples/maintenance": {
		"nocpu/internal/admin", "nocpu/internal/core", "nocpu/internal/kvs", "nocpu/internal/msg", "nocpu/internal/sim",
	},
	"nocpu/examples/multitenant": {
		"nocpu/internal/core", "nocpu/internal/kvs", "nocpu/internal/msg", "nocpu/internal/sim",
	},
	"nocpu/examples/pipeline": {
		"nocpu/internal/accel", "nocpu/internal/core", "nocpu/internal/msg",
		"nocpu/internal/sim", "nocpu/internal/smartnic",
	},
	"nocpu/examples/quickstart": {
		"nocpu/internal/core", "nocpu/internal/kvs", "nocpu/internal/sim",
	},
}

// deviceTier names the self-managing device packages the §2 boundary
// protects. They get a dedicated diagnostic because this edge is the
// core architectural claim, not a housekeeping rule.
var deviceTier = map[string]bool{
	"nocpu/internal/device":   true,
	"nocpu/internal/smartssd": true,
	"nocpu/internal/smartnic": true,
	"nocpu/internal/memctrl":  true,
	"nocpu/internal/accel":    true,
}

func runLayering(pass *analysis.Pass) error {
	pkgPath := normalizePkgPath(pass.Pkg.Path())
	if strings.HasSuffix(pkgPath, ".test") {
		return nil // synthesized test-main package
	}
	allowed, known := layerDAG[pkgPath]
	allowedSet := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		allowedSet[a] = true
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !hasPathPrefix(path, "nocpu") {
				continue // stdlib and friends are not layering's business
			}
			switch {
			case pkgPath == "nocpu/internal/msg":
				pass.Reportf(imp.Pos(),
					"import edge nocpu/internal/msg -> %s breaks the leaf rule: msg is the bus vocabulary every tier shares and must import nothing in-module", path)
			case deviceTier[pkgPath] && (hasPathPrefix(path, "nocpu/internal/centralos") || hasPathPrefix(path, "nocpu/internal/exp")):
				pass.Reportf(imp.Pos(),
					"import edge %s -> %s breaks the §2 decentralization boundary: self-managing devices talk only via msg/bus, never to the centralized kernel or the experiment harness", pkgPath, path)
			case !known:
				pass.Reportf(imp.Pos(),
					"package %s is not registered in the architecture DAG; add it to layerDAG in internal/lint/layering.go with the imports it is allowed", pkgPath)
				return nil // one report per unregistered package is enough
			case !allowedSet[path]:
				pass.Reportf(imp.Pos(),
					"import edge %s -> %s is not in the architecture DAG; allowed in-module imports are [%s]. If the edge is intentional, add it to layerDAG in internal/lint/layering.go",
					pkgPath, path, strings.Join(sortedStrings(allowed), " "))
			}
		}
	}
	return nil
}

// normalizePkgPath strips the " [variant]" suffix go vet appends to
// test-augmented package paths.
func normalizePkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

func sortedStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}
