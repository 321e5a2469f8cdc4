// Package lint is the nocpu-lint analyzer suite: machine-enforcement of
// the two invariants the whole reproduction stands on.
//
//  1. Determinism. Every run is bit-deterministic: all time comes from
//     the virtual clock (sim.Engine), all randomness from a seeded
//     sim.Rand, and the simulation is single-threaded. The golden-trace
//     and experiment-table tests assert byte-identical output, so a
//     single wall-clock read or unsorted map iteration on an output
//     path is a silent, intermittent test breaker. Enforced by the
//     nodeterminism and maporder analyzers.
//
//  2. Decentralization (§2 of "The Last CPU"). Self-managing devices
//     cooperate only through bus messages; nothing in the device tier
//     may reach into the centralized-baseline kernel (centralos) or the
//     experiment harness. Enforced by the layering analyzer, which
//     encodes the package DAG.
//
//  3. Wire compatibility. The bus protocol is a real wire format that
//     must keep decoding frames from older builds across rolling
//     upgrades (E19's campaigns). Each kind lists its fields once, in
//     a wire(c *coder) body that sizes, encodes and decodes it, so
//     encoder and decoder agree by construction; every kind must be
//     registered end-to-end (type, dispatcher arm, fuzz seed), and the
//     schema may evolve only by trailing-field additions against the
//     committed internal/msg/wire.lock. Enforced by the wireproto
//     analyzer, which extracts the schema from those bodies.
//
//  4. Overload safety. Every queue a message or request can wait in is
//     either bounded — len() checked against a limit, with a
//     deterministic shed/drop at the limit — or annotated with a reason
//     it cannot grow without bound. Enforced by the boundedqueue
//     analyzer; the overload harness (internal/overload) audits the
//     same property dynamically (its Q1 guarantee).
//
// # Suppressing a finding
//
// The only escape hatch is an explicit, justified directive on the
// flagged line or the line directly above it:
//
//	//lint:allow <rule> <reason>
//
// for example:
//
//	//lint:allow nodeterminism host-side CLI flag parsing, not simulation
//
// The reason is mandatory — a directive without one is itself reported
// — and each directive covers exactly one rule on exactly one line, so
// suppressions stay local, visible in review, and greppable.
//
// The suite runs as a go vet tool: `make lint` builds cmd/nocpu-lint
// and invokes `go vet -vettool=$(BIN)/nocpu-lint ./...`, so findings
// carry standard file:line:column positions and integrate with editors
// and CI like any other vet diagnostic.
package lint

import "nocpu/internal/lint/analysis"

// Analyzers returns the full nocpu-lint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Nodeterminism,
		Maporder,
		Layering,
		Boundedqueue,
		Wireproto,
	}
}

// simScoped reports whether a package is part of the simulated machine
// and therefore subject to the determinism rules. Host-side tooling —
// this linter and its driver — is exempt: it runs on the developer's
// machine, not inside the simulation. (The vettool only feeds module
// packages to the suite, so everything else is in scope by default.)
func simScoped(pkgPath string) bool {
	return !hasPathPrefix(pkgPath, "nocpu/internal/lint") &&
		pkgPath != "nocpu/cmd/nocpu-lint"
}

// hasPathPrefix reports whether path is prefix or is under prefix/.
func hasPathPrefix(path, prefix string) bool {
	return path == prefix ||
		(len(path) > len(prefix) && path[:len(prefix)] == prefix && path[len(prefix)] == '/')
}
