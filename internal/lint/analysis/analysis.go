// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// used by the nocpu-lint suite.
//
// The real x/tools module is not vendored and the build environment is
// hermetic (no module proxy), so the suite is built on the standard
// library only: go/ast, go/types and go/token provide everything the
// four nocpu analyzers need. The API mirrors x/tools closely enough that
// migrating to the real framework later is a mechanical change.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the check in diagnostics and in //lint:allow
	// directives. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of what the check enforces and
	// why.
	Doc string
	// Run applies the check to one package and reports findings through
	// pass.Report.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Allowed reports whether a //lint:allow directive for rule covers
	// pos. Report already applies this filter; analyzers that derive
	// facts from sanctioned findings (nodeterminism's taint) query it
	// directly.
	Allowed func(pos token.Pos, rule string) bool
	// DepFacts returns the fact blob a direct or indirect dependency
	// exported for this analyzer, or nil when the dependency exported
	// nothing (or the driver has no facts channel).
	DepFacts func(pkgPath string) []byte
	// ExportFacts records this package's fact blob for importing
	// packages. Nil when the driver has no facts channel.
	ExportFacts func(blob []byte)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Rule is the reporting analyzer's name; filled in by Run.
	Rule string
}

// Facts is the cross-package side channel for analyzers that summarize
// their package for importers (the vet .vetx protocol, or an in-memory
// map in tests). Blobs are opaque to the framework; each analyzer
// defines its own encoding.
type Facts interface {
	// Get returns the blob pkgPath exported for analyzer, or nil.
	Get(pkgPath, analyzer string) []byte
	// Set records this package's blob for analyzer.
	Set(analyzer string, blob []byte)
}

// RunWithFacts applies every analyzer to the package and returns the
// surviving diagnostics in file/position order; facts is the channel for
// interprocedural analyzers and may be nil. It implements the one
// suite-wide behavior shared by the vettool and the test harness:
// //lint:allow suppression (see Suppressed) and the requirement that every
// allow directive carries a reason.
func RunWithFacts(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts Facts) ([]Diagnostic, error) {
	allows := collectAllows(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d Diagnostic) {
				d.Rule = a.Name
				if !allows.suppresses(fset.Position(d.Pos), a.Name) {
					out = append(out, d)
				}
			},
			Allowed: func(pos token.Pos, rule string) bool {
				return allows.suppresses(fset.Position(pos), rule)
			},
		}
		if facts != nil {
			name := a.Name
			pass.DepFacts = func(pkgPath string) []byte { return facts.Get(pkgPath, name) }
			pass.ExportFacts = func(blob []byte) { facts.Set(name, blob) }
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	// A directive without a reason is itself a finding: unexplained
	// suppressions are how invariants rot.
	for _, bad := range allows.malformed {
		out = append(out, bad)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// allowKey locates one //lint:allow directive.
type allowKey struct {
	file string
	line int
	rule string
}

type allowSet struct {
	keys      map[allowKey]bool
	list      []AllowDirective
	malformed []Diagnostic
}

// AllowDirective is one well-formed //lint:allow occurrence: where it
// sits, which rule it silences, and the mandatory justification.
type AllowDirective struct {
	File   string
	Line   int
	Rule   string
	Reason string
}

// Inventory returns every well-formed //lint:allow directive in the
// files, in source order — the raw material of `nocpu-lint -allows`,
// which keeps the suite's entire suppression surface reviewable in one
// listing. Malformed directives (no reason) are excluded here; they
// surface as findings instead.
func Inventory(fset *token.FileSet, files []*ast.File) []AllowDirective {
	return collectAllows(fset, files).list
}

// suppresses reports whether a directive for rule covers a diagnostic at
// posn: the directive may sit on the flagged line or on the line above.
func (s allowSet) suppresses(posn token.Position, rule string) bool {
	return s.keys[allowKey{posn.Filename, posn.Line, rule}] ||
		s.keys[allowKey{posn.Filename, posn.Line - 1, rule}]
}

// collectAllows scans comments for //lint:allow <rule> <reason...>
// directives. The reason is mandatory; directives without one are
// recorded as malformed findings.
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	s := allowSet{keys: make(map[allowKey]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				posn := fset.Position(c.Pos())
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:     c.Pos(),
						Rule:    "allow",
						Message: "lint:allow directive needs a rule name and a reason: //lint:allow <rule> <why this is safe>",
					})
					continue
				}
				s.keys[allowKey{posn.Filename, posn.Line, fields[0]}] = true
				s.list = append(s.list, AllowDirective{
					File:   posn.Filename,
					Line:   posn.Line,
					Rule:   fields[0],
					Reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return s
}
