package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// run type-checks src and applies a trivial analyzer that reports
// "finding" at every call expression, returning the surviving
// diagnostics.
func run(t *testing.T, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Error: func(error) {}}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	pkg, _ := conf.Check("a", fset, []*ast.File{f}, info)
	a := &Analyzer{
		Name: "callsite",
		Doc:  "reports every call",
		Run: func(p *Pass) error {
			ast.Inspect(f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					p.Reportf(c.Pos(), "finding")
				}
				return true
			})
			return nil
		},
	}
	diags, err := RunWithFacts([]*Analyzer{a}, fset, []*ast.File{f}, pkg, info, nil)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestAllowSuppressesSameLine(t *testing.T) {
	diags := run(t, `package a
func g() {}
func h() {
	g() //lint:allow callsite the call is idempotent
}
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestAllowSuppressesLineAbove(t *testing.T) {
	diags := run(t, `package a
func g() {}
func h() {
	//lint:allow callsite the call is idempotent
	g()
}
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestAllowWrongRuleDoesNotSuppress(t *testing.T) {
	diags := run(t, `package a
func g() {}
func h() {
	g() //lint:allow otherrule some reason
}
`)
	if len(diags) != 1 || diags[0].Rule != "callsite" {
		t.Fatalf("want 1 callsite diagnostic, got %v", diags)
	}
}

func TestAllowWithoutReasonIsMalformed(t *testing.T) {
	diags := run(t, `package a
func g() {}
func h() {
	g() //lint:allow callsite
}
`)
	// The reason-less directive must not suppress, and is itself
	// reported.
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	if len(diags) != 2 {
		t.Fatalf("want [allow callsite] diagnostics, got %v (%v)", rules, diags)
	}
	found := map[string]bool{}
	for _, d := range diags {
		found[d.Rule] = true
		if d.Rule == "allow" && !strings.Contains(d.Message, "needs a rule name and a reason") {
			t.Errorf("allow diagnostic has wrong message: %s", d.Message)
		}
	}
	if !found["allow"] || !found["callsite"] {
		t.Fatalf("want one allow and one callsite diagnostic, got %v", rules)
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	diags := run(t, `package a
func g() {}
func h() {
	g()
	g()
}
`)
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %v", diags)
	}
	fset := token.NewFileSet()
	_ = fset
	if diags[0].Pos >= diags[1].Pos {
		t.Fatalf("diagnostics not sorted: %v", diags)
	}
}

func TestInventoryListsWellFormedDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "inv.go", `package a
func g() {}
func h() {
	g() //lint:allow callsite the call is idempotent
	//lint:allow otherrule above-the-line form, reason spans words
	g()
	g() //lint:allow
}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	got := Inventory(fset, []*ast.File{f})
	if len(got) != 2 {
		t.Fatalf("want 2 well-formed directives (the reasonless one is malformed, not inventory), got %v", got)
	}
	if got[0].Rule != "callsite" || got[0].Line != 4 || got[0].Reason != "the call is idempotent" {
		t.Errorf("first directive wrong: %+v", got[0])
	}
	if got[1].Rule != "otherrule" || got[1].Reason != "above-the-line form, reason spans words" {
		t.Errorf("second directive wrong: %+v", got[1])
	}
}
