package lint_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// funcTableRow is one row of DESIGN.md's "What still holds a func" table:
// a field named pkg.Type.Field in backquotes, then its role.
var funcTableRow = regexp.MustCompile("^\\| `(\\w+\\.\\w+\\.\\w+)` \\| ([^|]+?) \\|")

// funcTable reads the roles DESIGN.md gives the func fields it lists.
func funcTable(t *testing.T) map[string]string {
	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	roles := map[string]string{}
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "**What still holds a func.**"):
			in = true
		case in && strings.HasPrefix(line, "#"):
			in = false
		case in:
			if m := funcTableRow.FindStringSubmatch(line); m != nil {
				roles[m[1]] = m[2]
			}
		}
	}
	if len(roles) == 0 {
		t.Fatal(`DESIGN.md: no rows under "What still holds a func"`)
	}
	return roles
}

// funcFields finds every func-typed field of a declared struct type in the
// module's non-test files, the linter's own aside, as pkg.Type.Field ->
// file. A nested module (bench/) is not this module's.
func funcFields(t *testing.T, root string) map[string]string {
	found := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			_, err := os.Stat(filepath.Join(path, "go.mod"))
			nested := rel != "." && err == nil
			if nested || d.Name() == "testdata" || d.Name() == ".git" || rel == filepath.Join("internal", "lint") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := spec.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					if _, isFunc := field.Type.(*ast.FuncType); isFunc {
						for _, name := range field.Names {
							found[file.Name.Name+"."+spec.Name.Name+"."+name.Name] = filepath.ToSlash(rel)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// TestFuncFieldCensus holds the struct fields of func type to DESIGN.md's
// "What still holds a func" table: a field the table does not list fails,
// and so does a listed field that is gone. With -v (make funcs) it lists
// each field with its role, and the counts: the library's, and the
// experiment harness's (exp, chaos).
func TestFuncFieldCensus(t *testing.T) {
	roles := funcTable(t)
	found := funcFields(t, "../..")
	names := make([]string, 0, len(found))
	for name := range found {
		names = append(names, name)
	}
	slices.Sort(names)
	library, harness := 0, 0
	for _, name := range names {
		role, listed := roles[name]
		if !listed {
			t.Errorf("%s (%s): a func field not in DESIGN.md's \"What still holds a func\" table; make it a record or a method, or add its row", name, found[name])
			continue
		}
		if pkg, _, _ := strings.Cut(name, "."); pkg == "exp" || pkg == "chaos" {
			harness++
		} else {
			library++
		}
		t.Logf("%-36s %-22s %s", name, role, found[name])
	}
	for name := range roles {
		if _, ok := found[name]; !ok {
			t.Errorf("%s: DESIGN.md lists a func field the tree no longer has", name)
		}
	}
	t.Logf("%d library func fields, %d in the experiment harness", library, harness)
}
