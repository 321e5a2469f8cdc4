package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"nocpu/internal/lint/analysis"
)

// Wireproto extracts the bus wire-protocol schema from the msg package's
// wire bodies. Each message type lists its fields once, in a
// wire(c *coder) method that a coder runs to size, encode and decode it,
// so encoder and decoder agree by construction. What would otherwise be
// re-derived by hand for every change is enforced here:
//
//  1. Shape — a wire body is straight-line coder ops (the integer ops,
//     bool, str, bytes, the u64s/devs/strs lists, a trailing opt*) and
//     `for i := range count(c, &m.List, wide, min)` loops over a counted
//     slice. A coder op under an if or switch is a finding (a field that
//     is present only sometimes is the trailing optional op, not a
//     conditional), and so are an op whose layout the extractor does not
//     know and an optional that is not the body's last field.
//
//  2. Registration completeness — every exported msg.Kind constant has
//     a message type whose Kind() returns it, has an arm in the
//     dispatcher (dispatch) that runs that type's body, and has at least
//     one FuzzDecode corpus seed under testdata/fuzz/FuzzDecode.
//
//  3. Append-only evolution — the extracted schema must extend the
//     committed wire.lock only by trailing-field additions and new
//     kinds; any reorder, retype, removal or renumbering of locked
//     fields is reported, two same-typed fields trading places included.
//     Regenerate the lock after an intentional compatible change with
//     NOCPU_REGEN_WIRELOCK=1 (the golden-trace regeneration convention).
var Wireproto = &analysis.Analyzer{
	Name: "wireproto",
	Doc:  "extract the wire schema from wire(c *coder) bodies; enforce body shape, kind registration, and append-only evolution against wire.lock",
	Run:  runWireproto,
}

// realMsgPath is the package whose schema is pinned by the committed
// lockfile; only there is a missing wire.lock itself a finding.
const realMsgPath = "nocpu/internal/msg"

// msgType is one collected message implementation.
type msgType struct {
	name      string
	kindConst *types.Const
	kindPos   token.Pos // position of the Kind() method (for pairing faults)
	wireDecl  *ast.FuncDecl
}

func runWireproto(pass *analysis.Pass) error {
	if pass.Pkg == nil || pass.Pkg.Name() != "msg" || !simScoped(pass.Pkg.Path()) {
		return nil
	}
	x := newWireExtractor(pass)
	msgs := x.collectMsgTypes()
	if len(msgs) == 0 {
		return nil // not a wire-codec package
	}

	schema := &WireSchema{}
	bodyPos := make(map[string]token.Pos) // kind const name -> wire body
	for _, mt := range msgs {
		ops := x.bodyOps(mt.wireDecl.Body.List)
		x.checkOptPlacement(mt, ops)
		if mt.kindConst == nil {
			continue // already reported by collectMsgTypes
		}
		kindVal, _ := constant.Uint64Val(mt.kindConst.Val())
		schema.Msgs = append(schema.Msgs, MsgSchema{
			Kind:     uint16(kindVal),
			KindName: mt.kindConst.Name(),
			TypeName: mt.name,
			Ops:      ops,
		})
		bodyPos[mt.kindConst.Name()] = mt.wireDecl.Pos()
	}
	x.checkRegistration(msgs)
	x.checkLock(schema, bodyPos)
	return nil
}

// --- collection ---

type wireExtractor struct {
	pass   *analysis.Pass
	pkgDir string
	files  []*ast.File // non-test files only
}

func newWireExtractor(pass *analysis.Pass) *wireExtractor {
	x := &wireExtractor{pass: pass}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		x.files = append(x.files, f)
		if x.pkgDir == "" {
			x.pkgDir = filepath.Dir(pass.Fset.Position(f.Pos()).Filename)
		}
	}
	return x
}

// collectMsgTypes finds every type with a wire(*coder) method, resolving
// which kind constant its Kind() method returns.
func (x *wireExtractor) collectMsgTypes() []*msgType {
	byName := make(map[string]*msgType)
	var order []string
	for _, f := range x.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || (fd.Name.Name != "wire" && fd.Name.Name != "Kind") {
				continue
			}
			name := recvTypeName(fd)
			if name == "" {
				continue
			}
			mt, ok := byName[name]
			if !ok {
				mt = &msgType{name: name}
				byName[name] = mt
				order = append(order, name)
			}
			if fd.Name.Name == "wire" {
				mt.wireDecl = fd
			} else {
				mt.kindPos = fd.Pos()
				mt.kindConst = x.kindReturn(fd)
			}
		}
	}
	var out []*msgType
	for _, name := range order {
		mt := byName[name]
		if mt.wireDecl == nil {
			continue // some other type with a Kind() method
		}
		if mt.kindConst == nil {
			pos := mt.kindPos
			if pos == token.NoPos {
				pos = mt.wireDecl.Pos()
			}
			x.pass.Reportf(pos, "%s has a wire body but no resolvable Kind() method returning a msg.Kind constant: no frame can carry it", mt.name)
		}
		out = append(out, mt)
	}
	return out
}

// kindReturn resolves `func (*T) Kind() Kind { return KindX }` to KindX.
func (x *wireExtractor) kindReturn(fd *ast.FuncDecl) *types.Const {
	if len(fd.Body.List) != 1 {
		return nil
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	return x.constOf(ret.Results[0])
}

// constOf resolves an expression naming a constant (KindX or msg.KindX).
func (x *wireExtractor) constOf(e ast.Expr) *types.Const {
	var c *types.Const
	switch e := unparen(e).(type) {
	case *ast.Ident:
		c, _ = x.pass.TypesInfo.Uses[e].(*types.Const)
	case *ast.SelectorExpr:
		c, _ = x.pass.TypesInfo.Uses[e.Sel].(*types.Const)
	}
	return c
}

func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// --- the coder vocabulary ---

// coderLists are the list ops: the op of the count, then of each element.
var coderLists = map[string][2]OpKind{
	"u64s": {OpU32, OpU64},
	"devs": {OpU16, OpU16},
	"strs": {OpU16, OpStr},
}

// coderOp recognizes a coder op: a method of *coder (c.str(&m.Name)) or
// a package function whose first parameter is a *coder (u32(c, &m.App),
// the generic integer ops, and count). It returns the op's name and the
// argument that names the field.
func (x *wireExtractor) coderOp(call *ast.CallExpr) (name string, field ast.Expr, ok bool) {
	fun := unparen(call.Fun)
	if ix, isIndex := fun.(*ast.IndexExpr); isIndex {
		fun = ix.X // an explicit instantiation, u32[AppID](c, ...)
	}
	first := 0
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		if !x.isCoder(x.pass.TypesInfo.TypeOf(f.X)) {
			return "", nil, false
		}
		name = f.Sel.Name
	case *ast.Ident:
		fn, isFunc := x.pass.TypesInfo.Uses[f].(*types.Func)
		if !isFunc {
			return "", nil, false
		}
		params := fn.Type().(*types.Signature).Params()
		if params.Len() == 0 || !x.isCoder(params.At(0).Type()) {
			return "", nil, false
		}
		name, first = f.Name, 1
	default:
		return "", nil, false
	}
	if len(call.Args) > first {
		field = call.Args[first]
	}
	return name, field, true
}

// isCoder reports whether t is *coder, the codec type of this package.
func (x *wireExtractor) isCoder(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Pkg() == x.pass.Pkg && named.Obj().Name() == "coder"
}

// hasCoderOp reports whether any coder op hides inside n — used to refuse
// statement shapes the extractor does not model instead of silently
// dropping their ops.
func (x *wireExtractor) hasCoderOp(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if call, ok := nn.(*ast.CallExpr); ok && !found {
			_, _, found = x.coderOp(call)
		}
		return !found
	})
	return found
}

// --- extraction ---

// bodyOps interprets a wire body, or the body of a loop in one, into its
// op sequence: each coder op statement in order, and for each
// `for i := range count(...)` loop the count and a rep group.
func (x *wireExtractor) bodyOps(stmts []ast.Stmt) []Op {
	var ops []Op
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := unparen(s.X).(*ast.CallExpr); ok {
				if name, field, ok := x.coderOp(call); ok {
					ops = append(ops, x.opsOf(call, name, field)...)
					continue
				}
			}
		case *ast.RangeStmt:
			if call, ok := unparen(s.X).(*ast.CallExpr); ok {
				if name, field, ok := x.coderOp(call); ok && name == "count" {
					ops = append(ops, x.countOp(call, field),
						Op{Kind: OpRep, Name: nameOf(field), Body: x.bodyOps(s.Body.List)})
					continue
				}
			}
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			if x.hasCoderOp(stmt) {
				x.pass.Reportf(stmt.Pos(), "coder op under a condition: a wire body runs the same ops to size, encode and decode, so a decoder cannot tell whether the field is there — a field present only sometimes must be the trailing optional op (c.optU32)")
			}
			continue
		}
		if x.hasCoderOp(stmt) {
			x.pass.Reportf(stmt.Pos(), "wire statement shape not modeled by wireproto: keep wire bodies to straight-line coder ops and `for i := range count(...)` loops over a counted slice")
		}
	}
	return ops
}

// opsOf is the layout of one coder op statement.
func (x *wireExtractor) opsOf(call *ast.CallExpr, name string, field ast.Expr) []Op {
	f := nameOf(field)
	switch name {
	case "u8", "u16", "u32", "u64", "bool", "str", "bytes":
		return []Op{{Kind: OpKind(name), Name: f}}
	case "count":
		x.pass.Reportf(call.Pos(), "count outside a for-range header: a list's count must range the loop that moves its elements")
		return nil
	}
	if l, ok := coderLists[name]; ok {
		return []Op{{Kind: l[0], Name: lenName(f)}, {Kind: OpRep, Name: f, Body: []Op{{Kind: l[1]}}}}
	}
	if k := OpKind(strings.ToLower(strings.TrimPrefix(name, "opt"))); strings.HasPrefix(name, "opt") {
		switch k {
		case OpU8, OpU16, OpU32, OpU64, OpBool:
			return []Op{{Kind: OpOpt, Name: f, Body: []Op{{Kind: k, Name: f}}}}
		}
	}
	x.pass.Reportf(call.Pos(), "unknown coder op %s: teach wireproto its wire layout before using it in a wire body", name)
	return nil
}

// countOp is the count a list loop ranges over: a u32 when count's wide
// argument is true, else a u16.
func (x *wireExtractor) countOp(call *ast.CallExpr, field ast.Expr) Op {
	op := Op{Kind: OpU16, Name: lenName(nameOf(field))}
	var wide constant.Value
	if len(call.Args) > 2 {
		wide = x.pass.TypesInfo.Types[call.Args[2]].Value
	}
	switch {
	case wide == nil || wide.Kind() != constant.Bool:
		x.pass.Reportf(call.Pos(), "count's wide argument must be a constant: the count's width is part of the wire layout")
	case constant.BoolVal(wide):
		op.Kind = OpU32
	}
	return op
}

// nameOf recovers a schema field name from a coder op's argument: the
// field of &m.Name, or of &reg.App inside a loop. An element of a list
// (&(*v)[i], &reg.Grantees[j]) has none.
func nameOf(e ast.Expr) string {
	if u, ok := unparen(e).(*ast.UnaryExpr); ok {
		e = u.X
	}
	if sel, ok := unparen(e).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

func lenName(inner string) string {
	if inner == "" {
		return ""
	}
	return "len(" + inner + ")"
}

// checkOptPlacement enforces that an optional field appears only as the
// last field of a message: anywhere else, presence cannot be inferred by
// the decoder and every later field shifts.
func (x *wireExtractor) checkOptPlacement(mt *msgType, ops []Op) {
	var walk func(ops []Op, topLevel bool)
	walk = func(ops []Op, topLevel bool) {
		for i, op := range ops {
			switch op.Kind {
			case OpOpt:
				if !topLevel || i != len(ops)-1 {
					x.pass.Reportf(mt.wireDecl.Pos(),
						"optional field %q of %s is not the trailing field: optional fields are detected by buffer exhaustion, so only the last field may be optional", opLabel(op), mt.name)
				}
				walk(op.Body, false)
			case OpRep:
				walk(op.Body, false)
			}
		}
	}
	walk(ops, true)
}

// --- registration completeness ---

// kindConsts returns the exported, non-sentinel constants of this
// package's Kind type in declaration order.
func (x *wireExtractor) kindConsts() []*types.Const {
	var out []*types.Const
	scope := x.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() || strings.Contains(name, "Invalid") {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Name() != "Kind" || named.Obj().Pkg() != x.pass.Pkg {
			continue
		}
		out = append(out, c)
	}
	// Scope names are sorted alphabetically; re-sort by wire number so
	// diagnostics come out in protocol order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, _ := constant.Uint64Val(out[j-1].Val())
			b, _ := constant.Uint64Val(out[j].Val())
			if a <= b {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func (x *wireExtractor) checkRegistration(msgs []*msgType) {
	byKind := make(map[string]*msgType)
	for _, mt := range msgs {
		if mt.kindConst != nil {
			if prev, dup := byKind[mt.kindConst.Name()]; dup {
				x.pass.Reportf(mt.kindPos, "%s and %s both claim kind %s: the dispatcher can run only one of them", prev.name, mt.name, mt.kindConst.Name())
				continue
			}
			byKind[mt.kindConst.Name()] = mt
		}
	}
	consts := x.kindConsts()
	for _, c := range consts {
		if byKind[c.Name()] == nil {
			x.pass.Reportf(c.Pos(), "msg.Kind constant %s has no message type: no type's Kind() method returns it, so frames of this kind can be neither built nor parsed", c.Name())
		}
	}
	x.checkDispatcher(consts, byKind)
	x.checkCorpus(consts)
}

// checkDispatcher verifies that dispatch runs the right type's wire body
// for every kind: every kind has an arm, and case KindX runs the body of
// the type whose Kind() is KindX.
func (x *wireExtractor) checkDispatcher(consts []*types.Const, byKind map[string]*msgType) {
	var disp *ast.FuncDecl
	for _, f := range x.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Body != nil && fd.Name.Name == "dispatch" {
				disp = fd
			}
		}
	}
	if disp == nil {
		x.pass.Reportf(x.files[0].Pos(), "wire-codec package has no dispatch function: frames cannot be sized, encoded or decoded by kind")
		return
	}
	covered := make(map[string]bool)
	ast.Inspect(disp.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		var kindNames []string
		for _, e := range cc.List {
			if c := x.constOf(e); c != nil {
				kindNames = append(kindNames, c.Name())
				covered[c.Name()] = true
			}
		}
		ran := x.dispatchedType(cc.Body)
		if ran == "" {
			return true
		}
		for _, kn := range kindNames {
			if mt := byKind[kn]; mt != nil && mt.name != ran {
				x.pass.Reportf(cc.Pos(), "dispatcher runs %s for %s, but %s's Kind() is %s: frames of kind %s would be laid out as another kind's",
					ran, kn, ran, typeKindName(byTypeName(byKind, ran)), kn)
			}
		}
		return true
	})
	for _, c := range consts {
		if !covered[c.Name()] && byKind[c.Name()] != nil {
			x.pass.Reportf(c.Pos(), "kind %s has no arm in the dispatcher (dispatch): its frames can be neither encoded nor decoded", c.Name())
		}
	}
}

// dispatchedType names the message type a dispatcher arm runs: the
// receiver type of its wire call.
func (x *wireExtractor) dispatchedType(body []ast.Stmt) string {
	name := ""
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || name != "" {
				return name == ""
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "wire" {
				return true
			}
			t := x.pass.TypesInfo.TypeOf(sel.X)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name = named.Obj().Name()
			}
			return false
		})
	}
	return name
}

func byTypeName(byKind map[string]*msgType, name string) *msgType {
	for _, mt := range byKind {
		if mt.name == name {
			return mt
		}
	}
	return nil
}

func typeKindName(mt *msgType) string {
	if mt == nil || mt.kindConst == nil {
		return "a different kind"
	}
	return mt.kindConst.Name()
}

// corpusEntryRE matches the []byte literal of a `go test fuzz v1`
// corpus entry.
var corpusEntryRE = regexp.MustCompile(`\[\]byte\((".*")\)`)

// checkCorpus requires at least one FuzzDecode seed per kind. Seeds are
// read as wire bytes — the kind lives at header offset 4 — so a renamed
// file still counts and a mislabeled one cannot fake coverage.
func (x *wireExtractor) checkCorpus(consts []*types.Const) {
	dir := filepath.Join(x.pkgDir, "testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		if x.pass.Pkg.Path() == realMsgPath {
			x.pass.Reportf(x.files[0].Pos(), "missing FuzzDecode seed corpus at %s: every wire kind needs at least one seed (NOCPU_REGEN_CORPUS=1 go test -run TestRegenerateFuzzCorpus ./internal/msg)", dir)
		}
		return // miniature codec packages (golden suites) carry no corpus
	}
	seeded := make(map[uint16]bool)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		m := corpusEntryRE.FindSubmatch(data)
		if m == nil {
			continue
		}
		raw, err := strconv.Unquote(string(m[1]))
		if err != nil || len(raw) < 6 {
			continue
		}
		seeded[uint16(raw[4])|uint16(raw[5])<<8] = true
	}
	for _, c := range consts {
		v, _ := constant.Uint64Val(c.Val())
		if !seeded[uint16(v)] {
			x.pass.Reportf(c.Pos(), "kind %s has no FuzzDecode corpus seed under testdata/fuzz/FuzzDecode: the fuzzer never starts from a valid frame of this kind (regenerate the corpus and add one)", c.Name())
		}
	}
}

// --- lockfile ---

// checkLock diffs the extracted schema against the committed wire.lock
// (append-only evolution), or rewrites the lock under
// NOCPU_REGEN_WIRELOCK=1.
func (x *wireExtractor) checkLock(schema *WireSchema, bodyPos map[string]token.Pos) {
	lockPath := filepath.Join(x.pkgDir, "wire.lock")
	if os.Getenv("NOCPU_REGEN_WIRELOCK") != "" && x.pass.Pkg.Path() == realMsgPath {
		if err := os.WriteFile(lockPath, []byte(Format(schema)), 0o644); err != nil {
			x.pass.Reportf(x.files[0].Pos(), "regenerating wire.lock: %v", err)
		}
		return
	}
	data, err := os.ReadFile(lockPath)
	if err != nil {
		if x.pass.Pkg.Path() == realMsgPath {
			x.pass.Reportf(x.files[0].Pos(), "missing %s: the wire schema has no compatibility baseline (generate with NOCPU_REGEN_WIRELOCK=1 make lint and commit it)", lockPath)
		}
		return // miniature codec packages opt in by committing a lock
	}
	lock, err := Parse(string(data))
	if err != nil {
		x.pass.Reportf(x.files[0].Pos(), "unparsable %s: %v (regenerate with NOCPU_REGEN_WIRELOCK=1 make lint)", lockPath, err)
		return
	}
	for _, v := range append(CompatDiff(lock, schema), movedFields(lock, schema)...) {
		pos := bodyPos[v.KindName]
		if pos == token.NoPos {
			pos = x.files[0].Pos()
		}
		x.pass.Reportf(pos, "wire.lock: %s", v.Msg)
	}
}

// movedFields reports the locked fields that kept their op but not their
// place: two same-typed fields that traded places, which CompatDiff's op
// comparison cannot see. Names tell them apart — a locked name found
// elsewhere in the same body moved, while one found nowhere was renamed
// in place, which is not a wire change.
func movedFields(old, cur *WireSchema) []CompatViolation {
	curByName := make(map[string]*MsgSchema, len(cur.Msgs))
	for i := range cur.Msgs {
		curByName[cur.Msgs[i].KindName] = &cur.Msgs[i]
	}
	var out []CompatViolation
	var walk func(kind string, old, cur []Op)
	walk = func(kind string, old, cur []Op) {
		names := make(map[string]bool, len(cur))
		for _, op := range cur {
			names[op.Name] = true
		}
		for i := 0; i < len(old) && i < len(cur); i++ {
			o, c := old[i], cur[i]
			if o.Kind != c.Kind {
				continue // a retype: CompatDiff reports it
			}
			if o.Name != c.Name && o.Name != "" && names[o.Name] {
				out = append(out, CompatViolation{kind, fmt.Sprintf(
					"field %d of %s moved: wire.lock has %q there, tree has %q — old frames would decode one field into the other (wire evolution is append-only; only trailing additions are compatible)",
					i, kind, opLabel(o), opLabel(c))})
			}
			walk(kind, o.Body, c.Body)
		}
	}
	for _, om := range old.Msgs {
		if cm := curByName[om.KindName]; cm != nil {
			walk(om.KindName, om.Ops, cm.Ops)
		}
	}
	return out
}
