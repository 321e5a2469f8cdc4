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

// Wireproto extracts the bus wire-protocol schema from the msg
// package's encode/decode method bodies by symbolic interpretation and
// enforces three things no reviewer should have to re-derive per PR:
//
//  1. Symmetry — for every message kind, the encoder's op sequence and
//     the decoder's agree field-for-field (a decoder-side trailing
//     optional read of fields the encoder writes unconditionally is
//     permitted: that is how a new decoder accepts old short frames).
//
//  2. Registration completeness — every exported msg.Kind constant has
//     a message type whose Kind() returns it, is constructed by the
//     decode dispatcher (decodeBody) under the right type, and has at
//     least one FuzzDecode corpus seed under testdata/fuzz/FuzzDecode.
//
//  3. Append-only evolution — the extracted schema must extend the
//     committed wire.lock only by trailing-field additions and new
//     kinds; any reorder, retype, removal or renumbering of locked
//     fields is reported. Regenerate the lock after an intentional
//     compatible change with NOCPU_REGEN_WIRELOCK=1 (the golden-trace
//     regeneration convention).
//
// The interpreter understands the codec idiom this package is written
// in — straight-line writer/reader calls, a count write followed by a
// loop, error/bomb guards, trailing-optional conditionals, and helpers
// taking a *writer/*reader (inlined, so encodeDevs/decodeDevs frame
// lists correctly) — and reports any body it cannot model rather than
// guessing.
var Wireproto = &analysis.Analyzer{
	Name: "wireproto",
	Doc:  "extract the wire schema from encode/decode bodies; enforce symmetry, kind registration, and append-only evolution against wire.lock",
	Run:  runWireproto,
}

// realMsgPath is the package whose schema is pinned by the committed
// lockfile; only there is a missing wire.lock itself a finding.
const realMsgPath = "nocpu/internal/msg"

// msgType is one collected message implementation.
type msgType struct {
	name       string
	kindConst  *types.Const
	kindPos    token.Pos // position of the Kind() method (for pairing faults)
	encodeDecl *ast.FuncDecl
	decodeDecl *ast.FuncDecl
}

func runWireproto(pass *analysis.Pass) error {
	if pass.Pkg == nil || pass.Pkg.Name() != "msg" || !simScoped(pass.Pkg.Path()) {
		return nil
	}
	x := newWireExtractor(pass)
	msgs := x.collectMsgTypes()
	if len(msgs) == 0 {
		return nil // not a wire-codec package (e.g. the kindswitch stub)
	}

	schema := &WireSchema{}
	encPos := make(map[string]token.Pos) // kind const name -> encoder position
	for _, mt := range msgs {
		encOps := x.encodeStmts(mt.encodeDecl.Body.List)
		decOps := x.decodeStmts(mt.decodeDecl.Body.List)
		x.checkOptPlacement(mt, encOps)
		if detail := symmetryDiff(encOps, decOps); detail != "" {
			pass.Reportf(mt.decodeDecl.Pos(),
				"encode/decode asymmetry in %s: %s — the decoder would misparse every frame the encoder emits", mt.name, detail)
		}
		if mt.kindConst == nil {
			continue // already reported by collectMsgTypes
		}
		kindVal, _ := constant.Uint64Val(mt.kindConst.Val())
		schema.Msgs = append(schema.Msgs, MsgSchema{
			Kind:     uint16(kindVal),
			KindName: mt.kindConst.Name(),
			TypeName: mt.name,
			Ops:      encOps,
		})
		encPos[mt.kindConst.Name()] = mt.encodeDecl.Pos()
	}
	for _, p := range x.problems {
		pass.Reportf(p.pos, "%s", p.msg)
	}

	x.checkRegistration(msgs)
	x.checkLock(schema, encPos)
	return nil
}

// --- collection ---

type problem struct {
	pos token.Pos
	msg string
}

type wireExtractor struct {
	pass *analysis.Pass
	// funcs indexes package-level functions for helper inlining.
	funcs map[types.Object]*ast.FuncDecl
	// bindings maps helper parameters to the caller's argument
	// expression so field names survive inlining.
	bindings map[types.Object]ast.Expr
	// anon marks loop element variables: their names are loop-local and
	// carry no schema meaning.
	anon     map[types.Object]bool
	inlining map[*ast.FuncDecl]bool
	problems []problem
	pkgDir   string
	files    []*ast.File // non-test files only
}

func newWireExtractor(pass *analysis.Pass) *wireExtractor {
	x := &wireExtractor{
		pass:     pass,
		funcs:    make(map[types.Object]*ast.FuncDecl),
		bindings: make(map[types.Object]ast.Expr),
		anon:     make(map[types.Object]bool),
		inlining: make(map[*ast.FuncDecl]bool),
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		x.files = append(x.files, f)
		if x.pkgDir == "" {
			x.pkgDir = filepath.Dir(pass.Fset.Position(f.Pos()).Filename)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				x.funcs[obj] = fd
			}
		}
	}
	return x
}

// collectMsgTypes finds every type with encode(*writer), decode(*reader)
// and Kind() methods, resolving which kind constant each returns.
func (x *wireExtractor) collectMsgTypes() []*msgType {
	byName := make(map[string]*msgType)
	var order []string
	get := func(recv *ast.FuncDecl) *msgType {
		name := recvTypeName(recv)
		if name == "" {
			return nil
		}
		mt, ok := byName[name]
		if !ok {
			mt = &msgType{name: name}
			byName[name] = mt
			order = append(order, name)
		}
		return mt
	}
	for _, f := range x.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			switch fd.Name.Name {
			case "encode":
				if mt := get(fd); mt != nil {
					mt.encodeDecl = fd
				}
			case "decode":
				if mt := get(fd); mt != nil {
					mt.decodeDecl = fd
				}
			case "Kind":
				mt := get(fd)
				if mt == nil {
					break
				}
				mt.kindPos = fd.Pos()
				mt.kindConst = x.kindReturn(fd)
			}
		}
	}
	var out []*msgType
	for _, name := range order {
		mt := byName[name]
		switch {
		case mt.encodeDecl == nil && mt.decodeDecl == nil:
			continue // some other type with a Kind() method
		case mt.encodeDecl == nil:
			x.problemf(mt.decodeDecl.Pos(), "%s has decode but no encode method: a kind that can be received but never sent is dead wire vocabulary", mt.name)
			continue
		case mt.decodeDecl == nil:
			x.problemf(mt.encodeDecl.Pos(), "%s has encode but no decode method: frames of this kind can never be parsed by a receiver", mt.name)
			continue
		}
		if mt.kindConst == nil {
			pos := mt.kindPos
			if pos == token.NoPos {
				pos = mt.encodeDecl.Pos()
			}
			x.problemf(pos, "%s has encode/decode but no resolvable Kind() method returning a msg.Kind constant", mt.name)
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
	id, ok := unparen(ret.Results[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	c, _ := x.pass.TypesInfo.Uses[id].(*types.Const)
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

func (x *wireExtractor) problemf(pos token.Pos, format string, args ...any) {
	x.problems = append(x.problems, problem{pos, fmt.Sprintf(format, args...)})
}

// --- codec-call classification ---

// codecRole identifies whether a call is a writer op, a reader op, or
// neither, by the receiver's named type in this package.
func (x *wireExtractor) codecCall(call *ast.CallExpr) (role string, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	t := x.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() != x.pass.Pkg {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "writer":
		return "writer", sel.Sel.Name, true
	case "reader":
		return "reader", sel.Sel.Name, true
	}
	return "", "", false
}

// helperDecl resolves a call to a package-level helper that threads a
// *writer or *reader, returning its declaration for inlining.
func (x *wireExtractor) helperDecl(call *ast.CallExpr, role string) (*ast.FuncDecl, bool) {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, false
	}
	if tv, ok := x.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return nil, false // conversion, not a call
	}
	obj := x.pass.TypesInfo.Uses[id]
	fd, ok := x.funcs[obj]
	if !ok || fd.Body == nil {
		return nil, false
	}
	for _, field := range fd.Type.Params.List {
		t := x.pass.TypesInfo.TypeOf(field.Type)
		if p, isPtr := t.(*types.Pointer); isPtr {
			if named, isNamed := p.Elem().(*types.Named); isNamed &&
				named.Obj().Pkg() == x.pass.Pkg && named.Obj().Name() == role {
				return fd, true
			}
		}
	}
	return nil, false
}

// inlineHelper interprets a helper body with the caller's arguments
// bound to its parameters, so names resolve through the call.
func (x *wireExtractor) inlineHelper(fd *ast.FuncDecl, call *ast.CallExpr, interp func([]ast.Stmt) []Op) []Op {
	if x.inlining[fd] {
		x.problemf(call.Pos(), "recursive codec helper %s cannot be modeled", fd.Name.Name)
		return nil
	}
	x.inlining[fd] = true
	defer delete(x.inlining, fd)
	// Bind each parameter object to the corresponding argument.
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, pname := range field.Names {
			if i < len(call.Args) {
				if obj := x.pass.TypesInfo.Defs[pname]; obj != nil {
					x.bindings[obj] = call.Args[i]
					defer delete(x.bindings, obj)
				}
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return interp(fd.Body.List)
}

// containsCodecCalls reports whether any writer/reader op or codec
// helper call hides inside n — used to refuse statement shapes the
// interpreter does not model instead of silently dropping their ops.
func (x *wireExtractor) containsCodecCalls(n ast.Node, role string) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if found {
			return false
		}
		if call, ok := nn.(*ast.CallExpr); ok {
			if r, _, ok := x.codecCall(call); ok && r == role {
				found = true
				return false
			}
			if _, ok := x.helperDecl(call, role); ok {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// --- encode interpretation ---

// encodeStmts interprets an encoder body into its op sequence. Ops come
// from writer method calls and inlined helpers; a range/for loop
// becomes a rep group; an if with writer ops becomes a conditional
// (optional) group.
func (x *wireExtractor) encodeStmts(stmts []ast.Stmt) []Op {
	var ops []Op
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, ok := unparen(s.X).(*ast.CallExpr)
			if !ok {
				continue
			}
			ops = append(ops, x.encodeCall(call)...)
		case *ast.RangeStmt:
			if s.Value != nil {
				x.markAnon(s.Value)
			}
			body := x.encodeStmts(s.Body.List)
			if len(body) > 0 {
				ops = append(ops, Op{Kind: OpRep, Name: x.nameOf(s.X), Body: body})
			}
		case *ast.ForStmt:
			body := x.encodeStmts(s.Body.List)
			if len(body) > 0 {
				ops = append(ops, Op{Kind: OpRep, Body: body})
			}
		case *ast.IfStmt:
			body := x.encodeStmts(s.Body.List)
			if len(body) > 0 {
				ops = append(ops, Op{Kind: OpOpt, Name: firstName(body), Body: body})
			}
			if s.Else != nil && x.containsCodecCalls(s.Else, "writer") {
				x.problemf(s.Else.Pos(), "else-branch encoding cannot be modeled: wire layout must not fork on runtime state (only a trailing optional field may be conditional)")
			}
		default:
			if x.containsCodecCalls(stmt, "writer") {
				x.problemf(stmt.Pos(), "encode statement shape not modeled by wireproto: keep encoders to straight-line writer calls, counted loops over slices, and one trailing conditional field")
			}
		}
	}
	return ops
}

// markAnon records a range element variable so nameOf treats it as
// unnamed (its identifier is loop-local, not a schema name).
func (x *wireExtractor) markAnon(e ast.Expr) {
	if id, ok := e.(*ast.Ident); ok {
		if obj := x.pass.TypesInfo.Defs[id]; obj != nil {
			x.anon[obj] = true
		}
	}
}

func (x *wireExtractor) encodeCall(call *ast.CallExpr) []Op {
	if role, method, ok := x.codecCall(call); ok {
		if role != "writer" {
			x.problemf(call.Pos(), "reader op inside an encoder body")
			return nil
		}
		var argName string
		if len(call.Args) > 0 {
			argName = x.nameOf(call.Args[0])
		}
		switch method {
		case "u8", "u16", "u32", "u64", "bool":
			return []Op{{Kind: OpKind(method), Name: argName}}
		case "str":
			return []Op{{Kind: OpStr, Name: argName}}
		case "bytes":
			return []Op{{Kind: OpBytes, Name: argName}}
		case "u64s":
			return []Op{
				{Kind: OpU32, Name: lenName(argName)},
				{Kind: OpRep, Name: argName, Body: []Op{{Kind: OpU64}}},
			}
		case "u16s":
			return []Op{
				{Kind: OpU16, Name: lenName(argName)},
				{Kind: OpRep, Name: argName, Body: []Op{{Kind: OpU16}}},
			}
		default:
			x.problemf(call.Pos(), "unknown writer op w.%s: teach wireproto its wire layout before using it", method)
			return nil
		}
	}
	if fd, ok := x.helperDecl(call, "writer"); ok {
		return x.inlineHelper(fd, call, x.encodeStmts)
	}
	if x.containsCodecCalls(call, "writer") {
		x.problemf(call.Pos(), "encode call shape not modeled by wireproto")
	}
	return nil
}

// checkOptPlacement enforces that conditional encoding appears only as
// the final field of a message: anywhere else, presence cannot be
// inferred by the decoder and every later field shifts.
func (x *wireExtractor) checkOptPlacement(mt *msgType, ops []Op) {
	var walk func(ops []Op, topLevel bool)
	walk = func(ops []Op, topLevel bool) {
		for i, op := range ops {
			switch op.Kind {
			case OpOpt:
				if !topLevel || i != len(ops)-1 {
					x.problemf(mt.encodeDecl.Pos(),
						"conditional field %q of %s is not the trailing field: optional fields are detected by buffer exhaustion, so only the last field may be conditional", opLabel(op), mt.name)
				}
				walk(op.Body, false)
			case OpRep:
				walk(op.Body, false)
			}
		}
	}
	walk(ops, true)
}

// --- decode interpretation ---

// decodeStmts interprets a decoder body. Reader ops are gathered from
// expressions in evaluation order; loops become rep groups; an if whose
// condition tests remaining buffer bytes becomes a trailing optional
// group, while guards without reader ops (error/bomb checks) vanish and
// any other if is transparent.
func (x *wireExtractor) decodeStmts(stmts []ast.Stmt) []Op {
	var ops []Op
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				rhsOps := x.decodeExpr(rhs)
				// A single scalar read assigned to a struct field names
				// the op, letting the symmetry check catch same-type
				// field swaps that op kinds alone cannot see.
				if len(rhsOps) == 1 && rhsOps[0].Kind != OpRep && rhsOps[0].Kind != OpOpt &&
					len(s.Lhs) == len(s.Rhs) {
					if sel, ok := unparen(s.Lhs[i]).(*ast.SelectorExpr); ok {
						rhsOps[0].Name = sel.Sel.Name
					}
				}
				ops = append(ops, rhsOps...)
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							ops = append(ops, x.decodeExpr(v)...)
						}
					}
				}
			}
		case *ast.ExprStmt:
			ops = append(ops, x.decodeExpr(s.X)...)
		case *ast.IfStmt:
			if x.containsCodecCalls(s.Cond, "reader") {
				x.problemf(s.Cond.Pos(), "reader op inside an if condition cannot be modeled")
			}
			body := x.decodeStmts(s.Body.List)
			if s.Else != nil && x.containsCodecCalls(s.Else, "reader") {
				x.problemf(s.Else.Pos(), "else-branch decoding cannot be modeled: wire layout must not fork on runtime state")
			}
			if len(body) == 0 {
				continue // error/bomb guard
			}
			if condTestsRemaining(s.Cond) {
				ops = append(ops, Op{Kind: OpOpt, Name: firstName(body), Body: body})
			} else {
				ops = append(ops, body...) // presence guard like `if n > 0`
			}
		case *ast.RangeStmt:
			body := x.decodeStmts(s.Body.List)
			if len(body) > 0 {
				ops = append(ops, Op{Kind: OpRep, Name: x.nameOf(s.X), Body: body})
			}
		case *ast.ForStmt:
			body := x.decodeStmts(s.Body.List)
			if len(body) > 0 {
				ops = append(ops, Op{Kind: OpRep, Body: body})
			}
		case *ast.ReturnStmt:
			// Guard exits carry no ops; a helper's `return out` likewise.
		default:
			if x.containsCodecCalls(stmt, "reader") {
				x.problemf(stmt.Pos(), "decode statement shape not modeled by wireproto: keep decoders to straight-line reader calls, counted loops, guards and one trailing optional")
			}
		}
	}
	return ops
}

// decodeExpr extracts reader ops from one expression in evaluation
// order, inlining *reader helpers.
func (x *wireExtractor) decodeExpr(e ast.Expr) []Op {
	var ops []Op
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case nil:
			return
		case *ast.CallExpr:
			if role, method, ok := x.codecCall(e); ok {
				if role != "reader" {
					x.problemf(e.Pos(), "writer op inside a decoder body")
					return
				}
				switch method {
				case "u8", "u16", "u32", "u64", "bool":
					ops = append(ops, Op{Kind: OpKind(method)})
				case "str":
					ops = append(ops, Op{Kind: OpStr})
				case "bytesField":
					ops = append(ops, Op{Kind: OpBytes})
				case "u64list":
					ops = append(ops, Op{Kind: OpU32}, Op{Kind: OpRep, Body: []Op{{Kind: OpU64}}})
				case "u16list":
					ops = append(ops, Op{Kind: OpU16}, Op{Kind: OpRep, Body: []Op{{Kind: OpU16}}})
				default:
					x.problemf(e.Pos(), "unknown reader op r.%s: teach wireproto its wire layout before using it", method)
				}
				return
			}
			if fd, ok := x.helperDecl(e, "reader"); ok {
				ops = append(ops, x.inlineHelper(fd, e, x.decodeStmts)...)
				return
			}
			// Conversion or ordinary call: arguments evaluate in order.
			for _, a := range e.Args {
				walk(a)
			}
		case *ast.ParenExpr:
			walk(e.X)
		case *ast.StarExpr:
			walk(e.X)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.IndexExpr:
			walk(e.X)
			walk(e.Index)
		case *ast.SelectorExpr:
			walk(e.X)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				walk(elt)
			}
		case *ast.KeyValueExpr:
			walk(e.Value)
		}
	}
	walk(e)
	return ops
}

// condTestsRemaining reports whether an if condition examines the
// reader's position against its buffer (`r.off < len(r.buf)`), the
// idiom marking a trailing optional read.
func condTestsRemaining(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "off" {
			found = true
			return false
		}
		return true
	})
	return found
}

// --- naming ---

// nameOf recovers a schema field name from an encoder argument:
// selector fields (m.Name -> "Name"), counts (len(m.X) -> "len(X)"),
// conversions unwrapped, helper parameters resolved to the caller's
// argument. Loop-local element variables yield "".
func (x *wireExtractor) nameOf(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		obj := x.pass.TypesInfo.Uses[e]
		if obj != nil {
			if x.anon[obj] {
				return ""
			}
			if bound, ok := x.bindings[obj]; ok {
				return x.nameOf(bound)
			}
		}
		return e.Name
	case *ast.CallExpr:
		if id, ok := unparen(e.Fun).(*ast.Ident); ok && id.Name == "len" && len(e.Args) == 1 {
			return lenName(x.nameOf(e.Args[0]))
		}
		if tv, ok := x.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return x.nameOf(e.Args[0]) // conversion like uint32(m.App)
		}
	}
	return ""
}

func lenName(inner string) string {
	if inner == "" {
		return ""
	}
	return "len(" + inner + ")"
}

// firstName labels an opt group by its first named member.
func firstName(ops []Op) string {
	for _, op := range ops {
		if op.Name != "" {
			return op.Name
		}
	}
	return ""
}

// --- symmetry ---

// symmetryDiff compares an encoder's op sequence against the decoder's
// and describes the first divergence, or returns "". The one sanctioned
// asymmetry: the decoder may wrap the encoder's trailing fields in an
// optional group (new decoder accepting old short frames).
func symmetryDiff(enc, dec []Op) string {
	for i := 0; ; i++ {
		switch {
		case i == len(enc) && i == len(dec):
			return ""
		case i == len(enc):
			return fmt.Sprintf("decoder reads %d extra op(s) starting with %q that the encoder never writes", len(dec)-i, opLabel(dec[i]))
		case i == len(dec):
			return fmt.Sprintf("encoder writes %d extra op(s) starting with %q that the decoder never reads", len(enc)-i, opLabel(enc[i]))
		}
		e, d := enc[i], dec[i]
		// Trailing leniency: decoder-side opt absorbing the encoder's
		// unconditional tail.
		if d.Kind == OpOpt && e.Kind != OpOpt && i == len(dec)-1 {
			if diff := symmetryDiff(enc[i:], d.Body); diff != "" {
				return fmt.Sprintf("inside decoder's trailing optional group: %s", diff)
			}
			return ""
		}
		if e.Kind != d.Kind {
			return fmt.Sprintf("op %d: encoder writes %q, decoder reads %q", i, opLabel(e), opLabel(d))
		}
		// Field order: when both sides name the field, the names must
		// agree — a swapped pair of same-type reads is still a misparse.
		if e.Name != "" && d.Name != "" && e.Name != d.Name {
			return fmt.Sprintf("op %d: encoder writes field %q, decoder stores field %q — fields are swapped or reordered", i, opLabel(e), opLabel(d))
		}
		if e.Kind == OpRep || e.Kind == OpOpt {
			if diff := symmetryDiff(e.Body, d.Body); diff != "" {
				return fmt.Sprintf("inside %q: %s", opLabel(e), diff)
			}
		}
	}
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
				x.pass.Reportf(mt.kindPos, "%s and %s both claim kind %s: the decode dispatcher can construct only one of them", prev.name, mt.name, mt.kindConst.Name())
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

// checkDispatcher verifies decodeBody constructs the right type for
// every kind. kindswitch already forces the switch to be exhaustive;
// this adds the pairing check (case KindX must return the type whose
// Kind() is KindX).
func (x *wireExtractor) checkDispatcher(consts []*types.Const, byKind map[string]*msgType) {
	var nm *ast.FuncDecl
	for obj, fd := range x.funcs {
		if obj.Name() == "decodeBody" {
			nm = fd
			break
		}
	}
	if nm == nil {
		x.pass.Reportf(x.files[0].Pos(), "wire-codec package has no decodeBody decode dispatcher: inbound frames cannot be constructed by kind")
		return
	}
	covered := make(map[string]bool)
	ast.Inspect(nm.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		var kindNames []string
		for _, e := range cc.List {
			if name, ok := x.caseConstName(e); ok {
				kindNames = append(kindNames, name)
				covered[name] = true
			}
		}
		retType := constructedTypeName(cc.Body)
		if retType == "" || len(kindNames) == 0 {
			return true
		}
		for _, kn := range kindNames {
			mt := byKind[kn]
			if mt == nil {
				continue // missing-type finding already reported at the const
			}
			if mt.name != retType {
				x.pass.Reportf(cc.Pos(), "decode dispatcher returns %s for %s, but %s's Kind() is %s: frames of kind %s would be parsed with the wrong layout",
					retType, kn, retType, typeKindName(byTypeName(byKind, retType)), kn)
			}
		}
		return true
	})
	for _, c := range consts {
		if !covered[c.Name()] && byKind[c.Name()] != nil {
			x.pass.Reportf(c.Pos(), "kind %s is not constructed by the decode dispatcher (decodeBody): inbound frames of this kind are rejected as unknown", c.Name())
		}
	}
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

func (x *wireExtractor) caseConstName(e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	if c, ok := x.pass.TypesInfo.Uses[id].(*types.Const); ok {
		return c.Name(), true
	}
	return "", false
}

// constructedTypeName names the message type a dispatcher arm builds:
// the T of the first `&T{}` the arm assigns (`m := &T{}`, which it then
// decodes into and returns) or returns directly.
func constructedTypeName(body []ast.Stmt) string {
	for _, stmt := range body {
		var rhs []ast.Expr
		switch st := stmt.(type) {
		case *ast.AssignStmt:
			rhs = st.Rhs
		case *ast.ReturnStmt:
			rhs = st.Results
		}
		if len(rhs) != 1 {
			continue
		}
		ue, ok := unparen(rhs[0]).(*ast.UnaryExpr)
		if !ok || ue.Op != token.AND {
			continue
		}
		cl, ok := ue.X.(*ast.CompositeLit)
		if !ok {
			continue
		}
		if id, ok := cl.Type.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
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
func (x *wireExtractor) checkLock(schema *WireSchema, encPos map[string]token.Pos) {
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
	for _, v := range CompatDiff(lock, schema) {
		pos := encPos[v.KindName]
		if pos == token.NoPos {
			pos = x.files[0].Pos()
		}
		x.pass.Reportf(pos, "wire.lock: %s", v.Msg)
	}
}
