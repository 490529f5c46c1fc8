// Package lockguard enforces the `// guarded by <mu>` field annotation:
// a struct field whose declaration carries that comment may only be
// read or written while the named mutex is held.
//
// The annotation names its guard one of two ways:
//
//	refs int        // guarded by mu               sibling field of the same struct
//	refs int        // guarded by flightGroup.mu   field mu of named type flightGroup
//	nextAt Time     // guarded by g.mu             via sibling field g (*ShardGroup)
//
// Lock state is inferred intra-function, the way the repo actually
// writes locking code: `mu.Lock()` / `mu.RLock()` acquire,
// `mu.Unlock()` / `mu.RUnlock()` release, `defer mu.Unlock()` keeps the
// lock held to every return, `if mu.TryLock() { … }` holds inside the
// branch, and branches that terminate (return/panic) discard their lock
// effects — so the early-unlock-and-return idiom does not poison the
// fall-through path. `sync.Cond.Wait` is lock-neutral (it reacquires
// before returning). A method whose name ends in "Locked" is, by the
// repo's naming convention, documented to be called with its receiver's
// mutexes held and is analyzed that way.
//
// A write under only an RLock is a finding. Function literals are
// analyzed with an empty lock set (they may run on another goroutine)
// except literals passed to sort functions or invoked immediately,
// which run synchronously under the caller's locks.
//
// The check is package-local (guarded fields in this repo are
// unexported) and lexical/type-based: a held `g.mu` satisfies a guard
// declared `g.mu` on any value whose guard resolves to the same mutex
// field of the same named type. Aliased mutexes through interfaces or
// copied pointers are beyond it — the race detector backstops those.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"howsim/internal/analysis/allow"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "flag reads/writes of struct fields annotated `// guarded by <mu>` in functions that do not " +
		"hold that mutex (intra-function Lock/Unlock inference, defer- and branch-aware); " +
		"writes under only an RLock are findings too",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// guardSpec is the parsed annotation target for one guarded field.
type guardSpec struct {
	// owner is the named struct type declaring the field (nil for
	// anonymous structs — lexical matching only).
	owner *types.Named
	// guardType is the named type whose field sel is the mutex: the
	// owner itself for a sibling guard ("mu"), the sibling field's type
	// for a "g.mu" spec, or the named type written in a "flightGroup.mu"
	// spec.
	guardType *types.Named
	// sel is the mutex field name ("mu", "drainMu", …).
	sel string
	// raw is the annotation text, for diagnostics.
	raw string
}

// heldLock is one mutex the current path holds.
type heldLock struct {
	baseType types.Type // type of the expression the mutex was selected from (nil for bare idents)
	baseKey  string     // lexical rendering of that expression ("g", "s", …)
	sel      string     // mutex field/variable name
	write    bool       // Lock/TryLock (full) vs RLock (read-only)
}

// guardRe extracts the guard expression from a field comment. The spec
// is the first dotted identifier after "guarded by"; trailing prose
// (after ';', ',' or whitespace) is ignored.
var guardRe = regexp.MustCompile(`guarded by\s+([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := allow.NewSuppressor(pass)
	defer sup.ReportStale(pass)

	guarded := collectGuarded(pass, ins)
	if len(guarded) == 0 {
		return nil, nil
	}

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || allow.IsTestFile(pass.Fset, fd.Pos()) {
			return
		}
		c := &checker{pass: pass, sup: sup, guarded: guarded}
		held := map[string]*heldLock{}
		if recv := receiverOf(pass, fd); recv != nil && strings.HasSuffix(fd.Name.Name, "Locked") {
			// The *Locked naming convention: the caller holds the
			// receiver's mutexes for the duration of the call.
			addReceiverMutexes(recv, receiverName(fd), held)
		}
		c.walkStmts(fd.Body.List, held)
	})
	return nil, nil
}

// collectGuarded parses every `// guarded by` field annotation in the
// package into a field-object → guardSpec map.
func collectGuarded(pass *analysis.Pass, ins *inspector.Inspector) map[types.Object]*guardSpec {
	guarded := map[types.Object]*guardSpec{}
	ins.Preorder([]ast.Node{(*ast.TypeSpec)(nil)}, func(n ast.Node) {
		ts := n.(*ast.TypeSpec)
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return
		}
		var owner *types.Named
		if obj, ok := pass.TypesInfo.Defs[ts.Name]; ok && obj != nil {
			owner, _ = obj.Type().(*types.Named)
		}
		for _, field := range st.Fields.List {
			spec := fieldGuardText(field)
			if spec == "" {
				continue
			}
			g := resolveSpec(pass, owner, st, spec)
			if g == nil {
				continue
			}
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					guarded[obj] = g
				}
			}
		}
	})
	return guarded
}

// fieldGuardText returns the guard expression named by the field's
// comments, or "".
func fieldGuardText(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// resolveSpec turns the annotation text into a guardSpec: "mu" names a
// sibling field, "g.mu" a mutex reached through sibling field g, and
// "flightGroup.mu" the mu field of a named type in this package.
func resolveSpec(pass *analysis.Pass, owner *types.Named, st *ast.StructType, spec string) *guardSpec {
	base, sel, dotted := strings.Cut(spec, ".")
	if !dotted {
		// Sibling guard: the mutex is a field of this same struct.
		if !structHasField(st, base) {
			return nil
		}
		return &guardSpec{owner: owner, guardType: owner, sel: base, raw: spec}
	}
	// Dotted: prefer a sibling field of that name (g.mu where g is a
	// *ShardGroup field of this struct), else a named type in the
	// package (flightGroup.mu).
	if t := structFieldType(pass, st, base); t != nil {
		if named, ok := derefNamed(t); ok {
			return &guardSpec{owner: owner, guardType: named, sel: sel, raw: spec}
		}
		return nil
	}
	if obj := pass.Pkg.Scope().Lookup(base); obj != nil {
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				return &guardSpec{owner: owner, guardType: named, sel: sel, raw: spec}
			}
		}
	}
	return nil
}

func structHasField(st *ast.StructType, name string) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return true
			}
		}
	}
	return false
}

func structFieldType(pass *analysis.Pass, st *ast.StructType, name string) types.Type {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return pass.TypesInfo.TypeOf(f.Type)
			}
		}
	}
	return nil
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// receiverOf returns the receiver's named type, if any.
func receiverOf(pass *analysis.Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if named, ok := derefNamed(t); ok {
		return named
	}
	return nil
}

// addReceiverMutexes seeds the held set with every sync mutex field of
// the receiver's struct, write-held — the *Locked contract.
func addReceiverMutexes(recv *types.Named, recvName string, held map[string]*heldLock) {
	st, ok := recv.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isSyncLock(f.Type()) {
			key := recvName + "." + f.Name()
			held[key] = &heldLock{baseType: recv, baseKey: recvName, sel: f.Name(), write: true}
		}
	}
}

// receiverName returns the receiver ident ("c" in `func (c *lru) …`),
// or a placeholder for unnamed receivers.
func receiverName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List[0].Names) > 0 {
		return fd.Recv.List[0].Names[0].Name
	}
	return "<recv>"
}

// isSyncLock reports whether t is sync.Mutex or sync.RWMutex.
func isSyncLock(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok {
		return false
	}
	o := named.Obj()
	if o.Pkg() == nil || o.Pkg().Path() != "sync" {
		return false
	}
	return o.Name() == "Mutex" || o.Name() == "RWMutex"
}

// checker walks one function body tracking the held-lock set.
type checker struct {
	pass    *analysis.Pass
	sup     *allow.Suppressor
	guarded map[types.Object]*guardSpec
	// targets is the stack of enclosing break/continue targets (loops,
	// switches, selects), innermost last; label is the label of the
	// LabeledStmt whose statement is about to push a target.
	targets []*branchTarget
	label   string
}

// branchTarget collects the lock states at every break (and, for loops,
// continue) that leaves a statement early. They join the statement's
// fall-through state: an unlabeled break ends its case or loop, not the
// function.
type branchTarget struct {
	label  string
	loop   bool
	states []map[string]*heldLock
}

func (c *checker) pushTarget(loop bool) *branchTarget {
	t := &branchTarget{label: c.label, loop: loop}
	c.label = ""
	c.targets = append(c.targets, t)
	return t
}

func (c *checker) popTarget() { c.targets = c.targets[:len(c.targets)-1] }

// branchTo records held at the target a break or continue jumps to. A
// goto, or a branch with no matching target, records nothing.
func (c *checker) branchTo(s *ast.BranchStmt, held map[string]*heldLock) {
	if s.Tok != token.BREAK && s.Tok != token.CONTINUE {
		return
	}
	for i := len(c.targets) - 1; i >= 0; i-- {
		t := c.targets[i]
		if s.Label != nil && t.label != s.Label.Name {
			continue
		}
		if s.Label == nil && s.Tok == token.CONTINUE && !t.loop {
			continue
		}
		t.states = append(t.states, cloneHeld(held))
		return
	}
}

func cloneHeld(held map[string]*heldLock) map[string]*heldLock {
	out := make(map[string]*heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func intersectHeld(a, b map[string]*heldLock) map[string]*heldLock {
	out := map[string]*heldLock{}
	for k, va := range a {
		if vb, ok := b[k]; ok {
			v := *va
			v.write = va.write && vb.write
			out[k] = &v
		}
	}
	return out
}

// walkStmts analyzes a statement list, mutating held in place, and
// reports whether the list always terminates (return/panic/branch).
func (c *checker) walkStmts(stmts []ast.Stmt, held map[string]*heldLock) bool {
	for _, s := range stmts {
		if c.walkStmt(s, held) {
			return true
		}
	}
	return false
}

func (c *checker) walkStmt(s ast.Stmt, held map[string]*heldLock) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if c.applyLockCall(call, held) {
				return false
			}
			if isPanic(c.pass, call) {
				c.checkExpr(s.X, held, false)
				return true
			}
		}
		c.checkExpr(s.X, held, false)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the lock stays held for the
		// rest of the function. Other deferred calls: check args now,
		// body (if a literal) with no locks assumed.
		if lk, kind := lockMethod(c.pass, s.Call); lk != nil && (kind == opUnlock || kind == opRUnlock) {
			return false
		}
		for _, a := range s.Call.Args {
			c.checkExpr(a, held, false)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, map[string]*heldLock{})
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.checkExpr(r, held, false)
		}
		for _, l := range s.Lhs {
			c.checkExpr(l, held, true)
		}
	case *ast.IncDecStmt:
		c.checkExpr(s.X, held, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.checkExpr(r, held, false)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave this path. A break or continue
		// carries its lock state to the statement it targets, whose
		// fall-through state absorbs it.
		c.branchTo(s, held)
		return true
	case *ast.BlockStmt:
		return c.walkStmts(s.List, held)
	case *ast.IfStmt:
		return c.walkIf(s, held)
	case *ast.ForStmt:
		t := c.pushTarget(true)
		c.walkStmt(s.Init, held)
		if s.Cond != nil {
			c.checkExpr(s.Cond, held, false)
		}
		body := cloneHeld(held)
		c.walkStmts(s.Body.List, body)
		if s.Post != nil {
			c.walkStmt(s.Post, body)
		}
		c.popTarget()
		// The body may run zero times, so only locks surviving the
		// pre-state, a full iteration and every break are held afterwards.
		merge(held, intersectAll(append(t.states, held, body)))
		return false
	case *ast.RangeStmt:
		t := c.pushTarget(true)
		c.checkExpr(s.X, held, false)
		body := cloneHeld(held)
		c.walkStmts(s.Body.List, body)
		c.popTarget()
		merge(held, intersectAll(append(t.states, held, body)))
		return false
	case *ast.SwitchStmt:
		c.walkStmt(s.Init, held)
		if s.Tag != nil {
			c.checkExpr(s.Tag, held, false)
		}
		return c.walkCases(s.Body, held, hasDefaultCase(s.Body))
	case *ast.TypeSwitchStmt:
		c.walkStmt(s.Init, held)
		c.walkStmt(s.Assign, held)
		return c.walkCases(s.Body, held, hasDefaultCase(s.Body))
	case *ast.SelectStmt:
		return c.walkCases(s.Body, held, true)
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			c.checkExpr(a, held, false)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, map[string]*heldLock{})
		}
	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			c.label = s.Label.Name
		}
		return c.walkStmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.checkExpr(v, held, false)
					}
				}
			}
		}
	case *ast.SendStmt:
		c.checkExpr(s.Chan, held, false)
		c.checkExpr(s.Value, held, false)
	}
	return false
}

// walkIf handles branch-aware lock state, including the TryLock idiom:
// `if mu.TryLock() { … }` holds mu in the then-branch, and
// `if !mu.TryLock() { return }` holds it on the fall-through.
func (c *checker) walkIf(s *ast.IfStmt, held map[string]*heldLock) bool {
	c.walkStmt(s.Init, held)

	thenHeld := cloneHeld(held)
	elseHeld := cloneHeld(held)
	if lk, positive, ok := c.tryLockCond(s, held); ok {
		if positive {
			thenHeld[lk.baseKey+"."+lk.sel] = lk
		} else {
			elseHeld[lk.baseKey+"."+lk.sel] = lk
		}
	} else {
		c.checkExpr(s.Cond, held, false)
	}

	thenTerm := c.walkStmts(s.Body.List, thenHeld)
	elseTerm := false
	if s.Else != nil {
		elseTerm = c.walkStmt(s.Else, elseHeld)
	}

	switch {
	case thenTerm && elseTerm && s.Else != nil:
		return true
	case thenTerm:
		replace(held, elseHeld)
	case elseTerm:
		replace(held, thenHeld)
	default:
		replace(held, intersectHeld(thenHeld, elseHeld))
	}
	return false
}

// tryLockCond recognizes `mu.TryLock()` / `!mu.TryLock()` conditions,
// directly or through `if ok := mu.TryLock(); ok`.
func (c *checker) tryLockCond(s *ast.IfStmt, held map[string]*heldLock) (*heldLock, bool, bool) {
	cond := s.Cond
	positive := true
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, positive = u.X, false
	}
	if call, ok := cond.(*ast.CallExpr); ok {
		if lk, kind := lockMethod(c.pass, call); lk != nil && kind == opTryLock {
			return lk, positive, true
		}
	}
	// if ok := mu.TryLock(); ok { … }
	if id, ok := cond.(*ast.Ident); ok {
		if as, ok := s.Init.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if lhs, ok := as.Lhs[0].(*ast.Ident); ok && lhs.Name == id.Name {
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
					if lk, kind := lockMethod(c.pass, call); lk != nil && kind == opTryLock {
						return lk, positive, true
					}
				}
			}
		}
	}
	return nil, false, false
}

func merge(dst, src map[string]*heldLock) { replace(dst, src) }

func replace(dst, src map[string]*heldLock) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		switch cc := s.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				return true
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				return true
			}
		}
	}
	return false
}

// walkCases analyzes switch/select bodies: each case starts from the
// pre-state; the post-state is the intersection of every non-terminating
// case end, every break out of a case (and the pre-state, when no
// default guarantees entry).
func (c *checker) walkCases(body *ast.BlockStmt, held map[string]*heldLock, exhaustive bool) bool {
	t := c.pushTarget(false)
	post := []map[string]*heldLock{}
	if !exhaustive {
		post = append(post, cloneHeld(held))
	}
	allTerm := len(body.List) > 0
	for _, s := range body.List {
		var stmts []ast.Stmt
		switch cc := s.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				c.checkExpr(e, held, false)
			}
			stmts = cc.Body
		case *ast.CommClause:
			h := cloneHeld(held)
			c.walkStmt(cc.Comm, h)
			if !c.walkStmts(cc.Body, h) {
				post = append(post, h)
				allTerm = false
			}
			continue
		default:
			continue
		}
		h := cloneHeld(held)
		if !c.walkStmts(stmts, h) {
			post = append(post, h)
			allTerm = false
		}
	}
	c.popTarget()
	post = append(post, t.states...)
	if exhaustive && allTerm && len(t.states) == 0 {
		return true
	}
	if len(post) > 0 {
		replace(held, intersectAll(post))
	}
	return false
}

// intersectAll intersects a non-empty list of lock states.
func intersectAll(states []map[string]*heldLock) map[string]*heldLock {
	acc := states[0]
	for _, h := range states[1:] {
		acc = intersectHeld(acc, h)
	}
	return acc
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opTryLock
	opUnlock
	opRUnlock
	opCondWait
)

// lockMethod recognizes sync mutex transitions: the receiver lock plus
// which operation the call performs. sync.Cond.Wait is lock-neutral.
func lockMethod(pass *analysis.Pass, call *ast.CallExpr) (*heldLock, lockOp) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, opNone
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, opNone
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, opNone
	}
	recvNamed, ok := derefNamed(sig.Recv().Type())
	if !ok || recvNamed.Obj().Pkg() == nil || recvNamed.Obj().Pkg().Path() != "sync" {
		return nil, opNone
	}
	switch recvNamed.Obj().Name() {
	case "Mutex", "RWMutex":
	case "Cond":
		if fn.Name() == "Wait" {
			return nil, opCondWait
		}
		return nil, opNone
	default:
		return nil, opNone
	}
	var op lockOp
	var write bool
	switch fn.Name() {
	case "Lock":
		op, write = opLock, true
	case "RLock":
		op, write = opRLock, false
	case "TryLock":
		op, write = opTryLock, true
	case "TryRLock":
		op, write = opTryLock, false
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return nil, opNone
	}
	lk := &heldLock{sel: lockSelName(sel.X), baseKey: lockBaseKey(sel.X), write: write}
	if base := lockBaseExpr(sel.X); base != nil {
		lk.baseType = pass.TypesInfo.TypeOf(base)
	}
	return lk, op
}

// The mutex expression `g.mu` splits into base `g` (typed) and sel
// "mu"; a bare `mu` ident has itself as sel and no base type.
func lockSelName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return allow.ExprString(e)
}

func lockBaseKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return allow.ExprString(e.X)
	case *ast.Ident:
		return ""
	}
	return allow.ExprString(e)
}

func lockBaseExpr(e ast.Expr) ast.Expr {
	if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return se.X
	}
	return nil
}

// applyLockCall mutates held for a standalone lock-transition call and
// reports whether the statement was one.
func (c *checker) applyLockCall(call *ast.CallExpr, held map[string]*heldLock) bool {
	lk, op := lockMethod(c.pass, call)
	switch op {
	case opNone:
		return false
	case opCondWait:
		return true
	}
	key := lk.baseKey + "." + lk.sel
	switch op {
	case opLock, opRLock:
		held[key] = lk
	case opUnlock, opRUnlock:
		delete(held, key)
	case opTryLock:
		// Result discarded: acquisition unknown; assume not held.
	}
	return true
}

// checkExpr reports guarded-field accesses in e not covered by held.
// write marks assignment/inc-dec targets.
func (c *checker) checkExpr(e ast.Expr, held map[string]*heldLock, write bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures may run on other goroutines: analyze with no
			// locks, unless the enclosing context proves synchronous
			// execution (handled at call sites by sortLitOK).
			c.walkStmts(n.Body.List, map[string]*heldLock{})
			return false
		case *ast.CompositeLit:
			// Field keys in a literal initialize a fresh, unpublished
			// value; only the element values need checking.
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					c.checkExpr(kv.Value, held, false)
				} else {
					c.checkExpr(el, held, false)
				}
			}
			return false
		case *ast.CallExpr:
			if c.sortLit(n, held) {
				return false
			}
		case *ast.SelectorExpr:
			c.checkSelector(n, held, write && isWholeExpr(e, n))
		}
		return true
	})
}

// sortLit handles literals passed to sort/slices calls: the comparator
// runs synchronously under the caller's locks.
func (c *checker) sortLit(call *ast.CallExpr, held map[string]*heldLock) bool {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = c.pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = c.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") {
		return false
	}
	for _, a := range call.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, held)
		} else {
			c.checkExpr(a, held, false)
		}
	}
	return true
}

// isWholeExpr reports whether sel is the whole checked expression (the
// assignment target itself rather than a subexpression of it).
func isWholeExpr(e ast.Expr, sel *ast.SelectorExpr) bool {
	return ast.Unparen(e) == sel
}

func (c *checker) checkSelector(sel *ast.SelectorExpr, held map[string]*heldLock, write bool) {
	obj := c.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[sel.Sel]
	}
	g, ok := c.guarded[obj]
	if !ok {
		return
	}
	if lk := c.satisfies(g, sel, held); lk != nil {
		if write && !lk.write {
			allow.Reportf(c.pass, c.sup, sel.Pos(),
				"%s written while holding only a read lock on %s (field %s is `// guarded by %s`)",
				allow.ExprString(sel), g.raw, sel.Sel.Name, g.raw)
		}
		return
	}
	verb := "read"
	if write {
		verb = "written"
	}
	allow.Reportf(c.pass, c.sup, sel.Pos(),
		"%s %s without holding %s (field %s is `// guarded by %s`)",
		allow.ExprString(sel), verb, g.raw, sel.Sel.Name, g.raw)
}

// satisfies returns the held lock covering this guarded access, if
// any. Sibling guards ("mu") are lexical: the held mutex must be
// selected from the same expression as the field (`c.mu` covers `c.n`,
// not `other.n`). Dotted guards ("g.mu", "flightGroup.mu") name a
// mutex on another object and match by type: any held mutex that is
// field g.sel of named type g.guardType.
func (c *checker) satisfies(g *guardSpec, sel *ast.SelectorExpr, held map[string]*heldLock) *heldLock {
	baseKey := allow.ExprString(sel.X)
	sibling := g.guardType != nil && g.guardType == g.owner
	for _, lk := range held {
		if lk.sel != g.sel {
			continue
		}
		if sibling {
			if lk.baseKey == baseKey {
				return lk
			}
			continue
		}
		if g.guardType != nil && lk.baseType != nil {
			if named, ok := derefNamed(lk.baseType); ok && named.Obj() == g.guardType.Obj() {
				return lk
			}
		}
	}
	return nil
}

func isPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
