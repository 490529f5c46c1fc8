// Package shardsafe enforces the hub/leaf kernel-affinity contract of
// the sharded execution mode (internal/sim/shard.go, internal/diskos):
// a partitioned simulation stays deterministic only if every
// cross-partition effect goes through ActiveDisk.Cross (Shard.Call on a
// sharded system). Three rules:
//
// Rule A — hub-drive paths must not block. Methods of sim.ShardGroup
// (Run, driveLeaves, respond, …) execute on the hub goroutine outside
// any process context; calling the blocking *sim.Proc API from them
// (Proc.Delay/Await, or any function whose first parameter is a
// *sim.Proc) would park the scheduler itself. This extends
// noblockincallback's call-graph closure to the shard runtime: the ban
// follows package-local calls out of ShardGroup methods, skipping
// function literals (proxy bodies spawned onto kernels are process
// context again) and Kernel methods (they are the drive mechanism).
//
// Rule B — disklet code must reach the hub only through
// ActiveDisk.Cross. Inside a function literal spawned on a disk's own
// kernel (`ad.Spawn(name, func(p *sim.Proc) { … })`), methods that
// touch hub-owned state — diskos.ActiveDisk's communication surface
// (Send, SendToFrontEnd, Recv, Release, CloseInbox) and the kernel-less
// sim coordination types (WaitGroup.Add/Done/Wait, Signal.Fire/Wait/
// Reset, Barrier.Wait) — are flagged unless they sit in a crossing
// literal: one passed to `ad.Cross(p, …)` directly or through a local
// variable (`send := func(hp *sim.Proc) { … }; ad.Cross(p, send)`).
// Locally defined closures called from leaf context are followed;
// named package functions are not.
//
// Rule C — crossing literals run on the hub and must not touch
// leaf-owned state: ActiveDisk.ReadLocal/WriteLocal/Compute inside one
// are findings (the disk, on-drive CPU and scratch live on the leaf
// kernel; driving them from a hub proxy corrupts the partition).
//
// kernel-bound primitives (sim.Mutex, Mailbox, Resource) may
// legitimately live on either side and are judged by noblockincallback
// instead.
package shardsafe

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"howsim/internal/analysis/allow"
)

var Analyzer = &analysis.Analyzer{
	Name: "shardsafe",
	Doc: "enforce the sharded-execution hub/leaf contract: no blocking *sim.Proc API in ShardGroup " +
		"hub-drive paths, hub-owned objects (ActiveDisk comm surface, WaitGroup/Signal/Barrier) " +
		"reached from ActiveDisk.Spawn disklets only through ActiveDisk.Cross, and no leaf-local " +
		"ActiveDisk ops (ReadLocal/WriteLocal/Compute) inside Cross literals",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// hubOnlyDiskos is ActiveDisk's hub-owned communication surface: these
// methods drive the interconnect loops, the front-end inbox and the
// pending-request resource, all built on the hub kernel.
var hubOnlyDiskos = map[string]bool{
	"Send": true, "SendToFrontEnd": true, "Recv": true,
	"Release": true, "CloseInbox": true,
}

// hubOnlySim are methods of the kernel-less sim coordination types:
// they mutate shared wait state and wake parked processes on whatever
// kernel the waiters live, so from a leaf they must go through Call.
var hubOnlySim = map[string]map[string]bool{
	"WaitGroup": {"Add": true, "Done": true, "Wait": true},
	"Signal":    {"Fire": true, "Wait": true, "Reset": true},
	"Barrier":   {"Wait": true},
}

// leafOnlyDiskos are ActiveDisk's leaf-owned operations: the disk
// mechanics, the on-drive CPU and the scratch resource live on the leaf
// kernel.
var leafOnlyDiskos = map[string]bool{
	"ReadLocal": true, "WriteLocal": true, "Compute": true,
}

// blockingProcMethods mirror noblockincallback: *sim.Proc methods that
// park the calling goroutine.
var blockingProcMethods = map[string]bool{
	"Delay": true, "Await": true,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := allow.NewSuppressor(pass)
	defer sup.ReportStale(pass)

	runHubDrive(pass, ins, sup)
	runLeafContext(pass, ins, sup)
	return nil, nil
}

// ---- Rule A: blocking Proc API in ShardGroup hub-drive paths ----

// runHubDrive builds the package-local call-graph closure rooted at
// ShardGroup methods and flags blocking calls, skipping function
// literals (spawned process bodies are process context).
func runHubDrive(pass *analysis.Pass, ins *inspector.Inspector, sup *allow.Suppressor) {
	if pass.Pkg.Name() != "sim" {
		return // ShardGroup is the sim package's type
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	var roots []*types.Func
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || allow.IsTestFile(pass.Fset, fd.Pos()) {
			return
		}
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		decls[fn] = fd
		if recvTypeName(fn) == "ShardGroup" {
			roots = append(roots, fn)
		}
	})
	if len(roots) == 0 {
		return
	}

	// Closure over package-local callees, literal bodies excluded.
	inHub := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if inHub[fn] {
			return
		}
		inHub[fn] = true
		fd := decls[fn]
		if fd == nil {
			return
		}
		inspectSkippingLits(fd.Body, func(call *ast.CallExpr) {
			g := calleeFunc(pass, call)
			if g == nil || decls[g] == nil {
				return
			}
			if recvTypeName(g) == "Kernel" || firstParamIsProc(g) {
				// Kernel methods are the drive mechanism; functions taking
				// a *Proc are process context and judged at their call
				// sites.
				return
			}
			visit(g)
		})
	}
	for _, fn := range roots {
		visit(fn)
	}

	for fn := range inHub {
		fd := decls[fn]
		if fd == nil {
			continue
		}
		where := "hub-drive path " + fn.Name()
		inspectSkippingLits(fd.Body, func(call *ast.CallExpr) {
			if name, bad := blockingCall(pass, call); bad {
				allow.Reportf(pass, sup, call.Pos(),
					"blocking %s called from %s: ShardGroup methods run on the hub goroutine "+
						"outside process context; blocking here wedges the scheduler", name, where)
			}
		})
	}
}

// inspectSkippingLits visits every CallExpr under n, skipping function
// literal subtrees.
func inspectSkippingLits(n ast.Node, f func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			f(call)
		}
		return true
	})
}

// ---- Rules B and C: disklet bodies and crossing literals ----

// runLeafContext finds ActiveDisk.Spawn literals and checks their bodies
// in leaf context, switching to hub context in crossing literals.
func runLeafContext(pass *analysis.Pass, ins *inspector.Inspector, sup *allow.Suppressor) {
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || allow.IsTestFile(pass.Fset, fd.Pos()) {
			return
		}
		// Local closures (`absorb := func(p *sim.Proc, …) { … }`) are
		// followed when called from leaf context.
		c := &leafChecker{pass: pass, sup: sup, closures: localClosures(pass, fd.Body),
			crossLits: map[*ast.FuncLit]bool{}, leafSeen: map[*ast.FuncLit]bool{}, hubSeen: map[*ast.FuncLit]bool{}}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if lit := c.crossLit(call); lit != nil {
					c.crossLits[lit] = true
				}
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lit := spawnLit(pass, call); lit != nil {
				c.checkLeafBody(lit)
				return false // the literal is fully handled
			}
			return true
		})
	})
}

// localClosures maps local variables to the function literals assigned
// to them within this function.
func localClosures(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]*ast.FuncLit {
	out := map[types.Object]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			lit, ok := as.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				out[obj] = lit
			}
		}
		return true
	})
	return out
}

// spawnLit returns the disklet body passed to `ad.Spawn(name, lit)`
// with ad a *diskos.ActiveDisk, if call is one.
func spawnLit(pass *analysis.Pass, call *ast.CallExpr) *ast.FuncLit {
	if !isActiveDiskCall(pass, call, "Spawn") {
		return nil
	}
	for _, a := range call.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// isActiveDiskCall reports whether call is `ad.<method>(…)` with ad a
// *diskos.ActiveDisk.
func isActiveDiskCall(pass *analysis.Pass, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	name, pkg := recvTypeAndPkg(pass.TypesInfo.TypeOf(sel.X))
	return name == "ActiveDisk" && pkg == "diskos"
}

type leafChecker struct {
	pass      *analysis.Pass
	sup       *allow.Suppressor
	closures  map[types.Object]*ast.FuncLit
	crossLits map[*ast.FuncLit]bool // literals some ad.Cross runs on the hub
	leafSeen  map[*ast.FuncLit]bool
	hubSeen   map[*ast.FuncLit]bool
}

// crossLit returns the literal an `ad.Cross(p, fn)` call runs on the
// hub — fn itself, or the local closure fn names.
func (c *leafChecker) crossLit(call *ast.CallExpr) *ast.FuncLit {
	if !isActiveDiskCall(c.pass, call, "Cross") || len(call.Args) != 2 {
		return nil
	}
	switch fn := ast.Unparen(call.Args[1]).(type) {
	case *ast.FuncLit:
		return fn
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[fn]; obj != nil {
			return c.closures[obj]
		}
	}
	return nil
}

// checkLeafBody walks a leaf-context literal: hub-owned methods are
// findings unless inside a crossing literal, which is checked in hub
// context instead.
func (c *leafChecker) checkLeafBody(lit *ast.FuncLit) {
	if c.leafSeen[lit] {
		return
	}
	c.leafSeen[lit] = true
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && c.crossLits[inner] {
			c.checkHubLit(inner)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A crossing closure defined outside this body runs on the hub.
		if hubLit := c.crossLit(call); hubLit != nil {
			c.checkHubLit(hubLit)
		}
		// Follow locally defined closures called from leaf context.
		if id, ok := call.Fun.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				if inner, ok := c.closures[obj]; ok {
					c.checkLeafBody(inner)
				}
			}
		}
		if name, bad := c.hubOnlyCall(call); bad {
			allow.Reportf(c.pass, c.sup, call.Pos(),
				"%s touches hub-owned state from a leaf disklet; move it into an "+
					"ActiveDisk.Cross(p, func(hp *sim.Proc) { … }) crossing", name)
		}
		return true
	})
}

// checkHubLit walks a crossing literal in hub context: leaf-owned
// ActiveDisk operations are findings. Each literal is checked once.
func (c *leafChecker) checkHubLit(lit *ast.FuncLit) {
	if c.hubSeen[lit] {
		return
	}
	c.hubSeen[lit] = true
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literals: context unknown, stop
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, bad := c.leafOnlyCall(call); bad {
			allow.Reportf(c.pass, c.sup, call.Pos(),
				"%s runs a leaf-owned operation from an ActiveDisk.Cross literal, which executes on "+
					"the hub; only the leaf's own processes may drive its disk, CPU and scratch", name)
		}
		return true
	})
}

// hubOnlyCall classifies a call in leaf context against the hub-owned
// method sets.
func (c *leafChecker) hubOnlyCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recvName, pkgName := recvTypeAndPkg(sig.Recv().Type())
	switch {
	case pkgName == "diskos" && recvName == "ActiveDisk" && hubOnlyDiskos[fn.Name()]:
		return "ActiveDisk." + fn.Name(), true
	case pkgName == "sim" && hubOnlySim[recvName] != nil && hubOnlySim[recvName][fn.Name()]:
		return recvName + "." + fn.Name(), true
	}
	return "", false
}

// leafOnlyCall classifies a call in hub (Call-literal) context against
// the leaf-owned method set.
func (c *leafChecker) leafOnlyCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recvName, pkgName := recvTypeAndPkg(sig.Recv().Type())
	if pkgName == "diskos" && recvName == "ActiveDisk" && leafOnlyDiskos[fn.Name()] {
		return "ActiveDisk." + fn.Name(), true
	}
	return "", false
}

// ---- shared type plumbing ----

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	name, _ := recvTypeAndPkg(sig.Recv().Type())
	return name
}

func recvTypeAndPkg(t types.Type) (name, pkg string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	o := named.Obj()
	if o.Pkg() != nil {
		pkg = o.Pkg().Name()
	}
	return o.Name(), pkg
}

func firstParamIsProc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return sig.Params().Len() > 0 && isSimType(sig.Params().At(0).Type(), "Proc")
}

// isSimType reports whether t is *T or T for named type T declared in a
// package named sim.
func isSimType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	n, pkg := recvTypeAndPkg(t)
	return n == name && pkg == "sim"
}

// blockingCall mirrors noblockincallback's shape test: Proc.Delay/Await
// or any non-Kernel function/method whose first parameter is *sim.Proc.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil && isSimType(recv.Type(), "Proc") {
		if blockingProcMethods[fn.Name()] {
			return "Proc." + fn.Name(), true
		}
		return "", false
	}
	if firstParamIsProc(fn) {
		name := fn.Name()
		if recv := sig.Recv(); recv != nil {
			rn, _ := recvTypeAndPkg(recv.Type())
			if rn == "Kernel" {
				return "", false
			}
			name = rn + "." + name
		}
		return name, true
	}
	return "", false
}
