// Package lockcheck enforces the repo's locking convention: a function
// whose name ends in "Locked" may only be called while the mutex of the
// callee's receiver is held.
//
// The check drives the shared flow kit (internal/analysis/flow, whose
// walker was extracted from this analyzer) with a lock-set state:
// x.Lock()/x.RLock() adds x, x.Unlock()/x.RUnlock() removes it, and
// defer x.Unlock() leaves it held for the rest of the function.
// Branches fork the state and re-join on the intersection of the paths
// that fall through, so a branch that unlocks and returns does not
// clear the state for the code after it. Calling m.fooLocked(...)
// requires some mutex rooted at m (m.mu, m.snapMu, ...) to be held; a
// plain call to fooLocked() requires any mutex. Functions themselves
// named *Locked inherit the contract from their callers and are exempt
// inside.
//
// Escape hatch: //lint:held <reason> on the function's doc comment (or
// on the flagged line) asserts the function is documented to run under
// the caller's lock.
package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "calls to *Locked functions must hold the receiver's mutex",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue // the name states the contract; callers are checked
			}
			c := &checker{pass: pass}
			entry := lockSet{}
			if c.fnHeldDirective(fn) {
				entry["*"] = true
			}
			c.walker().Walk(fn.Body, entry)
		}
	}
	return nil
}

// lockSet is the set of mutex expressions (rendered as source paths)
// held at a program point. The wildcard "*" satisfies every requirement.
type lockSet map[string]bool

// Clone implements flow.State.
func (s lockSet) Clone() flow.State {
	c := make(lockSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// Join implements flow.State: branch-join by intersection, so only
// locks held on every falling-through path survive.
func (s lockSet) Join(o flow.State) flow.State {
	out := lockSet{}
	for k := range s {
		if o.(lockSet)[k] {
			out[k] = true
		}
	}
	return out
}

type checker struct {
	pass *analysis.Pass
}

// walker wires the lock-set transfer functions into the flow kit.
func (c *checker) walker() *flow.Walker {
	w := &flow.Walker{}
	w.Hooks = flow.Hooks{
		Call: func(call *ast.CallExpr, s flow.State) flow.State {
			held := s.(lockSet)
			c.call(call, held)
			return held
		},
		Defer: func(call *ast.CallExpr, s flow.State) flow.State {
			// defer x.Unlock() keeps x held to function exit; other
			// deferred calls (including closures) are not walked as part
			// of this flow.
			if _, kind := c.mutexOp(call); kind != opUnlock {
				w.FuncLits(call)
			}
			return s
		},
		FuncLit: c.checkFuncLit,
	}
	return w
}

// fnHeldDirective reports whether //lint:held covers the function's doc
// comment or signature line.
func (c *checker) fnHeldDirective(fn *ast.FuncDecl) bool {
	pos := c.pass.Fset.Position(fn.Pos())
	from := pos.Line
	if fn.Doc != nil {
		from = c.pass.Fset.Position(fn.Doc.Pos()).Line
	}
	return c.pass.HeldDirective(pos.Filename, from, pos.Line)
}

// checkFuncLit analyzes a function literal with an empty lock state: a
// closure runs on its own schedule, so it inherits no locks (a
// //lint:held directive on its first line overrides).
func (c *checker) checkFuncLit(fl *ast.FuncLit) {
	pos := c.pass.Fset.Position(fl.Pos())
	entry := lockSet{}
	if c.pass.HeldDirective(pos.Filename, pos.Line-1, pos.Line) {
		entry["*"] = true
	}
	c.walker().Block(fl.Body, entry)
}

type mutexOp = MutexOpKind

const (
	opNone   = OpNone
	opLock   = OpAcquire
	opUnlock = OpRelease
)

// mutexOp classifies a call as Lock/Unlock on a sync.Mutex or RWMutex,
// returning the rendered receiver path.
func (c *checker) mutexOp(call *ast.CallExpr) (string, mutexOp) {
	recv, op := ClassifyMutexOp(c.pass.Info, call)
	if op == OpNone {
		return "", OpNone
	}
	return ExprPath(recv), op
}

// MutexOpKind classifies what a call does to a sync.Mutex or RWMutex.
type MutexOpKind int

const (
	OpNone       MutexOpKind = iota // not a mutex operation
	OpAcquire                       // Lock or RLock
	OpRelease                       // Unlock or RUnlock
	OpTryAcquire                    // TryLock or TryRLock: acquires only if it returns true
)

// ClassifyMutexOp reports whether the call is a Lock/RLock,
// Unlock/RUnlock or TryLock/TryRLock on a sync.Mutex or RWMutex,
// returning the receiver expression. Shared with lockorder, which keys
// lock classes off the same classification. This analyzer ignores
// TryLock (the held set does not track which outcome a branch took);
// lockorder counts it as an acquisition, since it still orders the
// mutex after every lock held at the call.
func ClassifyMutexOp(info *types.Info, call *ast.CallExpr) (recv ast.Expr, kind MutexOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, OpNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = OpAcquire
	case "Unlock", "RUnlock":
		kind = OpRelease
	case "TryLock", "TryRLock":
		kind = OpTryAcquire
	default:
		return nil, OpNone
	}
	t := info.TypeOf(sel.X)
	if t == nil || !IsMutexType(t) {
		return nil, OpNone
	}
	return sel.X, kind
}

// IsMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func IsMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// call updates the state for mutex operations and checks *Locked calls.
func (c *checker) call(call *ast.CallExpr, held lockSet) {
	if path, op := c.mutexOp(call); op != opNone {
		switch op {
		case opLock:
			held[path] = true
		case opUnlock:
			delete(held, path)
		}
		return
	}
	name, base := calleeName(call)
	if name == "" || !strings.HasSuffix(name, "Locked") {
		return
	}
	if held["*"] || c.satisfied(held, base) {
		return
	}
	pos := c.pass.Fset.Position(call.Pos())
	if c.pass.HeldDirective(pos.Filename, pos.Line-1, pos.Line) {
		return
	}
	if base != "" {
		c.pass.Reportf(call.Pos(), "call to %s without holding a %s.* mutex", name, base)
	} else {
		c.pass.Reportf(call.Pos(), "call to %s without holding a mutex", name)
	}
}

// satisfied reports whether a held mutex guards the callee's receiver:
// any mutex rooted at the same base path (base "m" matches "m.mu",
// "m.snapMu", ...); an empty base (plain function call) accepts any
// held mutex.
func (c *checker) satisfied(held lockSet, base string) bool {
	if base == "" {
		return len(held) > 0
	}
	for path := range held {
		if strings.HasPrefix(path, base+".") || path == base {
			return true
		}
	}
	return false
}

// calleeName returns the called function's name and, for method calls,
// the rendered receiver path.
func calleeName(call *ast.CallExpr) (name, base string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, ""
	case *ast.SelectorExpr:
		return fun.Sel.Name, ExprPath(fun.X)
	}
	return "", ""
}

// ExprPath renders a selector chain like m.led.Faults() as a stable
// string key; non-path expressions collapse to their last component.
// Shared with lockorder, which keys held-lock instances the same way.
func ExprPath(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return ExprPath(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return ExprPath(v.Fun) + "()"
	case *ast.ParenExpr:
		return ExprPath(v.X)
	case *ast.StarExpr:
		return ExprPath(v.X)
	case *ast.IndexExpr:
		return ExprPath(v.X) + "[]"
	}
	return "?"
}
