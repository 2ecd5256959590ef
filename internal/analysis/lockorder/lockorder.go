// Package lockorder enforces ARCHITECTURE.md's lock-ordering chain.
//
// For every function it derives the set of manifest locks held at each
// basic block by a forward dataflow over the framework CFG (Lock/RLock
// acquire, Unlock/RUnlock release, defer Unlock = held until the exit
// chain runs it, merge points joined by intersection so a lock counts
// as held only when held on every inbound path, bodies of `go`
// statements and function literals analyzed with an empty held set),
// then flags:
//
//   - acquiring a lock whose rank is ≤ the rank of any lock already
//     held (out-of-order, or a second lock of the same class);
//   - acquiring any lock while holding one from the released-between
//     prefix of the chain (ring / epoch stripe / dhm shard);
//   - holding a lock of the chain across an I/O barrier — a call into
//     ioclient, a movement-interface method, the mover completion
//     callback, or any same-package function that transitively reaches
//     one.
//
// The analysis is intra-procedural with one package-local call-graph
// closure for barrier reachability; it does not track locks passed by
// pointer into helpers, which matches how the repo actually structures
// its critical sections. Being CFG-based it is path-sensitive across
// loops, labeled breaks, goto and switch fallthrough, which the old
// syntactic walk approximated.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hfetch/internal/analysis/framework"
)

// Analyzer checks the repo against the default manifest.
var Analyzer = NewAnalyzer(Default())

// NewAnalyzer builds a lockorder analyzer for a manifest; fixtures use
// manifests over fixture-local types.
func NewAnalyzer(m Manifest) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "lockorder",
		Doc:  "enforce the ARCHITECTURE.md lock-ordering chain and the no-lock-across-I/O rule",
		Run:  func(pass *framework.Pass) error { return run(pass, m) },
	}
}

func run(pass *framework.Pass, m Manifest) error {
	// Inside a barrier package every call would count as a barrier and
	// its own store-handling would self-flag; the rule is about holding
	// locks *outside* the I/O client.
	for _, bp := range m.BarrierPkgs {
		if pass.Pkg != nil && pass.Pkg.Path() == bp {
			return nil
		}
	}
	c := &checker{pass: pass, m: m,
		rank:    make(map[FieldSel]int),
		barrier: make(map[string]bool),
		bpkgs:   make(map[string]bool),
	}
	for i, cl := range m.Classes {
		for _, f := range cl.Fields {
			c.rank[f] = i
		}
	}
	for _, f := range m.BarrierFuncs {
		c.barrier[f] = true
	}
	for _, p := range m.BarrierPkgs {
		c.bpkgs[p] = true
	}
	c.buildReach()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.walkFunc(fd.Body)
		}
	}
	return nil
}

type held struct {
	rank int
	pos  token.Pos
}

// lockFact is the dataflow fact: the set of manifest locks held at a
// program point, with acquisition positions for the messages.
type lockFact []held

type checker struct {
	pass    *framework.Pass
	m       Manifest
	rank    map[FieldSel]int
	barrier map[string]bool
	bpkgs   map[string]bool
	// reach marks package-local functions that transitively perform a
	// barrier call.
	reach map[*types.Func]bool
	// silent suppresses reporting during the fixpoint iterations; the
	// post-solve reporting pass clears it.
	silent bool
}

// buildReach computes which functions declared in this package reach an
// I/O barrier, by fixpoint over the package-local static call graph.
func (c *checker) buildReach() {
	direct := make(map[*types.Func]bool)
	callees := make(map[*types.Func][]*types.Func)
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if c.isBarrierCall(call) {
					direct[fn] = true
					return true
				}
				if callee := framework.CalleeFunc(c.pass.TypesInfo, call); callee != nil &&
					callee.Pkg() == c.pass.Pkg {
					callees[fn] = append(callees[fn], callee)
				}
				return true
			})
		}
	}
	c.reach = direct
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			if c.reach[fn] {
				continue
			}
			for _, callee := range cs {
				if c.reach[callee] {
					c.reach[fn] = true
					changed = true
					break
				}
			}
		}
	}
}

// isBarrierCall reports whether call is a direct I/O barrier.
func (c *checker) isBarrierCall(call *ast.CallExpr) bool {
	// Field-typed callback: m.done(mv, err).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
			key := framework.TypeKey(framework.Named(s.Recv())) + "." + s.Obj().Name()
			if c.barrier[key] {
				return true
			}
		}
	}
	fn := framework.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && c.bpkgs[fn.Pkg().Path()] {
		return true
	}
	if recv := framework.ReceiverNamed(fn); recv != nil {
		if c.barrier[framework.TypeKey(recv)+"."+fn.Name()] {
			return true
		}
	}
	return false
}

// lockTarget resolves the manifest rank of the mutex a
// Lock/RLock/Unlock/RUnlock call operates on; ok=false when the
// receiver is not a manifest lock field.
func (c *checker) lockTarget(call *ast.CallExpr) (rank int, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return 0, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return 0, false, false
	}
	field, isField := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isField {
		return 0, false, false
	}
	fs, fok := c.pass.TypesInfo.Selections[field]
	if !fok || fs.Kind() != types.FieldVal {
		return 0, false, false
	}
	key := FieldSel{
		Type:  framework.TypeKey(framework.Named(fs.Recv())),
		Field: fs.Obj().Name(),
	}
	r, known := c.rank[key]
	return r, acquire, known
}

// walkFunc analyzes one function body (or function literal) over its
// CFG: the fixpoint runs silently to reach stable entry facts, then a
// reporting pass re-transfers each reachable block so every finding is
// emitted exactly once against the final facts. Nested literals are
// queued the same way with an empty held set.
func (c *checker) walkFunc(body *ast.BlockStmt) {
	cfg := framework.NewCFG(body)
	flow := &framework.Flow{
		CFG:   cfg,
		Entry: lockFact(nil),
		Join: func(a, b framework.Fact) framework.Fact {
			return lockFact(intersect(a.(lockFact), b.(lockFact)))
		},
		Transfer: func(b *framework.Block, in framework.Fact) framework.Fact {
			return lockFact(c.transfer(b, clone(in.(lockFact))))
		},
		Equal: func(a, b framework.Fact) bool {
			return sameLocks(a.(lockFact), b.(lockFact))
		},
	}
	c.silent = true
	res := flow.Solve()
	c.silent = false
	for _, blk := range cfg.Blocks {
		in, ok := res.In[blk].(lockFact)
		if !ok {
			continue // unreachable
		}
		c.transfer(blk, clone(in))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.walkFunc(lit.Body)
			return false
		}
		return true
	})
}

// transfer applies one block's nodes, in order, to the held set.
func (c *checker) transfer(b *framework.Block, h []held) []held {
	for _, n := range b.Nodes {
		h = c.node(n, h)
	}
	return h
}

func (c *checker) node(n ast.Node, h []held) []held {
	switch n := n.(type) {
	case framework.DeferredCall:
		// The deferred call runs here on the exit chain: apply its lock
		// effect (defer mu.Unlock() releases now) without re-walking
		// argument expressions, which were evaluated at registration.
		if r, acquire, ok := c.lockTarget(n.CallExpr); ok && !acquire {
			return release(h, r)
		}
		return h
	case ast.Expr:
		// Branch conditions, switch tags, case expressions.
		return c.expr(n, h)
	case *ast.ExprStmt:
		return c.expr(n.X, h)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			h = c.expr(e, h)
		}
		for _, e := range n.Lhs {
			h = c.expr(e, h)
		}
		return h
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the lock held until the exit chain —
		// no effect at registration; later barrier calls correctly see
		// it held. Argument expressions do evaluate now.
		for _, a := range n.Call.Args {
			h = c.expr(a, h)
		}
		return h
	case *ast.GoStmt:
		// The spawned goroutine holds nothing; its literal body is
		// analyzed separately by walkFunc. Arguments evaluate now.
		for _, a := range n.Call.Args {
			h = c.expr(a, h)
		}
		return h
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			h = c.expr(e, h)
		}
		return h
	case *ast.RangeStmt:
		return c.expr(n.X, h)
	case ast.Stmt:
		// Declarations, inc/dec, sends, if-inits: straight-line
		// statements whose embedded expressions may contain calls.
		ast.Inspect(n, func(nn ast.Node) bool {
			if _, ok := nn.(*ast.FuncLit); ok {
				return false
			}
			if e, ok := nn.(ast.Expr); ok {
				h = c.expr(e, h)
				return false
			}
			return true
		})
		return h
	}
	return h
}

// expr processes every call in e against the held set, outside nested
// function literals, and returns the updated set.
func (c *checker) expr(e ast.Expr, h []held) []held {
	if e == nil {
		return h
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		h = c.call(call, h)
		return true
	})
	return h
}

// call applies one call's effect: acquire, release, or barrier check.
func (c *checker) call(call *ast.CallExpr, h []held) []held {
	if r, acquire, ok := c.lockTarget(call); ok {
		if acquire {
			c.checkAcquire(call.Pos(), r, h)
			return append(h, held{rank: r, pos: call.Pos()})
		}
		return release(h, r)
	}

	direct := c.isBarrierCall(call)
	indirect := false
	var via *types.Func
	if !direct {
		if fn := framework.CalleeFunc(c.pass.TypesInfo, call); fn != nil && c.reach[fn] {
			indirect, via = true, fn
		}
	}
	if direct || indirect {
		for _, hl := range h {
			name := c.m.Classes[hl.rank].Name
			if direct {
				c.reportf(call.Pos(),
					"%s lock held across I/O call (acquired at %s); tier store locks are innermost and callbacks run lock-free",
					name, c.pass.Fset.Position(hl.pos))
			} else {
				c.reportf(call.Pos(),
					"%s lock held across call to %s, which reaches I/O (lock acquired at %s)",
					name, via.Name(), c.pass.Fset.Position(hl.pos))
			}
		}
	}
	return h
}

func (c *checker) checkAcquire(pos token.Pos, r int, h []held) {
	for _, hl := range h {
		switch {
		case hl.rank == r:
			c.reportf(pos,
				"acquires a second %s lock while one is already held (at %s); never more than one of each kind",
				c.m.Classes[r].Name, c.pass.Fset.Position(hl.pos))
		case hl.rank > r:
			c.reportf(pos,
				"acquires %s lock while holding %s lock (at %s); chain order is %s",
				c.m.Classes[r].Name, c.m.Classes[hl.rank].Name,
				c.pass.Fset.Position(hl.pos), c.chain())
		case c.m.Classes[hl.rank].ReleasedBefore:
			c.reportf(pos,
				"acquires %s lock while still holding %s lock (at %s); the %s lock must be released before taking any later lock",
				c.m.Classes[r].Name, c.m.Classes[hl.rank].Name,
				c.pass.Fset.Position(hl.pos), c.m.Classes[hl.rank].Name)
		}
	}
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.silent {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) chain() string {
	names := make([]string, len(c.m.Classes))
	for i, cl := range c.m.Classes {
		names[i] = cl.Name
	}
	return strings.Join(names, " → ")
}

func clone(h []held) []held {
	return append([]held(nil), h...)
}

// release drops the most recent lock of rank r from the set.
func release(h []held, r int) []held {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].rank == r {
			return append(h[:i:i], h[i+1:]...)
		}
	}
	return h
}

// intersect keeps locks present (by rank) in both sets, preserving a's
// acquisition positions.
func intersect(a, b []held) []held {
	var out []held
	for _, ha := range a {
		for _, hb := range b {
			if ha.rank == hb.rank {
				out = append(out, ha)
				break
			}
		}
	}
	return out
}

// sameLocks compares two held sets as (rank, pos) multisets in order —
// the transfer is deterministic, so order-sensitive equality is enough
// to bound the fixpoint.
func sameLocks(a, b []held) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].rank != b[i].rank || a[i].pos != b[i].pos {
			return false
		}
	}
	return true
}
