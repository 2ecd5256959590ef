// Package goleak checks that every goroutine spawned on behalf of a
// long-lived type is joinable from its quiesce method.
//
// A type is long-lived when it declares Stop, Close, Drain or Shutdown.
// A type whose New* constructor or Start (or start*) method spawns a
// goroutine must be long-lived: one that declares none of the four is
// reported at its first such spawn. For a long-lived type the analyzer
// first collects the type's *stop signals* — what the
// quiesce method (transitively, through other methods of the same
// type) actually triggers: `close(t.f)` and `t.f <- v` on channel
// fields, and calls to context.CancelFunc fields. It then examines
// every `go` statement in the type's methods and constructors and
// builds the framework CFG of the goroutine body (function literal or
// same-package function): each strongly connected component of the
// graph that contains a *daemon loop* — a `for` with no condition, or a
// `range` over a channel nothing closes — must observe one of the stop
// signals (a receive from a signal channel, a `<-ctx.Done()` when the
// type cancels a context, a range over a closed channel, or a call to a
// same-package helper that observes one). A cycle with no observation
// can never leave its loop once the quiesce method runs, so the
// goroutine leaks; the spawn is reported.
//
// Loops with an explicit exit condition (`for i < n`, `for !done`) and
// ranges over non-channel operands are exempt: they terminate on their
// own. Goroutines whose body cannot be resolved (method values from
// other packages, dynamic calls) are skipped.
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hfetch/internal/analysis/framework"
)

// Analyzer checks Start/Stop pairing and goroutine joinability.
var Analyzer = &framework.Analyzer{
	Name: "goleak",
	Doc:  "a type whose New*/Start spawns a goroutine needs a quiesce method, whose stop signal every spawned loop observes",
	Run:  run,
}

var quiesceNames = []string{"Stop", "Close", "Drain", "Shutdown"}

// signals is one owner type's shutdown surface.
type signals struct {
	owner string // framework.TypeKey of the owner
	// fields are channel/cancel fields the quiesce path triggers.
	fields map[string]bool
	// ctx: a context.CancelFunc field is invoked, so any <-ctx.Done()
	// receive counts as an observation.
	ctx bool
	// closedAnywhere are channel fields closed somewhere in the package
	// (a producer closing its output joins consumers ranging over it).
	closedAnywhere map[string]bool
	// quiesce is the method name used in messages.
	quiesce string
	// observers are same-package functions whose bodies observe one of
	// the signals; calls to them count as observations.
	observers map[*types.Func]bool
}

func run(pass *framework.Pass) error {
	c := &collector{pass: pass}
	c.index()
	for key, sp := range c.spawner {
		if c.quiesceOf[key] == "" {
			pass.Reportf(sp.pos, "%s spawns a goroutine in %s but declares no Stop/Close/Drain/Shutdown method",
				key[strings.LastIndexByte(key, '.')+1:], sp.in)
		}
	}
	for key := range c.quiesceOf {
		sigs := c.collect(key)
		if sigs == nil {
			continue
		}
		c.checkOwner(key, sigs)
	}
	return nil
}

type collector struct {
	pass *framework.Pass
	// methodsOf indexes this package's FuncDecls by receiver type key.
	methodsOf map[string][]*ast.FuncDecl
	// quiesceOf maps owner type keys to their quiesce method name.
	quiesceOf map[string]string
	// ctorsOf maps owner type keys to New* constructors returning them.
	ctorsOf map[string][]*ast.FuncDecl
	// declOf resolves a function object to its declaration.
	declOf map[*types.Func]*ast.FuncDecl
	// spawner maps this package's type keys to the first go statement in
	// one of their New* constructors or Start/start* methods.
	spawner map[string]spawn
}

type spawn struct {
	pos token.Pos
	in  string // the spawning function's name
}

func (c *collector) index() {
	c.methodsOf = make(map[string][]*ast.FuncDecl)
	c.quiesceOf = make(map[string]string)
	c.ctorsOf = make(map[string][]*ast.FuncDecl)
	c.declOf = make(map[*types.Func]*ast.FuncDecl)
	c.spawner = make(map[string]spawn)
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
			c.declOf[fn] = fd
			var owner *types.Named
			if recv := framework.ReceiverNamed(fn); recv != nil {
				key := framework.TypeKey(recv)
				c.methodsOf[key] = append(c.methodsOf[key], fd)
				for _, q := range quiesceNames {
					if fd.Name.Name == q {
						if _, have := c.quiesceOf[key]; !have {
							c.quiesceOf[key] = q
						}
					}
				}
				if fd.Name.Name == "Start" || strings.HasPrefix(fd.Name.Name, "start") {
					owner = recv
				}
			} else if strings.HasPrefix(fd.Name.Name, "New") {
				sig := fn.Type().(*types.Signature)
				if sig.Results().Len() > 0 {
					if owner = framework.Named(sig.Results().At(0).Type()); owner != nil {
						c.ctorsOf[framework.TypeKey(owner)] = append(c.ctorsOf[framework.TypeKey(owner)], fd)
					}
				}
			}
			if owner != nil && owner.Obj().Pkg() == c.pass.Pkg {
				c.noteSpawn(framework.TypeKey(owner), fd)
			}
		}
	}
}

// noteSpawn records fd's first go statement as key's spawn, unless an
// earlier function already spawned for key.
func (c *collector) noteSpawn(key string, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, have := c.spawner[key]; have {
			return false
		}
		if g, ok := n.(*ast.GoStmt); ok {
			c.spawner[key] = spawn{g.Pos(), fd.Name.Name}
		}
		return true
	})
}

// collect walks the quiesce method and everything it calls on the same
// type, recording triggered signals.
func (c *collector) collect(ownerKey string) *signals {
	sigs := &signals{
		owner:          ownerKey,
		fields:         make(map[string]bool),
		closedAnywhere: make(map[string]bool),
		quiesce:        c.quiesceOf[ownerKey],
		observers:      make(map[*types.Func]bool),
	}
	// closedAnywhere: any close(x.f) in the package.
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "close" {
				return true
			}
			if name, ok := c.fieldOn(call.Args[0], ownerKey); ok {
				sigs.closedAnywhere[name] = true
			}
			return true
		})
	}

	var queue []*ast.FuncDecl
	seen := make(map[*ast.FuncDecl]bool)
	for _, fd := range c.methodsOf[ownerKey] {
		if fd.Name.Name == sigs.quiesce {
			queue = append(queue, fd)
		}
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if seen[fd] {
			continue
		}
		seen[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if name, ok := c.fieldOn(n.Args[0], ownerKey); ok {
						sigs.fields[name] = true
					}
					return true
				}
				// t.cancel() on a context.CancelFunc field.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal &&
						framework.TypeKey(framework.Named(s.Recv())) == ownerKey {
						if n := framework.Named(s.Obj().Type()); n != nil &&
							framework.TypeKey(n) == "context.CancelFunc" {
							sigs.ctx = true
							sigs.fields[s.Obj().Name()] = true
						}
						return true
					}
				}
				// Transitive: other methods of the same type.
				if fn := framework.CalleeFunc(c.pass.TypesInfo, n); fn != nil {
					if recv := framework.ReceiverNamed(fn); recv != nil &&
						framework.TypeKey(recv) == ownerKey {
						if fd2 := c.declOf[fn]; fd2 != nil && !seen[fd2] {
							queue = append(queue, fd2)
						}
					}
				}
			case *ast.SendStmt:
				if name, ok := c.fieldOn(n.Chan, ownerKey); ok {
					sigs.fields[name] = true
				}
			}
			return true
		})
	}
	if len(sigs.fields) == 0 && !sigs.ctx && len(sigs.closedAnywhere) == 0 {
		// Quiesce triggers nothing observable; spawn checks would flag
		// every goroutine. The quiesce may stop things by other means
		// (waitgroups over bounded work); stay quiet.
		return nil
	}
	c.findObservers(sigs)
	return sigs
}

// findObservers marks package functions whose bodies observe a signal,
// by fixpoint so helpers calling helpers resolve.
func (c *collector) findObservers(sigs *signals) {
	direct := make(map[*types.Func]bool)
	callees := make(map[*types.Func][]*types.Func)
	for fn, fd := range c.declOf {
		if c.observesNode(fd.Body, sigs) {
			direct[fn] = true
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := framework.CalleeFunc(c.pass.TypesInfo, call); callee != nil {
					callees[fn] = append(callees[fn], callee)
				}
			}
			return true
		})
	}
	sigs.observers = direct
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			if sigs.observers[fn] {
				continue
			}
			for _, callee := range cs {
				if sigs.observers[callee] {
					sigs.observers[fn] = true
					changed = true
					break
				}
			}
		}
	}
}

// fieldOn matches expr as a selector x.f where x's named type is key;
// returns the field name.
func (c *collector) fieldOn(e ast.Expr, key string) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	if framework.TypeKey(framework.Named(s.Recv())) != key {
		return "", false
	}
	return s.Obj().Name(), true
}

// checkOwner examines every go statement in the owner's methods and
// constructors.
func (c *collector) checkOwner(ownerKey string, sigs *signals) {
	bodies := append([]*ast.FuncDecl(nil), c.methodsOf[ownerKey]...)
	bodies = append(bodies, c.ctorsOf[ownerKey]...)
	for _, fd := range bodies {
		closed := c.localCloses(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := c.goroutineBody(g.Call)
			if body == nil {
				return true
			}
			if loop, leaky := c.leakyLoop(body, sigs, closed); leaky {
				shortOwner := ownerKey[strings.LastIndexByte(ownerKey, '/')+1:]
				c.pass.Reportf(g.Pos(),
					"goroutine spawned here cannot be joined: its loop (at %s) never observes a stop signal that %s.%s triggers; select on the done channel or context",
					c.pass.Fset.Position(loop), shortOwner, sigs.quiesce)
			}
			return true
		})
	}
}

// goroutineBody resolves the spawned call to a body we can analyze.
func (c *collector) goroutineBody(call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := framework.CalleeFunc(c.pass.TypesInfo, call); fn != nil {
		if fd := c.declOf[fn]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

// localCloses collects the objects of channel variables the spawning
// function itself closes: `ch := make(chan T); go func() { for v :=
// range ch {...} }(); ...; close(ch)` is the bounded worker-pool
// idiom, joined by the spawner rather than by Stop.
func (c *collector) localCloses(body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "close" {
			return true
		}
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[arg]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// leakyLoop builds the CFG and reports the position of a daemon cycle
// with no observation. closed holds channel objects the spawning
// function closes itself; ranging over one of those is a join, not a
// leak.
func (c *collector) leakyLoop(body *ast.BlockStmt, sigs *signals, closed map[types.Object]bool) (token.Pos, bool) {
	g := framework.NewCFG(body)
	for _, scc := range sccs(g) {
		if len(scc) == 1 && !hasSelfEdge(scc[0]) {
			continue
		}
		daemonAt := token.NoPos
		observed := false
		inSCC := make(map[*framework.Block]bool, len(scc))
		for _, b := range scc {
			inSCC[b] = true
		}
		for _, b := range scc {
			switch {
			case b.Kind == "for.head" && b.Branch == nil:
				if daemonAt == token.NoPos {
					daemonAt = blockPos(b, g)
				}
			case b.Kind == "range.head":
				rs, _ := b.Nodes[0].(*ast.RangeStmt)
				if rs == nil {
					continue
				}
				if !c.isChanExpr(rs.X) {
					continue // bounded: slice/map/int range
				}
				if c.observesNode(rs.X, sigs) || c.rangesClosed(rs.X, sigs) {
					observed = true
					continue
				}
				if id, ok := ast.Unparen(rs.X).(*ast.Ident); ok {
					if obj := c.pass.TypesInfo.Uses[id]; obj != nil && closed[obj] {
						observed = true // spawner-closed worker channel
						continue
					}
				}
				if daemonAt == token.NoPos {
					daemonAt = rs.Pos()
				}
			}
			// Observations inside the cycle or on its exit edges (a
			// select case that returns leaves the SCC but is still the
			// loop's way out).
			if c.blockObserves(b, sigs) {
				observed = true
			}
			for _, s := range b.Succs {
				if !inSCC[s] && c.blockObserves(s, sigs) {
					observed = true
				}
			}
		}
		if daemonAt != token.NoPos && !observed {
			return daemonAt, true
		}
	}
	return token.NoPos, false
}

func (c *collector) blockObserves(b *framework.Block, sigs *signals) bool {
	for _, n := range b.Nodes {
		if c.observesNode(n, sigs) {
			return true
		}
	}
	return false
}

// observesNode reports whether n contains a stop-signal observation:
// a receive from a signal channel field, <-ctx.Done() when the type
// cancels a context, a range over a closed channel field, or a call to
// an observer helper.
func (c *collector) observesNode(n ast.Node, sigs *signals) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if found {
			return false
		}
		switch nn := nn.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if nn.Op != token.ARROW {
				return true
			}
			if name, ok := c.fieldOn(nn.X, sigs.owner); ok &&
				(sigs.fields[name] || sigs.closedAnywhere[name]) {
				found = true
				return false
			}
			if sigs.ctx && c.isCtxDone(nn.X) {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if name, ok := c.fieldOn(nn.X, sigs.owner); ok &&
				(sigs.fields[name] || sigs.closedAnywhere[name]) {
				found = true
				return false
			}
		case *ast.CallExpr:
			if fn := framework.CalleeFunc(c.pass.TypesInfo, nn); fn != nil && sigs.observers[fn] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isCtxDone matches <-x.Done() where x is a context.Context.
func (c *collector) isCtxDone(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	n := framework.Named(c.pass.TypesInfo.TypeOf(sel.X))
	return n != nil && framework.TypeKey(n) == "context.Context"
}

func (c *collector) isChanExpr(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// rangesClosed reports whether the ranged channel field is closed
// anywhere in the package.
func (c *collector) rangesClosed(e ast.Expr, sigs *signals) bool {
	name, ok := c.fieldOn(e, sigs.owner)
	return ok && (sigs.closedAnywhere[name] || sigs.fields[name])
}

func blockPos(b *framework.Block, g *framework.CFG) token.Pos {
	for _, n := range b.Nodes {
		if n.Pos() != token.NoPos {
			return n.Pos()
		}
	}
	// A bare `for {}` head has no nodes; use the body's first node.
	for _, s := range b.Succs {
		for _, n := range s.Nodes {
			if n.Pos() != token.NoPos {
				return n.Pos()
			}
		}
	}
	return token.NoPos
}

func hasSelfEdge(b *framework.Block) bool {
	for _, s := range b.Succs {
		if s == b {
			return true
		}
	}
	return false
}

// sccs computes strongly connected components (Tarjan, iterative enough
// for our graph sizes via recursion).
func sccs(g *framework.CFG) [][]*framework.Block {
	index := make(map[*framework.Block]int)
	low := make(map[*framework.Block]int)
	onStack := make(map[*framework.Block]bool)
	var stack []*framework.Block
	var out [][]*framework.Block
	next := 0

	var strong func(b *framework.Block)
	strong = func(b *framework.Block) {
		index[b] = next
		low[b] = next
		next++
		stack = append(stack, b)
		onStack[b] = true
		for _, s := range b.Succs {
			if _, seen := index[s]; !seen {
				strong(s)
				if low[s] < low[b] {
					low[b] = low[s]
				}
			} else if onStack[s] && index[s] < low[b] {
				low[b] = index[s]
			}
		}
		if low[b] == index[b] {
			var comp []*framework.Block
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp = append(comp, top)
				if top == b {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, b := range g.Blocks {
		if _, seen := index[b]; !seen {
			strong(b)
		}
	}
	return out
}
