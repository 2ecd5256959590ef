// Package lockorder checks how functions take and give back mutexes:
// ARCHITECTURE.md's lock-ordering chain, the no-lock-across-I/O rule,
// and that every Lock is released on every path out of its function.
//
// One forward dataflow over the framework CFG carries, for each mutex a
// Lock/RLock/Unlock/RUnlock call names, how many acquisitions are
// outstanding on every inbound path (must) and on some inbound path
// (may). A mutex is keyed by its receiver expression with index
// expressions collapsed (s.shards[i].mu and s.shards[j].mu are one key)
// plus its read/write kind. `defer mu.Unlock()` releases on the exit
// chain, so the lock counts as held until then. Bodies of `go`
// statements and function literals are walked as functions of their
// own that start holding nothing.
//
// The chain rules read the must side, for manifest locks only, so a lock
// released on one arm of a branch is not held after the merge:
//
//   - acquiring a lock whose rank is ≤ the rank of any lock already
//     held (out-of-order, or a second lock of the same class);
//   - acquiring any lock while holding one from the released-between
//     prefix of the chain (ring / epoch stripe / dhm shard);
//   - holding a lock of the chain across an I/O barrier — a call into
//     ioclient, a movement-interface method, the mover completion
//     callback, or any same-package function that transitively reaches
//     one. Inside a barrier package this rule is off.
//
// The exit rule reads the may side for every sync.Mutex/RWMutex in a
// declared function: a lock some path still holds at function exit is
// reported, when the function releases that key somewhere. A key the
// function never releases at all is reported at each acquisition
// instead. A key whose release lives in a nested function literal, or
// that is taken as a method value (a handoff), is exempt from the exit
// rule; a deliberate handoff of a lock never released in the function
// carries //lint:allow lockorder.
//
// The analysis is intra-procedural with one package-local call-graph
// closure for barrier reachability; it does not track locks passed by
// pointer into helpers, which matches how the repo actually structures
// its critical sections.
package lockorder

import (
	"bytes"
	"go/ast"
	"go/printer"
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
		Doc:  "enforce the ARCHITECTURE.md lock chain and no lock across I/O; every Lock released on every path",
		Run:  func(pass *framework.Pass) error { return run(pass, m) },
	}
}

func run(pass *framework.Pass, m Manifest) error {
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
	// Inside a barrier package every call would count as a barrier and
	// its own store-handling would self-flag; the I/O rule is about
	// holding locks *outside* the I/O client.
	c.noIO = pass.Pkg != nil && c.bpkgs[pass.Pkg.Path()]
	if !c.noIO {
		c.buildReach()
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			l := &ledger{acquires: map[string][]token.Pos{}, released: map[string]bool{}, exempt: map[string]bool{}}
			c.scan(fd.Body, false, l)
			for k, ps := range l.acquires {
				if l.released[k] {
					continue
				}
				verb := "Unlock"
				if k[0] == 'r' {
					verb = "RUnlock"
				}
				for _, pos := range ps {
					pass.Reportf(pos,
						"%s locked with no %s anywhere in %s; add a deferred or explicit release (or //lint:allow lockorder for a deliberate handoff)",
						k[2:], verb, fd.Name.Name)
				}
			}
			c.walkFunc(fd.Body, fd.Name.Name, l)
		}
	}
	return nil
}

// held is one mutex's state at a program point: acquisitions outstanding
// on every inbound path (must) and on some inbound path (may), clamped
// at 2, and where the earliest outstanding one was taken.
type held struct {
	key       string // kind ("w" or "r") | normalised receiver path
	rank      int    // manifest rank; -1 for a mutex outside the chain
	must, may int8
	pos       token.Pos
}

// lockFact is the dataflow fact: every mutex some path holds, in
// acquisition order. Transfer works on a private copy.
type lockFact []held

func (f lockFact) find(key string) int {
	for i := range f {
		if f[i].key == key {
			return i
		}
	}
	return -1
}

// ledger is the syntactic view of one declared function, literals
// included: where each key is acquired, which keys are released
// somewhere, and which are exempt from the exit rule.
type ledger struct {
	acquires         map[string][]token.Pos
	released, exempt map[string]bool
}

type checker struct {
	pass    *framework.Pass
	m       Manifest
	rank    map[FieldSel]int
	barrier map[string]bool
	bpkgs   map[string]bool
	// noIO turns the I/O rule off inside a barrier package.
	noIO bool
	// reach marks package-local functions that transitively perform a
	// barrier call.
	reach map[*types.Func]bool
	// silent suppresses reporting while the fixpoint runs.
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

// lockSel decodes a Lock/RLock/Unlock/RUnlock selector on a sync.Mutex
// or RWMutex (or a pointer to one) into its key.
func (c *checker) lockSel(sel *ast.SelectorExpr) (key string, acquire, ok bool) {
	var kind string
	switch sel.Sel.Name {
	case "Lock":
		acquire, kind = true, "w"
	case "RLock":
		acquire, kind = true, "r"
	case "Unlock":
		kind = "w"
	case "RUnlock":
		kind = "r"
	default:
		return "", false, false
	}
	tv, typed := c.pass.TypesInfo.Types[sel.X]
	if !typed {
		return "", false, false
	}
	if t := framework.TypeKey(framework.Named(tv.Type)); t != "sync.Mutex" && t != "sync.RWMutex" {
		return "", false, false
	}
	return kind + "|" + exprPath(c.pass.Fset, sel.X), acquire, true
}

// lockCall decodes a lock call: its key, its manifest rank (-1 when the
// receiver is not a manifest lock field) and whether it acquires.
func (c *checker) lockCall(call *ast.CallExpr) (key string, rank int, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false, false
	}
	if key, acquire, ok = c.lockSel(sel); !ok {
		return "", 0, false, false
	}
	rank = -1
	if field, isField := ast.Unparen(sel.X).(*ast.SelectorExpr); isField {
		if fs, fok := c.pass.TypesInfo.Selections[field]; fok && fs.Kind() == types.FieldVal {
			fsel := FieldSel{Type: framework.TypeKey(framework.Named(fs.Recv())), Field: fs.Obj().Name()}
			if r, known := c.rank[fsel]; known {
				rank = r
			}
		}
	}
	return key, rank, acquire, true
}

// exprPath renders the receiver expression textually, collapsing index
// expressions so m.shards[i] and m.shards[j] pair up.
func exprPath(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	var out strings.Builder
	depth := 0
	for _, ch := range buf.Bytes() {
		switch ch {
		case '[':
			if depth == 0 {
				out.WriteByte('[')
			}
			depth++
		case ']':
			depth--
			if depth == 0 {
				out.WriteByte(']')
			}
		default:
			if depth == 0 {
				out.WriteByte(ch)
			}
		}
	}
	return out.String()
}

// scan fills l from body: acquisitions and releases by key, and the
// exempt keys — any lock-family selector inside a function literal, or
// one taken as a value rather than called.
func (c *checker) scan(body *ast.BlockStmt, inLit bool, l *ledger) {
	called := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.scan(n.Body, true, l)
			return false
		case *ast.CallExpr:
			called[ast.Unparen(n.Fun)] = true
			if k, _, acquire, ok := c.lockCall(n); ok {
				if acquire {
					l.acquires[k] = append(l.acquires[k], n.Pos())
				} else {
					l.released[k] = true
				}
			}
		case *ast.SelectorExpr:
			if k, _, ok := c.lockSel(n); ok && (inLit || !called[n]) {
				l.exempt[k] = true
			}
		}
		return true
	})
}

// walkFunc analyzes one function body (or function literal) over its
// CFG, then queues nested literals the same way. l is nil for literals:
// the exit rule judges declared functions only.
func (c *checker) walkFunc(body *ast.BlockStmt, name string, l *ledger) {
	cfg := framework.NewCFG(body)
	flow := &framework.Flow{
		CFG:   cfg,
		Entry: lockFact(nil),
		Join: func(a, b framework.Fact) framework.Fact {
			return join(a.(lockFact), b.(lockFact))
		},
		Transfer: func(b *framework.Block, in framework.Fact) framework.Fact {
			f := append(lockFact(nil), in.(lockFact)...)
			for _, n := range b.Nodes {
				f = c.node(n, f)
			}
			return f
		},
		Equal: func(a, b framework.Fact) bool {
			x, y := a.(lockFact), b.(lockFact)
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		},
	}
	res := flow.Replay(&c.silent)
	if exit, ok := res.Out[cfg.Exit].(lockFact); ok && res.Converged && l != nil {
		for _, h := range exit {
			if l.released[h.key] && !l.exempt[h.key] {
				c.pass.Reportf(h.pos,
					"%s locked but not released on every path out of %s; release before each return (or //lint:allow lockorder for a deliberate handoff)",
					h.key[2:], name)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.walkFunc(lit.Body, "", nil)
			return false
		}
		return true
	})
}

// node applies one CFG node to the fact.
func (c *checker) node(n ast.Node, f lockFact) lockFact {
	var evaluated []ast.Expr
	switch n := n.(type) {
	case framework.DeferredCall:
		// The deferred call runs here, on the exit chain: apply its
		// release without re-walking arguments evaluated at registration.
		if k, _, acquire, ok := c.lockCall(n.CallExpr); ok && !acquire {
			return release(f, k)
		}
		return f
	case *ast.DeferStmt:
		// Registration: only the arguments evaluate now.
		evaluated = n.Call.Args
	case *ast.GoStmt:
		// The spawned goroutine holds nothing; a literal body is walked
		// separately. Arguments evaluate now.
		evaluated = n.Call.Args
	case *ast.RangeStmt:
		// The range head; the loop body has blocks of its own.
		evaluated = []ast.Expr{n.X}
	default:
		return c.calls(f, n)
	}
	for _, e := range evaluated {
		f = c.calls(f, e)
	}
	return f
}

// calls applies every call in n, outside nested function literals.
func (c *checker) calls(f lockFact, n ast.Node) lockFact {
	ast.Inspect(n, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			f = c.call(nn, f)
		}
		return true
	})
	return f
}

// call applies one call's effect: acquire, release, or barrier check.
func (c *checker) call(call *ast.CallExpr, f lockFact) lockFact {
	if k, r, acquire, ok := c.lockCall(call); ok {
		if !acquire {
			return release(f, k)
		}
		if r >= 0 {
			c.checkAcquire(call.Pos(), r, f)
		}
		if i := f.find(k); i >= 0 {
			f[i].must = min(f[i].must+1, 2)
			f[i].may = min(f[i].may+1, 2)
			return f
		}
		return append(f, held{key: k, rank: r, must: 1, may: 1, pos: call.Pos()})
	}
	if c.noIO {
		return f
	}
	direct := c.isBarrierCall(call)
	var via *types.Func
	if !direct {
		if fn := framework.CalleeFunc(c.pass.TypesInfo, call); fn != nil && c.reach[fn] {
			via = fn
		}
	}
	if !direct && via == nil {
		return f
	}
	for _, h := range f {
		if h.must == 0 || h.rank < 0 {
			continue
		}
		name := c.m.Classes[h.rank].Name
		if direct {
			c.reportf(call.Pos(),
				"%s lock held across I/O call (acquired at %s); tier store locks are innermost and callbacks run lock-free",
				name, c.pass.Fset.Position(h.pos))
		} else {
			c.reportf(call.Pos(),
				"%s lock held across call to %s, which reaches I/O (lock acquired at %s)",
				name, via.Name(), c.pass.Fset.Position(h.pos))
		}
	}
	return f
}

func (c *checker) checkAcquire(pos token.Pos, r int, f lockFact) {
	for _, h := range f {
		if h.must == 0 || h.rank < 0 {
			continue
		}
		switch {
		case h.rank == r:
			c.reportf(pos,
				"acquires a second %s lock while one is already held (at %s); never more than one of each kind",
				c.m.Classes[r].Name, c.pass.Fset.Position(h.pos))
		case h.rank > r:
			c.reportf(pos,
				"acquires %s lock while holding %s lock (at %s); chain order is %s",
				c.m.Classes[r].Name, c.m.Classes[h.rank].Name,
				c.pass.Fset.Position(h.pos), c.chain())
		case c.m.Classes[h.rank].ReleasedBefore:
			c.reportf(pos,
				"acquires %s lock while still holding %s lock (at %s); the %s lock must be released before taking any later lock",
				c.m.Classes[r].Name, c.m.Classes[h.rank].Name,
				c.pass.Fset.Position(h.pos), c.m.Classes[h.rank].Name)
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

// release gives back one acquisition of key; a key no path holds any
// more leaves the fact.
func release(f lockFact, key string) lockFact {
	i := f.find(key)
	if i < 0 {
		return f
	}
	f[i].must = max(f[i].must-1, 0)
	if f[i].may--; f[i].may == 0 {
		return append(f[:i], f[i+1:]...)
	}
	return f
}

// join merges two facts: must is the fewest acquisitions any path holds,
// may the most, pos the earliest.
func join(a, b lockFact) lockFact {
	out := make(lockFact, 0, len(a)+len(b))
	for _, x := range a {
		if i := b.find(x.key); i >= 0 {
			x.must = min(x.must, b[i].must)
			x.may = max(x.may, b[i].may)
			x.pos = min(x.pos, b[i].pos)
		} else {
			x.must = 0
		}
		out = append(out, x)
	}
	for _, y := range b {
		if a.find(y.key) < 0 {
			y.must = 0
			out = append(out, y)
		}
	}
	return out
}
