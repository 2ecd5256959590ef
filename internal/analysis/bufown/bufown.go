// Package bufown enforces buffer ownership: every acquisition of a
// refcounted buffer or pinned view (tiers.NewBuf, Store.View,
// Store.TakeBuf, server.OpenRangeView — the manifest is configurable)
// must reach a balancing release (Release / Close), a store handoff
// (Store.PutBuf), or an explicit ownership transfer (returning the
// value, storing it into a structure, passing it to another function)
// on **every** control-flow path out of the function.
//
// The check is a forward dataflow over the framework CFG. The fact maps
// each acquired local to a small state machine:
//
//   - may-owned: at least one path reaches here still holding the
//     obligation. A may-owned object at function exit is a leak,
//     reported at the acquisition.
//   - conditional: acquisitions like `b, resident := st.View(id)` or
//     `b, err := st.TakeBuf(id)` own only when the condition holds;
//     branch-edge refinement (Flow.Refine) resolves the state on the
//     edges of `if resident` / `if err != nil`, so the non-owning path
//     carries no obligation. A conditional handoff — `err :=
//     dst.PutBuf(id, b)` — flips the polarity: the caller owns again
//     only when the error is non-nil.
//   - released: a must-release happened; any later use of the object
//     (or of a slice obtained from its Bytes-style alias methods or
//     Head-style alias fields) is a use-after-release.
//
// `defer b.Release()` discharges the obligation at registration (the
// exit chain runs it on every path), without marking the object
// released for use-after-release purposes until the chain executes.
// Escapes — returns, field stores (a comm.Reply's `Owner: b`), channel
// sends, closure captures, calls that take the object, the release
// method taken as a value — conservatively end tracking: ownership moved
// somewhere this intra-procedural pass cannot see.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hfetch/internal/analysis/framework"
)

// CondKind says which result value gates ownership of an acquisition.
type CondKind int

const (
	CondNone      CondKind = iota // unconditional
	CondBool                      // owned iff the bool result is true
	CondErrNil                    // owned iff the error result is nil
	condErrNonNil                 // internal: owned iff non-nil (failed handoff)
)

// Acquire describes one ownership-creating call.
type Acquire struct {
	// Callee is "pkgpath.Func" or "pkgpath.Type.Method".
	Callee string
	// Result is the index of the owned result value.
	Result int
	// Cond is the index of the gating result (-1 for none), interpreted
	// per CondKind.
	Cond     int
	CondKind CondKind
	// Release lists method names on the owned value that discharge the
	// obligation.
	Release []string
	// Alias lists the methods whose result (Bytes) and the fields
	// (a Reply's Head) that alias the owned storage; uses of such slices
	// after release are flagged.
	Alias []string
	// Name labels the resource in messages.
	Name string
}

// Transfer describes a call that hands an owned argument to a store.
type Transfer struct {
	Callee string
	// Arg is the index of the argument whose ownership transfers.
	Arg int
	// HasErr: the call returns an error, and the caller keeps ownership
	// when it is non-nil (the store did not adopt the buffer).
	HasErr bool
}

// Config is the ownership manifest.
type Config struct {
	Acquires  []Acquire
	Transfers []Transfer
	// SkipPkgs are packages that implement the buffers themselves;
	// their internal refcount surgery is out of scope.
	SkipPkgs []string
}

// DefaultConfig covers the repo's buffer surfaces.
func DefaultConfig() Config {
	return Config{
		Acquires: []Acquire{
			{Callee: "hfetch/internal/tiers.NewBuf", Result: 0, Cond: -1,
				Release: []string{"Release"}, Alias: []string{"Bytes"},
				Name: "buffer (tiers.NewBuf)"},
			{Callee: "hfetch/internal/tiers.Store.View", Result: 0,
				Cond: 1, CondKind: CondBool,
				Release: []string{"Release"}, Alias: []string{"Bytes"},
				Name: "pinned view (Store.View)"},
			{Callee: "hfetch/internal/tiers.Store.TakeBuf", Result: 0,
				Cond: 1, CondKind: CondErrNil,
				Release: []string{"Release"}, Alias: []string{"Bytes"},
				Name: "taken buffer (Store.TakeBuf)"},
			// A move's first half: the payload has left its tier and is in
			// the caller's hand until it lands (Land), goes back or is
			// released.
			{Callee: "hfetch/internal/core/ioclient.Client.Take", Result: 0,
				Cond: 1, CondKind: CondErrNil,
				Release: []string{"Release"}, Alias: []string{"Bytes"},
				Name: "payload in hand (Client.Take)"},
			{Callee: "hfetch/internal/core/server.Server.OpenRangeView", Result: 0,
				Cond: -1, Release: []string{"Close"},
				Name: "range view (Server.OpenRangeView)"},
			// A comm.Reply borrows its Body (its Owner's pin on the serving
			// side, a slab buffer on the receiving side) and its Head until
			// Release.
			{Callee: "hfetch/internal/comm.Call", Result: 0,
				Cond: 1, CondKind: CondErrNil, Release: []string{"Release"},
				Alias: []string{"Head", "Body"}, Name: "reply (comm.Call)"},
			{Callee: "hfetch/internal/comm.Caller.Call", Result: 0,
				Cond: 1, CondKind: CondErrNil, Release: []string{"Release"},
				Alias: []string{"Head", "Body"}, Name: "reply (Caller.Call)"},
			{Callee: "hfetch/internal/comm.Mux.Serve", Result: 0,
				Cond: 1, CondKind: CondErrNil, Release: []string{"Release"},
				Alias: []string{"Head", "Body"}, Name: "reply (Mux.Serve)"},
			{Callee: "hfetch/internal/core/server.Server.ViewRemote", Result: 0,
				Cond: 1, CondKind: CondBool, Release: []string{"Release"},
				Alias: []string{"Head", "Body"}, Name: "received body (Server.ViewRemote)"},
			{Callee: "hfetch/internal/dhm.Map.remote", Result: 0,
				Cond: 1, CondKind: CondErrNil, Release: []string{"Release"},
				Alias: []string{"Head", "Body"}, Name: "reply (Map.remote)"},
			{Callee: "hfetch/internal/comm.NewHeadBuf", Result: 0,
				Cond: -1, Release: []string{"Release"},
				Name: "pooled head (comm.NewHeadBuf)"},
		},
		Transfers: []Transfer{
			{Callee: "hfetch/internal/tiers.Store.PutBuf", Arg: 1, HasErr: true},
			{Callee: "hfetch/internal/tiers.Store.PutBufWait", Arg: 1, HasErr: true},
			{Callee: "hfetch/internal/core/ioclient.Client.Land", Arg: 1, HasErr: true},
			{Callee: "hfetch/internal/core/ioclient.Client.land", Arg: 1, HasErr: true},
		},
		SkipPkgs: []string{"hfetch/internal/tiers"},
	}
}

// Analyzer checks the repo against the default ownership manifest.
var Analyzer = NewAnalyzer(DefaultConfig())

// NewAnalyzer builds a bufown analyzer for a manifest; fixtures use
// manifests over fixture-local types.
func NewAnalyzer(cfg Config) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "bufown",
		Doc:  "every acquired buffer/view must reach a release, store handoff, or ownership transfer on all paths",
		Run:  func(pass *framework.Pass) error { return run(pass, cfg) },
	}
}

func run(pass *framework.Pass, cfg Config) error {
	if pass.Pkg != nil {
		for _, p := range cfg.SkipPkgs {
			if pass.Pkg.Path() == p {
				return nil
			}
		}
	}
	c := &checker{pass: pass, cfg: cfg}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.walkFunc(fd.Body, fd.Name.Name)
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.walkFunc(lit.Body, "function literal in "+name)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// objState is one tracked object's ownership state on one path.
type objState struct {
	acq      int // index into cfg.Acquires
	mayOwned bool
	deferred bool
	released bool
	condVar  types.Object
	cond     CondKind
	pos      token.Pos
}

// bufFact is the dataflow fact: tracked objects plus slice aliases
// (alias local → the buffer object its storage belongs to).
type bufFact struct {
	objs    map[types.Object]objState
	aliases map[types.Object]types.Object
}

func newFact() *bufFact {
	return &bufFact{
		objs:    make(map[types.Object]objState),
		aliases: make(map[types.Object]types.Object),
	}
}

func (f *bufFact) clone() *bufFact {
	out := &bufFact{
		objs:    make(map[types.Object]objState, len(f.objs)),
		aliases: make(map[types.Object]types.Object, len(f.aliases)),
	}
	for k, v := range f.objs {
		out.objs[k] = v
	}
	for k, v := range f.aliases {
		out.aliases[k] = v
	}
	return out
}

type checker struct {
	pass     *framework.Pass
	cfg      Config
	silent   bool
	funcName string
}

func (c *checker) walkFunc(body *ast.BlockStmt, name string) {
	savedName := c.funcName
	c.funcName = name
	defer func() { c.funcName = savedName }()

	g := framework.NewCFG(body)
	flow := &framework.Flow{
		CFG:   g,
		Entry: newFact(),
		Join: func(a, b framework.Fact) framework.Fact {
			return joinFacts(a.(*bufFact), b.(*bufFact))
		},
		Transfer: func(b *framework.Block, in framework.Fact) framework.Fact {
			f := in.(*bufFact).clone()
			for _, n := range b.Nodes {
				c.node(n, f)
			}
			return f
		},
		Refine: c.refine,
		Equal: func(a, b framework.Fact) bool {
			return equalFacts(a.(*bufFact), b.(*bufFact))
		},
	}
	res := flow.Replay(&c.silent)
	if out, ok := res.Out[g.Exit].(*bufFact); ok && res.Converged {
		for _, st := range out.objs {
			if !st.mayOwned {
				continue
			}
			c.reportf(st.pos,
				"%s is not released on every path out of %s; release it on each path, defer the release, or transfer ownership (//lint:allow bufown for a deliberate handoff)",
				c.cfg.Acquires[st.acq].Name, c.funcName)
		}
	}
}

// refine resolves conditional ownership along branch edges: on the edge
// where the gating condition says "owned", the obligation becomes
// unconditional; on the other edge the object was never acquired.
func (c *checker) refine(from, to *framework.Block, out framework.Fact) framework.Fact {
	if from.Branch == nil || len(from.Succs) != 2 {
		return out
	}
	v, kind := condFromExpr(c.pass.TypesInfo, from.Branch)
	if v == nil {
		return out
	}
	if to != from.Succs[0] { // false edge: invert the implication
		kind = negate(kind)
	}
	f := out.(*bufFact)
	var edited *bufFact
	for obj, st := range f.objs {
		if st.condVar != v {
			continue
		}
		owned, known := resolve(st.cond, kind)
		if !known {
			continue
		}
		if edited == nil {
			edited = f.clone()
		}
		if owned {
			st.mayOwned = true
			st.condVar = nil
			st.cond = CondNone
			edited.objs[obj] = st
		} else {
			delete(edited.objs, obj)
		}
	}
	if edited != nil {
		return edited
	}
	return out
}

// edge facts: what a branch edge says about the condition variable.
type edgeFact int

const (
	edgeUnknown edgeFact = iota
	edgeTrue
	edgeFalse
	edgeNil
	edgeNonNil
)

func negate(k edgeFact) edgeFact {
	switch k {
	case edgeTrue:
		return edgeFalse
	case edgeFalse:
		return edgeTrue
	case edgeNil:
		return edgeNonNil
	case edgeNonNil:
		return edgeNil
	}
	return edgeUnknown
}

// condFromExpr decodes `v`, `!v`, `v == nil`, `v != nil` (the true-edge
// implication); nil object for anything else.
func condFromExpr(info *types.Info, e ast.Expr) (types.Object, edgeFact) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e), edgeTrue
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			v, k := condFromExpr(info, e.X)
			return v, negate(k)
		}
	case *ast.BinaryExpr:
		if e.Op != token.EQL && e.Op != token.NEQ {
			return nil, edgeUnknown
		}
		x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
		var id *ast.Ident
		if isNilIdent(info, y) {
			id, _ = x.(*ast.Ident)
		} else if isNilIdent(info, x) {
			id, _ = y.(*ast.Ident)
		}
		if id == nil {
			return nil, edgeUnknown
		}
		k := edgeNil
		if e.Op == token.NEQ {
			k = edgeNonNil
		}
		return info.ObjectOf(id), k
	}
	return nil, edgeUnknown
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// resolve maps (ownership condition, edge implication) to whether the
// object is owned on this edge; known=false leaves the state untouched.
func resolve(cond CondKind, edge edgeFact) (owned, known bool) {
	switch cond {
	case CondBool:
		switch edge {
		case edgeTrue:
			return true, true
		case edgeFalse:
			return false, true
		}
	case CondErrNil:
		switch edge {
		case edgeNil:
			return true, true
		case edgeNonNil:
			return false, true
		}
	case condErrNonNil:
		switch edge {
		case edgeNonNil:
			return true, true
		case edgeNil:
			return false, true
		}
	}
	return false, false
}

// --- transfer ---------------------------------------------------------

func (c *checker) node(n ast.Node, f *bufFact) {
	switch n := n.(type) {
	case framework.DeferredCall:
		// The deferred call executes here, on the exit chain.
		if c.applyRelease(n.CallExpr, f, true) {
			return
		}
		if c.applyTransferStmt(n.CallExpr, f) {
			return
		}
		c.evalExpr(n.CallExpr, f)
	case *ast.DeferStmt:
		// Registration: a deferred release discharges the obligation on
		// every path (the exit chain runs it), but the object stays
		// usable until then.
		if obj, _ := c.releaseTarget(n.Call, f); obj != nil {
			st := f.objs[obj]
			st.mayOwned = false
			st.deferred = true
			f.objs[obj] = st
			return
		}
		if c.applyTransferStmt(n.Call, f) {
			return
		}
		c.evalExpr(n.Call, f)
	case *ast.GoStmt:
		c.evalExpr(n.Call, f)
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			if obj := c.trackedIdent(e, f); obj != nil {
				// Returning transfers ownership to the caller.
				delete(f.objs, obj)
				continue
			}
			c.evalExpr(e, f)
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if idx, ok := c.acquireIndex(call); ok {
				// Result discarded in statement position: instant leak.
				c.reportf(call.Pos(),
					"%s acquired here is dropped; bind the result and release it",
					c.cfg.Acquires[idx].Name)
				for _, a := range call.Args {
					c.evalExpr(a, f)
				}
				return
			}
		}
		c.evalExpr(n.X, f)
	case *ast.AssignStmt:
		c.assign(n.Lhs, n.Rhs, n.Tok == token.DEFINE, f)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, id := range vs.Names {
					lhs[i] = id
				}
				c.assign(lhs, vs.Values, true, f)
			}
		}
	case *ast.SendStmt:
		if obj := c.trackedIdent(n.Value, f); obj != nil {
			delete(f.objs, obj) // sent across a channel: handed off
		} else {
			c.evalExpr(n.Value, f)
		}
		c.evalExpr(n.Chan, f)
	case *ast.IncDecStmt:
		c.evalExpr(n.X, f)
	case *ast.RangeStmt:
		c.evalExpr(n.X, f)
	case ast.Expr:
		// Branch conditions, switch tags, case expressions.
		c.evalExpr(n, f)
	case ast.Stmt:
		ast.Inspect(n, func(nn ast.Node) bool {
			if e, ok := nn.(ast.Expr); ok {
				c.evalExpr(e, f)
				return false
			}
			return true
		})
	}
}

// assign handles binding forms: acquisitions, conditional handoffs,
// alias extraction, ownership moves, and escapes through stores.
func (c *checker) assign(lhs, rhs []ast.Expr, define bool, f *bufFact) {
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			if c.bindAcquire(call, lhs, f) {
				return
			}
			if c.bindTransfer(call, lhs, f) {
				return
			}
		}
		if c.bindAlias(rhs[0], lhs, f) {
			return
		}
	}
	if len(lhs) == len(rhs) {
		for i := range lhs {
			c.assignOne(lhs[i], rhs[i], f)
		}
		return
	}
	for _, e := range rhs {
		c.evalExpr(e, f)
	}
	for _, e := range lhs {
		c.dropBinding(e, f)
	}
}

func (c *checker) assignOne(lhs, rhs ast.Expr, f *bufFact) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		// `_ = b` discards the value without moving ownership.
		if obj := c.trackedIdent(rhs, f); obj != nil {
			c.useCheck(obj, rhs.Pos(), f)
		} else {
			c.evalExpr(rhs, f)
		}
		return
	}
	if obj := c.trackedIdent(rhs, f); obj != nil {
		if tgt := localIdentObj(c.pass.TypesInfo, lhs); tgt != nil {
			// b2 := b — the obligation moves with the value.
			f.objs[tgt] = f.objs[obj]
			delete(f.objs, obj)
		} else {
			// Stored into a field, map, slice or global: handed off.
			delete(f.objs, obj)
			c.evalExpr(lhs, f)
		}
		return
	}
	c.evalExpr(rhs, f)
	c.dropBinding(lhs, f)
}

// dropBinding forgets state attached to a variable being overwritten.
func (c *checker) dropBinding(lhs ast.Expr, f *bufFact) {
	if obj := localIdentObj(c.pass.TypesInfo, lhs); obj != nil {
		delete(f.objs, obj)
		delete(f.aliases, obj)
		return
	}
	c.evalExpr(lhs, f)
}

// bindAcquire matches an ownership-creating call and binds the result.
func (c *checker) bindAcquire(call *ast.CallExpr, lhs []ast.Expr, f *bufFact) bool {
	idx, ok := c.acquireIndex(call)
	if !ok {
		return false
	}
	for _, a := range call.Args {
		c.evalExpr(a, f)
	}
	ac := c.cfg.Acquires[idx]
	if ac.Result >= len(lhs) {
		return true
	}
	obj := localIdentObj(c.pass.TypesInfo, lhs[ac.Result])
	if obj == nil {
		if !c.silent {
			c.reportf(call.Pos(),
				"%s acquired here is dropped; bind the result and release it",
				ac.Name)
		}
		return true
	}
	st := objState{acq: idx, mayOwned: true, pos: call.Pos()}
	if ac.Cond >= 0 && ac.Cond < len(lhs) {
		if cv := localIdentObj(c.pass.TypesInfo, lhs[ac.Cond]); cv != nil {
			st.condVar = cv
			st.cond = ac.CondKind
		}
	}
	f.objs[obj] = st
	for _, l := range lhs {
		if o := localIdentObj(c.pass.TypesInfo, l); o != nil {
			delete(f.aliases, o)
		}
	}
	return true
}

// bindTransfer matches `err := store.PutBuf(id, b)`: ownership of b
// moves to the store unless the error comes back non-nil.
func (c *checker) bindTransfer(call *ast.CallExpr, lhs []ast.Expr, f *bufFact) bool {
	tr, obj, ok := c.transferTarget(call, f)
	if !ok {
		return false
	}
	c.evalOtherArgs(call, tr.Arg, f)
	if obj == nil {
		return true
	}
	st := f.objs[obj]
	if tr.HasErr && len(lhs) == 1 {
		if errObj := localIdentObj(c.pass.TypesInfo, lhs[0]); errObj != nil {
			st.condVar = errObj
			st.cond = condErrNonNil
			st.mayOwned = true
			f.objs[obj] = st
			return true
		}
	}
	// Error ignored (or no error): treat as handed off.
	delete(f.objs, obj)
	return true
}

// bindAlias matches `data := b.Bytes()` and `head := rep.Head`.
func (c *checker) bindAlias(rhs ast.Expr, lhs []ast.Expr, f *bufFact) bool {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		rhs = call.Fun
	}
	sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr)
	if !ok || len(lhs) != 1 {
		return false
	}
	obj := c.trackedIdent(sel.X, f)
	if obj == nil {
		return false
	}
	st := f.objs[obj]
	aliased := false
	for _, m := range c.cfg.Acquires[st.acq].Alias {
		if sel.Sel.Name == m {
			aliased = true
		}
	}
	if !aliased {
		return false
	}
	c.useCheck(obj, sel.X.Pos(), f)
	if tgt := localIdentObj(c.pass.TypesInfo, lhs[0]); tgt != nil {
		f.aliases[tgt] = obj
	}
	return true
}

// applyTransferStmt handles a transfer call whose result is discarded:
// ownership is treated as handed off outright.
func (c *checker) applyTransferStmt(call *ast.CallExpr, f *bufFact) bool {
	tr, obj, ok := c.transferTarget(call, f)
	if !ok {
		return false
	}
	c.evalOtherArgs(call, tr.Arg, f)
	if obj != nil {
		delete(f.objs, obj)
	}
	return true
}

func (c *checker) evalOtherArgs(call *ast.CallExpr, skip int, f *bufFact) {
	for i, a := range call.Args {
		if i == skip {
			continue
		}
		c.evalExpr(a, f)
	}
}

// transferTarget matches a configured handoff call; obj is the tracked
// argument (nil when the argument is not tracked).
func (c *checker) transferTarget(call *ast.CallExpr, f *bufFact) (Transfer, types.Object, bool) {
	key := calleeKey(c.pass.TypesInfo, call)
	if key == "" {
		return Transfer{}, nil, false
	}
	for _, tr := range c.cfg.Transfers {
		if tr.Callee != key {
			continue
		}
		var obj types.Object
		if tr.Arg < len(call.Args) {
			obj = c.trackedIdent(call.Args[tr.Arg], f)
		}
		return tr, obj, true
	}
	return Transfer{}, nil, false
}

// releaseTarget matches `b.Release()` / `v.Close()` on a tracked local.
func (c *checker) releaseTarget(call *ast.CallExpr, f *bufFact) (types.Object, objState) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return nil, objState{}
	}
	obj := c.trackedIdent(sel.X, f)
	if obj == nil {
		return nil, objState{}
	}
	st := f.objs[obj]
	if c.isRelease(st, sel.Sel.Name) {
		return obj, st
	}
	return nil, objState{}
}

// isRelease reports whether method discharges st's obligation.
func (c *checker) isRelease(st objState, method string) bool {
	for _, m := range c.cfg.Acquires[st.acq].Release {
		if method == m {
			return true
		}
	}
	return false
}

// applyRelease marks a release; double releases are reported. A release
// arriving from the exit chain only applies when the defer was
// registered on every path (must-deferred): the chain is shared by all
// exits, so a conditionally registered defer must not discharge the
// obligation of paths that never registered it.
func (c *checker) applyRelease(call *ast.CallExpr, f *bufFact, fromChain bool) bool {
	obj, st := c.releaseTarget(call, f)
	if obj == nil {
		return false
	}
	if fromChain && !st.deferred {
		return true
	}
	if st.released && !fromChain {
		c.reportf(call.Pos(), "%s released again; it was already released on this path",
			c.cfg.Acquires[st.acq].Name)
	}
	st.mayOwned = false
	st.released = true
	f.objs[obj] = st
	return true
}

// evalExpr applies an expression's side effects to the fact: releases,
// handoffs, escapes through calls or closures, and use-after-release
// checks on tracked objects and their aliases.
func (c *checker) evalExpr(e ast.Expr, f *bufFact) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if c.applyRelease(e, f, false) {
			return
		}
		if c.applyTransferStmt(e, f) {
			return
		}
		if _, ok := c.acquireIndex(e); ok {
			// Acquire in expression position (returned, passed along):
			// ownership goes straight to the consumer.
			for _, a := range e.Args {
				c.evalExpr(a, f)
			}
			return
		}
		// Method call on a tracked object (b.Len()): a use, not an
		// escape. Anything tracked passed as an argument escapes.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if obj := c.trackedIdent(sel.X, f); obj != nil {
				c.useCheck(obj, sel.X.Pos(), f)
			} else {
				c.evalExpr(sel.X, f)
			}
		} else {
			c.evalExpr(e.Fun, f)
		}
		for _, a := range e.Args {
			if obj := c.trackedIdent(a, f); obj != nil {
				c.useCheck(obj, a.Pos(), f)
				delete(f.objs, obj) // handed to the callee
				continue
			}
			c.evalExpr(a, f)
		}
	case *ast.Ident:
		if obj := c.pass.TypesInfo.ObjectOf(e); obj != nil {
			c.useCheck(obj, e.Pos(), f)
		}
	case *ast.FuncLit:
		// Captured objects escape into the closure.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
				if _, tracked := f.objs[obj]; tracked {
					delete(f.objs, obj)
				}
			}
			return true
		})
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if obj := c.trackedIdent(el, f); obj != nil {
				delete(f.objs, obj) // stored into a literal: handed off
				continue
			}
			c.evalExpr(el, f)
		}
	case *ast.UnaryExpr:
		c.evalExpr(e.X, f)
	case *ast.BinaryExpr:
		c.evalExpr(e.X, f)
		c.evalExpr(e.Y, f)
	case *ast.SelectorExpr:
		// A release method taken as a value (`done: b.Release`) hands
		// the obligation to whoever ends up holding the func.
		if obj := c.trackedIdent(e.X, f); obj != nil && c.isRelease(f.objs[obj], e.Sel.Name) {
			c.useCheck(obj, e.X.Pos(), f)
			delete(f.objs, obj)
			return
		}
		c.evalExpr(e.X, f)
	case *ast.IndexExpr:
		c.evalExpr(e.X, f)
		c.evalExpr(e.Index, f)
	case *ast.SliceExpr:
		c.evalExpr(e.X, f)
		c.evalExpr(e.Low, f)
		c.evalExpr(e.High, f)
		c.evalExpr(e.Max, f)
	case *ast.StarExpr:
		c.evalExpr(e.X, f)
	case *ast.TypeAssertExpr:
		c.evalExpr(e.X, f)
	case *ast.KeyValueExpr:
		c.evalExpr(e.Key, f)
		c.evalExpr(e.Value, f)
	}
}

// useCheck reports uses of released objects and of slices aliasing
// released buffers.
func (c *checker) useCheck(obj types.Object, pos token.Pos, f *bufFact) {
	if st, ok := f.objs[obj]; ok && st.released {
		c.reportf(pos, "%s used after release",
			c.cfg.Acquires[st.acq].Name)
		return
	}
	if buf, ok := f.aliases[obj]; ok {
		if st, ok := f.objs[buf]; ok && st.released {
			c.reportf(pos, "slice aliasing %s used after the buffer was released",
				c.cfg.Acquires[st.acq].Name)
		}
	}
}

// trackedIdent resolves e to a tracked object, or nil.
func (c *checker) trackedIdent(e ast.Expr, f *bufFact) types.Object {
	obj := localIdentObj(c.pass.TypesInfo, e)
	if obj == nil {
		return nil
	}
	if _, ok := f.objs[obj]; !ok {
		return nil
	}
	return obj
}

// acquireIndex matches a call against the acquisition manifest.
func (c *checker) acquireIndex(call *ast.CallExpr) (int, bool) {
	key := calleeKey(c.pass.TypesInfo, call)
	if key == "" {
		return 0, false
	}
	for i, ac := range c.cfg.Acquires {
		if ac.Callee == key {
			return i, true
		}
	}
	return 0, false
}

// calleeKey renders the called function as "pkgpath.Func" or
// "pkgpath.Type.Method" for manifest matching.
func calleeKey(info *types.Info, call *ast.CallExpr) string {
	fn := framework.CalleeFunc(info, call)
	if fn == nil {
		return ""
	}
	if recv := framework.ReceiverNamed(fn); recv != nil {
		return framework.TypeKey(recv) + "." + fn.Name()
	}
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// localIdentObj resolves a plain identifier to its object (nil for
// blank, fields, and anything more structured).
func localIdentObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := info.ObjectOf(id)
	v, isVar := obj.(*types.Var)
	if !isVar || v.IsField() {
		return nil
	}
	if pkg := v.Pkg(); pkg != nil && v.Parent() == pkg.Scope() {
		// Package-level variable: a store there is a handoff, not a
		// local rebinding.
		return nil
	}
	return obj
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.silent {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// --- lattice ----------------------------------------------------------

func joinFacts(a, b *bufFact) framework.Fact {
	out := a.clone()
	for obj, sb := range b.objs {
		sa, ok := out.objs[obj]
		if !ok {
			out.objs[obj] = sb
			continue
		}
		merged := sa
		merged.mayOwned = sa.mayOwned || sb.mayOwned
		// must-deferred: the exit chain may discharge only defers
		// registered on every inbound path.
		merged.deferred = sa.deferred && sb.deferred
		merged.released = sa.released && sb.released
		if sa.condVar != sb.condVar || sa.cond != sb.cond {
			// Conflicting conditional views: fall back to may-owned so a
			// real leak still surfaces.
			merged.condVar = nil
			merged.cond = CondNone
		}
		if sb.pos < merged.pos {
			merged.pos = sb.pos
		}
		out.objs[obj] = merged
	}
	for k, v := range b.aliases {
		if _, ok := out.aliases[k]; !ok {
			out.aliases[k] = v
		}
	}
	return out
}

func equalFacts(a, b *bufFact) bool {
	if len(a.objs) != len(b.objs) || len(a.aliases) != len(b.aliases) {
		return false
	}
	for k, v := range a.objs {
		if b.objs[k] != v {
			return false
		}
	}
	for k, v := range a.aliases {
		if b.aliases[k] != v {
			return false
		}
	}
	return true
}

// String summarizes the manifest for docs/tests.
func (cfg Config) String() string {
	var sb strings.Builder
	for _, a := range cfg.Acquires {
		sb.WriteString(a.Callee + " ")
	}
	return strings.TrimSpace(sb.String())
}
