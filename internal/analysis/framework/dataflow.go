package framework

// Generic forward/backward dataflow over a CFG: a worklist fixpoint
// with analyzer-supplied lattice operations. The solver treats a nil
// fact as ⊥ ("block not reached"); Transfer and Join never see nil on
// the side the solver controls, and unreachable blocks keep a nil
// in-fact, which is how reporting passes skip them.
//
// Facts must be treated as immutable: Transfer, Join and Refine return
// new (or unchanged) values and never mutate their arguments, because
// the same fact value may be flowing along several edges at once.
// Convergence requires the usual lattice conditions — Join monotone and
// the fact domain of finite height; the solver additionally bounds
// iterations defensively and reports whether it converged.

// Fact is an analyzer-defined dataflow fact. nil means "unreached".
type Fact any

// Flow is one dataflow problem over a CFG.
type Flow struct {
	CFG *CFG
	// Entry is the boundary fact: at CFG entry for forward problems, at
	// CFG exit for backward ones.
	Entry Fact
	// Join merges two reached facts into their least upper bound.
	Join func(a, b Fact) Fact
	// Transfer applies one block's nodes to in, returning the out fact.
	Transfer func(b *Block, in Fact) Fact
	// Refine, when non-nil, narrows the fact flowing along one edge —
	// branch-sensitive analyses use Block.Branch plus the successor
	// position (Succs[0] true, Succs[1] false) to sharpen facts.
	Refine func(from, to *Block, out Fact) Fact
	// Equal reports fact equality; it bounds the fixpoint.
	Equal func(a, b Fact) bool
	// Backward solves against the flipped graph (Preds as successors).
	Backward bool
}

// FlowResult carries the fixpoint solution.
type FlowResult struct {
	// In is the fact at each block's entry (forward) or exit (backward);
	// nil for unreachable blocks. Out is the transferred side.
	In, Out map[*Block]Fact
	// Iterations counts block visits until the fixpoint; Converged is
	// false only if the defensive iteration bound was hit, which means
	// the analyzer's lattice is broken (infinite height or non-monotone
	// join).
	Iterations int
	Converged  bool
}

// Solve runs the worklist fixpoint.
func (f *Flow) Solve() *FlowResult {
	res := &FlowResult{
		In:        make(map[*Block]Fact, len(f.CFG.Blocks)),
		Out:       make(map[*Block]Fact, len(f.CFG.Blocks)),
		Converged: true,
	}
	start := f.CFG.Entry
	if f.Backward {
		start = f.CFG.Exit
	}
	succs := func(b *Block) []*Block {
		if f.Backward {
			return b.Preds
		}
		return b.Succs
	}

	res.In[start] = f.Entry
	work := []*Block{start}
	queued := map[*Block]bool{start: true}
	// Defensive bound: |blocks|² × fan-out is far beyond any finite
	// lattice the suite uses; hitting it flags a broken transfer.
	maxVisits := (len(f.CFG.Blocks) + 1) * (len(f.CFG.Blocks) + 1) * 4

	for len(work) > 0 {
		if res.Iterations >= maxVisits {
			res.Converged = false
			return res
		}
		b := work[0]
		work = work[1:]
		queued[b] = false
		res.Iterations++

		in := res.In[b]
		out := f.Transfer(b, in)
		res.Out[b] = out
		for _, s := range succs(b) {
			e := out
			if f.Refine != nil {
				e = f.Refine(b, s, out)
			}
			old, seen := res.In[s]
			var merged Fact
			if !seen || old == nil {
				merged = e
			} else {
				merged = f.Join(old, e)
			}
			if seen && f.Equal(old, merged) {
				continue
			}
			res.In[s] = merged
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return res
}

// Replay is how the path-sensitive analyzers report: it solves with
// *quiet set, so a Transfer that reports stays silent while facts are
// still moving, then clears it and re-runs Transfer once over every
// reachable block from its converged in-fact. Each finding is therefore
// computed from final facts and emitted exactly once. Nothing is
// replayed when the solver did not converge.
func (f *Flow) Replay(quiet *bool) *FlowResult {
	*quiet = true
	res := f.Solve()
	*quiet = false
	if !res.Converged {
		return res
	}
	for _, b := range f.CFG.Blocks {
		if in := res.In[b]; in != nil {
			f.Transfer(b, in)
		}
	}
	return res
}
