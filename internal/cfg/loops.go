package cfg

import (
	"sort"

	"encore/internal/ir"
)

// Loop is a natural loop: a header that dominates every block in the body,
// discovered from back edges. Loops form a nesting forest via Parent.
type Loop struct {
	Header *ir.Block
	Blocks map[*ir.Block]bool // includes Header
	Parent *Loop
	Inner  []*Loop

	// Latches are the in-loop predecessors of the header (back-edge sources).
	Latches []*ir.Block
}

// Contains reports whether b belongs to the loop body.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// Depth returns the nesting depth (outermost loop = 1).
func (l *Loop) Depth() int {
	d := 0
	for p := l; p != nil; p = p.Parent {
		d++
	}
	return d
}

// ExitingBlocks returns in-loop blocks with a successor outside the loop,
// in deterministic (block ID) order.
func (l *Loop) ExitingBlocks() []*ir.Block {
	var out []*ir.Block
	for b := range l.Blocks {
		for _, s := range b.Succs {
			if !l.Blocks[s] {
				out = append(out, b)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExitBlocks returns the out-of-loop successors of exiting blocks, each once,
// in deterministic order.
func (l *Loop) ExitBlocks() []*ir.Block {
	seen := map[*ir.Block]bool{}
	var out []*ir.Block
	for _, b := range l.ExitingBlocks() {
		for _, s := range b.Succs {
			if !l.Blocks[s] && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LoopForest holds all natural loops of a function.
type LoopForest struct {
	Top []*Loop // outermost loops, by header block ID

	// ByHeader maps a header block to its loop.
	ByHeader map[*ir.Block]*Loop
	// Innermost maps each block to the innermost loop containing it.
	Innermost map[*ir.Block]*Loop
}

// LoopOf returns the innermost loop containing b, or nil.
func (lf *LoopForest) LoopOf(b *ir.Block) *Loop { return lf.Innermost[b] }

// FindLoops discovers the natural loops of f from back edges (edges whose
// target dominates their source), merging loops that share a header, and
// assembles the nesting forest.
func FindLoops(f *ir.Func, dom *DomTree) *LoopForest {
	lf := &LoopForest{
		ByHeader:  make(map[*ir.Block]*Loop),
		Innermost: make(map[*ir.Block]*Loop),
	}
	// Collect back edges and grow loop bodies by backwards reachability
	// from the latch, stopping at the header.
	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue
		}
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue // not a back edge
			}
			header, latch := s, b
			loop := lf.ByHeader[header]
			if loop == nil {
				loop = &Loop{Header: header, Blocks: map[*ir.Block]bool{header: true}}
				lf.ByHeader[header] = loop
			}
			loop.Latches = append(loop.Latches, latch)
			// Backwards BFS from latch.
			work := []*ir.Block{latch}
			for len(work) > 0 {
				n := work[len(work)-1]
				work = work[:len(work)-1]
				if loop.Blocks[n] {
					continue
				}
				loop.Blocks[n] = true
				for _, p := range n.Preds {
					if dom.Reachable(p) {
						work = append(work, p)
					}
				}
			}
		}
	}
	// Build nesting: sort loops by body size ascending; the innermost loop
	// of a block is the smallest loop containing it, and each loop's parent
	// is the next-smallest loop containing its header... computed by
	// checking containment against larger loops.
	loops := make([]*Loop, 0, len(lf.ByHeader))
	for _, l := range lf.ByHeader {
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool {
		if len(loops[i].Blocks) != len(loops[j].Blocks) {
			return len(loops[i].Blocks) < len(loops[j].Blocks)
		}
		return loops[i].Header.ID < loops[j].Header.ID
	})
	for i, l := range loops {
		for _, bigger := range loops[i+1:] {
			if bigger != l && bigger.Blocks[l.Header] {
				l.Parent = bigger
				bigger.Inner = append(bigger.Inner, l)
				break
			}
		}
	}
	for _, l := range loops {
		if l.Parent == nil {
			lf.Top = append(lf.Top, l)
		}
	}
	sort.Slice(lf.Top, func(i, j int) bool { return lf.Top[i].Header.ID < lf.Top[j].Header.ID })
	// Innermost map: iterate smallest-first so the first loop claiming a
	// block is the innermost one.
	for _, l := range loops {
		for b := range l.Blocks {
			if _, claimed := lf.Innermost[b]; !claimed {
				lf.Innermost[b] = l
			}
		}
	}
	return lf
}

// InnerToOuter returns all loops ordered innermost-first (children before
// parents), the order in which Encore's hierarchical idempotence analysis
// must summarize them (paper §3.1.2).
func (lf *LoopForest) InnerToOuter() []*Loop {
	var out []*Loop
	var walk func(l *Loop)
	walk = func(l *Loop) {
		inner := append([]*Loop(nil), l.Inner...)
		sort.Slice(inner, func(i, j int) bool { return inner[i].Header.ID < inner[j].Header.ID })
		for _, c := range inner {
			walk(c)
		}
		out = append(out, l)
	}
	for _, l := range lf.Top {
		walk(l)
	}
	return out
}

// Canonicalize puts every natural loop of f into the canonical form the
// paper's analysis requires (§3.1.2): a single header with no side entries.
// Natural loops already have no side entries (the header dominates the
// body), so canonicalization here verifies that property and reports, per
// function, whether all cycles are reducible. Irreducible cycles — retreat
// edges whose target does not dominate the source — cannot be canonicalized;
// Encore refuses to instrument regions containing them (paper footnote 3).
//
// Canonicalize returns the set of blocks participating in irreducible
// cycles (empty for reducible CFGs).
func Canonicalize(f *ir.Func, dom *DomTree) map[*ir.Block]bool {
	irr := map[*ir.Block]bool{}
	entry := f.Entry()
	if entry == nil {
		return irr
	}
	// Retreat-edge test: during DFS, an edge to a block still on the DFS
	// stack closes a cycle; the CFG is reducible iff the target of every
	// such edge dominates its source. Each offending edge (u,v) marks the
	// cycle's blocks: those on a path from v to u, i.e. reachable from v
	// while also reaching u (computed via forward/backward reachability).
	type frame struct {
		b    *ir.Block
		next int
	}
	onStack := map[*ir.Block]bool{entry: true}
	visited := map[*ir.Block]bool{entry: true}
	type edge struct{ u, v *ir.Block }
	var bad []edge
	stack := []frame{{b: entry}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.b.Succs) {
			s := top.b.Succs[top.next]
			top.next++
			if onStack[s] && !dom.Dominates(s, top.b) {
				bad = append(bad, edge{top.b, s})
			}
			if !visited[s] {
				visited[s] = true
				onStack[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		onStack[top.b] = false
		stack = stack[:len(stack)-1]
	}
	for _, e := range bad {
		fwd := reach(e.v, func(b *ir.Block) []*ir.Block { return b.Succs })
		bwd := reach(e.u, func(b *ir.Block) []*ir.Block { return b.Preds })
		for b := range fwd {
			if bwd[b] {
				irr[b] = true
			}
		}
		irr[e.u] = true
		irr[e.v] = true
	}
	return irr
}

func reach(start *ir.Block, next func(*ir.Block) []*ir.Block) map[*ir.Block]bool {
	seen := map[*ir.Block]bool{start: true}
	work := []*ir.Block{start}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, n := range next(b) {
			if !seen[n] {
				seen[n] = true
				work = append(work, n)
			}
		}
	}
	return seen
}
