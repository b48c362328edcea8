// Package cfg provides the control-flow graph analyses Encore builds on:
// depth-first orderings, dominator trees, natural-loop detection and
// canonicalization, and Cocke–Allen interval partitioning (the basis of
// SEME region formation, paper §3.3).
package cfg

import (
	"encore/internal/ir"
)

// PostOrder returns the blocks of f reachable from the entry in post-order
// (every block appears after all of its unvisited successors).
func PostOrder(f *ir.Func) []*ir.Block {
	return postOrderFrom(f.Entry(), nil)
}

// ReversePostOrder returns reachable blocks in reverse post-order, the
// canonical forward-dataflow iteration order.
func ReversePostOrder(f *ir.Func) []*ir.Block {
	po := PostOrder(f)
	for i, j := 0, len(po)-1; i < j; i, j = i+1, j-1 {
		po[i], po[j] = po[j], po[i]
	}
	return po
}

// postOrderFrom performs an iterative DFS from entry, restricted to the
// member set when member != nil, and returns blocks in post-order.
func postOrderFrom(entry *ir.Block, member map[*ir.Block]bool) []*ir.Block {
	if entry == nil {
		return nil
	}
	type frame struct {
		b    *ir.Block
		next int
	}
	seen := map[*ir.Block]bool{entry: true}
	var out []*ir.Block
	stack := []frame{{b: entry}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.b.Succs) {
			s := top.b.Succs[top.next]
			top.next++
			if seen[s] || (member != nil && !member[s]) {
				continue
			}
			seen[s] = true
			stack = append(stack, frame{b: s})
			continue
		}
		out = append(out, top.b)
		stack = stack[:len(stack)-1]
	}
	return out
}

// DomTree holds immediate-dominator information for a function.
type DomTree struct {
	fn   *ir.Func
	idom map[*ir.Block]*ir.Block // entry maps to nil
	// rpoNum orders blocks for the intersect walk and Dominates queries.
	rpoNum map[*ir.Block]int
}

// Dominators computes the dominator tree of f using the iterative
// Cooper–Harvey–Kennedy algorithm. Unreachable blocks are absent from the
// tree.
func Dominators(f *ir.Func) *DomTree {
	rpo := ReversePostOrder(f)
	t := &DomTree{
		fn:     f,
		idom:   make(map[*ir.Block]*ir.Block, len(rpo)),
		rpoNum: make(map[*ir.Block]int, len(rpo)),
	}
	for i, b := range rpo {
		t.rpoNum[b] = i
	}
	entry := f.Entry()
	t.idom[entry] = entry // sentinel during iteration; fixed to nil below
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if _, ok := t.idom[p]; !ok {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[b] != newIdom {
				t.idom[b] = newIdom
				changed = true
			}
		}
	}
	t.idom[entry] = nil
	return t
}

func (t *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for t.rpoNum[a] > t.rpoNum[b] {
			a = t.idom[a]
		}
		for t.rpoNum[b] > t.rpoNum[a] {
			b = t.idom[b]
		}
	}
	return a
}

// IDom returns the immediate dominator of b (nil for the entry block or
// unreachable blocks).
func (t *DomTree) IDom(b *ir.Block) *ir.Block { return t.idom[b] }

// Reachable reports whether b was reachable when the tree was built.
func (t *DomTree) Reachable(b *ir.Block) bool {
	_, ok := t.rpoNum[b]
	return ok
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	for b != nil {
		if a == b {
			return true
		}
		b = t.idom[b]
	}
	return false
}
