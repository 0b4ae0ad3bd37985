package loopir

import (
	"math"

	"memexplore/internal/trace"
)

// Nest returns the compiled nest.
func (p *Program) Nest() *Nest { return p.nest }

// Proven reports whether the program generates by strength reduction.
func (p *Program) Proven() bool { return p.proven }

// GenerateChecked generates through the checked evaluator alone, the
// oracle of the folded generator.
func (p *Program) GenerateChecked(layout Layout) (*trace.Trace, error) {
	arrs, err := p.place(layout)
	if err != nil {
		return nil, err
	}
	refs, err := p.appendChecked(nil, arrs)
	if err != nil {
		return nil, err
	}
	return trace.FromRefs(refs), nil
}

// CountReferences counts the references of a valid nest, walking at
// most limit loop iterations and counting at most limit references;
// false means it gave up.
func CountReferences(n *Nest, limit int64) (int64, bool) {
	loops, body := n.compileExec()
	env := make([]int, len(loops))
	var refs, walked int64
	var run func(depth int) bool
	run = func(depth int) bool {
		l := &loops[depth]
		lo, hi := l.lo.eval(env), l.hi.eval(env)
		if depth == len(loops)-1 {
			if hi > math.MaxInt-l.step {
				return false // the evaluator's loop would wrap and never end
			}
			if hi >= lo {
				trip := int64((hi-lo)/l.step) + 1
				if trip <= 0 || trip > limit {
					return false
				}
				refs += trip * int64(len(body))
			}
			return refs <= limit
		}
		for v := lo; v <= hi; v += l.step {
			if walked++; walked > limit {
				return false
			}
			env[depth] = v
			if !run(depth + 1) {
				return false
			}
		}
		return true
	}
	return refs, run(0)
}
