package poly

import "slices"

// This file implements variable elimination over systems of integer affine
// constraints: substitution through equalities when possible (exact) and
// Fourier-Motzkin combination of inequality pairs otherwise. Every
// elimination reports whether it was exact over the integers; the only
// sources of approximation are eliminating through an equality with
// non-unit coefficient (loses a divisibility condition) and combining two
// inequalities that both have non-unit coefficients on the eliminated
// variable (the real shadow can exceed the integer shadow).

// system is a constraint set with dedup and infeasibility tracking.
// hashes[i] is cons[i].hash(); a new constraint is a duplicate when an
// earlier one has the same hash and is structurally the same.
type system struct {
	cons       []Constraint
	hashes     []uint64
	infeasible bool
}

func newSystem(cs []Constraint) *system {
	s := newSystemCap(len(cs))
	for _, c := range cs {
		s.add(c)
	}
	return s
}

// newSystemCap returns an empty system with room for n constraints.
func newSystemCap(n int) *system {
	return &system{cons: make([]Constraint, 0, n), hashes: make([]uint64, 0, n)}
}

// clone returns a copy of s with room for one more constraint.
func (s *system) clone() *system {
	c := newSystemCap(len(s.cons) + 1)
	c.cons = append(c.cons, s.cons...)
	c.hashes = append(c.hashes, s.hashes...)
	c.infeasible = s.infeasible
	return c
}

func (s *system) add(c Constraint) {
	nc, st := c.normalize()
	switch st {
	case normDrop:
		return
	case normInfeasy:
		s.infeasible = true
		return
	}
	h := nc.hash()
	for i, seen := range s.hashes {
		if seen == h && s.cons[i].same(nc) {
			return
		}
	}
	s.cons = append(s.cons, nc)
	s.hashes = append(s.hashes, h)
}

// list returns the constraints. The slice shares the system's array with
// its capacity capped, so appending to it copies; constraints are values
// that no caller writes in place.
func (s *system) list() []Constraint {
	return s.cons[:len(s.cons):len(s.cons)]
}

// eliminate removes variable v from cons, returning the projected system, a
// flag reporting whether the projection is exact over the integers, and
// whether the system was detected infeasible outright.
func eliminate(cons []Constraint, v string) (out []Constraint, exact, infeasible bool) {
	exact = true

	// Prefer substitution through an equality with unit coefficient: exact.
	bestEq := -1
	for i, c := range cons {
		if !c.Equality || !c.E.Uses(v) {
			continue
		}
		if a := c.E.Coeff(v); a == 1 || a == -1 {
			bestEq = i
			break
		}
		if bestEq < 0 {
			bestEq = i
		}
	}
	if bestEq >= 0 {
		eq := cons[bestEq]
		ie := eq.E.index(v)
		a := eq.E.terms[ie].c
		sys := newSystemCap(len(cons))
		if a == 1 || a == -1 {
			// v = rest where rest = -a*(eq - a*v) (a^2 = 1), so c becomes
			// c - cv*v + cv*rest = c\v + (-a*cv)*(eq\v).
			for i, c := range cons {
				if i == bestEq {
					continue
				}
				if ic := c.E.index(v); ic >= 0 {
					c = Constraint{E: combine(c.E, 1, ic, eq.E, -a*c.E.terms[ic].c, ie), Equality: c.Equality}
				}
				sys.add(c)
			}
			return sys.list(), true, sys.infeasible
		}
		// Non-unit equality a*v + rest == 0 (a > 0 after flipping the sign):
		// scale the other constraints by a and substitute a*v = -rest. Drops
		// the divisibility condition a | rest, so the result is a superset:
		// mark inexact.
		if a < 0 {
			eq = EqZero(eq.E.Neg())
			a = -a
		}
		for i, c := range cons {
			if i == bestEq {
				continue
			}
			ic := c.E.index(v)
			if ic < 0 {
				sys.add(c)
				continue
			}
			// a*c.E = cv*(a*v) + a*(c.E - cv*v) = a*(c\v) - cv*rest
			scaled := combine(c.E, a, ic, eq.E, -c.E.terms[ic].c, ie)
			sys.add(Constraint{E: scaled, Equality: c.Equality})
		}
		return sys.list(), false, sys.infeasible
	}

	// Fourier-Motzkin on inequalities. lowers and uppers index cons by the
	// sign of v's coefficient.
	var lbuf, ubuf [16]int
	lowers, uppers := lbuf[:0], ubuf[:0]
	sys := newSystemCap(len(cons))
	for i, c := range cons {
		a := c.E.Coeff(v)
		switch {
		case a == 0:
			sys.add(c)
		case a > 0:
			lowers = append(lowers, i)
		default:
			uppers = append(uppers, i)
		}
	}
	for _, li := range lowers {
		lo := cons[li].E
		il := lo.index(v)
		cl := lo.terms[il].c
		for _, ui := range uppers {
			up := cons[ui].E
			iu := up.index(v)
			cu := -up.terms[iu].c
			// From cl*v + rl >= 0 and -cu*v + ru >= 0:
			// cu*rl + cl*ru >= 0 is the real shadow.
			sys.add(GeZero(combine(lo, cu, il, up, cl, iu)))
			if cl != 1 && cu != 1 {
				exact = false
			}
		}
	}
	return sys.list(), exact, sys.infeasible
}

// varsOf returns all variables appearing in the constraints, sorted. Each
// constraint's terms are sorted too, so they merge into the result in one
// forward pass.
func varsOf(cons []Constraint) []string {
	var vs []string
	for _, c := range cons {
		j := 0
		for _, t := range c.E.terms {
			for j < len(vs) && vs[j] < t.v {
				j++
			}
			if j == len(vs) || vs[j] != t.v {
				vs = slices.Insert(vs, j, t.v)
			}
		}
	}
	return vs
}

// project eliminates every variable in vars from cons. The exact flag is the
// conjunction of per-step exactness.
func project(cons []Constraint, vars []string) (out []Constraint, exact bool, infeasible bool) {
	sys0 := newSystem(cons)
	if sys0.infeasible {
		return nil, true, true
	}
	return projectNormalized(sys0.cons, vars)
}

// projectNormalized is project on a list that is already normalized and
// deduplicated (a system's cons). It does not modify cons.
func projectNormalized(cons []Constraint, vars []string) (out []Constraint, exact bool, infeasible bool) {
	out = cons
	exact = true
	remaining := append([]string(nil), vars...)
	for len(remaining) > 0 {
		// Eliminate the cheapest variable first: one with an equality, else
		// the one with the fewest lower*upper combinations.
		best, bestCost := -1, int(^uint(0)>>1)
		for i, v := range remaining {
			cost, hasEq := elimCost(out, v)
			if hasEq {
				best = i
				break
			}
			if cost < bestCost {
				best, bestCost = i, cost
			}
		}
		v := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		var ex, inf bool
		out, ex, inf = eliminate(out, v)
		exact = exact && ex
		if inf {
			return out, exact, true
		}
	}
	return out, exact, false
}

func elimCost(cons []Constraint, v string) (cost int, hasUnitEq bool) {
	lo, hi := 0, 0
	for _, c := range cons {
		a := c.E.Coeff(v)
		if a == 0 {
			continue
		}
		if c.Equality && (a == 1 || a == -1) {
			return 0, true
		}
		if a > 0 {
			lo++
		} else {
			hi++
		}
	}
	return lo * hi, false
}

// emptiness decides whether the integer constraint system is empty.
// When exact is true the answer is definitive; when exact is false and empty
// is false, the system might still be integer-empty (rational relaxation was
// non-empty).
func emptiness(cons []Constraint) (empty, exact bool) {
	return newSystem(cons).emptiness()
}

// emptiness is the package-level emptiness on the system's normalized list.
// The answer depends only on that list, in order: eliminate substitutes
// through the first unit equality it finds, so exact can change with order.
func (s *system) emptiness() (empty, exact bool) {
	if s.infeasible {
		return true, true
	}
	out, ex, inf := projectNormalized(s.cons, varsOf(s.cons))
	if inf {
		return true, true
	}
	// All variables eliminated: remaining constraints are constants and were
	// resolved by normalize inside project/newSystem; anything left implies
	// a bug, but check defensively.
	for _, c := range out {
		if ok, _ := c.Holds(nil); !ok {
			return true, true
		}
	}
	return false, ex
}

// emptyMemo remembers emptiness answers for the duration of one
// Set.Subtract call, where the same basic set is tested again and again.
// It is keyed on the ordered normalized constraint list, because the answer
// depends on the order (see system.emptiness). It is a local value, never
// shared across calls or goroutines.
type emptyMemo map[uint64][]memoEntry

type memoEntry struct {
	cons  []Constraint
	empty bool
}

// empty reports whether the normalized system is empty, consulting and
// filling the memo.
func (m emptyMemo) empty(sys *system) bool {
	if sys.infeasible {
		return true
	}
	h := uint64(fnvOffset)
	for _, ch := range sys.hashes {
		h = (h ^ ch) * fnvPrime
	}
	for _, e := range m[h] {
		if sameList(e.cons, sys.cons) {
			return e.empty
		}
	}
	empty, _ := sys.emptiness()
	m[h] = append(m[h], memoEntry{cons: sys.cons, empty: empty})
	return empty
}

// sameList reports whether two constraint lists are the same in order.
func sameList(a, b []Constraint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].same(b[i]) {
			return false
		}
	}
	return true
}
