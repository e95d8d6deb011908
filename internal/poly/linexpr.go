// Package poly is a small Presburger-style library for the affine sets,
// relations, and parametric counts needed by the paper's compile-time
// use-count analysis (Sections 3.1-3.2). It plays the role ISL plays for the
// authors: iteration spaces and access relations are affine constraint
// systems; dependences are relations; Algorithm 1's use counts are parametric
// cardinalities returned as piecewise polynomials.
//
// The library is exact for the fragment the paper exercises — constraint
// systems whose eliminated variables carry unit coefficients — and tracks
// exactness explicitly everywhere Fourier-Motzkin projection is used, so
// callers can fall back to the paper's dynamic (inspector) scheme instead of
// silently approximating.
package poly

import "strconv"

// term is one variable term c*v of a LinExpr.
type term struct {
	v string
	c int64
}

// LinExpr is an affine expression: a sum of integer-coefficient terms over
// named variables plus an integer constant. The zero value is the constant 0.
// LinExpr values are immutable; all methods return new expressions. The
// terms are kept sorted by variable name with no zero coefficient, so
// equality, hashing and rendering walk them in order and Add, Sub and Subst
// are linear merges. Expressions may share a terms slice; none is ever
// written after construction.
type LinExpr struct {
	terms []term
	k     int64
}

// L returns the constant expression k.
func L(k int64) LinExpr { return LinExpr{k: k} }

// V returns the expression consisting of the single variable name.
func V(name string) LinExpr { return Term(1, name) }

// Term returns c*name.
func Term(c int64, name string) LinExpr {
	if c == 0 {
		return LinExpr{}
	}
	return LinExpr{terms: []term{{v: name, c: c}}}
}

// Const returns the constant term.
func (e LinExpr) Const() int64 { return e.k }

// index returns the position of v in e.terms, or -1.
func (e LinExpr) index(v string) int {
	for i, t := range e.terms {
		if t.v == v {
			return i
		}
		if t.v > v {
			break
		}
	}
	return -1
}

// Coeff returns the coefficient of variable v (0 if absent).
func (e LinExpr) Coeff(v string) int64 {
	if i := e.index(v); i >= 0 {
		return e.terms[i].c
	}
	return 0
}

// IsConst reports whether the expression has no variable terms.
func (e LinExpr) IsConst() bool { return len(e.terms) == 0 }

// Vars returns the variables with nonzero coefficients, sorted.
func (e LinExpr) Vars() []string {
	vs := make([]string, len(e.terms))
	for i, t := range e.terms {
		vs[i] = t.v
	}
	return vs
}

// Uses reports whether variable v occurs with nonzero coefficient.
func (e LinExpr) Uses(v string) bool { return e.index(v) >= 0 }

// combine returns sa*e + sb*f, leaving out e's term at index skipE and f's
// at index skipF (-1 keeps every term). Both term lists are sorted, so this
// is one merge pass and one allocation.
func combine(e LinExpr, sa int64, skipE int, f LinExpr, sb int64, skipF int) LinExpr {
	r := LinExpr{k: sa*e.k + sb*f.k}
	if n := len(e.terms) + len(f.terms); n > 0 {
		r.terms = make([]term, 0, n)
	}
	i, j := 0, 0
	for {
		if i == skipE {
			i++
		}
		if j == skipF {
			j++
		}
		switch {
		case i == len(e.terms) && j == len(f.terms):
			return r
		case j == len(f.terms) || (i < len(e.terms) && e.terms[i].v < f.terms[j].v):
			r.terms = append(r.terms, term{v: e.terms[i].v, c: sa * e.terms[i].c})
			i++
		case i == len(e.terms) || f.terms[j].v < e.terms[i].v:
			r.terms = append(r.terms, term{v: f.terms[j].v, c: sb * f.terms[j].c})
			j++
		default:
			if c := sa*e.terms[i].c + sb*f.terms[j].c; c != 0 {
				r.terms = append(r.terms, term{v: e.terms[i].v, c: c})
			}
			i++
			j++
		}
	}
}

// Add returns e + f.
func (e LinExpr) Add(f LinExpr) LinExpr { return combine(e, 1, -1, f, 1, -1) }

// Sub returns e - f.
func (e LinExpr) Sub(f LinExpr) LinExpr { return combine(e, 1, -1, f, -1, -1) }

// AddConst returns e + k.
func (e LinExpr) AddConst(k int64) LinExpr { return LinExpr{terms: e.terms, k: e.k + k} }

// Scale returns c*e.
func (e LinExpr) Scale(c int64) LinExpr {
	if c == 0 {
		return LinExpr{}
	}
	r := LinExpr{k: e.k * c}
	if len(e.terms) > 0 {
		r.terms = make([]term, len(e.terms))
		for i, t := range e.terms {
			r.terms[i] = term{v: t.v, c: t.c * c}
		}
	}
	return r
}

// Neg returns -e.
func (e LinExpr) Neg() LinExpr { return e.Scale(-1) }

// Subst returns e with variable v replaced by expression f.
func (e LinExpr) Subst(v string, f LinExpr) LinExpr {
	i := e.index(v)
	if i < 0 {
		return e
	}
	return combine(e, 1, i, f, e.terms[i].c, -1)
}

// Rename returns e with every variable renamed through m; variables absent
// from m are kept.
func (e LinExpr) Rename(m map[string]string) LinExpr {
	var r []term
	for i, t := range e.terms {
		nv, ok := m[t.v]
		if !ok || nv == t.v {
			if r != nil {
				r = append(r, t)
			}
			continue
		}
		if r == nil {
			r = make([]term, i, len(e.terms))
			copy(r, e.terms[:i])
		}
		r = append(r, term{v: nv, c: t.c})
	}
	if r == nil {
		return e
	}
	// Insertion sort: expressions have a handful of terms.
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j].v < r[j-1].v; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
	// Merge terms renamed onto the same variable.
	out := r[:0]
	for _, t := range r {
		if n := len(out); n > 0 && out[n-1].v == t.v {
			out[n-1].c += t.c
			if out[n-1].c == 0 {
				out = out[:n-1]
			}
			continue
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		out = nil
	}
	return LinExpr{terms: out, k: e.k}
}

// Eval evaluates e under the assignment env. Missing variables evaluate as 0
// and are reported through the second result.
func (e LinExpr) Eval(env map[string]int64) (int64, bool) {
	total := e.k
	complete := true
	for _, t := range e.terms {
		val, ok := env[t.v]
		if !ok {
			complete = false
		}
		total += t.c * val
	}
	return total, complete
}

// Equal reports structural equality of the two expressions.
func (e LinExpr) Equal(f LinExpr) bool {
	if e.k != f.k || len(e.terms) != len(f.terms) {
		return false
	}
	for i, t := range e.terms {
		if f.terms[i] != t {
			return false
		}
	}
	return true
}

// String renders the expression in human-readable form, e.g. "n - j - 1".
func (e LinExpr) String() string {
	if e.IsConst() {
		return strconv.FormatInt(e.k, 10)
	}
	b := make([]byte, 0, 16*len(e.terms))
	for i, t := range e.terms {
		c := t.c
		switch {
		case i == 0 && c == -1:
			b = append(b, '-')
		case i == 0 && c != 1:
			b = strconv.AppendInt(b, c, 10)
			b = append(b, '*')
		case i == 0:
		case c == 1:
			b = append(b, " + "...)
		case c == -1:
			b = append(b, " - "...)
		case c > 0:
			b = append(b, " + "...)
			b = strconv.AppendInt(b, c, 10)
			b = append(b, '*')
		default:
			b = append(b, " - "...)
			b = strconv.AppendInt(b, -c, 10)
			b = append(b, '*')
		}
		b = append(b, t.v...)
	}
	switch {
	case e.k > 0:
		b = append(b, " + "...)
		b = strconv.AppendInt(b, e.k, 10)
	case e.k < 0:
		b = append(b, " - "...)
		b = strconv.AppendInt(b, -e.k, 10)
	}
	return string(b)
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// contentGCD returns the gcd of the variable coefficients (0 if none).
func (e LinExpr) contentGCD() int64 {
	var g int64
	for _, t := range e.terms {
		g = gcd64(g, t.c)
	}
	return g
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
