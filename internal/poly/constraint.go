package poly

// Constraint is a single affine constraint: E == 0 (when Equality is true) or
// E >= 0 (otherwise).
type Constraint struct {
	E        LinExpr
	Equality bool
}

// EqZero returns the constraint e == 0.
func EqZero(e LinExpr) Constraint { return Constraint{E: e, Equality: true} }

// GeZero returns the constraint e >= 0.
func GeZero(e LinExpr) Constraint { return Constraint{E: e} }

// Eq returns the constraint a == b.
func Eq(a, b LinExpr) Constraint { return EqZero(a.Sub(b)) }

// Ge returns the constraint a >= b.
func Ge(a, b LinExpr) Constraint { return GeZero(a.Sub(b)) }

// Le returns the constraint a <= b.
func Le(a, b LinExpr) Constraint { return GeZero(b.Sub(a)) }

// Lt returns the integer constraint a < b, i.e. a <= b-1.
func Lt(a, b LinExpr) Constraint { return GeZero(b.Sub(a).AddConst(-1)) }

// Gt returns the integer constraint a > b.
func Gt(a, b LinExpr) Constraint { return GeZero(a.Sub(b).AddConst(-1)) }

// String renders the constraint, e.g. "n - j - 1 >= 0".
func (c Constraint) String() string {
	op := ">="
	if c.Equality {
		op = "="
	}
	return c.E.String() + " " + op + " 0"
}

// Rename returns the constraint with variables renamed through m.
func (c Constraint) Rename(m map[string]string) Constraint {
	return Constraint{E: c.E.Rename(m), Equality: c.Equality}
}

// Subst returns the constraint with v replaced by f.
func (c Constraint) Subst(v string, f LinExpr) Constraint {
	return Constraint{E: c.E.Subst(v, f), Equality: c.Equality}
}

// Holds evaluates the constraint under env. The second result is false if a
// variable was missing from env.
func (c Constraint) Holds(env map[string]int64) (bool, bool) {
	val, complete := c.E.Eval(env)
	if c.Equality {
		return val == 0, complete
	}
	return val >= 0, complete
}

// Negate returns the constraints describing the integer complement of c.
// For an inequality e >= 0 the complement is the single constraint
// -e - 1 >= 0; for an equality e == 0 it is the disjunction
// {e - 1 >= 0} or {-e - 1 >= 0}, hence a slice.
func (c Constraint) Negate() []Constraint {
	if c.Equality {
		return []Constraint{
			GeZero(c.E.AddConst(-1)),
			GeZero(c.E.Neg().AddConst(-1)),
		}
	}
	return []Constraint{GeZero(c.E.Neg().AddConst(-1))}
}

// normState classifies a constraint after normalization.
type normState int

const (
	normKeep    normState = iota // constraint retained
	normDrop                     // trivially true, drop it
	normInfeasy                  // trivially false, system is empty
)

// normalize tightens a constraint over the integers: inequality coefficients
// are divided by their gcd with the constant floored (exact for integer
// points); equalities whose constant is not divisible by the coefficient gcd
// are infeasible. Constant-only constraints are resolved outright.
func (c Constraint) normalize() (Constraint, normState) {
	if c.E.IsConst() {
		if c.Equality {
			if c.E.k == 0 {
				return c, normDrop
			}
			return c, normInfeasy
		}
		if c.E.k >= 0 {
			return c, normDrop
		}
		return c, normInfeasy
	}
	g := c.E.contentGCD()
	if g <= 1 {
		return c, normKeep
	}
	k := floorDiv(c.E.k, g)
	if c.Equality {
		if c.E.k%g != 0 {
			return c, normInfeasy
		}
		k = c.E.k / g
	}
	e := LinExpr{terms: make([]term, len(c.E.terms)), k: k}
	for i, t := range c.E.terms {
		e.terms[i] = term{v: t.v, c: t.c / g}
	}
	return Constraint{E: e, Equality: c.Equality}, normKeep
}

// hash is a structural hash of the constraint (relation, terms, constant):
// FNV-1a over the variable names' bytes and the integer fields. Two
// constraints with equal String() hash alike; same resolves collisions.
func (c Constraint) hash() uint64 {
	h := uint64(fnvOffset)
	if c.Equality {
		h = (h ^ 1) * fnvPrime
	}
	for _, t := range c.E.terms {
		for i := 0; i < len(t.v); i++ {
			h = (h ^ uint64(t.v[i])) * fnvPrime
		}
		h = (h ^ uint64(t.c)) * fnvPrime
	}
	return (h ^ uint64(c.E.k)) * fnvPrime
}

// The 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// same reports whether the two constraints are structurally identical. As
// terms are sorted and zero-free, that is exactly when their String()
// values are equal.
func (c Constraint) same(o Constraint) bool {
	return c.Equality == o.Equality && c.E.Equal(o.E)
}
