package poly

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refExpr is the map-based affine expression LinExpr used to be. The parity
// tests check the sorted-term LinExpr against it operation by operation.
type refExpr struct {
	m map[string]int64
	k int64
}

func (r refExpr) clone() refExpr {
	c := refExpr{m: map[string]int64{}, k: r.k}
	for v, x := range r.m {
		c.m[v] = x
	}
	return c
}

func (r refExpr) add(o refExpr, s int64) refExpr {
	c := r.clone()
	c.k += s * o.k
	for v, x := range o.m {
		c.m[v] += s * x
		if c.m[v] == 0 {
			delete(c.m, v)
		}
	}
	return c
}

func (r refExpr) scale(s int64) refExpr {
	if s == 0 {
		return refExpr{m: map[string]int64{}}
	}
	c := refExpr{m: map[string]int64{}, k: r.k * s}
	for v, x := range r.m {
		c.m[v] = x * s
	}
	return c
}

func (r refExpr) subst(v string, f refExpr) refExpr {
	x := r.m[v]
	if x == 0 {
		return r
	}
	c := r.clone()
	delete(c.m, v)
	return c.add(f, x)
}

func (r refExpr) rename(ren map[string]string) refExpr {
	c := refExpr{m: map[string]int64{}, k: r.k}
	for v, x := range r.m {
		nv, ok := ren[v]
		if !ok {
			nv = v
		}
		c.m[nv] += x
		if c.m[nv] == 0 {
			delete(c.m, nv)
		}
	}
	return c
}

func (r refExpr) eval(env map[string]int64) int64 {
	t := r.k
	for v, x := range r.m {
		t += x * env[v]
	}
	return t
}

// String is the map-based rendering: variables sorted, fmt formatting.
func (r refExpr) String() string {
	if len(r.m) == 0 {
		return fmt.Sprintf("%d", r.k)
	}
	vs := make([]string, 0, len(r.m))
	for v := range r.m {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	var b strings.Builder
	for i, v := range vs {
		c := r.m[v]
		switch {
		case i == 0 && c == 1:
			b.WriteString(v)
		case i == 0 && c == -1:
			b.WriteString("-" + v)
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", c, v)
		case c == 1:
			b.WriteString(" + " + v)
		case c == -1:
			b.WriteString(" - " + v)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, v)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, v)
		}
	}
	switch {
	case r.k > 0:
		fmt.Fprintf(&b, " + %d", r.k)
	case r.k < 0:
		fmt.Fprintf(&b, " - %d", -r.k)
	}
	return b.String()
}

// refKey is the string constraint key the system used to deduplicate on:
// the normalized constraint's String(), or "" when normalization drops it
// or finds it infeasible (the state is returned alongside).
func refKey(r refExpr, eq bool) (string, normState) {
	op := " >= 0"
	if eq {
		op = " = 0"
	}
	if len(r.m) == 0 {
		switch {
		case eq && r.k == 0, !eq && r.k >= 0:
			return "", normDrop
		}
		return "", normInfeasy
	}
	var g int64
	for _, x := range r.m {
		g = gcd64(g, x)
	}
	if g > 1 {
		if eq && r.k%g != 0 {
			return "", normInfeasy
		}
		n := refExpr{m: map[string]int64{}, k: floorDiv(r.k, g)}
		if eq {
			n.k = r.k / g
		}
		for v, x := range r.m {
			n.m[v] = x / g
		}
		r = n
	}
	return r.String() + op, normKeep
}

// parityNames mixes plain names with the suffixes dependence analysis adds
// (one quote for the reader, two for the killer) and the "$n" of fresh
// names.
var parityNames = []string{"i", "j", "n", "i'", "j'", "i''", "n''", "i$1", "i$12", "j'$3", "t"}

// randPair builds the same random expression both ways. Coefficients and
// constants come from a small range so that equal constraints, zero sums
// and common factors turn up often.
func randPair(rng *rand.Rand) (LinExpr, refExpr) {
	e, r := L(0), refExpr{m: map[string]int64{}}
	for n := rng.Intn(4); n > 0; n-- {
		v := parityNames[rng.Intn(len(parityNames))]
		c := int64(rng.Intn(7) - 3)
		e = e.Add(Term(c, v))
		r = r.add(refExpr{m: map[string]int64{v: c}}, 1)
	}
	k := int64(rng.Intn(9) - 4)
	return e.AddConst(k), refExpr{m: r.m, k: r.k + k}
}

func checkParity(t *testing.T, op string, e LinExpr, r refExpr, env map[string]int64) {
	t.Helper()
	if e.String() != r.String() {
		t.Fatalf("%s: String %q, reference %q", op, e.String(), r.String())
	}
	if got, _ := e.Eval(env); got != r.eval(env) {
		t.Fatalf("%s: %s evaluates to %d, reference %d", op, e, got, r.eval(env))
	}
	for i, tm := range e.terms {
		if tm.c == 0 || (i > 0 && e.terms[i-1].v >= tm.v) {
			t.Fatalf("%s: terms of %s not sorted and nonzero: %v", op, e, e.terms)
		}
	}
}

// TestLinExprMatchesMapReference checks Add, Sub, Scale, Subst and Rename
// against the map-based reference under String and Eval at random points.
func TestLinExprMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 5000; it++ {
		env := map[string]int64{}
		for _, v := range parityNames {
			env[v] = int64(rng.Intn(41) - 20)
		}
		a, ra := randPair(rng)
		b, rb := randPair(rng)
		checkParity(t, "build", a, ra, env)
		checkParity(t, "Add", a.Add(b), ra.add(rb, 1), env)
		checkParity(t, "Sub", a.Sub(b), ra.add(rb, -1), env)
		s := int64(rng.Intn(9) - 4)
		checkParity(t, "Scale", a.Scale(s), ra.scale(s), env)
		v := parityNames[rng.Intn(len(parityNames))]
		checkParity(t, "Subst", a.Subst(v, b), ra.subst(v, rb), env)
		ren := map[string]string{}
		for _, x := range parityNames {
			if rng.Intn(3) == 0 {
				ren[x] = parityNames[rng.Intn(len(parityNames))]
			}
		}
		checkParity(t, "Rename", a.Rename(ren), ra.rename(ren), env)
	}
}

// TestConstraintKeyMatchesString checks that the structural key
// deduplicates exactly when the old string key did: newSystem keeps the
// same constraints, in the same order, as a system keyed on String().
func TestConstraintKeyMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dups := 0
	for it := 0; it < 3000; it++ {
		var cs []Constraint
		var want []string
		seen := map[string]bool{}
		infeasible := false
		for n := 2 + rng.Intn(10); n > 0; n-- {
			e, r := randPair(rng)
			eq := rng.Intn(3) == 0
			cs = append(cs, Constraint{E: e, Equality: eq})
			key, st := refKey(r, eq)
			switch st {
			case normInfeasy:
				infeasible = true
			case normKeep:
				if !seen[key] {
					seen[key] = true
					want = append(want, key)
				}
			}
		}
		sys := newSystem(cs)
		if sys.infeasible != infeasible {
			t.Fatalf("%v: infeasible %v, reference %v", cs, sys.infeasible, infeasible)
		}
		got := make([]string, len(sys.cons))
		for i, c := range sys.cons {
			got[i] = c.String()
		}
		if strings.Join(got, "; ") != strings.Join(want, "; ") {
			t.Fatalf("%v:\nsystem    %q\nreference %q", cs, got, want)
		}
		// Pairwise, before deduplication: same is String() equality, and
		// same constraints hash alike.
		var kept []Constraint
		for _, c := range cs {
			if nc, st := c.normalize(); st == normKeep {
				kept = append(kept, nc)
			}
		}
		dups += len(kept) - len(sys.cons)
		for _, c := range kept {
			for _, d := range kept {
				if c.same(d) != (c.String() == d.String()) {
					t.Fatalf("%s and %s: same=%v", c, d, c.same(d))
				}
				if c.same(d) && c.hash() != d.hash() {
					t.Fatalf("%s and %s: same but hashes differ", c, d)
				}
			}
		}
	}
	if dups == 0 {
		t.Fatal("no duplicate constraints generated; the test checks nothing")
	}
	t.Logf("%d duplicates dropped", dups)
}
