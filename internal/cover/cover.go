// Package cover decides relationships between subscription filters without
// canonicalizing either side — the natural sequel to the paper's thesis
// that filters are best kept and processed in non-canonical form.
//
// Two facilities are provided:
//
//   - Covers(a, b): a sound-but-incomplete covering test — true means every
//     event matching b also matches a, so a broker (or overlay link) that
//     already carries a need not process b separately. The test recurses
//     through And/Or/Not directly on the expression trees, never expanding
//     to DNF, and reasons about leaves via a per-attribute abstract domain
//     (intervals for the ordered operators, excluded points for !=,
//     required prefix/suffix/substrings for the string family). "False"
//     always means "could not prove it", which is safe: callers simply
//     forgo an optimisation.
//
//   - Key(e): a canonical interning key for exact-duplicate detection.
//     Key(a) == Key(b) implies a and b match exactly the same events
//     (children of And/Or are sorted and deduplicated, double negation is
//     collapsed, numerically equal Int/Float operands unify), so engine
//     entries can be shared between subscribers with identical filters.
//
// Both are used by the broker's aggregation layer (internal/broker,
// Options.Aggregate) and the federation's covering-based subscription
// forwarding (internal/router, netoverlay.Options.Cover) — the SIENA-style
// pruning that stops flooding a subscription past a link that already
// carries a covering one.
//
// Complexity: Covers explores pairs of subtrees, worst-case product of the
// two tree sizes per And/Or level; subscription trees are small (the
// paper's workloads use 6–10 leaves), so the test is microseconds in
// practice. It allocates only the per-attribute domains.
package cover

import (
	"sort"
	"strconv"
	"strings"

	"noncanon/internal/boolexpr"
	"noncanon/internal/predicate"
)

// Covers reports whether filter a covers filter b: every event matching b
// also matches a (sat(b) ⊆ sat(a)). The test is sound but incomplete —
// false means the relation could not be proven, not that it does not hold.
func Covers(a, b boolexpr.Expr) bool {
	if a == nil || b == nil {
		return false
	}
	return implies(b, a)
}

// implies reports (soundly) that every event satisfying p satisfies q.
func implies(p, q boolexpr.Expr) bool {
	if boolexpr.Equal(p, q) {
		return true
	}
	// Complete decompositions: a disjunction implies q iff every disjunct
	// does; p implies a conjunction iff it implies every conjunct. These
	// are exact, so their verdict is final for the sub-proofs they spawn.
	if o, ok := p.(boolexpr.Or); ok {
		for _, x := range o.Xs {
			if !implies(x, q) {
				return false
			}
		}
		return true
	}
	if a, ok := q.(boolexpr.And); ok {
		for _, y := range a.Xs {
			if !implies(p, y) {
				return false
			}
		}
		return true
	}
	// Incomplete sound rules: any that fires proves the implication.
	if a, ok := p.(boolexpr.And); ok {
		doms, feasible := conjDomains(a.Xs)
		if !feasible {
			return true // p is unsatisfiable: implies anything
		}
		// A single conjunct stronger than q suffices.
		for _, x := range a.Xs {
			if implies(x, q) {
				return true
			}
		}
		// Leaf conjuncts on q's attribute may entail q jointly even when
		// none does alone (a > 5 and a < 8 implies a != 9).
		if l, ok := q.(boolexpr.Leaf); ok {
			if d := doms[l.Pred.Attr]; d != nil && d.entails(l.Pred) {
				return true
			}
		}
	}
	if o, ok := q.(boolexpr.Or); ok {
		// Implying a single disjunct suffices.
		for _, y := range o.Xs {
			if implies(p, y) {
				return true
			}
		}
		return false
	}
	if n, ok := q.(boolexpr.Not); ok {
		// p ⇒ ¬y exactly when p and y share no event.
		return disjoint(p, n.X)
	}
	if lp, ok := p.(boolexpr.Leaf); ok {
		if lq, ok := q.(boolexpr.Leaf); ok {
			return leafImplies(lp.Pred, lq.Pred)
		}
	}
	return false
}

// disjoint reports (soundly) that no event satisfies both p and q.
func disjoint(p, q boolexpr.Expr) bool {
	// Complement rules are exact: ¬x is disjoint from q iff q ⊆ x.
	if n, ok := p.(boolexpr.Not); ok {
		return implies(q, n.X)
	}
	if n, ok := q.(boolexpr.Not); ok {
		return implies(p, n.X)
	}
	// Disjunction decomposes exactly.
	if o, ok := p.(boolexpr.Or); ok {
		for _, x := range o.Xs {
			if !disjoint(x, q) {
				return false
			}
		}
		return true
	}
	if o, ok := q.(boolexpr.Or); ok {
		for _, y := range o.Xs {
			if !disjoint(p, y) {
				return false
			}
		}
		return true
	}
	// p and q are now Leaf or And. Pool their top-level leaf conjuncts: an
	// event satisfying both satisfies all of them, so one contradictory
	// attribute domain proves disjointness (a > 5 vs a < 3).
	leaves := appendLeafConjuncts(nil, p)
	leaves = appendLeafConjuncts(leaves, q)
	if !leavesFeasible(leaves) {
		return true
	}
	// One conjunct disjoint from the other side suffices.
	if a, ok := p.(boolexpr.And); ok {
		for _, x := range a.Xs {
			if disjoint(x, q) {
				return true
			}
		}
	}
	if a, ok := q.(boolexpr.And); ok {
		for _, y := range a.Xs {
			if disjoint(p, y) {
				return true
			}
		}
	}
	return false
}

func leafImplies(p, q predicate.P) bool {
	if p.Attr != q.Attr {
		return false
	}
	var d dom
	if !d.conjoin(p) {
		return true // unsatisfiable leaf implies anything
	}
	return d.entails(q)
}

// conjDomains folds the leaf conjuncts of an And into per-attribute
// domains. feasible=false means some attribute's constraints are
// contradictory, i.e. the whole conjunction is unsatisfiable. Non-leaf
// conjuncts are ignored, which only widens the domains (sound).
func conjDomains(xs []boolexpr.Expr) (doms map[string]*dom, feasible bool) {
	for _, x := range xs {
		l, ok := x.(boolexpr.Leaf)
		if !ok {
			continue
		}
		if doms == nil {
			doms = make(map[string]*dom, 4)
		}
		d := doms[l.Pred.Attr]
		if d == nil {
			d = &dom{}
			doms[l.Pred.Attr] = d
		}
		if !d.conjoin(l.Pred) {
			return nil, false
		}
	}
	return doms, true
}

func appendLeafConjuncts(dst []predicate.P, e boolexpr.Expr) []predicate.P {
	switch t := e.(type) {
	case boolexpr.Leaf:
		return append(dst, t.Pred)
	case boolexpr.And:
		for _, x := range t.Xs {
			if l, ok := x.(boolexpr.Leaf); ok {
				dst = append(dst, l.Pred)
			}
		}
	}
	return dst
}

func leavesFeasible(ps []predicate.P) bool {
	doms := make(map[string]*dom, 4)
	for _, p := range ps {
		d := doms[p.Attr]
		if d == nil {
			d = &dom{}
			doms[p.Attr] = d
		}
		if !d.conjoin(p) {
			return false
		}
	}
	return true
}

// Key returns a canonical interning key for the expression. Structurally
// equivalent filters — modulo And/Or child order, duplicate children,
// double negation and Int/Float operand unification — share a key, and
// Key(a) == Key(b) guarantees that a and b match exactly the same events.
// The key is an opaque string suitable as a map key.
func Key(e boolexpr.Expr) string {
	if e == nil {
		return ""
	}
	return keyOf(e)
}

func keyOf(e boolexpr.Expr) string {
	switch t := e.(type) {
	case boolexpr.Leaf:
		return leafKey(t.Pred)
	case boolexpr.Not:
		if inner, ok := t.X.(boolexpr.Not); ok {
			return keyOf(inner.X) // ¬¬x ≡ x
		}
		return "!" + keyOf(t.X)
	case boolexpr.And:
		return naryKey('&', t.Xs)
	case boolexpr.Or:
		return naryKey('|', t.Xs)
	default:
		return "?"
	}
}

// naryKey canonicalises an n-ary And/Or: nested nodes of the same operator
// are flattened, children keys sorted and deduplicated (commutativity and
// idempotence preserve the matched event set), and a single surviving
// child collapses to itself.
func naryKey(op byte, xs []boolexpr.Expr) string {
	keys := make([]string, 0, len(xs))
	var collect func(xs []boolexpr.Expr)
	collect = func(xs []boolexpr.Expr) {
		for _, x := range xs {
			switch t := x.(type) {
			case boolexpr.And:
				if op == '&' {
					collect(t.Xs)
					continue
				}
			case boolexpr.Or:
				if op == '|' {
					collect(t.Xs)
					continue
				}
			}
			keys = append(keys, keyOf(x))
		}
	}
	collect(xs)
	sort.Strings(keys)
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			uniq = append(uniq, k)
		}
	}
	if len(uniq) == 1 {
		return uniq[0]
	}
	return string(op) + "(" + strings.Join(uniq, ",") + ")"
}

// leafKey renders a predicate unambiguously: the attribute is quoted (so
// separators inside names cannot collide) and the operand is rendered
// through value.KeyString — the same canonicalisation the predicate
// registry interns by, so filter interning can never disagree with
// predicate interning.
func leafKey(p predicate.P) string {
	if p.Op == predicate.Exists {
		// Eval ignores the operand of Exists entirely.
		return "p:" + strconv.Quote(p.Attr) + ":exists"
	}
	return "p:" + strconv.Quote(p.Attr) + ":" + p.Op.String() + ":" + p.Operand.KeyString()
}
