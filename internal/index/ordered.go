package index

import (
	"math"
	"sort"

	"repro/internal/relation"
	"repro/internal/value"
)

// KeyRange is a half-open interval [Lo, Hi) over ordered key encodings
// (value.AppendOrderedKey / relation.Tuple.OrderedKeyOn). Every bound shape
// a range probe produces — inclusive, exclusive, or kind-limited on either
// side — normalizes to this one form (see RangesFor), so both the ordered
// index scan and the commit validator's interval-membership test are plain
// string comparisons.
type KeyRange struct {
	Lo, Hi string
}

// Contains reports whether the encoded key falls inside the interval.
func (kr KeyRange) Contains(key string) bool { return kr.Lo <= key && key < kr.Hi }

// Empty reports whether the interval can contain no key at all.
func (kr KeyRange) Empty() bool { return kr.Lo >= kr.Hi }

// RangesFor builds the probe intervals for a range predicate over one
// ordered index: the index's leading prefix columns are fixed to eqVals
// (equality conjuncts), and the next column is bounded by lo and/or hi —
// constants of kind boundKind — with the given inclusivities. A missing
// bound falls back to the limit of boundKind's rank band, so intervals are
// always kind-limited and never need an "unbounded" representation.
//
// Normalization to half-open intervals leans on two encoding facts: no
// complete value encoding continues with 0xFF (string escapes emit 0xFF only
// after 0x00, numerics are fixed-width, rank bytes stop below 0xFF), and
// every encoding starts with its rank byte. Hence over both full index keys
// and prefix-projected keys:
//
//   - an exclusive lower bound "key > enc(v)" is "key >= enc(v) + 0xFF";
//   - an inclusive upper bound "key <= enc(v)" is "key < enc(v) + 0xFF".
//
// includeNull widens the result for negated comparisons, which null values
// satisfy (ordering against null is false, so its negation is true): either
// the main interval is extended down to the start of the column's key space,
// or — when a lower bound is present — a second point interval covering
// exactly the null encoding is added.
//
// includeNaN widens the result for inclusive numeric bounds, which NaN
// values satisfy (value.Compare answers 0 for NaN against any number, so
// NaN <= c and NaN >= c are true): the NaN encodings live below -Inf and
// above +Inf inside the numeric band, so whichever zones an explicit bound
// cut off are added back as extra intervals. The caller probes every
// returned interval and records each as an interval read.
func RangesFor(eqVals []value.Value, boundKind value.Kind,
	lo, hi *value.Value, loIncl, hiIncl, includeNull, includeNaN bool) []KeyRange {
	prefix := make([]byte, 0, 16*(len(eqVals)+1))
	for _, v := range eqVals {
		prefix = v.AppendOrderedKey(prefix)
	}
	rank := value.OrderedRank(boundKind)

	loKey := string(prefix) + string([]byte{rank})
	if lo != nil {
		loKey = string(lo.AppendOrderedKey(append([]byte(nil), prefix...)))
		if !loIncl {
			loKey += "\xff"
		}
	}
	hiKey := string(prefix) + string([]byte{rank + 0x10})
	if hi != nil {
		hiKey = string(hi.AppendOrderedKey(append([]byte(nil), prefix...)))
		if hiIncl {
			hiKey += "\xff"
		}
	}

	var out []KeyRange
	nullLo := string(prefix) + string([]byte{value.OrderedRankNull})
	switch {
	case includeNull && lo == nil:
		// No lower bound: one contiguous interval from the null encoding up.
		out = append(out, KeyRange{Lo: nullLo, Hi: hiKey})
	case includeNull:
		// A lower bound splits null off into its own point interval.
		out = append(out, KeyRange{Lo: nullLo, Hi: string(prefix) + string([]byte{value.OrderedRankNull + 1})})
		out = append(out, KeyRange{Lo: loKey, Hi: hiKey})
	default:
		out = append(out, KeyRange{Lo: loKey, Hi: hiKey})
	}
	if includeNaN && rank == value.OrderedRankNumber {
		// Negative NaNs encode below -Inf: a lower bound cut that zone off.
		if lo != nil {
			negInf := value.Float(math.Inf(-1))
			out = append(out, KeyRange{
				Lo: string(prefix) + string([]byte{rank}),
				Hi: string(negInf.AppendOrderedKey(append([]byte(nil), prefix...))),
			})
		}
		// Positive NaNs encode above +Inf: an upper bound cut that zone off.
		if hi != nil {
			posInf := value.Float(math.Inf(1))
			out = append(out, KeyRange{
				Lo: string(posInf.AppendOrderedKey(append([]byte(nil), prefix...))) + "\xff",
				Hi: string(prefix) + string([]byte{rank + 0x10}),
			})
		}
	}
	kept := out[:0]
	for _, kr := range out {
		if !kr.Empty() {
			kept = append(kept, kr)
		}
	}
	return kept
}

// Ordered is an immutable secondary ordered index over a list of column
// positions of one relation instance: ordered key encodings
// (relation.Tuple.OrderedKeyOn over the index columns, whose order is
// significant) to the tuples carrying them. The tuples live in a
// copy-on-write B+tree keyed by the ordered encoding, so a range probe is a
// scan of adjacent entries and Apply copies only the nodes a delta touches.
type Ordered struct {
	cols []int
	t    tree
}

// appendKey appends t's tree key: the ordered encoding of its index columns.
func (x *Ordered) appendKey(buf []byte, t relation.Tuple) []byte {
	return t.AppendOrderedKeyOn(buf[:0], x.cols)
}

// BuildOrdered constructs an ordered index over the relation's current
// tuples, bottom-up from entries grouped by key and sorted; O(n log n).
// cols must be valid positions in the relation's schema; their order is the
// index's sort order.
func BuildOrdered(r *relation.Relation, cols []int) *Ordered {
	return buildOrdered(gather(r), cols)
}

func buildOrdered(in rows, cols []int) *Ordered {
	x := &Ordered{cols: append([]int(nil), cols...)}
	// Group the tuples by key, one key string per group, then lay the
	// groups out in key order and sort each group by tuple key.
	group := make(map[string]int)
	var gkeys []string
	gid := make([]int, len(in.tups))
	var buf []byte
	for i, t := range in.tups {
		buf = x.appendKey(buf, t)
		g, ok := group[string(buf)]
		if !ok {
			g = len(gkeys)
			gkeys = append(gkeys, string(buf))
			group[gkeys[g]] = g
		}
		gid[i] = g
	}
	byKey := make([]int, len(gkeys))
	for i := range byKey {
		byKey[i] = i
	}
	sort.Slice(byKey, func(i, j int) bool { return gkeys[byKey[i]] < gkeys[byKey[j]] })
	off := make([]int, len(gkeys)) // next position of each group's entries
	for _, g := range gid {
		off[g]++
	}
	pos := 0
	for _, g := range byKey {
		pos, off[g] = pos+off[g], pos
	}
	perm := make([]int32, len(gid))
	keyOf := make([]string, len(gid))
	for i, g := range gid {
		perm[off[g]] = int32(i)
		off[g]++
		keyOf[i] = gkeys[g]
	}
	x.t = buildSorted(in, keyOf, perm, func(a, b string) bool { return a == b })
	return x
}

// Cols returns the indexed column positions in sort-order significance.
// Callers must not mutate the returned slice.
func (x *Ordered) Cols() []int { return x.cols }

// Len returns the number of indexed tuples.
func (x *Ordered) Len() int { return x.t.size }

// Range returns the tuples whose ordered key falls in [lo, hi). The returned
// slice may be shared with the index; callers must not mutate its elements
// or the tuples, though appending to it never changes the index. Output
// order is unspecified (candidates are re-verified and set-inserted by every
// caller).
func (x *Ordered) Range(kr KeyRange) []relation.Tuple {
	return x.t.scan(kr.Lo, kr.Hi)
}

// Apply derives the successor ordered index after a committed net delta:
// ins holds tuples absent from the indexed instance, del tuples present in
// it (the net-differential invariant the transaction overlay maintains).
// Either may be nil or empty. The receiver is unchanged; the derivation
// copies only the tree nodes on the paths of the delta's entries,
// O(delta log n).
func (x *Ordered) Apply(ins, del *relation.Relation) *Ordered {
	t, changed := x.t.apply(ins, del, x.appendKey)
	if !changed {
		return x
	}
	return &Ordered{cols: x.cols, t: t}
}
