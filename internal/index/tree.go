package index

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Node capacity. Every node except the root holds between minEntries and
// maxEntries entries; bulk builds fill nodes to about buildFill, leaving room
// for inserts before the first split.
const (
	maxEntries = 64
	minEntries = maxEntries / 2
	buildFill  = maxEntries * 3 / 4
)

// edit is an ownership token. The nodes one Apply creates or copies carry
// that Apply's token, so later steps of the same Apply change them in place
// instead of copying them again. A token is never reused once its Apply
// returns, so every node reachable from a published tree is frozen.
//
// The struct must not be zero-sized: distinct zero-size allocations may
// share an address, which would collapse distinct tokens.
type edit struct{ _ byte }

// node is one node of an immutable B+tree whose entries are ordered by
// (key, canonical tuple key). A leaf holds its entries in parallel slices; an
// inner node holds its children, and (keys[i], tks[i]) is the minimum entry
// of the subtree kids[i].
type node struct {
	edit *edit
	leaf bool
	keys []string
	tks  []string
	tups []relation.Tuple // leaf payload
	kids []*node          // inner payload
}

// tree is a B+tree root plus its entry count. The zero value is empty.
type tree struct {
	root *node
	size int
}

// keyFunc appends the tree key of t to buf.
type keyFunc func(buf []byte, t relation.Tuple) []byte

func cmpEntry(k1, t1, k2, t2 string) int {
	if c := strings.Compare(k1, k2); c != 0 {
		return c
	}
	return strings.Compare(t1, t2)
}

// search returns the position of the first entry not below (key, tk) and
// whether that entry equals it.
func (n *node) search(key, tk string) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cmpEntry(n.keys[m], n.tks[m], key, tk) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == key && n.tks[lo] == tk
}

// child returns the position of the child whose subtree holds (key, tk).
func (n *node) child(key, tk string) int {
	i, found := n.search(key, tk)
	if !found && i > 0 {
		i--
	}
	return i
}

// own returns n when the current Apply already owns it, else a copy that it
// owns. A copy never shares backing arrays with the frozen original.
func (n *node) own(ed *edit) *node {
	if n.edit == ed {
		return n
	}
	c := &node{edit: ed, leaf: n.leaf, keys: grow(n.keys), tks: grow(n.tks)}
	if n.leaf {
		c.tups = grow(n.tups)
	} else {
		c.kids = grow(n.kids)
	}
	return c
}

// grow copies s with room for one more element, the common next step.
func grow[T any](s []T) []T { return append(make([]T, 0, len(s)+1), s...) }

// spliceIn inserts src's entries [from, to) at position i of n.
func (n *node) spliceIn(i int, src *node, from, to int) {
	n.keys = slices.Insert(n.keys, i, src.keys[from:to]...)
	n.tks = slices.Insert(n.tks, i, src.tks[from:to]...)
	if n.leaf {
		n.tups = slices.Insert(n.tups, i, src.tups[from:to]...)
	} else {
		n.kids = slices.Insert(n.kids, i, src.kids[from:to]...)
	}
}

// cut removes n's entries [from, to).
func (n *node) cut(from, to int) {
	n.keys = slices.Delete(n.keys, from, to)
	n.tks = slices.Delete(n.tks, from, to)
	if n.leaf {
		n.tups = slices.Delete(n.tups, from, to)
	} else {
		n.kids = slices.Delete(n.kids, from, to)
	}
}

// setMin refreshes the separator of child i from the child's first entry.
func (n *node) setMin(i int) {
	c := n.kids[i]
	n.keys[i], n.tks[i] = c.keys[0], c.tks[0]
}

// insert adds the entry below n, which the caller then links in place of n.
// It returns a new right sibling when n overflowed and split, and false when
// the entry was already present (n is then returned unchanged).
func (n *node) insert(ed *edit, key, tk string, t relation.Tuple) (*node, *node, bool) {
	if n.leaf {
		i, found := n.search(key, tk)
		if found {
			return n, nil, false
		}
		// Share one key string between neighbours with equal keys.
		if i > 0 && n.keys[i-1] == key {
			key = n.keys[i-1]
		} else if i < len(n.keys) && n.keys[i] == key {
			key = n.keys[i]
		}
		n = n.own(ed)
		n.keys = slices.Insert(n.keys, i, key)
		n.tks = slices.Insert(n.tks, i, tk)
		n.tups = slices.Insert(n.tups, i, t)
	} else {
		i := n.child(key, tk)
		c, right, added := n.kids[i].insert(ed, key, tk, t)
		if !added {
			return n, nil, false
		}
		n = n.own(ed)
		n.kids[i] = c
		n.setMin(i)
		if right != nil {
			n.keys = slices.Insert(n.keys, i+1, right.keys[0])
			n.tks = slices.Insert(n.tks, i+1, right.tks[0])
			n.kids = slices.Insert(n.kids, i+1, right)
		}
	}
	if len(n.keys) <= maxEntries {
		return n, nil, true
	}
	mid := len(n.keys) / 2
	right := &node{edit: ed, leaf: n.leaf}
	right.spliceIn(0, n, mid, len(n.keys))
	n.cut(mid, len(n.keys))
	return n, right, true
}

// remove deletes the entry below n, which the caller then links in place of
// n, and reports whether it was present. The result may hold fewer than
// minEntries entries; the parent rebalances it.
func (n *node) remove(ed *edit, key, tk string) (*node, bool) {
	if n.leaf {
		i, found := n.search(key, tk)
		if !found {
			return n, false
		}
		n = n.own(ed)
		n.cut(i, i+1)
		return n, true
	}
	i := n.child(key, tk)
	c, ok := n.kids[i].remove(ed, key, tk)
	if !ok {
		return n, false
	}
	n = n.own(ed)
	n.kids[i] = c
	if len(c.keys) > 0 {
		n.setMin(i)
	}
	if len(c.keys) < minEntries {
		n.rebalance(ed, i)
	}
	return n, true
}

// rebalance repairs the underflowed child i by merging it with a neighbour
// when both fit in one node, or else by sharing their entries evenly.
func (n *node) rebalance(ed *edit, i int) {
	if len(n.kids) < 2 {
		return // a root with one child; the tree collapses it
	}
	l := max(i-1, 0)
	a, b := n.kids[l].own(ed), n.kids[l+1].own(ed)
	n.kids[l], n.kids[l+1] = a, b
	total := len(a.keys) + len(b.keys)
	if total <= maxEntries {
		a.spliceIn(len(a.keys), b, 0, len(b.keys))
		n.cut(l+1, l+2)
		n.setMin(l)
		return
	}
	if half := total / 2; len(a.keys) < half {
		m := half - len(a.keys)
		a.spliceIn(len(a.keys), b, 0, m)
		b.cut(0, m)
	} else {
		b.spliceIn(0, a, half, len(a.keys))
		a.cut(half, len(a.keys))
	}
	n.setMin(l)
	n.setMin(l + 1)
}

// scan appends the tuples of the entries whose key lies in [lo, hi) to out,
// in entry order. When out is nil and the entries lie in one leaf, the
// result is that leaf's sub-slice, capped so that appending to it copies.
func (n *node) scan(lo, hi string, out []relation.Tuple) []relation.Tuple {
	if n.leaf {
		i := sort.SearchStrings(n.keys, lo)
		j := i + sort.SearchStrings(n.keys[i:], hi)
		if i == j {
			return out
		}
		if out == nil {
			return n.tups[i:j:j]
		}
		return append(out, n.tups[i:j]...)
	}
	// The last child whose minimum key lies below lo may still hold keys
	// at or above it; later children qualify while their minimum is below hi.
	start := max(sort.SearchStrings(n.keys, lo)-1, 0)
	for i := start; i < len(n.kids) && (i == start || n.keys[i] < hi); i++ {
		out = n.kids[i].scan(lo, hi, out)
	}
	return out
}

// scan returns the tuples whose tree key lies in [lo, hi).
func (tr tree) scan(lo, hi string) []relation.Tuple {
	if tr.root == nil || lo >= hi {
		return nil
	}
	return tr.root.scan(lo, hi, nil)
}

func (tr tree) insert(ed *edit, key, tk string, t relation.Tuple) tree {
	if tr.root == nil {
		tr.root = &node{edit: ed, leaf: true}
	}
	n, right, added := tr.root.insert(ed, key, tk, t)
	if right != nil {
		n = &node{edit: ed, keys: []string{n.keys[0], right.keys[0]},
			tks: []string{n.tks[0], right.tks[0]}, kids: []*node{n, right}}
	}
	tr.root = n
	if added {
		tr.size++
	}
	return tr
}

func (tr tree) remove(ed *edit, key, tk string) tree {
	if tr.root == nil {
		return tr
	}
	n, ok := tr.root.remove(ed, key, tk)
	if !ok {
		return tr
	}
	for !n.leaf && len(n.kids) == 1 {
		n = n.kids[0]
	}
	if len(n.keys) == 0 {
		n = nil
	}
	tr.root, tr.size = n, tr.size-1
	return tr
}

// apply derives the successor tree after a committed net delta: del's
// entries are removed, then ins's added, copying only the nodes on their
// paths. It reports false, with the receiver, when the delta is empty.
func (tr tree) apply(ins, del *relation.Relation, key keyFunc) (tree, bool) {
	if (ins == nil || ins.IsEmpty()) && (del == nil || del.IsEmpty()) {
		return tr, false
	}
	ed := &edit{}
	var buf []byte
	if del != nil {
		_ = del.ForEachKey(func(tk string, t relation.Tuple) error {
			buf = key(buf[:0], t)
			tr = tr.remove(ed, string(buf), tk)
			return nil
		})
	}
	if ins != nil {
		_ = ins.ForEachKey(func(tk string, t relation.Tuple) error {
			buf = key(buf[:0], t)
			tr = tr.insert(ed, string(buf), tk, t)
			return nil
		})
	}
	return tr, true
}

// rows lists a relation's tuples with their canonical keys, the input of
// bulk builds; Set.Rebuild walks the relation once for all its indexes.
type rows struct {
	tks  []string
	tups []relation.Tuple
}

func gather(r *relation.Relation) rows {
	in := rows{tks: make([]string, 0, r.Len()), tups: make([]relation.Tuple, 0, r.Len())}
	_ = r.ForEachKey(func(tk string, t relation.Tuple) error {
		in.tks = append(in.tks, tk)
		in.tups = append(in.tups, t)
		return nil
	})
	return in
}

// buildSorted builds the tree over in's tuples taken in the order perm,
// with keyOf giving each tuple's tree key. perm must be in (key, tk) order
// except within runs of adjacent entries whose keys same reports equal,
// which buildSorted sorts first.
func buildSorted(in rows, keyOf []string, perm []int32, same func(a, b string) bool) tree {
	// Runs sort pointer-free (prefix, position) pairs: in a run of equal
	// keys the first 8 bytes of the tuple key, zero-padded and big-endian,
	// order most pairs without touching the strings.
	type pos struct {
		pfx uint64
		p   int32
	}
	var ps []pos
	for i := 0; i < len(perm); {
		j := i + 1
		for j < len(perm) && same(keyOf[perm[i]], keyOf[perm[j]]) {
			j++
		}
		if j-i > 1 {
			sameKey := true
			for _, p := range perm[i+1 : j] {
				if keyOf[p] != keyOf[perm[i]] {
					sameKey = false
					break
				}
			}
			ps = ps[:0]
			for _, p := range perm[i:j] {
				var b [8]byte
				if sameKey {
					copy(b[:], in.tks[p])
				}
				ps = append(ps, pos{binary.BigEndian.Uint64(b[:]), p})
			}
			slices.SortFunc(ps, func(a, b pos) int {
				if a.pfx != b.pfx {
					return cmp.Compare(a.pfx, b.pfx)
				}
				return cmpEntry(keyOf[a.p], in.tks[a.p], keyOf[b.p], in.tks[b.p])
			})
			for k, q := range ps {
				perm[i+k] = q.p
			}
		}
		i = j
	}
	if len(perm) == 0 {
		return tree{}
	}
	var level []*node
	for _, r := range chunks(len(perm)) {
		m := r[1] - r[0]
		n := &node{leaf: true, keys: make([]string, m), tks: make([]string, m), tups: make([]relation.Tuple, m)}
		for k, p := range perm[r[0]:r[1]] {
			n.keys[k], n.tks[k], n.tups[k] = keyOf[p], in.tks[p], in.tups[p]
		}
		level = append(level, n)
	}
	for len(level) > 1 {
		var next []*node
		for _, r := range chunks(len(level)) {
			p := &node{kids: slices.Clone(level[r[0]:r[1]])}
			for _, c := range p.kids {
				p.keys = append(p.keys, c.keys[0])
				p.tks = append(p.tks, c.tks[0])
			}
			next = append(next, p)
		}
		level = next
	}
	return tree{root: level[0], size: len(perm)}
}

// chunks splits n entries into consecutive runs of about buildFill each.
// With more than one run, every run holds between minEntries and
// maxEntries entries.
func chunks(n int) [][2]int {
	k := (n + buildFill - 1) / buildFill
	if n <= maxEntries {
		k = 1
	}
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}
