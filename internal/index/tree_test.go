package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// checkTree verifies the B+tree invariants: parallel slices agree, entries
// are strictly ascending by (key, tuple key) across the leaves, every entry's
// key and tuple key derive from its tuple, each separator equals its child's
// minimum entry, all leaves sit at one depth, every node but the root holds
// between minEntries and maxEntries entries, the entry count matches size,
// and the height is at most ⌈log_minEntries n⌉ + 1.
func checkTree(t testing.TB, tr tree, key keyFunc) {
	t.Helper()
	if tr.root == nil {
		if tr.size != 0 {
			t.Fatalf("empty tree with size %d", tr.size)
		}
		return
	}
	var prevK, prevT string
	count, leafDepth := 0, 0
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		t.Helper()
		if len(n.tks) != len(n.keys) || n.leaf != (n.kids == nil) ||
			(n.leaf && len(n.tups) != len(n.keys)) || (!n.leaf && (len(n.kids) != len(n.keys) || n.tups != nil)) {
			t.Fatalf("depth %d: node slices disagree: %d keys, %d tks, %d tups, %d kids, leaf=%v",
				depth, len(n.keys), len(n.tks), len(n.tups), len(n.kids), n.leaf)
		}
		lo := minEntries
		if n == tr.root {
			lo = 1
			if !n.leaf {
				lo = 2
			}
		}
		if len(n.keys) < lo || len(n.keys) > maxEntries {
			t.Fatalf("depth %d: node holds %d entries, want %d..%d", depth, len(n.keys), lo, maxEntries)
		}
		if n.leaf {
			if leafDepth == 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			var buf []byte
			for i, k := range n.keys {
				if count > 0 && cmpEntry(prevK, prevT, k, n.tks[i]) >= 0 {
					t.Fatalf("entry %d out of order: (%x, %x) after (%x, %x)", count, k, n.tks[i], prevK, prevT)
				}
				if n.tups[i].Key() != n.tks[i] {
					t.Fatalf("entry %d: tuple key %x, stored %x", count, n.tups[i].Key(), n.tks[i])
				}
				if buf = key(buf, n.tups[i]); string(buf) != k {
					t.Fatalf("entry %d: tree key %x, stored %x", count, buf, k)
				}
				prevK, prevT = k, n.tks[i]
				count++
			}
			return
		}
		for i, c := range n.kids {
			walk(c, depth+1)
			m := c
			for !m.leaf {
				m = m.kids[0]
			}
			if n.keys[i] != m.keys[0] || n.tks[i] != m.tks[0] {
				t.Fatalf("depth %d: separator %d is (%x, %x), child minimum (%x, %x)",
					depth, i, n.keys[i], n.tks[i], m.keys[0], m.tks[0])
			}
		}
	}
	walk(tr.root, 1)
	if count != tr.size {
		t.Fatalf("tree holds %d entries, size says %d", count, tr.size)
	}
	bound := 1 // ⌈log_minEntries n⌉ + 1
	for c := 1; c < count; c *= minEntries {
		bound++
	}
	if leafDepth > bound {
		t.Fatalf("height %d exceeds %d for %d entries", leafDepth, bound, count)
	}
}

// churnModel is the map model of one derivation: canonical tuple key to
// tuple, plus insertion order for oldest-first deletes.
type churnModel struct {
	tuples map[string]relation.Tuple
	order  []relation.Tuple
}

func (m *churnModel) clone() *churnModel {
	c := &churnModel{tuples: make(map[string]relation.Tuple, len(m.tuples)), order: append([]relation.Tuple(nil), m.order...)}
	for k, v := range m.tuples {
		c.tuples[k] = v
	}
	return c
}

// churnGen is one derivation: a hash index on parent and an ordered index on
// (qty, id), both over child tuples, with its own model.
type churnGen struct {
	h *Index
	o *Ordered
	m *churnModel
}

// verifyChurn checks both indexes against the model: tree invariants, every
// parent probe (including absent ones), and qty intervals over the ordered
// index. It also appends to every returned slice, which must not disturb a
// repeated probe.
func verifyChurn(t testing.TB, g *churnGen, parents, qtys int) {
	t.Helper()
	checkTree(t, g.h.t, g.h.appendKey)
	checkTree(t, g.o.t, g.o.appendKey)
	if g.h.Len() != len(g.m.tuples) || g.o.Len() != len(g.m.tuples) {
		t.Fatalf("Len = %d/%d, model has %d", g.h.Len(), g.o.Len(), len(g.m.tuples))
	}
	keysOf := func(ts []relation.Tuple) []string {
		ks := make([]string, len(ts))
		for i, tu := range ts {
			ks[i] = tu.Key()
		}
		sort.Strings(ks)
		return ks
	}
	want := func(f func(relation.Tuple) bool) []string {
		var ts []relation.Tuple
		for _, tu := range g.m.tuples {
			if f(tu) {
				ts = append(ts, tu)
			}
		}
		return keysOf(ts)
	}
	junk := relation.Tuple{value.Int(-1), value.Int(-1), value.Int(-1)}
	for p := 0; p <= parents; p++ {
		key := KeyVals([]value.Value{value.Int(int64(p))})
		w := want(func(tu relation.Tuple) bool { return tu[1].AsInt() == int64(p) })
		got := g.h.Probe(key)
		if !slices.Equal(keysOf(got), w) {
			t.Fatalf("Probe(parent=%d) = %x, model %x", p, keysOf(got), w)
		}
		_ = append(got, junk)
		if !slices.Equal(keysOf(g.h.Probe(key)), w) {
			t.Fatalf("Probe(parent=%d) changed after appending to a returned slice", p)
		}
	}
	for lo := 0; lo <= qtys; lo++ {
		hi := lo + 1 + lo%3
		l, h := value.Int(int64(lo)), value.Int(int64(hi))
		for _, kr := range RangesFor(nil, value.KindInt, &l, &h, true, false, false, false) {
			w := want(func(tu relation.Tuple) bool { return kr.Contains(tu.OrderedKeyOn(g.o.cols)) })
			got := g.o.Range(kr)
			if !slices.Equal(keysOf(got), w) {
				t.Fatalf("Range(qty in [%d,%d)) = %x, model %x", lo, hi, keysOf(got), w)
			}
			_ = append(got, junk)
			if !slices.Equal(keysOf(g.o.Range(kr)), w) {
				t.Fatalf("Range(qty in [%d,%d)) changed after appending to a returned slice", lo, hi)
			}
		}
	}
}

// churnStep applies one random net delta to g and returns the successor
// derivation: fresh inserts, deletes of random or of the oldest tuples, and
// replacements (delete plus insert of the same id with new values).
func churnStep(rng *rand.Rand, g *churnGen, nextID *int64, parents, qtys int) *churnGen {
	s := childSchema()
	ins, del := relation.New(s), relation.New(s)
	m := g.m.clone()
	fresh := func(id int64) relation.Tuple {
		return row(id, int64(rng.Intn(parents)), int64(rng.Intn(qtys)))
	}
	switch rng.Intn(4) {
	case 0: // inserts
		for i := rng.Intn(8) + 1; i > 0; i-- {
			ins.InsertUnchecked(fresh(*nextID))
			*nextID++
		}
	case 1: // oldest-first deletes
		for i := rng.Intn(8) + 1; i > 0 && len(m.order) > 0; i-- {
			del.InsertUnchecked(m.order[0])
			m.order = m.order[1:]
		}
	case 2: // random deletes
		for i := rng.Intn(4) + 1; i > 0 && len(m.order) > 0; i-- {
			j := rng.Intn(len(m.order))
			del.InsertUnchecked(m.order[j])
			m.order = append(m.order[:j:j], m.order[j+1:]...)
		}
	case 3: // replacements
		for i := rng.Intn(4) + 1; i > 0 && len(m.order) > 0; i-- {
			j := rng.Intn(len(m.order))
			old := m.order[j]
			m.order = append(m.order[:j:j], m.order[j+1:]...)
			nu := fresh(old[0].AsInt())
			if nu.Equal(old) {
				m.order = append(m.order, old)
				continue
			}
			del.InsertUnchecked(old)
			ins.InsertUnchecked(nu)
		}
	}
	_ = del.ForEachKey(func(k string, _ relation.Tuple) error {
		delete(m.tuples, k)
		return nil
	})
	_ = ins.ForEachKey(func(k string, tu relation.Tuple) error {
		m.tuples[k] = tu
		m.order = append(m.order, tu)
		return nil
	})
	return &churnGen{h: g.h.Apply(ins, del), o: g.o.Apply(ins, del), m: m}
}

// TestTreeChurnAgainstModel drives random insert/delete/replace deltas over
// low-cardinality columns, whose duplicates span many leaves, against a map
// model. Two derivations grow from one base, each checked against its own
// model, and the base is re-checked at the end: a frozen node mutated by
// either derivation would show up in the other or in the base.
func TestTreeChurnAgainstModel(t *testing.T) {
	const parents, qtys = 3, 5
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := relation.New(childSchema())
			m := &churnModel{tuples: map[string]relation.Tuple{}}
			var nextID int64
			for ; nextID < 1500; nextID++ {
				tu := row(nextID, int64(rng.Intn(parents)), int64(rng.Intn(qtys)))
				r.InsertUnchecked(tu)
				m.tuples[tu.Key()] = tu
				m.order = append(m.order, tu)
			}
			base := &churnGen{h: Build(r, []int{1}), o: BuildOrdered(r, []int{2, 0}), m: m}
			verifyChurn(t, base, parents, qtys)
			a, b := base, base
			for step := 0; step < 300; step++ {
				a = churnStep(rng, a, &nextID, parents, qtys)
				b = churnStep(rng, b, &nextID, parents, qtys)
				if step%50 == 0 {
					verifyChurn(t, a, parents, qtys)
					verifyChurn(t, b, parents, qtys)
				}
			}
			// Drain one derivation oldest-first to empty: merges all the way
			// up, until the root collapses.
			for len(a.m.order) > 0 {
				del := relation.New(childSchema())
				for i := 0; i < 40 && len(a.m.order) > 0; i++ {
					del.InsertUnchecked(a.m.order[0])
					delete(a.m.tuples, a.m.order[0].Key())
					a.m.order = a.m.order[1:]
				}
				a = &churnGen{h: a.h.Apply(nil, del), o: a.o.Apply(nil, del), m: a.m}
				checkTree(t, a.h.t, a.h.appendKey)
				checkTree(t, a.o.t, a.o.appendKey)
			}
			verifyChurn(t, a, parents, qtys)
			verifyChurn(t, b, parents, qtys)
			verifyChurn(t, base, parents, qtys)
		})
	}
}

// FuzzIndexApply interprets the input as a sequence of commits over a small
// tuple domain — each byte inserts or deletes one tuple, and a zero byte ends
// a commit — and checks both index kinds against a map model after every
// commit.
func FuzzIndexApply(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 129, 4, 0, 130, 131, 0})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 0, 138, 148, 158, 0, 10, 138})
	seq := make([]byte, 0, 400)
	for i := 1; i < 128; i++ { // fill, then drain oldest-first
		seq = append(seq, byte(i))
	}
	seq = append(seq, 0)
	for i := 1; i < 128; i++ {
		seq = append(seq, byte(i)|0x80)
		if i%16 == 0 {
			seq = append(seq, 0)
		}
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		const parents, qtys = 3, 5
		// Tuple i of the domain: id i, parent and qty fixed by i.
		tup := func(i byte) relation.Tuple { return row(int64(i), int64(i%parents), int64(i/7%qtys)) }
		r := relation.New(childSchema())
		m := &churnModel{tuples: map[string]relation.Tuple{}}
		for i := byte(1); i < 40; i += 3 {
			r.InsertUnchecked(tup(i))
			m.tuples[tup(i).Key()] = tup(i)
		}
		g := &churnGen{h: Build(r, []int{1}), o: BuildOrdered(r, []int{2, 0}), m: m}
		ins, del := relation.New(childSchema()), relation.New(childSchema())
		commit := func() {
			_ = del.ForEachKey(func(k string, _ relation.Tuple) error {
				delete(g.m.tuples, k)
				return nil
			})
			_ = ins.ForEachKey(func(k string, tu relation.Tuple) error {
				g.m.tuples[k] = tu
				return nil
			})
			g = &churnGen{h: g.h.Apply(ins, del), o: g.o.Apply(ins, del), m: g.m}
			verifyChurn(t, g, parents, qtys)
			ins, del = relation.New(childSchema()), relation.New(childSchema())
		}
		for _, op := range ops {
			if op == 0 {
				commit()
				continue
			}
			// Keep the delta net: insert only absent tuples, delete only
			// present ones, and never both in one commit.
			tu := tup(op & 0x7f)
			_, present := g.m.tuples[tu.Key()]
			switch {
			case op&0x80 == 0 && !present && !del.Contains(tu):
				ins.InsertUnchecked(tu)
			case op&0x80 != 0 && present && !ins.Contains(tu):
				del.InsertUnchecked(tu)
			}
		}
		commit()
	})
}

// TestApplyAllocationProportionalToDelta pins that deriving an index after a
// one-tuple commit allocates in proportion to the delta and the tree height,
// not the index size: the bytes for a 100k-entry index stay within a small
// factor of those for a 1k-entry one, for hash and ordered indexes over a
// unique column and over a 5-distinct-value column. An O(n) copy would cost
// about 100 times more.
func TestApplyAllocationProportionalToDelta(t *testing.T) {
	s := childSchema()
	build := func(n int) *relation.Relation {
		r := relation.New(s)
		for i := 0; i < n; i++ {
			r.InsertUnchecked(row(int64(i), int64(i%5), int64(i)))
		}
		return r.Seal()
	}
	small, large := build(1000), build(100_000)
	type applier func(r *relation.Relation) func(ins, del *relation.Relation)
	hash := func(cols []int) applier {
		return func(r *relation.Relation) func(ins, del *relation.Relation) {
			x := Build(r, cols)
			return func(ins, del *relation.Relation) { sinkIndex = x.Apply(ins, del) }
		}
	}
	ordered := func(cols []int) applier {
		return func(r *relation.Relation) func(ins, del *relation.Relation) {
			x := BuildOrdered(r, cols)
			return func(ins, del *relation.Relation) { sinkOrdered = x.Apply(ins, del) }
		}
	}
	cases := []struct {
		name string
		mk   applier
	}{
		{"hash/unique", hash([]int{0})},
		{"hash/5-distinct", hash([]int{1})},
		{"ordered/unique", ordered([]int{2})},
		{"ordered/5-distinct", ordered([]int{1})},
	}
	// Bytes and allocations per Apply of a one-tuple insert and of a
	// one-tuple delete of an entry in the middle of the index.
	cost := func(apply func(ins, del *relation.Relation), r *relation.Relation) (float64, float64) {
		ins := relation.MustFromTuples(s, row(-1, 2, 500))
		del := relation.MustFromTuples(s, row(500, 0, 500))
		const runs = 200
		allocs := testing.AllocsPerRun(runs, func() { apply(ins, nil); apply(nil, del) })
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			apply(ins, nil)
			apply(nil, del)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, allocs
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sb, sa := cost(c.mk(small), small)
			lb, la := cost(c.mk(large), large)
			t.Logf("1k: %.0f B, %.0f allocs; 100k: %.0f B, %.0f allocs", sb, sa, lb, la)
			if lb > 3*sb {
				t.Errorf("100k-entry Apply allocates %.0f B, over 3x the 1k-entry %.0f B", lb, sb)
			}
			if la > 3*sa {
				t.Errorf("100k-entry Apply makes %.0f allocations, over 3x the 1k-entry %.0f", la, sa)
			}
		})
	}
}

var (
	sinkIndex   *Index
	sinkOrdered *Ordered
)
