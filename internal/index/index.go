package index

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/value"
)

// Sig returns the canonical signature of an index column set, e.g. "0,2".
// Column order is part of the signature; DefineIndex canonicalizes to
// ascending order, so equal column sets always share one signature.
func Sig(cols []int) string {
	var sb strings.Builder
	for i, c := range cols {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// KeyVals encodes probe values (parallel to an index's column list) into the
// probe-key encoding of relation.Tuple.KeyOn.
func KeyVals(vals []value.Value) string {
	buf := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		buf = v.AppendKey(buf)
	}
	return string(buf)
}

// hashSeed seeds the probe-key hash of every hash index in the process.
// Hash indexes are never persisted, so the seed need not be stable.
var hashSeed = maphash.MakeSeed()

// Index is an immutable secondary hash index over a set of column positions
// of one relation instance: probe key (KeyOn the index columns) to the
// tuples carrying it. Immutability is what lets a database snapshot publish
// its indexes to any number of concurrent readers without locking.
//
// The tuples live in a copy-on-write B+tree keyed by the 8-byte big-endian
// hash of the probe key followed by the probe key itself, so one probe is a
// scan of adjacent entries and Apply copies only the nodes a delta touches.
type Index struct {
	cols []int
	t    tree
}

// appendKey appends t's tree key: the probe-key hash, then the probe key.
func (x *Index) appendKey(buf []byte, t relation.Tuple) []byte {
	return hashKey(t.AppendKeyOn(append(buf[:0], make([]byte, 8)...), x.cols))
}

// hashKey fills the 8 bytes reserved at the start of buf with the
// big-endian hash of the probe key that follows them.
func hashKey(buf []byte) []byte {
	binary.BigEndian.PutUint64(buf, maphash.Bytes(hashSeed, buf[8:]))
	return buf
}

// Build constructs an index over the relation's current tuples, bottom-up
// from entries radix-sorted by probe-key hash; O(n) apart from ordering the
// tuples that share a probe key. cols must be valid positions in the
// relation's schema.
func Build(r *relation.Relation, cols []int) *Index { return buildHash(gather(r), cols) }

func buildHash(in rows, cols []int) *Index {
	x := &Index{cols: append([]int(nil), cols...)}
	n := len(in.tks)
	// One pass encodes every probe key into a pointer-free arena (tuple
	// i's spans bounds[i]:bounds[i+1]) and pairs its hash with its
	// position: the hash in the high 32 bits, the position in the low 32.
	// Sorting these pairs costs the collector nothing, and no key is
	// encoded twice.
	order := make([]uint64, n)
	bounds := make([]int, n+1)
	arena := make([]byte, 0, 16*len(cols)*n)
	for i, t := range in.tups {
		arena = t.AppendKeyOn(arena, cols)
		bounds[i+1] = len(arena)
		order[i] = maphash.Bytes(hashSeed, arena[bounds[i]:])>>32<<32 | uint64(i)
	}
	radixSortHigh32(order)
	perm := make([]int32, n)
	keyOf := make([]string, n)
	var buf []byte
	for i, o := range order {
		p := int32(uint32(o))
		perm[i] = p
		buf = hashKey(append(append(buf[:0], make([]byte, 8)...), arena[bounds[p]:bounds[p+1]]...))
		if i > 0 && keyOf[perm[i-1]] == string(buf) {
			keyOf[p] = keyOf[perm[i-1]]
		} else {
			keyOf[p] = string(buf)
		}
	}
	// The radix pass orders entries whose hashes share their high 32 bits
	// only by position.
	x.t = buildSorted(in, keyOf, perm, func(a, b string) bool { return a[:4] == b[:4] })
	return x
}

// radixSortHigh32 sorts a by its high 32 bits, stably, in four byte passes.
func radixSortHigh32(a []uint64) {
	src, dst := a, make([]uint64, len(a))
	for shift := 32; shift < 64; shift += 8 {
		var count [256]int
		for _, v := range src {
			count[byte(v>>shift)]++
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, v := range src {
			b := byte(v >> shift)
			dst[count[b]] = v
			count[b]++
		}
		src, dst = dst, src
	}
}

// Cols returns the indexed column positions. Callers must not mutate the
// returned slice.
func (x *Index) Cols() []int { return x.cols }

// Len returns the number of indexed tuples.
func (x *Index) Len() int { return x.t.size }

// Probe returns the tuples whose index columns encode to key. The returned
// slice may be shared with the index; callers must not mutate its elements
// or the tuples, though appending to it never changes the index.
func (x *Index) Probe(key string) []relation.Tuple {
	// One allocation holds the tree key and, with a trailing 0x00, the
	// string right after it in byte order: [key, key+0x00) holds exactly
	// the key.
	var sb strings.Builder
	sb.Grow(8 + len(key) + 1)
	var h [8]byte
	binary.BigEndian.PutUint64(h[:], maphash.String(hashSeed, key))
	sb.Write(h[:])
	sb.WriteString(key)
	sb.WriteByte(0)
	hi := sb.String()
	return x.t.scan(hi[:len(hi)-1], hi)
}

// ProbeTuples returns the tuples matching the projection of t onto the
// index columns — the membership probe the commit validator and tests use.
func (x *Index) ProbeTuples(t relation.Tuple) []relation.Tuple {
	return x.Probe(t.KeyOn(x.cols))
}

// Apply derives the successor index after a committed net delta: ins holds
// tuples absent from the indexed instance, del tuples present in it (the
// net-differential invariant the transaction overlay maintains). Either may
// be nil or empty. The receiver is unchanged; the derivation copies only the
// tree nodes on the paths of the delta's entries, O(delta log n).
func (x *Index) Apply(ins, del *relation.Relation) *Index {
	t, changed := x.t.apply(ins, del, x.appendKey)
	if !changed {
		return x
	}
	return &Index{cols: x.cols, t: t}
}

// Set is the immutable collection of indexes defined on one relation — hash
// indexes and ordered indexes in separate namespaces, each keyed by column
// signature (hash signatures are canonical ascending; ordered signatures
// keep declared order, which is the sort order). The zero-value pointer
// (nil) is a valid empty set.
type Set struct {
	by  map[string]*Index
	ord map[string]*Ordered
}

// NewSet builds a set from the given hash indexes.
func NewSet(indexes ...*Index) *Set {
	s := &Set{by: make(map[string]*Index, len(indexes))}
	for _, x := range indexes {
		s.by[Sig(x.cols)] = x
	}
	return s
}

// Len returns the number of indexes in the set, hash and ordered.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.by) + len(s.ord)
}

// Exact returns the index over exactly the given columns, or nil.
func (s *Set) Exact(cols []int) *Index {
	if s == nil {
		return nil
	}
	return s.by[Sig(cols)]
}

// Covering returns the widest index whose column set is a subset of cols,
// or nil when none is. Ties break on signature for determinism. A covering
// index yields a candidate superset that the caller filters with the
// remaining predicate — sound because the probe-key read it records is a
// superset of the dependency.
func (s *Set) Covering(cols []int) *Index {
	if s == nil {
		return nil
	}
	have := make(map[int]bool, len(cols))
	for _, c := range cols {
		have[c] = true
	}
	var best *Index
	bestSig := ""
	for sig, x := range s.by {
		ok := true
		for _, c := range x.cols {
			if !have[c] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if best == nil || len(x.cols) > len(best.cols) ||
			(len(x.cols) == len(best.cols) && sig < bestSig) {
			best, bestSig = x, sig
		}
	}
	return best
}

// All returns the indexes ordered by signature.
func (s *Set) All() []*Index {
	if s == nil {
		return nil
	}
	sigs := make([]string, 0, len(s.by))
	for sig := range s.by {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	out := make([]*Index, len(sigs))
	for i, sig := range sigs {
		out[i] = s.by[sig]
	}
	return out
}

// OrderedExact returns the ordered index over exactly the given column
// list (order-significant), or nil.
func (s *Set) OrderedExact(cols []int) *Ordered {
	if s == nil {
		return nil
	}
	return s.ord[Sig(cols)]
}

// OrderedAll returns the ordered indexes ordered by signature.
func (s *Set) OrderedAll() []*Ordered {
	if s == nil {
		return nil
	}
	sigs := make([]string, 0, len(s.ord))
	for sig := range s.ord {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	out := make([]*Ordered, len(sigs))
	for i, sig := range sigs {
		out[i] = s.ord[sig]
	}
	return out
}

// OrderedFor returns the ordered index usable for a range probe with
// equality bindings on the columns in eq and a bound on boundCol: its
// leading prefix columns must all carry equality bindings and its next
// column must be boundCol. It returns the index and the equality-prefix
// length, preferring the longest prefix (the narrowest interval) with
// signature order breaking ties, or nil when no ordered index qualifies.
func (s *Set) OrderedFor(eq map[int]bool, boundCol int) (*Ordered, int) {
	if s == nil {
		return nil, 0
	}
	var best *Ordered
	bestPrefix := -1
	bestSig := ""
	for sig, x := range s.ord {
		p := 0
		for p < len(x.cols) && eq[x.cols[p]] {
			p++
		}
		if p >= len(x.cols) || x.cols[p] != boundCol {
			continue
		}
		if p > bestPrefix || (p == bestPrefix && sig < bestSig) {
			best, bestPrefix, bestSig = x, p, sig
		}
	}
	if best == nil {
		return nil, 0
	}
	return best, bestPrefix
}

// clone returns a shallow copy of the set's maps with room for one more.
func (s *Set) clone() *Set {
	n := &Set{by: make(map[string]*Index, len(s.byMap())+1)}
	for sig, old := range s.byMap() {
		n.by[sig] = old
	}
	if s != nil && len(s.ord) > 0 {
		n.ord = make(map[string]*Ordered, len(s.ord)+1)
		for sig, old := range s.ord {
			n.ord[sig] = old
		}
	}
	return n
}

func (s *Set) byMap() map[string]*Index {
	if s == nil {
		return nil
	}
	return s.by
}

// With returns a new set with x added, replacing any hash index over the
// same columns. The receiver is unchanged; nil receivers are allowed.
func (s *Set) With(x *Index) *Set {
	n := s.clone()
	n.by[Sig(x.cols)] = x
	return n
}

// WithOrdered returns a new set with x added, replacing any ordered index
// over the same column list. The receiver is unchanged; nil receivers are
// allowed.
func (s *Set) WithOrdered(x *Ordered) *Set {
	n := s.clone()
	if n.ord == nil {
		n.ord = make(map[string]*Ordered, 1)
	}
	n.ord[Sig(x.cols)] = x
	return n
}

// Apply derives the successor set after a committed net delta, applying the
// delta to every index, hash and ordered; O(indexes × delta × log n).
func (s *Set) Apply(ins, del *relation.Relation) *Set {
	if s.Len() == 0 {
		return s
	}
	n := &Set{by: make(map[string]*Index, len(s.by))}
	for sig, x := range s.by {
		n.by[sig] = x.Apply(ins, del)
	}
	if len(s.ord) > 0 {
		n.ord = make(map[string]*Ordered, len(s.ord))
		for sig, x := range s.ord {
			n.ord[sig] = x.Apply(ins, del)
		}
	}
	return n
}

// Rebuild reconstructs every index in the set from the given relation
// instance — the fallback for bulk loads and commits recorded without
// tuple-level deltas, where incremental maintenance is impossible.
func (s *Set) Rebuild(r *relation.Relation) *Set {
	if s.Len() == 0 {
		return s
	}
	in := gather(r)
	n := &Set{by: make(map[string]*Index, len(s.by))}
	for sig, x := range s.by {
		n.by[sig] = buildHash(in, x.cols)
	}
	if len(s.ord) > 0 {
		n.ord = make(map[string]*Ordered, len(s.ord))
		for sig, x := range s.ord {
			n.ord[sig] = buildOrdered(in, x.cols)
		}
	}
	return n
}

// ParseDecl parses an index declaration of the form "relation(attr, ...)"
// — optionally suffixed with the keyword "ordered" for an ordered (range)
// index, whose attribute order is the sort order — the textual syntax
// Options.Indexes and DB.CreateIndex accept.
func ParseDecl(decl string) (rel string, attrs []string, ordered bool, err error) {
	s := strings.TrimSpace(decl)
	if rest, ok := strings.CutSuffix(s, "ordered"); ok && strings.HasSuffix(strings.TrimSpace(rest), ")") {
		ordered = true
		s = strings.TrimSpace(rest)
	}
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", nil, false, fmt.Errorf("index: malformed declaration %q, want \"relation(attr, ...)\" or \"relation(attr, ...) ordered\"", decl)
	}
	rel = strings.TrimSpace(s[:open])
	body := s[open+1 : len(s)-1]
	seen := make(map[string]bool)
	for _, part := range strings.Split(body, ",") {
		a := strings.TrimSpace(part)
		if a == "" {
			return "", nil, false, fmt.Errorf("index: declaration %q has an empty attribute", decl)
		}
		if seen[a] {
			return "", nil, false, fmt.Errorf("index: declaration %q repeats attribute %q", decl, a)
		}
		seen[a] = true
		attrs = append(attrs, a)
	}
	if len(attrs) == 0 {
		return "", nil, false, fmt.Errorf("index: declaration %q has no attributes", decl)
	}
	return rel, attrs, ordered, nil
}
