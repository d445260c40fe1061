package main

import (
	"fmt"
	"math/rand"

	"repro"
)

// paged: the one workload larger than the engine's own cache. One relation
// of 50,000 tuples (3.2 MB of user data, about 6 MB on disk: over ten times
// CacheBytes) is built and checkpointed during set-up, then reopened paged,
// so its trie nodes fault
// in through the node cache. It carries no secondary index. Client 0
// replaces tuples of a Zipf-skewed hot set that fits the cache (a delete
// and an insert of literal tuples, whose presence checks walk the trie
// through the cache); client 1 scans the whole relation (a sum over every
// tuple). Point writes and scans use the cache in opposite ways, so a
// change that helps one at the other's cost shows on this workload.
type paged struct {
	seed       int64
	n, hot     int
	cacheBytes int64
	v          []int // initial v per key
	pad        []string
	cl         *pagedWriter
}

func newPaged(seed int64, tiny bool) *paged {
	w := &paged{seed: seed, n: 50_000, hot: 200, cacheBytes: 512 << 10}
	if tiny {
		w.n, w.hot, w.cacheBytes = 3000, 20, 16<<10
	}
	r := rand.New(rand.NewSource(seed))
	for k := 0; k < w.n; k++ {
		w.v = append(w.v, r.Intn(1_000_000))
		w.pad = append(w.pad, fmt.Sprintf("%048d", r.Int63()))
	}
	return w
}

func (w *paged) name() string { return "paged" }
func (w *paged) clients() int { return 2 }
func (w *paged) config() config {
	return config{durable: true, sync: repro.SyncBatched, cacheBytes: w.cacheBytes, checkpointBytes: 1 << 20}
}
func (w *paged) relations() []string { return []string{"kv"} }

func (w *paged) define(e engine) error {
	return defineAll(e, []string{`relation kv(k int, v int, pad string)`},
		[][2]string{{"v_nonneg", `forall x (x in kv implies x.v >= 0)`}})
}

func (w *paged) populate(e engine) error {
	rows := make([][]any, w.n)
	for k := range rows {
		rows[k] = []any{k, w.v[k], w.pad[k]}
	}
	return e.load("kv", rows)
}

type pagedWriter struct {
	w    *paged
	r    *rand.Rand
	zipf *rand.Zipf
	keys []int       // the hot set, spread over the key space
	v    map[int]int // current v of written keys
}

type pagedScanner struct{ n int }

func (s pagedScanner) next() op {
	return op{read: true, src: "agg(kv, sum, 1)", want: want{kind: wantScalar, rows: s.n}}
}

func (w *paged) newClient(i int) client {
	if i == 1 {
		return pagedScanner{n: w.n}
	}
	r := clientRand(w.seed, i)
	c := &pagedWriter{w: w, r: r, zipf: rand.NewZipf(r, 1.1, 8, uint64(w.hot-1)), v: make(map[int]int)}
	for _, k := range r.Perm(w.n)[:w.hot] {
		c.keys = append(c.keys, k)
	}
	w.cl = c
	return c
}

func (c *pagedWriter) next() op {
	k := c.keys[c.zipf.Uint64()]
	old, ok := c.v[k]
	if !ok {
		old = c.w.v[k]
	}
	nv := c.r.Intn(1_000_000)
	if nv == old {
		nv++
	}
	c.v[k] = nv
	pad := c.w.pad[k]
	return op{src: txnText(
		"delete(kv, "+tuples([]any{k, old, pad})+")",
		"insert(kv, "+tuples([]any{k, nv, pad})+")",
	), bytes: 2*8 + len(pad)}
}

// check runs on the reopened database: the relation holds every key once,
// with the writer's last value.
func (w *paged) check(final map[string][][]any, _ [][]done) []string {
	rows := final["kv"]
	if len(rows) != w.n {
		return []string{fmt.Sprintf("kv: %d rows, want %d", len(rows), w.n)}
	}
	var out []string
	for _, row := range rows {
		k := int(row[0].(int64))
		if k < 0 || k >= w.n {
			return []string{fmt.Sprintf("kv: unexpected row %v", row)}
		}
		want := w.v[k]
		if w.cl != nil {
			if v, ok := w.cl.v[k]; ok {
				want = v
			}
		}
		if int(row[1].(int64)) != want || row[2].(string) != w.pad[k] {
			out = append(out, fmt.Sprintf("kv: row %v, want v=%d", row, want))
			if len(out) >= 3 {
				break
			}
		}
	}
	return out
}
