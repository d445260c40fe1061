package main

import (
	"fmt"
	"math/rand"
)

// durable: an on-disk database with SyncAlways (every acknowledged commit
// is fsynced) and two clients. Sixteen child relations each reference one
// parent relation; a transaction inserts one row into each of 1-4 child
// relations, so the front end sees one repeated shape family and the
// group-commit pipeline, the WAL fsyncs and the checkpoints (sized to cycle
// several times per run) do most of the work. One request in ten reads a
// parent by key.
type durable struct {
	seed             int64
	nParent, nPerRel int
	ckptBytes        int64
	setupRows        map[string][][]any
	cl               []*durableClient
}

const durableRels = 16

func newDurable(seed int64, tiny bool) *durable {
	w := &durable{seed: seed, nParent: 1000, nPerRel: 500, ckptBytes: 64 << 10, setupRows: make(map[string][][]any)}
	if tiny {
		w.nParent, w.nPerRel, w.ckptBytes = 20, 10, 16<<10
	}
	r := rand.New(rand.NewSource(seed))
	for p := 0; p < w.nParent; p++ {
		w.setupRows["parent"] = append(w.setupRows["parent"], []any{p, fmt.Sprintf("parent-%06d", p)})
	}
	for k := 0; k < durableRels; k++ {
		rel := childRel(k)
		for j := 0; j < w.nPerRel; j++ {
			w.setupRows[rel] = append(w.setupRows[rel], []any{j, r.Intn(w.nParent), payload(r), r.Intn(1000)})
		}
	}
	return w
}

func childRel(k int) string { return fmt.Sprintf("c%02d", k) }

// payload is a 16-byte string.
func payload(r *rand.Rand) string { return fmt.Sprintf("p%015d", r.Int63n(1e15)) }

func (w *durable) name() string { return "durable" }
func (w *durable) clients() int { return 2 }
func (w *durable) config() config {
	return config{durable: true, autoIndex: true, checkpointBytes: w.ckptBytes}
}

func (w *durable) relations() []string {
	out := []string{"parent"}
	for k := 0; k < durableRels; k++ {
		out = append(out, childRel(k))
	}
	return out
}

func (w *durable) define(e engine) error {
	ddl := []string{`relation parent(id int, name string)`}
	var cons [][2]string
	for k := 0; k < durableRels; k++ {
		rel := childRel(k)
		ddl = append(ddl, fmt.Sprintf(`relation %s(id int, pid int, payload string, n int)`, rel))
		cons = append(cons, [2]string{rel + "_parent",
			fmt.Sprintf(`forall x (x in %s implies exists p (p in parent and x.pid = p.id))`, rel)})
	}
	return defineAll(e, ddl, cons)
}

func (w *durable) populate(e engine) error {
	for _, rel := range w.relations() {
		if err := e.load(rel, w.setupRows[rel]); err != nil {
			return err
		}
	}
	return nil
}

type durableClient struct {
	w    *durable
	i    int
	r    *rand.Rand
	seq  int
	rows map[string][][]any // own acknowledged rows
}

func (w *durable) newClient(i int) client {
	c := &durableClient{w: w, i: i, r: clientRand(w.seed, i), rows: make(map[string][][]any)}
	if len(w.cl) < w.clients() {
		w.cl = make([]*durableClient, w.clients())
	}
	w.cl[i] = c
	return c
}

func (c *durableClient) next() op {
	r := c.r
	if r.Intn(10) == 0 {
		return op{read: true, src: fmt.Sprintf("select(parent, id = %d)", r.Intn(c.w.nParent)), want: want{kind: wantRows, rows: 1}}
	}
	var stmts []string
	bytes := 0
	for _, k := range r.Perm(durableRels)[:1+r.Intn(4)] {
		c.seq++
		rel := childRel(k)
		row := []any{1_000_000*(c.i+1) + c.seq, r.Intn(c.w.nParent), payload(r), r.Intn(1000)}
		c.rows[rel] = append(c.rows[rel], row)
		stmts = append(stmts, fmt.Sprintf("insert(%s, %s)", rel, tuples(row)))
		bytes += rowBytes(row)
	}
	return op{src: txnText(stmts...), bytes: bytes}
}

// check runs on the reopened database: every acknowledged insert must be
// there, and nothing else.
func (w *durable) check(final map[string][][]any, _ [][]done) []string {
	var out []string
	for _, rel := range w.relations() {
		want := append([][]any(nil), w.setupRows[rel]...)
		for _, c := range w.cl {
			if c != nil {
				want = append(want, c.rows[rel]...)
			}
		}
		out = append(out, diffRows(rel, final[rel], want)...)
	}
	return out
}
