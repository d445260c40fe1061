package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// adhoc: an in-memory database with a large generated catalog — 8
// relations and 24 domain, referential and existential constraints, four
// with clamp repairs — and two clients, each sending transactions of 1-4
// random statements (inserts, and deletes and updates over a key range with
// random extra comparisons and assignments) against its own half of the
// relations, one request in ten a random selection. Almost no transaction
// shape repeats, so transaction modification and the safety analyzer work
// on never-seen shapes against the whole catalog: the workload without the
// repeated-shape property, where a per-shape cache can only miss. Outcomes
// are not predicted; check replays each client's requests on an unpruned
// engine (DisableCheckPruning) and requires the same outcome for every
// request and the same final state.
//
// The catalog has no pair constraint: the engine checks one by scanning the
// whole referenced relation, which made this workload's latency
// memory-bound, buried the front-end work it exists to measure, and let its
// figures swing with whatever else the host ran. It has two clients, not
// one, for the same reason: with one client the runtime's idle second core
// runs the garbage collector, and whether the host lets it do so swung
// throughput by a third between runs.
type adhoc struct {
	seed        int64
	nRel, m     int
	parent      []int // parent relation of each relation (-1 for a root)
	constraints [][2]string
	rows        map[string][][]any
	ref         opener
}

func newAdhoc(seed int64, tiny bool) *adhoc {
	w := &adhoc{seed: seed, nRel: 8, m: 500, rows: make(map[string][][]any), ref: openFacade}
	if tiny {
		w.m = 20
	}
	// The catalog is the same for every seed — two trees of four relations,
	// each a root with two children and a grandchild, with the same
	// constraint kinds, thresholds and repairs on the same relations — so
	// every seed prices the same checks; the seed draws the initial rows and
	// the statements. Client i writes and reads only tree i, so the outcome
	// of each request does not depend on how the two clients interleave.
	for k := 0; k < w.nRel; k++ {
		root, j := k/adhocTree*adhocTree, k%adhocTree
		w.parent = append(w.parent, -1)
		if j > 0 {
			w.parent[k] = root + (j-1)/2
		}
		rel := adhocRel(k)
		add := func(kind, cond string) {
			w.constraints = append(w.constraints, [2]string{fmt.Sprintf("%s_%s", rel, kind), cond})
		}
		clamp := ""
		if k%2 == 0 {
			clamp = " on violation clamp"
		}
		add("a_lo", fmt.Sprintf(`forall x (x in %s implies x.a >= %d)%s`, rel, k%4, clamp))
		add("b_hi", fmt.Sprintf(`forall x (x in %s and x.a < %d implies x.b <= %d)`, rel, 70+k, 200+k))
		if j > 0 {
			p := adhocRel(w.parent[k])
			add("ref", fmt.Sprintf(`forall x (x in %s implies exists y (y in %s and x.p = y.id))`, rel, p))
		}
		if k%5 == 0 {
			add("reserve", fmt.Sprintf(`exists x (x in %s and x.a >= %d)`, rel, 70+k))
		}
	}
	// Children reference only the lowest fifth of their parent's keys (as
	// do generated inserts and updates, give or take a few missing keys), so
	// parent tuples above it stay deletable and relation sizes drift little
	// over a run.
	r := rand.New(rand.NewSource(seed))
	for k := 0; k < w.nRel; k++ {
		rel := adhocRel(k)
		// The sentinel satisfies every constraint and witnesses the reserves.
		w.rows[rel] = append(w.rows[rel], []any{100_000, 100, 0, 0})
		for id := 0; id < w.m; id++ {
			w.rows[rel] = append(w.rows[rel], []any{id, 10 + r.Intn(50), r.Intn(150), r.Intn(w.m / 5)})
		}
	}
	return w
}

// adhocTree is the number of relations in each client's tree.
const adhocTree = 4

func adhocRel(k int) string { return fmt.Sprintf("r%d", k) }

func (w *adhoc) name() string   { return "adhoc" }
func (w *adhoc) clients() int   { return w.nRel / adhocTree }
func (w *adhoc) config() config { return config{autoIndex: true} }

func (w *adhoc) relations() []string {
	var out []string
	for k := 0; k < w.nRel; k++ {
		out = append(out, adhocRel(k))
	}
	return out
}

func (w *adhoc) define(e engine) error {
	var ddl []string
	for _, rel := range w.relations() {
		ddl = append(ddl, fmt.Sprintf(`relation %s(id int, a int, b int, p int)`, rel))
	}
	if err := defineAll(e, ddl, w.constraints); err != nil {
		return err
	}
	// Every statement selects an id range; an ordered index keeps that a
	// probe, so the catalog's checks, not scans, set the cost.
	for _, rel := range w.relations() {
		if err := e.createIndex(rel + "(id) ordered"); err != nil {
			return err
		}
	}
	return nil
}

func (w *adhoc) populate(e engine) error {
	for _, rel := range w.relations() {
		if err := e.load(rel, w.rows[rel]); err != nil {
			return err
		}
	}
	return nil
}

type adhocClient struct {
	w    *adhoc
	r    *rand.Rand
	tree int // first relation of the client's tree
}

func (w *adhoc) newClient(i int) client {
	return &adhocClient{w: w, r: clientRand(w.seed, i), tree: i * adhocTree}
}

func (c *adhocClient) rel() string { return adhocRel(c.tree + c.r.Intn(adhocTree)) }

func (c *adhocClient) next() op {
	r := c.r
	if r.Intn(10) == 0 {
		rel := c.rel()
		return op{read: true, src: fmt.Sprintf("select(%s, %s)", rel, c.pred()), want: want{kind: wantAny}}
	}
	n := 1 + r.Intn(4)
	stmts := make([]string, n)
	bytes := 0
	for i := range stmts {
		rel := c.rel()
		switch r.Intn(3) {
		case 0:
			var rows [][]any
			for j := 0; j <= r.Intn(3); j++ {
				row := []any{r.Intn(2 * c.w.m), r.Intn(130) - 10, r.Intn(260), r.Intn(c.w.m/5 + 20)}
				rows = append(rows, row)
				bytes += rowBytes(row)
			}
			stmts[i] = fmt.Sprintf("insert(%s, %s)", rel, tuples(rows...))
		case 1:
			stmts[i] = fmt.Sprintf("delete(%s, select(%s, %s))", rel, rel, c.pred())
		default:
			stmts[i] = fmt.Sprintf("update(%s, %s, [%s])", rel, c.pred(), c.sets())
			bytes += 32
		}
	}
	return op{src: txnText(stmts...), want: want{kind: wantAny}, bytes: bytes}
}

var (
	adhocAttrs = []string{"a", "b", "p"}
	adhocOps   = []string{"=", "<", ">", "<=", ">="}
)

// pred is a narrow id range conjoined with 0-2 random comparisons, so a
// statement touches a handful of tuples but its shape is rarely repeated.
func (c *adhocClient) pred() string {
	r := c.r
	lo := r.Intn(2 * c.w.m)
	parts := []string{fmt.Sprintf("id >= %d", lo), fmt.Sprintf("id < %d", lo+1+r.Intn(8))}
	for j := r.Intn(3); j > 0; j-- {
		parts = append(parts, fmt.Sprintf("%s %s %d", adhocAttrs[r.Intn(3)], adhocOps[r.Intn(5)], r.Intn(150)))
	}
	r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return strings.Join(parts, " and ")
}

func (c *adhocClient) sets() string {
	r := c.r
	forms := []string{
		fmt.Sprintf("a = a + %d", r.Intn(20)),
		fmt.Sprintf("a = a - %d", r.Intn(20)),
		fmt.Sprintf("a = %d", r.Intn(130)-10),
		fmt.Sprintf("b = b + %d", r.Intn(40)),
		fmt.Sprintf("b = %d", r.Intn(260)),
		fmt.Sprintf("p = %d", r.Intn(c.w.m/5+20)),
	}
	r.Shuffle(len(forms), func(i, j int) { forms[i], forms[j] = forms[j], forms[i] })
	byAttr := make(map[byte]bool)
	var out []string
	for _, f := range forms[:1+r.Intn(2)] {
		if !byAttr[f[0]] {
			byAttr[f[0]] = true
			out = append(out, f)
		}
	}
	return strings.Join(out, ", ")
}

// check replays each client's requests, in order, on a fresh unpruned
// in-memory engine — the clients' relations and constraints are disjoint,
// so one client's requests after the other's meet the states they met in
// the run: every commit decision, every query's row count and the final
// state must be the same. An aborted transaction may name a different
// violated constraint on the two engines when it violates several: pruning
// defers some checks to the next modification level, so the two programs
// reach the violated checks in different orders. Both must still name one.
func (w *adhoc) check(final map[string][][]any, log [][]done) []string {
	ref, err := w.ref(config{autoIndex: true, noPrune: true})
	if err != nil {
		return []string{"reference engine: " + err.Error()}
	}
	defer ref.close()
	if err := defineAndPopulate(w, ref); err != nil {
		return []string{"reference engine: " + err.Error()}
	}
	s := ref.session(0)
	var out []string
	for _, l := range log {
		for _, d := range l {
			if d.failed() {
				continue
			}
			if d.op.read {
				rows, err := s.query(d.op.src)
				if err != nil {
					out = append(out, fmt.Sprintf("%q: reference: %v", d.op.src, err))
				} else if len(rows.Data) != d.rows {
					out = append(out, fmt.Sprintf("%q: %d rows, reference %d", d.op.src, d.rows, len(rows.Data)))
				}
				continue
			}
			o, err := s.submit(d.op.src)
			if err != nil || o.committed != d.out.committed || (o.constraint == "") != (d.out.constraint == "") {
				out = append(out, fmt.Sprintf("%q: committed=%v %q, reference committed=%v %q (%v)",
					d.op.src, d.out.committed, d.out.constraint, o.committed, o.constraint, err))
			}
		}
	}
	want, err := dump(s, w.relations())
	if err != nil {
		return append(out, "reference engine: "+err.Error())
	}
	for _, rel := range w.relations() {
		out = append(out, diffRows(rel, final[rel], want[rel])...)
	}
	return out
}
