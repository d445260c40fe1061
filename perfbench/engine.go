package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// config is the engine configuration a workload runs under. Every workload
// enables differential enforcement (the default that pruning needs).
type config struct {
	durable         bool
	dir             string // set per run when durable
	sync            repro.SyncPolicy
	checkpointBytes int64
	cacheBytes      int64
	autoIndex       bool
	noPrune         bool // DisableCheckPruning: the adhoc replay reference
}

// outcome is what a workload checks about one submitted transaction.
type outcome struct {
	committed  bool
	constraint string // violated constraint of an integrity abort
	repaired   int    // repair programs appended by "on violation" clauses
	refused    bool   // aborted for another reason (retries exhausted)
	reason     string
}

// engine is one open database plus the calls a workload's set-up and checks
// make on it. Both implementations run the same engine code: facadeEngine
// through the public repro.DB, tracedEngine re-composed from each layer's
// entry points so the benchmark can time the layers from its own files.
type engine interface {
	createRelation(ddl string) error
	defineConstraint(name, cond string) error
	createIndex(decl string) error
	load(rel string, rows [][]any) error
	checkpoint() error
	// session returns the handle client i submits through.
	session(i int) session
	registry() *obs.Registry
	close() error
}

// session is one closed-loop client's handle on an engine.
type session interface {
	submit(src string) (outcome, error)
	query(expr string) (*repro.Rows, error)
}

type opener func(cfg config) (engine, error)

func openFacade(cfg config) (engine, error) {
	db, err := repro.OpenChecked(facadeOptions(cfg))
	if err != nil {
		return nil, err
	}
	return &facadeEngine{db: db}, nil
}

func facadeOptions(cfg config) *repro.Options {
	return &repro.Options{
		UseDifferential:     true,
		DisableCheckPruning: cfg.noPrune,
		AutoIndex:           cfg.autoIndex,
		Dir:                 cfg.dir,
		Sync:                cfg.sync,
		CheckpointBytes:     cfg.checkpointBytes,
		CacheBytes:          cfg.cacheBytes,
	}
}

type facadeEngine struct{ db *repro.DB }

func (f *facadeEngine) createRelation(ddl string) error { return f.db.EnsureRelation(ddl) }
func (f *facadeEngine) defineConstraint(name, cond string) error {
	return f.db.DefineConstraint(name, cond)
}
func (f *facadeEngine) createIndex(decl string) error       { return f.db.CreateIndex(decl) }
func (f *facadeEngine) load(rel string, rows [][]any) error { return f.db.Load(rel, rows) }
func (f *facadeEngine) checkpoint() error                   { return f.db.Checkpoint() }
func (f *facadeEngine) session(int) session                 { return f }
func (f *facadeEngine) registry() *obs.Registry             { return nil }
func (f *facadeEngine) close() error                        { return f.db.Close() }

func (f *facadeEngine) submit(src string) (outcome, error) {
	r, err := f.db.Submit(src)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{committed: r.Committed, constraint: r.Constraint, repaired: r.ChecksRepaired, reason: r.Reason}
	o.refused = !r.Committed && r.Constraint == ""
	return o, nil
}

func (f *facadeEngine) query(expr string) (*repro.Rows, error) { return f.db.Query(expr) }

// tracedEngine is the engine stack repro.OpenChecked builds, assembled here
// so that a submit can be re-composed from the layers' public entry points
// with a span around each call. It takes the options facadeOptions gives
// the facade.
type tracedEngine struct {
	sch       *schema.Database
	store     *storage.Database
	cat       *rules.Catalog
	sub       *core.Subsystem
	seq       *txn.Sequencer
	reg       *obs.Registry
	autoIndex bool
	rec       *recorder
}

func openTraced(rec *recorder) opener {
	return func(cfg config) (engine, error) {
		reg := obs.NewRegistry()
		sch := schema.MustDatabase()
		var store *storage.Database
		if cfg.dir != "" {
			s, err := storage.Open(cfg.dir, sch, storage.DurOptions{
				Shards:          storage.DefaultShards,
				Sync:            walSync[cfg.sync],
				CheckpointBytes: cfg.checkpointBytes,
				CacheBytes:      cfg.cacheBytes,
				Metrics:         reg,
			})
			if err != nil {
				return nil, err
			}
			store = s
			sch = store.Schema()
		} else {
			store = storage.NewSharded(sch, storage.DefaultShards)
			store.SetObservability(reg, nil)
		}
		store.SetEpochLimit(0)
		cat := rules.NewCatalog(sch)
		return &tracedEngine{
			sch:       sch,
			store:     store,
			cat:       cat,
			sub:       core.New(cat, core.Options{UseDifferential: true, Prune: !cfg.noPrune}),
			seq:       txn.NewSequencer(store),
			reg:       reg,
			autoIndex: cfg.autoIndex,
			rec:       rec,
		}, nil
	}
}

var walSync = map[repro.SyncPolicy]wal.SyncPolicy{
	repro.SyncAlways:  wal.SyncAlways,
	repro.SyncBatched: wal.SyncBatched,
	repro.SyncOff:     wal.SyncOff,
}

func (e *tracedEngine) createRelation(ddl string) error {
	rs, err := lang.ParseRelationSchema(ddl)
	if err != nil {
		return err
	}
	if cur, ok := e.sch.Relation(rs.Name); ok {
		if cur.String() != rs.String() {
			return fmt.Errorf("relation %s already exists as %s", rs, cur)
		}
		return nil
	}
	if err := e.sch.Add(rs); err != nil {
		return err
	}
	return e.store.AddRelation(rs)
}

// defineConstraint is DB.DefineConstraint: compile the rule, then build the
// indexes its enforcement joins and guards exploit (Options.AutoIndex).
func (e *tracedEngine) defineConstraint(name, cond string) error {
	r, err := lang.ParseConstraintRule(name, cond)
	if err != nil {
		return err
	}
	if err := e.cat.Add(r); err != nil {
		return err
	}
	ip, ok := e.cat.Program(name)
	if !e.autoIndex || !ok {
		return nil
	}
	for _, h := range ip.IndexHints {
		defs := e.store.IndexDefs(h.Relation)
		if h.Ordered {
			defs = e.store.OrderedIndexDefs(h.Relation)
		}
		exists := false
		for _, cols := range defs {
			exists = exists || index.Sig(cols) == index.Sig(h.Columns)
		}
		if exists {
			continue
		}
		if h.Ordered {
			err = e.store.DefineOrderedIndex(h.Relation, h.Columns)
		} else {
			err = e.store.DefineIndex(h.Relation, h.Columns)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// createIndex is DB.CreateIndex.
func (e *tracedEngine) createIndex(decl string) error {
	rel, attrs, ordered, err := index.ParseDecl(decl)
	if err != nil {
		return err
	}
	rs, err := e.sch.MustFind(rel)
	if err != nil {
		return err
	}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		if cols[i] = rs.AttrIndex(a); cols[i] < 0 {
			return fmt.Errorf("index %s: unknown attribute %q", decl, a)
		}
	}
	if ordered {
		return e.store.DefineOrderedIndex(rel, cols)
	}
	return e.store.DefineIndex(rel, cols)
}

func (e *tracedEngine) load(rel string, rows [][]any) error {
	cur, err := e.store.Relation(rel)
	if err != nil {
		return err
	}
	next := cur.Clone()
	for _, row := range rows {
		t := make(relation.Tuple, len(row))
		for i, v := range row {
			if t[i], err = toValue(v); err != nil {
				return err
			}
		}
		next.InsertUnchecked(t)
	}
	return e.store.Load(next)
}

func (e *tracedEngine) checkpoint() error       { return e.store.Checkpoint() }
func (e *tracedEngine) registry() *obs.Registry { return e.reg }
func (e *tracedEngine) close() error            { return e.store.Close() }

func (e *tracedEngine) session(i int) session {
	return &tracedSession{e: e, buf: e.rec.buffer(i)}
}

type tracedSession struct {
	e   *tracedEngine
	buf *spanBuf
}

// Retry pacing as in txn.Executor.ExecOptimistic: attempt k sleeps a
// jittered delay in [b·2^k/2, b·2^k), capped.
const (
	retryBackoffBase = 20 * time.Microsecond
	retryBackoffCap  = 2 * time.Millisecond
)

// submit is DB.Submit re-composed: parse, modify, render, type-check, then
// attempts of (user statements, enforcement statements, commit) until the
// commit validates. The modified program is the original statements followed
// by the enforcement program (core.Subsystem.Modify appends), so the first
// Report.OriginalStmts statements are the user's.
func (s *tracedSession) submit(src string) (outcome, error) {
	e, b := s.e, s.buf
	id := b.newTxn()
	root := b.begin("submit", -1, id)
	defer b.end(root)

	sp := b.begin("lang.parse", root, id)
	prog, err := lang.ParseTransaction(src, e.sch)
	b.end(sp)
	if err != nil {
		return outcome{}, err
	}
	sp = b.begin("core.modify", root, id)
	mod, rep, err := e.sub.Modify(txn.Bracket(prog))
	b.end(sp)
	if err != nil {
		return outcome{}, err
	}
	sp = b.begin("core.render", root, id)
	text := mod.String()
	b.end(sp)
	sp = b.begin("algebra.typecheck", root, id)
	err = mod.Program.TypeCheck(algebra.NewTypeEnv(e.sch))
	b.end(sp)
	if err != nil {
		return outcome{}, fmt.Errorf("txn: transaction rejected: %w", err)
	}
	b.c.txns++
	b.c.stmtsAdded += rep.FinalStmts - rep.OriginalStmts
	b.c.checksKept += strings.Count(text, "alarm(")
	b.c.checksElided += rep.ChecksElided
	b.c.repairs += rep.ChecksRepaired

	user, enforce := mod.Program[:rep.OriginalStmts], mod.Program[rep.OriginalStmts:]
	for attempt := 0; ; attempt++ {
		b.c.attempts++
		at := b.begin("txn.attempt", root, id)
		ov := txn.NewOverlay(e.store)
		ov.SetLabel(mod.Label)
		sp = b.begin("algebra.user_exec", at, id)
		abort := execAll(user, ov)
		b.end(sp)
		if abort == nil {
			sp = b.begin("algebra.check_exec", at, id)
			abort = execAll(enforce, ov)
			b.end(sp)
		}
		if abort != nil {
			b.end(at)
			var v *algebra.ViolationError
			if errors.As(abort, &v) {
				return outcome{constraint: v.Constraint, repaired: rep.ChecksRepaired, reason: abort.Error()}, nil
			}
			return outcome{refused: true, repaired: rep.ChecksRepaired, reason: abort.Error()}, nil
		}
		sp = b.begin("storage.commit", at, id)
		_, conflict, err := e.seq.TryCommit(ov)
		b.end(sp)
		b.end(at)
		if err != nil {
			return outcome{}, err
		}
		if conflict == nil {
			b.c.commits++
			return outcome{committed: true, repaired: rep.ChecksRepaired}, nil
		}
		if attempt >= txn.DefaultMaxRetries {
			return outcome{refused: true, reason: "retries exhausted: " + conflict.String()}, nil
		}
		d := min(retryBackoffBase<<min(attempt, 10), retryBackoffCap)
		sp = b.begin("txn.backoff", root, id)
		time.Sleep(d/2 + rand.N(d/2))
		b.end(sp)
	}
}

func execAll(stmts algebra.Program, ov *txn.Overlay) error {
	for _, st := range stmts {
		if err := st.Exec(ov); err != nil {
			return err
		}
	}
	return nil
}

// query is DB.Query re-composed.
func (s *tracedSession) query(expr string) (*repro.Rows, error) {
	e, b := s.e, s.buf
	id := b.newTxn()
	root := b.begin("query", -1, id)
	defer b.end(root)
	sp := b.begin("lang.parse", root, id)
	prog, err := lang.ParseProgram("q := "+expr, e.sch)
	b.end(sp)
	if err != nil {
		return nil, err
	}
	assign, ok := prog[0].(*algebra.Assign)
	if !ok || len(prog) != 1 {
		return nil, fmt.Errorf("query must be a single expression")
	}
	sp = b.begin("algebra.typecheck", root, id)
	out, err := assign.Expr.TypeCheck(algebra.NewTypeEnv(e.sch))
	b.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.begin("algebra.eval", root, id)
	rel, err := assign.Expr.Eval(txn.NewOverlay(e.store))
	b.end(sp)
	if err != nil {
		return nil, err
	}
	rows := &repro.Rows{Columns: out.AttrNames()}
	for _, t := range rel.SortedTuples() {
		row := make([]any, len(t))
		for i, v := range t {
			row[i] = fromValue(v)
		}
		rows.Data = append(rows.Data, row)
	}
	return rows, nil
}

func toValue(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null(), nil
	case int:
		return value.Int(int64(x)), nil
	case int64:
		return value.Int(x), nil
	case float64:
		return value.Float(x), nil
	case string:
		return value.String(x), nil
	case bool:
		return value.Bool(x), nil
	}
	return value.Null(), fmt.Errorf("unsupported value type %T", v)
}

func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	}
	return nil
}
