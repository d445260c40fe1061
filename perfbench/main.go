// Command perfbench is the repository's benchmark. It drives the engine as
// an embedded library: one process, closed-loop clients (each sends its next
// request only after the previous reply), workloads generated from a seed,
// set-up sized independently of the run length and kept out of the timed
// region, and every output checked. See README.md in this directory for the
// workloads, the metrics and how to run it.
//
//	perfbench --workload oltp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
// With --trace 0 it carries the end-to-end metrics, measured through the
// public facade; with --trace 1 the per-layer metrics, measured on a
// re-composed submit path that records a span around every layer call.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: oltp, durable, paged or adhoc")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	opts := runOpts{workload: *name, seed: *seed, seconds: *seconds, workdir: ".bench_build"}
	var (
		res *result
		err error
	)
	switch *trace {
	case 0:
		res, err = runUntraced(opts)
	case 1:
		res, err = runTraced(opts)
	default:
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(res.env)
	fmt.Printf("# env %s\n", env)
	for i, p := range res.problems {
		if i == 20 {
			fmt.Printf("# check failed: … and %d more\n", len(res.problems)-i)
			break
		}
		fmt.Printf("# check failed: %s\n", p)
	}
	out, _ := json.Marshal(res.summary())
	fmt.Println(string(out))
}

type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	tiny     bool   // tiny inputs, for the benchmark's own tests
	workdir  string // database files and span logs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	env               map[string]any
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) summary() map[string]any {
	return map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// baseEnv records the host and build facts every result carries.
func baseEnv(w workload, o runOpts) map[string]any {
	env := map[string]any{
		"workload":   w.name(),
		"seed":       o.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"clients":    w.clients(),
		"loop":       "closed",
	}
	cfg := w.config()
	switch {
	case cfg.cacheBytes > 0:
		env["storage"] = "disk, paged"
		env["cache_bytes"] = cfg.cacheBytes
	case cfg.durable:
		env["storage"] = "disk, resident"
	default:
		env["storage"] = "memory"
	}
	if cfg.durable {
		env["sync"] = [...]string{"SyncAlways", "SyncBatched", "SyncOff"}[cfg.sync]
		env["checkpoint_bytes"] = cfg.checkpointBytes
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["revision"] = s.Value
			}
		}
	}
	return env
}

// cpuModel reads the processor name the kernel reports, if it can.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func newRunDir(o runOpts) (string, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.workdir, "run-")
}

// runUntraced measures the end-to-end metrics through the public facade.
func runUntraced(o runOpts) (*result, error) {
	w, err := newWorkload(o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	dir, err := newRunDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{env: baseEnv(w, o)}
	var (
		e       engine
		setups  []float64
		spent   float64
		heapMiB float64
	)
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		d := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		runtime.GC() // start every set-up from the same heap state
		t0 := time.Now()
		e, err = setUp(w, openFacade, d)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
		if i == 0 {
			// The first set-up's database measures the heap, then is
			// dropped: the timed phase runs on the last one.
			var problems []string
			if heapMiB, problems, err = heapAfterRequests(w, &e, heapRequests(o.tiny)); err != nil {
				return nil, err
			}
			res.problems = append(res.problems, problems...)
		}
	}
	cfg := w.config()
	var (
		space     *spaceSampler
		userStart int
	)
	if cfg.durable {
		cfg.dir = filepath.Join(dir, fmt.Sprintf("setup%d", len(setups)-1))
		if res.env["data_bytes_at_start"], err = dirSize(cfg.dir); err != nil {
			return nil, err
		}
		rows, err := dump(e.session(0), w.relations())
		if err != nil {
			return nil, err
		}
		userStart = totalRowBytes(rows)
		space = &spaceSampler{dir: cfg.dir, stop: make(chan struct{})}
	}

	space.start()
	ph, err := measure(w, e, o.seconds)
	space.finish()
	if err != nil {
		return nil, err
	}
	fin, err := finish(w, e, openFacade, cfg, ph.clients[0])
	if err != nil {
		return nil, err
	}
	storedPerUser := fin.storedBytes / float64(max(1, fin.userBytes))
	if space != nil {
		var at int
		storedPerUser, at = space.perUserByte(ph.log, userStart, fin.userBytes)
		res.env["space_at_submits"] = at
	}
	res.problems = append(res.problems, ph.problems...)
	res.problems = append(res.problems, fin.problems...)
	res.problems = append(res.problems, w.check(fin.rows, ph.log)...)
	res.attempted, res.failed = ph.attempted, ph.failed

	res.set("setup_s", "s", median(setups))
	res.set("txn_per_s", "1/s", ph.txnPerS)
	res.set("submit_p50_ms", "ms", ph.submitQ(0.50))
	res.set("submit_p99_ms", "ms", ph.submitQ(0.99))
	res.set("read_p50_ms", "ms", ph.readQ(0.50))
	res.set("read_p90_ms", "ms", ph.readQ(0.90))
	res.set("ok_frac", "frac", 1-float64(ph.failed)/float64(max(1, ph.attempted)))
	// Restart time is recorded, not bounded: on a paged database it is
	// mostly page faults against the host's disk cache, and it swung by
	// half from run to run (see README.md).
	res.env["reopen_s"] = fin.reopenS
	res.set("stored_bytes_per_user_byte", "B/B", storedPerUser)
	res.set("heap_mb", "MiB", heapMiB)

	res.env["setup_samples_s"] = setups
	// Percentiles are per window (see measure): each window's samples
	// stand behind its percentiles.
	var perWindow [][2]int
	for _, w := range ph.windows {
		perWindow = append(perWindow, [2]int{len(w.submitLat), len(w.readLat)})
	}
	res.env["windows"] = windows
	res.env["submit_read_samples_per_window"] = perWindow
	res.env["measured_s"] = ph.elapsed
	res.env["steal_frac"] = ph.stealFrac
	res.env["repeated_shape_frac"] = repeatedShapeFrac(ph.log)
	res.env["rows"] = fin.rowCounts
	res.env["user_bytes"] = fin.userBytes
	res.env["stored_bytes"] = fin.storedBytes
	return res, nil
}

const (
	// Set-up runs at least minSetups and at most maxSetups times, until
	// the set-ups took setupBudget seconds together; setup_s is their
	// median. A set-up of tens of milliseconds is timed often enough that
	// a collection or a slow moment of the host moves no reported figure.
	minSetups   = 5
	maxSetups   = 100
	setupBudget = 4.0
)

// heapRequests is how many requests client 0 sends to the first set-up's
// database before heap_mb is taken, so that the heap holds the same data on
// every run, however fast the timed phase went.
func heapRequests(tiny bool) int {
	if tiny {
		return 200
	}
	return 3000
}

// heapAfterRequests sends n requests of client 0's stream to *e, checking
// each reply, then returns the heap the engine holds in MiB: the live heap
// with the engine open minus the live heap once it is closed and dropped
// (*e is nil afterwards).
func heapAfterRequests(w workload, e *engine, n int) (float64, []string, error) {
	var problems []string
	c, s := w.newClient(0), (*e).session(0)
	for i := 0; i < n; i++ {
		d := send(s, c.next(), false)
		if d.failed() {
			return 0, nil, fmt.Errorf("request %q failed: %v %s", d.op.src, d.err, d.out.reason)
		}
		if p := verify(&d); p != "" && len(problems) < 10 {
			problems = append(problems, p)
		}
	}
	withEngine := liveHeap()
	err := (*e).close()
	*e, s = nil, nil
	if err != nil {
		return 0, nil, err
	}
	heap := withEngine - min(withEngine, liveHeap())
	return float64(heap) / (1 << 20), problems, nil
}

// setUp builds the workload's initial database in dir (when durable) and
// returns it open. A paged workload's data is built resident, checkpointed
// and reopened paged, so the run starts from a cold cache over data larger
// than the cache.
func setUp(w workload, open opener, dir string) (engine, error) {
	cfg := w.config()
	if cfg.durable {
		cfg.dir = dir
	}
	build := cfg
	build.cacheBytes = 0
	e, err := open(build)
	if err != nil {
		return nil, err
	}
	if err := defineAndPopulate(w, e); err != nil {
		e.close()
		return nil, err
	}
	if !cfg.durable {
		return e, nil
	}
	if err := e.checkpoint(); err != nil {
		e.close()
		return nil, err
	}
	if cfg.cacheBytes == 0 {
		return e, nil
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	if e, err = open(cfg); err != nil {
		return nil, err
	}
	if err := w.define(e); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func defineAndPopulate(w workload, e engine) error {
	if err := w.define(e); err != nil {
		return err
	}
	return w.populate(e)
}

// finished holds what finish measured and read.
type finished struct {
	rows        map[string][][]any
	rowCounts   map[string]int
	userBytes   int
	storedBytes float64
	reopenS     float64
	// reopenMetrics is the last reopened engine's registry right after the
	// reopen (recovery counters), when the engine exposes one.
	reopenMetrics obs.Snapshot
	problems      []string
}

const (
	// reopens is how often finish restarts the database; reopen_s is the
	// median.
	reopens = 9
	// tailRequests are sent by a durable workload's first client after the
	// timed phase, behind an explicit checkpoint, so every run's reopen
	// replays the same amount of log.
	tailRequests = 2000
)

// finish measures the heap the engine holds, restarts the database and
// reads its final state. A durable database gets a checkpoint and a fixed
// tail of requests, is closed and reopened from its directory; reopen_s is
// the time until the reopened database answered a query. An in-memory
// database has nothing to reopen from: its state is read out and loaded
// into a freshly opened one, the restart an application of it performs.
// Stored bytes are the directory's size for a durable database and the
// engine's heap for an in-memory one.
func finish(w workload, e engine, open opener, cfg config, tail client) (*finished, error) {
	f := &finished{}
	var (
		rows map[string][][]any
		err  error
	)
	if !cfg.durable {
		if rows, err = dump(e.session(0), w.relations()); err != nil {
			return nil, err
		}
	}
	withEngine := liveHeap()
	if cfg.durable {
		if err := e.checkpoint(); err != nil {
			return nil, err
		}
		s := e.session(0)
		for i := 0; i < tailRequests; i++ {
			d := send(s, tail.next(), false)
			if d.failed() {
				return nil, fmt.Errorf("tail request %q failed: %v %s", d.op.src, d.err, d.out.reason)
			}
			if p := verify(&d); p != "" {
				f.problems = append(f.problems, p)
			}
		}
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	e = nil
	f.storedBytes = float64(withEngine - min(withEngine, liveHeap()))
	if cfg.durable {
		size, err := dirSize(cfg.dir)
		if err != nil {
			return nil, err
		}
		f.storedBytes = float64(size)
	}

	var times []float64
	for i := 0; i < reopens; i++ {
		runtime.GC() // start every restart from the same heap state
		t0 := time.Now()
		e2, err := open(cfg)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		err = w.define(e2)
		for _, rel := range w.relations() {
			if err == nil && !cfg.durable {
				err = e2.load(rel, rows[rel])
			}
		}
		if err == nil {
			_, err = e2.session(0).query("cnt(" + w.relations()[0] + ")")
		}
		times = append(times, time.Since(t0).Seconds())
		if err == nil && i == reopens-1 {
			f.reopenMetrics = e2.registry().Snapshot()
			if cfg.durable {
				f.rows, err = dump(e2.session(0), w.relations())
			} else {
				f.rows = rows
			}
		}
		if cerr := e2.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	f.reopenS = median(times)
	f.rowCounts = make(map[string]int)
	for rel, rows := range f.rows {
		f.rowCounts[rel] = len(rows)
	}
	f.userBytes = totalRowBytes(f.rows)
	return f, nil
}

func totalRowBytes(rows map[string][][]any) int {
	n := 0
	for _, rs := range rows {
		for _, r := range rs {
			n += rowBytes(r)
		}
	}
	return n
}

// spaceAtSubmits is the number of committed submits (warm-up included) at
// which a durable workload's directory size is taken. Incremental
// checkpoints leave superseded node versions behind, so the directory
// grows with every write until a full checkpoint: its size at the end of
// the run would read a faster engine as a bigger one. At a fixed count of
// submits it reads the same data, several checkpoint cycles in.
const spaceAtSubmits = 20_000

// spaceSampler measures a database directory's size every 100ms while the
// clients run. Its methods do nothing on a nil sampler (in-memory runs).
type spaceSampler struct {
	dir     string
	stop    chan struct{}
	done    sync.WaitGroup
	samples []spaceSample
}

type spaceSample struct {
	at   time.Time
	size float64
}

func (sp *spaceSampler) start() {
	if sp == nil {
		return
	}
	sp.done.Add(1)
	go func() {
		defer sp.done.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-sp.stop:
				return
			case now := <-t.C:
				// Files come and go under a running checkpointer; a walk
				// that raced with a removal is skipped.
				if n, err := dirSize(sp.dir); err == nil {
					sp.samples = append(sp.samples, spaceSample{now, float64(n)})
				}
			}
		}
	}()
}

func (sp *spaceSampler) finish() {
	if sp == nil {
		return
	}
	close(sp.stop)
	sp.done.Wait()
}

// perUserByte is the directory's size at the first sample after the
// spaceAtSubmits-th committed submit (or the last sample, when the run
// committed fewer), over the live user data then: userStart plus the share
// of the run's change in live data (userEnd-userStart) that the submits up
// to that point wrote. It also returns the submits counted.
func (sp *spaceSampler) perUserByte(logs [][]done, userStart, userEnd int) (float64, int) {
	var commits []*done
	for _, log := range logs {
		for i := range log {
			if d := &log[i]; !d.op.read && !d.failed() && d.out.committed {
				commits = append(commits, d)
			}
		}
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].at.Before(commits[j].at) })
	n := min(spaceAtSubmits, len(commits))
	written, total := 0, 0
	for i, d := range commits {
		if i < n {
			written += d.op.bytes
		}
		total += d.op.bytes
	}
	if len(sp.samples) == 0 {
		return 0, n
	}
	size := sp.samples[len(sp.samples)-1].size
	if n > 0 && n == spaceAtSubmits {
		for _, x := range sp.samples {
			if !x.at.Before(commits[n-1].at) {
				size = x.size
				break
			}
		}
	}
	live := float64(userStart) + float64(userEnd-userStart)*float64(written)/float64(max(1, total))
	return size / max(1, live), n
}

func dump(s session, rels []string) (map[string][][]any, error) {
	out := make(map[string][][]any, len(rels))
	for _, rel := range rels {
		rows, err := s.query(rel)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", rel, err)
		}
		out[rel] = rows.Data
	}
	return out, nil
}

// rowBytes is a row's user data size: 8 bytes per number, a string's length.
func rowBytes(row []any) int {
	n := 0
	for _, v := range row {
		switch x := v.(type) {
		case string:
			n += len(x)
		case int, int64, float64:
			n += 8
		case bool:
			n++
		}
	}
	return n
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// liveHeap is the live heap after garbage collection. The engine releases
// snapshot leases through finalizers, which run after one collection and
// free their objects in the next, hence two.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
