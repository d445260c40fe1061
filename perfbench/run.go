package main

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// op is one closed-loop request a client sends.
type op struct {
	read bool   // a query (DB.Query) instead of a transaction (DB.Submit)
	src  string // transaction text or query expression
	want want
	// bytes is the user data a committed transaction writes: 8 per number,
	// a string's length, per written tuple.
	bytes int
}

type wantKind uint8

const (
	wantCommit wantKind = iota // commits
	wantRepair                 // commits after an "on violation" repair
	wantAbort                  // aborts, naming want.constraint
	wantRows                   // a query returning want.rows rows
	wantScalar                 // a query returning one number, want.rows
	wantAny                    // checked against a reference replay instead
)

type want struct {
	kind       wantKind
	constraint string
	rows       int
}

// client generates one closed-loop client's request stream. A client's
// stream depends only on the seed and the client's index; it assumes every
// request before it got its wanted outcome, so it can be generated without
// looking at replies (a reply that differs fails the run anyway).
type client interface {
	next() op
}

// done is one sent request with its reply.
type done struct {
	op    op
	out   outcome
	rows  int
	err   error
	lat   time.Duration
	at    time.Time // when the reply came
	timed bool      // sent after the warm-up
}

// failed reports a request that errored or was refused (retries exhausted).
func (d *done) failed() bool { return d.err != nil || d.out.refused }

// resubmits bounds how often a client re-sends a refused request before it
// moves on; a refused transaction left the database untouched.
const resubmits = 3

// phase is what the clients did in one measured run.
type phase struct {
	log               [][]done // per client, in send order
	clients           []client // to continue a client's stream after the phase
	windows           []window
	attempted, failed int
	submits           int
	elapsed           float64
	stealFrac         float64 // share of the host's CPU time stolen by its hypervisor
	txnPerS           float64 // median over the windows
	problems          []string
}

// windows splits the timed phase into this many equal parts by reply time.
// Throughput and latency percentiles are taken per part and reported as the
// median over the parts, so that parts disturbed by something else running
// on the host, fewer than half of them, move no reported number.
const windows = 5

type window struct {
	submitLat, readLat []float64 // sorted, ms
}

// submitQ and readQ are the median over the windows of each window's
// q-quantile latency in milliseconds.
func (p *phase) submitQ(q float64) float64 {
	return p.windowMedian(func(w window) float64 { return quantileSorted(w.submitLat, q) })
}

func (p *phase) readQ(q float64) float64 {
	return p.windowMedian(func(w window) float64 { return quantileSorted(w.readLat, q) })
}

func (p *phase) windowMedian(f func(window) float64) float64 {
	var xs []float64
	for _, w := range p.windows {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// warmup is the share of the run (at most one second) whose requests are
// sent but not measured: caches fill and lazy set-up finishes first.
func warmup(seconds float64) time.Duration {
	return time.Duration(min(1, seconds/10) * float64(time.Second))
}

// measure runs the workload's clients against e for a warm-up and then the
// given time, then checks every reply against what its request wanted.
// onTimed, when set, runs once the warm-up is over (the traced run resets
// its spans there).
func measure(w workload, e engine, seconds float64, onTimed ...func()) (*phase, error) {
	n := w.clients()
	ph := &phase{log: make([][]done, n), clients: make([]client, n)}
	for i := range ph.clients {
		ph.clients[i] = w.newClient(i)
	}
	start := time.Now()
	timedStart := start.Add(warmup(seconds))
	deadline := timedStart.Add(time.Duration(seconds * float64(time.Second)))

	// The warm-up ends at a barrier so that everything recorded after it
	// (spans, counter deltas) covers timed requests only.
	var (
		wg      sync.WaitGroup
		barrier sync.WaitGroup
		gate    = make(chan struct{})
	)
	barrier.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, s := ph.clients[i], e.session(i)
			log := make([]done, 0, 1<<12)
			warm := true
			for {
				now := time.Now()
				if warm && !now.Before(timedStart) {
					warm = false
					barrier.Done()
					<-gate
				}
				if !now.Before(deadline) {
					break
				}
				o := c.next()
				for try := 0; ; try++ {
					d := send(s, o, !warm)
					log = append(log, d)
					if !d.failed() || try+1 >= resubmits {
						break
					}
				}
			}
			if warm {
				barrier.Done()
			}
			ph.log[i] = log
		}(i)
	}
	barrier.Wait()
	for _, f := range onTimed {
		f()
	}
	steal0 := readSteal()
	close(gate)
	wg.Wait()
	end := time.Now()
	ph.stealFrac = readSteal().since(steal0)
	ph.elapsed = end.Sub(timedStart).Seconds()

	ph.windows = make([]window, windows)
	part := end.Sub(timedStart) / windows
	for _, log := range ph.log {
		for i := range log {
			d := &log[i]
			if p := verify(d); p != "" {
				ph.problems = append(ph.problems, p)
			}
			if !d.timed {
				continue
			}
			ph.attempted++
			if d.failed() {
				ph.failed++
				continue
			}
			w := &ph.windows[min(windows-1, int(d.at.Sub(timedStart)/part))]
			ms := float64(d.lat) / 1e6
			if d.op.read {
				w.readLat = append(w.readLat, ms)
			} else {
				w.submitLat = append(w.submitLat, ms)
				ph.submits++
			}
		}
	}
	var rates []float64
	for _, w := range ph.windows {
		sort.Float64s(w.submitLat)
		sort.Float64s(w.readLat)
		rates = append(rates, float64(len(w.submitLat))/part.Seconds())
	}
	ph.txnPerS = median(rates)
	if len(ph.problems) > 10 {
		ph.problems = append(ph.problems[:10], fmt.Sprintf("… and %d more", len(ph.problems)-10))
	}
	if ph.submits == 0 {
		return nil, fmt.Errorf("no transaction completed in the measured phase")
	}
	return ph, nil
}

// cpuTicks are the host's steal and total CPU ticks from /proc/stat (zero
// where there is none).
type cpuTicks struct{ steal, total uint64 }

func readSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

func (t cpuTicks) since(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// send sends one request and times its reply.
func send(s session, o op, timed bool) done {
	d := done{op: o, timed: timed}
	t0 := time.Now()
	if o.read {
		rows, err := s.query(o.src)
		d.err = err
		if err == nil {
			d.rows = len(rows.Data)
			if o.want.kind == wantScalar && len(rows.Data) == 1 {
				d.rows = int(rows.Data[0][0].(int64))
			}
		}
	} else {
		d.out, d.err = s.submit(o.src)
	}
	d.at = time.Now()
	d.lat = d.at.Sub(t0)
	return d
}

// verify compares one reply with what its request wanted. Failed requests
// are counted, not judged: their re-sent copy is the one that counts.
func verify(d *done) string {
	if d.failed() {
		return ""
	}
	o, w := d.out, d.op.want
	bad := func(got string) string {
		return fmt.Sprintf("%q: want %s, got %s", d.op.src, w.describe(), got)
	}
	switch w.kind {
	case wantRows, wantScalar:
		if d.rows != w.rows {
			return bad(fmt.Sprint(d.rows))
		}
	case wantCommit, wantRepair:
		if !o.committed {
			return bad("abort: " + o.reason)
		}
		// Whether a plain commit carried a repair program depends on the
		// safety analyzer's verdict, which the benchmark does not predict;
		// a transaction that must be repaired cannot commit without one.
		if w.kind == wantRepair && o.repaired == 0 {
			return bad("commit without repair")
		}
	case wantAbort:
		if o.committed || o.constraint != w.constraint {
			return bad(fmt.Sprintf("committed=%v constraint=%q", o.committed, o.constraint))
		}
	}
	return ""
}

func (w want) describe() string {
	switch w.kind {
	case wantCommit:
		return "commit"
	case wantRepair:
		return "commit with repair"
	case wantAbort:
		return "abort by " + w.constraint
	case wantRows:
		return fmt.Sprintf("%d rows", w.rows)
	case wantScalar:
		return fmt.Sprint(w.rows)
	}
	return "any"
}

var literalRE = regexp.MustCompile(`'[^']*'|\b\d+(\.\d+)?\b`)

// shape strips a transaction's literals: two submits with the same shape
// differ only in constants.
func shape(src string) string { return literalRE.ReplaceAllString(src, "?") }

// repeatedShapeFrac is the share of measured submits whose shape an earlier
// submit of the run (warm-up included) already had.
func repeatedShapeFrac(logs [][]done) float64 {
	seen := make(map[string]bool)
	repeated, total := 0, 0
	// Clients interleave; order by position within each client's log is
	// enough for a share.
	for _, log := range logs {
		for _, d := range log {
			if d.op.read {
				continue
			}
			sh := shape(d.op.src)
			if d.timed {
				total++
				if seen[sh] {
					repeated++
				}
			}
			seen[sh] = true
		}
	}
	if total == 0 {
		return 0
	}
	return float64(repeated) / float64(total)
}
