package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share txn;
// parent indexes the caller's span in the same buffer (-1 for a root).
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int32
	txn        int64
}

// counts are per-client tallies taken at the same boundaries as the spans.
type counts struct {
	txns, attempts, commits int
	stmtsAdded              int
	checksKept              int // alarm statements left in modified programs
	checksElided            int
	repairs                 int
}

// spanBuf is one client's span log; only that client's goroutine appends.
type spanBuf struct {
	epoch time.Time
	id    int64 // next txn id; clients use disjoint ranges
	spans []span
	c     counts
}

func (b *spanBuf) newTxn() int64 { b.id++; return b.id }

func (b *spanBuf) begin(name string, parent int32, txn int64) int32 {
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), parent: parent, txn: txn})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) { b.spans[i].end = int64(time.Since(b.epoch)) }

// reset drops what was recorded so far (set-up and warm-up requests).
func (b *spanBuf) reset() {
	b.spans = b.spans[:0]
	b.c = counts{}
}

// recorder owns the clients' span buffers. Spans stay in memory until the
// run ends and are then written out in one go.
type recorder struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newRecorder(clients int) *recorder {
	r := &recorder{epoch: time.Now()}
	for i := 0; i < clients; i++ {
		r.bufs = append(r.bufs, &spanBuf{epoch: r.epoch, id: int64(i) << 40})
	}
	return r
}

func (r *recorder) buffer(i int) *spanBuf { return r.bufs[i] }

func (r *recorder) reset() {
	for _, b := range r.bufs {
		b.reset()
	}
}

func (r *recorder) totals() counts {
	var t counts
	for _, b := range r.bufs {
		t.txns += b.c.txns
		t.attempts += b.c.attempts
		t.commits += b.c.commits
		t.stmtsAdded += b.c.stmtsAdded
		t.checksKept += b.c.checksKept
		t.checksElided += b.c.checksElided
		t.repairs += b.c.repairs
	}
	return t
}

// selfTimes returns, per span name, the self time of every span in
// microseconds: its duration minus the part of it its child spans cover.
// Children never overlap (one client calls one layer at a time), so the
// covered part is the sum of the children's durations.
func (r *recorder) selfTimes() map[string][]float64 {
	out := make(map[string][]float64)
	for _, b := range r.bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			out[s.name] = append(out[s.name], float64(s.end-s.start-child[i])/1e3)
		}
	}
	return out
}

// write stores every span as one CSV line: txn,span,parent,name,start_ns,end_ns.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "txn,span,parent,name,start_ns,end_ns")
	for bi, b := range r.bufs {
		for i, s := range b.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(bi)<<32 | int64(s.parent)
			}
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.txn, int64(bi)<<32|int64(i), parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reconcile sums, over every root span, the self times of the root and of
// all its descendants and compares them with the root's duration; it
// returns the largest relative gap and the share of root time that no
// layer span covers (the root's self time: the untraced remainder).
func (r *recorder) reconcile() (maxGap, untraced float64) {
	var rootTotal, rootSelf float64
	for _, b := range r.bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		// Attribute every span's self time to its root.
		root := make([]int32, len(b.spans))
		sum := make(map[int32]int64)
		for i, s := range b.spans {
			if s.parent < 0 {
				root[i] = int32(i)
			} else {
				root[i] = root[s.parent]
			}
			sum[root[i]] += s.end - s.start - child[i]
		}
		for ri, total := range sum {
			s := b.spans[ri]
			d := s.end - s.start
			if d <= 0 {
				continue
			}
			gap := float64(total-d) / float64(d)
			if gap < 0 {
				gap = -gap
			}
			maxGap = max(maxGap, gap)
			rootTotal += float64(d)
			rootSelf += float64(d - child[ri])
		}
	}
	if rootTotal > 0 {
		untraced = rootSelf / rootTotal
	}
	return maxGap, untraced
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted interpolates the q-quantile of sorted values.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
