package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// recordingEngine writes down the set-up calls a workload makes.
type recordingEngine struct{ sb strings.Builder }

func (r *recordingEngine) createRelation(ddl string) error { fmt.Fprintln(&r.sb, ddl); return nil }
func (r *recordingEngine) defineConstraint(name, cond string) error {
	fmt.Fprintln(&r.sb, name, cond)
	return nil
}
func (r *recordingEngine) createIndex(decl string) error { fmt.Fprintln(&r.sb, decl); return nil }
func (r *recordingEngine) load(rel string, rows [][]any) error {
	fmt.Fprintln(&r.sb, rel, rows)
	return nil
}
func (r *recordingEngine) checkpoint() error       { return nil }
func (r *recordingEngine) session(int) session     { return nil }
func (r *recordingEngine) registry() *obs.Registry { return nil }
func (r *recordingEngine) close() error            { return nil }

// inputs renders everything a workload generates for a seed: its set-up
// and the first requests of every client.
func inputs(t *testing.T, name string, seed int64) string {
	t.Helper()
	w, err := newWorkload(name, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	var e recordingEngine
	if err := defineAndPopulate(w, &e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.clients(); i++ {
		c := w.newClient(i)
		for j := 0; j < 300; j++ {
			fmt.Fprintf(&e.sb, "%d %+v\n", i, c.next())
		}
	}
	return e.sb.String()
}

func TestInputsFollowSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := inputs(t, name, 1), inputs(t, name, 1), inputs(t, name, 2)
		if a != b {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMetricNames(t *testing.T) {
	d := readDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	var names []string
	for _, m := range d.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range d.PerLayer {
		names = append(names, m.Name)
	}
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range d.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
}

// TestSmoke runs every workload on tiny inputs, untraced and traced: each
// passes its output checks and emits every metric BENCHMARK.json declares,
// with the declared unit; the end-to-end ones are never zero.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				o := runOpts{workload: name, seed: 3, seconds: 1, tiny: true, workdir: t.TempDir()}
				run := runUntraced
				if traced {
					run = runTraced
				}
				res, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.problems) > 0 || res.failed > 0 || res.attempted == 0 {
					t.Fatalf("attempted %d, failed %d, problems %v", res.attempted, res.failed, res.problems)
				}
				want := map[string]string{}
				if traced {
					for _, m := range d.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range d.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(res.metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", n)
					case m.Unit != unit:
						t.Errorf("metric %s: unit %q, declared %q", n, m.Unit, unit)
					case !traced && !(m.Value > 0):
						t.Errorf("metric %s = %v, want > 0", n, m.Value)
					}
				}
			})
		}
	}
}

// TestTracedPathMatchesFacade sends one request stream through DB.Submit
// and through the re-composed traced path: every decision and the final
// state must agree, and the spans must nest and reconcile.
func TestTracedPathMatchesFacade(t *testing.T) {
	for _, name := range []string{"oltp", "adhoc"} {
		t.Run(name, func(t *testing.T) {
			w, _ := newWorkload(name, 5, true)
			rec := newRecorder(1)
			var outs [2][]string
			var finals [2]map[string][][]any
			for k, open := range []opener{openFacade, openTraced(rec)} {
				e, err := setUp(w, open, "")
				if err != nil {
					t.Fatal(err)
				}
				c, s := w.newClient(0), e.session(0)
				for i := 0; i < 400; i++ {
					o := c.next()
					if o.read {
						rows, err := s.query(o.src)
						if err != nil {
							t.Fatal(err)
						}
						outs[k] = append(outs[k], fmt.Sprint(len(rows.Data)))
						continue
					}
					out, err := s.submit(o.src)
					if err != nil {
						t.Fatal(err)
					}
					outs[k] = append(outs[k], fmt.Sprint(out.committed, out.constraint, out.repaired))
				}
				if finals[k], err = dump(s, w.relations()); err != nil {
					t.Fatal(err)
				}
				e.close()
			}
			for i := range outs[0] {
				if outs[0][i] != outs[1][i] {
					t.Fatalf("request %d: facade %s, traced %s", i, outs[0][i], outs[1][i])
				}
			}
			for _, rel := range w.relations() {
				if diff := diffRows(rel, finals[1][rel], finals[0][rel]); len(diff) > 0 {
					t.Errorf("final state differs: %v", diff)
				}
			}
			checkSpans(t, rec)
		})
	}
}

func checkSpans(t *testing.T, rec *recorder) {
	t.Helper()
	for _, b := range rec.bufs {
		for _, s := range b.spans {
			if s.end < s.start {
				t.Fatalf("span %s ends before it starts", s.name)
			}
			if s.parent >= 0 {
				p := b.spans[s.parent]
				if s.start < p.start || s.end > p.end || s.txn != p.txn {
					t.Fatalf("span %s not inside its parent %s", s.name, p.name)
				}
			}
		}
	}
	gap, untraced := rec.reconcile()
	if gap > 1e-9 {
		t.Errorf("self times do not add up to the root spans: largest gap %v", gap)
	}
	// The layer spans cover almost all of a request; what is left is the
	// benchmark's own bookkeeping between them.
	if untraced > 0.25 {
		t.Errorf("untraced remainder %.2f of request time", untraced)
	}
	if len(rec.selfTimes()["core.modify"]) == 0 {
		t.Error("no core.modify spans recorded")
	}
}
