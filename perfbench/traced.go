package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"

	"repro/internal/obs"
)

// runTraced gives the per-layer budget. It first runs the workload through
// the facade untraced for part of the time, then sets it up afresh on the
// re-composed submit path and runs it traced: spans around every layer call
// from this package, and deltas of the engine's own registry counters and
// stage histograms over the timed phase. trace.overhead_frac is the
// throughput the traced run lost against the untraced one.
func runTraced(o runOpts) (*result, error) {
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

	// Untraced reference, through the facade.
	plain, err := setUp(w, openFacade, filepath.Join(dir, "plain"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph0, err := measure(w, plain, o.seconds*0.4)
	if err != nil {
		return nil, err
	}
	if err := plain.close(); err != nil {
		return nil, err
	}
	res.problems = append(res.problems, ph0.problems...)

	// Traced run on the re-composed path.
	rec := newRecorder(w.clients())
	open := openTraced(rec)
	cfg := w.config()
	if cfg.durable {
		cfg.dir = filepath.Join(dir, "traced")
	}
	e, err := setUp(w, open, cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var (
		before, after obs.Snapshot
		rt0, rt1      runtimeSample
	)
	reg := e.registry()
	ph, err := measure(w, e, o.seconds*0.6, func() {
		rec.reset()
		before, rt0 = reg.Snapshot(), sampleRuntime()
	})
	if err != nil {
		return nil, err
	}
	after, rt1 = reg.Snapshot(), sampleRuntime()
	tc := rec.totals()
	self := rec.selfTimes()
	gap, untraced := rec.reconcile()

	fin, err := finish(w, e, open, cfg, ph.clients[0])
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, ph.problems...)
	res.problems = append(res.problems, fin.problems...)
	res.problems = append(res.problems, w.check(fin.rows, ph.log)...)
	res.attempted = ph0.attempted + ph.attempted
	res.failed = ph0.failed + ph.failed

	d := delta{before, after}
	ops := float64(max(1, ph.attempted))
	txns := float64(max(1, tc.txns))
	userBytes := float64(max(1, userBytesWritten(ph.log)))
	epochs := float64(max(1, d.counter("repro_storage_epochs_total")))
	commits := float64(max(1, d.counter("repro_storage_commits_total")))
	med := func(name string) float64 { return median(self[name]) }

	// Front end.
	res.set("lang.parse_us", "us", med("lang.parse"))
	res.set("core.modify_us", "us", med("core.modify"))
	res.set("core.render_us", "us", med("core.render"))
	res.set("algebra.typecheck_us", "us", med("algebra.typecheck"))
	res.set("core.stmts_added_per_txn", "count", float64(tc.stmtsAdded)/txns)
	// Enforcement.
	res.set("translate.checks_elided_per_txn", "count", float64(tc.checksElided)/txns)
	res.set("translate.elided_frac", "frac", float64(tc.checksElided)/float64(max(1, tc.checksElided+tc.checksKept)))
	res.set("translate.repairs_per_txn", "count", float64(tc.repairs)/txns)
	res.set("algebra.user_exec_us", "us", med("algebra.user_exec"))
	res.set("algebra.check_exec_us", "us", med("algebra.check_exec"))
	res.set("index.probes_per_txn", "count", float64(d.counter("repro_index_probes_total"))/txns)
	res.set("index.range_probes_per_txn", "count", float64(d.counter("repro_index_range_probes_total"))/txns)
	res.set("index.full_scans_per_txn", "count", float64(d.counter("repro_index_full_scans_total"))/txns)
	// Transaction layer.
	res.set("txn.attempts_per_txn", "count", float64(tc.attempts)/txns)
	res.set("txn.commit_per_attempt", "frac", float64(tc.commits)/float64(max(1, tc.attempts)))
	res.set("txn.read_keys_per_txn", "count", d.hist("repro_txn_read_keys_size").Mean())
	res.set("txn.read_relations_per_txn", "count", d.hist("repro_txn_read_relations_size").Mean())
	// Commit pipeline.
	res.set("storage.commit_wait_us", "us", med("storage.commit"))
	res.set("storage.validate_us", "us", d.hist("repro_storage_stage_validate_seconds").Mean()/1e3)
	res.set("storage.derive_us", "us", d.hist("repro_storage_stage_derive_seconds").Mean()/1e3)
	res.set("storage.wal_us", "us", d.hist("repro_storage_stage_wal_seconds").Mean()/1e3)
	res.set("storage.publish_us", "us", d.hist("repro_storage_stage_publish_seconds").Mean()/1e3)
	res.set("storage.txns_per_epoch", "count", commits/epochs)
	res.set("storage.merged_per_txn", "count", float64(d.counter("repro_storage_merged_commits_total"))/commits)
	res.set("wal.fsyncs_per_epoch", "count", float64(d.counter("repro_wal_fsyncs_total"))/epochs)
	res.set("wal.fsync_us", "us", d.hist("repro_wal_fsync_seconds").Mean()/1e3)
	res.set("wal.bytes_per_user_byte", "B/B", float64(d.hist("repro_wal_append_bytes").Sum)/userBytes)
	// Checkpoints.
	res.set("checkpoint.runs", "count", float64(d.counter("repro_checkpoint_runs_total")))
	res.set("checkpoint.busy_s", "s", float64(d.hist("repro_checkpoint_seconds").Sum)/1e9)
	res.set("checkpoint.bytes_per_user_byte", "B/B", float64(d.hist("repro_checkpoint_bytes").Sum)/userBytes)
	// Node cache.
	hits, misses := d.counter("repro_storage_cache_hits_total"), d.counter("repro_storage_cache_misses_total")
	res.set("storage.cache_hit_rate", "frac", float64(hits)/float64(max(1, hits+misses)))
	res.set("storage.cache_misses_per_op", "count", float64(misses)/ops)
	res.set("storage.cache_evictions_per_op", "count", float64(d.counter("repro_storage_cache_evictions_total"))/ops)
	res.set("storage.cache_fault_us", "us", d.hist("repro_storage_cache_fault_seconds").Mean()/1e3)
	// Recovery: the reopen after the run.
	rs := fin.reopenMetrics
	res.set("recovery.replay_records", "count", float64(rs.Counters["repro_recovery_replayed_records_total"]))
	res.set("recovery.open_s", "s", float64(rs.Histograms["repro_recovery_open_seconds"].Sum)/1e9)
	// Runtime and tracing.
	res.set("runtime.alloc_bytes_per_op", "B", float64(rt1.allocBytes-rt0.allocBytes)/ops)
	res.set("runtime.gc_cpu_frac", "frac", (rt1.gcCPU-rt0.gcCPU)/max(1e-9, rt1.totalCPU-rt0.totalCPU))
	res.set("trace.overhead_frac", "frac", 1-ph.txnPerS/ph0.txnPerS)

	res.env["txn_per_s_untraced"] = ph0.txnPerS
	res.env["txn_per_s_traced"] = ph.txnPerS
	res.env["span_reconcile_max_gap"] = gap
	res.env["untraced_remainder_frac"] = untraced
	res.env["traced_txns"] = tc.txns
	res.env["user_bytes_written"] = userBytes
	res.env["repeated_shape_frac"] = repeatedShapeFrac(ph.log)
	res.env["spans"] = spanCount(rec)
	path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.csv", w.name(), o.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	res.env["span_file"] = path
	return res, nil
}

func spanCount(r *recorder) int {
	n := 0
	for _, b := range r.bufs {
		n += len(b.spans)
	}
	return n
}

// delta is the change of the engine's registry over the timed phase.
type delta struct{ a, b obs.Snapshot }

func (d delta) counter(name string) uint64 { return d.b.Counters[name] - d.a.Counters[name] }

func (d delta) hist(name string) obs.HistSnapshot {
	x, y := d.a.Histograms[name], d.b.Histograms[name]
	return obs.HistSnapshot{Count: y.Count - x.Count, Sum: y.Sum - x.Sum}
}

type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}
