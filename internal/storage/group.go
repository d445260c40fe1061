// Group commit: the epoch-batched commit point. CommitValidated no longer
// validates and publishes one transaction at a time — pending commits
// enqueue onto a global queue, the first enqueuer becomes the drainer, and
// the drainer claims the whole queue (bounded by the epoch limit) as one
// epoch. The epoch runs in two pipelined stages:
//
//   - Stage V (validate + derive), on the drainer: the union of the
//     members' shard sets is locked in canonical ascending order, every
//     member is validated first-committer-wins against the shard log
//     segments (cross-epoch) and then against the members accepted before
//     it in queue order (intra-epoch, at the same tuple-key / probed-key /
//     interval granularity — commuting members merge instead of retrying).
//     The accepted members' net deltas are aggregated per relation, ONE
//     successor trie instance and ONE index-layer push are derived per
//     written relation for the whole batch, a block of logical times is
//     reserved off the epoch clock, and one shared log record is appended
//     to every written shard's segment. The derived instances are parked in
//     the shards' shadow state (shard.latest/latestIdx) so the next epoch
//     can build on them before this one publishes.
//
//   - Stage P (publish), handed to a waiting member goroutine so the
//     drainer can start validating the next epoch immediately: wait for the
//     predecessor epoch's snapshot swap (epochs publish in clock order),
//     install the whole batch's successors in a single snapshot swap, bump
//     the counters and wake every member.
//
// Because stage V appends the epoch's log record under the shard locks
// before stage P runs, the next epoch validates against it even though the
// snapshot swap is still in flight — that is what makes the two-stage
// pipeline safe.
package storage

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/relation"
)

// groupQueue is the global group-commit queue. The first goroutine to
// enqueue while no drain is running becomes the drainer; everyone else
// parks on their pending's done channel. Both the queue and the drainer
// hand-off are guarded by mu, so a late enqueuer either joins a batch the
// drainer is about to claim or observes the drain finished and takes over.
type groupQueue struct {
	mu       sync.Mutex
	queue    []*pending
	draining bool
}

// pending is one commit waiting in the group-commit queue, together with
// its outcome slots. The done channel carries at most one function value:
// a non-nil receive asks this member's goroutine to run the epoch's publish
// stage (pipelining); a nil receive means the outcome fields are final.
type pending struct {
	c      *Commit
	shards []int          // ascending shard indices of the read+write set
	homes  map[string]int // relation name -> home shard
	done   chan func()

	time     uint64    // assigned commit time (0 when conflicted)
	conflict *Conflict // non-nil when validation failed
	err      error     // non-nil when the epoch's WAL append failed (durable only)
	merged   bool      // absorbed a concurrent disjoint delta (cross- or intra-epoch)
	intra    bool      // the merge partner was a member of the same epoch
}

// relAgg aggregates everything one epoch writes to one relation: the union
// of the accepted members' net deltas (tuple-disjoint by validation), or a
// verbatim instance for relation-granular installs, which exclude every
// other writer of the relation from the epoch.
type relAgg struct {
	home     int
	ins, del *relation.Relation
	inst     *relation.Relation
}

// newPending packages a checked commit for the queue, computing its shard
// set and home map once so no hashing happens under locks.
func (d *Database) newPending(c *Commit) *pending {
	p := &pending{c: c, done: make(chan func(), 1)}
	homes := make(map[string]int, len(c.Reads)+len(c.Changed))
	touched := make([]bool, len(d.shards))
	for name := range c.Reads {
		si := d.ShardOf(name)
		homes[name] = si
		touched[si] = true
	}
	for name := range c.Changed {
		si := d.ShardOf(name)
		homes[name] = si
		touched[si] = true
	}
	shards := make([]int, 0, 2)
	for i, t := range touched {
		if t {
			shards = append(shards, i)
		}
	}
	p.shards, p.homes = shards, homes
	return p
}

// drain is the epoch loop run by the goroutine that found the queue idle:
// claim up to maxEpoch pending commits as one epoch, process it, repeat
// until the queue is empty, then hand the drainer role back. leader is the
// drainer's own pending (a member of the first epoch), which must not be
// chosen as a publish delegate — it is busy draining.
func (d *Database) drain(leader *pending) {
	// The drainer role migrates between committer goroutines; the pprof
	// label attributes its CPU time (validation, derivation, WAL appends)
	// to the pipeline stage regardless of which goroutine holds the role.
	pprof.Do(context.Background(), pprof.Labels("stage", "drainer"), func(context.Context) {
		for {
			d.gq.mu.Lock()
			n := len(d.gq.queue)
			if n == 0 {
				d.gq.draining = false
				d.gq.mu.Unlock()
				return
			}
			if d.maxEpoch > 0 && n > d.maxEpoch {
				n = d.maxEpoch
			}
			batch := d.gq.queue[:n:n]
			if n == len(d.gq.queue) {
				d.gq.queue = nil
			} else {
				d.gq.queue = append([]*pending(nil), d.gq.queue[n:]...)
			}
			d.gq.mu.Unlock()
			d.processEpoch(batch, leader)
		}
	})
}

// processEpoch runs stage V for one batch and hands stage P to a member.
func (d *Database) processEpoch(batch []*pending, leader *pending) {
	// Lock the union of the members' shard sets in canonical ascending
	// order (deadlock-free, same as the old per-commit protocol).
	touched := make([]bool, len(d.shards))
	for _, p := range batch {
		for _, si := range p.shards {
			touched[si] = true
		}
	}
	locked := make([]int, 0, len(d.shards))
	for i, t := range touched {
		if t {
			d.shards[i].mu.Lock()
			locked = append(locked, i)
		}
	}

	// Every member is validated against the same published snapshot; the
	// shards' shadow state overrides it with the successors of epochs that
	// are derived but not yet swapped in.
	met, tr := d.met, d.tr
	met.epochTxns.Observe(uint64(len(batch)))
	var tValidate time.Time
	if met.stageValidate != nil {
		tValidate = time.Now()
	}
	snap := d.snap.Load()
	agg := make(map[string]*relAgg)
	accepted := make([]*pending, 0, len(batch))
	var lateConflicts []*Conflict
	for _, p := range batch {
		if p.c.Reads != nil { // nil Reads installs verbatim, unvalidated
			var cf *Conflict
			for _, si := range p.shards {
				if cf = d.validateShard(p.c, si, p.homes, &p.merged); cf != nil {
					break
				}
			}
			if cf == nil {
				if cf = p.validateIntra(agg); cf != nil {
					lateConflicts = append(lateConflicts, cf)
				}
			}
			if cf != nil {
				p.conflict = cf
				p.merged, p.intra = false, false
				met.conflicts.Inc()
				if cf.Relation == "" {
					// validateShard refused the stale base outright.
					met.snapshotTooOld.Inc()
					if tr != nil {
						tr.Event(obs.Event{Kind: obs.EvSnapshotTooOld, Txn: p.c.Label, Time: cf.Time})
					}
				}
				if tr != nil {
					tr.Event(obs.Event{Kind: obs.EvTxnValidate, Txn: p.c.Label, OK: false, Relation: cf.Relation, Key: cf.Key, Time: cf.Time})
				}
				continue
			}
			if tr != nil {
				tr.Event(obs.Event{Kind: obs.EvTxnValidate, Txn: p.c.Label, OK: true})
			}
		}
		accepted = append(accepted, p)
		p.foldWrites(agg)
	}
	if met.stageValidate != nil {
		met.stageValidate.Observe(uint64(time.Since(tValidate)))
	}

	// Reserve a contiguous block of logical times: member i of the epoch
	// commits at first+i, the snapshot swap lands at last, and the epoch's
	// single log record is keyed by last. Base times are always some
	// epoch's last, so "record.Time > BaseTime" keeps selecting exactly the
	// epochs the requester has not seen.
	k := uint64(len(accepted))
	var first, last uint64
	if k > 0 {
		last = d.clock.Add(k)
		first = last - k + 1
		for i, p := range accepted {
			p.time = first + uint64(i)
		}
		for _, cf := range lateConflicts {
			cf.Time = last // the winning member commits within this epoch
		}
		met.inflight.Add(1) // derived-but-unpublished from here to the swap
	}

	// Derive one successor instance and one index push per written
	// relation for the whole batch, from the shadow state when a prior
	// unpublished epoch wrote the relation, from the snapshot otherwise.
	// This pass is pure — the shadow state is only written after the WAL
	// record lands, so a failed append leaves nothing for later epochs to
	// build on.
	var tDerive time.Time
	if met.stageDerive != nil {
		tDerive = time.Now()
	}
	install := make(map[string]*relation.Relation, len(agg))
	var derived map[string]*index.Set
	var recIns, recDel map[string]*relation.Relation
	epochWrites := make(map[string]bool, len(agg))
	for name, a := range agg {
		sh := d.shards[a.home]
		baseIdx := sh.latestIdx[name]
		if baseIdx == nil {
			baseIdx = snap.idx[name]
		}
		var inst *relation.Relation
		var set *index.Set
		if a.inst != nil {
			inst = a.inst.Seal()
			if baseIdx.Len() > 0 {
				set = baseIdx.Rebuild(inst)
			}
		} else {
			base := sh.latest[name]
			if base == nil {
				base = snap.rels[name]
			}
			if a.del != nil {
				a.del.Seal()
			}
			if a.ins != nil {
				a.ins.Seal()
			}
			succ := base.Clone()
			if a.del != nil {
				succ.DiffInPlace(a.del)
			}
			if a.ins != nil {
				succ.UnionInPlace(a.ins)
			}
			inst = succ.Seal()
			if baseIdx.Len() > 0 {
				set = baseIdx.Apply(a.ins, a.del)
			}
			if a.ins != nil {
				if recIns == nil {
					recIns = make(map[string]*relation.Relation, len(agg))
				}
				recIns[name] = a.ins
			}
			if a.del != nil {
				if recDel == nil {
					recDel = make(map[string]*relation.Relation, len(agg))
				}
				recDel[name] = a.del
			}
		}
		install[name] = inst
		if set != nil {
			if derived == nil {
				derived = make(map[string]*index.Set, len(agg))
			}
			derived[name] = set
		}
		epochWrites[name] = true
	}
	if met.stageDerive != nil {
		met.stageDerive.Observe(uint64(time.Since(tDerive)))
	}

	// Durable: append the epoch's WAL record (one part per written shard,
	// group-fsynced under SyncAlways) before any shadow state or commit-log
	// record exists — the write-ahead point. A failed append aborts the
	// epoch: the reserved times still publish (as an empty install, keeping
	// the swap clock contiguous) but the members fail with the error.
	var walErr error
	var recLSN uint64
	var walBytes int64
	if k > 0 && len(agg) > 0 && d.dur != nil {
		var tWAL time.Time
		if met.stageWAL != nil || tr != nil {
			tWAL = time.Now()
		}
		recLSN, walBytes, walErr = d.dur.appendEpoch(last, agg, install, recIns, recDel)
		var dWAL time.Duration
		if met.stageWAL != nil || tr != nil {
			dWAL = time.Since(tWAL)
		}
		if met.stageWAL != nil {
			met.stageWAL.Observe(uint64(dWAL))
		}
		if walErr == nil && tr != nil {
			tr.Event(obs.Event{Kind: obs.EvWALAppend, Epoch: last, LSN: recLSN, Bytes: uint64(walBytes), Dur: dWAL})
		}
	}

	if walErr == nil && k > 0 && len(epochWrites) > 0 {
		// Park the derived instances in the shard shadows and append the
		// epoch's single commit-log record to every written shard, still
		// under the shard locks, so the next epoch validates against it
		// before this one publishes. Retention is by covered logical-time
		// span, not record count: one epoch record may cover many
		// transactions, so a count bound would evict base windows faster
		// the better batching works.
		for name, a := range agg {
			sh := d.shards[a.home]
			if sh.latest == nil {
				sh.latest = make(map[string]*relation.Relation)
			}
			sh.latest[name] = install[name]
			if set := derived[name]; set != nil {
				if sh.latestIdx == nil {
					sh.latestIdx = make(map[string]*index.Set)
				}
				sh.latestIdx[name] = set
			}
		}
		rec := &Delta{Time: last, Ins: recIns, Del: recDel, writes: epochWrites}
		wtouched := make([]bool, len(d.shards))
		for _, a := range agg {
			wtouched[a.home] = true
		}
		for si, t := range wtouched {
			if !t {
				continue
			}
			sh := d.shards[si]
			sh.log = append(sh.log, rec)
			if last > d.retain {
				cut := last - d.retain
				drop := sort.Search(len(sh.log), func(i int) bool { return sh.log[i].Time > cut })
				if drop > 0 {
					sh.truncated = sh.log[drop-1].Time
					sh.log = append(sh.log[:0:0], sh.log[drop:]...)
				}
			}
		}
	}

	d.unlockShards(locked)

	if walErr != nil {
		for _, p := range accepted {
			p.err = walErr
			p.time = 0
			p.merged, p.intra = false, false
		}
		install, derived, recLSN = nil, nil, 0
	}
	if d.dur != nil && walBytes > 0 && walErr == nil {
		d.dur.bytes.Add(walBytes)
		d.dur.maybeCheckpoint(d)
	}

	// Stage P: one snapshot swap for the whole epoch, in clock order. A
	// WAL-failed epoch still swaps (an empty install at its reserved time)
	// so the publish clock stays contiguous, but installs nothing and
	// counts nothing.
	publish := func() {
		if k > 0 {
			var tPublish time.Time
			if met.stagePublish != nil || tr != nil {
				tPublish = time.Now()
			}
			d.pubMu.Lock()
			for d.snap.Load().time != first-1 {
				d.pubCond.Wait()
			}
			cur := d.snap.Load()
			next := cur.withInstalled(install, last, derived)
			if recLSN != 0 {
				next.lsn = recLSN
			}
			d.publishSnap(next)
			d.pubCond.Broadcast()
			d.pubMu.Unlock()
			met.inflight.Add(-1)
			if walErr == nil {
				met.commits.Add(k)
				met.epochs.Inc()
				for _, p := range accepted {
					if len(p.shards) > 1 {
						met.crossShard.Inc()
					}
					if p.merged {
						met.merged.Inc()
					}
					if p.intra {
						met.intraMerged.Inc()
					}
					if tr != nil {
						tr.Event(obs.Event{Kind: obs.EvTxnCommit, Txn: p.c.Label, Time: p.time, Epoch: last})
					}
				}
			}
			var dPublish time.Duration
			if met.stagePublish != nil || tr != nil {
				dPublish = time.Since(tPublish)
			}
			if met.stagePublish != nil {
				met.stagePublish.Observe(uint64(dPublish))
			}
			if tr != nil {
				tr.Event(obs.Event{Kind: obs.EvEpochPublish, Epoch: last, N: k, Dur: dPublish})
			}
		}
		for _, p := range batch {
			p.done <- nil
		}
	}

	// Pipeline: delegate the publish to a member that is already parked
	// waiting for its outcome, so the drainer can validate the next epoch
	// while this one swaps in. The drainer's own pending never delegates —
	// it is running this very loop — so a drainer-only batch publishes
	// inline.
	for _, p := range batch {
		if p != leader {
			p.done <- publish
			return
		}
	}
	publish()
}

// validateIntra validates this member against the writes already accepted
// into the epoch, in queue order, at the same granularity as cross-epoch
// validation: a whole-relation read or a verbatim install conflicts with
// any co-writer, a keyed/probed/interval read conflicts only when the
// aggregated epoch delta overlaps it, and a disjoint co-write merges (the
// epoch's shared successor carries both deltas). The returned conflict's
// Time is patched to the epoch's last reserved time by the caller.
func (p *pending) validateIntra(agg map[string]*relAgg) *Conflict {
	for name, ri := range p.c.Reads {
		a := agg[name]
		if a == nil {
			continue
		}
		if ri.Full || a.inst != nil {
			return &Conflict{Relation: name}
		}
		if key := ri.overlapKey(a.ins, a.del); key != "" {
			return &Conflict{Relation: name, Key: key}
		}
		if _, written := p.c.Changed[name]; written {
			p.merged, p.intra = true, true
		}
	}
	return nil
}

// foldWrites merges an accepted member's write set into the epoch
// aggregate. Accepted members' deltas are tuple-disjoint (their written
// keys are in their read records, and validateIntra just proved those
// disjoint from the aggregate), so the per-relation aggregate is a plain
// union with no cross-cancellation. The single-writer case — by far the
// common one — reuses the member's delta relations without copying.
func (p *pending) foldWrites(agg map[string]*relAgg) {
	for name := range p.c.Changed {
		a := agg[name]
		if a == nil {
			a = &relAgg{home: p.homes[name]}
			agg[name] = a
		}
		ins, del := p.c.Ins[name], p.c.Del[name]
		if ins == nil && del == nil {
			// Verbatim install: validation forces whole-relation reads on
			// these, so no delta writer of the relation coexists in the
			// epoch.
			a.inst = p.c.Changed[name]
			continue
		}
		a.ins = mergeDelta(a.ins, ins)
		a.del = mergeDelta(a.del, del)
	}
}

// mergeDelta unions one member's delta into the aggregate. The aggregate
// aliases the first member's relation outright; a second writer clones it
// (O(1) trie share) before the in-place union, so no member's own delta is
// ever mutated.
func mergeDelta(acc, d *relation.Relation) *relation.Relation {
	if d == nil {
		return acc
	}
	if acc == nil {
		return d
	}
	m := acc.Clone()
	m.UnionInPlace(d)
	return m
}
