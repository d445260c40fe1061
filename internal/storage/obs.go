// Observability wiring for the storage layer: the resolved metric handles
// every pipeline stage bumps, and the registry/tracer plumbing the facade
// and the txn layer hang off the Database.
package storage

import (
	"repro/internal/obs"
)

// storeMetrics holds the storage/index/checkpoint/recovery metric handles,
// resolved once against a registry so the commit pipeline never touches the
// registry map. Built from a nil registry every field is nil, which turns
// each update into a single branch (the obs types are nil-receiver-safe) —
// the metrics-off ablation. d.met itself is never nil.
type storeMetrics struct {
	commits        *obs.Counter
	conflicts      *obs.Counter
	crossShard     *obs.Counter
	merged         *obs.Counter
	intraMerged    *obs.Counter
	epochs         *obs.Counter
	snapshotTooOld *obs.Counter

	epochTxns     *obs.Histogram // members per epoch
	stageValidate *obs.Histogram // stage V: validation loop
	stageDerive   *obs.Histogram // stage V: successor + index derivation
	stageWAL      *obs.Histogram // stage V: WAL append (+ group fsync)
	stagePublish  *obs.Histogram // stage P: order wait + snapshot swap
	inflight      *obs.Gauge     // epochs derived but not yet published

	ckptRuns    *obs.Counter
	ckptFull    *obs.Counter
	ckptSeconds *obs.Histogram
	ckptBytes   *obs.Histogram

	replayRecords *obs.Counter
	replayBytes   *obs.Counter
	openSeconds   *obs.Histogram
}

// newStoreMetrics resolves the storage metric set against reg; a nil
// registry yields the all-disabled handle set.
func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	m := &storeMetrics{}
	if reg == nil {
		return m
	}
	m.commits = reg.Counter("repro_storage_commits_total")
	m.conflicts = reg.Counter("repro_storage_conflicts_total")
	m.crossShard = reg.Counter("repro_storage_cross_shard_commits_total")
	m.merged = reg.Counter("repro_storage_merged_commits_total")
	m.intraMerged = reg.Counter("repro_storage_intra_batch_merges_total")
	m.epochs = reg.Counter("repro_storage_epochs_total")
	m.snapshotTooOld = reg.Counter("repro_storage_snapshot_too_old_total")
	m.epochTxns = reg.Histogram("repro_storage_epoch_txns_size")
	m.stageValidate = reg.Histogram("repro_storage_stage_validate_seconds")
	m.stageDerive = reg.Histogram("repro_storage_stage_derive_seconds")
	m.stageWAL = reg.Histogram("repro_storage_stage_wal_seconds")
	m.stagePublish = reg.Histogram("repro_storage_stage_publish_seconds")
	m.inflight = reg.Gauge("repro_storage_pipeline_inflight_epochs")
	m.ckptRuns = reg.Counter("repro_checkpoint_runs_total")
	m.ckptFull = reg.Counter("repro_checkpoint_full_total")
	m.ckptSeconds = reg.Histogram("repro_checkpoint_seconds")
	m.ckptBytes = reg.Histogram("repro_checkpoint_bytes")
	m.replayRecords = reg.Counter("repro_recovery_replayed_records_total")
	m.replayBytes = reg.Counter("repro_recovery_replayed_bytes_total")
	m.openSeconds = reg.Histogram("repro_recovery_open_seconds")
	return m
}

// SetObservability points the database at a metrics registry and tracer.
// The registry is get-or-create per name, so sharing one registry between
// databases (or re-pointing after Clone) is well-defined: their counters
// sum. A nil registry disables metrics entirely — Stats() then reads zero —
// and a nil tracer disables events. Configure before concurrent use; the
// commit pipeline reads these fields without synchronization. A durable
// database's WAL writer resolves its own metric handles at Open time from
// DurOptions.Metrics and is not re-pointed here.
func (d *Database) SetObservability(reg *obs.Registry, tr obs.Tracer) {
	d.reg = reg
	d.met = newStoreMetrics(reg)
	d.tr = tr
}

// Registry returns the database's metrics registry (nil when disabled).
// The txn layer and the facade resolve their own metric handles from it.
func (d *Database) Registry() *obs.Registry { return d.reg }

// Tracer returns the database's tracer (nil when disabled).
func (d *Database) Tracer() obs.Tracer { return d.tr }
