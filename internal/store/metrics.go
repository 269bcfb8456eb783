package store

import "flare/internal/obs"

// storeMetrics bundles the engine's flare_store_* instruments so hot
// paths hold direct handles instead of re-resolving registry names.
type storeMetrics struct {
	walAppends *obs.Counter   // records appended to the WAL
	walBatches *obs.Counter   // group-commit batches written
	walBytes   *obs.Counter   // bytes written to the WAL
	walFsync   *obs.Histogram // WAL fsync latency (seconds)

	flushes     *obs.Counter // memtable flushes
	compactions *obs.Counter // segment merges
	tornTails   *obs.Counter // torn WAL tails truncated during recovery
	recovered   *obs.Counter // records replayed from the WAL on open
	segsLive    *obs.Gauge   // live segments in the manifest
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	return &storeMetrics{
		walAppends:  obs.StoreWALAppends.In(reg),
		walBatches:  obs.StoreWALCommitBatches.In(reg),
		walBytes:    obs.StoreWALBytes.In(reg),
		walFsync:    obs.StoreWALFsync.In(reg),
		flushes:     obs.StoreFlushes.In(reg),
		compactions: obs.StoreCompactions.In(reg),
		tornTails:   obs.StoreTornTails.In(reg),
		recovered:   obs.StoreRecoveredRecords.In(reg),
		segsLive:    obs.StoreSegmentsLive.In(reg),
	}
}
