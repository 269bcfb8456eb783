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
		walAppends: reg.Counter("flare_store_wal_appends_total",
			"records appended to the store's write-ahead log"),
		walBatches: reg.Counter("flare_store_wal_commit_batches_total",
			"group-commit batches written to the WAL (one write+fsync each)"),
		walBytes: reg.Counter("flare_store_wal_bytes_total",
			"bytes written to the WAL"),
		walFsync: reg.Histogram("flare_store_wal_fsync_seconds",
			"WAL fsync latency", nil),
		flushes: reg.Counter("flare_store_flushes_total",
			"memtable flushes to segment files"),
		compactions: reg.Counter("flare_store_compactions_total",
			"segment compactions (merges)"),
		tornTails: reg.Counter("flare_store_torn_tails_total",
			"torn WAL tails truncated during recovery"),
		recovered: reg.Counter("flare_store_recovered_records_total",
			"records replayed from the WAL during recovery"),
		segsLive: reg.Gauge("flare_store_segments_live",
			"live segment files in the manifest"),
	}
}
