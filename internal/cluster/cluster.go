// Package cluster turns flare-server into an N-node system: a
// consistent-hash ring assigns scenario/estimate keys to shards, and
// WAL-shipping replication keeps follower copies of the durable store
// byte-identical to their leader.
//
// The pieces compose but do not depend on each other:
//
//   - Ring (ring.go) is pure placement: virtual nodes hashed with
//     FNV-1a, ownership by binary search. Placement is a deterministic
//     function of the member set, independent of join order.
//   - Shipper (ship.go) is the leader side of replication: it records
//     the store's ReplicationEvents in a bounded in-memory log, streams
//     them to followers over the length-prefixed protocol in proto.go,
//     and bootstraps a follower that has fallen out of the log window
//     from a locked snapshot of the store files.
//   - Follower (follow.go) is the receiving side: it applies the stream
//     through store.ApplyEvent, persists a resume cursor (REPLSEQ)
//     lazily — safe because apply is idempotent — and reconnects with
//     retry backoff, falling back to a snapshot when it has diverged or
//     lagged too far.
//
// The coordinator that routes estimate requests across shards lives in
// internal/server (it needs the server's handler plumbing); it consumes
// only Ring and the health surfaces here.
//
// Everything is deterministic where it matters: placement depends only
// on the member set, replication produces byte-identical directories,
// and failure handling is driven by internal/fault schedules so whole
// cluster runs can be replayed.
package cluster

import "flare/internal/obs"

// Metrics is the flare_cluster_* instrument set, shared by the shipper
// and follower sides so a combined process registers each family once.
type Metrics struct {
	reg          *obs.Registry
	shipEvents   *obs.Counter
	shipBytes    *obs.Counter
	shipSessions *obs.Counter
	snapshots    *obs.Counter
	applyEvents  *obs.Counter
	resyncs      *obs.Counter
}

// NewMetrics registers the cluster replication instruments on reg (nil
// records nothing).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg: reg,
		shipEvents: reg.Counter("flare_cluster_ship_events_total",
			"Replication events streamed to followers."),
		shipBytes: reg.Counter("flare_cluster_ship_bytes_total",
			"Replication payload bytes streamed to followers."),
		shipSessions: reg.Counter("flare_cluster_ship_sessions_total",
			"Replication sessions served to followers."),
		snapshots: reg.Counter("flare_cluster_snapshots_total",
			"Snapshot catch-ups sent to lagging followers."),
		applyEvents: reg.Counter("flare_cluster_apply_events_total",
			"Replication events applied by this follower."),
		resyncs: reg.Counter("flare_cluster_follower_resyncs_total",
			"Times this follower discarded local state to resync from a snapshot."),
	}
}

// lagGauge returns the per-follower replication lag gauge: events
// committed on the leader but not yet acknowledged by the follower.
func (m *Metrics) lagGauge(follower string) *obs.Gauge {
	return m.reg.Gauge("flare_cluster_repl_lag_events",
		"Events committed on the leader and not yet acknowledged by the follower.",
		"follower", follower)
}
