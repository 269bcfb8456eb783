// Cluster coordinator for the estimate surface. Every node runs the
// same analysed pipeline, so any node *can* answer any estimate — the
// ring exists for cache locality, not correctness: routing a feature to
// its owning shard means one node's singleflight cache (and journal)
// absorbs all traffic for that feature instead of every node computing
// it independently. That determinism is also the failure story: when
// the owner is unreachable (transport error, non-200, open breaker,
// injected fault) the coordinator falls back to computing locally and
// the response bytes are identical to what the owner would have sent.
//
// Forwarded requests carry X-Flare-Cluster-From so a peer with a
// divergent ring view serves them locally instead of re-forwarding —
// requests traverse at most one hop, which bounds latency and makes
// routing loops impossible.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"flare/internal/cluster"
	"flare/internal/fault"
	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/retry"
)

// clusterForwardHeader marks a request as already forwarded once; the
// receiving node must serve it locally (loop guard).
const clusterForwardHeader = "X-Flare-Cluster-From"

// maxPeerBody bounds how much of a peer response the coordinator will
// buffer; estimate bodies are a few hundred bytes.
const maxPeerBody = 1 << 20

// Doer issues HTTP requests to peers. *http.Client satisfies it;
// tests and single-process clusters install an in-memory transport.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// ClusterPeer is one cluster member as the coordinator sees it.
type ClusterPeer struct {
	// Name is the node ID placed on the ring. Must be unique.
	Name string
	// URL is the peer's base URL (e.g. http://10.0.0.2:8080). May be
	// empty for the local node.
	URL string
}

// ClusterConfig wires a server into a cluster. See EnableCluster.
type ClusterConfig struct {
	// NodeID is this node's name; it must appear in Peers.
	NodeID string
	// Peers is the full membership, including the local node. Every
	// node must be configured with the same set (ring views that
	// disagree still serve correctly — the loop guard keeps forwarding
	// to one hop — but cache locality suffers).
	Peers []ClusterPeer
	// VirtualNodes is the ring's vnode count per node; <= 0 uses
	// cluster.DefaultVirtualNodes.
	VirtualNodes int
	// Client issues peer requests; nil uses an http.Client with a 10s
	// timeout.
	Client Doer
	// Injector optionally injects faults at the "cluster.peer.request"
	// site, evaluated once per forward attempt. Nil injects nothing.
	Injector *fault.Injector
	// Role is reported in /api/health: "leader", "follower", or
	// "single" (the default when empty).
	Role string
	// ReplStatus, when set (leader nodes), reports per-follower
	// replication lag for /api/health and flare-top.
	ReplStatus func() []cluster.FollowerLag
	// ReplApplied, when set (follower nodes), reports the last applied
	// replication sequence for /api/health.
	ReplApplied func() uint64
}

// coordinator is the per-server cluster state.
type coordinator struct {
	cfg      ClusterConfig
	ring     *cluster.Ring
	peers    map[string]ClusterPeer
	client   Doer
	breakers map[string]*retry.Breaker // per non-self peer

	// Routing decisions by result, and fanned-out batches.
	forwarded, localOwner, loopGuard, fallback, batches *obs.Counter
}

// EnableCluster turns this server into a cluster node. Call before
// Handler and before serving; it is not safe to call concurrently with
// request handling.
func (s *Server) EnableCluster(cfg ClusterConfig) error {
	if cfg.NodeID == "" {
		return fmt.Errorf("server: cluster node ID must be non-empty")
	}
	names := make([]string, 0, len(cfg.Peers))
	peers := make(map[string]ClusterPeer, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if _, dup := peers[p.Name]; dup {
			return fmt.Errorf("server: duplicate cluster peer %q", p.Name)
		}
		if p.Name != cfg.NodeID && p.URL == "" {
			return fmt.Errorf("server: peer %q needs a URL", p.Name)
		}
		peers[p.Name] = p
		names = append(names, p.Name)
	}
	if _, ok := peers[cfg.NodeID]; !ok {
		return fmt.Errorf("server: node %q is not in the peer set", cfg.NodeID)
	}
	ring, err := cluster.NewRing(names, cfg.VirtualNodes)
	if err != nil {
		return err
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Role == "" {
		cfg.Role = "single"
	}
	breakers := make(map[string]*retry.Breaker, len(peers)-1)
	for name := range peers {
		if name != cfg.NodeID {
			breakers[name] = retry.NewBreaker("peer."+name,
				retry.BreakerOptions{Registry: s.reg})
		}
	}
	s.cluster = &coordinator{
		cfg:      cfg,
		ring:     ring,
		peers:    peers,
		client:   cfg.Client,
		breakers: breakers,

		forwarded:  obs.ClusterForward.In(s.reg, "forwarded"),
		localOwner: obs.ClusterForward.In(s.reg, "local_owner"),
		loopGuard:  obs.ClusterForward.In(s.reg, "loop_guard"),
		fallback:   obs.ClusterForward.In(s.reg, "fallback"),
		batches:    obs.ClusterBatchRequests.In(s.reg),
	}
	return nil
}

// forwardEstimate routes one estimate through the ring. It returns the
// owning peer's verbatim response body and true when the request was
// served remotely; (nil, false) means the caller must compute locally —
// because clustering is off, this node owns the key, the request is
// already one hop deep, or the owner failed (fallback).
func (s *Server) forwardEstimate(r *http.Request, feat, job string) ([]byte, bool) {
	c := s.cluster
	if c == nil {
		return nil, false
	}
	if r.Header.Get(clusterForwardHeader) != "" {
		c.loopGuard.Inc()
		return nil, false
	}
	owner := c.ring.Owner(feat)
	if owner == c.cfg.NodeID {
		c.localOwner.Inc()
		return nil, false
	}
	body, err := c.fetch(r.Context(), s.tracer, owner, feat, job)
	if err != nil {
		c.fallback.Inc()
		if s.logger != nil {
			s.logger.Warn("cluster.forward.fallback",
				obs.KV("peer", owner),
				obs.KV("feature", feat),
				obs.KV("error", err.Error()))
		}
		return nil, false
	}
	c.forwarded.Inc()
	return body, true
}

// fetch asks the owning peer for one estimate. Only a 200 response is
// accepted; anything else (or a transport error, or an open breaker)
// is an error the caller converts into local fallback. Outcomes feed
// the per-peer breaker so a dead peer stops costing a round-trip.
func (c *coordinator) fetch(ctx context.Context, tracer *obs.Tracer,
	owner, feat, job string) ([]byte, error) {
	br := c.breakers[owner]
	if err := br.Allow(); err != nil {
		return nil, fmt.Errorf("peer %s: %w", owner, err)
	}
	var body []byte
	err := obs.InSpan(obs.WithTracer(ctx, tracer), "cluster.route", func(ctx context.Context, span *obs.Span) error {
		span.SetAttr("peer", owner)
		span.SetAttr("feature", feat)

		var err error
		body, err = c.roundTrip(ctx, owner, feat, job)
		br.Record(err)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		return err
	})
	return body, err
}

func (c *coordinator) roundTrip(ctx context.Context, owner, feat, job string) ([]byte, error) {
	if err := c.cfg.Injector.Err("cluster.peer.request"); err != nil {
		return nil, err
	}
	q := url.Values{"feature": {feat}}
	if job != "" {
		q.Set("job", job)
	}
	u := c.peers[owner].URL + "/api/estimate?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(clusterForwardHeader, c.cfg.NodeID)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s answered %d", owner, resp.StatusCode)
	}
	return body, nil
}

// batchEstimateResponse is the /api/estimate/batch body. Estimates are
// raw per-feature estimate bodies in request order; json re-encoding
// compacts them, so a merged response is byte-identical whether every
// element was computed locally or relayed from peers.
type batchEstimateResponse struct {
	Job       string            `json:"job,omitempty"`
	Estimates []json.RawMessage `json:"estimates"`
}

// handleEstimateBatch serves GET /api/estimate/batch?features=a,b,c[&job=J].
// Features are validated up front (no partial fan-out on a bad
// request), then every element goes through resolveEstimate
// concurrently — remote features to their ring owners, local ones
// through the singleflight cache — under one shared deadline, and the
// elements are merged in request order. Without clustering every
// element is local and the response bytes are identical, which is what
// the golden cluster test pins down.
func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	raw := r.URL.Query().Get("features")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing features parameter")
		return
	}
	names := strings.Split(raw, ",")
	feats := make([]machine.Feature, len(names))
	for i, name := range names {
		feat, ok := s.features[name]
		if !ok {
			writeError(w, http.StatusNotFound, "unknown feature %q", name)
			return
		}
		feats[i] = feat
	}
	job := r.URL.Query().Get("job")

	// fn returns nil: every outcome is written to w.
	_ = obs.InSpan(obs.WithTracer(r.Context(), s.tracer), "cluster.batch", func(_ context.Context, span *obs.Span) error {
		span.SetAttr("features", len(feats))
		if s.cluster != nil {
			s.cluster.batches.Inc()
		}

		deadline := time.Now().Add(s.opts.RequestTimeout)
		elems := make([]*estimateEntry, len(feats))
		var wg sync.WaitGroup
		for i := range feats {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				elems[i] = s.resolveEstimate(r, deadline, feats[i], job)
			}(i)
		}
		wg.Wait()

		// The response is decided only after every element resolves, so the
		// serve-time counters see exactly what the client observes: the
		// lowest-index failure (one timeout per timed-out batch, not one per
		// element that shared the deadline), and no degraded elements from
		// batches that failed overall.
		out := make([]json.RawMessage, len(feats))
		for i, e := range elems {
			switch {
			case e == nil:
				w.WriteHeader(statusClientClosed)
				return nil
			case e.errMsg != "":
				s.countServed(w, s.batchTimeouts, e)
				writeError(w, e.status, "feature %q: %s", feats[i].Name, e.errMsg)
				return nil
			}
			out[i] = e.body
		}
		for _, e := range elems {
			s.countServed(w, s.batchTimeouts, e)
		}
		writeJSON(w, http.StatusOK, batchEstimateResponse{Job: job, Estimates: out})
		return nil
	})
}

// clusterHealth is the /api/health "cluster" section.
type clusterHealth struct {
	NodeID string `json:"node_id"`
	Role   string `json:"role"` // single | leader | follower
	// Peers is the coordinator's view of every other node, judged by
	// that peer's circuit breaker: ok (closed), degraded (half-open),
	// failing (open).
	Peers []peerHealth `json:"peers"`
	// Followers is per-follower replication lag (leader nodes only).
	Followers []cluster.FollowerLag `json:"followers,omitempty"`
	// ReplAppliedSeq is the last replication event applied locally
	// (follower nodes only).
	ReplAppliedSeq uint64 `json:"repl_applied_seq,omitempty"`
}

// peerHealth is one remote node as seen from here.
type peerHealth struct {
	Name   string `json:"name"`
	Status string `json:"status"` // ok | degraded | failing
}

// health snapshots the coordinator's view for /api/health.
func (c *coordinator) health() *clusterHealth {
	h := &clusterHealth{NodeID: c.cfg.NodeID, Role: c.cfg.Role}
	names := make([]string, 0, len(c.breakers))
	for name := range c.breakers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := "ok"
		switch c.breakers[name].State() {
		case retry.HalfOpen:
			st = "degraded"
		case retry.Open:
			st = "failing"
		}
		h.Peers = append(h.Peers, peerHealth{Name: name, Status: st})
	}
	if c.cfg.ReplStatus != nil {
		h.Followers = c.cfg.ReplStatus()
	}
	if c.cfg.ReplApplied != nil {
		h.ReplAppliedSeq = c.cfg.ReplApplied()
	}
	return h
}
