// Cluster view: with -peers, flare-top polls every node's /metrics and
// /api/health and renders one row per node — QPS, error-budget burn,
// role, and replication lag — plus a cluster rollup line. Lag is taken
// from the leader's /api/health followers list (the leader is the only
// node that knows how far behind each follower is), matched to rows by
// node name. Unreachable nodes stay in the table so a dead peer is a
// visible row, not a missing one.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// peerSpec is one -peers entry.
type peerSpec struct {
	name string
	url  string
}

// parsePeersFlag parses "name=url,name=url".
func parsePeersFlag(s string) ([]peerSpec, error) {
	var peers []peerSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, ok := strings.Cut(part, "=")
		if !ok || name == "" || u == "" {
			return nil, fmt.Errorf("bad -peers entry %q: want NAME=URL", part)
		}
		peers = append(peers, peerSpec{name: name, url: strings.TrimRight(u, "/")})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return peers, nil
}

// nodeRow is one node in the cluster table (and the -json shape).
type nodeRow struct {
	Name     string  `json:"name"`
	Addr     string  `json:"addr"`
	Role     string  `json:"role"`
	Health   string  `json:"health"`
	HTTPCode int     `json:"health_http_code,omitempty"`
	QPS      float64 `json:"qps"`
	Burn     float64 `json:"error_budget_burn"`
	// LagEvents is this node's replication lag as reported by the
	// leader; nil when unknown (the leader itself, or no leader found).
	LagEvents *uint64 `json:"repl_lag_events,omitempty"`
	Error     string  `json:"error,omitempty"`
}

type clusterReport struct {
	Nodes  []nodeRow `json:"nodes"`
	Rollup nodeRow   `json:"rollup"`
}

// healthRank orders verdicts for the rollup (worst wins).
func healthRank(s string) int {
	switch s {
	case "ok":
		return 0
	case "degraded":
		return 1
	case "failing":
		return 2
	default: // unreachable
		return 3
	}
}

// fetchLite polls /metrics and /api/health only — the cluster table
// does not show spans, and skipping /api/trace keeps N-node polling
// cheap.
func (p *poller) fetchLite() (*sample, error) {
	s := &sample{at: time.Now()}
	var err error
	if s.metrics, err = p.scrape(); err != nil {
		return nil, err
	}
	body, code, err := p.get("/api/health")
	if err != nil {
		return nil, err
	}
	s.code = code
	if err := json.Unmarshal(body, &s.health); err != nil {
		return nil, fmt.Errorf("decoding /api/health: %w", err)
	}
	return s, nil
}

// runCluster is the -peers poll loop.
func runCluster(cfg topConfig, peers []peerSpec, out io.Writer) error {
	pollers := make([]*poller, len(peers))
	for i, p := range peers {
		pollers[i] = &poller{base: p.url, hc: &http.Client{Timeout: 10 * time.Second}}
	}
	prev := make([]*sample, len(peers))
	for {
		cur := make([]*sample, len(peers))
		errs := make([]error, len(peers))
		for i, p := range pollers {
			cur[i], errs[i] = p.fetchLite()
		}
		rep := buildClusterReport(peers, prev, cur, errs)
		if cfg.once {
			if cfg.jsonOut {
				enc := json.NewEncoder(out)
				enc.SetIndent("", "  ")
				return enc.Encode(rep)
			}
			renderCluster(out, rep, false)
			return nil
		}
		renderCluster(out, rep, true)
		copy(prev, cur)
		time.Sleep(cfg.interval)
	}
}

func buildClusterReport(peers []peerSpec, prev, cur []*sample, errs []error) clusterReport {
	// Replication lag by follower name, from every reachable node that
	// reports followers (the leader).
	lag := make(map[string]uint64)
	for _, s := range cur {
		if s == nil || s.health.Cluster == nil {
			continue
		}
		for _, f := range s.health.Cluster.Followers {
			lag[f.Name] = f.Lag
		}
	}

	rep := clusterReport{Rollup: nodeRow{Name: "cluster"}}
	var maxLag uint64
	haveLag := false
	for i, p := range peers {
		row := nodeRow{Name: p.name, Addr: p.url, Role: "-", Health: "unreachable"}
		if errs[i] != nil {
			row.Error = errs[i].Error()
		} else {
			s := cur[i]
			row.Health = s.health.Status
			row.HTTPCode = s.code
			row.Burn = s.health.BurnRate
			if c := s.health.Cluster; c != nil {
				row.Role = c.Role
			}
			if prev[i] != nil {
				if dt := s.at.Sub(prev[i].at).Seconds(); dt > 0 {
					d := s.metrics.Sum("flare_http_requests_total") -
						prev[i].metrics.Sum("flare_http_requests_total")
					if d > 0 {
						row.QPS = d / dt
					}
				}
			}
		}
		if l, ok := lag[p.name]; ok {
			v := l
			row.LagEvents = &v
			haveLag = true
			if l > maxLag {
				maxLag = l
			}
		}
		rep.Nodes = append(rep.Nodes, row)

		rep.Rollup.QPS += row.QPS
		if row.Burn > rep.Rollup.Burn {
			rep.Rollup.Burn = row.Burn
		}
		if rep.Rollup.Health == "" || healthRank(row.Health) > healthRank(rep.Rollup.Health) {
			rep.Rollup.Health = row.Health
		}
	}
	if haveLag {
		v := maxLag
		rep.Rollup.LagEvents = &v
	}
	return rep
}

func renderCluster(w io.Writer, rep clusterReport, clear bool) {
	var b strings.Builder
	if clear {
		b.WriteString("\x1b[2J\x1b[H")
	}
	fmt.Fprintf(&b, "flare-top — cluster of %d nodes\n\n", len(rep.Nodes))
	fmt.Fprintf(&b, "  %-12s %-9s %-11s %9s %8s %9s\n",
		"NODE", "ROLE", "HEALTH", "QPS", "BURN", "REPL LAG")
	for _, n := range rep.Nodes {
		fmt.Fprintf(&b, "  %-12s %-9s %-11s %9.1f %7.2fx %9s\n",
			n.Name, n.Role, strings.ToUpper(n.Health), n.QPS, n.Burn, fmtLag(n.LagEvents))
		if n.Error != "" {
			fmt.Fprintf(&b, "               ! %s\n", n.Error)
		}
	}
	r := rep.Rollup
	fmt.Fprintf(&b, "  %-12s %-9s %-11s %9.1f %7.2fx %9s\n",
		"─ cluster", "", strings.ToUpper(r.Health), r.QPS, r.Burn, fmtLag(r.LagEvents))
	io.WriteString(w, b.String())
}

func fmtLag(l *uint64) string {
	if l == nil {
		return "-"
	}
	return fmt.Sprintf("%d", *l)
}
