package server

import (
	"encoding/json"
	"io"
	"net/http"

	"flare/internal/scenario"
)

// maxTickBody bounds the tick request body; a tick is a delta, and a
// delta larger than this should go through a full re-profile instead.
const maxTickBody = 1 << 20

// tickRequest is the POST /api/tick body: scenarios newly observed by the
// datacenter since the last profile/tick, plus IDs of already-profiled
// scenarios whose behaviour changed and should be re-measured.
type tickRequest struct {
	Scenarios []tickScenario `json:"scenarios"`
	Changed   []int          `json:"changed"`
}

// tickScenario is one observed colocation to fold into the population.
type tickScenario struct {
	Placements []scenario.Placement `json:"placements"`
	Observed   int                  `json:"observed"`
}

// tickResponse reports what the tick touched.
type tickResponse struct {
	Added           int `json:"added"`           // scenarios new to the population
	Remeasured      int `json:"remeasured"`      // changed scenarios re-profiled
	Scenarios       int `json:"scenarios"`       // population size after the tick
	Clusters        int `json:"clusters"`        // cluster count after the tick
	Representatives int `json:"representatives"` // representative count after the tick
}

// handleTick folds a datacenter tick into the serving pipeline: new
// scenarios are profiled, changed ones re-measured, and the analysis is
// refreshed incrementally (O(delta), falling back to a full rebuild on
// drift — see core.Pipeline.TickContext). The tick publishes a new
// pipeline snapshot, so cached estimates of older epochs are recomputed
// on their next lookup; the last-known-good estimates are kept as the
// degraded-service fallback.
func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req tickRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxTickBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad tick request: %v", err)
		return
	}
	if len(req.Scenarios) == 0 && len(req.Changed) == 0 {
		writeError(w, http.StatusBadRequest, "empty tick: no scenarios and no changed IDs")
		return
	}

	// Canonicalise and validate the incoming scenarios. Job names must
	// resolve in the pipeline's catalog: the scenario set is append-only,
	// so a scenario that cannot be profiled must never reach it.
	jobs := s.pipeline.Jobs()
	incoming := make([]scenario.Scenario, 0, len(req.Scenarios))
	for i, ts := range req.Scenarios {
		sc, err := scenario.New(ts.Placements)
		if err != nil {
			writeError(w, http.StatusBadRequest, "scenario %d: %v", i, err)
			return
		}
		for _, p := range sc.Placements {
			if _, err := jobs.Lookup(p.Job); err != nil {
				writeError(w, http.StatusBadRequest, "scenario %d: %v", i, err)
				return
			}
		}
		sc.Observed = ts.Observed
		if sc.Observed <= 0 {
			sc.Observed = 1
		}
		incoming = append(incoming, sc)
	}

	snap, added, err := s.pipeline.TickContext(r.Context(), incoming, req.Changed)
	if err != nil {
		// A failed tick (e.g. a changed ID out of range) publishes nothing.
		writeError(w, http.StatusBadRequest, "tick failed: %v", err)
		return
	}
	s.reg.Counter("flare_ticks_total", "datacenter ticks folded into the pipeline").Inc()

	writeJSON(w, http.StatusOK, tickResponse{
		Added:           added,
		Remeasured:      len(req.Changed),
		Scenarios:       snap.Dataset.Scenarios.Len(),
		Clusters:        snap.Analysis.Clustering.K,
		Representatives: len(snap.Analysis.Representatives),
	})
}
