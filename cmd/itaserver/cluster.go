package main

import (
	"errors"
	"net/http"
	"strings"
	"time"

	"ita"
	"ita/internal/cluster"
)

// Cluster-node endpoints. A node in a multi-node deployment is an
// ordinary itaserver; these additional routes are what a cluster
// router needs beyond the public API: registrations with explicit ids,
// dictionary alignment for queries owned elsewhere, batch ingest and
// clock advances with the router's shared timestamps, and the status
// gauges the router checks for agreement.

type clusterRegisterRequest struct {
	ID   uint64 `json:"id"`
	Text string `json:"text"`
	K    int    `json:"k"`
}

func (s *server) clusterRegister(w http.ResponseWriter, r *http.Request) {
	var req clusterRegisterRequest
	if !decodeBody(w, r, &req, `body must be {"id": 1, "text": "...", "k": 10}`) {
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		http.Error(w, `body must be {"id": 1, "text": "...", "k": 10}`, http.StatusBadRequest)
		return
	}
	if req.K <= 0 {
		req.K = 10
	}
	if err := s.eng.RegisterWithID(ita.QueryID(req.ID), req.Text, req.K); err != nil {
		httpError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]uint64{"query": req.ID})
}

func (s *server) clusterAlign(w http.ResponseWriter, r *http.Request) {
	var req clusterRegisterRequest
	if !decodeBody(w, r, &req, `body must be {"id": 1, "text": "..."}`) {
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		http.Error(w, `body must be {"id": 1, "text": "..."}`, http.StatusBadRequest)
		return
	}
	if err := s.eng.AlignRegister(ita.QueryID(req.ID), req.Text); err != nil {
		httpError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"aligned": req.ID})
}

type clusterIngestRequest struct {
	Items []struct {
		Text string `json:"text"`
		At   int64  `json:"at"`
	} `json:"items"`
}

func (s *server) clusterIngest(w http.ResponseWriter, r *http.Request) {
	var req clusterIngestRequest
	if !decodeBody(w, r, &req, `body must be {"items": [{"text": "...", "at": unixnano}, ...]}`) {
		return
	}
	items := make([]ita.TimedText, 0, len(req.Items))
	for _, it := range req.Items {
		items = append(items, ita.TimedText{Text: it.Text, At: time.Unix(0, it.At)})
	}
	ids, err := s.eng.IngestBatch(items)
	if err != nil {
		httpError(w, err, http.StatusInternalServerError)
		return
	}
	docs := make([]uint64, len(ids))
	for i, id := range ids {
		docs[i] = uint64(id)
	}
	writeJSON(w, http.StatusCreated, map[string][]uint64{"docs": docs})
}

func (s *server) clusterAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		At int64 `json:"at"`
	}
	if !decodeBody(w, r, &req, `body must be {"at": unixnano}`) {
		return
	}
	if err := s.eng.Advance(time.Unix(0, req.At)); err != nil {
		httpError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *server) clusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, cluster.Status{
		NextQuery: s.eng.NextQueryID(),
		Queries:   s.eng.Queries(),
		Window:    s.eng.WindowLen(),
		Dict:      s.eng.DictionarySize(),
	})
}

// addClusterRoutes mounts the node-side cluster endpoints on mux.
func addClusterRoutes(mux *http.ServeMux, s *server) {
	post := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("/cluster/register", post(s.clusterRegister))
	mux.HandleFunc("/cluster/align", post(s.clusterAlign))
	mux.HandleFunc("/cluster/ingest", post(s.clusterIngest))
	mux.HandleFunc("/cluster/advance", post(s.clusterAdvance))
	mux.HandleFunc("/cluster/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.clusterStatus(w, r)
	})
}

// routerServer serves the public itaserver API over a cluster.Router —
// clients talk to it exactly as they would to one node, and it fans
// writes to every node while merging reads across the partition.
type routerServer struct {
	router *cluster.Router
}

func (s *routerServer) stats(w http.ResponseWriter, _ *http.Request) {
	counters, err := s.router.Stats()
	if err != nil {
		httpError(w, err, http.StatusInternalServerError)
		return
	}
	st, err := s.router.Status()
	if err != nil {
		httpError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"window":     st.Window,
		"queries":    st.Queries,
		"dictionary": st.Dict,
		"counters":   counters,
		"nodes":      s.router.Size(),
	})
}

func (s *routerServer) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "role": "router"})
}

// readyz on the router is cluster readiness: every node must answer
// its status and the answers must agree.
func (s *routerServer) readyz(w http.ResponseWriter, _ *http.Request) {
	if _, err := s.router.Status(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "role": "router"})
}

// newRouterMux wires the public route table onto a router front end.
func newRouterMux(s *routerServer) *http.ServeMux {
	mux := newPublicMux(s.router)
	mux.HandleFunc("/stats", s.stats)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/readyz", s.readyz)
	return mux
}

// buildRouter connects to the comma-separated node base URLs and
// fronts them with a merge router.
func buildRouter(nodeList string) (*cluster.Router, error) {
	var nodes []cluster.Node
	for _, raw := range strings.Split(nodeList, ",") {
		u := strings.TrimSpace(raw)
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		nodes = append(nodes, cluster.NewHTTPNode(u, nil))
	}
	if len(nodes) == 0 {
		return nil, errors.New("-nodes given but no node URLs parsed")
	}
	return cluster.NewRouter(nodes)
}
