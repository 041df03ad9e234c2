// Command itaserver runs a continuous text search monitoring server over
// HTTP — the system of the paper's introduction: documents stream in,
// standing queries stay registered, every query's top-k is always
// current.
//
// Endpoints:
//
//	POST /documents        {"text": "..."}            → {"doc": id}
//	POST /queries          {"text": "...", "k": 10}   → {"query": id}
//	DELETE /queries/{id}                              → 204
//	GET  /queries/{id}                                → current top-k
//	GET  /queries                                     → every query's top-k
//	GET  /stats                                       → engine counters
//	GET  /healthz                                     → process liveness
//	GET  /readyz                                      → serving readiness (503 on a lagging follower)
//	POST /promote                                     → follower → primary failover
//
// Reads (GET /queries, GET /queries/{id}, GET /stats) are served off the
// engine's published epoch views: they never take the ingest lock, so
// read throughput is unaffected by stream volume and every response is a
// consistent epoch-boundary result.
//
// Concurrent POST /documents requests commit as one epoch (one
// amortized maintenance pass and one log fsync for the group), and each
// request answers only once its document is in every result it
// belongs to. With -demo, a built-in newswire feed publishes articles
// at -rate documents per second so the server is immediately
// interesting:
//
//	itaserver -demo -rate 20 &
//	curl -s -X POST localhost:8095/queries -d '{"text":"crude oil production","k":3}'
//	curl -s localhost:8095/queries/1
//
// With -wal dir, the server is durable: every registration and ingest
// is write-ahead logged before it is applied, checkpoints bound the log
// (-checkpoint boundaries per checkpoint, -durability selects the fsync
// policy), and restarting with the same -wal recovers the full query
// set and in-window stream — kill -9 included. A graceful shutdown
// (SIGINT/SIGTERM) drains HTTP, writes a final checkpoint and closes
// the log, so the next start replays nothing:
//
//	itaserver -wal /var/lib/ita -demo &
//	kill -9 %1            # crash: recovery replays the log tail
//	itaserver -wal /var/lib/ita   # same queries, same results
//
// A durable server can serve a warm standby. -replicate-addr makes a
// primary stream its WAL to followers; -follow makes this server a
// read-only standby of the primary at that address (it serves every GET
// while mutations answer 503). Killing the primary and POSTing
// /promote on the standby fails over with the crash-recovery guarantee
// — the promoted state is a clean prefix of the primary's WAL at an
// epoch boundary:
//
//	itaserver -wal /var/lib/ita-a -replicate-addr :7095 &
//	itaserver -wal /var/lib/ita-b -follow localhost:7095 -addr :8096 &
//	kill -9 %1
//	curl -s -X POST localhost:8096/promote
//
// /readyz gates load-balancer traffic: a follower reports 503 until it
// is connected and within -ready-lag epochs of the primary's head.
//
// # Cluster mode
//
// -nodes turns the server into a stateless merge router over N
// independent itaserver nodes: every document fans out to every node
// (with one shared timestamp), each standing query is registered on
// exactly one node chosen by a placement hash of its id, and reads
// merge the per-node partitions back into the single-engine view.
// Because the paper's threshold maintenance is strictly per-query, the
// merged results are byte-identical to one engine holding all queries
// — node count divides the per-query maintenance cost without changing
// a single score. Each node can keep its own warm standby (-follow);
// killing a node, promoting its standby and pointing a fresh router at
// the new address is the failover story, and a crashed node rejoins by
// replaying its own WAL:
//
//	itaserver -addr :9001 -wal /var/lib/ita-1 &
//	itaserver -addr :9002 -wal /var/lib/ita-2 &
//	itaserver -addr :9000 -nodes localhost:9001,localhost:9002 &
//	curl -s -X POST localhost:9000/queries -d '{"text":"crude oil","k":3}'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ita"
	"ita/internal/cluster"
)

// maxBody caps every request body; bodies past it answer 413.
const maxBody = 1 << 20

type server struct {
	eng *ita.Engine
	// readyLag is the /readyz threshold: a follower more than this many
	// epochs behind the primary's head reports not-ready.
	readyLag uint64
	// replicateAddr, when set on a standby, is where the server starts
	// serving replication after a successful /promote.
	replicateAddr string
}

type documentRequest struct {
	Text string `json:"text"`
	// At optionally pins the arrival time (Unix nanoseconds). A cluster
	// router stamps each document once and forwards the same timestamp
	// to every node, so time windows expire identically cluster-wide.
	At int64 `json:"at,omitempty"`
}

type queryRequest struct {
	Text string `json:"text"`
	K    int    `json:"k"`
}

type matchResponse struct {
	Doc   uint64  `json:"doc"`
	Score float64 `json:"score"`
	Text  string  `json:"text,omitempty"`
}

// httpError maps engine and transport errors onto HTTP statuses: an
// over-limit body is 413, a read-only follower or closed engine is 503
// (the request is fine — this replica just cannot take it), anything
// else falls back to the handler's default.
func httpError(w http.ResponseWriter, err error, fallback int) {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		http.Error(w, "request body exceeds 1 MiB", http.StatusRequestEntityTooLarge)
	case errors.Is(err, ita.ErrReadOnly):
		http.Error(w, "this server is a read-only replication follower (POST /promote to fail over)", http.StatusServiceUnavailable)
	case errors.Is(err, ita.ErrClosed):
		http.Error(w, "engine is shut down", http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), fallback)
	}
}

// decodeBody decodes a JSON request body, distinguishing a too-large
// body (413) from malformed JSON (400). Reports whether decoding
// succeeded; on failure the response is already written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, usage string) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, err, http.StatusBadRequest)
			return false
		}
		http.Error(w, usage, http.StatusBadRequest)
		return false
	}
	return true
}

// publicAPI is what the public routes — documents and queries — read
// and write. Both modes serve them from one handler set: a node or
// standalone server over its engine (engineAPI), router mode over
// *cluster.Router.
type publicAPI interface {
	IngestText(text string, at time.Time) (ita.DocID, error)
	Register(text string, k int) (ita.QueryID, error)
	Unregister(id ita.QueryID) (bool, error)
	Results(id ita.QueryID) ([]ita.Match, string, bool, error)
	ResultsAll() ([]cluster.QueryTopK, error)
}

// engineAPI serves the public routes from one engine, through the same
// adapter a cluster router uses for an in-process node.
type engineAPI struct {
	cluster.Node
	eng *ita.Engine
}

func newEngineAPI(eng *ita.Engine) engineAPI { return engineAPI{cluster.Local(eng), eng} }

func (a engineAPI) Register(text string, k int) (ita.QueryID, error) {
	return a.eng.Register(text, k)
}

// Unregister reports a follower's refusal as ita.ErrReadOnly (a 503),
// where the engine itself only answers false, as for an unknown id.
func (a engineAPI) Unregister(id ita.QueryID) (bool, error) {
	if a.eng.Unregister(id) {
		return true, nil
	}
	if a.eng.ReplicationStats().Role == "follower" {
		return false, ita.ErrReadOnly
	}
	return false, nil
}

// publicRoutes is the public handler set over a publicAPI.
type publicRoutes struct{ api publicAPI }

func (p publicRoutes) postDocument(w http.ResponseWriter, r *http.Request) {
	var req documentRequest
	if !decodeBody(w, r, &req, `body must be {"text": "..."}`) {
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		http.Error(w, `body must be {"text": "..."}`, http.StatusBadRequest)
		return
	}
	// One timestamp, stamped here: behind a router, each node applying
	// its own clock would diverge under time windows.
	at := time.Now()
	if req.At != 0 {
		at = time.Unix(0, req.At)
	}
	id, err := p.api.IngestText(req.Text, at)
	// Concurrent requests reach the engine's commit queue in any order,
	// so a document stamped a moment before another can land behind it;
	// a fresh stamp is not.
	for retry := 0; req.At == 0 && retry < 3 && errors.Is(err, ita.ErrTimeRegression); retry++ {
		id, err = p.api.IngestText(req.Text, time.Now())
	}
	if err != nil {
		httpError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]uint64{"doc": uint64(id)})
}

func (p publicRoutes) postQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req, `body must be {"text": "...", "k": 10}`) {
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		http.Error(w, `body must be {"text": "...", "k": 10}`, http.StatusBadRequest)
		return
	}
	if req.K <= 0 {
		req.K = 10
	}
	id, err := p.api.Register(req.Text, req.K)
	if err != nil {
		httpError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]uint64{"query": uint64(id)})
}

func (p publicRoutes) queryByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/queries/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		http.Error(w, "bad query id", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodDelete:
		ok, err := p.api.Unregister(ita.QueryID(id))
		if err != nil {
			httpError(w, err, http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, "unknown query", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		matches, text, ok, err := p.api.Results(ita.QueryID(id))
		if err != nil {
			httpError(w, err, http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, "unknown query", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Query   string          `json:"query"`
			Matches []matchResponse `json:"matches"`
		}{text, matchResponses(matches)})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

type queryResponse struct {
	Query   uint64          `json:"query"`
	Text    string          `json:"text"`
	Matches []matchResponse `json:"matches"`
}

func matchResponses(ms []ita.Match) []matchResponse {
	out := make([]matchResponse, 0, len(ms))
	for _, m := range ms {
		out = append(out, matchResponse{Doc: uint64(m.Doc), Score: m.Score, Text: m.Text})
	}
	return out
}

// listQueries serves every registered query's current top-k; an engine
// reads them in one wait-free pass over its published views.
func (p publicRoutes) listQueries(w http.ResponseWriter, _ *http.Request) {
	all, err := p.api.ResultsAll()
	if err != nil {
		httpError(w, err, http.StatusInternalServerError)
		return
	}
	out := make([]queryResponse, 0, len(all))
	for _, qr := range all {
		out = append(out, queryResponse{Query: uint64(qr.Query), Text: qr.Text, Matches: matchResponses(qr.Matches)})
	}
	writeJSON(w, http.StatusOK, out)
}

// newPublicMux wires the public route table over api; each mode adds
// its own routes to the returned mux.
func newPublicMux(api publicAPI) *http.ServeMux {
	p := publicRoutes{api}
	mux := http.NewServeMux()
	mux.HandleFunc("/documents", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		p.postDocument(w, r)
	})
	mux.HandleFunc("/queries", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			p.postQuery(w, r)
		case http.MethodGet:
			p.listQueries(w, r)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/queries/", p.queryByID)
	return mux
}

func (s *server) stats(w http.ResponseWriter, _ *http.Request) {
	mem := s.eng.MemoryUsage()
	writeJSON(w, http.StatusOK, map[string]any{
		"algorithm":  s.eng.Algorithm().String(),
		"window":     s.eng.WindowLen(),
		"queries":    s.eng.Queries(),
		"dictionary": s.eng.DictionarySize(),
		"counters":   s.eng.Stats(),
		// Per-component engine heap estimate (bytes): inverted index,
		// threshold trees, dense query state, published views; and the
		// term dictionary and the shards' term tables, which
		// memory_total leaves out.
		"memory":       mem,
		"memory_total": mem.Total(),
		// Replication role, per-follower ack positions and lag (primary)
		// or applied/head positions, lag and reconnect counts (follower).
		"replication": s.eng.ReplicationStats(),
	})
}

// healthz is pure liveness: the process is up and handling HTTP.
func (s *server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// readyz is load-balancer readiness: a primary (or standalone engine)
// is always ready; a follower is ready once connected to its primary
// and within readyLag epochs of its head.
func (s *server) readyz(w http.ResponseWriter, _ *http.Request) {
	rs := s.eng.ReplicationStats()
	if rs.Role == "follower" && (!rs.Connected || rs.LagEpochs > s.readyLag) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "replication": rs})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "role": rs.Role})
}

// promote fails a standby over to primary. When the server was started
// with -replicate-addr, the promoted engine immediately begins serving
// replication there for the next generation of followers.
func (s *server) promote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := s.eng.Promote(); err != nil {
		if errors.Is(err, ita.ErrClosed) {
			httpError(w, err, http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	log.Printf("promoted to primary")
	out := map[string]any{"role": "primary"}
	if s.replicateAddr != "" {
		if addr, err := s.eng.StartReplication(s.replicateAddr); err != nil {
			out["replication_error"] = err.Error()
			log.Printf("itaserver: replication after promote: %v", err)
		} else {
			out["replicating_on"] = addr.String()
			log.Printf("replicating WAL on %s", addr)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("itaserver: encode response: %v", err)
	}
}

// newMux wires an engine server's route table. Shared with the tests so
// they exercise exactly the production routing.
func newMux(s *server) *http.ServeMux {
	mux := newPublicMux(newEngineAPI(s.eng))
	mux.HandleFunc("/stats", s.stats)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/readyz", s.readyz)
	mux.HandleFunc("/promote", s.promote)
	addClusterRoutes(mux, s)
	return mux
}

// limitBodies caps every request body at maxBody before the handlers
// read it; an oversize body surfaces as *http.MaxBytesError at the
// first read and answers a clean 413.
func limitBodies(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		next.ServeHTTP(w, r)
	})
}

func main() {
	var (
		addr    = flag.String("addr", ":8095", "listen address")
		windowN = flag.Int("window", 1000, "count-based window size (documents)")
		span    = flag.Duration("span", 0, "time-based window span (overrides -window when set)")
		demo    = flag.Bool("demo", false, "publish a built-in newswire stream")
		rate    = flag.Float64("rate", 10, "demo feed rate, documents/second")
		shards  = flag.Int("shards", 0, "query-maintenance shards: 0 = one per CPU, 1 = single-threaded ITA, n = fixed count")
		walDir  = flag.String("wal", "", "durability directory: write-ahead log + checkpoints; reopening with the same directory recovers the query set and window after a crash")
		durab   = flag.String("durability", "epoch", "with -wal: fsync policy, off|epoch|always")
		ckptN   = flag.Int("checkpoint", 256, "with -wal: checkpoint (and rotate the log) every N epoch boundaries; 0 disables automatic checkpoints")
		replOn  = flag.String("replicate-addr", "", "with -wal: stream the WAL to followers on this address (host:port)")
		follow  = flag.String("follow", "", "with -wal: run as a read-only warm standby of the primary replicating at this address")
		readyLg = flag.Uint64("ready-lag", 16, "with -follow: /readyz reports ready while within this many epochs of the primary's head")
		nodeLst = flag.String("nodes", "", "router mode: comma-separated node base URLs; this server fans writes to every node and merges reads instead of running an engine")
	)
	flag.Parse()

	if *nodeLst != "" {
		router, err := buildRouter(*nodeLst)
		if err != nil {
			log.Fatalf("itaserver: %v", err)
		}
		log.Printf("cluster router over %d nodes listening on %s", router.Size(), *addr)
		serve(*addr, newRouterMux(&routerServer{router: router}), func() {
			if err := router.Close(); err != nil {
				log.Printf("itaserver: close: %v", err)
			}
		})
		return
	}

	if *follow != "" {
		if *walDir == "" {
			log.Fatal("itaserver: -follow requires -wal (the standby mirrors the primary's WAL there)")
		}
		if *demo {
			log.Fatal("itaserver: -demo on a follower would require writes; a standby is read-only until /promote")
		}
	}

	eng, err := buildEngine(*walDir, *durab, *ckptN, *windowN, *span, *shards, *follow)
	if err != nil {
		log.Fatalf("itaserver: %v", err)
	}
	if *follow != "" {
		log.Printf("warm standby: following %s into wal=%s (recovered %d queries, %d window documents)",
			*follow, *walDir, eng.Queries(), eng.WindowLen())
	} else if *walDir != "" {
		log.Printf("durable: wal=%s durability=%s checkpoint every %d boundaries (recovered %d queries, %d window documents)",
			*walDir, *durab, *ckptN, eng.Queries(), eng.WindowLen())
	}
	if *replOn != "" && *follow == "" {
		raddr, err := eng.StartReplication(*replOn)
		if err != nil {
			log.Fatalf("itaserver: %v", err)
		}
		log.Printf("replicating WAL on %s", raddr)
	}
	s := &server{eng: eng, readyLag: *readyLg, replicateAddr: *replOn}

	if *demo {
		go func() {
			feed := ita.NewNewsFeed(time.Now().UnixNano())
			tick := time.NewTicker(time.Duration(float64(time.Second) / *rate))
			defer tick.Stop()
			for range tick.C {
				_, text := feed.Mixed()
				if _, err := eng.IngestText(text, time.Now()); err != nil {
					log.Printf("itaserver: demo ingest: %v", err)
				}
			}
		}()
		log.Printf("demo feed publishing at %.1f docs/s", *rate)
	}

	log.Printf("continuous text search server (%s) listening on %s", eng.Algorithm(), *addr)
	// After the drain, a final checkpoint lets the next start restore
	// instantly instead of replaying the log tail. A SIGKILL skips all of
	// this — which is exactly what the WAL is for.
	serve(*addr, newMux(s), func() {
		if *walDir != "" {
			// A still-standby follower cannot checkpoint (its mirror must
			// track the primary's rotations exactly); its WAL is already
			// durable, so skipping is correct, not a degraded shutdown.
			if err := eng.Checkpoint(); err != nil && !errors.Is(err, ita.ErrReadOnly) {
				log.Printf("itaserver: shutdown checkpoint: %v", err)
			}
		}
		if err := eng.Close(); err != nil {
			log.Printf("itaserver: close: %v", err)
		}
	})
}

// serve answers HTTP on addr with handler until SIGINT or SIGTERM, then
// drains in-flight requests for up to 5 s and calls closeFn. A listener
// failure is fatal.
func serve(addr string, handler http.Handler, closeFn func()) {
	srv := &http.Server{
		Addr:    addr,
		Handler: limitBodies(handler),
		// Slow-client hygiene: a stalled request cannot hold a handler
		// forever, a stalled response write is bounded, and idle
		// keep-alives are reaped.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	select {
	case err := <-done:
		log.Fatal(err)
	case sig := <-stop:
		log.Printf("received %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("itaserver: drain: %v", err)
		}
		closeFn()
	}
}

// buildEngine assembles the engine from the command-line configuration;
// with a WAL directory it creates or recovers the durable engine, and
// with follow set it opens a warm standby of that primary instead.
func buildEngine(walDir, durab string, ckptN, windowN int, span time.Duration, shards int, follow ...string) (*ita.Engine, error) {
	opts := []ita.Option{ita.WithTextRetention()}
	if span > 0 {
		opts = append(opts, ita.WithTimeWindow(span))
	} else {
		opts = append(opts, ita.WithCountWindow(windowN))
	}
	// The shard count is a runtime setting: it applies over whatever
	// count a recovered checkpoint recorded, on a standby too.
	opts = append(opts, ita.WithShards(shards))
	if walDir == "" {
		return ita.New(opts...)
	}
	mode, err := ita.ParseDurability(durab)
	if err != nil {
		return nil, err
	}
	opts = append(opts, ita.WithDurability(mode), ita.WithCheckpointEvery(ckptN))
	if len(follow) > 0 && follow[0] != "" {
		// A standby's window configuration comes from the primary's
		// checkpoint; the remaining options are runtime settings.
		return ita.OpenFollower(walDir, follow[0],
			ita.WithShards(shards), ita.WithDurability(mode), ita.WithCheckpointEvery(ckptN))
	}
	return ita.Open(walDir, opts...)
}
