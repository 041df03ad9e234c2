package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ita"
)

func newTestServer(t *testing.T, extra ...ita.Option) (*server, *httptest.Server) {
	t.Helper()
	opts := append([]ita.Option{ita.WithCountWindow(100), ita.WithTextRetention()}, extra...)
	eng, err := ita.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s := &server{eng: eng, readyLag: 16}
	ts := httptest.NewServer(limitBodies(newMux(s)))
	t.Cleanup(ts.Close)
	return s, ts
}

// serveEngine exposes an already-built engine through the production
// route table, as the replication tests need for primary/standby pairs.
func serveEngine(t *testing.T, eng *ita.Engine, replicateAddr string) (*server, *httptest.Server) {
	t.Helper()
	s := &server{eng: eng, readyLag: 16, replicateAddr: replicateAddr}
	ts := httptest.NewServer(limitBodies(newMux(s)))
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	// Register a query.
	resp, body := post(t, ts.URL+"/queries", `{"text":"crude oil production","k":3}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /queries = %d", resp.StatusCode)
	}
	qid := int(body["query"].(float64))
	if qid != 1 {
		t.Fatalf("query id = %d", qid)
	}

	// Feed documents.
	for _, text := range []string{
		"Crude oil production rose in the north sea fields.",
		"The council debated a new housing policy.",
		"Oil producers curbed crude output amid falling demand.",
	} {
		resp, _ := post(t, ts.URL+"/documents", `{"text":`+strconvQuote(text)+`}`)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /documents = %d", resp.StatusCode)
		}
	}

	// Fetch results.
	resp, err := http.Get(ts.URL + "/queries/1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /queries/1 = %d", resp.StatusCode)
	}
	var result struct {
		Query   string `json:"query"`
		Matches []struct {
			Doc   uint64  `json:"doc"`
			Score float64 `json:"score"`
			Text  string  `json:"text"`
		} `json:"matches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	if result.Query != "crude oil production" {
		t.Fatalf("query text = %q", result.Query)
	}
	if len(result.Matches) != 2 {
		t.Fatalf("matches = %+v, want the two oil documents", result.Matches)
	}
	if result.Matches[0].Score < result.Matches[1].Score {
		t.Fatal("matches not in descending score order")
	}
	for _, m := range result.Matches {
		if !strings.Contains(strings.ToLower(m.Text), "oil") {
			t.Fatalf("match text %q does not mention oil", m.Text)
		}
	}

	// Stats endpoint.
	resp2, stats := get(t, ts.URL+"/stats")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats = %d", resp2.StatusCode)
	}
	if stats["algorithm"] != "ita" || int(stats["window"].(float64)) != 3 {
		t.Fatalf("stats = %v", stats)
	}
	// Per-component memory accounting: a live ITA engine with a window
	// and a registered query must report non-zero index, tree and query
	// state footprints, and the total must sum the components.
	mem, ok := stats["memory"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no memory block: %v", stats)
	}
	var sum float64
	for _, comp := range []string{"index_bytes", "tree_bytes", "query_state_bytes", "view_bytes"} {
		v, ok := mem[comp].(float64)
		if !ok {
			t.Fatalf("memory block missing %s: %v", comp, mem)
		}
		sum += v
		if comp != "view_bytes" && v <= 0 {
			t.Fatalf("memory[%s] = %v, want > 0", comp, v)
		}
	}
	if total := stats["memory_total"].(float64); total != sum {
		t.Fatalf("memory_total %v != component sum %v", total, sum)
	}
	for _, comp := range []string{"dictionary_bytes", "term_table_bytes"} {
		if v, ok := mem[comp].(float64); !ok || v <= 0 {
			t.Fatalf("memory[%s] = %v, want > 0", comp, mem[comp])
		}
	}

	// Delete the query.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/queries/1", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d", resp3.StatusCode)
	}
	resp4, _ := get(t, ts.URL+"/queries/1")
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d", resp4.StatusCode)
	}
}

func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t)

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"empty doc", "/documents", `{"text":""}`, http.StatusBadRequest},
		{"bad json doc", "/documents", `{`, http.StatusBadRequest},
		{"empty query", "/queries", `{"text":"","k":3}`, http.StatusBadRequest},
		{"stopword query", "/queries", `{"text":"the of and","k":3}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}

	// Unknown and malformed query ids.
	if resp, _ := get(t, ts.URL+"/queries/999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown query: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/queries/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id: %d", resp.StatusCode)
	}

	// Wrong methods.
	if resp, _ := get(t, ts.URL+"/documents"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /documents: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/queries", strings.NewReader("{}"))
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("PUT /queries: %d", resp.StatusCode)
		}
	}
}

// TestServerListQueries covers GET /queries: every registered query's
// top-k served off the published views in ascending query id.
func TestServerListQueries(t *testing.T) {
	s, ts := newTestServer(t)
	for _, q := range []string{"crude oil production", "solar turbine grid"} {
		if resp, _ := post(t, ts.URL+"/queries", `{"text":`+strconvQuote(q)+`,"k":3}`); resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /queries = %d", resp.StatusCode)
		}
	}
	clock := time.Now()
	for _, text := range []string{
		"Crude oil production rose in the north sea fields.",
		"A giant solar turbine connects to the grid today.",
	} {
		clock = clock.Add(time.Millisecond)
		if _, err := s.eng.IngestText(text, clock); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /queries = %d", resp.StatusCode)
	}
	var out []struct {
		Query   uint64 `json:"query"`
		Text    string `json:"text"`
		Matches []struct {
			Doc  uint64 `json:"doc"`
			Text string `json:"text"`
		} `json:"matches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Query != 1 || out[1].Query != 2 {
		t.Fatalf("GET /queries = %+v, want both queries in id order", out)
	}
	if out[0].Text != "crude oil production" || len(out[0].Matches) != 1 {
		t.Fatalf("query 1 entry = %+v", out[0])
	}
	if !strings.Contains(strings.ToLower(out[1].Matches[0].Text), "solar") {
		t.Fatalf("query 2 match = %+v", out[1].Matches)
	}
}

func TestServerDefaultK(t *testing.T) {
	s, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/queries", `{"text":"solar turbines"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	qid := ita.QueryID(body["query"].(float64))
	// Feed 12 matching docs; the default k caps results at 10.
	clock := time.Now()
	for i := 0; i < 12; i++ {
		clock = clock.Add(time.Millisecond)
		if _, err := s.eng.IngestText("solar turbines spinning", clock); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.eng.Results(qid)); got != 10 {
		t.Fatalf("results = %d, want default k=10", got)
	}
}

// TestServerBatchedIngestion posts documents from concurrent clients,
// whose requests commit in shared epochs, each stamped by the server
// clock: every request succeeds, and its document is in the query's
// results by the time its response arrives.
func TestServerBatchedIngestion(t *testing.T) {
	s, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/queries", `{"text":"crude oil","k":50}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /queries = %d", resp.StatusCode)
	}
	qid := ita.QueryID(body["query"].(float64))

	const clients, docs = 8, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < docs; i++ {
				text := fmt.Sprintf("crude oil report %d from client %d", i, c)
				resp, err := http.Post(ts.URL+"/documents", "application/json", strings.NewReader(`{"text":`+strconvQuote(text)+`}`))
				if err != nil {
					t.Error(err)
					return
				}
				var out map[string]uint64
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated || err != nil {
					t.Errorf("client %d: POST /documents = %d (%v)", c, resp.StatusCode, err)
					return
				}
				found := false
				for _, m := range s.eng.Results(qid) {
					found = found || uint64(m.Doc) == out["doc"]
				}
				if !found {
					t.Errorf("client %d: doc %d missing from results after its POST returned", c, out["doc"])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := len(s.eng.Results(qid)); got != clients*docs {
		t.Fatalf("results hold %d documents, want %d", got, clients*docs)
	}
}

func strconvQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestServerWALRecovery runs the -wal configuration end to end: serve,
// crash (no close, no checkpoint), rebuild with the same directory, and
// assert the recovered server answers exactly like the crashed one.
func TestServerWALRecovery(t *testing.T) {
	dir := t.TempDir()
	eng, err := buildEngine(dir, "epoch", 64, 100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{eng: eng}
	clock := time.Now()
	resp := httptest.NewRecorder()
	s.postQuery(resp, httptest.NewRequest(http.MethodPost, "/queries", strings.NewReader(`{"text":"crude oil production","k":3}`)))
	if resp.Code != http.StatusCreated {
		t.Fatalf("POST /queries = %d", resp.Code)
	}
	for _, text := range []string{
		"Crude oil production rose in the north sea fields.",
		"The council debated a new housing policy.",
		"Oil producers curbed crude output amid falling demand.",
	} {
		clock = clock.Add(time.Millisecond)
		if _, err := eng.IngestText(text, clock); err != nil {
			t.Fatal(err)
		}
	}
	want := eng.Results(1)
	if len(want) != 2 {
		t.Fatalf("pre-crash results: %+v", want)
	}
	// Crash: drop the engine without Close or Checkpoint. (No goroutine
	// outlives an epoch, so abandoning it leaks nothing.)
	s = nil

	recovered, err := buildEngine(dir, "epoch", 64, 100, 0, 1)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer recovered.Close()
	s = &server{eng: recovered}
	get := httptest.NewRecorder()
	s.queryByID(get, httptest.NewRequest(http.MethodGet, "/queries/1", nil))
	if get.Code != http.StatusOK {
		t.Fatalf("GET /queries/1 after recovery = %d", get.Code)
	}
	var out struct {
		Query   string `json:"query"`
		Matches []struct {
			Doc   uint64  `json:"doc"`
			Score float64 `json:"score"`
			Text  string  `json:"text"`
		} `json:"matches"`
	}
	if err := json.NewDecoder(get.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Query != "crude oil production" || len(out.Matches) != len(want) {
		t.Fatalf("recovered response %+v, want %d matches", out, len(want))
	}
	for i, m := range out.Matches {
		if m.Doc != uint64(want[i].Doc) || m.Score != want[i].Score || m.Text != want[i].Text {
			t.Fatalf("recovered match %d = %+v, want %+v", i, m, want[i])
		}
	}
}

// TestServerBodyLimit: a request body past 1 MiB answers a clean 413
// instead of being slurped into memory.
func TestServerBodyLimit(t *testing.T) {
	_, ts := newTestServer(t)
	big := `{"text":"` + strings.Repeat("oil ", maxBody/4+1024) + `"}`
	resp, _ := post(t, ts.URL+"/documents", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize POST /documents = %d, want 413", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/queries", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize POST /queries = %d, want 413", resp.StatusCode)
	}
	// The connection and engine survive the rejection.
	resp, _ = post(t, ts.URL+"/documents", `{"text":"crude oil production"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("normal POST after 413 = %d", resp.StatusCode)
	}
}

// TestServerHealthEndpoints covers /healthz, /readyz and /promote on a
// standalone (non-replicating) server.
func TestServerHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, body := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || body["ok"] != true {
		t.Fatalf("GET /healthz = %d %v", resp.StatusCode, body)
	}
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK || body["ready"] != true {
		t.Fatalf("GET /readyz = %d %v", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts.URL+"/promote", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /promote on a non-follower = %d, want 409", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/promote"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /promote = %d, want 405", resp.StatusCode)
	}
	resp, stats := get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats = %d", resp.StatusCode)
	}
	repl, ok := stats["replication"].(map[string]any)
	if !ok || repl["role"] != "none" {
		t.Fatalf("stats replication block = %v", stats["replication"])
	}
}

// TestServerFailoverHTTP drives the full failover story through the
// HTTP surface: a durable primary replicates to a standby server,
// reads flow on both, mutations on the standby answer 503, /readyz
// gates it until caught up, and after the primary goes away POST
// /promote turns it into a serving primary.
func TestServerFailoverHTTP(t *testing.T) {
	primary, err := buildEngine(t.TempDir(), "off", 64, 100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := primary.StartReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, pts := serveEngine(t, primary, "")

	standby, err := buildEngine(t.TempDir(), "off", 64, 100, 0, 1, raddr.String())
	if err != nil {
		t.Fatal(err)
	}
	fs, fts := serveEngine(t, standby, "127.0.0.1:0")
	t.Cleanup(func() { standby.Close() })

	// Write through the primary's HTTP surface.
	if resp, _ := post(t, pts.URL+"/queries", `{"text":"crude oil production","k":3}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /queries = %d", resp.StatusCode)
	}
	if resp, _ := post(t, pts.URL+"/documents", `{"text":"crude oil production rose again"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /documents = %d", resp.StatusCode)
	}

	// The standby catches up and /readyz opens.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, _ := get(t, fts.URL+"/readyz")
		if resp.StatusCode == http.StatusOK {
			if r, _ := get(t, fts.URL+"/queries/1"); r.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never became ready: readyz=%d, stats=%+v", resp.StatusCode, standby.ReplicationStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp, body := get(t, fts.URL+"/queries/1"); resp.StatusCode != http.StatusOK || body["query"] != "crude oil production" {
		t.Fatalf("standby GET /queries/1 = %d %v", resp.StatusCode, body)
	}

	// Mutations on the standby answer 503, reads keep working.
	if resp, _ := post(t, fts.URL+"/documents", `{"text":"rejected"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby POST /documents = %d, want 503", resp.StatusCode)
	}
	if resp, _ := post(t, fts.URL+"/queries", `{"text":"rejected","k":1}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby POST /queries = %d, want 503", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, fts.URL+"/queries/1", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("standby DELETE = %d, want 503", resp.StatusCode)
		}
	}
	resp, stats := get(t, fts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("standby GET /stats = %d", resp.StatusCode)
	}
	if repl, ok := stats["replication"].(map[string]any); !ok || repl["role"] != "follower" {
		t.Fatalf("standby replication block = %v", stats["replication"])
	}

	// Primary dies; the standby promotes and starts serving replication
	// for the next generation.
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, fts.URL+"/promote", "")
	if resp.StatusCode != http.StatusOK || body["role"] != "primary" {
		t.Fatalf("POST /promote = %d %v", resp.StatusCode, body)
	}
	if _, ok := body["replicating_on"].(string); !ok {
		t.Fatalf("promoted server did not start replication: %v", body)
	}
	if resp, _ := post(t, fts.URL+"/promote", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("second POST /promote = %d, want 409", resp.StatusCode)
	}
	if resp, _ := post(t, fts.URL+"/documents", `{"text":"crude oil after failover"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("promoted POST /documents = %d", resp.StatusCode)
	}
	if resp, body := get(t, fts.URL+"/readyz"); resp.StatusCode != http.StatusOK || body["role"] != "primary" {
		t.Fatalf("promoted GET /readyz = %d %v", resp.StatusCode, body)
	}
	_ = fs
}
