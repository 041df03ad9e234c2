package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ita"
	"ita/internal/cluster"
)

// newRouterTestServer builds k engine-backed node servers and a router
// front end over their HTTP surfaces, returning the router server URL
// and the node engines.
func newRouterTestServer(t *testing.T, k int, opts ...ita.Option) (*httptest.Server, []*ita.Engine) {
	t.Helper()
	engines := make([]*ita.Engine, k)
	nodes := make([]cluster.Node, k)
	for i := range engines {
		allOpts := append([]ita.Option{ita.WithCountWindow(100), ita.WithTextRetention()}, opts...)
		eng, err := ita.New(allOpts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		ns := httptest.NewServer(limitBodies(newMux(&server{eng: eng, readyLag: 16})))
		t.Cleanup(ns.Close)
		engines[i] = eng
		nodes[i] = cluster.NewHTTPNode(ns.URL, nil)
	}
	router, err := cluster.NewRouter(nodes)
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(limitBodies(newRouterMux(&routerServer{router: router})))
	t.Cleanup(rs.Close)
	return rs, engines
}

// TestClusterNodeEndpoints exercises the node-side /cluster routes
// through the HTTPNode client: explicit-id registration, alignment,
// pinned-timestamp ingest, batch, advance, status and reads all
// round-trip against the engine's direct answers.
func TestClusterNodeEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	n := cluster.NewHTTPNode(ts.URL, nil)

	if err := n.RegisterWithID(1, "crude oil production", 3); err != nil {
		t.Fatalf("RegisterWithID: %v", err)
	}
	if err := n.AlignRegister(2, "solar turbine output"); err != nil {
		t.Fatalf("AlignRegister: %v", err)
	}
	st, err := n.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.NextQuery != 3 || st.Queries != 1 {
		t.Fatalf("status = %+v, want next_query=3 queries=1", st)
	}
	if st.Dict != s.eng.DictionarySize() || st.Dict == 0 {
		t.Fatalf("status dict = %d, engine says %d (alignment must intern)", st.Dict, s.eng.DictionarySize())
	}

	doc, err := n.IngestText("crude oil production rose", at(10))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := n.IngestBatch([]ita.TimedText{
		{Text: "crude oil exports fell", At: at(20)},
		{Text: "solar turbine output doubled", At: at(21)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != doc+1 {
		t.Fatalf("batch ids = %v after doc %d", ids, doc)
	}
	if err := n.Advance(at(30)); err != nil {
		t.Fatal(err)
	}

	matches, text, ok, err := n.Results(1)
	if err != nil || !ok {
		t.Fatalf("Results: ok=%v err=%v", ok, err)
	}
	if text != "crude oil production" || len(matches) == 0 {
		t.Fatalf("results = %q %+v", text, matches)
	}
	want := s.eng.Results(1)
	if len(matches) != len(want) {
		t.Fatalf("HTTP results %d matches, engine %d", len(matches), len(want))
	}
	for i := range matches {
		if matches[i] != want[i] {
			t.Fatalf("match %d: %+v over HTTP, %+v direct", i, matches[i], want[i])
		}
	}
	if _, _, ok, err := n.Results(99); err != nil || ok {
		t.Fatalf("unknown query: ok=%v err=%v, want false,nil", ok, err)
	}

	all, err := n.ResultsAll()
	if err != nil || len(all) != 1 || all[0].Query != 1 {
		t.Fatalf("ResultsAll = %+v (%v)", all, err)
	}
	stats, err := n.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.eng.Stats(); stats != got {
		t.Fatalf("stats over HTTP %+v != engine %+v", stats, got)
	}

	// Time pinning: the ingested arrival is the pinned nanosecond, not
	// the server clock.
	if got := s.eng.WindowLen(); got != 3 {
		t.Fatalf("window = %d, want 3", got)
	}
}

// TestHTTPNodeFollowerReadOnly: a follower's 503 refusal must unwrap
// to ita.ErrReadOnly through the HTTP transport, so a router treats a
// misplaced follower exactly like a local read-only engine.
func TestHTTPNodeFollowerReadOnly(t *testing.T) {
	primary, err := buildEngine(t.TempDir(), "off", 64, 100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	raddr, err := primary.StartReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	standby, err := buildEngine(t.TempDir(), "off", 64, 100, 0, 1, raddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { standby.Close() })
	_, fts := serveEngine(t, standby, "")

	n := cluster.NewHTTPNode(fts.URL, nil)
	if err := n.RegisterWithID(1, "crude oil production", 3); !errors.Is(err, ita.ErrReadOnly) {
		t.Fatalf("RegisterWithID on follower = %v, want ErrReadOnly", err)
	}
	if err := n.AlignRegister(1, "crude oil production"); !errors.Is(err, ita.ErrReadOnly) {
		t.Fatalf("AlignRegister on follower = %v, want ErrReadOnly", err)
	}
	if _, err := n.IngestText("rejected", at(0)); !errors.Is(err, ita.ErrReadOnly) {
		t.Fatalf("IngestText on follower = %v, want ErrReadOnly", err)
	}

	// Behind a router, the refusal surfaces as the public API's 503.
	router, err := cluster.NewRouter([]cluster.Node{n})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(limitBodies(newRouterMux(&routerServer{router: router})))
	t.Cleanup(rs.Close)
	if resp, _ := post(t, rs.URL+"/documents", `{"text":"rejected"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router POST /documents over follower = %d, want 503", resp.StatusCode)
	}
}

// TestRouterModeHTTP is the end-to-end cluster smoke at the HTTP
// layer: a 2-node cluster behind the router mux serves the public API
// with merged reads identical to a single-process reference.
func TestRouterModeHTTP(t *testing.T) {
	rs, engines := newRouterTestServer(t, 2)
	ref, err := ita.New(ita.WithCountWindow(100), ita.WithTextRetention())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for i, q := range []string{"crude oil production", "solar turbine output", "tanker exports"} {
		resp, body := post(t, rs.URL+"/queries", fmt.Sprintf(`{"text":%q,"k":3}`, q))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /queries = %d", resp.StatusCode)
		}
		if want, _ := ref.Register(q, 3); uint64(body["query"].(float64)) != uint64(want) {
			t.Fatalf("query %d: router id %v, reference %d", i, body["query"], want)
		}
	}
	for i := 0; i < 20; i++ {
		text := fmt.Sprintf("crude solar tanker report %d", i%4)
		atNs := at(i * 10).UnixNano()
		if resp, _ := post(t, rs.URL+"/documents", fmt.Sprintf(`{"text":%q,"at":%d}`, text, atNs)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /documents = %d", resp.StatusCode)
		}
		if _, err := ref.IngestText(text, at(i*10)); err != nil {
			t.Fatal(err)
		}
	}

	// Each node holds a strict subset of the queries...
	total := 0
	for _, e := range engines {
		n := e.Queries()
		if n == 3 {
			t.Fatal("one node owns every query; placement is not partitioning")
		}
		total += n
	}
	if total != 3 {
		t.Fatalf("nodes own %d queries total, want 3", total)
	}

	// ...while the router serves the union, byte-identical to the
	// single-process reference.
	resp, _ := get(t, rs.URL+"/queries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /queries = %d", resp.StatusCode)
	}
	var list []queryResponse
	listResp, err := http.Get(rs.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	decodeInto(t, listResp, &list)
	want := ref.ResultsAll()
	if len(list) != len(want) {
		t.Fatalf("router lists %d queries, reference %d", len(list), len(want))
	}
	for i, q := range list {
		if q.Query != uint64(want[i].Query) || len(q.Matches) != len(want[i].Matches) {
			t.Fatalf("entry %d: %+v vs %+v", i, q, want[i])
		}
		for j, m := range q.Matches {
			if m.Doc != uint64(want[i].Matches[j].Doc) || m.Score != want[i].Matches[j].Score {
				t.Fatalf("entry %d match %d: %+v vs %+v", i, j, m, want[i].Matches[j])
			}
		}
	}

	// Merged stats equal the single-process counters.
	resp, stats := get(t, rs.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats = %d", resp.StatusCode)
	}
	counters := stats["counters"].(map[string]any)
	refStats := ref.Stats()
	if got := uint64(counters["Arrivals"].(float64)); got != refStats.Arrivals {
		t.Fatalf("merged arrivals %d, reference %d", got, refStats.Arrivals)
	}
	if got := uint64(counters["ProbeHits"].(float64)); got != refStats.ProbeHits {
		t.Fatalf("merged probe hits %d, reference %d", got, refStats.ProbeHits)
	}
	if got := stats["queries"].(float64); int(got) != ref.Queries() {
		t.Fatalf("merged queries %v, reference %d", got, ref.Queries())
	}

	// Unregister through the router removes from the owner and keeps
	// the rest serving.
	req, _ := http.NewRequest(http.MethodDelete, rs.URL+"/queries/2", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE /queries/2 = %d", dresp.StatusCode)
	}
	if !ref.Unregister(2) {
		t.Fatal(err)
	}
	if resp, _ := get(t, rs.URL+"/queries/2"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET deleted query = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, rs.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz = %d", resp.StatusCode)
	}
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// at builds deterministic arrival times off a fixed base.
func at(ms int) time.Time {
	return time.Unix(1e9, int64(ms)*int64(time.Millisecond))
}
