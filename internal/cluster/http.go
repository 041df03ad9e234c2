package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ita/internal/core"
	"ita/internal/model"
)

// HTTPNode drives a remote itaserver node over its HTTP API. Write
// paths use the /cluster endpoints (explicit ids, alignment, shared
// arrival timestamps); reads use the public endpoints. A 503 from a
// read-only follower is surfaced as core.ErrReadOnly so callers can
// errors.Is it exactly like a local engine's refusal.
type HTTPNode struct {
	base   string
	client *http.Client
}

// NewHTTPNode wraps the node at base (e.g. "http://127.0.0.1:8095").
// client nil uses a default with a 10s timeout.
func NewHTTPNode(base string, client *http.Client) *HTTPNode {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &HTTPNode{base: strings.TrimRight(base, "/"), client: client}
}

type httpStatusError struct {
	code int
	body string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.code, strings.TrimSpace(e.body))
}

// do issues one request and decodes a JSON response into out (when
// non-nil). Engine refusals keep their identity: a 503 from a
// follower unwraps to core.ErrReadOnly.
func (n *HTTPNode) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, n.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(msg), "read-only") {
			return fmt.Errorf("%s %s: %s: %w", method, path, strings.TrimSpace(string(msg)), core.ErrReadOnly)
		}
		return &httpStatusError{code: resp.StatusCode, body: string(msg)}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// RegisterWithID implements Node.
func (n *HTTPNode) RegisterWithID(id model.QueryID, text string, k int) error {
	req := struct {
		ID   uint64 `json:"id"`
		Text string `json:"text"`
		K    int    `json:"k"`
	}{uint64(id), text, k}
	return n.do(http.MethodPost, "/cluster/register", req, nil)
}

// AlignRegister implements Node.
func (n *HTTPNode) AlignRegister(id model.QueryID, text string) error {
	req := struct {
		ID   uint64 `json:"id"`
		Text string `json:"text"`
	}{uint64(id), text}
	return n.do(http.MethodPost, "/cluster/align", req, nil)
}

// Unregister implements Node. A 404 is "not found", not an error, to
// match the local engine's boolean.
func (n *HTTPNode) Unregister(id model.QueryID) (bool, error) {
	err := n.do(http.MethodDelete, fmt.Sprintf("/queries/%d", id), nil, nil)
	if err != nil {
		var se *httpStatusError
		if ok := asStatusError(err, &se); ok && se.code == http.StatusNotFound {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

func asStatusError(err error, out **httpStatusError) bool {
	se, ok := err.(*httpStatusError)
	if ok {
		*out = se
	}
	return ok
}

// IngestText implements Node, pinning the router's shared arrival time
// so every node applies the identical timestamp.
func (n *HTTPNode) IngestText(text string, at time.Time) (model.DocID, error) {
	req := struct {
		Text string `json:"text"`
		At   int64  `json:"at"`
	}{text, at.UnixNano()}
	var resp struct {
		Doc uint64 `json:"doc"`
	}
	if err := n.do(http.MethodPost, "/documents", req, &resp); err != nil {
		return 0, err
	}
	return model.DocID(resp.Doc), nil
}

// IngestBatch implements Node.
func (n *HTTPNode) IngestBatch(items []model.TimedText) ([]model.DocID, error) {
	type entry struct {
		Text string `json:"text"`
		At   int64  `json:"at"`
	}
	req := struct {
		Items []entry `json:"items"`
	}{Items: make([]entry, 0, len(items))}
	for _, it := range items {
		req.Items = append(req.Items, entry{Text: it.Text, At: it.At.UnixNano()})
	}
	var resp struct {
		Docs []uint64 `json:"docs"`
	}
	if err := n.do(http.MethodPost, "/cluster/ingest", req, &resp); err != nil {
		return nil, err
	}
	ids := make([]model.DocID, len(resp.Docs))
	for i, d := range resp.Docs {
		ids[i] = model.DocID(d)
	}
	return ids, nil
}

// Advance implements Node.
func (n *HTTPNode) Advance(now time.Time) error {
	req := struct {
		At int64 `json:"at"`
	}{now.UnixNano()}
	return n.do(http.MethodPost, "/cluster/advance", req, nil)
}

// Results implements Node.
func (n *HTTPNode) Results(id model.QueryID) ([]model.Match, string, bool, error) {
	var resp struct {
		Query   string `json:"query"`
		Matches []struct {
			Doc   uint64  `json:"doc"`
			Score float64 `json:"score"`
			Text  string  `json:"text"`
		} `json:"matches"`
	}
	if err := n.do(http.MethodGet, fmt.Sprintf("/queries/%d", id), nil, &resp); err != nil {
		var se *httpStatusError
		if ok := asStatusError(err, &se); ok && se.code == http.StatusNotFound {
			return nil, "", false, nil
		}
		return nil, "", false, err
	}
	matches := make([]model.Match, 0, len(resp.Matches))
	for _, m := range resp.Matches {
		matches = append(matches, model.Match{Doc: model.DocID(m.Doc), Score: m.Score, Text: m.Text})
	}
	return matches, resp.Query, true, nil
}

// ResultsAll implements Node.
func (n *HTTPNode) ResultsAll() ([]QueryTopK, error) {
	var resp []struct {
		Query   uint64 `json:"query"`
		Text    string `json:"text"`
		Matches []struct {
			Doc   uint64  `json:"doc"`
			Score float64 `json:"score"`
			Text  string  `json:"text"`
		} `json:"matches"`
	}
	if err := n.do(http.MethodGet, "/queries", nil, &resp); err != nil {
		return nil, err
	}
	out := make([]QueryTopK, 0, len(resp))
	for _, q := range resp {
		matches := make([]model.Match, 0, len(q.Matches))
		for _, m := range q.Matches {
			matches = append(matches, model.Match{Doc: model.DocID(m.Doc), Score: m.Score, Text: m.Text})
		}
		out = append(out, QueryTopK{Query: model.QueryID(q.Query), Text: q.Text, Matches: matches})
	}
	return out, nil
}

// Stats implements Node. core.Stats marshals by Go field name on both
// ends, so the round trip is lossless.
func (n *HTTPNode) Stats() (core.Stats, error) {
	var resp struct {
		Counters core.Stats `json:"counters"`
	}
	if err := n.do(http.MethodGet, "/stats", nil, &resp); err != nil {
		return core.Stats{}, err
	}
	return resp.Counters, nil
}

// Status implements Node.
func (n *HTTPNode) Status() (Status, error) {
	var st Status
	if err := n.do(http.MethodGet, "/cluster/status", nil, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Close implements Node. The remote process is not ours to stop; only
// the client handle is dropped.
func (n *HTTPNode) Close() error {
	n.client.CloseIdleConnections()
	return nil
}
