package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ita"
)

// target is the system under test as the load generator sees it: the
// in-process facade, or a server over HTTP.
type target interface {
	// ingest publishes the documents: one epoch in process, one POST
	// per document over HTTP. stamp, when set, runs once per completed
	// call with the number of documents that call published.
	ingest(items []ita.TimedText, stamp func(n int)) error
	// maxBatch is the most documents one call can publish.
	maxBatch() int
	register(text string, k int) (ita.QueryID, error)
	unregister(id ita.QueryID) error
	// results reads a query's top-k on the writer's connection.
	results(id ita.QueryID) ([]ita.Match, error)
	// reader returns a read function for a second goroutine (a second
	// connection over HTTP).
	reader() func(id ita.QueryID) ([]ita.Match, error)
	dictionarySize() (int, error)
	// memoryMB gauges the memory the system holds.
	memoryMB() (float64, error)
	close() error
}

// engineTarget drives ita.Engine directly. base is the live heap before
// the engine was built.
type engineTarget struct {
	e    *ita.Engine
	base int64
}

func newEngine(w workload) (*ita.Engine, error) {
	opts := []ita.Option{ita.WithCountWindow(w.Window)}
	if w.Shards > 1 {
		opts = append(opts, ita.WithShards(w.Shards))
	}
	return ita.New(opts...)
}

func (t *engineTarget) ingest(items []ita.TimedText, stamp func(int)) error {
	var err error
	if len(items) == 1 {
		_, err = t.e.IngestText(items[0].Text, items[0].At)
	} else {
		_, err = t.e.IngestBatch(items)
	}
	if err == nil && stamp != nil {
		stamp(len(items))
	}
	return err
}

func (t *engineTarget) maxBatch() int { return pacedCap }

func (t *engineTarget) register(text string, k int) (ita.QueryID, error) {
	return t.e.Register(text, k)
}

func (t *engineTarget) unregister(id ita.QueryID) error {
	if !t.e.Unregister(id) {
		return fmt.Errorf("unregister %d: unknown query", id)
	}
	return nil
}

func (t *engineTarget) results(id ita.QueryID) ([]ita.Match, error) {
	res := t.e.Results(id)
	if res == nil {
		return nil, fmt.Errorf("results %d: unknown query", id)
	}
	return res, nil
}

func (t *engineTarget) reader() func(ita.QueryID) ([]ita.Match, error) { return t.results }

func (t *engineTarget) dictionarySize() (int, error) { return t.e.DictionarySize(), nil }

// memoryMB reports the live heap the engine accounts for: live heap now
// minus live heap before it was built, so the benchmark's own inputs
// cancel out.
func (t *engineTarget) memoryMB() (float64, error) { return float64(liveHeap()-t.base) / 1e6, nil }

func (t *engineTarget) close() error { return t.e.Close() }

// liveHeap forces a collection and returns the bytes that survive it.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// httpTarget drives an itaserver subprocess over loopback, one
// connection for writes and one for the reader.
type httpTarget struct {
	cmd   *exec.Cmd
	base  string
	write *http.Client
	read  *http.Client
}

// oneConn returns a client that keeps a single connection alive.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// checkpointEvery is the server's checkpoint cadence in epoch boundaries.
// The default of 256 writes the whole window, texts included, every 256
// documents: a third of a gigabyte per run, after a few dozen of which
// the container's disk is throttled to 10 MB/s and every later run
// measures the throttle.
const checkpointEvery = 4096

// startServer spawns itaserver on a free loopback port with its WAL in
// walDir and waits until /readyz answers. Batch 1 is the server's
// default. Fsync per epoch is not: the container's disk takes 0.3 ms for
// one at some hours and 4 ms at others, so a server that syncs per
// document measures the host's disk, and at the slow end cannot keep up
// with the frozen paced rate. The log is still written, checkpointed
// (with the checkpoint's own fsyncs) and recovered.
func startServer(bin, walDir string, window int) (*httpTarget, error) {
	if bin == "" {
		return nil, errors.New("the serve-http workload needs -server <itaserver binary>")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-window", strconv.Itoa(window), "-wal", walDir,
		"-durability", "off", "-checkpoint", strconv.Itoa(checkpointEvery))
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start itaserver: %w", err)
	}
	t := &httpTarget{cmd: cmd, base: "http://" + addr, write: oneConn(), read: oneConn()}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := t.write.Get(t.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return t, nil
			}
		}
		if time.Now().After(deadline) {
			t.kill()
			return nil, fmt.Errorf("itaserver not ready after 20s: %v\n%s", err, logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill stops the server the hard way and waits for it.
func (t *httpTarget) kill() {
	t.cmd.Process.Kill()
	t.cmd.Wait()
	t.write.CloseIdleConnections()
	t.read.CloseIdleConnections()
}

// do sends one request and decodes a JSON reply into out (nil discards it).
func (t *httpTarget) do(c *http.Client, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type documentBody struct {
	Text string `json:"text"`
	At   int64  `json:"at"`
}

func (t *httpTarget) ingest(items []ita.TimedText, stamp func(int)) error {
	for _, it := range items {
		if err := t.do(t.write, http.MethodPost, "/documents", documentBody{it.Text, it.At.UnixNano()}, nil); err != nil {
			return err
		}
		if stamp != nil {
			stamp(1)
		}
	}
	return nil
}

func (t *httpTarget) maxBatch() int { return 1 }

func (t *httpTarget) register(text string, k int) (ita.QueryID, error) {
	var out struct {
		Query uint64 `json:"query"`
	}
	body := struct {
		Text string `json:"text"`
		K    int    `json:"k"`
	}{text, k}
	err := t.do(t.write, http.MethodPost, "/queries", body, &out)
	return ita.QueryID(out.Query), err
}

func (t *httpTarget) unregister(id ita.QueryID) error {
	return t.do(t.write, http.MethodDelete, "/queries/"+strconv.FormatUint(uint64(id), 10), nil, nil)
}

func (t *httpTarget) get(c *http.Client, id ita.QueryID) ([]ita.Match, error) {
	var out struct {
		Matches []struct {
			Doc   uint64  `json:"doc"`
			Score float64 `json:"score"`
		} `json:"matches"`
	}
	if err := t.do(c, http.MethodGet, "/queries/"+strconv.FormatUint(uint64(id), 10), nil, &out); err != nil {
		return nil, err
	}
	res := make([]ita.Match, len(out.Matches))
	for i, m := range out.Matches {
		res[i] = ita.Match{Doc: ita.DocID(m.Doc), Score: m.Score}
	}
	return res, nil
}

func (t *httpTarget) results(id ita.QueryID) ([]ita.Match, error) { return t.get(t.write, id) }

func (t *httpTarget) reader() func(ita.QueryID) ([]ita.Match, error) {
	return func(id ita.QueryID) ([]ita.Match, error) { return t.get(t.read, id) }
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Dictionary  int     `json:"dictionary"`
	MemoryTotal float64 `json:"memory_total"`
}

func (t *httpTarget) stats() (serverStats, error) {
	var out serverStats
	err := t.do(t.write, http.MethodGet, "/stats", nil, &out)
	return out, err
}

func (t *httpTarget) dictionarySize() (int, error) {
	st, err := t.stats()
	return st.Dictionary, err
}

// memoryMB is the engine footprint the server itself reports. Its heap
// is not visible from outside, and its resident set follows the
// collector's timing: it spreads by a twelfth between runs, where this
// repeats for a seed. The traced pass reports the resident set too.
func (t *httpTarget) memoryMB() (float64, error) {
	st, err := t.stats()
	return st.MemoryTotal / 1e6, err
}

// rssMB reads the server's resident set from /proc.
func (t *httpTarget) rssMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(t.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// close shuts the server down gracefully and waits for it.
func (t *httpTarget) close() error {
	t.write.CloseIdleConnections()
	t.read.CloseIdleConnections()
	if err := t.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- t.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.cmd.Process.Kill()
		<-done
		return errors.New("itaserver ignored SIGTERM for 20s")
	}
}
