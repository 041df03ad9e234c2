package ita

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ita/internal/corpus"
	"ita/internal/faults"
)

// atLeastTwoProcs raises GOMAXPROCS to at least 2 for the rest of the
// test, so that a large IngestBatch analyses its rounds in two or more
// shares on any machine.
func atLeastTwoProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// analysisTexts returns n newswire texts of six articles each, about
// 2 KB, so that a 64-text round holds enough text for several analysis
// shares. Text i ends with a term of its own built from tag; every
// fifth also carries uppercase and non-ASCII words, among them the
// Kelvin sign.
func analysisTexts(seed int64, n int, tag string) []string {
	wire := corpus.NewNewswire(seed)
	texts := make([]string, n)
	for i := range texts {
		var sb strings.Builder
		for range 6 {
			_, article := wire.Mixed()
			sb.WriteString(article)
			sb.WriteByte(' ')
		}
		if i%5 == 0 {
			sb.WriteString("MÜLLER Müller résumé Kelvin KELVIN İstanbul ")
		}
		fmt.Fprintf(&sb, "%s%dx", tag, i)
		texts[i] = sb.String()
	}
	return texts
}

// snapshotBytes returns e's snapshot, with the WAL epoch sequence, the
// one field an in-memory engine does not share with a durable one,
// zeroed when normalize is set.
func snapshotBytes(t *testing.T, e *Engine, normalize bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !normalize {
		return buf.Bytes()
	}
	s, err := decodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s.EpochSeq = 0
	return encodeSnapshot(t, s)
}

// TestIngestBatchAnalysisMatchesSerial ingests 256 texts three ways:
// one IngestBatch whose rounds are analysed in shares, the same
// IngestBatch at GOMAXPROCS 1, which analyses every text serially, and
// 256 IngestText calls. The two batches must agree exactly: results,
// dictionary size and snapshot bytes. The single-document engine ran 256
// epochs, so its counters and query state differ by design; its
// dictionary, in id order, and its window's postings must still be
// identical, and its results the same up to exact ties.
func TestIngestBatchAnalysisMatchesSerial(t *testing.T) {
	texts := analysisTexts(3, 256, "serial")
	queries := []string{"crude oil production", "gold price rally", "central bank rate", "Kelvin résumé", "merger talks"}
	items := make([]TimedText, len(texts))
	for i, text := range texts {
		items[i] = TimedText{Text: text, At: at(i)}
	}
	build := func() *Engine {
		e := newEngine(t, WithCountWindow(200), WithShards(2))
		for _, q := range queries {
			if _, err := e.Register(q, 5); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	serialBatch, shared, single := build(), build(), build()
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if _, err := serialBatch.IngestBatch(items); err != nil {
			t.Fatal(err)
		}
	}()
	atLeastTwoProcs(t)
	if _, err := shared.IngestBatch(items); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if _, err := single.IngestText(it.Text, it.At); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := shared.ResultsAll(), serialBatch.ResultsAll(); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared analysis results %v, serial %v", got, want)
	}
	if got, want := shared.DictionarySize(), serialBatch.DictionarySize(); got != want {
		t.Fatalf("shared analysis dictionary has %d terms, serial %d", got, want)
	}
	if !bytes.Equal(snapshotBytes(t, shared, false), snapshotBytes(t, serialBatch, false)) {
		t.Fatal("shared and serial analysis snapshots differ")
	}

	if got, want := shared.DictionarySize(), single.DictionarySize(); got != want {
		t.Fatalf("batch dictionary has %d terms, single-document %d", got, want)
	}
	decode := func(e *Engine) *snapshot {
		s, err := decodeSnapshot(bytes.NewReader(snapshotBytes(t, e, false)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bs, ss := decode(shared), decode(single)
	if !reflect.DeepEqual(bs.Terms, ss.Terms) {
		t.Fatal("batch and single-document dictionaries differ in id order")
	}
	if !reflect.DeepEqual(bs.Docs, ss.Docs) {
		t.Fatal("batch and single-document windows differ")
	}
	for qid := QueryID(1); qid <= QueryID(len(queries)); qid++ {
		if err := sameTopK(shared.Results(qid), single.Results(qid)); err != nil {
			t.Fatalf("query %d: %v", qid, err)
		}
	}
}

// TestResyncedFollowerAnalyzesWithAdoptedDictionary: a resync replaces
// a follower's whole analysis pipeline (adoptLocked), so batch analysis
// must keep nothing of the old one. The old primary, cut off by a
// partition, analyses a large batch of terms the surviving history never
// sees; it then rejoins as a follower of the promoted standby, resyncs
// from a checkpoint, is promoted itself, and ingests a 64-document batch
// of new terms, after which it must match a never-partitioned reference
// byte for byte.
func TestResyncedFollowerAnalyzesWithAdoptedDictionary(t *testing.T) {
	atLeastTwoProcs(t)
	netw := faults.NewNetwork(faults.NewSchedule(1, faults.Config{}))
	pDir := t.TempDir()
	p, err := Open(pDir, replPrimaryOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.startReplicationOn(netw.Listener(l)); err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(8))
	f, err := OpenFollower(t.TempDir(), l.Addr().String(), WithDurability(DurabilityOff),
		withReplTuning(replTuning{
			id: "standby", dial: netw.Dial,
			minBackoff: 2 * time.Millisecond, maxBackoff: 20 * time.Millisecond,
			dialTimeout: time.Second, readTimeout: 2 * time.Second, writeTimeout: 2 * time.Second,
			heartbeat: 10 * time.Millisecond, ackTimeout: 5 * time.Second,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	batch := func(tag string, from int) []TimedText {
		items := make([]TimedText, 64)
		for i, text := range analysisTexts(int64(from), len(items), tag) {
			items[i] = TimedText{Text: text, At: at(from + i)}
		}
		return items
	}
	driveOps(t, 0, 60, p, ref)
	waitReplCaughtUp(t, f, p, 10*time.Second)
	netw.Partition()
	if _, err := p.IngestBatch(batch("diverged", 1000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatalf("promote standby: %v", err)
	}
	driveOps(t, 100, 140, f, ref)

	netw.Heal()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	addr, err := f.StartReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	old := openReplFollower(t, pDir, addr.String(), "old-primary")
	defer old.Close()
	waitReplCaughtUp(t, old, f, 10*time.Second)
	if fs := old.ReplicationStats(); fs.Resyncs == 0 {
		t.Fatalf("diverged rejoin resumed without a resync: %+v", fs)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := old.Promote(); err != nil {
		t.Fatalf("promote resynced follower: %v", err)
	}

	items := batch("adopted", 2000)
	for _, e := range []*Engine{old, ref} {
		if _, err := e.IngestBatch(items); err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, captureState(old), captureState(ref), "resynced, promoted follower after a batch of new terms")
	if !bytes.Equal(snapshotBytes(t, old, true), snapshotBytes(t, ref, true)) {
		t.Fatal("resynced, promoted follower's snapshot differs from the reference's")
	}
}
