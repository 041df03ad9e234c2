package ita

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func snapshotRoundTrip(t *testing.T, e *Engine) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return restored
}

func sameResults(t *testing.T, a, b *Engine, q QueryID) {
	t.Helper()
	ra, rb := a.Results(q), b.Results(q)
	if len(ra) != len(rb) {
		t.Fatalf("restored results differ: %v vs %v", ra, rb)
	}
	for i := range ra {
		if ra[i].Doc != rb[i].Doc || ra[i].Score != rb[i].Score || ra[i].Text != rb[i].Text {
			t.Fatalf("restored result[%d] = %+v, want %+v", i, rb[i], ra[i])
		}
	}
}

func TestSnapshotRoundTripPreservesResults(t *testing.T) {
	e := newEngine(t, WithCountWindow(20), WithTextRetention())
	q1, err := e.Register("crude oil refinery", 3)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Register("interest rates inflation", 2)
	if err != nil {
		t.Fatal(err)
	}
	feed := NewNewsFeed(11)
	for i := 0; i < 40; i++ {
		_, text := feed.Mixed()
		if _, err := e.IngestText(text, at(i*10)); err != nil {
			t.Fatal(err)
		}
	}

	r := snapshotRoundTrip(t, e)
	sameResults(t, e, r, q1)
	sameResults(t, e, r, q2)
	if r.WindowLen() != e.WindowLen() {
		t.Fatalf("window %d vs %d", r.WindowLen(), e.WindowLen())
	}
	if r.DictionarySize() != e.DictionarySize() {
		t.Fatalf("dictionary %d vs %d", r.DictionarySize(), e.DictionarySize())
	}
	if txt, ok := r.QueryText(q1); !ok || txt != "crude oil refinery" {
		t.Fatalf("query text = %q,%v", txt, ok)
	}

	// Both engines must evolve identically after the snapshot point.
	for i := 40; i < 60; i++ {
		_, text := feed.Mixed()
		if _, err := e.IngestText(text, at(i*10)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.IngestText(text, at(i*10)); err != nil {
			t.Fatal(err)
		}
		sameResults(t, e, r, q1)
		sameResults(t, e, r, q2)
	}
}

func TestSnapshotPreservesDocIDSequence(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	id1, err := e.IngestText("first document here", at(0))
	if err != nil {
		t.Fatal(err)
	}
	r := snapshotRoundTrip(t, e)
	id2a, err := e.IngestText("second document here", at(10))
	if err != nil {
		t.Fatal(err)
	}
	id2b, err := r.IngestText("second document here", at(10))
	if err != nil {
		t.Fatal(err)
	}
	if id2a != id2b || id2b != id1+1 {
		t.Fatalf("doc id sequence diverged: %d vs %d", id2a, id2b)
	}
}

func TestSnapshotTimeWindow(t *testing.T) {
	e := newEngine(t, WithTimeWindow(200*time.Millisecond))
	q, err := e.Register("solar turbine", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("solar turbine farm", at(0)); err != nil {
		t.Fatal(err)
	}
	r := snapshotRoundTrip(t, e)
	sameResults(t, e, r, q)
	// The restored span policy must keep expiring on the clock.
	if err := r.Advance(at(300)); err != nil {
		t.Fatal(err)
	}
	if got := r.Results(q); len(got) != 0 {
		t.Fatalf("restored time window did not expire: %+v", got)
	}
}

func TestSnapshotOkapiAndFlags(t *testing.T) {
	e := newEngine(t, WithCountWindow(10), WithOkapiScoring(25), WithoutStemming())
	q, err := e.Register("turbine", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("turbine turbine spinning", at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("turbines spinning", at(5)); err != nil {
		t.Fatal(err)
	}
	r := snapshotRoundTrip(t, e)
	sameResults(t, e, r, q)
	// Stemming stayed off: "turbines" must not match after restore
	// either, which sameResults already proved (1 match, not 2).
	if got := r.Results(q); len(got) != 1 {
		t.Fatalf("results = %+v", got)
	}
}

// TestSnapshotRoundTripAllOptions round-trips every persistable
// configuration option — algorithm, window, scoring, analysis flags,
// text retention and shard count — and checks each survives into the
// restored engine's configuration and behavior, with the stream fed in
// IngestBatch calls of batch documents.
func TestSnapshotRoundTripAllOptions(t *testing.T) {
	cases := []struct {
		name  string
		opts  []Option
		batch int
	}{
		{"defaults", []Option{WithCountWindow(8)}, 1},
		{"time_window", []Option{WithTimeWindow(400 * time.Millisecond)}, 1},
		{"batch", []Option{WithCountWindow(8)}, 4},
		{"sharded_batch", []Option{WithCountWindow(8), WithShards(3)}, 16},
		{"kitchen_sink", []Option{
			WithCountWindow(8), WithShards(2),
			WithOkapiScoring(30), WithoutStemming(), WithoutStopwords(),
			WithTextRetention(),
		}, 5},
		{"naive", []Option{WithCountWindow(8), WithAlgorithm(NaiveKmax)}, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, tc.opts...)
			defer e.Close()
			q, err := e.Register("crude oil market", 3)
			if err != nil {
				t.Fatal(err)
			}
			// ingest feeds texts[i] at at(i*10) for i in [from, to), in
			// calls of tc.batch documents.
			ingest := func(texts []string, from, to int, engs ...*Engine) {
				t.Helper()
				for i := from; i < to; i += tc.batch {
					var items []TimedText
					for j := i; j < min(i+tc.batch, to); j++ {
						items = append(items, TimedText{Text: texts[j], At: at(j * 10)})
					}
					for _, x := range engs {
						if _, err := x.IngestBatch(items); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			ingest(feedTexts(13), 0, 13, e)
			r := snapshotRoundTrip(t, e)
			defer r.Close()

			// The full configuration must survive.
			if r.cfg.algorithm != e.cfg.algorithm ||
				r.cfg.shards != e.cfg.shards ||
				r.cfg.stemming != e.cfg.stemming ||
				r.cfg.stopwords != e.cfg.stopwords ||
				r.cfg.retainText != e.cfg.retainText ||
				r.cfg.weighter != e.cfg.weighter ||
				r.cfg.policy.String() != e.cfg.policy.String() {
				t.Fatalf("restored config %+v, want %+v", r.cfg, e.cfg)
			}
			// The snapshotting engine and the restored one agree
			// immediately. (The restored engine replays only the surviving window, not the
			// full stream history, so inside an exact-score tie group at
			// the k-th rank it may retain a different — equally correct —
			// member; sameTopK is exactly that guarantee.)
			if err := sameTopK(r.Results(q), e.Results(q)); err != nil {
				t.Fatalf("restored results: %v", err)
			}
			if r.WindowLen() != e.WindowLen() {
				t.Fatalf("window %d vs %d", r.WindowLen(), e.WindowLen())
			}
			// ...and keep agreeing while both continue.
			more := make([]string, 29)
			for i := 13; i < 29; i++ {
				more[i] = fmt.Sprintf("crude market report %d", i)
			}
			ingest(more, 13, 29, e, r)
			if err := sameTopK(r.Results(q), e.Results(q)); err != nil {
				t.Fatalf("post-restore evolution: %v", err)
			}
		})
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSnapshotNaiveEngine(t *testing.T) {
	e := newEngine(t, WithCountWindow(10), WithAlgorithm(NaiveKmax))
	q, err := e.Register("pipeline exports", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("gas pipeline exports grew", at(0)); err != nil {
		t.Fatal(err)
	}
	r := snapshotRoundTrip(t, e)
	if r.Algorithm() != NaiveKmax {
		t.Fatalf("algorithm = %v", r.Algorithm())
	}
	sameResults(t, e, r, q)
}

// TestMidStreamSnapshotWithActiveReaders snapshots a sharded, batched
// engine mid-stream — readers hammering the published views the whole
// time, a partial epoch buffered at the moment of the snapshot — then
// restores and asserts that (a) the restored engine's published views
// are equivalent to the original's at the snapshot boundary, and
// (b) watchers attached to both engines pick up identically: feeding the
// same subsequent epochs to both produces the same delta stream.
func TestMidStreamSnapshotWithActiveReaders(t *testing.T) {
	e := newEngine(t, WithCountWindow(9), WithShards(2), WithTextRetention())
	defer e.Close()
	queries := []string{"crude oil market", "solar turbine grid", "tanker export"}
	var qids []QueryID
	for _, q := range queries {
		id, err := e.Register(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, id)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := qids[(i+r)%len(qids)]
				res := e.Results(id)
				for j := 1; j < len(res); j++ {
					if res[j].Score > res[j-1].Score {
						t.Errorf("unsorted published result for query %d: %v", id, res)
						return
					}
				}
			}
		}(r)
	}

	// The stream arrives in IngestBatch calls of up to 4 documents.
	texts := feedTexts(60)
	ingest := func(eng *Engine, from, to int) {
		t.Helper()
		for i := from; i < to; i += 4 {
			var items []TimedText
			for j := i; j < min(i+4, to); j++ {
				items = append(items, TimedText{Text: texts[j], At: at(j * 10)})
			}
			if _, err := eng.IngestBatch(items); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(e, 0, 42) // 42 % 4 != 0: the last call is a partial epoch
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// (a) Published views agree at the snapshot boundary, for single
	// reads and for the full enumeration.
	ra, rb := e.ResultsAll(), r.ResultsAll()
	if len(ra) != len(rb) {
		t.Fatalf("ResultsAll sizes diverge: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Query != rb[i].Query {
			t.Fatalf("ResultsAll order diverges: %v vs %v", ra[i].Query, rb[i].Query)
		}
		if err := sameTopK(rb[i].Matches, ra[i].Matches); err != nil {
			t.Fatalf("restored views diverge for query %d: %v", ra[i].Query, err)
		}
	}

	// (b) Watch deltas pick up identically on both engines: a watcher
	// replaying its deltas on top of its attach-time result must
	// reconstruct score-equivalent boundary states on both engines at
	// every subsequent epoch boundary. (Raw delta streams may legally
	// differ in the documents of a k-th-score tie group — both engines
	// report a correct top-k — so the comparison is by reconstructed
	// result, not by delta bytes.)
	type mirror map[DocID]float64
	deltas := 0
	attach := func(eng *Engine) map[QueryID]mirror {
		mirrors := make(map[QueryID]mirror, len(qids))
		for _, id := range qids {
			id := id
			m := mirror{}
			for _, match := range eng.Results(id) {
				m[match.Doc] = match.Score
			}
			mirrors[id] = m
			if err := eng.Watch(id, func(d Delta) {
				deltas++
				for _, doc := range d.Exited {
					delete(m, doc)
				}
				for _, ent := range d.Entered {
					m[ent.Doc] = ent.Score
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		return mirrors
	}
	scores := func(m mirror) []float64 {
		out := make([]float64, 0, len(m))
		for _, s := range m {
			out = append(out, s)
		}
		sort.Float64s(out)
		return out
	}
	mirA, mirB := attach(e), attach(r)
	checkBoundary := func(i int) {
		t.Helper()
		for _, id := range qids {
			if err := sameTopK(r.Results(id), e.Results(id)); err != nil {
				t.Fatalf("doc %d: published views diverge for query %d: %v", i, id, err)
			}
			if !reflect.DeepEqual(scores(mirA[id]), scores(mirB[id])) {
				t.Fatalf("doc %d: delta-reconstructed results diverge for query %d:\noriginal %v\nrestored %v",
					i, id, scores(mirA[id]), scores(mirB[id]))
			}
			// Each mirror must also agree with its own engine's published
			// view — the delta stream and the read path tell one story.
			want := mirror{}
			for _, match := range e.Results(id) {
				want[match.Doc] = match.Score
			}
			if !reflect.DeepEqual(mirA[id], want) {
				t.Fatalf("doc %d: original watcher mirror %v diverged from published view %v", i, mirA[id], want)
			}
		}
	}
	for i := 42; i < 60; i += 4 {
		end := min(i+4, 60)
		ingest(e, i, end)
		ingest(r, i, end)
		checkBoundary(end - 1)
	}
	if deltas == 0 {
		t.Fatal("tail epochs produced no deltas; test stream too weak")
	}
}
