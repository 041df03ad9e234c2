package ita

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func t0() time.Time { return time.Unix(1000, 0) }

func at(ms int) time.Time { return t0().Add(time.Duration(ms) * time.Millisecond) }

func newEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewRequiresWindow(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("New without window succeeded")
	}
}

func TestNewRejectsDoubleWindow(t *testing.T) {
	if _, err := New(WithCountWindow(5), WithTimeWindow(time.Minute)); err == nil {
		t.Fatal("two windows accepted")
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	for name, opt := range map[string]Option{
		"count0":   WithCountWindow(0),
		"countneg": WithCountWindow(-3),
		"span0":    WithTimeWindow(0),
		"badalgo":  WithAlgorithm(Algorithm(99)),
		"okapi0":   WithOkapiScoring(0),
		"okapineg": WithOkapiScoring(-10),
		"okapinan": WithOkapiScoring(math.NaN()),
		"okapiinf": WithOkapiScoring(math.Inf(1)),
	} {
		if _, err := New(opt, WithCountWindow(5)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestEndToEndMonitoring(t *testing.T) {
	e := newEngine(t, WithCountWindow(3), WithTextRetention())
	q, err := e.Register("white tower", 2)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := e.IngestText("the white tower gleamed", at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("a report about markets", at(5)); err != nil {
		t.Fatal(err)
	}
	res := e.Results(q)
	if len(res) != 1 {
		t.Fatalf("results = %+v, want 1 match", res)
	}
	if !strings.Contains(res[0].Text, "white tower") {
		t.Fatalf("retained text = %q", res[0].Text)
	}

	// Two more matching docs; the window (N=3) pushes the first doc out.
	if _, err := e.IngestText("towers and towers of white stone", at(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("the tower was white and tall", at(15)); err != nil {
		t.Fatal(err)
	}
	res = e.Results(q)
	if len(res) != 2 {
		t.Fatalf("results = %+v, want 2", res)
	}
	for _, m := range res {
		if m.Score <= 0 || m.Text == "" {
			t.Fatalf("bad match %+v", m)
		}
	}
	if e.WindowLen() != 3 {
		t.Fatalf("window len = %d", e.WindowLen())
	}
}

func TestStemmingUnifiesInflections(t *testing.T) {
	e := newEngine(t, WithCountWindow(10))
	q, err := e.Register("weapon", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("a shipment of weapons was seized", at(0)); err != nil {
		t.Fatal(err)
	}
	if res := e.Results(q); len(res) != 1 {
		t.Fatalf("stemmed query missed inflected document: %+v", res)
	}
}

func TestWithoutStemming(t *testing.T) {
	e := newEngine(t, WithCountWindow(10), WithoutStemming())
	q, err := e.Register("weapon", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("a shipment of weapons was seized", at(0)); err != nil {
		t.Fatal(err)
	}
	if res := e.Results(q); len(res) != 0 {
		t.Fatalf("unstemmed engine should not match: %+v", res)
	}
}

func TestStopwordOnlyQueryRejected(t *testing.T) {
	e := newEngine(t, WithCountWindow(10))
	if _, err := e.Register("the of and", 3); !errors.Is(err, ErrNoQueryTerms) {
		t.Fatalf("want ErrNoQueryTerms, got %v", err)
	}
}

func TestStopwordOnlyDocumentOccupiesWindow(t *testing.T) {
	e := newEngine(t, WithCountWindow(2))
	q, err := e.Register("market", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("markets rallied", at(0)); err != nil {
		t.Fatal(err)
	}
	// Two stopword-only documents must push the match out of the window.
	if _, err := e.IngestText("the and of", at(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("a an but", at(10)); err != nil {
		t.Fatal(err)
	}
	if res := e.Results(q); len(res) != 0 {
		t.Fatalf("expired match still reported: %+v", res)
	}
}

func TestTimeRegressionRejected(t *testing.T) {
	e := newEngine(t, WithCountWindow(10))
	if _, err := e.IngestText("first", at(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("second", at(50)); !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("want ErrTimeRegression, got %v", err)
	}
	if err := e.Advance(at(10)); !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("Advance regression: got %v", err)
	}
}

func TestTimeWindowAdvance(t *testing.T) {
	e := newEngine(t, WithTimeWindow(100*time.Millisecond), WithTextRetention())
	q, err := e.Register("breaking news", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("breaking news from the capital", at(0)); err != nil {
		t.Fatal(err)
	}
	if res := e.Results(q); len(res) != 1 {
		t.Fatalf("results = %+v", res)
	}
	if err := e.Advance(at(150)); err != nil {
		t.Fatal(err)
	}
	if res := e.Results(q); len(res) != 0 {
		t.Fatalf("results after expiry = %+v", res)
	}
	if e.WindowLen() != 0 {
		t.Fatalf("window len = %d", e.WindowLen())
	}
}

func TestResultsUnknownQuery(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	if res := e.Results(99); res != nil {
		t.Fatalf("unknown query results = %+v", res)
	}
}

func TestUnregister(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	q, err := e.Register("energy prices", 3)
	if err != nil {
		t.Fatal(err)
	}
	if txt, ok := e.QueryText(q); !ok || txt != "energy prices" {
		t.Fatalf("QueryText = %q,%v", txt, ok)
	}
	if !e.Unregister(q) {
		t.Fatal("Unregister failed")
	}
	if e.Unregister(q) {
		t.Fatal("double Unregister succeeded")
	}
	if _, ok := e.QueryText(q); ok {
		t.Fatal("QueryText survived Unregister")
	}
	if e.Queries() != 0 {
		t.Fatalf("Queries = %d", e.Queries())
	}
}

func TestAlgorithmsAgreeThroughPublicAPI(t *testing.T) {
	algos := []Algorithm{IncrementalThreshold, NaiveKmax, NaivePlain}
	engines := make([]*Engine, len(algos))
	queries := make([]QueryID, len(algos))
	for i, a := range algos {
		engines[i] = newEngine(t, WithCountWindow(4), WithAlgorithm(a))
		q, err := engines[i].Register("solar wind turbine capacity", 3)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	feed := NewNewsFeed(3)
	for step := 0; step < 60; step++ {
		_, text := feed.Mixed()
		when := at(step * 10)
		for _, e := range engines {
			if _, err := e.IngestText(text, when); err != nil {
				t.Fatal(err)
			}
		}
		base := engines[0].Results(queries[0])
		for i := 1; i < len(engines); i++ {
			other := engines[i].Results(queries[i])
			if len(base) != len(other) {
				t.Fatalf("step %d: %s returned %d, %s returned %d",
					step, algos[0], len(base), algos[i], len(other))
			}
			for j := range base {
				if base[j].Score != other[j].Score {
					t.Fatalf("step %d pos %d: score %g vs %g", step, j, base[j].Score, other[j].Score)
				}
			}
		}
	}
}

func TestOkapiScoringEndToEnd(t *testing.T) {
	e := newEngine(t, WithCountWindow(10), WithOkapiScoring(12))
	q, err := e.Register("market volatility", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("volatility gripped the market as the market slid", at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("weather was mild", at(5)); err != nil {
		t.Fatal(err)
	}
	res := e.Results(q)
	if len(res) != 1 || res[0].Score <= 0 {
		t.Fatalf("okapi results = %+v", res)
	}
}

func TestConcurrentUse(t *testing.T) {
	e := newEngine(t, WithCountWindow(50))
	q, err := e.Register("concurrent stream processing", 5)
	if err != nil {
		t.Fatal(err)
	}
	// Writers feed disjoint time ranges; readers poll results. The test
	// asserts absence of races (run under -race) and engine liveness.
	var wg sync.WaitGroup
	var mu sync.Mutex
	now := t0()
	ingest := func(text string) {
		// The clock and the ingest must advance together, otherwise two
		// goroutines could submit their timestamps out of order.
		mu.Lock()
		now = now.Add(time.Millisecond)
		_, err := e.IngestText(text, now)
		mu.Unlock()
		if err != nil {
			t.Error(err)
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			feed := NewNewsFeed(seed) // NewsFeed itself is not goroutine-safe
			for i := 0; i < 50; i++ {
				_, text := feed.Mixed()
				ingest(text)
			}
		}(int64(w + 1))
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = e.Results(q)
				_ = e.Stats()
			}
		}()
	}
	wg.Wait()
	if e.WindowLen() != 50 {
		t.Fatalf("window len = %d", e.WindowLen())
	}
}

func TestStatsExposed(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	if _, err := e.IngestText("alpha beta gamma", at(0)); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Arrivals != 1 {
		t.Fatalf("Arrivals = %d", s.Arrivals)
	}
	if e.DictionarySize() == 0 {
		t.Fatal("dictionary empty after ingest")
	}
	if e.Algorithm() != IncrementalThreshold {
		t.Fatalf("Algorithm = %v", e.Algorithm())
	}
}

func TestNewsFeedTopics(t *testing.T) {
	if len(NewsTopics()) < 4 {
		t.Fatalf("topics = %v", NewsTopics())
	}
	f := NewNewsFeed(1)
	for _, topic := range NewsTopics() {
		if len(f.Article(topic)) < 40 {
			t.Fatalf("short article for %s", topic)
		}
	}
}
