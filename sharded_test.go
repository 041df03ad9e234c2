package ita

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ita/internal/core"
)

// feedTexts generates a deterministic stream of small overlapping
// documents for facade-level equivalence checks.
func feedTexts(n int) []string {
	words := []string{"oil", "crude", "market", "price", "export", "tanker", "refinery", "barrel"}
	out := make([]string, n)
	for i := range out {
		a := words[i%len(words)]
		b := words[(i*3+1)%len(words)]
		c := words[(i*5+2)%len(words)]
		out[i] = fmt.Sprintf("%s %s %s report %d", a, b, c, i%7)
	}
	return out
}

// TestWithShardsMatchesSingleThreaded drives a four-shard engine, the
// default engine (one shard per CPU) and a single-threaded one through
// an identical text stream and requires identical results for every
// query at every step and identical Stats. The stream ends with batches
// over a few hundred queries, enough maintenance work per epoch that
// the sharded engines run their shards on separate goroutines.
func TestWithShardsMatchesSingleThreaded(t *testing.T) {
	single := newEngine(t, WithCountWindow(12), WithShards(1))
	sharded := newEngine(t, WithCountWindow(12), WithShards(4))
	auto := newEngine(t, WithCountWindow(12))
	others := []*Engine{sharded, auto}

	if got := sharded.Algorithm(); got != IncrementalThreshold {
		t.Fatalf("Algorithm() = %v, want IncrementalThreshold", got)
	}
	if got := shardCount(sharded); got != 4 {
		t.Fatalf("shard count %d, want 4", got)
	}
	if got, want := shardCount(auto), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default shard count %d, want GOMAXPROCS = %d", got, want)
	}

	register := func(q string) {
		want, err := single.Register(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range others {
			id, err := e.Register(q, 3)
			if err != nil {
				t.Fatal(err)
			}
			if id != want {
				t.Fatalf("query ids diverge: %d vs %d", id, want)
			}
		}
	}
	compare := func(step string) {
		for _, e := range others {
			for qid := QueryID(1); qid <= QueryID(single.Queries()); qid++ {
				want := single.Results(qid)
				got := e.Results(qid)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s query %d with %d shards:\ngot    %v\nsingle %v", step, qid, shardCount(e), got, want)
				}
			}
		}
	}
	for _, q := range []string{"crude oil", "tanker export market", "refinery barrel price", "oil price"} {
		register(q)
	}
	texts := feedTexts(200)
	for i, text := range texts[:80] {
		ts := at(i * 10)
		for _, e := range append(others, single) {
			if _, err := e.IngestText(text, ts); err != nil {
				t.Fatal(err)
			}
		}
		compare(fmt.Sprintf("step %d", i))
	}

	words := []string{"oil", "crude", "market", "price", "export", "tanker", "refinery", "barrel", "report"}
	for i := 0; i < 250; i++ {
		register(fmt.Sprintf("%s %s %s", words[i%9], words[(i/9)%9], words[(i/3+4)%9]))
	}
	for b := 80; b < len(texts); b += 12 {
		items := make([]TimedText, 0, 12)
		for i := b; i < min(b+12, len(texts)); i++ {
			items = append(items, TimedText{Text: texts[i], At: at(i * 10)})
		}
		for _, e := range append(others, single) {
			if _, err := e.IngestBatch(items); err != nil {
				t.Fatal(err)
			}
		}
		compare(fmt.Sprintf("batch at %d", b))
	}
	for _, e := range others {
		if single.Stats() != e.Stats() {
			t.Fatalf("stats diverge at %d shards:\ngot    %+v\nsingle %+v", shardCount(e), e.Stats(), single.Stats())
		}
	}
}

// TestDroppedEngineLeaksNoGoroutines: an engine without a WAL or
// replication holds no goroutine between calls — sharded maintenance
// joins before each epoch returns — so dropping one without Close,
// after epochs large enough to fan out, leaves the goroutine count
// where it started.
func TestDroppedEngineLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, opts := range [][]Option{nil, {WithShards(4)}} {
		e := newEngine(t, append(opts, WithCountWindow(16))...)
		for i := 0; i < 300; i++ {
			if _, err := e.Register(fmt.Sprintf("oil report %d", i%7), 3); err != nil {
				t.Fatal(err)
			}
		}
		texts := feedTexts(64)
		for b := 0; b < len(texts); b += 16 {
			items := make([]TimedText, 16)
			for i := range items {
				items[i] = TimedText{Text: texts[b+i], At: at((b + i) * 10)}
			}
			if _, err := e.IngestBatch(items); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A joined goroutine may still be unwinding when its epoch returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after dropping the engines, %d before", after, before)
	}
}

// sameTopK compares two result lists under the epoch pipeline's
// guarantee: identical scores at every rank, and identical documents at
// every rank whose score differs from the k-th (last) score. Documents
// inside the equal-score group at the k-th score may legitimately
// differ between maintenance schedules — every member of the group is
// an equally correct k-th result (invariant I2 forces all docs scoring
// above Sk into every correct result, so only the boundary group has
// freedom).
func sameTopK(got, want []Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d (got=%v want=%v)", len(got), len(want), got, want)
	}
	if len(got) == 0 {
		return nil
	}
	last := want[len(want)-1].Score
	for i := range got {
		if got[i].Score != want[i].Score {
			return fmt.Errorf("position %d score %g, want %g (got=%v want=%v)", i, got[i].Score, want[i].Score, got, want)
		}
		if got[i].Score != last && got[i] != want[i] {
			return fmt.Errorf("position %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestIngestBatch checks the batch ingestion path — routed through the
// epoch pipeline — against per-document ingestion on both the
// single-threaded and sharded engines, including watch-delta delivery.
func TestIngestBatch(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var loop, batch *Engine
			if shards == 1 {
				loop, batch = newEngine(t, WithCountWindow(10)), newEngine(t, WithCountWindow(10))
			} else {
				loop = newEngine(t, WithCountWindow(10), WithShards(shards))
				batch = newEngine(t, WithCountWindow(10), WithShards(shards))
				defer loop.Close()
				defer batch.Close()
			}
			if _, err := loop.Register("crude oil market", 3); err != nil {
				t.Fatal(err)
			}
			if _, err := batch.Register("crude oil market", 3); err != nil {
				t.Fatal(err)
			}
			var fired int
			if err := batch.Watch(1, func(d Delta) { fired++ }); err != nil {
				t.Fatal(err)
			}

			texts := feedTexts(30)
			items := make([]TimedText, len(texts))
			var loopIDs []DocID
			for i, text := range texts {
				ts := at(i * 10)
				items[i] = TimedText{Text: text, At: ts}
				id, err := loop.IngestText(text, ts)
				if err != nil {
					t.Fatal(err)
				}
				loopIDs = append(loopIDs, id)
			}
			batchIDs, err := batch.IngestBatch(items)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batchIDs, loopIDs) {
				t.Fatalf("ids diverge: %v vs %v", batchIDs, loopIDs)
			}
			if err := sameTopK(batch.Results(1), loop.Results(1)); err != nil {
				t.Fatalf("results diverge: %v", err)
			}
			if fired != 1 {
				t.Fatalf("watch fired %d times, want 1 cumulative delta", fired)
			}
			if batch.WindowLen() != 10 {
				t.Fatalf("WindowLen = %d, want 10", batch.WindowLen())
			}

			// Empty and regressing batches.
			if ids, err := batch.IngestBatch(nil); err != nil || ids != nil {
				t.Fatalf("empty batch: %v, %v", ids, err)
			}
			_, err = batch.IngestBatch([]TimedText{{Text: "x", At: at(0)}})
			if err == nil {
				t.Fatal("time-regressing batch succeeded")
			}
			// Regression *within* a batch must fail before processing.
			before := batch.Stats().Arrivals
			_, err = batch.IngestBatch([]TimedText{
				{Text: "x", At: at(10000)},
				{Text: "y", At: at(9000)},
			})
			if err == nil {
				t.Fatal("internally regressing batch succeeded")
			}
			if got := batch.Stats().Arrivals; got != before {
				t.Fatalf("failed batch processed %d documents", got-before)
			}
		})
	}
}

// TestWithShardsValidation covers the option's interaction with
// explicit algorithm choices and with a checkpoint's recorded count.
// WithShards(0) must mean the same on every machine, so CI runs it at
// several -cpu counts.
func TestWithShardsValidation(t *testing.T) {
	if _, err := New(WithCountWindow(5), WithShards(-1)); err == nil {
		t.Fatal("WithShards(-1) accepted")
	}
	if _, err := New(WithCountWindow(5), WithShards(2), WithAlgorithm(NaiveKmax)); err == nil {
		t.Fatal("WithShards + NaiveKmax accepted")
	}
	if _, err := New(WithCountWindow(5), WithAlgorithm(NaivePlain), WithShards(3)); err == nil {
		t.Fatal("NaivePlain + WithShards(3) accepted")
	}
	// The per-CPU count (the default, or WithShards(0)) is resolved only
	// for ITA, so every Naïve engine builds with it, and WithShards(1)
	// means serial.
	for _, a := range []Algorithm{NaiveKmax, NaivePlain} {
		for _, opts := range [][]Option{nil, {WithShards(0)}, {WithShards(1)}} {
			n, err := New(append(opts, WithCountWindow(5), WithAlgorithm(a))...)
			if err != nil {
				t.Fatalf("%v with %d shard options: %v", a, len(opts), err)
			}
			if n.Algorithm() != a {
				t.Fatalf("Algorithm() = %v, want %v", n.Algorithm(), a)
			}
		}
	}
	def, err := New(WithCountWindow(5))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shardCount(def), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default ITA has %d shards, want GOMAXPROCS = %d", got, want)
	}
	// Explicit ITA + shards is ITA with a shard count.
	e, err := New(WithCountWindow(5), WithAlgorithm(IncrementalThreshold), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Algorithm() != IncrementalThreshold || shardCount(e) != 2 {
		t.Fatalf("Algorithm() = %v with %d shards", e.Algorithm(), shardCount(e))
	}
	// WithShards(0) spells the default out.
	auto, err := New(WithCountWindow(5), WithShards(0))
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	if got, want := shardCount(auto), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("WithShards(0) has %d shards, want GOMAXPROCS = %d", got, want)
	}
	// Open with WithShards(0) applies one shard per CPU over the count a
	// checkpoint recorded.
	dir := t.TempDir()
	d, err := Open(dir, WithCountWindow(5), WithShards(runtime.GOMAXPROCS(0)+1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.crashForTest()
	r, err := Open(dir, WithShards(0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := shardCount(r), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Open(WithShards(0)) over a checkpoint has %d shards, want GOMAXPROCS = %d", got, want)
	}
	// Close is idempotent and safe on unsharded engines too.
	plain := newEngine(t, WithCountWindow(5))
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSnapshotRoundTrip checks that the shard configuration
// survives Snapshot/Restore and the restored engine serves identical
// results.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	e := newEngine(t, WithCountWindow(8), WithShards(3), WithTextRetention())
	defer e.Close()
	if _, err := e.Register("crude oil market", 2); err != nil {
		t.Fatal(err)
	}
	for i, text := range feedTexts(20) {
		if _, err := e.IngestText(text, at(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Algorithm() != IncrementalThreshold || shardCount(r) != 3 {
		t.Fatalf("restored Algorithm() = %v with %d shards", r.Algorithm(), shardCount(r))
	}
	if got, want := r.Results(1), e.Results(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored results diverge:\ngot  %v\nwant %v", got, want)
	}
}

// shardCount reports how many query shards an ITA engine maintains.
func shardCount(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inner.(*core.ITA).Shards()
}

// TestReopenWithAnotherShardCount: the shard count is a runtime
// setting. A durable directory written with two shards reopens with
// four, then with no option (the count its newest checkpoint recorded),
// and each time the recovered state is byte-identical to an engine that
// never restarted.
func TestReopenWithAnotherShardCount(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCountWindow(10), WithShards(2), WithCheckpointEvery(16))
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(10))
	defer ref.Close()
	driveOps(t, 1, 60, e, ref)
	e.crashForTest()

	r, err := Open(dir, WithShards(4))
	if err != nil {
		t.Fatalf("reopen with WithShards(4): %v", err)
	}
	if got := shardCount(r); got != 4 {
		t.Fatalf("reopened with %d shards, want 4", got)
	}
	requireSameState(t, captureState(r), captureState(ref), "reopen at four shards")
	driveOps(t, 60, 120, r, ref)
	requireSameState(t, captureState(r), captureState(ref), "evolution at four shards")
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	driveOps(t, 120, 140, r, ref)
	r.crashForTest()

	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("bare reopen: %v", err)
	}
	defer r2.Close()
	if got := shardCount(r2); got != 4 {
		t.Fatalf("bare reopen has %d shards, want the recorded 4", got)
	}
	requireSameState(t, captureState(r2), captureState(ref), "bare reopen")
	driveOps(t, 140, 180, r2, ref)
	requireSameState(t, captureState(r2), captureState(ref), "evolution after bare reopen")
}

// TestFollowerSizesItsOwnShards: a standby opened with WithShards keeps
// its own shard count under a one-shard primary and serves the
// primary's state byte-identically.
func TestFollowerSizesItsOwnShards(t *testing.T) {
	p, addr, _ := openReplPrimary(t)
	defer p.Close()
	f, err := OpenFollower(t.TempDir(), addr, WithShards(2), WithDurability(DurabilityOff), testReplTuning("follower"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := shardCount(f); got != 2 {
		t.Fatalf("follower has %d shards, want 2", got)
	}
	driveOps(t, 1, 80, p)
	waitReplCaughtUp(t, f, p, 10*time.Second)
	requireSameState(t, captureState(f), captureState(p), "two-shard follower of a one-shard primary")
	if got := shardCount(f); got != 2 {
		t.Fatalf("follower has %d shards after replaying checkpoints, want 2", got)
	}
}

// TestTextRingCompaction exercises the copy-on-write compaction path of
// the retained-text ring: under a small count window and a long stream
// the dead prefix must be reclaimed into a fresh backing array (never in
// place — published snapshots may alias the old one) instead of pinning
// the whole stream.
func TestTextRingCompaction(t *testing.T) {
	e := newEngine(t, WithCountWindow(5), WithTextRetention())
	// Hold a snapshot from an early boundary: compaction must not
	// disturb what it sees.
	if _, err := e.IngestText("doc number 0 unique text", at(0)); err != nil {
		t.Fatal(err)
	}
	early := e.texts.snapshot()
	for i := 1; i < 500; i++ {
		if _, err := e.IngestText(fmt.Sprintf("doc number %d unique text", i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	r := e.texts
	if live := len(r.order) - r.head; live != 5 {
		t.Fatalf("live order region %d, want 5", live)
	}
	if len(r.order) > 200 {
		t.Fatalf("order backing grew to %d entries under a 5-document window; dead prefix not compacted", len(r.order))
	}
	// The five youngest documents keep their texts.
	for i := 495; i < 500; i++ {
		want := fmt.Sprintf("doc number %d unique text", i)
		if got := r.get(DocID(i + 1)); got != want {
			t.Fatalf("text of doc %d = %q, want %q", i+1, got, want)
		}
	}
	// Expired documents resolve to "" through the live view...
	if got := r.get(DocID(1)); got != "" {
		t.Fatalf("expired doc resolves to %q through the live view", got)
	}
	// ...while the old snapshot still serves its boundary's text.
	if got := early.get(DocID(1)); got != "doc number 0 unique text" {
		t.Fatalf("early snapshot returned %q", got)
	}
}

// TestShardedWatch checks watches fire identically on the sharded
// engine.
func TestShardedWatch(t *testing.T) {
	e := newEngine(t, WithCountWindow(4), WithShards(2), WithTextRetention())
	defer e.Close()
	q, err := e.Register("breaking alert", 2)
	if err != nil {
		t.Fatal(err)
	}
	var entered []DocID
	if err := e.Watch(q, func(d Delta) {
		for _, m := range d.Entered {
			entered = append(entered, m.Doc)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("no match here", at(0)); err != nil {
		t.Fatal(err)
	}
	id, err := e.IngestText("breaking news alert", at(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(entered) != 1 || entered[0] != id {
		t.Fatalf("entered = %v, want [%d]", entered, id)
	}
}
