package ita

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"ita/internal/model"
	"ita/internal/wal"
)

// Wire-format back-compat: a version-1 snapshot (the format before the
// durability work added exact state, counters and the epoch sequence)
// must keep restoring through the replay path. The checked-in fixture
// testdata/snapshot_v1.snap was generated by
// TestRegenerateV1Fixture (run with ITA_REGEN_FIXTURES=1), which
// down-converts a current snapshot to the exact field set version 1
// encoders wrote — gob matches fields by name, so the encoding is
// byte-compatible with historical writers.

// snapshotV1 mirrors the version-1 wire struct field for field.
type snapshotV1 struct {
	Version    int
	Algorithm  Algorithm
	CountN     int
	SpanNanos  int64
	Stemming   bool
	Stopwords  bool
	Okapi      bool
	OkapiAvgDL float64
	RetainText bool
	Seed       uint64
	Shards     int
	BatchSize  int
	Terms      []string
	Queries    []snapshotQueryV1
	Docs       []snapshotDocV1
	Texts      []string
	NextDoc    uint64
	NextQuery  uint64
	LastAtNs   int64
}

type snapshotQueryV1 struct {
	ID    uint64
	K     int
	Text  string
	Terms []model.QueryTerm
}

type snapshotDocV1 struct {
	ID        uint64
	ArrivalNs int64
	Postings  []model.Posting
}

const v1FixturePath = "testdata/snapshot_v1.snap"

// buildV1FixtureEngine is the deterministic workload both the generator
// and the verification test derive their expectations from.
func buildV1FixtureEngine(t *testing.T) *Engine {
	t.Helper()
	e := newEngine(t, WithCountWindow(6), WithTextRetention())
	if _, err := e.Register("crude oil market", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("solar turbine grid", 2); err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"crude oil market rallies on export news",
		"solar grid storage demand grows",
		"oil tanker leaves the refinery",
		"turbine blades for the solar grid",
		"futures market prices crude barrels",
		"pipeline maintenance slows oil exports",
		"grid operators buy turbine capacity",
		"market demand for oil futures",
	}
	for i, text := range texts {
		if _, err := e.IngestText(text, at((i+1)*10)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestRegenerateV1Fixture rewrites the checked-in fixture. Guarded so
// normal runs only ever read it.
func TestRegenerateV1Fixture(t *testing.T) {
	if os.Getenv("ITA_REGEN_FIXTURES") == "" {
		t.Skip("set ITA_REGEN_FIXTURES=1 to regenerate testdata/snapshot_v1.snap")
	}
	e := buildV1FixtureEngine(t)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := decodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v1 := snapshotV1{
		Version:    1,
		Algorithm:  s.Algorithm,
		CountN:     s.CountN,
		SpanNanos:  s.SpanNanos,
		Stemming:   s.Stemming,
		Stopwords:  s.Stopwords,
		Okapi:      s.Okapi,
		OkapiAvgDL: s.OkapiAvgDL,
		RetainText: s.RetainText,
		Seed:       1, // version-1 writers recorded the structure seed; 1 was the default
		Shards:     s.Shards,
		Terms:      s.Terms,
		Texts:      s.Texts,
		NextDoc:    s.NextDoc,
		NextQuery:  s.NextQuery,
		LastAtNs:   s.LastAtNs,
	}
	for _, q := range s.Queries {
		v1.Queries = append(v1.Queries, snapshotQueryV1{ID: q.ID, K: q.K, Text: q.Text, Terms: q.Terms})
	}
	for _, d := range s.Docs {
		v1.Docs = append(v1.Docs, snapshotDocV1{ID: d.ID, ArrivalNs: d.ArrivalNs, Postings: d.Postings})
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&v1); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(v1FixturePath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1FixturePath, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", v1FixturePath, out.Len())
}

// TestSnapshotV1FixtureRestores decodes the checked-in version-1
// fixture through the modern Restore and holds it to the version-1
// contract: identical results (via the replay path), identical
// configuration and id sequences, and identical future evolution at
// the result level.
func TestSnapshotV1FixtureRestores(t *testing.T) {
	data, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatalf("fixture missing (regenerate with ITA_REGEN_FIXTURES=1): %v", err)
	}
	r, err := Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("restore v1 fixture: %v", err)
	}
	defer r.Close()
	requireFixtureEngine(t, r)
}

// requireFixtureEngine holds r, restored from a fixture that captured
// buildV1FixtureEngine's workload, against a fresh engine fed the same
// stream: same shape, same results and retained texts now, and the
// same results after both ingest further (the contract of an old
// snapshot is result equivalence, not counter equivalence).
func requireFixtureEngine(t *testing.T, r *Engine) {
	t.Helper()
	ref := buildV1FixtureEngine(t)
	defer ref.Close()

	if r.Queries() != ref.Queries() || r.WindowLen() != ref.WindowLen() ||
		r.DictionarySize() != ref.DictionarySize() {
		t.Fatalf("restored shape: queries %d/%d window %d/%d dict %d/%d",
			r.Queries(), ref.Queries(), r.WindowLen(), ref.WindowLen(),
			r.DictionarySize(), ref.DictionarySize())
	}
	for _, q := range []QueryID{1, 2} {
		if err := sameTopK(r.Results(q), ref.Results(q)); err != nil {
			t.Fatalf("restored query %d: %v", q, err)
		}
		if txt, ok := r.QueryText(q); !ok || txt == "" {
			t.Fatalf("restore lost query text for %d", q)
		}
		for _, m := range r.Results(q) {
			if m.Text == "" {
				t.Fatalf("restore lost retained text for doc %d", m.Doc)
			}
		}
	}
	for i := 9; i < 20; i++ {
		text := "oil market turbine report"
		if _, err := r.IngestText(text, at(i*10)); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.IngestText(text, at(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []QueryID{1, 2} {
		if err := sameTopK(r.Results(q), ref.Results(q)); err != nil {
			t.Fatalf("post-restore evolution, query %d: %v", q, err)
		}
	}
}

// slicesFixturePath is a snapshot of buildV1FixtureEngine's workload
// taken by the last commit that had two posting layouts, from an engine
// built with the option selecting the slice layout — the non-default
// choice, which the snapshot recorded as PostingLayout = 1. It cannot be
// regenerated: the option is gone, and the point of the file is that
// bytes written back then keep opening.
const slicesFixturePath = "testdata/snapshot_v2_slices.snap"

// TestRecordedPostingLayoutIsIgnored restores the fixture that recorded
// a posting layout: the field no longer exists, gob drops it, and the
// engine comes back on the one layout there is.
func TestRecordedPostingLayoutIsIgnored(t *testing.T) {
	data, err := os.ReadFile(slicesFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var recorded struct{ PostingLayout int }
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recorded); err != nil {
		t.Fatal(err)
	}
	if recorded.PostingLayout != 1 {
		t.Fatalf("fixture records posting layout %d, want 1 (the old slice layout)", recorded.PostingLayout)
	}
	r, err := Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer r.Close()
	requireFixtureEngine(t, r)
}

// seedFixturePath is a version-3 snapshot of buildV1FixtureEngine's
// workload taken by the last commit that had a structure seed option,
// from an engine built with seed 99. Like the slice-layout fixture it
// cannot be regenerated: the option is gone.
const seedFixturePath = "testdata/snapshot_v3_seed99.snap"

// TestRecordedSeedIsIgnored restores the fixture that recorded a
// non-default seed, both directly and as the checkpoint of a durable
// directory: gob drops the field, Restore succeeds, and Open with the
// options of the engine that took it reports no configuration conflict.
func TestRecordedSeedIsIgnored(t *testing.T) {
	data, err := os.ReadFile(seedFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var recorded struct{ Seed uint64 }
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recorded); err != nil {
		t.Fatal(err)
	}
	if recorded.Seed != 99 {
		t.Fatalf("fixture records seed %d, want 99", recorded.Seed)
	}
	r, err := Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer r.Close()
	requireFixtureEngine(t, r)

	dir := t.TempDir()
	if err := os.WriteFile(wal.CheckpointPath(dir, 0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir, WithCountWindow(6), WithTextRetention(), WithDurability(DurabilityOff))
	if err != nil {
		t.Fatalf("open over a seeded checkpoint: %v", err)
	}
	defer e.Close()
	requireFixtureEngine(t, e)
}

// TestOpenCheckpointFromEitherLayout plants each fixture as the genesis
// checkpoint of a durable directory — one written under the old default
// layout (which recorded nothing), one under the old alternative — and
// opens it with the options of the engine that took it: no
// configuration conflict, same engine.
func TestOpenCheckpointFromEitherLayout(t *testing.T) {
	for _, fixture := range []string{v1FixturePath, slicesFixturePath} {
		t.Run(filepath.Base(fixture), func(t *testing.T) {
			data, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(wal.CheckpointPath(dir, 0), data, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := Open(dir, WithCountWindow(6), WithTextRetention(), WithDurability(DurabilityOff))
			if err != nil {
				t.Fatalf("open over a %s checkpoint: %v", fixture, err)
			}
			defer e.Close()
			requireFixtureEngine(t, e)
		})
	}
}

// shardedFixturePath is a version-3 snapshot of buildV1FixtureEngine's
// workload taken, while ITA still had a separate sharded engine, from an
// engine built with WithShards(3). It recorded the deprecated
// ShardedIncrementalThreshold with Shards = 3; like the other old
// fixtures it cannot be regenerated.
const shardedFixturePath = "testdata/snapshot_v3_sharded3.snap"

// TestRecordedShardedAlgorithmRestores restores the sharded fixture
// directly and as the checkpoint of a durable directory: the engine
// comes back as ITA with the recorded three shards (or the count the
// caller asks for) and serves the fixture workload's results.
func TestRecordedShardedAlgorithmRestores(t *testing.T) {
	data, err := os.ReadFile(shardedFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var recorded struct {
		Algorithm Algorithm
		Shards    int
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recorded); err != nil {
		t.Fatal(err)
	}
	if recorded.Algorithm != ShardedIncrementalThreshold || recorded.Shards != 3 {
		t.Fatalf("fixture records %v with %d shards, want ita-sharded with 3", recorded.Algorithm, recorded.Shards)
	}
	r, err := Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer r.Close()
	if r.Algorithm() != IncrementalThreshold || shardCount(r) != 3 {
		t.Fatalf("restored %v with %d shards, want ita with 3", r.Algorithm(), shardCount(r))
	}
	requireFixtureEngine(t, r)

	for _, tc := range []struct {
		opts   []Option
		shards int
	}{
		{nil, 3},
		{[]Option{WithShards(1)}, 1},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(wal.CheckpointPath(dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(dir, append(tc.opts, WithCountWindow(6), WithDurability(DurabilityOff))...)
		if err != nil {
			t.Fatalf("open over the sharded checkpoint: %v", err)
		}
		if got := shardCount(e); got != tc.shards {
			t.Fatalf("opened with %d shards, want %d", got, tc.shards)
		}
		requireFixtureEngine(t, e)
		e.Close()
	}
}
