package ita

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ita/internal/wal"
)

// On-disk format compatibility. The repository owes one format:
// snapshot version 3 as Snapshot writes it (including old version-3
// checkpoints that carry fields gob drops) and the WAL record kinds the
// engine writes. The checked-in fixtures under testdata were written by
// older commits and cannot be regenerated; the retired ones must be
// refused without touching the directory they sit in.

const (
	// v1FixturePath is a version-1 snapshot: configuration, dictionary,
	// queries and window, without the incremental state.
	v1FixturePath = "testdata/snapshot_v1.snap"
	// seedFixturePath and slicesFixturePath are version-3 snapshots of
	// buildFixtureEngine's workload, taken by the last commits that had
	// a structure seed option (here 99) and two posting layouts (here the
	// non-default slice layout, recorded as PostingLayout = 1).
	seedFixturePath   = "testdata/snapshot_v3_seed99.snap"
	slicesFixturePath = "testdata/snapshot_v3_slices.snap"
	// shardedFixturePath is a version-3 snapshot of the same workload
	// taken while ITA still had a separate sharded engine; it recorded
	// algorithm 3, the retired ita-sharded alias, with Shards = 3.
	shardedFixturePath = "testdata/snapshot_v3_sharded3.snap"
)

// buildFixtureEngine is the deterministic workload every fixture
// captured.
func buildFixtureEngine(t *testing.T) *Engine {
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

// requireFixtureEngine holds r, restored from a fixture that captured
// buildFixtureEngine's workload, against a fresh engine fed the same
// stream: same shape, same results and retained texts now, and the
// same results after both ingest further. Counters are not compared:
// older code wrote the fixtures.
func requireFixtureEngine(t *testing.T, r *Engine) {
	t.Helper()
	ref := buildFixtureEngine(t)
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

// requireFixtureRestores restores a fixture's bytes directly: same
// engine as the one that took it. TestOpenCheckpointFromEitherLayout
// opens the same fixtures through a durable directory.
func requireFixtureRestores(t *testing.T, data []byte) {
	t.Helper()
	r, err := Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer r.Close()
	requireFixtureEngine(t, r)
}

// TestRecordedPostingLayoutIsIgnored restores the fixture that recorded
// a posting layout: the field no longer exists, gob drops it, and the
// engine comes back on the one layout there is.
func TestRecordedPostingLayoutIsIgnored(t *testing.T) {
	data, err := os.ReadFile(slicesFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var recorded struct {
		Version       int
		PostingLayout int
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recorded); err != nil {
		t.Fatal(err)
	}
	if recorded.Version != 3 || recorded.PostingLayout != 1 {
		t.Fatalf("fixture is version %d with posting layout %d, want version 3 with layout 1 (the old slice layout)",
			recorded.Version, recorded.PostingLayout)
	}
	requireFixtureRestores(t, data)
}

// TestRecordedSeedIsIgnored restores the fixture that recorded a
// non-default seed: gob drops the field, and the engine comes back as
// the one that took it.
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
	requireFixtureRestores(t, data)
}

// TestOpenCheckpointFromEitherLayout plants each version-3 fixture as
// the genesis checkpoint of a durable directory — one written under the
// old default layout (which recorded nothing), one under the old slice
// layout — and opens it with the options of the engine that took it: no
// configuration conflict, same engine. The slice case keeps the name the
// fixture had before it was renamed snapshot_v3_slices.snap.
func TestOpenCheckpointFromEitherLayout(t *testing.T) {
	for _, tc := range []struct{ name, path string }{
		{name: "snapshot_v3_seed99.snap", path: seedFixturePath},
		{name: "snapshot_v2_slices.snap", path: slicesFixturePath},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(wal.CheckpointPath(dir, 0), data, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := Open(dir, WithCountWindow(6), WithTextRetention(), WithDurability(DurabilityOff))
			if err != nil {
				t.Fatalf("open over a %s checkpoint: %v", tc.path, err)
			}
			defer e.Close()
			requireFixtureEngine(t, e)
		})
	}
}

// fixtureSnapshot returns the decoded current snapshot of
// buildFixtureEngine's workload, for tests that edit and re-encode it.
func fixtureSnapshot(t *testing.T) *snapshot {
	t.Helper()
	e := buildFixtureEngine(t)
	defer e.Close()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := decodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func encodeSnapshot(t *testing.T, s *snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = data
	}
	return files
}

// TestRetiredFormatsRefused holds recovery to the one owed format: each
// retired input fails Open (and, for a snapshot, Restore) with an error
// that names it and says "ita:" once, and Open leaves every file of the
// directory byte-identical.
func TestRetiredFormatsRefused(t *testing.T) {
	fixture := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	edited := func(edit func(*snapshot)) []byte {
		t.Helper()
		s := fixtureSnapshot(t)
		edit(s)
		return encodeSnapshot(t, s)
	}
	opts := []Option{WithCountWindow(6), WithTextRetention(), WithDurability(DurabilityOff), WithCheckpointEvery(0)}
	for _, tc := range []struct {
		name string
		// Exactly one of snap (the bytes of the directory's only
		// checkpoint) and rec (a record appended to the log of a directory
		// the engine wrote) is set.
		snap []byte
		rec  *wal.Record
		want string
	}{
		{name: "snapshot_v1", snap: fixture(v1FixturePath), want: "version 1"},
		{name: "snapshot_v2", snap: edited(func(s *snapshot) { s.Version = 2 }), want: "version 2"},
		{name: "snapshot_v3_sharded3", snap: fixture(shardedFixturePath), want: "ita-sharded"},
		{name: "batch_size_64", snap: edited(func(s *snapshot) { s.BatchSize = 64 }), want: "batch size 64"},
		{name: "doc_record", rec: &wal.Record{Kind: wal.KindDoc, Doc: 2, At: at(20).UnixNano(), Text: "crude oil futures"},
			want: "retired record kind doc"},
		{name: "flush_record", rec: &wal.Record{Kind: wal.KindFlush}, want: "retired record kind flush"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.snap != nil {
				if err := os.WriteFile(wal.CheckpointPath(dir, 0), tc.snap, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := Restore(bytes.NewReader(tc.snap)); !refusal(err, tc.want) {
					t.Fatalf("Restore: error %v, want one naming %q, prefixed \"ita:\" once", err, tc.want)
				}
			} else {
				e, err := Open(dir, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Register("crude oil", 2); err != nil {
					t.Fatal(err)
				}
				if _, err := e.IngestText("crude oil rallies", at(10)); err != nil {
					t.Fatal(err)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(wal.SegmentPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				fi, err := f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				l := wal.NewLog(f, fi.Size(), wal.DurabilityOff)
				if err := l.Append(tc.rec); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			before := readDir(t, dir)
			if e, err := Open(dir, opts...); !refusal(err, tc.want) {
				if e != nil {
					e.Close()
				}
				t.Fatalf("Open: error %v, want one naming %q, prefixed \"ita:\" once", err, tc.want)
			}
			if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused Open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// refusal reports whether err names want and starts with the package's
// "ita:" prefix, which it holds exactly once.
func refusal(err error, want string) bool {
	return err != nil && strings.Contains(err.Error(), want) &&
		strings.HasPrefix(err.Error(), "ita: ") && strings.Count(err.Error(), "ita:") == 1
}

// TestRestoreRefusesShortTexts: a text-retaining snapshot must carry one
// retained text per window document; one that carries fewer is damaged,
// and restoring it must fail rather than serve blank texts.
func TestRestoreRefusesShortTexts(t *testing.T) {
	s := fixtureSnapshot(t)
	if !s.RetainText || len(s.Texts) != len(s.Docs) || len(s.Docs) == 0 {
		t.Fatalf("fixture snapshot retains %v with %d texts for %d documents", s.RetainText, len(s.Texts), len(s.Docs))
	}
	s.Texts = s.Texts[:len(s.Texts)-1]
	if _, err := Restore(bytes.NewReader(encodeSnapshot(t, s))); err == nil {
		t.Fatal("snapshot with fewer retained texts than documents restored")
	}
}
