package ita

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ita/internal/wal"
)

// TestReplayPerDocumentRecords pins log compatibility across the change
// that made every ingest a batch: logs written before it hold one
// KindDoc record per IngestText call, and they must still recover — with
// a marker after every record, or, as a batch size of 64 wrote them,
// after every 64th — to exactly the state a fresh engine reaches by
// ingesting the same stream live, one document per call. Replay makes
// each record its own epoch, so the recovered counters match too. The
// live engine's own log must hold no KindDoc record at all.
func TestReplayPerDocumentRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	queries := []string{"crude oil price", "solar grid storage", "tanker export market"}
	docs := make([]string, 150)
	for i := range docs {
		words := make([]string, 1+rng.Intn(4))
		for j := range words {
			words[j] = opVocab[rng.Intn(len(opVocab))]
		}
		docs[i] = strings.Join(words, " ")
	}
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			opts := []Option{WithCountWindow(40), withFloorMargins(1, 1),
				WithDurability(DurabilityOff), WithCheckpointEvery(0)}

			// The reference ingests the stream live.
			refDir := t.TempDir()
			ref, err := Open(refDir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for _, q := range queries {
				if _, err := ref.Register(q, 3); err != nil {
					t.Fatal(err)
				}
			}
			for i, text := range docs {
				if _, err := ref.IngestText(text, at(i)); err != nil {
					t.Fatal(err)
				}
			}

			// The old-format log: a genesis checkpoint from Open, then the
			// same operations written by hand the way the per-document
			// ingest path logged them, one epoch marker per boundary.
			dir := t.TempDir()
			genesis, err := Open(dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := genesis.Close(); err != nil {
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
			var seq uint64
			appendRec := func(rec wal.Record) {
				t.Helper()
				if err := l.Append(&rec); err != nil {
					t.Fatal(err)
				}
			}
			mark := func() {
				seq++
				appendRec(wal.Record{Kind: wal.KindEpoch, Seq: seq})
			}
			for i, q := range queries {
				appendRec(wal.Record{Kind: wal.KindRegister, Query: uint64(i + 1), K: 3, Text: q})
				mark()
			}
			for i, text := range docs {
				appendRec(wal.Record{Kind: wal.KindDoc, Doc: uint64(i + 1), At: at(i).UnixNano(), Text: text})
				if (i+1)%batch == 0 {
					mark()
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			got, err := Open(dir, opts...)
			if err != nil {
				t.Fatalf("replay old-format log: %v", err)
			}
			defer got.Close()
			requireSameState(t, captureState(got), captureState(ref), "old-format replay vs live ingest")

			segs, err := filepath.Glob(filepath.Join(refDir, "wal-*.log"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments in %s: %v", refDir, err)
			}
			for _, seg := range segs {
				res, err := wal.ScanFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range res.Records {
					if rec.Kind == wal.KindDoc {
						t.Fatalf("%s: live ingest logged a KindDoc record (doc %d)", filepath.Base(seg), rec.Doc)
					}
				}
			}
		})
	}

	// A log as a batch size of 64 wrote it: a checkpoint recording the
	// batch size, one KindBatch record per IngestText call, and markers
	// only where a buffered epoch flushed — at every 64th document, after
	// a KindFlush for an explicit flush, and after a registration's record
	// for the flush it forced ahead of its own boundary — then a tail of
	// buffered records with no marker. Replay makes every record its own
	// epoch, so recovery matches the live single-document reference
	// result for result; the sealed log then takes a write and reopens.
	t.Run("buffered_batch=64", func(t *testing.T) {
		opts := []Option{WithCountWindow(40), withFloorMargins(1, 1),
			WithDurability(DurabilityOff), WithCheckpointEvery(0)}
		ref := newEngine(t, WithCountWindow(40), withFloorMargins(1, 1))
		defer ref.Close()

		dir := t.TempDir()
		genesis, err := Open(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := genesis.Close(); err != nil {
			t.Fatal(err)
		}
		ckpt := wal.CheckpointPath(dir, 0)
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckpt, withBatchSizeField(t, data, 64), 0o644); err != nil {
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
		var seq uint64
		appendRec := func(rec wal.Record) {
			t.Helper()
			if err := l.Append(&rec); err != nil {
				t.Fatal(err)
			}
		}
		mark := func() {
			seq++
			appendRec(wal.Record{Kind: wal.KindEpoch, Seq: seq})
		}
		register := func(id int, text string) {
			t.Helper()
			appendRec(wal.Record{Kind: wal.KindRegister, Query: uint64(id), K: 3, Text: text})
			if _, err := ref.Register(text, 3); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range queries {
			register(i+1, q)
			mark()
		}
		for i, text := range docs {
			appendRec(wal.Record{Kind: wal.KindBatch, Doc: uint64(i + 1),
				Items: []wal.DocEntry{{At: at(i).UnixNano(), Text: text}}})
			if _, err := ref.IngestText(text, at(i)); err != nil {
				t.Fatal(err)
			}
			switch {
			case (i+1)%64 == 0: // the buffer filled
				mark()
			case i+1 == 100: // an explicit Flush
				appendRec(wal.Record{Kind: wal.KindFlush})
				mark()
			case i+1 == 120: // a Register flushed docs 101–120 first
				register(len(queries)+1, "oil market futures")
				mark()
				mark()
			}
		}
		// Docs 129–150 were still buffered when the process stopped.
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		sameResults := func(got *Engine, context string) {
			t.Helper()
			g, w := got.ResultsAll(), ref.ResultsAll()
			if len(g) != len(w) || got.WindowLen() != ref.WindowLen() {
				t.Fatalf("%s: %d queries over %d documents, reference %d over %d",
					context, len(g), got.WindowLen(), len(w), ref.WindowLen())
			}
			for i := range w {
				if g[i].Query != w[i].Query {
					t.Fatalf("%s: query %d where the reference has %d", context, g[i].Query, w[i].Query)
				}
				if err := sameTopK(g[i].Matches, w[i].Matches); err != nil {
					t.Fatalf("%s: query %d: %v", context, w[i].Query, err)
				}
			}
		}
		got, err := Open(dir, opts...)
		if err != nil {
			t.Fatalf("replay batch-size-era log: %v", err)
		}
		sameResults(got, "recovered")
		for _, e := range []*Engine{got, ref} {
			if _, err := e.IngestText("crude oil tanker market", at(len(docs))); err != nil {
				t.Fatal(err)
			}
		}
		sameResults(got, "write after recovery")
		got.crashForTest()
		again, err := Open(dir, opts...)
		if err != nil {
			t.Fatalf("second reopen: %v", err)
		}
		defer again.Close()
		sameResults(again, "second recovery")
	})
}

// withBatchSizeField re-encodes a checkpoint with the BatchSize field
// snapshots carried while a batch size option existed, set to b.
func withBatchSizeField(t *testing.T, data []byte, b int) []byte {
	t.Helper()
	s, err := decodeSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cur := reflect.ValueOf(*s)
	fields := []reflect.StructField{{Name: "BatchSize", Type: reflect.TypeOf(b)}}
	for i := 0; i < cur.NumField(); i++ {
		fields = append(fields, cur.Type().Field(i))
	}
	old := reflect.New(reflect.StructOf(fields)).Elem()
	old.Field(0).SetInt(int64(b))
	for i := 0; i < cur.NumField(); i++ {
		old.Field(i + 1).Set(cur.Field(i))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old.Interface()); err != nil {
		t.Fatal(err)
	}
	var recorded struct{ BatchSize int }
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&recorded); err != nil || recorded.BatchSize != b {
		t.Fatalf("re-encoded checkpoint records batch size %d (%v), want %d", recorded.BatchSize, err, b)
	}
	return buf.Bytes()
}
