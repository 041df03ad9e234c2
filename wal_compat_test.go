package ita

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ita/internal/wal"
)

// TestReplayPerDocumentRecords pins log compatibility across the change
// that made every ingest a batch: logs written before it hold one
// KindDoc record per IngestText call, and they must still recover — at
// epoch size 1 and 64 alike — to exactly the state a fresh engine
// reaches by ingesting the same stream live. The live engine's own log
// must hold no KindDoc record at all.
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
			if batch > 1 {
				opts = append(opts, WithBatchSize(batch))
			}

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
}
