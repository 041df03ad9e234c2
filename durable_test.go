package ita

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ita/internal/wal"
)

// crashForTest abandons the engine the way a crash would: shard worker
// goroutines are stopped (so tests do not leak them) and the log file
// handle is closed, but nothing is flushed to the engine, no final sync
// is issued and no checkpoint runs. Bytes already written to the log
// remain visible to a reopen, exactly like a killed process's page
// cache; loss of unsynced bytes is modelled separately by the
// byte-truncation sweeps in crash_test.go.
func (e *Engine) crashForTest() {
	e.mu.Lock()
	if c, ok := e.inner.(interface{ Close() error }); ok {
		c.Close()
	}
	if e.wal != nil && e.wal.log != nil {
		e.wal.log.Close()
	}
	e.mu.Unlock()
}

// engineState is the complete read surface the crash-recovery
// equivalence is asserted over.
type engineState struct {
	Results   []QueryResult
	Stats     Stats
	Queries   int
	Window    int
	Dict      int
	NextDoc   DocID
	NextQuery QueryID
}

func captureState(e *Engine) engineState {
	e.mu.Lock()
	nextDoc, nextQuery := e.nextDoc, e.nextQuery
	e.mu.Unlock()
	return engineState{
		Results:   e.ResultsAll(),
		Stats:     e.Stats(),
		Queries:   e.Queries(),
		Window:    e.WindowLen(),
		Dict:      e.DictionarySize(),
		NextDoc:   nextDoc,
		NextQuery: nextQuery,
	}
}

func requireSameState(t *testing.T, got, want engineState, context string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: state diverged\n got: %+v\nwant: %+v", context, got, want)
	}
}

// driveOps runs a deterministic mixed workload against every engine in
// engs, keeping them in lockstep. Returns the registered query ids
// still live.
func driveOps(t *testing.T, from, to int, engs ...*Engine) []QueryID {
	t.Helper()
	var live []QueryID
	for i := from; i < to; i++ {
		switch {
		case i%7 == 0:
			text := fmt.Sprintf("crude oil market report %d", i%3)
			var want QueryID
			for j, e := range engs {
				id, err := e.Register(text, 1+i%3)
				if err != nil {
					t.Fatalf("op %d: register: %v", i, err)
				}
				if j == 0 {
					want = id
				} else if id != want {
					t.Fatalf("op %d: query id %d vs %d", i, id, want)
				}
			}
			live = append(live, want)
		case i%11 == 0 && len(live) > 2:
			id := live[0]
			live = live[1:]
			for _, e := range engs {
				if !e.Unregister(id) {
					t.Fatalf("op %d: unregister %d failed", i, id)
				}
			}
		case i%13 == 0:
			for _, e := range engs {
				if err := e.Advance(at(i * 10)); err != nil {
					t.Fatalf("op %d: advance: %v", i, err)
				}
			}
		case i%5 == 0:
			items := []TimedText{
				{Text: fmt.Sprintf("solar turbine grid %d", i%4), At: at(i * 10)},
				{Text: fmt.Sprintf("tanker export pipeline %d", i%5), At: at(i*10 + 1)},
			}
			for _, e := range engs {
				if _, err := e.IngestBatch(items); err != nil {
					t.Fatalf("op %d: batch: %v", i, err)
				}
			}
		default:
			text := fmt.Sprintf("oil price futures demand %d supply %d", i%6, i%4)
			for _, e := range engs {
				if _, err := e.IngestText(text, at(i*10+5)); err != nil {
					t.Fatalf("op %d: ingest: %v", i, err)
				}
			}
		}
	}
	return live
}

// TestOpenFreshCrashReopen is the core recovery equivalence: a durable
// engine and an identically-configured in-memory reference run the same
// workload; the durable one crashes and reopens, and must be
// byte-identical to the reference — ResultsAll, Stats, Queries, window,
// id sequences — both at the crash boundary and while both engines keep
// evolving afterwards.
func TestOpenFreshCrashReopen(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"serial", []Option{WithCountWindow(12)}},
		{"batched", []Option{WithCountWindow(12), WithBatchSize(4)}},
		{"sharded_batched", []Option{WithCountWindow(12), WithShards(2), WithBatchSize(4)}},
		{"time_window", []Option{WithTimeWindow(150 * time.Millisecond)}},
		{"retained", []Option{WithCountWindow(12), WithTextRetention()}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			durable, err := Open(dir, tc.opts...)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			ref := newEngine(t, tc.opts...)
			defer ref.Close()

			driveOps(t, 1, 60, durable, ref)
			requireSameState(t, captureState(durable), captureState(ref), "pre-crash")

			durable.crashForTest()
			reopened, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer reopened.Close()
			requireSameState(t, captureState(reopened), captureState(ref), "post-recovery")

			// The recovered engine must keep evolving identically, proving
			// the internal state (thresholds, result lists, buffered epoch,
			// counters) was reconstructed exactly, not just the visible
			// results.
			driveOps(t, 60, 100, reopened, ref)
			requireSameState(t, captureState(reopened), captureState(ref), "post-recovery evolution")
		})
	}
}

// TestReopenAfterCleanClose recovers from a Close()d engine (final
// epoch flushed and synced).
func TestReopenAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCountWindow(8), WithBatchSize(3))
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(8), WithBatchSize(3))
	defer ref.Close()
	driveOps(t, 1, 40, e, ref)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close flushes the partial epoch; mirror it on the reference.
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	requireSameState(t, captureState(r), captureState(ref), "after clean close")
}

// TestCheckpointRotation drives enough boundaries through a small
// checkpoint interval to force several rotations, asserting the
// directory stays bounded (one checkpoint, one segment) and recovery
// from the rotated state is exact.
func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCountWindow(10), WithShards(2), WithCheckpointEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(10), WithShards(2))
	defer ref.Close()
	driveOps(t, 1, 120, e, ref)

	st, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Checkpoints) != 1 || len(st.Segments) != 1 || len(st.Tmp) != 0 || len(st.Foreign) != 0 {
		t.Fatalf("rotation left dir unbounded: %+v", st)
	}
	if st.Checkpoints[0] == 0 {
		t.Fatalf("no checkpoint ever rotated past genesis")
	}
	if st.Checkpoints[0] != st.Segments[0] {
		t.Fatalf("checkpoint %d and segment %d out of step", st.Checkpoints[0], st.Segments[0])
	}

	e.crashForTest()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	requireSameState(t, captureState(r), captureState(ref), "post-rotation recovery")
	driveOps(t, 120, 150, r, ref)
	requireSameState(t, captureState(r), captureState(ref), "post-rotation evolution")
}

// TestExplicitCheckpointMakesReopenTailless: after Checkpoint() the
// segment must be empty, so reopen replays nothing.
func TestExplicitCheckpointMakesReopenTailless(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCountWindow(8), WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(8), WithBatchSize(4))
	defer ref.Close()
	driveOps(t, 1, 30, e, ref)
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := ref.Flush(); err != nil { // Checkpoint flushed the partial epoch
		t.Fatal(err)
	}
	st, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Segments) != 1 {
		t.Fatalf("segments: %v", st.Segments)
	}
	seg, err := os.Stat(wal.SegmentPath(dir, st.Segments[0]))
	if err != nil {
		t.Fatal(err)
	}
	if seg.Size() != 0 {
		t.Fatalf("segment holds %d bytes after explicit checkpoint", seg.Size())
	}
	e.crashForTest()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireSameState(t, captureState(r), captureState(ref), "after explicit checkpoint")
}

// TestOpenTornTail appends garbage to the segment; reopen must recover
// the clean prefix and truncate the tail so appending resumes at a
// record boundary.
func TestOpenTornTail(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCountWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(8))
	defer ref.Close()
	driveOps(t, 1, 30, e, ref)
	e.crashForTest()

	segPath := wal.SegmentPath(dir, 0)
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer r.Close()
	requireSameState(t, captureState(r), captureState(ref), "torn tail")
	// The tail was truncated: further ops and another reopen must work.
	driveOps(t, 30, 40, r, ref)
	r.crashForTest()
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer r2.Close()
	requireSameState(t, captureState(r2), captureState(ref), "after tail truncation")
}

// TestOpenConfigMismatch: conflicting options on recovery must fail
// with a clean error, matching options must succeed.
func TestOpenConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCountWindow(10), WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("crude oil", 2); err != nil {
		t.Fatal(err)
	}
	e.crashForTest()

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"window size", []Option{WithCountWindow(20)}},
		{"window kind", []Option{WithTimeWindow(time.Second)}},
		{"batch", []Option{WithCountWindow(10), WithBatchSize(8)}},
		{"algorithm", []Option{WithCountWindow(10), WithAlgorithm(NaivePlain)}},
		{"shards", []Option{WithCountWindow(10), WithShards(4)}},
		{"stemming", []Option{WithCountWindow(10), WithoutStemming()}},
		{"okapi", []Option{WithCountWindow(10), WithOkapiScoring(30)}},
		{"retention", []Option{WithCountWindow(10), WithTextRetention()}},
		{"stopwords", []Option{WithCountWindow(10), WithoutStopwords()}},
	} {
		if _, err := Open(dir, tc.opts...); err == nil {
			t.Fatalf("%s conflict accepted", tc.name)
		}
	}

	// The original options (and no options at all) both recover.
	r, err := Open(dir, WithCountWindow(10), WithBatchSize(4))
	if err != nil {
		t.Fatalf("matching options rejected: %v", err)
	}
	r.crashForTest()
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("bare reopen rejected: %v", err)
	}
	r2.crashForTest()
}

// TestNewWithWALDelegatesToOpen: New(WithWAL(dir)) must behave exactly
// like Open(dir) — create, then recover.
func TestNewWithWALDelegatesToOpen(t *testing.T) {
	dir := t.TempDir()
	e, err := New(WithWAL(dir), WithCountWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("solar grid", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("solar grid storage", at(10)); err != nil {
		t.Fatal(err)
	}
	want := captureState(e)
	e.crashForTest()
	r, err := New(WithWAL(dir))
	if err != nil {
		t.Fatalf("recover through New: %v", err)
	}
	defer r.Close()
	requireSameState(t, captureState(r), want, "New(WithWAL) recovery")
}

// TestWatchSurvivesRecoveryPickup: watchers are process-local and not
// persisted, but attaching one to a recovered engine must deliver
// deltas against the recovered boundary.
func TestWatchSurvivesRecoveryPickup(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCountWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Register("tanker export", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("tanker export delayed", at(10)); err != nil {
		t.Fatal(err)
	}
	e.crashForTest()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []Delta
	if err := r.Watch(q, func(d Delta) { got = append(got, d) }); err != nil {
		t.Fatalf("watch recovered query: %v", err)
	}
	if _, err := r.IngestText("second tanker export announcement", at(20)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Query != q || len(got[0].Entered) != 1 {
		t.Fatalf("recovered watch deltas: %+v", got)
	}
}

// TestSnapshotRestoreIsExact: with snapshot v2 a plain
// Snapshot/Restore round trip preserves Stats and all future
// maintenance decisions byte-for-byte, for the serial and sharded
// engines.
func TestSnapshotRestoreIsExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"serial", []Option{WithCountWindow(10)}},
		{"sharded_batched", []Option{WithCountWindow(10), WithShards(3), WithBatchSize(4)}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, tc.opts...)
			defer e.Close()
			driveOps(t, 1, 50, e)
			var buf bytes.Buffer
			if err := e.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(&buf)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			requireSameState(t, captureState(r), captureState(e), "restore")
			driveOps(t, 50, 90, r, e)
			requireSameState(t, captureState(r), captureState(e), "post-restore evolution")
		})
	}
}

// TestOpenLeavesForeignFilesAlone: files the WAL does not recognize in
// its directory must survive every open, recovery and checkpoint — a
// user pointing the engine at a shared directory must never lose data.
func TestOpenLeavesForeignFilesAlone(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir, WithCountWindow(8), WithCheckpointEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(8))
	defer ref.Close()
	driveOps(t, 1, 40, e, ref) // crosses several checkpoint rotations
	e.crashForTest()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	data, err := os.ReadFile(foreign)
	if err != nil || string(data) != "precious" {
		t.Fatalf("foreign file damaged: %q, %v", data, err)
	}
}

// TestOpenRefusesSegmentsWithoutCheckpoint: a directory whose only
// checkpoint is gone but whose segment still holds real records is
// damaged beyond safe recovery — opening it would silently drop those
// operations. (A segment with no valid records at all is a different
// story: startup cleanup deletes it, see TestOpenCleansCrashLeftovers.)
func TestOpenRefusesSegmentsWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "wal-0.log"))
	if err != nil {
		t.Fatal(err)
	}
	l := wal.NewLog(f, 0, wal.DurabilityOff)
	if err := l.Append(&wal.Record{Kind: wal.KindDoc, Doc: 1, At: 1, Text: "orphaned operation"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Open(dir, WithCountWindow(4)); err == nil {
		t.Fatal("segment with records but no checkpoint accepted")
	}
}

// TestOpenCleansCrashLeftovers photographs every leftover shape a
// crash can strand in a WAL directory and proves startup cleanup
// removes it: an orphaned checkpoint temporary next to live state, a
// temporary alone in an otherwise fresh directory (an interrupted
// first checkpoint), a temporary plus an empty genesis segment, and a
// segment holding only garbage bytes. In every case Open succeeds, the
// leftovers are gone afterwards, and recoverable state is untouched.
func TestOpenCleansCrashLeftovers(t *testing.T) {
	requireGone := func(t *testing.T, paths ...string) {
		t.Helper()
		for _, p := range paths {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("leftover %s survived startup cleanup (stat err: %v)", p, err)
			}
		}
	}
	requireUsable := func(t *testing.T, e *Engine) {
		t.Helper()
		id, err := e.Register("crude oil", 2)
		if err != nil {
			t.Fatalf("register on cleaned engine: %v", err)
		}
		if _, err := e.IngestText("crude oil market", at(1)); err != nil {
			t.Fatalf("ingest on cleaned engine: %v", err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := e.Results(id); len(got) == 0 {
			t.Fatal("cleaned engine serves no results")
		}
	}

	t.Run("tmp next to live state", func(t *testing.T) {
		dir := t.TempDir()
		e, err := Open(dir, WithCountWindow(8), WithDurability(DurabilityOff))
		if err != nil {
			t.Fatal(err)
		}
		driveOps(t, 0, 40, e)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		pre := captureState(e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		tmp := wal.CheckpointTmpPath(dir, 99)
		if err := os.WriteFile(tmp, []byte("interrupted checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen with orphaned tmp: %v", err)
		}
		defer r.Close()
		requireGone(t, tmp)
		requireSameState(t, captureState(r), pre, "state after tmp cleanup")
	})

	t.Run("tmp alone", func(t *testing.T) {
		dir := t.TempDir()
		tmp := wal.CheckpointTmpPath(dir, 0)
		if err := os.WriteFile(tmp, []byte("torn first checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(dir, WithCountWindow(8), WithDurability(DurabilityOff))
		if err != nil {
			t.Fatalf("open over lone tmp: %v", err)
		}
		defer e.Close()
		requireGone(t, tmp)
		requireUsable(t, e)
	})

	t.Run("tmp plus empty segment", func(t *testing.T) {
		dir := t.TempDir()
		tmp := wal.CheckpointTmpPath(dir, 0)
		seg := wal.SegmentPath(dir, 0)
		if err := os.WriteFile(tmp, []byte("torn first checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(dir, WithCountWindow(8), WithDurability(DurabilityOff))
		if err != nil {
			t.Fatalf("open over tmp + empty segment: %v", err)
		}
		defer e.Close()
		requireGone(t, tmp)
		requireUsable(t, e)
	})

	t.Run("garbage segment", func(t *testing.T) {
		dir := t.TempDir()
		seg := wal.SegmentPath(dir, 0)
		if err := os.WriteFile(seg, []byte("\x00\x01garbage, not a frame"), 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(dir, WithCountWindow(8), WithDurability(DurabilityOff))
		if err != nil {
			t.Fatalf("open over garbage segment: %v", err)
		}
		defer e.Close()
		requireUsable(t, e)
	})
}
