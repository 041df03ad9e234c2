package ita

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"ita/internal/faults"
	"ita/internal/wal"
)

// This file is the crash-point fault-injection suite of the durability
// subsystem. Three fault models are swept systematically:
//
//   - byte truncation (TestCrashPointByteSweep): a recorded run's log is
//     cut after every byte N and reopened; recovery must always succeed
//     and land exactly on the state after the last operation whose
//     record survived — prefix consistency at record granularity, with
//     no acked-durable epoch ever lost;
//   - live write failure (TestLiveWALWriteFailure): the segment file
//     starts erroring (including short writes) after byte N; every
//     operation from then on must fail cleanly — no panic — and a
//     reopen of the directory must recover a prefix-consistent state;
//   - interrupted checkpoints (TestCheckpointPhaseCrashes): the
//     directory is photographed between every crash-atomic phase of a
//     checkpoint (tmp written, renamed, segment rotated, GC'd) and each
//     photograph must recover the same state as the uninterrupted run;
//     TestFollowerCheckpointPhaseCrashes does the same for a standby's
//     bootstrap, mirrored rotations and resync.

// withWALHooks injects test hooks into a durable engine's config.
func withWALHooks(h *walTestHooks) Option {
	return func(c *config) error { c.walHooks = h; return nil }
}

// sweepConfigs is the engine grid every fault model runs over: serial,
// and single-shard and sharded engines whose plain ingests are
// IngestBatch calls of batch documents.
var sweepConfigs = []struct {
	name  string
	opts  []Option
	batch int
}{
	{"serial", []Option{WithCountWindow(8)}, 1},
	{"batched", []Option{WithCountWindow(8)}, 4},
	{"sharded_batched", []Option{WithCountWindow(8), WithShards(2)}, 4},
}

// recordRun drives a deterministic workload (plain ingests batch
// documents wide) through a durable engine and an in-memory reference,
// returning the reference state after every operation (refStates[i] =
// state after op i; refStates[0] = initial) and the durable log offset
// after every operation.
func recordRun(t *testing.T, durable, ref *Engine, ops, batch int) (refStates []engineState, offsets []int64) {
	t.Helper()
	refStates = append(refStates, captureState(ref))
	offsets = append(offsets, durable.wal.log.Offset())
	for i := 1; i <= ops; i++ {
		driveOpsN(t, batch, i, i+1, durable, ref)
		refStates = append(refStates, captureState(ref))
		offsets = append(offsets, durable.wal.log.Offset())
	}
	return refStates, offsets
}

// TestCrashPointByteSweep cuts the write-ahead log after every byte of
// a recorded run and asserts every reopen recovers the exact reference
// state of the longest operation prefix on disk — ResultsAll, Stats,
// Queries, window and id sequences all byte-identical. Acked
// durability follows: the log offset recorded when operation i returned
// is <= any N at or past it, so its state is never rolled back. Each
// recovered engine then takes one more operation, crashes and reopens
// again, and must hold the first recovery's state plus that operation:
// a cut between a record and its marker must not leave a log the second
// reopen refuses.
func TestCrashPointByteSweep(t *testing.T) {
	for _, tc := range sweepConfigs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := append(append([]Option{}, tc.opts...),
				WithDurability(DurabilityEpochSync), WithCheckpointEvery(0))
			durable, err := Open(dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ref := newEngine(t, tc.opts...)
			defer ref.Close()
			const run = 45
			refStates, _ := recordRun(t, durable, ref, run, tc.batch)
			durable.crashForTest()

			data, err := os.ReadFile(wal.SegmentPath(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			full := wal.Scan(data)
			if full.Torn {
				t.Fatal("recorded run left a torn log")
			}
			// stateAt[n] = index of the reference state expected after
			// recovering the byte prefix [:n]: the number of state-bearing
			// records fully contained in it (each operation logs exactly
			// one, as its first record).
			stateAt := make([]int, len(data)+1)
			rec, ops := 0, 0
			for n := 0; n <= len(data); n++ {
				for rec < len(full.Ends) && full.Ends[rec] <= int64(n) {
					if full.Records[rec].Kind.StateBearing() {
						ops++
					}
					rec++
				}
				stateAt[n] = ops
			}
			if ops != len(refStates)-1 {
				t.Fatalf("log holds %d operations, reference ran %d", ops, len(refStates)-1)
			}

			ckpt, err := os.ReadFile(wal.CheckpointPath(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			stride := 1
			if testing.Short() {
				stride = 17
			}
			crashDirs := t.TempDir()
			for n := 0; n <= len(data); n += stride {
				cdir := filepath.Join(crashDirs, fmt.Sprintf("n%d", n))
				if err := os.MkdirAll(cdir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(wal.CheckpointPath(cdir, 0), ckpt, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(wal.SegmentPath(cdir, 0), data[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				r, err := Open(cdir)
				if err != nil {
					t.Fatalf("crash point %d: reopen failed: %v", n, err)
				}
				requireSameState(t, captureState(r), refStates[stateAt[n]],
					fmt.Sprintf("crash point %d (op prefix %d)", n, stateAt[n]))
				if err := driveOneOp(r, run+1, tc.batch); err != nil {
					t.Fatalf("crash point %d: operation after recovery: %v", n, err)
				}
				want := captureState(r)
				r.crashForTest()
				r2, err := Open(cdir)
				if err != nil {
					t.Fatalf("crash point %d: second reopen failed: %v", n, err)
				}
				requireSameState(t, captureState(r2), want, fmt.Sprintf("crash point %d, second recovery", n))
				r2.crashForTest()
				os.RemoveAll(cdir)
			}
		})
	}
}

// TestLiveWALWriteFailure sweeps the first failing byte of the segment
// file across a run. From the failure on, operations must return errors
// — never panic, never report success for work the log will not
// remember — and reopening the directory must recover a state no older
// than the last successful operation.
func TestLiveWALWriteFailure(t *testing.T) {
	// -1 is faults.File's already-full disk: every write fails with
	// zero bytes landed.
	limits := []int{-1, 1, 7, 8, 20, 64, 150, 300, 600, 1200}
	for _, tc := range sweepConfigs {
		tc := tc
		for _, limit := range limits {
			limit := limit
			t.Run(fmt.Sprintf("%s/limit%d", tc.name, limit), func(t *testing.T) {
				dir := t.TempDir()
				hooks := &walTestHooks{
					create: func(path string) (wal.File, error) {
						f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
						if err != nil {
							return nil, err
						}
						if filepath.Ext(path) == ".log" {
							// The disk-fault wrapper of internal/faults is the
							// generalization of the failingFile these sweeps began
							// with; Limit is its hard byte cap (disk-full model).
							return &faults.File{F: f, Limit: limit}, nil
						}
						return f, nil
					},
				}
				opts := append(append([]Option{}, tc.opts...),
					WithDurability(DurabilityEpochSync), WithCheckpointEvery(0), withWALHooks(hooks))
				durable, err := Open(dir, opts...)
				if err != nil {
					t.Fatal(err)
				}
				ref := newEngine(t, tc.opts...)
				defer ref.Close()

				lastGood := captureState(ref)
				failedAt := -1
				for i := 1; i <= 30; i++ {
					if err := driveOneOp(durable, i, tc.batch); err != nil {
						failedAt = i
						break
					}
					if err := driveOneOp(ref, i, tc.batch); err != nil {
						t.Fatalf("reference op %d: %v", i, err)
					}
					lastGood = captureState(ref)
				}
				if failedAt < 0 {
					t.Fatalf("write failure at byte %d never surfaced", limit)
				}
				durable.crashForTest()

				r, err := Open(dir)
				if err != nil {
					t.Fatalf("reopen after live failure: %v", err)
				}
				defer r.Close()
				got := captureState(r)
				// The recovered state must be at least the last acked op
				// (EpochSync synced it before the op returned) and at most
				// one op ahead (the failing op's state record may have made
				// it to disk before the marker write failed).
				if !sameOrOneAhead(t, got, lastGood, failedAt, tc.batch, ref) {
					t.Fatalf("limit %d: recovered state matches neither op %d nor op %d",
						limit, failedAt-1, failedAt)
				}
			})
		}
	}
}

// driveOneOp applies the same deterministic op schedule as driveOpsN but
// to a single engine, returning the first error instead of failing the
// test — the live fault sweep needs errors to be observable.
func driveOneOp(e *Engine, i, batch int) error {
	switch {
	case i%7 == 0:
		_, err := e.Register(fmt.Sprintf("crude oil market report %d", i%3), 1+i%3)
		return err
	case i%13 == 0:
		return e.Advance(at(i * 10))
	case i%5 == 0:
		_, err := e.IngestBatch([]TimedText{
			{Text: fmt.Sprintf("solar turbine grid %d", i%4), At: at(i * 10)},
			{Text: fmt.Sprintf("tanker export pipeline %d", i%5), At: at(i*10 + 1)},
		})
		return err
	default:
		_, err := e.IngestBatch(plainIngest(i, batch))
		return err
	}
}

// sameOrOneAhead reports whether got equals lastGood, or equals the
// reference advanced by the failing op (whose record may have been
// durably logged even though the op reported an error).
func sameOrOneAhead(t *testing.T, got, lastGood engineState, failedAt, batch int, ref *Engine) bool {
	t.Helper()
	if statesEqual(got, lastGood) {
		return true
	}
	// Advance a throwaway clone of the reference by the failed op: replay
	// it via snapshot round-trip so ref itself is not perturbed.
	clone := cloneEngine(t, ref)
	defer clone.Close()
	if err := driveOneOp(clone, failedAt, batch); err != nil {
		return false
	}
	return statesEqual(got, captureState(clone))
}

func statesEqual(a, b engineState) bool {
	return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

// cloneEngine duplicates an engine through the exact-state snapshot.
func cloneEngine(t *testing.T, e *Engine) *Engine {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- e.Snapshot(pw)
		pw.Close()
	}()
	clone, err := Restore(pr)
	if err != nil {
		t.Fatalf("clone restore: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("clone snapshot: %v", err)
	}
	return clone
}

// TestCheckpointPhaseCrashes photographs the durable directory between
// every crash-atomic phase of every checkpoint in a run, then recovers
// each photograph and asserts it lands exactly on the reference state
// at that operation — an interrupted checkpoint is invisible.
func TestCheckpointPhaseCrashes(t *testing.T) {
	dir := t.TempDir()
	shots := t.TempDir()
	type shot struct {
		phase string
		dir   string
		op    int
	}
	var (
		curOp int
		taken []shot
	)
	hooks := &walTestHooks{
		checkpointPhase: func(phase string) {
			sdir := filepath.Join(shots, fmt.Sprintf("s%d_%s", len(taken), phase))
			if err := copyDir(dir, sdir); err != nil {
				t.Errorf("photograph %s: %v", phase, err)
				return
			}
			taken = append(taken, shot{phase: phase, dir: sdir, op: curOp})
		},
	}
	durable, err := Open(dir, WithCountWindow(10), WithShards(2),
		WithCheckpointEvery(6), withWALHooks(hooks))
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(10), WithShards(2))
	defer ref.Close()

	refStates := []engineState{captureState(ref)}
	for i := 1; i <= 80; i++ {
		curOp = i
		driveOpsN(t, 3, i, i+1, durable, ref)
		refStates = append(refStates, captureState(ref))
	}
	durable.crashForTest()

	if len(taken) < 3*4 { // genesis writes no phases; expect several checkpoints
		t.Fatalf("only %d checkpoint phases photographed", len(taken))
	}
	phasesSeen := map[string]bool{}
	for _, s := range taken {
		phasesSeen[s.phase] = true
		// Photographs taken before the genesis checkpoint committed are
		// (near-)empty directories; recovering those is a fresh create and
		// needs the configuration, exactly like the real crash it models.
		// Later photographs accept the same options via the compatibility
		// check.
		r, err := Open(s.dir, WithCountWindow(10), WithShards(2))
		if err != nil {
			t.Fatalf("recover photograph %s at op %d: %v", s.phase, s.op, err)
		}
		requireSameState(t, captureState(r), refStates[s.op],
			fmt.Sprintf("checkpoint phase %q at op %d", s.phase, s.op))
		r.crashForTest()
	}
	for _, want := range []string{"begin", "written", "renamed", "rotated", "done"} {
		if !phasesSeen[want] {
			t.Fatalf("phase %q never photographed (saw %v)", want, phasesSeen)
		}
	}
}

// TestFollowerCheckpointPhaseCrashes photographs a standby's directory
// between every crash-atomic phase of the checkpoints it writes: the
// one it bootstraps from, the ones it mirrors from its primary's
// rotations, and the one a forced resync writes. Each photograph must
// recover with Open to a state the primary passed through.
func TestFollowerCheckpointPhaseCrashes(t *testing.T) {
	pdir, fdir, shots := t.TempDir(), t.TempDir(), t.TempDir()
	type shot struct{ stage, phase, dir string }
	var (
		mu    sync.Mutex
		stage string
		taken []shot
	)
	setStage := func(s string) {
		mu.Lock()
		stage = s
		mu.Unlock()
	}
	hooks := &walTestHooks{
		checkpointPhase: func(phase string) {
			mu.Lock()
			defer mu.Unlock()
			sdir := filepath.Join(shots, fmt.Sprintf("s%d_%s_%s", len(taken), stage, phase))
			if err := copyDir(fdir, sdir); err != nil {
				t.Errorf("photograph %s %s: %v", stage, phase, err)
				return
			}
			taken = append(taken, shot{stage, phase, sdir})
		},
	}
	// Retention of one segment: a standby that misses two rotations has
	// to resync.
	p, err := Open(pdir, WithCountWindow(8), WithDurability(DurabilityOff), WithCheckpointEvery(4),
		WithReplicationRetention(1), testReplTuning("primary"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	addr, err := p.StartReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(8))
	defer ref.Close()
	refStates := []engineState{captureState(ref)}
	drive := func(from, to int) {
		for i := from; i < to; i++ {
			driveOps(t, i, i+1, p, ref)
			refStates = append(refStates, captureState(ref))
		}
	}
	openFollower := func() *Engine {
		f, err := OpenFollower(fdir, addr.String(), WithDurability(DurabilityOff),
			testReplTuning("standby"), withWALHooks(hooks))
		if err != nil {
			t.Fatalf("open follower: %v", err)
		}
		return f
	}

	drive(0, 20)
	setStage("bootstrap")
	f := openFollower()
	setStage("rotate")
	drive(20, 40)
	waitReplCaughtUp(t, f, p, 10*time.Second)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	drive(40, 70)
	setStage("resync")
	f = openFollower()
	waitReplCaughtUp(t, f, p, 10*time.Second)
	requireSameState(t, captureState(f), captureState(ref), "resynced follower vs reference")
	if rs := f.ReplicationStats(); rs.Resyncs == 0 {
		t.Fatalf("the rejoin resumed instead of resyncing: %+v", rs)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	seen := map[string]bool{}
	for _, s := range taken {
		seen[s.stage+"/"+s.phase] = true
		r, err := Open(s.dir, WithCountWindow(8))
		if err != nil {
			t.Fatalf("recover %s photograph at phase %s: %v", s.stage, s.phase, err)
		}
		got := captureState(r)
		r.crashForTest()
		if !slices.ContainsFunc(refStates, func(want engineState) bool { return statesEqual(got, want) }) {
			t.Fatalf("%s photograph at phase %s recovered a state the primary never passed through: %+v", s.stage, s.phase, got)
		}
	}
	want := map[string][]string{
		"bootstrap": {"begin", "written", "renamed"},
		"rotate":    {"begin", "written", "renamed", "rotated", "done"},
		"resync":    {"begin", "written", "renamed", "rotated", "done"},
	}
	for st, phases := range want {
		for _, ph := range phases {
			if !seen[st+"/"+ph] {
				t.Errorf("%s phase %q never photographed (saw %v)", st, ph, seen)
			}
		}
	}
}

// copyDir copies a flat directory (the WAL layout has no subdirs).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestCorruptMidLogRecoversPrefix flips a byte in the middle of the
// log; recovery must stop cleanly at the corruption, recovering the
// record prefix before it — never panic, never serve garbage.
func TestCorruptMidLogRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	durable, err := Open(dir, WithCountWindow(8), WithDurability(DurabilityOff), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, WithCountWindow(8))
	defer ref.Close()
	refStates, _ := recordRun(t, durable, ref, 25, 1)
	durable.crashForTest()

	segPath := wal.SegmentPath(dir, 0)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	full := wal.Scan(data)
	mid := len(data) / 2
	data[mid] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with corrupt middle: %v", err)
	}
	defer r.Close()
	// Expected: the op prefix whose records all precede the corruption.
	ops := 0
	for i, end := range full.Ends {
		if end > int64(mid) {
			break
		}
		if full.Records[i].Kind.StateBearing() {
			ops++
		}
	}
	requireSameState(t, captureState(r), refStates[ops], "corrupt middle")
}
