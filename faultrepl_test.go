package ita

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"ita/internal/faults"
)

// This file extends the metamorphic op-sequence generator
// (metamorphic_test.go) to replication under injected faults: the same
// byte-driven workload runs against a never-faulted in-memory
// reference and a durable primary whose WAL streams to a standby
// through a faults.Network that drops, delays, truncates mid-frame and
// partitions connections on a seeded deterministic schedule. At every
// opResults boundary the primary quiesces, the standby catches up
// through whatever reconnects and resyncs the faults forced, and all
// three engines must be byte-identical in the full captureState sense
// — with the standby's WAL additionally a byte-identical mirror of the
// primary's. opCrash alternates kill/rejoin of the standby (clean-ish
// close + reopen from its directory) and of the primary (server torn
// down, engine abandoned unflushed, reopened and re-listened on the
// same port). Every run ends with a promote-under-partition: the
// standby is promoted while the primary is unreachable, must equal the
// reference exactly, and must keep lockstep with it as a writable
// primary afterwards. The reference no longer runs a different posting
// layout from the replicated pair (there is only one); the time that
// frees goes to a further seed.

// faultReplTuning returns the follower tuning of a fault run: dials go
// through the fault domain, and backoffs are tight enough that injected
// drops cost milliseconds, not seconds.
func faultReplTuning(id string, netw *faults.Network) Option {
	return withReplTuning(replTuning{
		id:           id,
		dial:         netw.Dial,
		minBackoff:   time.Millisecond,
		maxBackoff:   10 * time.Millisecond,
		dialTimeout:  time.Second,
		readTimeout:  2 * time.Second,
		writeTimeout: 2 * time.Second,
		heartbeat:    5 * time.Millisecond,
		ackTimeout:   10 * time.Second,
	})
}

// openFaultFollower opens the standby through the fault domain,
// retrying while injected faults break the bootstrap snapshot fetch.
func openFaultFollower(t *testing.T, dir, addr string, netw *faults.Network) *Engine {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		f, err := OpenFollower(dir, addr, WithDurability(DurabilityOff),
			faultReplTuning("standby", netw))
		if err == nil {
			return f
		}
		if time.Now().After(deadline) {
			t.Fatalf("open follower through faults: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// listenFaultPrimary binds addr (a fixed port after a primary restart,
// port 0 on first start) and serves replication through the fault
// domain, retrying while the old listener's port is released.
func listenFaultPrimary(t *testing.T, p *Engine, addr string, netw *faults.Network) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			if err := p.startReplicationOn(netw.Listener(l)); err != nil {
				t.Fatalf("start replication: %v", err)
			}
			return l.Addr().String()
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runReplicatedSequence is the replication analogue of runOpSequence:
// one decoded op sequence, one fault schedule, full equivalence at
// every boundary.
func runReplicatedSequence(t *testing.T, data []byte, seed int64, cfg faults.Config) {
	t.Helper()
	ops := decodeOps(data)
	if len(ops) == 0 {
		return
	}
	var pol Option
	if len(data) > 0 && data[0]%2 == 1 {
		pol = WithTimeWindow(120 * time.Millisecond)
	} else {
		pol = WithCountWindow(10)
	}

	ref, err := New(pol)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	netw := faults.NewNetwork(faults.NewSchedule(seed, cfg))
	pOpts := []Option{pol, WithDurability(DurabilityOff), WithCheckpointEvery(16),
		WithReplicationRetention(4), testReplTuning("primary")}
	pDir := t.TempDir()
	p, err := Open(pDir, pOpts...)
	if err != nil {
		t.Fatal(err)
	}
	addr := listenFaultPrimary(t, p, "127.0.0.1:0", netw)
	fDir := t.TempDir()
	f := openFaultFollower(t, fDir, addr, netw)
	defer func() {
		f.Close()
		p.Close()
	}()

	var live []QueryID
	clock := 0
	crashes := 0

	compare := func(step string) {
		waitReplCaughtUp(t, f, p, 30*time.Second)
		requireMirroredSegment(t, p, f, step)
		want := captureState(ref)
		requireSameState(t, captureState(p), want, step+": primary vs reference")
		requireSameState(t, captureState(f), want, step+": standby vs reference")
	}

	for step, op := range ops {
		ctx := fmt.Sprintf("op %d", step)
		switch op.kind {
		case opIngest:
			clock += op.dtMs
			var want DocID
			for i, e := range []*Engine{p, ref} {
				id, err := e.IngestText(op.text, at(clock))
				if err != nil {
					t.Fatalf("%s: ingest: %v", ctx, err)
				}
				if i == 0 {
					want = id
				} else if id != want {
					t.Fatalf("%s: doc id %d vs %d", ctx, id, want)
				}
			}
		case opIngestBatch:
			items := make([]TimedText, len(op.batch))
			for j, text := range op.batch {
				clock += op.dtMs
				items[j] = TimedText{Text: text, At: at(clock)}
			}
			for _, e := range []*Engine{p, ref} {
				if _, err := e.IngestBatch(items); err != nil {
					t.Fatalf("%s: batch: %v", ctx, err)
				}
			}
		case opRegister:
			var want QueryID
			for i, e := range []*Engine{p, ref} {
				id, err := e.Register(op.text, op.k)
				if err != nil {
					t.Fatalf("%s: register: %v", ctx, err)
				}
				if i == 0 {
					want = id
				} else if id != want {
					t.Fatalf("%s: query id %d vs %d", ctx, id, want)
				}
			}
			live = append(live, want)
		case opUnregister:
			if len(live) == 0 {
				continue
			}
			idx := op.qsel % len(live)
			id := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			for _, e := range []*Engine{p, ref} {
				if !e.Unregister(id) {
					t.Fatalf("%s: unregister %d failed", ctx, id)
				}
			}
		case opAdvance:
			clock += op.dtMs
			for _, e := range []*Engine{p, ref} {
				if err := e.Advance(at(clock)); err != nil {
					t.Fatalf("%s: advance: %v", ctx, err)
				}
			}
		case opResults:
			compare(ctx)
		case opCrash:
			crashes++
			if crashes%2 == 1 {
				// Kill and rejoin the standby from its own directory.
				if err := f.Close(); err != nil {
					t.Fatalf("%s: close standby: %v", ctx, err)
				}
				f = openFaultFollower(t, fDir, addr, netw)
			} else {
				// Kill -9 the primary: server and listener die, nothing is
				// flushed, and the reopened engine must recover
				// byte-identically before it serves followers again on the
				// same port.
				pre := captureState(p)
				crashPrimaryForTest(p)
				np, err := Open(pDir, pOpts...)
				if err != nil {
					t.Fatalf("%s: reopen primary: %v", ctx, err)
				}
				requireSameState(t, captureState(np), pre, ctx+": primary crash recovery")
				p = np
				addr = listenFaultPrimary(t, p, addr, netw)
			}
		case opCheckpoint:
			if err := p.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint: %v", ctx, err)
			}
		}
	}
	compare("end of run")

	// Finale: promote-under-partition. The primary keeps writing behind
	// the cut; the promoted standby must equal the quiesced boundary the
	// reference holds, and must stay in lockstep as a writable primary.
	netw.Heal() // end any schedule-driven partition; the manual cut below is total
	netw.Partition()
	driveOps(t, 1000, 1012, p)
	if err := f.Promote(); err != nil {
		t.Fatalf("promote under partition: %v", err)
	}
	requireSameState(t, captureState(f), captureState(ref), "promoted standby vs reference")
	driveOps(t, 2000, 2024, f, ref)
	requireSameState(t, captureState(f), captureState(ref), "promoted standby after writes")
}

// faultGrid is the fault-config sweep of the metamorphic replication
// suite: a clean run, each fault type alone, and a mixed run.
var faultGrid = []struct {
	name string
	cfg  faults.Config
}{
	{"clean", faults.Config{}},
	{"drops", faults.Config{DropRate: 0.02}},
	{"truncates", faults.Config{TruncateRate: 0.02}},
	{"partitions", faults.Config{PartitionRate: 0.002, PartitionFor: 25 * time.Millisecond}},
	{"mixed", faults.Config{DropRate: 0.01, TruncateRate: 0.01,
		DelayRate: 0.05, MaxDelay: 2 * time.Millisecond,
		PartitionRate: 0.001, PartitionFor: 25 * time.Millisecond}},
}

// TestMetamorphicReplication runs the generator across the fault grid.
// Replay one cell with ITA_REPL_SEED=<seed> (the op seed; the fault
// schedule seed is derived as seed*31+cell index, so the whole cell
// reproduces).
func TestMetamorphicReplication(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	if env := os.Getenv("ITA_REPL_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("ITA_REPL_SEED=%q: %v", env, err)
		}
		seeds = []int64{n}
	}
	for _, seed := range seeds {
		for ci, cell := range faultGrid {
			seed, ci, cell := seed, ci, cell
			t.Run(fmt.Sprintf("seed=%d/%s", seed, cell.name), func(t *testing.T) {
				t.Logf("replay with: ITA_REPL_SEED=%d go test -run TestMetamorphicReplication", seed)
				data := make([]byte, 512)
				rand.New(rand.NewSource(seed)).Read(data)
				runReplicatedSequence(t, data, seed*31+int64(ci), cell.cfg)
			})
		}
	}
}

// TestFaultScheduleReplay is the CI smoke of fault-schedule
// determinism: a fixed op seed against a fixed fault schedule covering
// every fault type. The schedule maps the n-th I/O event to its fault
// by (seed, index) alone, so this exact run is what a failure
// elsewhere replays.
func TestFaultScheduleReplay(t *testing.T) {
	data := make([]byte, 512)
	rand.New(rand.NewSource(7)).Read(data)
	runReplicatedSequence(t, data, 424242, faults.Config{
		DropRate: 0.015, TruncateRate: 0.015,
		DelayRate: 0.05, MaxDelay: 2 * time.Millisecond,
		PartitionRate: 0.001, PartitionFor: 25 * time.Millisecond,
	})
}
