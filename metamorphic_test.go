package ita

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// This file is the randomized metamorphic equivalence suite of the
// published-view read path: a deterministic byte-driven generator
// interleaves every facade operation (Register, Unregister, IngestText,
// IngestBatch, Advance, Results) and replays the identical sequence
// against
//
//   - the serial ITA facade (the reference),
//   - the Naïve brute-force facade (an independent oracle
//     implementation), and
//   - the sharded/batched grid S ∈ {1, 2, 8} × B ∈ {1, 64}, each
//     running durably over a write-ahead log,
//
// comparing every live query at every common boundary under the
// epoch-pipeline guarantee (sameTopK), and additionally asserting that
// each engine's wait-free published read is byte-identical to a
// test-only read of its live result under the engine lock
// (resultsLocked). The generator also emits crash/reopen and
// checkpoint ops: a grid engine is dropped mid-stream (worker
// goroutines stopped, nothing flushed) and recovered from its log, and
// the recovered engine must be byte-identical to the crashed one —
// results, stats, id sequences — before the run continues on it. CI
// runs the suite under -race; a failing seed is printed and can be
// replayed with ITA_EQ_SEED=<seed> go test -run
// TestMetamorphicEquivalence.
//
// There is one ingest pipeline, so B is an epoch-size axis, not a
// code-path twin: B=1 makes every IngestText its own epoch and every
// IngestBatch one epoch of its items, while for B=64 the generator
// coalesces consecutive ingest ops into IngestBatch calls of up to 64
// documents (submitted once 64 are held, and before every Register,
// Unregister, Advance, Results, Checkpoint and opFlush) — different
// epoch cuts of the same stream, which must agree at every boundary.
// The whole grid runs once under cosine scoring
// (TestMetamorphicEquivalence) and once under Okapi BM25
// (TestMetamorphicOkapi), whose unnormalized weights give the floors
// and probe bounds a different numeric range to hold in.

// opKind enumerates the generated facade operations.
const (
	opIngest = iota
	opIngestBatch
	opRegister
	opUnregister
	opAdvance
	opFlush       // submit the B=64 cells' coalesced ingests
	opResults     // submit coalesced ingests + full cross-engine comparison
	opCrash       // durable engines: crash, reopen, assert byte-identical recovery
	opCheckpoint  // durable engines: force a checkpoint + log rotation
	opWatchToggle // un/re-watch a live query mid-stream (often mid-epoch)
	opKinds
)

// opWeights biases the generator toward Register/Unregister churn: the
// dense-id free list only gets exercised when queries die and new ones
// reuse their slots, so the mix leans on registration turnover (~44%
// of ops) while keeping every other op kind in play. Weights sum to
// 256 so one generator byte maps through the table with no modulo
// bias.
var opWeights = [opKinds]int{
	opIngest:      41,
	opIngestBatch: 31,
	opRegister:    48,
	opUnregister:  48,
	opAdvance:     15,
	opFlush:       15,
	opResults:     26,
	opCrash:       8,
	opCheckpoint:  8,
	opWatchToggle: 16,
}

// pickOp maps one generator byte to an op kind through the weight
// table, deterministically and totally.
func pickOp(b byte) int {
	n := int(b)
	for kind, w := range opWeights {
		if n < w {
			return kind
		}
		n -= w
	}
	return opIngest // unreachable: weights sum to 256
}

type facadeOp struct {
	kind  int
	text  string   // opIngest, opRegister
	batch []string // opIngestBatch
	k     int      // opRegister
	qsel  int      // opUnregister: selector into the live query ids
	dtMs  int      // opIngest/opIngestBatch/opAdvance: clock step
}

// opVocab is the generator's vocabulary: content words (no stopwords,
// so every generated query has indexable terms) with enough overlap to
// make top-k sets contested.
var opVocab = []string{
	"oil", "crude", "market", "price", "export", "tanker", "refinery",
	"barrel", "futures", "pipeline", "solar", "turbine", "grid", "storage",
	"demand", "supply",
}

// decodeOps maps a byte string to an op sequence, deterministically and
// totally: every input decodes to something, which is what lets the
// fuzzer drive the generator directly. The first byte selects the
// window policy (see runOpSequence).
func decodeOps(data []byte) []facadeOp {
	const maxOps = 192
	var ops []facadeOp
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	words := func(n byte) string {
		k := 1 + int(n)%3
		var sb strings.Builder
		for j := 0; j < k; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(opVocab[int(next())%len(opVocab)])
		}
		return sb.String()
	}
	for i < len(data) && len(ops) < maxOps {
		b := next()
		op := facadeOp{kind: pickOp(b)}
		switch op.kind {
		case opIngest:
			op.text = words(next())
			op.dtMs = 1 + int(next())%5
		case opIngestBatch:
			n := 1 + int(next())%5
			for j := 0; j < n; j++ {
				op.batch = append(op.batch, words(next()))
			}
			op.dtMs = 1 + int(next())%5
		case opRegister:
			op.text = words(next())
			op.k = 1 + int(next())%3
		case opUnregister:
			op.qsel = int(next())
		case opAdvance:
			op.dtMs = 1 + int(next())%200
		case opWatchToggle:
			op.qsel = int(next())
		}
		ops = append(ops, op)
	}
	return ops
}

// eqEngine is one engine variant under test. The S×B grid engines run
// durably (a write-ahead log in walDir) so the crash/reopen and
// checkpoint ops exercise recovery against the never-crashed serial
// reference and Naïve oracle, which have no WAL and never crash.
type eqEngine struct {
	name   string
	e      *Engine
	walDir string
	scan   bool // probe trees pinned to the scan-all representation
	// batch > 1 coalesces ingest ops into IngestBatch calls of up to
	// batch documents: pend holds them, and want the ids the serial
	// reference assigned them.
	batch int
	pend  []TimedText
	want  []DocID
	// watched is the delta-reconstruction oracle: per watched query, the
	// top-k document set rebuilt purely from delivered watch deltas
	// (seeded from the published result at Watch time). The engine's
	// boundary result must equal the reconstruction at every compare —
	// which fails on any lost, duplicated or mis-baselined delta,
	// however batching coalesced the epochs that produced it.
	watched map[QueryID]map[DocID]bool
}

// ingest submits items, whose ids on the serial reference are want —
// at once, or coalesced until the cell's batch is full.
func (g *eqEngine) ingest(items []TimedText, want []DocID) error {
	g.pend = append(g.pend, items...)
	g.want = append(g.want, want...)
	if len(g.pend) < g.batch {
		return nil
	}
	return g.flush()
}

// flush submits the coalesced ingests as one IngestBatch call.
func (g *eqEngine) flush() error {
	if len(g.pend) == 0 {
		return nil
	}
	ids, err := g.e.IngestBatch(g.pend)
	if err == nil && !reflect.DeepEqual(ids, g.want) {
		err = fmt.Errorf("doc ids %v, serial %v", ids, g.want)
	}
	g.pend, g.want = nil, nil
	return err
}

// watchQuery (re)subscribes one engine to a query and resets its
// reconstruction to the engine's published boundary result — the same
// baseline Watch itself stores, so the delta stream and the
// reconstruction advance in lockstep from here.
func watchQuery(t *testing.T, g *eqEngine, id QueryID, forbidden map[QueryID]bool) {
	t.Helper()
	set := make(map[DocID]bool)
	for _, m := range g.e.Results(id) {
		set[m.Doc] = true
	}
	g.watched[id] = set
	name := g.name
	if err := g.e.Watch(id, func(d Delta) {
		if forbidden[d.Query] {
			t.Errorf("%s: watch delta delivered for dead query %d: %+v", name, d.Query, d)
		}
		for _, doc := range d.Exited {
			if !set[doc] {
				t.Errorf("%s: query %d: delta exits doc %d the watcher was never shown", name, d.Query, doc)
			}
			delete(set, doc)
		}
		for _, m := range d.Entered {
			if set[m.Doc] {
				t.Errorf("%s: query %d: delta re-enters doc %d already shown", name, d.Query, m.Doc)
			}
			set[m.Doc] = true
		}
	}); err != nil {
		t.Fatalf("%s: watch %d: %v", name, id, err)
	}
}

// runOpSequence replays one decoded op sequence across the engine grid
// and fails the test on any divergence. It is shared by the seeded
// metamorphic suite and the fuzz target.
func runOpSequence(t *testing.T, data []byte, extra ...Option) {
	t.Helper()
	ops := decodeOps(data)
	if len(ops) == 0 {
		return
	}

	// First byte: window policy. Count windows exercise arrival-driven
	// expiration; time windows exercise Advance-driven expiration.
	var pol Option
	polName := "count"
	if len(data) > 0 && data[0]%2 == 1 {
		pol = WithTimeWindow(120 * time.Millisecond)
		polName = "time"
	} else {
		pol = WithCountWindow(10)
	}

	// Every ITA engine in the grid runs with tiny floor margins so the
	// 10-document windows actually exercise floor raises, purges and
	// refill rebuilds; the production defaults would keep every floor at
	// zero in windows this small.
	mk := func(opts ...Option) *Engine {
		e, err := New(append(append([]Option{pol, withFloorMargins(1, 1)}, extra...), opts...)...)
		if err != nil {
			t.Fatalf("policy %s: %v", polName, err)
		}
		return e
	}
	serial := eqEngine{name: "serial", e: mk(), watched: map[QueryID]map[DocID]bool{}}
	// scan-all-trees pins the probe trees to the entry-ordered scan-all
	// representation on an otherwise identical serial engine: the
	// θ-ordered probe index must be byte-identical to it in results AND
	// in every operation counter at every boundary (a physical
	// representation choice — θ-ordering changes which queries a probe
	// visits first, never which it visits).
	scanTrees := eqEngine{name: "scan-all-trees",
		e: mk(withScanAllTrees()), watched: map[QueryID]map[DocID]bool{}}
	grid := []eqEngine{
		serial,
		scanTrees,
		{name: "naive-oracle", e: mk(WithAlgorithm(NaivePlain)), watched: map[QueryID]map[DocID]bool{}},
	}
	// Every S×B cell exists twice: once with the θ-ordered probe trees
	// and once pinned to scan-all. twins pairs their grid indexes;
	// compare() requires the pair byte-identical (results AND stats),
	// including across crash/reopen — the grid-wide proof that the
	// θ-ordered index changes the probe representation, never a
	// decision.
	var twins [][2]int
	for _, s := range []int{1, 2, 8} {
		for _, b := range []int{1, 64} {
			pair := [2]int{}
			for i, scan := range []bool{false, true} {
				// Durable: DurabilityOff skips fsyncs (an in-process crash
				// loses no written bytes; fsync-loss is modelled by the
				// byte-truncation sweeps in crash_test.go) and a small
				// checkpoint interval makes generated runs cross several log
				// rotations.
				dir := t.TempDir()
				opts := append([]Option{WithShards(s), withFloorMargins(1, 1),
					WithDurability(DurabilityOff), WithCheckpointEvery(24)}, extra...)
				name := fmt.Sprintf("s%d_b%d", s, b)
				if scan {
					opts = append(opts, withScanAllTrees())
					name += "_scan"
				}
				e, err := Open(dir, append([]Option{pol}, opts...)...)
				if err != nil {
					t.Fatalf("policy %s: %v", polName, err)
				}
				pair[i] = len(grid)
				grid = append(grid, eqEngine{name: name, e: e, walDir: dir, scan: scan, batch: b,
					watched: map[QueryID]map[DocID]bool{}})
			}
			twins = append(twins, pair)
		}
	}
	defer func() {
		for _, g := range grid {
			g.e.Close()
		}
	}()

	var live []QueryID
	var dead []QueryID
	// forbidden marks externally dead query ids: once an Unregister has
	// returned on every engine, no watch delta for that id may ever be
	// delivered again (dense-slot reuse must not resurrect a watcher).
	forbidden := make(map[QueryID]bool)
	clock := 0

	flush := func(step int) {
		for gi := range grid {
			if err := grid[gi].flush(); err != nil {
				t.Fatalf("op %d: %s: coalesced ingest: %v", step, grid[gi].name, err)
			}
		}
	}
	compare := func(step int) {
		flush(step)
		for _, g := range grid[1:] {
			if gw, ww := g.e.WindowLen(), serial.e.WindowLen(); gw != ww {
				t.Fatalf("op %d: %s: WindowLen %d, serial %d", step, g.name, gw, ww)
			}
			if gq, wq := g.e.Queries(), serial.e.Queries(); gq != wq {
				t.Fatalf("op %d: %s: Queries %d, serial %d", step, g.name, gq, wq)
			}
		}
		for _, id := range live {
			want := serial.e.Results(id)
			for _, g := range grid[1:] {
				if err := sameTopK(g.e.Results(id), want); err != nil {
					t.Fatalf("op %d: %s vs serial, query %d: %v", step, g.name, id, err)
				}
			}
			// The θ-ordered probe trees must be byte-identical to the
			// scan-all reference, not merely top-k-equivalent.
			if got := scanTrees.e.Results(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: scan-all-trees vs serial, query %d: %v vs %v", step, id, got, want)
			}
			// The wait-free published read must be byte-identical to the
			// same engine's live result read under the lock at the boundary.
			for _, g := range grid {
				pub, locked := g.e.Results(id), g.e.resultsLocked(id)
				if !reflect.DeepEqual(pub, locked) {
					t.Fatalf("op %d: %s, query %d: published read %v, locked read %v",
						step, g.name, id, pub, locked)
				}
			}
		}
		// ...and counter-identical: θ-ordering may never change a
		// maintenance decision, so every Stats field matches the serial
		// engine at every boundary.
		if gs, ws := scanTrees.e.Stats(), serial.e.Stats(); gs != ws {
			t.Fatalf("op %d: scan-all-trees stats %+v, serial %+v", step, gs, ws)
		}
		// Grid-wide probe-order proof: every S×B cell must be
		// byte-identical — full state, results and counters — to its
		// scan-all twin, whatever mixture of batching, sharding and
		// crash/reopen the run has been through.
		for _, pair := range twins {
			ordered, scan := &grid[pair[0]], &grid[pair[1]]
			requireSameState(t, captureState(scan.e), captureState(ordered.e),
				fmt.Sprintf("op %d: %s vs %s (probe twin)", step, scan.name, ordered.name))
		}
		// The delta-reconstruction oracle: each watcher's view of a
		// query, rebuilt purely from the deltas it was delivered, must
		// equal the engine's boundary result. A delta lost to a panicking
		// sibling, a baseline taken off-boundary, or a duplicate delivery
		// all surface here as a set mismatch.
		for gi := range grid {
			g := &grid[gi]
			for id, set := range g.watched {
				res := g.e.Results(id)
				if len(res) != len(set) {
					t.Fatalf("op %d: %s: query %d: watch reconstruction %v, boundary result %v",
						step, g.name, id, set, res)
				}
				for _, m := range res {
					if !set[m.Doc] {
						t.Fatalf("op %d: %s: query %d: boundary doc %d missing from watch reconstruction %v",
							step, g.name, id, m.Doc, set)
					}
				}
			}
		}
		// Unregistered ids must stay dead on every engine: a dense slot
		// recycled to a newer query must never leak a view, a result or
		// replayed WAL state under the old external id.
		for _, id := range dead {
			for _, g := range grid {
				if got := g.e.Results(id); got != nil {
					t.Fatalf("op %d: %s: dead query %d served %v", step, g.name, id, got)
				}
				if got := g.e.resultsLocked(id); got != nil {
					t.Fatalf("op %d: %s: dead query %d served %v via locked read", step, g.name, id, got)
				}
				if text, ok := g.e.QueryText(id); ok {
					t.Fatalf("op %d: %s: dead query %d still has text %q", step, g.name, id, text)
				}
			}
		}
	}

	for step, op := range ops {
		switch op.kind {
		case opRegister, opUnregister, opAdvance, opFlush, opCheckpoint:
			flush(step)
		}
		switch op.kind {
		case opIngest, opIngestBatch:
			var items []TimedText
			if op.kind == opIngest {
				clock += op.dtMs
				items = []TimedText{{Text: op.text, At: at(clock)}}
			}
			for _, text := range op.batch {
				clock += op.dtMs
				items = append(items, TimedText{Text: text, At: at(clock)})
			}
			// The serial reference (grid[0]) ingests first and fixes the ids.
			want, err := serial.e.IngestBatch(items)
			if err != nil {
				t.Fatalf("op %d: serial: ingest: %v", step, err)
			}
			for gi := range grid[1:] {
				g := &grid[gi+1]
				if err := g.ingest(items, want); err != nil {
					t.Fatalf("op %d: %s: ingest: %v", step, g.name, err)
				}
			}
		case opRegister:
			var want QueryID
			for gi, g := range grid {
				id, err := g.e.Register(op.text, op.k)
				if err != nil {
					t.Fatalf("op %d: %s: register %q: %v", step, g.name, op.text, err)
				}
				if gi == 0 {
					want = id
				} else if id != want {
					t.Fatalf("op %d: %s: query id %d, serial %d", step, g.name, id, want)
				}
			}
			live = append(live, want)
			for gi := range grid {
				watchQuery(t, &grid[gi], want, forbidden)
			}
		case opUnregister:
			if len(live) == 0 {
				continue
			}
			idx := op.qsel % len(live)
			id := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			dead = append(dead, id)
			for _, g := range grid {
				if !g.e.Unregister(id) {
					t.Fatalf("op %d: %s: unregister %d reported unknown", step, g.name, id)
				}
			}
			for gi := range grid {
				if got := grid[gi].e.Results(id); got != nil {
					t.Fatalf("op %d: %s: unregistered query %d still served %v", step, grid[gi].name, id, got)
				}
				delete(grid[gi].watched, id)
			}
			forbidden[id] = true
		case opAdvance:
			clock += op.dtMs
			for _, g := range grid {
				if err := g.e.Advance(at(clock)); err != nil {
					t.Fatalf("op %d: %s: advance: %v", step, g.name, err)
				}
			}
		case opFlush:
			// Submitted above.
		case opResults:
			compare(step)
		case opWatchToggle:
			if len(live) == 0 {
				continue
			}
			id := live[op.qsel%len(live)]
			if _, on := grid[0].watched[id]; on {
				for gi := range grid {
					if !grid[gi].e.Unwatch(id) {
						t.Fatalf("op %d: %s: unwatch %d reported no watcher", step, grid[gi].name, id)
					}
					delete(grid[gi].watched, id)
				}
			} else {
				// Re-watching lands at whatever point the stream happens to
				// be — for batched cells, typically with ingests still
				// coalescing — so the stored baseline must be the published
				// boundary for the reconstruction to stay exact.
				for gi := range grid {
					watchQuery(t, &grid[gi], id, forbidden)
				}
			}
		case opCrash:
			for gi := range grid {
				crashAndReopen(t, &grid[gi], fmt.Sprintf("op %d", step), forbidden)
			}
		case opCheckpoint:
			for _, g := range grid {
				if g.walDir == "" {
					continue
				}
				if err := g.e.Checkpoint(); err != nil {
					t.Fatalf("op %d: %s: checkpoint: %v", step, g.name, err)
				}
			}
		}
	}
	compare(len(ops))
	// End-of-run recovery: every durable engine must reopen
	// byte-identically one last time, whatever state the sequence left
	// it in.
	for gi := range grid {
		crashAndReopen(t, &grid[gi], "end of run", forbidden)
	}
}

// crashAndReopen crashes one durable grid engine, recovers it from its
// log, asserts the recovered engine is byte-identical to the crashed
// one, and swaps it into the grid. In-memory engines (empty walDir) are
// left alone. Watch subscriptions do not survive a crash — they live in
// the process, not the log — so every watched query is re-subscribed on
// the recovered engine and its reconstruction re-baselined, exactly
// what a real client does after a failover.
func crashAndReopen(t *testing.T, g *eqEngine, context string, forbidden map[QueryID]bool) {
	t.Helper()
	if g.walDir == "" {
		return
	}
	pre := captureState(g.e)
	g.e.crashForTest()
	// Durability and checkpoint cadence are runtime policies, not
	// persisted: re-supply them so the reopened engine keeps the
	// generator's rotation coverage. The scan-all pin and the floor
	// margins are equally runtime choices and must survive reopen for
	// the probe-twin comparison to stay meaningful.
	opts := []Option{WithDurability(DurabilityOff), WithCheckpointEvery(24),
		withFloorMargins(1, 1)}
	if g.scan {
		opts = append(opts, withScanAllTrees())
	}
	ne, err := Open(g.walDir, opts...)
	if err != nil {
		t.Fatalf("%s: %s: reopen after crash: %v", context, g.name, err)
	}
	g.e = ne
	requireSameState(t, captureState(ne), pre,
		fmt.Sprintf("%s: %s: crash/reopen", context, g.name))
	for id := range g.watched {
		watchQuery(t, g, id, forbidden)
	}
}

// TestMetamorphicEquivalence runs the generator over a fixed seed set
// (fewer under -short). Replay a single failing sequence with
// ITA_EQ_SEED=<seed>.
func TestMetamorphicEquivalence(t *testing.T) { runSeeds(t, "TestMetamorphicEquivalence") }

// TestMetamorphicOkapi is the same grid pass under Okapi BM25 scoring.
func TestMetamorphicOkapi(t *testing.T) {
	runSeeds(t, "TestMetamorphicOkapi", WithOkapiScoring(2))
}

func runSeeds(t *testing.T, name string, extra ...Option) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	if testing.Short() {
		seeds = seeds[:4]
	}
	if env := os.Getenv("ITA_EQ_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("ITA_EQ_SEED=%q: %v", env, err)
		}
		seeds = []int64{n}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("replay with: ITA_EQ_SEED=%d go test -run %s", seed, name)
			data := make([]byte, 512)
			rand.New(rand.NewSource(seed)).Read(data)
			runOpSequence(t, data, extra...)
		})
	}
}

// FuzzOpSequence feeds the byte-seed of the op generator straight to
// the fuzzer: any input decodes to a valid facade op sequence, so
// coverage-guided mutation explores operation interleavings rather than
// parser corner cases. CI runs a 30s smoke (`-fuzz FuzzOpSequence
// -fuzztime 30s`); crashers land in testdata/fuzz as regression inputs.
func FuzzOpSequence(f *testing.F) {
	f.Add([]byte{0, 2, 1, 3, 0, 4, 5, 6})
	f.Add([]byte{1, 2, 9, 2, 0, 7, 1, 3, 6, 6})
	data := make([]byte, 256)
	rand.New(rand.NewSource(99)).Read(data)
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		runOpSequence(t, data)
	})
}
