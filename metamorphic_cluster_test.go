package ita

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"ita/internal/cluster"
	"ita/internal/core"
	"ita/internal/faults"
)

// This file extends the metamorphic suite to multi-node cluster mode:
// the byte-driven op sequence runs against a K-node cluster behind a
// merge router — every node a durable engine with its own warm standby
// replicating through its own faults.Network — and against a single
// never-faulted in-memory reference. Per-query threshold maintenance
// never couples two queries, and registration alignment keeps every
// node's term dictionary id-identical, so the cluster's merged state
// must equal the reference byte for byte (results, merged stats,
// window, dictionary, id cursors) at every quiesced epoch boundary.
// opCrash alternates standby kill/rejoin with node kill -9 + recovery
// from its own WAL; every run ends with a node lost for good and its
// standby promoted under a network partition and swapped into the
// router in its place. The reference no longer runs a different posting
// layout from the nodes (there is only one); the time that frees goes
// to further seeds of the cheaper equivalence and replication grids.

// clusterMember is one node slot: a durable primary engine, its WAL
// directory, its replication address, and a warm standby connected
// through a per-node fault domain.
type clusterMember struct {
	dir  string
	opts []Option
	eng  *Engine
	addr string
	netw *faults.Network
	fDir string
	f    *Engine
}

// captureClusterState merges per-node captured states into the
// single-engine view: results concatenate across the partition (each
// id lives on exactly one node) in ascending id order, per-query
// maintenance counters sum while stream counters must agree, query
// counts sum, and the stream-derived gauges (window, dictionary, id
// cursors) must be identical on every node.
func captureClusterState(t *testing.T, context string, engs ...*Engine) engineState {
	t.Helper()
	parts := make([]engineState, len(engs))
	stats := make([]core.Stats, len(engs))
	for i, e := range engs {
		parts[i] = captureState(e)
		stats[i] = parts[i].Stats
	}
	merged := parts[0]
	merged.Results = nil
	texts := make(map[QueryID]string)
	for i, p := range parts {
		merged.Results = append(merged.Results, p.Results...)
		for j, r := range p.Results {
			texts[r.Query] = p.Texts[j]
		}
		if i == 0 {
			continue
		}
		merged.Queries += p.Queries
		if p.Window != merged.Window || p.Dict != merged.Dict ||
			p.NextDoc != merged.NextDoc || p.NextQuery != merged.NextQuery {
			t.Fatalf("%s: node %d stream state {w=%d dict=%d nextDoc=%d nextQuery=%d} disagrees with node 0 {w=%d dict=%d nextDoc=%d nextQuery=%d}",
				context, i, p.Window, p.Dict, p.NextDoc, p.NextQuery,
				merged.Window, merged.Dict, merged.NextDoc, merged.NextQuery)
		}
	}
	ms, err := cluster.MergeStats(stats)
	if err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	merged.Stats = ms
	sortQueryResults(merged.Results)
	merged.Texts = make([]string, len(merged.Results))
	for i, r := range merged.Results {
		merged.Texts[i] = texts[r.Query]
	}
	return merged
}

func sortQueryResults(rs []QueryResult) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j-1].Query > rs[j].Query; j-- {
			rs[j-1], rs[j] = rs[j], rs[j-1]
		}
	}
}

// runClusterSequence drives one decoded op sequence through a k-node
// cluster router and the in-memory reference, asserting full merged
// equivalence (nodes and standbys) at every opResults boundary.
func runClusterSequence(t *testing.T, data []byte, seed int64, k int, cfg faults.Config) {
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
	base := []Option{pol}
	// The B axis: in a third of the sequences the generator coalesces
	// ingest ops into IngestBatch calls of up to 4 documents, sent to the
	// router and the reference alike (see flush and ingest below).
	batch := 1
	if len(data) > 1 && data[1]%3 == 0 {
		batch = 4
	}

	ref, err := New(base...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	members := make([]*clusterMember, k)
	for i := range members {
		m := &clusterMember{
			dir:  t.TempDir(),
			fDir: t.TempDir(),
			netw: faults.NewNetwork(faults.NewSchedule(seed+int64(i)*101, cfg)),
		}
		m.opts = append(append([]Option{}, base...),
			WithDurability(DurabilityOff), WithCheckpointEvery(16),
			WithReplicationRetention(4), testReplTuning(fmt.Sprintf("node%d", i)))
		m.eng, err = Open(m.dir, m.opts...)
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		m.addr = listenFaultPrimary(t, m.eng, "127.0.0.1:0", m.netw)
		m.f = openFaultFollower(t, m.fDir, m.addr, m.netw)
		members[i] = m
	}
	defer func() {
		for _, m := range members {
			if m.f != nil {
				m.f.Close()
			}
			m.eng.Close()
		}
	}()

	nodes := make([]cluster.Node, k)
	for i, m := range members {
		nodes[i] = cluster.Local(m.eng)
	}
	router, err := cluster.NewRouter(nodes)
	if err != nil {
		t.Fatal(err)
	}

	engines := func() []*Engine {
		out := make([]*Engine, len(members))
		for i, m := range members {
			out[i] = m.eng
		}
		return out
	}
	standbys := func() []*Engine {
		out := make([]*Engine, len(members))
		for i, m := range members {
			out[i] = m.f
		}
		return out
	}

	var pend []TimedText
	flush := func(step string) {
		if len(pend) == 0 {
			return
		}
		ids, err := router.IngestBatch(pend)
		if err != nil {
			t.Fatalf("%s: cluster ingest: %v", step, err)
		}
		want, err := ref.IngestBatch(pend)
		if err != nil {
			t.Fatalf("%s: reference ingest: %v", step, err)
		}
		if !reflect.DeepEqual(ids, want) {
			t.Fatalf("%s: doc ids %v vs %v", step, ids, want)
		}
		pend = nil
	}
	ingest := func(step string, items ...TimedText) {
		pend = append(pend, items...)
		if len(pend) >= batch {
			flush(step)
		}
	}

	compare := func(step string) {
		flush(step)
		for i, m := range members {
			waitReplCaughtUp(t, m.f, m.eng, 30*time.Second)
			requireMirroredSegment(t, m.eng, m.f, fmt.Sprintf("%s: node %d", step, i))
		}
		want := captureState(ref)
		requireSameState(t, captureClusterState(t, step+": nodes", engines()...), want, step+": cluster vs reference")
		requireSameState(t, captureClusterState(t, step+": standbys", standbys()...), want, step+": standbys vs reference")
		// The router's own merged read path must agree with the manual
		// merge: same stats, same totals.
		rs, err := router.Stats()
		if err != nil {
			t.Fatalf("%s: router stats: %v", step, err)
		}
		if rs != want.Stats {
			t.Fatalf("%s: router merged stats %+v != reference %+v", step, rs, want.Stats)
		}
		st, err := router.Status()
		if err != nil {
			t.Fatalf("%s: router status: %v", step, err)
		}
		if st.Queries != want.Queries || st.Window != want.Window || st.Dict != want.Dict {
			t.Fatalf("%s: router status %+v != reference {q=%d w=%d dict=%d}", step, st, want.Queries, want.Window, want.Dict)
		}
	}

	var live []QueryID
	clock := 0
	crashes := 0

	for step, op := range ops {
		ctx := fmt.Sprintf("op %d", step)
		switch op.kind {
		case opRegister, opUnregister, opAdvance, opFlush, opCheckpoint:
			flush(ctx)
		}
		switch op.kind {
		case opIngest:
			clock += op.dtMs
			ingest(ctx, TimedText{Text: op.text, At: at(clock)})
		case opIngestBatch:
			items := make([]TimedText, len(op.batch))
			for j, text := range op.batch {
				clock += op.dtMs
				items[j] = TimedText{Text: text, At: at(clock)}
			}
			ingest(ctx, items...)
		case opRegister:
			id, err := router.Register(op.text, op.k)
			if err != nil {
				t.Fatalf("%s: cluster register: %v", ctx, err)
			}
			want, err := ref.Register(op.text, op.k)
			if err != nil {
				t.Fatalf("%s: reference register: %v", ctx, err)
			}
			if id != want {
				t.Fatalf("%s: query id %d vs %d", ctx, id, want)
			}
			live = append(live, id)
		case opUnregister:
			if len(live) == 0 {
				continue
			}
			idx := op.qsel % len(live)
			id := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			ok, err := router.Unregister(id)
			if err != nil || !ok {
				t.Fatalf("%s: cluster unregister %d: ok=%v err=%v", ctx, id, ok, err)
			}
			if !ref.Unregister(id) {
				t.Fatalf("%s: reference unregister %d failed", ctx, id)
			}
		case opAdvance:
			clock += op.dtMs
			if err := router.Advance(at(clock)); err != nil {
				t.Fatalf("%s: cluster advance: %v", ctx, err)
			}
			if err := ref.Advance(at(clock)); err != nil {
				t.Fatalf("%s: reference advance: %v", ctx, err)
			}
		case opFlush:
			// Submitted above.
		case opResults:
			compare(ctx)
		case opCrash:
			crashes++
			m := members[crashes%k]
			if crashes%2 == 1 {
				// Kill and rejoin the node's standby from its directory.
				if err := m.f.Close(); err != nil {
					t.Fatalf("%s: close standby: %v", ctx, err)
				}
				m.f = openFaultFollower(t, m.fDir, m.addr, m.netw)
			} else {
				// Kill -9 the node itself mid-stream: listener dies, nothing
				// is flushed, and the reopened engine must recover
				// byte-identically from its own WAL before rejoining the
				// router on the same port.
				pre := captureState(m.eng)
				crashPrimaryForTest(m.eng)
				ne, err := Open(m.dir, m.opts...)
				if err != nil {
					t.Fatalf("%s: reopen node: %v", ctx, err)
				}
				requireSameState(t, captureState(ne), pre, ctx+": node crash recovery")
				m.eng = ne
				m.addr = listenFaultPrimary(t, m.eng, m.addr, m.netw)
				router.SwapNode(crashes%k, cluster.Local(m.eng))
			}
		case opCheckpoint:
			for i, m := range members {
				if err := m.eng.Checkpoint(); err != nil {
					t.Fatalf("%s: checkpoint node %d: %v", ctx, i, err)
				}
			}
		}
	}
	compare("end of run")

	// Finale: lose node 0 for good and fail its slot over under a
	// partition. The cluster was just quiesced, so the standby holds the
	// node's exact boundary state; the partition guarantees promotion
	// cannot consult the dead primary. The promoted engine swaps into
	// the router slot — placement depends only on the slot index, so
	// routing is untouched — and the cluster must remain in lockstep
	// with the reference as writes continue.
	loss := members[0]
	loss.netw.Heal()
	loss.netw.Partition()
	crashPrimaryForTest(loss.eng)
	if err := loss.f.Promote(); err != nil {
		t.Fatalf("promote under partition: %v", err)
	}
	loss.eng = loss.f
	loss.f = nil
	router.SwapNode(0, cluster.Local(loss.eng))

	finale := func(step string) {
		want := captureState(ref)
		requireSameState(t, captureClusterState(t, step, engines()...), want, step)
	}
	finale("promoted cluster vs reference")

	for i := 0; i < 30; i++ {
		switch {
		case i%7 == 0:
			text := fmt.Sprintf("post failover query %d", i%3)
			id, err := router.Register(text, 1+i%3)
			if err != nil {
				t.Fatalf("finale op %d: cluster register: %v", i, err)
			}
			want, err := ref.Register(text, 1+i%3)
			if err != nil || id != want {
				t.Fatalf("finale op %d: register id %d vs %d (%v)", i, id, want, err)
			}
		case i%5 == 0:
			if err := router.Advance(at(5000 + i*10)); err != nil {
				t.Fatalf("finale op %d: advance: %v", i, err)
			}
			if err := ref.Advance(at(5000 + i*10)); err != nil {
				t.Fatal(err)
			}
		default:
			text := fmt.Sprintf("failover stream doc %d tanker %d", i%6, i%4)
			if _, err := router.IngestText(text, at(5000+i*10)); err != nil {
				t.Fatalf("finale op %d: ingest: %v", i, err)
			}
			if _, err := ref.IngestText(text, at(5000+i*10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	finale("promoted cluster after writes")
}

// clusterFaultGrid trades breadth against the K× process cost: a clean
// cell, the drop cell, and the mixed cell (the replication suite
// sweeps the individual fault types on a single pair).
var clusterFaultGrid = []struct {
	name string
	cfg  faults.Config
}{
	{"clean", faults.Config{}},
	{"drops", faults.Config{DropRate: 0.02}},
	{"mixed", faults.Config{DropRate: 0.01, TruncateRate: 0.01,
		DelayRate: 0.05, MaxDelay: 2 * time.Millisecond,
		PartitionRate: 0.001, PartitionFor: 25 * time.Millisecond}},
}

// TestMetamorphicCluster proves the partitioning exact: for K∈{2,3},
// a K-node cluster behind the merge router — per-node standbys under
// injected faults, node kills and rejoins included — is byte-identical
// to one engine at every quiesced boundary, and stays identical after
// losing a node and promoting its standby under partition. Replay a
// failure with ITA_CLUSTER_SEED=<seed>.
func TestMetamorphicCluster(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	if env := os.Getenv("ITA_CLUSTER_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("ITA_CLUSTER_SEED=%q: %v", env, err)
		}
		seeds = []int64{n}
	}
	for _, seed := range seeds {
		for _, k := range []int{2, 3} {
			for ci, cell := range clusterFaultGrid {
				seed, k, ci, cell := seed, k, ci, cell
				t.Run(fmt.Sprintf("seed=%d/k=%d/%s", seed, k, cell.name), func(t *testing.T) {
					t.Logf("replay with: ITA_CLUSTER_SEED=%d go test -run TestMetamorphicCluster", seed)
					data := make([]byte, 512)
					rand.New(rand.NewSource(seed)).Read(data)
					runClusterSequence(t, data, seed*37+int64(ci), k, cell.cfg)
				})
			}
		}
	}
}
