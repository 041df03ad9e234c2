package ita

import (
	"fmt"
	"time"

	"ita/internal/core"
	"ita/internal/shard"
	"ita/internal/vsm"
	"ita/internal/wal"
	"ita/internal/window"
)

// Algorithm selects the maintenance engine.
type Algorithm int

const (
	// IncrementalThreshold is the paper's ITA algorithm (the default).
	IncrementalThreshold Algorithm = iota
	// NaiveKmax is the paper's competitor: score every arrival against
	// every query, maintain a top-2k materialized view per query, and
	// rescan the window when a view underflows k.
	NaiveKmax
	// NaivePlain is NaiveKmax with kmax = k: the unenhanced baseline of
	// §II of the paper.
	NaivePlain
	// ShardedIncrementalThreshold is ITA with query-sharded parallel
	// maintenance: the inverted index stays a single-writer structure,
	// and per-query threshold/result maintenance fans out across shard
	// worker goroutines after every index mutation. Results are
	// identical to IncrementalThreshold; see WithShards.
	ShardedIncrementalThreshold
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case IncrementalThreshold:
		return "ita"
	case NaiveKmax:
		return "naive-kmax"
	case NaivePlain:
		return "naive-plain"
	case ShardedIncrementalThreshold:
		return "ita-sharded"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

type config struct {
	policy        window.Policy
	algorithm     Algorithm
	algorithmSet  bool
	weighter      vsm.Weighter
	stemming      bool
	stopwords     bool
	retainText    bool
	disableRollup bool
	scanTrees     bool // scan-all probe trees (equivalence testing)
	floorTarget   int  // floor margin overrides; 0 = engine default
	floorRaise    int
	shards        int // ShardedIncrementalThreshold only; 0 = GOMAXPROCS
	shardsSet     bool
	batchSize     int // epoch size for auto-coalesced ingestion; <= 1 disables

	// Durability (see durable.go). walAttach marks a config built by the
	// Open recovery path itself, where New must not recurse into Open.
	walDir        string
	walDurability Durability
	walEvery      int
	walEverySet   bool
	walAttach     bool
	walHooks      *walTestHooks

	// Replication (see replication.go). replRetain bounds how many
	// completed segments are kept for lagging followers; replTune carries
	// timing/dialing overrides for the replication server and follower
	// client (tests inject faults and fast backoffs through it).
	replRetain int
	replTune   *replTuning
}

// Option configures New.
type Option func(*config) error

// WithCountWindow keeps the n most recent documents valid (the paper's
// primary window type). Exactly one window option must be supplied.
func WithCountWindow(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("ita: count window must be positive, got %d", n)
		}
		if c.policy != nil {
			return fmt.Errorf("ita: window specified twice")
		}
		c.policy = window.Count{N: n}
		return nil
	}
}

// WithTimeWindow keeps documents received in the last d of stream time.
func WithTimeWindow(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("ita: time window must be positive, got %s", d)
		}
		if c.policy != nil {
			return fmt.Errorf("ita: window specified twice")
		}
		c.policy = window.Span{D: d}
		return nil
	}
}

// WithAlgorithm selects the engine; the default is IncrementalThreshold.
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) error {
		switch a {
		case IncrementalThreshold, NaiveKmax, NaivePlain, ShardedIncrementalThreshold:
			c.algorithm = a
			c.algorithmSet = true
			return nil
		default:
			return fmt.Errorf("ita: unknown algorithm %d", int(a))
		}
	}
}

// WithShards selects the sharded parallel ITA engine
// (ShardedIncrementalThreshold) with n shards; n = 0 uses
// runtime.GOMAXPROCS. Registered queries are partitioned across the
// shards and every epoch fans its per-query maintenance out to shard
// worker goroutines against a quiescent index, so results are
// identical to the single-threaded engine. Worth it once the per-query
// maintenance (many standing queries) dominates the
// index mutation; a single-shard engine runs inline with no worker
// goroutines. Combining WithShards with a Naïve algorithm is an error.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("ita: shard count must be >= 0, got %d", n)
		}
		c.shards = n
		c.shardsSet = true
		return nil
	}
}

// WithBatchSize enables epoch-batched ingestion: IngestText calls
// buffer their analyzed documents and the engine processes them as one
// epoch — a single net index mutation pass plus one net maintenance
// pass per affected query — once n have accumulated, when Flush is
// called, or before any operation that needs the stream applied
// (Register, Unregister, Advance, Snapshot, Close). Per-query results
// at every epoch boundary are identical to unbatched processing; the
// trade is bounded read staleness (Results, Stats, WindowLen reflect
// flushed epochs only, at most n-1 documents behind) for substantially
// higher sustained throughput, and watchers receive one coalesced delta
// per query per epoch. n = 1 (the default) disables buffering. See the
// "Epochs" section of the package documentation.
func WithBatchSize(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("ita: batch size must be >= 1, got %d", n)
		}
		c.batchSize = n
		return nil
	}
}

// Durability selects the write-ahead log's fsync policy; see WithWAL.
type Durability int

const (
	// DurabilityEpochSync (the default) fsyncs the log at every epoch
	// boundary: once an ingest, flush, register, unregister or advance
	// returns, its epoch survives any crash. Documents of a partial
	// epoch buffered by WithBatchSize may be lost with the OS page
	// cache if the machine (not just the process) fails.
	DurabilityEpochSync Durability = iota
	// DurabilityOff never fsyncs. A process crash still loses nothing
	// that reached the log (the page cache survives the process); an OS
	// or power failure can lose the unflushed tail, recovering an
	// earlier epoch boundary instead.
	DurabilityOff
	// DurabilityAlways fsyncs after every record — one fsync per
	// operation, the strongest and slowest policy.
	DurabilityAlways
)

// String implements fmt.Stringer.
func (d Durability) String() string { return d.wal().String() }

// ParseDurability parses the command-line spelling of a policy:
// "off", "epoch" or "always" (the String values).
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "off":
		return DurabilityOff, nil
	case "epoch":
		return DurabilityEpochSync, nil
	case "always":
		return DurabilityAlways, nil
	default:
		return 0, fmt.Errorf("ita: unknown durability %q (want off|epoch|always)", s)
	}
}

func (d Durability) wal() wal.Durability {
	switch d {
	case DurabilityOff:
		return wal.DurabilityOff
	case DurabilityAlways:
		return wal.DurabilityAlways
	default:
		return wal.DurabilityEpochSync
	}
}

// WithWAL makes the engine durable: every mutating operation is
// appended to a write-ahead log in dir before it is applied, and
// automatic checkpoints (see WithCheckpointEvery) bound the log's
// length. Passing WithWAL to New is equivalent to calling Open(dir,
// ...): if dir already holds durable state the engine is recovered from
// it, otherwise a fresh durable engine is created. See the "Durability"
// section of the package documentation for the recovery-consistency
// model.
func WithWAL(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("ita: WithWAL requires a directory")
		}
		c.walDir = dir
		return nil
	}
}

// WithDurability selects the WAL fsync policy (default
// DurabilityEpochSync). It only makes sense together with WithWAL/Open.
func WithDurability(d Durability) Option {
	return func(c *config) error {
		switch d {
		case DurabilityOff, DurabilityEpochSync, DurabilityAlways:
			c.walDurability = d
			return nil
		default:
			return fmt.Errorf("ita: unknown durability %d", int(d))
		}
	}
}

// WithCheckpointEvery sets the automatic checkpoint cadence of a
// durable engine: after every n completed epoch boundaries the engine
// snapshots itself next to the log, starts a fresh segment and deletes
// the old one, bounding both recovery time and disk usage. n = 0
// disables automatic checkpoints (the log then grows until Checkpoint
// is called). The default is 256.
func WithCheckpointEvery(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("ita: checkpoint interval must be >= 0, got %d", n)
		}
		c.walEvery = n
		c.walEverySet = true
		return nil
	}
}

// WithReplicationRetention caps how many completed (checkpointed)
// segments a replicating primary keeps on disk for lagging followers.
// Within the cap, a checkpoint deletes only segments every registered
// follower has acknowledged past; a follower that falls behind the cap
// loses its resume position and is resynced with a full checkpoint
// fetch plus tail replay instead. n = 0 takes the default (8);
// retention only takes effect once StartReplication is called.
func WithReplicationRetention(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("ita: replication retention must be >= 0, got %d", n)
		}
		c.replRetain = n
		return nil
	}
}

// withReplTuning overrides replication timings and dialing. Unexported:
// it exists for the fault-injection suite, which needs millisecond
// backoffs and fault-wrapped connections.
func withReplTuning(t replTuning) Option {
	return func(c *config) error { c.replTune = &t; return nil }
}

// walAttached marks a config constructed by the Open recovery machinery
// itself; New then builds the in-memory engine without re-entering
// Open.
func walAttached() Option {
	return func(c *config) error { c.walAttach = true; return nil }
}

// WithOkapiScoring replaces cosine similarity with the Okapi BM25
// formulation, calibrated around the given average document length in
// tokens (the paper notes ITA applies unchanged to Okapi weights).
func WithOkapiScoring(avgDocLen float64) Option {
	return func(c *config) error {
		if avgDocLen <= 0 {
			return fmt.Errorf("ita: average document length must be positive, got %g", avgDocLen)
		}
		c.weighter = vsm.NewOkapi(avgDocLen)
		return nil
	}
}

// WithoutStemming disables Porter stemming in the analysis pipeline.
func WithoutStemming() Option {
	return func(c *config) error { c.stemming = false; return nil }
}

// WithoutStopwords disables stopword removal in the analysis pipeline.
func WithoutStopwords() Option {
	return func(c *config) error { c.stopwords = false; return nil }
}

// WithTextRetention keeps each valid document's original text in memory
// so Results can return it; costs one string per window slot.
func WithTextRetention() Option {
	return func(c *config) error { c.retainText = true; return nil }
}

// WithoutRollup disables ITA's threshold roll-up; exposed for the
// ablation experiments, not recommended for production use.
func WithoutRollup() Option {
	return func(c *config) error { c.disableRollup = true; return nil }
}

// withScanAllTrees pins the ITA engines' probe trees to the scan-all
// representation, where a probe visits every query registered on the
// term instead of only the θ-ordered beatable prefix. Unexported: it
// exists for the metamorphic equivalence suite, which proves the
// θ-ordered probe index behavior- and counter-identical against this
// reference.
func withScanAllTrees() Option {
	return func(c *config) error { c.scanTrees = true; return nil }
}

// withFloorMargins overrides the ITA engines' floor maintenance margins
// (see internal/core/floor.go). Unexported: tests use tiny margins so
// floor raises and rebuilds fire densely inside small windows.
func withFloorMargins(target, raise int) Option {
	return func(c *config) error {
		c.floorTarget = target
		c.floorRaise = raise
		return nil
	}
}

func (c *config) build() core.Engine {
	switch c.algorithm {
	case NaiveKmax:
		return core.NewNaive(c.policy)
	case NaivePlain:
		return core.NewNaive(c.policy, core.WithKmax(func(k int) int { return k }))
	case ShardedIncrementalThreshold:
		var opts []shard.Option
		if c.disableRollup {
			opts = append(opts, shard.WithoutRollup())
		}
		if c.scanTrees {
			opts = append(opts, shard.WithScanAllTrees())
		}
		if c.floorTarget != 0 || c.floorRaise != 0 {
			opts = append(opts, shard.WithFloorMargins(c.floorTarget, c.floorRaise))
		}
		return shard.New(c.policy, c.shards, opts...)
	default:
		var opts []core.ITAOption
		if c.disableRollup {
			opts = append(opts, core.WithoutRollup())
		}
		if c.scanTrees {
			opts = append(opts, core.WithScanAllTrees())
		}
		if c.floorTarget != 0 || c.floorRaise != 0 {
			opts = append(opts, core.WithFloorMargins(c.floorTarget, c.floorRaise))
		}
		return core.NewITA(c.policy, opts...)
	}
}
