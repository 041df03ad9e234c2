// Package ita implements continuous text search over high-volume
// document streams, reproducing Mouratidis & Pang, "An Incremental
// Threshold Method for Continuous Text Search Queries" (ICDE 2009).
//
// A monitoring server ingests a stream of documents and hosts standing
// text queries. Each query continuously reports the k documents inside
// a sliding window — count-based ("the 500 most recent documents") or
// time-based ("the last 15 minutes") — that are most similar to its
// search terms under cosine similarity (an Okapi BM25 variant is also
// provided).
//
// The default engine is the paper's Incremental Threshold Algorithm
// (ITA): an impact-ordered inverted index over the window with one
// "local threshold" per (query, term) pair. Arriving and expiring
// documents are filtered through per-term threshold trees so that only
// the small fraction of updates that can possibly change some result is
// ever processed; results are repaired incrementally by rolling
// thresholds up (arrivals) or resuming the top-k search downwards
// (expirations). A Naïve baseline — score every arrival against every
// query, rescan on result underflow, with the top-kmax view maintenance
// of Yi et al. — is included for comparison and used by the benchmark
// harness.
//
// # Quick start
//
//	eng, err := ita.New(ita.WithCountWindow(500))
//	if err != nil { ... }
//	q, err := eng.Register("weapons of mass destruction", 10)
//	if err != nil { ... }
//	for doc := range feed {
//		if _, err := eng.IngestText(doc.Text, doc.Time); err != nil { ... }
//		for _, m := range eng.Results(q) {
//			fmt.Printf("%.3f %s\n", m.Score, m.Text)
//		}
//	}
//
// Engines are safe for concurrent use. Mutating operations serialize on
// an internal mutex, matching the paper's single-CPU cost model; reads
// are served wait-free from published epoch views (see "Published views
// and read consistency" below) and never contend with ingestion.
//
// # Sharded parallel maintenance
//
// The ITA engine partitions its registered queries across S shards —
// WithShards(n) sets S, the default (and n = 0) is runtime.GOMAXPROCS
// and n = 1 is serial — each owning the threshold trees, result lists
// and score floors of its queries, while the inverted index and FIFO
// store are owned by the coordinator. Every epoch is a two-phase step:
// the coordinator first applies the epoch's net index mutations (split
// by term across the idle cores when the epoch is large; see "Epochs"),
// then every shard runs its per-query maintenance against the
// now-quiescent index — inline on the caller when the epoch's work
// (live queries × arrivals and expirations) is small, otherwise on one
// short-lived goroutine per shard, joined before the epoch returns.
// Because ITA couples queries only through the read-only index, results
// and Stats are identical at every shard count — the equivalence suite
// drives sharded engines and the one-shard engine against a brute-force
// oracle under the race detector — so the count is a runtime setting
// that a durable engine may change at every Open. No goroutine outlives
// its epoch, so a small epoch costs nothing extra at any S and an
// engine holds nothing between calls. Prefer IngestBatch for
// high-volume feeds. See README.md for the architecture.
//
// # Epochs
//
// There is one ingest pipeline, and its unit is the epoch: a single net
// index-mutation pass (documents that arrive and expire within the
// epoch never touch the inverted lists), epoch-wide deduplication of
// affected queries, and at most one refill search plus one roll-up per
// query. A lone IngestText call is an epoch of one document, a lone
// IngestBatch call an epoch of its items, and every Advance an epoch of
// expirations alone.
//
// Below its top k, each query keeps a margin of lower-scoring documents
// in R, so that expirations do not force a fresh search each time the
// top k loses a member. A refill, the search run when expirations leave
// R with fewer than k documents, fills R to k+12 and sets the floor at
// the (k+12)-th score; once arrivals grow R past k+20, a roll-up raises
// the floor back to the (k+12)-th score. A registration, a caller's
// wait, searches only to k+4. The margins change how often refills
// run, never a result.
//
// The index-mutation pass of an epoch with at least 2,048 net postings
// is split by term across up to GOMAXPROCS goroutines, the caller
// included, which are started for that epoch and joined before it ends;
// a single document stays inline, and an idle engine runs no goroutines.
// Each inverted list's entries and layout depend only on its own
// mutations in stream order, which the split keeps, so results,
// snapshots and operation counters are byte-identical at any core
// count. Every shard count, snapshot restore and WAL replay of batch
// records take this path.
//
// Concurrent ingest calls commit as a group. Each call queues its
// documents; whichever caller holds the engine lock next takes the
// whole queue and commits it, in queue order, as one epoch: one log
// record, one boundary marker (so one fsync under DurabilityEpochSync)
// and one publication. Every call in the group returns after that
// publication. A lone writer gets epochs of its own calls, N
// concurrent writers (HTTP handlers, say) epochs of up to N calls,
// with no setting to tune and no stale reads. Analysis stays under the
// lock, and new terms are interned in queue order, so document ids and
// the dictionary follow the log; a large epoch spreads the rest of its
// analysis across cores (see Text analysis). A call whose arrival
// times precede the running clock fails alone with ErrTimeRegression;
// a log failure fails the whole group. A single writer that wants
// larger epochs passes more documents to each IngestBatch call.
//
// Per-query results at every epoch boundary do not depend on the epoch
// size (documents tying exactly at a query's k-th score may resolve to
// either tied document — both are correct); the race-enabled
// equivalence suites enforce this for epochs of 1, 4 and 64 documents
// across shard counts S ∈ {1, 2, 8}. Watchers receive one coalesced
// delta per query per epoch. Combine with WithShards to amortize the
// fan-out barrier — one two-phase barrier per epoch — over more
// documents.
//
// # Published views and read consistency
//
// For every algorithm, at any shard count, Results, ResultsAll, Stats,
// WindowLen, Queries, DictionarySize and QueryText never acquire the
// engine lock. At every publication boundary — an ingest epoch,
// Register, Unregister, Advance, and restore —
// the engine publishes an immutable view of each changed query's top-k
// (a frozen copy-on-publish snapshot that carries the query itself, so
// QueryText reads the same snapshot as Results), a
// copy-on-write snapshot of the retained texts, and frozen operation
// counters; the facade swaps one atomic pointer. A read loads that
// pointer and copies off-lock, so serving throughput is independent of
// ingest volume and a stalled reader can never stall the stream.
//
// The consistency model is read-your-write:
//
//   - A read observes the last completed publication boundary (or a
//     newer one). Every ingest call returns after the epoch holding its
//     documents is published, so a read issued after the call returns
//     sees them, whichever caller committed the group.
//   - States internal to an epoch are never visible — the same
//     guarantee watch deltas already carry, so polling Results and
//     subscribing via Watch tell one story.
//   - Every published per-query view is byte-identical to what a read
//     under the engine lock would have returned at that same boundary;
//     the race-enabled metamorphic equivalence suite and the
//     concurrent-reader boundary test enforce exactly this.
//   - ResultsAll enumerates queries weakly consistently: when racing an
//     epoch, two entries may come from adjacent boundaries, but each
//     entry individually is a real boundary state.
//
// # Watching result changes
//
// Watch(id, fn) subscribes a callback to one query's result changes —
// the paper's alerting use case. The delivery guarantee is exact:
// watchers receive at most one delta per query per epoch, the net
// difference between the query's results at consecutive published
// epoch boundaries, delivered in epoch order after the triggering call
// releases the engine lock. Three properties are load-bearing and
// regression-tested:
//
//   - The baseline of a new watcher is the last published boundary —
//     the same state collectDeltas diffs against — never a live
//     mid-epoch result, so the first delta a watcher receives is a
//     boundary-to-boundary difference even when Watch lands mid-epoch
//     (e.g. on a follower whose replicated chunk stops short of the
//     epoch marker).
//   - A watcher callback that panics cannot eat other queries' deltas:
//     the undelivered tail of the batch is re-enqueued, in order,
//     before the panic propagates. The panicking query's own delta is
//     consumed (its callback ran), preserving at-most-once per epoch.
//   - Deltas of one epoch are delivered in ascending query id, and
//     consecutive epochs deliver in epoch order even when different
//     goroutines commit them.
//
// The metamorphic suite reconstructs every watched query's result set
// purely from its delta stream and requires it equal to the published
// boundary result at every comparison point, across the whole engine
// grid (serial, sharded, coalesced ingests, durable, crash/reopen).
//
// # Durability
//
// Open(dir, opts...) (equivalently New with WithWAL(dir)) makes the
// engine durable: every mutating operation — Register, Unregister,
// IngestText, IngestBatch, Advance — is appended to a CRC-framed
// write-ahead log in dir before it is applied (a commit group as one
// record), and every completed epoch boundary appends a marker record. Automatic
// checkpoints (WithCheckpointEvery, default every 256 boundaries) write
// the engine's full snapshot next to the log, rotate to a fresh segment
// and delete the old one, bounding both disk usage and recovery time;
// Checkpoint forces one before a planned shutdown.
//
// Reopening the same directory recovers the engine: the newest
// checkpoint is restored and the log tail replayed through the same
// code paths live calls use. Because snapshots carry the exact
// incremental state (each query's score floor and result list, not
// just the window), recovery is byte-identical, not merely
// result-equivalent: ResultsAll, Stats, the id sequences and every
// future maintenance decision match an engine that never crashed. The crash-point suites enforce this by
// truncating a recorded log after every byte, photographing every
// checkpoint phase, and crashing engines mid-run inside the metamorphic
// generator.
//
// What a crash can cost is set by WithDurability:
//
//   - DurabilityEpochSync (default): the log is fsynced at every epoch
//     boundary, so once a mutating call returns, its epoch survives OS
//     and power failures. One fsync per boundary.
//   - DurabilityAlways: fsync after every record — the strongest and
//     slowest policy.
//   - DurabilityOff: never fsync. A process crash still loses nothing
//     (the OS page cache survives the process); an OS crash recovers
//     some earlier epoch boundary.
//
// Torn-tail semantics: a crash can leave a partially written final
// record. Recovery treats the first invalid frame (short, bad CRC,
// undecodable) as the end of the log, truncates it, and resumes
// appending at the clean boundary — the recovered state is always an
// exact operation prefix of the crashed engine's history, never a
// guess. An interrupted checkpoint is equally harmless: the snapshot
// commits atomically via rename, and recovery prefers the newest
// complete checkpoint while garbage-collecting leftovers. A crash
// between an operation's record and its boundary marker leaves a
// record recovery applies without a marker on disk; recovery writes
// the missing markers before appending resumes (a promoted standby
// does so at Promote), so every later recovery accepts the log.
//
// Recovery reads exactly the format the engine writes, so every
// directory Open accepts recovers byte-identically. Older inputs are
// refused with an error that names them, and the directory is left as
// it was: snapshots of another version, snapshots that recorded the
// retired ita-sharded algorithm, checkpoints that recorded a batch size
// above 1 (their logs may hold records buffered into one epoch), and
// per-document or flush records. Nothing migrates an old directory; see
// "On-disk formats" in README.md.
//
// # Replication and failover
//
// A durable primary can ship its WAL to warm standbys.
// StartReplication(addr) serves the log over TCP; OpenFollower(dir,
// primaryAddr, opts...) opens a read-only engine that bootstraps from
// the primary's newest checkpoint, then applies the byte-identical
// stream as it is written, publishing views at the same epoch
// boundaries the primary published. Reads — Results, ResultsAll,
// Stats, Watch — all work on the standby; mutating calls return
// ErrReadOnly. Promote flips a standby into a writable primary after
// stopping its replication client; the promoted engine may itself call
// StartReplication to serve the next generation of followers.
// ReplicationStats exposes roles, per-follower ack positions and lag.
//
// The replication consistency model extends read-your-epoch across
// machines:
//
//   - A standby's state is always an exact epoch-boundary prefix of the
//     primary's history — the same guarantee crash recovery gives,
//     because the follower applies the primary's own log bytes through
//     the recovery code paths. States internal to an epoch are never
//     visible on a standby, and its WAL is a byte-identical mirror of
//     the primary's.
//   - Replication is asynchronous: a read on a standby may trail the
//     primary by the replication lag (ReplicationStats reports it; the
//     itaserver /readyz endpoint gates on it), but it never observes a
//     state the primary did not publish.
//   - An epoch the follower has acknowledged survives failover: Promote
//     includes every acked epoch, so promoting after the primary dies
//     loses at most the unacknowledged suffix — never acknowledged
//     history, and never a torn intermediate state.
//   - A follower that falls behind the primary's WAL retention window
//     (WithReplicationRetention) resyncs from a shipped checkpoint; the
//     result is the same byte-identical prefix guarantee, entered at a
//     newer boundary.
//
// The metamorphic replication suite drives a primary, a live standby
// and a never-faulted reference through the full operation generator
// while a deterministic fault schedule (internal/faults) drops, delays,
// truncates and partitions the replication link, killing and rejoining
// either side, and requires all three byte-identical at every
// acknowledged boundary — including promotion under a network
// partition.
//
// # Cluster mode
//
// ITA's per-query threshold maintenance never couples two queries, so
// the standing query set partitions exactly: internal/cluster runs N
// nodes that each ingest the full document stream but own only the
// placement-hash slice of the queries (the same hash the ITA engine
// places its in-process shards by), behind a router that fans writes to every node
// and merges reads. Results are byte-identical to one process, not
// approximately so, because the router keeps every node's term
// dictionary id-identical: a registration is applied on its owner with
// an explicit id (RegisterWithID) and interned everywhere else without
// maintenance state (AlignRegister, WAL-logged so a node's own warm
// standby inherits the alignment), which pins the term-id order that
// float score accumulation depends on. The router stamps one arrival
// time per document so time windows expire identically, routes
// Results to the placement owner, concatenates and re-sorts
// ResultsAll, and cross-checks merged Stats — stream counters must be
// equal on every node, per-query counters sum. Each node can run its
// own replication standby; a promoted standby swaps into the router
// slot-for-slot, invisible to placement. The cluster metamorphic
// suite drives 2- and 3-node clusters (each node with a live standby
// under fault injection) against the single-process oracle and
// requires byte-identity at every quiesced boundary, through node
// kill/rejoin and promote-under-partition (TestMetamorphicCluster,
// replayable via ITA_CLUSTER_SEED).
//
// # Scaling to millions of queries
//
// Internally the engine never keys per-query state by the public
// QueryID. Each registration is assigned a dense internal id — an index
// into stable-addressed slab arenas holding the query's thresholds and
// result list — recycled through a free list when the query
// unregisters. External ids appear exactly at the API boundary: one
// concurrent ext→dense lookup (shared between the write path and the
// wait-free readers) translates on the way in, and a published result
// snapshot carries its query (id, k, terms and text), so a reader
// racing a slot reuse checks the query id and can never observe another
// query's view. Everything below that boundary — threshold-tree
// entries, affected-query deduplication, epoch work queues,
// publication slots — is dense-id array indexing with no per-event map
// traffic, and the facade keeps no per-query table of its own.
//
// The per-term threshold trees are θ-ordered: each (query, term) entry
// carries the score threshold θ the term's contribution must beat,
// entries are kept in ascending-θ order, and every tree maintains its
// minimum θ. An arriving or expiring document's probe therefore costs
// what it can affect, not what is registered: a whole term is skipped
// in O(1) when its min-θ exceeds the term's contribution, an ordered
// probe walks only the beatable prefix and exits at the first
// unbeatable threshold, and in the epoch-batched path a term whose
// min-θ exceeds the epoch's maximum contribution is skipped once for
// the entire epoch. Zero-floor queries (every bound trivially
// beatable) are scored during the probe itself: their shared-term
// contributions accumulate in ascending term order — bit-identical to
// a full evaluation — so the dominant case never reads the document's
// weights from the term table at all.
//
// Each tree is one sorted slice (16 bytes per entry, binary-search
// updates, a contiguous prefix probe), and a shard keeps its trees by
// value in one slice, found through the shard's vocabulary-sized term
// table (whose entry also holds the term's weight in the document being
// scored), so a probe does no hash lookup. Each query's result list R
// is one slice in result order (16 bytes per document), held in the
// query's arena slot, that releases its backing array once a
// tie-swollen R drains away. Query
// populations per term are Zipfian, but the head stays small: with
// query terms drawn from the corpus Zipf (bench workload hot-terms)
// only 14 of 3 365 trees exceed 128 entries and the largest holds
// 2 326, and with 40 000 ten-term queries over a uniform dictionary
// (many-queries) none of 161 719 trees exceeds 11. The metamorphic
// equivalence suite runs the engine grid against a twin whose trees
// scan every entry in query order with no early exit, and requires
// byte-identical results and operation counters at every boundary.
//
// Two short-mode tests in internal/harness keep the result measured:
// TestScaleSmoke100k bounds the live heap per registered query at
// 100k standing queries, and TestScaleIngestCliffGuard requires ingest
// events/s at 100k queries to stay within 0.35× of the rate at 10k —
// the flatness number that catches a probe-cost regression as a cliff.
//
// # Posting storage
//
// The window side has one layout: each per-term list is a sorted run
// of raw ⟨weight, doc⟩ entries sized to fit, and a list of 256 entries
// or more adds a small sorted pending run that takes its inserts and
// merges into the main run in one sequential pass when an epoch's
// inserts no longer fit (between 64 and 512 entries, an eighth of the
// list). Almost every dictionary term is rare, so the layout spends its
// effort on per-list overhead — a short list is a single run that grows
// by an eighth so a singleton costs one 16-byte allocation, an emptied
// list parks a small run for the term's next arrival, and the term
// table is a flat slice over the dictionary's dense ids. An
// earlier block-compressed layout and the option selecting it are
// gone: it reached 9.5 bytes/posting at a 100k-document window, about
// half of what raw entries need, but cost a decode and a repack per
// touched list. Against it, bench/run.sh -compare records 3.07x the
// ingest rate on the wide-window workload (924 → 2,833 docs/s) at
// 0.82x the live heap, and 1.17–1.45x on the other three at no more
// heap. Snapshots that recorded either layout still restore.
//
// # Text analysis
//
// Documents and queries are analysed alike. A token is a maximal run of
// letters and digits with at least two runes and a letter, lowercased;
// stopwords are dropped and the rest are Porter-stemmed (see
// WithoutStopwords and WithoutStemming), and each new term takes the
// next dense term id, in first-seen order. Term ids order the score
// summation, so recovery, standbys and cluster nodes depend on
// re-analysed text landing on the same ids. The analysis pass allocates
// nothing for text it has seen before, apart from the document's
// postings. A term whose lowercased surface is neither a stopword nor
// changed by the stemmer is marked in a bitset over term ids, and a
// later ASCII token spelling it is counted without re-checking either.
// The dictionary is append-only, so a marked term stays a fixed point,
// and the shortcut cannot change which id a token gets. It is one
// pointer-free open-addressing table whose 16-byte slots hold a term's
// first eight bytes inline, so a lookup of a short term reads one cache
// line, with every term's bytes in an arena that never moves.
//
// An epoch with enough text is analysed in two phases, in rounds of 64
// documents. In the first, up to GOMAXPROCS goroutines take the
// round's documents one at a time and analyse them against the
// dictionary as it stood when the round began, reading it and the
// bitset and writing neither: a document with no new term and no
// missing mark is counted and weighed there. The second phase runs on
// the caller, in record order: for each other document it interns the
// terms the dictionary lacked, which the first phase analysed once per
// surface, and sets the marks the first phase found missing, token by
// token, exactly as the serial pass would. Marks are
// set only there, so the shortcut's soundness argument is unchanged;
// and every new id lies above every id known when the round began, so
// a document's known terms, sorted, followed by its new ones, sorted,
// are the order the serial pass produces. Term ids, postings, log
// records and snapshots are therefore byte-identical at any core
// count, and WAL replay and a standby's apply, which take the same
// path, land on the same ids. The goroutines are joined before the
// epoch's analysis ends, and an epoch of one document never starts
// one.
//
// # Benchmark
//
// bench/ is the repository's benchmark, a module of its own: four
// workloads driven through this package and through a real itaserver,
// with six bounded end-to-end metrics and a traced pass that attributes
// an epoch's time to the layers. Run it with bash bench/run.sh, and
// compare two results files with bash bench/run.sh -compare before.json
// after.json. See README.md for the architecture and measured figures.
package ita
