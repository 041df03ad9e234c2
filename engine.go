package ita

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ita/internal/core"
	"ita/internal/model"
	"ita/internal/repl"
	"ita/internal/textproc"
	"ita/internal/topk"
	"ita/internal/vsm"
	"ita/internal/wal"
	"ita/internal/window"
)

// Identifier and result types of the public API.
type (
	// DocID identifies an ingested document.
	DocID = model.DocID
	// QueryID identifies a registered continuous query.
	QueryID = model.QueryID
	// Stats exposes the engine's cumulative operation counters.
	Stats = core.Stats
	// Memory exposes the engine's per-component memory estimate.
	Memory = core.Memory
	// Match is one result entry of a continuous query. Text is the
	// document's original text when the engine was built with
	// WithTextRetention, empty otherwise.
	Match = model.Match
	// QueryResult pairs a query with its current top-k.
	QueryResult = model.QueryResult
	// TimedText is one element of an IngestBatch call.
	TimedText = model.TimedText
)

// Errors returned by the public API.
var (
	// ErrNoQueryTerms means a query text contained no indexable terms
	// (for example, only stopwords).
	ErrNoQueryTerms = errors.New("ita: query has no indexable terms")
	// ErrTimeRegression means a document was ingested with an arrival
	// time before an earlier document's; sliding windows require
	// non-decreasing arrival times.
	ErrTimeRegression = errors.New("ita: arrival time precedes an earlier document")
)

// Engine is a continuous text search server: it analyzes and indexes a
// document stream and maintains the top-k result of every registered
// query at all times. All methods are safe for concurrent use.
type Engine struct {
	mu        sync.Mutex
	cfg       config
	inner     core.ServingEngine
	pipeline  *textproc.Pipeline
	batch     docBatch // set and cleared by ingestBatchLocked around its analysis
	nextDoc   model.DocID
	nextQuery model.QueryID
	lastAt    time.Time
	texts     *textRing
	watches   map[QueryID]*watchState

	// wal is the durability attachment (nil for in-memory engines):
	// mutating operations append records before applying, epoch
	// boundaries append markers and fsync per the policy, and
	// checkpoints rotate the log. See durable.go.
	wal *walState

	// repl is the replication attachment (nil until StartReplication or
	// OpenFollower); readOnly marks a follower, whose mutating
	// operations return ErrReadOnly until Promote. closed makes every
	// later operation fail with ErrClosed instead of reaching a closed
	// log or replication link. See replication.go.
	repl     *replState
	readOnly bool
	closed   bool

	// pub is the wait-free read path: an immutable publishedState swapped
	// at every publication boundary (an ingest epoch, Register, Unregister,
	// Advance, Restore). Results, ResultsAll, Stats, WindowLen, Queries
	// and DictionarySize read it without ever acquiring mu. New stores
	// the first one before the engine escapes, so it is never nil.
	pub atomic.Pointer[publishedState]

	// Group commit: IngestBatch enqueues its request under qmu, then
	// takes mu; whichever writer gets mu first drains the queue and
	// commits every request in it as one epoch. See commitQueueLocked.
	qmu   sync.Mutex
	queue []*ingestReq

	// Watch-delta delivery queue: deltas are enqueued in epoch order
	// under mu and drained by one goroutine at a time outside it, so
	// concurrent writers cannot deliver epochs out of order. See
	// queueDeltasLocked / deliverQueued in watch.go.
	dmu        sync.Mutex
	deliveryQ  []pendingDelta
	delivering bool
}

// New builds an engine. A window option (WithCountWindow or
// WithTimeWindow) is required; everything else defaults to the paper's
// configuration: ITA algorithm, cosine scoring, stemming and stopword
// removal enabled.
func New(opts ...Option) (*Engine, error) {
	cfg := config{
		algorithm: IncrementalThreshold,
		stemming:  true,
		stopwords: true,
	}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.walDir != "" && !cfg.walAttach {
		// A durable engine: creation and recovery share one entry point.
		return openDurable(cfg.walDir, opts, "")
	}
	if cfg.policy == nil {
		return nil, errors.New("ita: a window option is required (WithCountWindow or WithTimeWindow)")
	}
	if cfg.weighter == nil {
		cfg.weighter = defaultWeighter()
	}
	inner, err := cfg.build()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		inner:     inner,
		pipeline:  textproc.NewPipeline(textproc.NewDictionary(), cfg.stemming, cfg.stopwords),
		nextDoc:   1,
		nextQuery: 1,
	}
	if cfg.retainText {
		e.texts = newTextRing(cfg.policy)
	}
	e.publishLocked() // no readers yet, so mu is not needed here
	return e, nil
}

// publishedState is one publication boundary's complete read surface:
// the inner engine's wait-free view reader, the retained-text snapshot
// the views' documents resolve against, and frozen scalar state. It is
// immutable once stored; readers load the pointer once and work off a
// consistent boundary.
type publishedState struct {
	seq     uint64          // publication sequence, strictly increasing
	reader  core.ViewReader // per-query published views (see internal/core/view.go)
	texts   *textView       // nil without WithTextRetention
	stats   Stats
	window  int
	queries int
	dict    int
}

// publishLocked makes the current state visible to wait-free
// readers: the inner engine swaps every changed query's frozen view,
// then the facade swaps its single published-state pointer. Must be
// called with e.mu held (except during construction/restore, before the
// engine escapes), after mutations and only at a boundary — never with
// a partial epoch applied.
func (e *Engine) publishLocked() {
	reader := e.inner.PublishViews()
	var tv *textView
	if e.texts != nil {
		tv = e.texts.snapshot()
	}
	var seq uint64
	if prev := e.pub.Load(); prev != nil {
		seq = prev.seq
	}
	e.pub.Store(&publishedState{
		seq:     seq + 1,
		reader:  reader,
		texts:   tv,
		stats:   *e.inner.Stats(),
		window:  e.inner.WindowLen(),
		queries: e.inner.Queries(),
		dict:    e.pipeline.Dictionary().Size(),
	})
}

// IngestText analyzes text and processes it as a document arrival at
// the given time, returning the assigned document id. Arrival times
// must be non-decreasing across calls. A document whose analysis yields
// no terms (for example, all stopwords) is still ingested: it occupies
// a window slot, matches nothing, and expires normally — exactly how
// the paper's window semantics treat it. When the call returns, the
// document is in Results, Stats and WindowLen; concurrent calls share
// an epoch (see IngestBatch).
func (e *Engine) IngestText(text string, at time.Time) (DocID, error) {
	ids, err := e.IngestBatch([]TimedText{{Text: text, At: at}})
	if len(ids) == 0 {
		return 0, err
	}
	return ids[0], err
}

// IngestBatch analyzes and processes a batch of document arrivals,
// returning the assigned ids in order. Arrival times must be
// non-decreasing within the batch and not precede earlier ingests. The
// call's documents form one epoch — one net index mutation pass and one
// net maintenance pass per affected query — so the per-document work
// (index point mutations, shard fan-out barriers, redundant refills,
// the log boundary and its fsync) is amortized across the batch;
// IngestText is the batch of one.
//
// Concurrent calls commit as a group: each call queues its batch, and
// whichever caller holds the engine lock next processes every queued
// batch, in queue order, as one epoch with one log record and one
// boundary. Each call returns after that epoch is published, so every
// call reads its own write. A batch whose arrival times precede the
// running clock fails alone with ErrTimeRegression; a log failure fails
// the whole group. Per-query results after an epoch are identical to
// ingesting the same documents in smaller epochs (when documents tie
// exactly at a query's k-th score, either epoch cut may report either
// tied document; both are correct top-k answers). Watch callbacks
// observe one cumulative delta per query per epoch.
func (e *Engine) IngestBatch(items []TimedText) ([]DocID, error) {
	if len(items) == 0 {
		return nil, nil
	}
	req := &ingestReq{items: items}
	e.qmu.Lock()
	e.queue = append(e.queue, req)
	e.qmu.Unlock()
	e.mu.Lock()
	if !req.done {
		e.commitQueueLocked()
	}
	e.mu.Unlock()
	e.deliverQueued()
	return req.ids, req.err
}

// ingestReq is one queued IngestBatch call. The committing writer fills
// ids and err and sets done, all under e.mu.
type ingestReq struct {
	items []TimedText
	ids   []DocID
	err   error
	done  bool
}

// commitQueueLocked drains the ingest queue and commits it as one
// epoch. Requests are validated against the running clock in queue
// order before anything is analyzed or logged, so one that regresses is
// answered with its own error and its neighbours still commit. Must be
// called with e.mu held.
func (e *Engine) commitQueueLocked() {
	e.qmu.Lock()
	group := e.queue
	e.queue = nil
	e.qmu.Unlock()
	gate := e.gateWriteLocked()
	var live []*ingestReq
	last := e.lastAt
	for _, r := range group {
		r.done = true
		if r.err = gate; r.err != nil {
			continue
		}
		var at time.Time
		if at, r.err = checkArrivals(r.items, last); r.err == nil {
			last = at
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	var items []TimedText
	for _, r := range live {
		items = append(items, r.items...)
	}
	ids, deltas, err := e.ingestBatchLocked(items)
	e.queueDeltasLocked(deltas)
	for _, r := range live {
		r.err = err
		if len(ids) > 0 {
			n := len(r.items)
			r.ids, ids = ids[:n:n], ids[n:]
		}
	}
	if err == nil {
		e.maybeCheckpointLocked()
	}
}

// checkArrivals reports ErrTimeRegression unless items' arrival times
// are non-decreasing and none precedes last; it returns the batch's
// last arrival time.
func checkArrivals(items []TimedText, last time.Time) (time.Time, error) {
	for i, it := range items {
		if it.At.Before(last) {
			return time.Time{}, fmt.Errorf("%w: item %d: %s < %s", ErrTimeRegression, i, it.At, last)
		}
		last = it.At
	}
	return last, nil
}

// ingestBatchLocked processes items as one epoch: analysis in item
// order (so document ids and the dictionary's intern order follow the
// record, which replay re-analyzes in the same order), one KindBatch
// record, the epoch itself, one boundary and one publication. WAL
// replay and the replication follower call it directly, one record at a
// time. Must be called with e.mu held.
func (e *Engine) ingestBatchLocked(items []TimedText) ([]DocID, []pendingDelta, error) {
	last, err := checkArrivals(items, e.lastAt)
	if err != nil {
		return nil, nil, err
	}
	// Analyze everything up front so a bad item fails the batch before
	// anything is logged.
	e.batch = docBatch{items: items, first: e.nextDoc, weighter: e.cfg.weighter, docs: make([]*model.Document, len(items))}
	err = e.pipeline.CountBatch(&e.batch)
	docs := e.batch.docs
	e.batch = docBatch{}
	if err != nil {
		return nil, nil, err
	}
	ids := make([]DocID, len(items))
	for i, doc := range docs {
		ids[i] = doc.ID
	}
	if e.wal != nil && !e.wal.recovering {
		rec := wal.Record{Kind: wal.KindBatch, Doc: uint64(e.nextDoc), Items: make([]wal.DocEntry, len(items))}
		for i, it := range items {
			rec.Items[i] = wal.DocEntry{At: it.At.UnixNano(), Text: it.Text}
		}
		if err := e.walAppendLocked(&rec); err != nil {
			return nil, nil, err
		}
	}
	e.nextDoc += model.DocID(len(items))
	e.lastAt = last
	if err := e.inner.ProcessEpoch(docs); err != nil {
		return ids, nil, err
	}
	if e.texts != nil {
		for i, doc := range docs {
			e.texts.add(doc.ID, doc.Arrival, items[i].Text)
		}
	}
	// Every applied epoch is a durable boundary.
	if err := e.walBoundaryLocked(); err != nil {
		return ids, nil, err
	}
	return ids, e.collectDeltas(), nil
}

// docBatch is what ingestBatchLocked hands the pipeline: the items to
// analyze and the documents their counts become. It lives in the Engine
// so that handing it over allocates nothing.
type docBatch struct {
	items    []TimedText
	first    model.DocID
	weighter vsm.Weighter
	docs     []*model.Document
}

func (b *docBatch) Len() int          { return len(b.items) }
func (b *docBatch) Text(i int) string { return b.items[i].Text }

// Emit builds document i. A large batch calls it from several
// goroutines at once; the weighters are pure.
func (b *docBatch) Emit(i int, counts []model.TermCount) error {
	doc, err := model.NewDocument(b.first+model.DocID(i), b.items[i].At, b.weighter.Weigh(counts))
	if err != nil {
		return fmt.Errorf("ita: analyze document %d: %w", i, err)
	}
	b.docs[i] = doc
	return nil
}

// gateWriteLocked rejects mutating operations on an engine that can no
// longer honor them: ErrClosed after Close, ErrReadOnly on a
// replication follower (until Promote). Must be called with e.mu held,
// before any state is touched; the follower's own apply path bypasses
// it by construction (it calls the xxxLocked internals directly).
func (e *Engine) gateWriteLocked() error {
	if e.closed {
		return ErrClosed
	}
	if e.readOnly {
		return ErrReadOnly
	}
	return nil
}

// mutate runs one public mutating operation other than an ingest: under
// e.mu it gates the engine, runs op and, when op succeeds, a due
// auto-checkpoint; then it delivers the watch deltas op queued.
func (e *Engine) mutate(op func() error) error {
	defer e.deliverQueued()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.gateWriteLocked(); err != nil {
		return err
	}
	err := op()
	if err == nil {
		e.maybeCheckpointLocked()
	}
	return err
}

// Close releases engine resources: the write-ahead log of a durable
// engine, and the server or client of a replicating one. An engine with
// neither holds no goroutine between calls (sharded maintenance joins
// before each epoch returns), so dropping it without Close leaks
// nothing. Close is idempotent, and every operation after it returns
// ErrClosed: a Results/IngestText racing Close observes either the live
// engine or the error, never a half-closed one.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	var cli *repl.Client
	var srv *repl.Server
	if e.repl != nil {
		cli, srv = e.repl.client, e.repl.server
	}
	e.mu.Unlock()
	// Quiesce replication outside the lock: the follower client's apply
	// calls take e.mu, and the server only reads files. After these
	// return, no replication goroutine touches the engine again.
	if cli != nil {
		cli.Stop()
	}
	if srv != nil {
		srv.Close()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil || e.wal.log == nil {
		return nil
	}
	// Every epoch is already on disk; sync once more so even
	// DurabilityOff engines leave a fully flushed log behind on a clean
	// shutdown.
	err := e.wal.log.Sync()
	if cerr := e.wal.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Advance moves the stream clock forward without an arrival, expiring
// documents from time-based windows. Count-based windows are unaffected.
func (e *Engine) Advance(now time.Time) error {
	return e.mutate(func() error {
		deltas, err := e.advanceLocked(now)
		e.queueDeltasLocked(deltas)
		return err
	})
}

func (e *Engine) advanceLocked(now time.Time) ([]pendingDelta, error) {
	if now.Before(e.lastAt) {
		return nil, fmt.Errorf("%w: %s < %s", ErrTimeRegression, now, e.lastAt)
	}
	if err := e.walAppendLocked(&wal.Record{Kind: wal.KindAdvance, At: now.UnixNano()}); err != nil {
		return nil, err
	}
	e.lastAt = now
	e.inner.ExpireUntil(now)
	deltas := e.collectDeltas()
	if e.texts != nil {
		e.texts.expire(now)
	}
	return deltas, e.walBoundaryLocked()
}

// Register installs a continuous query: the k most similar documents to
// queryText are maintained from now on. Term frequency in the query
// text weights the terms, as in the paper's {white white tower} example.
// The initial top-k search sees every document ingested before the call.
func (e *Engine) Register(queryText string, k int) (id QueryID, err error) {
	err = e.mutate(func() (err error) {
		id, err = e.registerAtLocked(e.nextQuery, queryText, k)
		return err
	})
	return id, err
}

// registerAtLocked registers a query under an explicit id. Ordinary
// registrations pass e.nextQuery; the cluster path (RegisterWithID) and
// WAL replay pass ids that may skip ahead of it — a node that owns only
// its hash slice of the global id space consumes the skipped ids via
// AlignRegister. An id behind e.nextQuery is always an error: those ids
// are spent, and during replay a regressing id means a corrupt log.
func (e *Engine) registerAtLocked(id QueryID, queryText string, k int) (QueryID, error) {
	if id < e.nextQuery {
		return 0, fmt.Errorf("ita: register id %d already consumed (next is %d)", id, e.nextQuery)
	}
	counts := e.pipeline.Counts(queryText)
	if len(counts) == 0 {
		return 0, ErrNoQueryTerms
	}
	q, err := model.NewQuery(id, k, e.cfg.weighter.WeighQuery(counts))
	if err != nil {
		return 0, fmt.Errorf("ita: analyze query: %w", err)
	}
	q.Text = queryText
	// Log before apply; the record carries the id the apply will assign
	// so recovery can verify replay determinism.
	if err := e.walAppendLocked(&wal.Record{
		Kind: wal.KindRegister, Query: uint64(id), K: k, Text: queryText,
	}); err != nil {
		return 0, err
	}
	if err := e.inner.Register(q); err != nil {
		return 0, err
	}
	e.nextQuery = id + 1
	// Make the new query's initial result visible to wait-free readers.
	e.publishLocked()
	return id, e.walBoundaryLocked()
}

// RegisterWithID registers a continuous query under a caller-chosen id,
// which must not be behind the engine's next id (ids at or ahead of it
// are fine; the gap is consumed). It is the cluster building block: a
// node that owns only its placement-hash slice of the global query
// space registers exactly the ids the router assigns it, while
// AlignRegister consumes the others — keeping every node's id sequence,
// dictionary and epoch boundaries byte-identical to a single process
// running the full query set. Single-process callers should use
// Register, which assigns ids densely.
func (e *Engine) RegisterWithID(id QueryID, queryText string, k int) error {
	return e.mutate(func() error {
		_, err := e.registerAtLocked(id, queryText, k)
		return err
	})
}

// AlignRegister is the non-owning side of a cluster registration: the
// node does not install query id (another node owns it), but replays
// everything else a registration does to the shared stream state — the
// query text is analyzed so dictionary interning order stays identical
// across nodes (term ids order the score summation, so a diverged
// dictionary diverges result bytes), and the id is consumed. The
// operation is WAL-logged and replays through recovery and replication
// like any other.
func (e *Engine) AlignRegister(id QueryID, queryText string) error {
	return e.mutate(func() error { return e.alignRegisterLocked(id, queryText) })
}

func (e *Engine) alignRegisterLocked(id QueryID, queryText string) error {
	if id < e.nextQuery {
		return fmt.Errorf("ita: align register id %d already consumed (next is %d)", id, e.nextQuery)
	}
	// Intern exactly where registerAtLocked interns, so the query text's
	// terms land in the same dictionary order on every node.
	if len(e.pipeline.Counts(queryText)) == 0 {
		return ErrNoQueryTerms
	}
	if err := e.walAppendLocked(&wal.Record{
		Kind: wal.KindAlign, Query: uint64(id), Text: queryText,
	}); err != nil {
		return err
	}
	e.nextQuery = id + 1
	e.publishLocked()
	return e.walBoundaryLocked()
}

// NextQueryID returns the id the next Register call would assign. A
// cluster router reads it at startup to resume the global id sequence
// from recovered nodes.
func (e *Engine) NextQueryID() QueryID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nextQuery
}

// Unregister removes a query and any watcher on it, reporting whether
// the query existed.
func (e *Engine) Unregister(id QueryID) (ok bool) {
	// The bool signature cannot carry ErrReadOnly/ErrClosed; a gated
	// engine simply reports the query as not removed.
	e.mutate(func() error {
		ok = e.unregisterLocked(id)
		return nil
	})
	return ok
}

func (e *Engine) unregisterLocked(id QueryID) bool {
	// An unknown id is decided before anything is logged, so replay makes
	// the same decision from the same state and no-op unregisters never
	// reach the log. Under e.mu the published boundary is the current
	// state: every mutation publishes before it releases the lock.
	if _, known := e.pub.Load().reader.Result(id); !known {
		return false
	}
	// A WAL append error on a live query is the one case the API cannot
	// express: applying anyway would let recovery lose the unregister
	// while later acknowledged operations survive (acked-state
	// divergence), so the unregister is refused — and since false would
	// otherwise be indistinguishable from "no such query" while the
	// query keeps serving, the log is poisoned so every subsequent
	// mutating operation surfaces the underlying fault loudly.
	if err := e.walAppendLocked(&wal.Record{Kind: wal.KindUnregister, Query: uint64(id)}); err != nil {
		e.wal.log.Poison(err)
		return false
	}
	e.dropWatchLocked(id)
	ok := e.inner.Unregister(id)
	// Make the removal visible to wait-free readers: until this publish,
	// readers still see the query at its last pre-unregister boundary.
	e.publishLocked()
	// The bool signature cannot carry an error; a failed marker poisons
	// the log, so the next mutating operation reports it.
	_ = e.walBoundaryLocked()
	return ok
}

// Results returns the query's current top-k in descending score order.
// It returns nil for an unknown query; a registered query with no
// matching documents returns an empty non-nil slice. It reflects every
// ingest call that has returned.
//
// The read is wait-free for every algorithm: it loads the published
// epoch-boundary view and copies it without acquiring the engine lock,
// so result serving never contends with the ingest pipeline. The
// returned slice is the caller's to keep. See "Published views" in the
// package documentation for the consistency model.
func (e *Engine) Results(id QueryID) []Match {
	ps := e.pub.Load()
	f, ok := ps.reader.Result(id)
	if !ok {
		return nil
	}
	return e.matches(ps, f)
}

// ResultsAll returns the current top-k of every registered query, in
// ascending query id. Like Results it is wait-free; the enumeration is
// weakly consistent across queries — each query's entry is a real
// epoch-boundary result at least as fresh as the last boundary
// completed before the call, but two entries may come from adjacent
// boundaries when the call races an epoch.
func (e *Engine) ResultsAll() []QueryResult {
	var out []QueryResult
	ps := e.pub.Load()
	ps.reader.Each(func(id model.QueryID, f *topk.Frozen) {
		out = append(out, QueryResult{Query: id, Matches: e.matches(ps, f)})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}

// matches copies a frozen view into a caller-owned Match slice,
// resolving retained texts. Runs entirely off-lock.
//
// The per-query slots are live handles, so a read racing a publish can
// obtain a view one boundary newer than ps.texts; a document that
// arrived in that newer epoch then misses ps's snapshot. The fallback
// reloads the freshest published texts, which contain it as soon as the
// racing publish completes its state swap — only a read landing in the
// few instructions between a slot swap and the state swap can still
// transiently resolve that document's text to "". Scores and membership
// are never affected.
func (e *Engine) matches(ps *publishedState, f *topk.Frozen) []Match {
	out := make([]Match, len(f.Docs))
	var fresh *publishedState
	for i, d := range f.Docs {
		out[i] = Match{Doc: d.Doc, Score: d.Score}
		if ps.texts == nil {
			continue
		}
		text := ps.texts.get(d.Doc)
		if text == "" {
			if fresh == nil {
				fresh = e.pub.Load()
			}
			if fresh != ps && fresh.texts != nil {
				text = fresh.texts.get(d.Doc)
			}
		}
		out[i].Text = text
	}
	return out
}

// QueryText returns the original text a query was registered with.
// Like Results it is wait-free: the text rides the query's published
// snapshot.
func (e *Engine) QueryText(id QueryID) (string, bool) {
	f, ok := e.pub.Load().reader.Result(id)
	if !ok {
		return "", false
	}
	return f.Query.Text, true
}

// WindowLen returns the number of currently valid documents.
func (e *Engine) WindowLen() int { return e.pub.Load().window }

// Queries returns the number of registered queries.
func (e *Engine) Queries() int { return e.pub.Load().queries }

// Stats returns a snapshot of the engine's operation counters, as of
// the last publication boundary.
func (e *Engine) Stats() Stats { return e.pub.Load().stats }

// Algorithm returns the engine's maintenance algorithm.
func (e *Engine) Algorithm() Algorithm { return e.cfg.algorithm }

// MemoryUsage returns a per-component estimate of the inner engine's
// heap footprint (inverted index, threshold trees, query state,
// published views, and the shards' term tables in TermTableBytes), and
// the term dictionary's in DictionaryBytes.
// Unlike Stats it is computed on demand by walking structure sizes, so
// it takes the engine lock; it is a diagnostics gauge (the itaserver
// /stats endpoint), not a hot-path read. The Naïve baselines have no
// per-component accounting and report zero for the engine's components.
func (e *Engine) MemoryUsage() Memory {
	e.mu.Lock()
	defer e.mu.Unlock()
	mem := e.inner.MemoryUsage()
	mem.DictionaryBytes = e.pipeline.Dictionary().MemoryBytes()
	return mem
}

// DictionarySize returns the number of distinct terms interned as of
// the last publication boundary.
func (e *Engine) DictionarySize() int { return e.pub.Load().dict }

// textRing mirrors the window policy for retained document texts, with
// a copy-on-write twist so published views can read it wait-free: the
// live region order[head:] is snapshot by reslicing (entries are never
// mutated in place, and expiry only advances head), and compaction
// copies into a fresh backing array instead of shifting in place, so a
// snapshot taken at any earlier boundary stays valid. Dead entries
// therefore pin their texts until the next compaction — bounded at
// about one window's worth — which is the price of lock-free readers.
type textRing struct {
	policy window.Policy
	order  []retained
	head   int
}

type retained struct {
	id   model.DocID
	at   time.Time
	text string
}

// textView is an immutable snapshot of the retained texts at one
// publication boundary. Entries are in ascending document id (the
// facade assigns ids monotonically and retains in arrival order).
type textView struct {
	items []retained
}

// get resolves a document's retained text; documents outside the
// snapshot (expired, or never retained) resolve to "".
func (v *textView) get(id model.DocID) string {
	i := sort.Search(len(v.items), func(i int) bool { return v.items[i].id >= id })
	if i < len(v.items) && v.items[i].id == id {
		return v.items[i].text
	}
	return ""
}

func newTextRing(p window.Policy) *textRing {
	return &textRing{policy: p}
}

// snapshot publishes the live region. The returned view aliases the
// ring's backing array, which is safe: appends write beyond every
// snapshot's length, expiry only moves head, and compaction reallocates.
func (r *textRing) snapshot() *textView {
	return &textView{items: r.order[r.head:]}
}

func (r *textRing) add(id model.DocID, at time.Time, text string) {
	r.order = append(r.order, retained{id: id, at: at, text: text})
	r.expire(at)
}

func (r *textRing) expire(now time.Time) {
	for r.head < len(r.order) && r.policy.Expired(r.order[r.head].at, now, len(r.order)-r.head) {
		// The entry must stay intact (snapshots may still alias it);
		// only the head index moves.
		r.head++
	}
	if r.head > 64 && r.head*2 > len(r.order) {
		live := make([]retained, len(r.order)-r.head)
		copy(live, r.order[r.head:])
		r.order, r.head = live, 0
	}
}

// get is the writer-side lookup, for code already holding the engine
// lock (snapshots, watch diffs).
func (r *textRing) get(id model.DocID) string {
	return (&textView{items: r.order[r.head:]}).get(id)
}
