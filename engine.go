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
	inner     core.Engine
	pipeline  *textproc.Pipeline
	nextDoc   model.DocID
	nextQuery model.QueryID
	lastAt    time.Time
	queryText sync.Map // QueryID → string; read off-lock by QueryText
	texts     *textRing
	watches   map[QueryID]*watchState

	// interned shares one immutable term vector across every live query
	// registered with the same text. Real query populations are heavily
	// duplicated (the same alert text registered by many users), and the
	// analysis pipeline is deterministic — identical text always yields
	// the identical sorted, weighted vector — so duplicates can share
	// one backing array. Entries are refcounted and dropped when the
	// last query with that text unregisters.
	interned map[string]*internEntry

	// wal is the durability attachment (nil for in-memory engines):
	// mutating operations append records before applying, epoch
	// boundaries append markers and fsync per the policy, and
	// checkpoints rotate the log. See durable.go.
	wal *walState

	// repl is the replication attachment (nil until StartReplication or
	// OpenFollower); readOnly marks a follower, whose mutating
	// operations return ErrReadOnly until Promote. closed makes every
	// later operation fail with ErrClosed instead of reaching an inner
	// engine whose workers have shut down. See replication.go.
	repl     *replState
	readOnly bool
	closed   bool

	// pub is the wait-free read path: an immutable publishedState swapped
	// at every publication boundary (epoch flush, Register, Unregister,
	// Advance, Restore). Results, ResultsAll, Stats, WindowLen, Queries
	// and DictionarySize read it without ever acquiring mu. It stays nil
	// for engines whose inner algorithm has no published views (the Naïve
	// baselines), which fall back to the locked path.
	pub atomic.Pointer[publishedState]

	// Epoch buffer (WithBatchSize > 1): analyzed documents awaiting the
	// next flush, with their original texts when retention is on. Ids
	// and the stream clock are assigned at buffer time; the documents
	// reach the inner engine as one epoch at flush time.
	pending     []*model.Document
	pendingText []string

	// Watch-delta delivery queue: deltas are enqueued in epoch order
	// under mu and drained by one goroutine at a time outside it, so
	// concurrent flushers cannot deliver epochs out of order. See
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
		return openDurable(cfg.walDir, opts)
	}
	if cfg.policy == nil {
		return nil, errors.New("ita: a window option is required (WithCountWindow or WithTimeWindow)")
	}
	if cfg.shardsSet {
		switch {
		case !cfg.algorithmSet || cfg.algorithm == IncrementalThreshold:
			cfg.algorithm = ShardedIncrementalThreshold
		case cfg.algorithm == ShardedIncrementalThreshold:
		default:
			return nil, fmt.Errorf("ita: WithShards requires the ITA algorithm, got %s", cfg.algorithm)
		}
	}
	if cfg.weighter == nil {
		cfg.weighter = defaultWeighter()
	}
	e := &Engine{
		cfg:       cfg,
		inner:     cfg.build(),
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

// publishLocked makes the current flushed state visible to wait-free
// readers: the inner engine swaps every changed query's frozen view,
// then the facade swaps its single published-state pointer. Must be
// called with e.mu held (except during construction/restore, before the
// engine escapes), after mutations and only at a boundary — never with
// a partial epoch applied. A no-op for inner engines without published
// views.
func (e *Engine) publishLocked() {
	pub, ok := e.inner.(core.ViewPublisher)
	if !ok {
		return
	}
	reader := pub.PublishViews()
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
// the paper's window semantics treat it.
//
// With WithBatchSize(n), the document is buffered and processed as part
// of the next epoch (when n documents have accumulated, on Flush, or
// before Register/Unregister/Advance/Snapshot/Close); the id is
// assigned immediately, but reads reflect the document only after the
// epoch flushes.
func (e *Engine) IngestText(text string, at time.Time) (DocID, error) {
	ids, err := e.IngestBatch([]TimedText{{Text: text, At: at}})
	if len(ids) == 0 {
		return 0, err
	}
	return ids[0], err
}

// IngestBatch analyzes and processes a batch of document arrivals under
// a single engine lock, returning the assigned ids in order. Arrival
// times must be non-decreasing within the batch and not precede earlier
// ingests. The call's documents (together with any WithBatchSize buffer)
// form one epoch — one net index mutation pass and one net maintenance
// pass per affected query — so the per-document work (index point
// mutations, shard fan-out barriers, redundant refills) is amortized
// across the batch; IngestText is the batch of one. Per-query results
// after the call are identical to ingesting the same documents in
// smaller epochs (when documents tie exactly at a query's k-th score,
// either epoch cut may report either tied document; both are correct
// top-k answers). Watch callbacks observe one cumulative delta per
// query per epoch.
func (e *Engine) IngestBatch(items []TimedText) ([]DocID, error) {
	if len(items) == 0 {
		return nil, nil
	}
	e.mu.Lock()
	if err := e.gateWriteLocked(); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	ids, deltas, err := e.ingestBatchLocked(items)
	e.queueDeltasLocked(deltas)
	if err == nil {
		e.maybeCheckpointLocked()
	}
	e.mu.Unlock()
	e.deliverQueued()
	return ids, err
}

func (e *Engine) ingestBatchLocked(items []TimedText) ([]DocID, []pendingDelta, error) {
	// Validate and analyze everything up front so a bad item fails the
	// batch before any document is processed.
	last := e.lastAt
	for i, it := range items {
		if it.At.Before(last) {
			return nil, nil, fmt.Errorf("%w: item %d: %s < %s", ErrTimeRegression, i, it.At, last)
		}
		last = it.At
	}
	// Analyze into a local slice first: a bad item must fail the batch
	// before anything reaches the epoch buffer.
	ids := make([]DocID, len(items))
	docs := make([]*model.Document, len(items))
	for i, it := range items {
		doc, err := model.NewDocument(e.nextDoc+model.DocID(i), it.At, e.cfg.weighter.Weigh(e.pipeline.Counts(it.Text)))
		if err != nil {
			return nil, nil, fmt.Errorf("ita: analyze document %d: %w", i, err)
		}
		docs[i] = doc
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
	e.pending = append(e.pending, docs...)
	if e.texts != nil {
		for _, it := range items {
			e.pendingText = append(e.pendingText, it.Text)
		}
	}
	e.nextDoc += model.DocID(len(items))
	e.lastAt = last
	// Without WithBatchSize the whole call is one epoch; with it, the
	// buffer keeps accumulating until a full epoch is reached. Deltas
	// (and a publication) exist only when an epoch actually flushed —
	// a buffered-only call leaves the readable boundary untouched.
	if e.cfg.batchSize <= 1 || len(e.pending) >= e.cfg.batchSize {
		if err := e.flushLocked(); err != nil {
			return ids, nil, err
		}
		return ids, e.collectDeltas(), nil
	}
	return ids, nil, nil
}

// flushLocked processes the buffered epoch through the inner engine.
// Must be called with e.mu held. On return the buffer is empty; on
// error the buffered documents are discarded (their ids stay consumed).
func (e *Engine) flushLocked() error {
	if len(e.pending) == 0 {
		return nil
	}
	docs, texts := e.pending, e.pendingText
	e.pending, e.pendingText = e.pending[:0], e.pendingText[:0]
	// The ITA engines take the epoch whole; the Naïve baselines keep an
	// event loop.
	if ep, ok := e.inner.(core.EpochProcessor); ok {
		if err := ep.ProcessEpoch(docs); err != nil {
			return err
		}
	} else {
		for _, doc := range docs {
			if err := e.inner.Process(doc); err != nil {
				return err
			}
		}
	}
	if e.texts != nil {
		for i, doc := range docs {
			e.texts.add(doc.ID, doc.Arrival, texts[i])
		}
	}
	// Every applied epoch is a durable boundary.
	return e.walBoundaryLocked()
}

// flushExplicitLocked flushes the buffered epoch at a point the record
// stream does not dictate — an explicit Flush, a Snapshot, a Checkpoint
// or a Close. The boundary is logged as a KindFlush record first, since
// replaying the document records alone would not reproduce it.
func (e *Engine) flushExplicitLocked() error {
	if len(e.pending) == 0 {
		return nil
	}
	if err := e.walAppendLocked(&walFlushRecord); err != nil {
		return err
	}
	return e.flushLocked()
}

// Flush processes any documents buffered by WithBatchSize as one epoch,
// delivering the epoch's watch deltas. It is a no-op when nothing is
// buffered (in particular, always, without WithBatchSize). Use it to
// bound result staleness on a stream that has gone quiet.
func (e *Engine) Flush() error {
	e.mu.Lock()
	if err := e.gateWriteLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	err := e.flushExplicitLocked()
	e.queueDeltasLocked(e.collectDeltas())
	if err == nil {
		e.maybeCheckpointLocked()
	}
	e.mu.Unlock()
	e.deliverQueued()
	return err
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

// Close flushes any buffered epoch and releases engine resources — for
// the sharded engine, its shard worker goroutines; for a replicating
// engine, its server or client. The final epoch's watch deltas are
// delivered before the inner engine shuts down, so a callback that
// re-enters the engine (as WatchFunc permits) still finds it live.
// Close is idempotent, and every operation after it returns ErrClosed:
// a Results/IngestText racing Close observes either the live engine or
// the error, never a shut-down inner engine.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	readOnly := e.readOnly
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
	var err error
	e.mu.Lock()
	if !readOnly {
		// A follower skips the final flush: its buffered epoch belongs to
		// the primary's record stream and must not grow a local boundary
		// the primary never logged.
		err = e.flushExplicitLocked()
		e.queueDeltasLocked(e.collectDeltas())
	}
	e.mu.Unlock()
	e.deliverQueued()
	e.mu.Lock()
	if c, ok := e.inner.(interface{ Close() error }); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	if e.wal != nil && e.wal.log != nil {
		// The final epoch is already on disk (flushLocked logged its
		// boundary); sync once more so even DurabilityOff engines leave a
		// fully flushed log behind on a clean shutdown.
		if serr := e.wal.log.Sync(); err == nil && serr != nil {
			err = serr
		}
		if cerr := e.wal.log.Close(); err == nil {
			err = cerr
		}
	}
	e.mu.Unlock()
	return err
}

// Advance moves the stream clock forward without an arrival, expiring
// documents from time-based windows. Count-based windows are unaffected.
// Any buffered epoch is flushed first: its documents arrived before now.
func (e *Engine) Advance(now time.Time) error {
	e.mu.Lock()
	if err := e.gateWriteLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	deltas, err := e.advanceLocked(now)
	e.queueDeltasLocked(deltas)
	if err == nil {
		e.maybeCheckpointLocked()
	}
	e.mu.Unlock()
	e.deliverQueued()
	return err
}

func (e *Engine) advanceLocked(now time.Time) ([]pendingDelta, error) {
	if now.Before(e.lastAt) {
		return nil, fmt.Errorf("%w: %s < %s", ErrTimeRegression, now, e.lastAt)
	}
	if err := e.walAppendLocked(&wal.Record{Kind: wal.KindAdvance, At: now.UnixNano()}); err != nil {
		return nil, err
	}
	if err := e.flushLocked(); err != nil {
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
// Any buffered epoch is flushed first so the initial top-k search sees
// every document ingested before the call.
func (e *Engine) Register(queryText string, k int) (QueryID, error) {
	e.mu.Lock()
	if err := e.gateWriteLocked(); err != nil {
		e.mu.Unlock()
		return 0, err
	}
	id, deltas, err := e.registerLocked(queryText, k)
	e.queueDeltasLocked(deltas)
	if err == nil {
		e.maybeCheckpointLocked()
	}
	e.mu.Unlock()
	e.deliverQueued()
	return id, err
}

func (e *Engine) registerLocked(queryText string, k int) (QueryID, []pendingDelta, error) {
	return e.registerAtLocked(e.nextQuery, queryText, k)
}

// registerAtLocked registers a query under an explicit id. Ordinary
// registrations pass e.nextQuery; the cluster path (RegisterWithID) and
// WAL replay pass ids that may skip ahead of it — a node that owns only
// its hash slice of the global id space consumes the skipped ids via
// AlignRegister. An id behind e.nextQuery is always an error: those ids
// are spent, and during replay a regressing id means a corrupt log.
func (e *Engine) registerAtLocked(id QueryID, queryText string, k int) (QueryID, []pendingDelta, error) {
	if id < e.nextQuery {
		return 0, nil, fmt.Errorf("ita: register id %d already consumed (next is %d)", id, e.nextQuery)
	}
	counts := e.pipeline.Counts(queryText)
	if len(counts) == 0 {
		return 0, nil, ErrNoQueryTerms
	}
	terms := e.internedTermsLocked(queryText)
	if terms == nil {
		terms = e.cfg.weighter.WeighQuery(counts)
	}
	q, err := model.NewQuery(id, k, terms)
	if err != nil {
		return 0, nil, fmt.Errorf("ita: analyze query: %w", err)
	}
	// Log before apply; the record carries the id the apply will assign
	// so recovery can verify replay determinism.
	if err := e.walAppendLocked(&wal.Record{
		Kind: wal.KindRegister, Query: uint64(id), K: k, Text: queryText,
	}); err != nil {
		return 0, nil, err
	}
	if err := e.flushLocked(); err != nil {
		return 0, nil, err
	}
	deltas := e.collectDeltas()
	if err := e.inner.Register(q); err != nil {
		return 0, deltas, err
	}
	e.nextQuery = id + 1
	e.queryText.Store(id, queryText)
	e.internStoreLocked(queryText, q.Terms)
	// Second publication of the op: the flush above published the
	// pre-registration boundary (for the deltas); this one makes the new
	// query's initial result visible to wait-free readers.
	e.publishLocked()
	return id, deltas, e.walBoundaryLocked()
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
	e.mu.Lock()
	if err := e.gateWriteLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	_, deltas, err := e.registerAtLocked(id, queryText, k)
	e.queueDeltasLocked(deltas)
	if err == nil {
		e.maybeCheckpointLocked()
	}
	e.mu.Unlock()
	e.deliverQueued()
	return err
}

// AlignRegister is the non-owning side of a cluster registration: the
// node does not install query id (another node owns it), but replays
// everything else a registration does to the shared stream state — the
// query text is analyzed so dictionary interning order stays identical
// across nodes (term ids order the score summation, so a diverged
// dictionary diverges result bytes), any buffered epoch is flushed at
// the same stream position the owning node flushes it, and the id is
// consumed. The operation is WAL-logged and replays through recovery
// and replication like any other.
func (e *Engine) AlignRegister(id QueryID, queryText string) error {
	e.mu.Lock()
	if err := e.gateWriteLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	deltas, err := e.alignRegisterLocked(id, queryText)
	e.queueDeltasLocked(deltas)
	if err == nil {
		e.maybeCheckpointLocked()
	}
	e.mu.Unlock()
	e.deliverQueued()
	return err
}

func (e *Engine) alignRegisterLocked(id QueryID, queryText string) ([]pendingDelta, error) {
	if id < e.nextQuery {
		return nil, fmt.Errorf("ita: align register id %d already consumed (next is %d)", id, e.nextQuery)
	}
	// Intern before the flush, exactly where registerAtLocked interns:
	// buffered documents took their term ids at ingest time, so the
	// query text's terms land in the same dictionary order either way.
	if len(e.pipeline.Counts(queryText)) == 0 {
		return nil, ErrNoQueryTerms
	}
	if err := e.walAppendLocked(&wal.Record{
		Kind: wal.KindAlign, Query: uint64(id), Text: queryText,
	}); err != nil {
		return nil, err
	}
	if err := e.flushLocked(); err != nil {
		return nil, err
	}
	deltas := e.collectDeltas()
	e.nextQuery = id + 1
	e.publishLocked()
	return deltas, e.walBoundaryLocked()
}

// NextQueryID returns the id the next Register call would assign. A
// cluster router reads it at startup to resume the global id sequence
// from recovered nodes.
func (e *Engine) NextQueryID() QueryID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nextQuery
}

type internEntry struct {
	terms []model.QueryTerm
	refs  int
}

// internedTermsLocked returns the canonical shared term vector of a
// query text, nil when no live query uses it. Must be called with e.mu
// held.
func (e *Engine) internedTermsLocked(text string) []model.QueryTerm {
	if ent, ok := e.interned[text]; ok {
		return ent.terms
	}
	return nil
}

// internStoreLocked records one more live query using terms as the
// canonical vector for text. Must be called with e.mu held, after the
// registration has succeeded.
func (e *Engine) internStoreLocked(text string, terms []model.QueryTerm) {
	if e.interned == nil {
		e.interned = make(map[string]*internEntry)
	}
	if ent, ok := e.interned[text]; ok {
		ent.refs++
		return
	}
	e.interned[text] = &internEntry{terms: terms, refs: 1}
}

// internReleaseLocked drops one live reference to a query text's
// interned vector. Must be called with e.mu held.
func (e *Engine) internReleaseLocked(text string) {
	if ent, ok := e.interned[text]; ok {
		if ent.refs--; ent.refs <= 0 {
			delete(e.interned, text)
		}
	}
}

// Unregister removes a query and any watcher on it, reporting whether
// the query existed. Like Register, it flushes any buffered epoch first
// so the buffered documents were maintained while the query was live.
func (e *Engine) Unregister(id QueryID) bool {
	e.mu.Lock()
	if e.gateWriteLocked() != nil {
		// The bool signature cannot carry ErrReadOnly/ErrClosed; a gated
		// engine simply reports the query as not removed.
		e.mu.Unlock()
		return false
	}
	ok := e.unregisterLocked(id)
	e.maybeCheckpointLocked()
	e.mu.Unlock()
	e.deliverQueued()
	return ok
}

func (e *Engine) unregisterLocked(id QueryID) bool {
	// The bool signature cannot carry an error; a flush error is
	// impossible by construction here (facade-assigned ids are unique
	// and arrival times were validated at buffer time), so it is
	// deliberately discarded rather than widening the API.
	//
	// An unknown id is decided before anything is logged, so replay makes
	// the same decision from the same state and no-op unregisters never
	// reach the log.
	if _, known := e.queryText.Load(id); !known {
		_ = e.flushLocked()
		e.queueDeltasLocked(e.collectDeltas())
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
	_ = e.flushLocked()
	e.queueDeltasLocked(e.collectDeltas())
	if text, ok := e.queryText.Load(id); ok {
		e.internReleaseLocked(text.(string))
	}
	e.queryText.Delete(id)
	e.dropWatchLocked(id)
	ok := e.inner.Unregister(id)
	// Make the removal visible to wait-free readers: until this publish,
	// readers still see the query at its last pre-unregister boundary.
	e.publishLocked()
	_ = e.walBoundaryLocked()
	return ok
}

// Results returns the query's current top-k in descending score order.
// It returns nil for an unknown query; a registered query with no
// matching documents returns an empty non-nil slice. With WithBatchSize,
// results reflect flushed epochs only — at most batchSize-1 documents
// behind the last IngestText; call Flush first for read-your-writes.
//
// For the ITA engines (single-threaded and sharded) the read is
// wait-free: it loads the published epoch-boundary view and copies it
// without acquiring the engine lock, so result serving never contends
// with the ingest pipeline. The returned slice is the caller's to keep.
// See "Published views" in the package documentation for the
// consistency model. The Naïve baselines read under the engine lock.
func (e *Engine) Results(id QueryID) []Match {
	if ps := e.pub.Load(); ps != nil {
		f, ok := ps.reader.Result(id)
		if !ok {
			return nil
		}
		return e.matchesPublished(ps, f)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	docs, ok := e.inner.Result(id)
	if !ok {
		return nil
	}
	return e.matchesLocked(docs)
}

// ResultsAll returns the current top-k of every registered query, in
// ascending query id. Like Results it is wait-free for the ITA engines;
// the enumeration is weakly consistent across queries — each query's
// entry is a real epoch-boundary result at least as fresh as the last
// boundary completed before the call, but two entries may come from
// adjacent boundaries when the call races a flush.
func (e *Engine) ResultsAll() []QueryResult {
	var out []QueryResult
	if ps := e.pub.Load(); ps != nil {
		ps.reader.Each(func(id model.QueryID, f *topk.Frozen) {
			out = append(out, QueryResult{Query: id, Matches: e.matchesPublished(ps, f)})
		})
	} else {
		e.mu.Lock()
		e.inner.EachQuery(func(q *model.Query) {
			if docs, ok := e.inner.Result(q.ID); ok {
				out = append(out, QueryResult{Query: q.ID, Matches: e.matchesLocked(docs)})
			}
		})
		e.mu.Unlock()
	}
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
func (e *Engine) matchesPublished(ps *publishedState, f *topk.Frozen) []Match {
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

// matchesLocked is the locked-path equivalent of publishedState.matches
// for inner engines without published views. Must be called with e.mu
// held.
func (e *Engine) matchesLocked(docs []model.ScoredDoc) []Match {
	out := make([]Match, 0, len(docs))
	for _, d := range docs {
		m := Match{Doc: d.Doc, Score: d.Score}
		if e.texts != nil {
			m.Text = e.texts.get(d.Doc)
		}
		out = append(out, m)
	}
	return out
}

// QueryText returns the original text a query was registered with. It
// never acquires the engine lock.
func (e *Engine) QueryText(id QueryID) (string, bool) {
	s, ok := e.queryText.Load(id)
	if !ok {
		return "", false
	}
	return s.(string), true
}

// WindowLen returns the number of currently valid documents in flushed
// epochs (buffered documents are not yet part of the window).
func (e *Engine) WindowLen() int {
	if ps := e.pub.Load(); ps != nil {
		return ps.window
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inner.WindowLen()
}

// Queries returns the number of registered queries.
func (e *Engine) Queries() int {
	if ps := e.pub.Load(); ps != nil {
		return ps.queries
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inner.Queries()
}

// Stats returns a snapshot of the engine's operation counters, as of
// the last publication boundary.
func (e *Engine) Stats() Stats {
	if ps := e.pub.Load(); ps != nil {
		return ps.stats
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return *e.inner.Stats()
}

// Algorithm returns the engine's maintenance algorithm.
func (e *Engine) Algorithm() Algorithm { return e.cfg.algorithm }

// MemoryUsage returns a per-component estimate of the inner engine's
// heap footprint (inverted index, threshold trees, query state,
// published views). Unlike Stats it is computed on demand by walking
// structure sizes, so it takes the engine lock; it is a diagnostics
// gauge (the itaserver /stats endpoint), not a hot-path read. Engines
// without per-component accounting (the Naïve baselines) report zero.
func (e *Engine) MemoryUsage() Memory {
	e.mu.Lock()
	defer e.mu.Unlock()
	if mr, ok := e.inner.(core.MemoryReporter); ok {
		return mr.MemoryUsage()
	}
	return Memory{}
}

// DictionarySize returns the number of distinct terms interned as of
// the last publication boundary (terms of buffered, unflushed documents
// are counted once their epoch flushes).
func (e *Engine) DictionarySize() int {
	if ps := e.pub.Load(); ps != nil {
		return ps.dict
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pipeline.Dictionary().Size()
}

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
// lock (snapshots, watch diffs, the Naïve fallback path).
func (r *textRing) get(id model.DocID) string {
	return (&textView{items: r.order[r.head:]}).get(id)
}
