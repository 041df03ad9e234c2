package core

import (
	"fmt"
	"testing"

	"ita/internal/model"
	"ita/internal/window"
)

// fanOutQueries is a query population whose one-document epochs stay
// below fanOutWork while epochs of a few documents exceed it.
const fanOutQueries = fanOutWork / 8

// TestFanOutEngagement pins the engagement rule: on a four-shard engine
// a one-document epoch under fanOutWork runs inline, and an epoch above
// it fans out.
func TestFanOutEngagement(t *testing.T) {
	const win = 32
	e := NewITA(window.Count{N: win}, WithShards(4))
	g := newContGen(7, 64)
	for i := 0; i < fanOutQueries; i++ {
		if err := e.Register(g.query(t, model.QueryID(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*win; i++ { // the second half expires one document per epoch
		if err := e.Process(g.doc(t)); err != nil {
			t.Fatal(err)
		}
	}
	if work := fanOutQueries * 2; work >= fanOutWork {
		t.Fatalf("a one-document epoch carries %d units of work, not below %d", work, fanOutWork)
	}
	if e.fannedOut != 0 {
		t.Fatalf("%d one-document epochs fanned out", e.fannedOut)
	}
	batch := make([]*model.Document, 8)
	for i := range batch {
		batch[i] = g.doc(t)
	}
	if work := fanOutQueries * 2 * len(batch); work < fanOutWork {
		t.Fatalf("the batch carries %d units of work, below %d", work, fanOutWork)
	}
	if err := e.ProcessEpoch(batch); err != nil {
		t.Fatal(err)
	}
	if e.fannedOut != 1 {
		t.Fatalf("fanned-out epochs = %d after one epoch above the threshold, want 1", e.fannedOut)
	}
	mustCheck(t, e)
}

// TestFanOutLockStep drives one, two and four shards in lock-step
// through a stream whose epoch sizes straddle fanOutWork, with query
// churn between epochs, and requires byte-identical results, published
// views and Stats at every boundary. Under -race (CI runs this package
// at -cpu 1,2,4) it also exercises the fan-out's synchronization.
func TestFanOutLockStep(t *testing.T) {
	const (
		win    = 48
		vocab  = 96
		epochs = 120
	)
	shardCounts := []int{1, 2, 4}
	engines := make([]*ITA, len(shardCounts))
	for i, s := range shardCounts {
		engines[i] = NewITA(window.Count{N: win}, WithShards(s))
		engines[i].PublishViews() // arm publication, as the facade does
	}
	g := newContGen(11, vocab)
	var live []model.QueryID
	nextQ := model.QueryID(1)
	register := func() {
		q := g.query(t, nextQ)
		for _, e := range engines {
			if err := e.Register(q); err != nil {
				t.Fatal(err)
			}
		}
		live = append(live, nextQ)
		nextQ++
	}
	for len(live) < fanOutQueries {
		register()
	}
	sizes := []int{1, 1, 2, 3, 1, 5, 8, 1, 13, 1, 21, 2, 34, 1, 55}
	for ep := 0; ep < epochs; ep++ {
		docs := make([]*model.Document, sizes[ep%len(sizes)])
		for i := range docs {
			docs[i] = g.doc(t)
		}
		for _, e := range engines {
			if err := e.ProcessEpoch(docs); err != nil {
				t.Fatal(err)
			}
			e.PublishViews()
		}
		if ep%7 == 3 { // churn: drop one query, add one
			gone := live[g.r.Intn(len(live))]
			for _, e := range engines {
				if !e.Unregister(gone) {
					t.Fatalf("unregister %d failed", gone)
				}
			}
			for i, id := range live {
				if id == gone {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			register()
			for _, e := range engines {
				e.PublishViews()
			}
		}
		ref := engines[0]
		for si, e := range engines[1:] {
			tag := fmt.Sprintf("epoch %d, %d shards", ep, shardCounts[si+1])
			if got, want := *e.Stats(), *ref.Stats(); got != want {
				t.Fatalf("%s: Stats %+v, one shard %+v", tag, got, want)
			}
			for _, id := range live {
				got, _ := e.Result(id)
				want, _ := ref.Result(id)
				if err := sameResults(got, want); err != nil {
					t.Fatalf("%s, query %d: %v", tag, id, err)
				}
				gotV, ok := e.views.Result(id)
				wantV, ok2 := ref.views.Result(id)
				if !ok || !ok2 {
					t.Fatalf("%s, query %d: published %v, one shard %v", tag, id, ok, ok2)
				}
				if err := sameResults(gotV.Docs, wantV.Docs); err != nil {
					t.Fatalf("%s, query %d view: %v", tag, id, err)
				}
			}
		}
	}
	for i, e := range engines {
		mustCheck(t, e)
		switch {
		case shardCounts[i] == 1 && e.fannedOut != 0:
			t.Fatalf("one shard fanned out %d epochs", e.fannedOut)
		case shardCounts[i] > 1 && (e.fannedOut == 0 || e.fannedOut == epochs):
			t.Fatalf("%d shards fanned out %d of %d epochs; the stream should straddle the threshold",
				shardCounts[i], e.fannedOut, epochs)
		}
	}
}
