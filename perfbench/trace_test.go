package main

import (
	"context"
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/dynamosim"
	"aft/internal/storage/storagetest"
	"aft/internal/storage/walengine"
)

// The timing decorator must change no semantics: it passes the storage
// conformance suite over both engines the workloads use, timers off and on.
func TestTimedStoreConformance(t *testing.T) {
	engines := map[string]func(t *testing.T) storage.Store{
		"dynamodb": func(*testing.T) storage.Store { return dynamosim.New(dynamosim.Options{}) },
		"wal": func(t *testing.T) storage.Store {
			s, err := walengine.Open(t.TempDir(), walengine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			return s
		},
	}
	for name, open := range engines {
		for _, on := range []bool{false, true} {
			label := name + "/timers-off"
			if on {
				label = name + "/timers-on"
			}
			t.Run(label, func(t *testing.T) {
				storagetest.Run(t, func() storage.Store {
					tr := newTracer()
					tr.on.Store(on)
					return &timedStore{inner: open(t), tr: tr}
				})
			})
		}
	}
}

func TestTimedStoreCountsAndForwards(t *testing.T) {
	inner := dynamosim.New(dynamosim.Options{})
	tr := newTracer()
	tr.on.Store(true)
	s := &timedStore{inner: inner, tr: tr}
	if s.Metrics() != inner.Metrics() {
		t.Fatal("Metrics not forwarded to the engine's counters")
	}
	if s.Capabilities() != inner.Capabilities() || s.Name() != inner.Name() {
		t.Fatal("Name or Capabilities not forwarded")
	}
	ctx := context.Background()
	if err := s.BatchPut(ctx, map[string][]byte{"aft/c/1": []byte("rec"), "k": []byte("vv")}); err != nil {
		t.Fatal(err)
	}
	if got := tr.snap("storage.batch_put").n; got != 1 {
		t.Fatalf("batch_put timer counted %d calls, want 1", got)
	}
	if n, b := tr.commitRecN.Load(), tr.commitRecBytes.Load(); n != 1 || b != 3 {
		t.Fatalf("commit records = %d (%d bytes), want 1 (3 bytes)", n, b)
	}
	if got, want := tr.storeBytes.Load(), int64(len("aft/c/1")+3+len("k")+2); got != want {
		t.Fatalf("store bytes = %d, want %d", got, want)
	}
}

func TestSpansParentThroughContext(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	s := &timedStore{inner: dynamosim.New(dynamosim.Options{}), tr: tr}
	ctx, done := tr.begin(context.Background(), spanTxn)
	if _, err := s.Get(ctx, "missing"); err == nil {
		t.Fatal("Get of a missing key succeeded")
	}
	done()
	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(tr.spans))
	}
	get, txn := tr.spans[0], tr.spans[1]
	if get.Parent != txn.ID || get.Txn != txn.ID || txn.Txn != txn.ID {
		t.Fatalf("storage span %+v not parented under txn span %+v", get, txn)
	}
}
