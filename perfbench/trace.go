package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/chaos"
	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
)

// maxSpans bounds the spans kept in memory; later spans still feed the
// call timers and are counted as dropped.
const maxSpans = 250_000

// span is one timed call at a layer boundary. Spans of one request share
// Txn, the ID of the request's root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Txn    uint64 `json:"txn,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// timer accumulates the count and total duration of one span name.
type timer struct{ n, ns atomic.Int64 }

type timerSnap struct{ n, ns int64 }

// meanUs returns the mean duration in microseconds of the calls timed
// between two snapshots (0 when none ran).
func meanUs(before, after timerSnap) float64 {
	n := after.n - before.n
	if n <= 0 {
		return 0
	}
	return float64(after.ns-before.ns) / float64(n) / 1e3
}

// tracer records spans and call timers around the benchmark's calls into
// each layer. It measures from outside: the program under test is never
// modified. Everything is off until on is set, so the decorators it backs
// cost one atomic load per call in untraced windows.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64
	timers map[string]*timer // fixed at construction; read-only afterwards

	// Byte counters fed by the decorators while on.
	userBytes      atomic.Int64 // value bytes clients Put
	storeBytes     atomic.Int64 // key+value bytes written to storage
	commitRecN     atomic.Int64 // commit records written
	commitRecBytes atomic.Int64 // their encoded value bytes

	mu      sync.Mutex
	spans   []span
	dropped int64
}

type spanKey struct{}

// spanRef is the span a ctx is running under.
type spanRef struct{ txn, id uint64 }

// spanTxn names a request's root span. Client and storage spans are named
// layer.op from the ops below; the call timers are keyed by span name.
const spanTxn = "bench.txn"

var (
	clientOps  = []string{"start", "get", "put", "commit", "abort"}
	storageOps = []string{"get", "put", "batch_put", "batch_get", "list", "batch_delete", "delete"}
)

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), timers: make(map[string]*timer)}
	names := []string{spanTxn}
	for _, layer := range []string{"wire", "core"} {
		for _, op := range clientOps {
			names = append(names, layer+"."+op)
		}
	}
	for _, op := range storageOps {
		names = append(names, "storage."+op)
	}
	for _, n := range names {
		t.timers[n] = &timer{}
	}
	return t
}

// snap copies the timer of name.
func (t *tracer) snap(name string) timerSnap {
	tm := t.timers[name]
	return timerSnap{tm.n.Load(), tm.ns.Load()}
}

// begin opens a span named name under the span ctx carries and returns
// the ctx to pass down and the func that closes the span. Off, it returns
// ctx unchanged and a nil func; so does a nil tracer.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	ref := spanRef{txn: parent.txn, id: t.nextID.Add(1)}
	if ref.txn == 0 {
		ref.txn = ref.id
	}
	start := time.Now()
	return context.WithValue(ctx, spanKey{}, ref), func() {
		d := time.Since(start)
		tm := t.timers[name]
		tm.n.Add(1)
		tm.ns.Add(int64(d))
		t.mu.Lock()
		if len(t.spans) < maxSpans {
			t.spans = append(t.spans, span{
				ID: ref.id, Parent: parent.id, Txn: ref.txn, Name: name,
				Start: int64(start.Sub(t.epoch)), Dur: int64(d),
			})
		} else {
			t.dropped++
		}
		t.mu.Unlock()
	}
}

// writeSpans writes header as the first line of path, then one span per
// line.
func (t *tracer) writeSpans(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"header": header, "spans": len(t.spans), "dropped": t.dropped})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// timedClient is a chaos.Client decorator that times every call into the
// client-facing layer: "wire" for a wire.Client, "core" for a node or the
// load balancer in front of nodes.
type timedClient struct {
	inner chaos.Client
	tr    *tracer
	names map[string]string // op -> span name
}

var _ chaos.Client = (*timedClient)(nil)

func newTimedClient(inner chaos.Client, tr *tracer, layer string) *timedClient {
	names := make(map[string]string, len(clientOps))
	for _, op := range clientOps {
		names[op] = layer + "." + op
	}
	return &timedClient{inner: inner, tr: tr, names: names}
}

func end(f func()) {
	if f != nil {
		f()
	}
}

func (c *timedClient) StartTransaction(ctx context.Context) (string, error) {
	ctx, done := c.tr.begin(ctx, c.names["start"])
	defer end(done)
	return c.inner.StartTransaction(ctx)
}

func (c *timedClient) Get(ctx context.Context, txid, key string) ([]byte, error) {
	ctx, done := c.tr.begin(ctx, c.names["get"])
	defer end(done)
	return c.inner.Get(ctx, txid, key)
}

func (c *timedClient) Put(ctx context.Context, txid, key string, value []byte) error {
	ctx, done := c.tr.begin(ctx, c.names["put"])
	defer end(done)
	if done != nil {
		c.tr.userBytes.Add(int64(len(value)))
	}
	return c.inner.Put(ctx, txid, key, value)
}

func (c *timedClient) CommitTransaction(ctx context.Context, txid string) (idgen.ID, error) {
	ctx, done := c.tr.begin(ctx, c.names["commit"])
	defer end(done)
	return c.inner.CommitTransaction(ctx, txid)
}

func (c *timedClient) AbortTransaction(ctx context.Context, txid string) error {
	ctx, done := c.tr.begin(ctx, c.names["abort"])
	defer end(done)
	return c.inner.AbortTransaction(ctx, txid)
}

// timedStore is a storage.Store decorator that times every engine call and
// counts the bytes written, classifying commit records by
// records.CommitPrefix. It forwards every method unchanged, Metrics
// included, so the cluster built over it behaves as over the bare engine.
type timedStore struct {
	inner storage.Store
	tr    *tracer
}

var _ storage.Store = (*timedStore)(nil)

// inertMetrics answers Metrics for an engine that keeps none.
var inertMetrics storage.Metrics

func (s *timedStore) Name() string { return s.inner.Name() }

func (s *timedStore) Capabilities() storage.Capabilities { return s.inner.Capabilities() }

// Metrics forwards the engine's operation counters.
func (s *timedStore) Metrics() *storage.Metrics {
	if m, ok := s.inner.(interface{ Metrics() *storage.Metrics }); ok {
		return m.Metrics()
	}
	return &inertMetrics
}

// wrote counts one written item while tracing is on.
func (s *timedStore) wrote(key string, value []byte) {
	s.tr.storeBytes.Add(int64(len(key) + len(value)))
	if strings.HasPrefix(key, records.CommitPrefix) {
		s.tr.commitRecN.Add(1)
		s.tr.commitRecBytes.Add(int64(len(value)))
	}
}

func (s *timedStore) Get(ctx context.Context, key string) ([]byte, error) {
	ctx, done := s.tr.begin(ctx, "storage.get")
	defer end(done)
	return s.inner.Get(ctx, key)
}

func (s *timedStore) Put(ctx context.Context, key string, value []byte) error {
	ctx, done := s.tr.begin(ctx, "storage.put")
	defer end(done)
	if done != nil {
		s.wrote(key, value)
	}
	return s.inner.Put(ctx, key, value)
}

func (s *timedStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	ctx, done := s.tr.begin(ctx, "storage.batch_put")
	defer end(done)
	if done != nil {
		for k, v := range items {
			s.wrote(k, v)
		}
	}
	return s.inner.BatchPut(ctx, items)
}

func (s *timedStore) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	ctx, done := s.tr.begin(ctx, "storage.batch_get")
	defer end(done)
	return s.inner.BatchGet(ctx, keys)
}

func (s *timedStore) BatchDelete(ctx context.Context, keys []string) error {
	ctx, done := s.tr.begin(ctx, "storage.batch_delete")
	defer end(done)
	return s.inner.BatchDelete(ctx, keys)
}

func (s *timedStore) Delete(ctx context.Context, key string) error {
	ctx, done := s.tr.begin(ctx, "storage.delete")
	defer end(done)
	return s.inner.Delete(ctx, key)
}

func (s *timedStore) List(ctx context.Context, prefix string) ([]string, error) {
	ctx, done := s.tr.begin(ctx, "storage.list")
	defer end(done)
	return s.inner.List(ctx, prefix)
}
