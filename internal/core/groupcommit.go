package core

// groupcommit.go implements the node's group-commit pipeline: concurrently
// committing transactions coalesce their storage writes into shared
// BatchPut round trips, the multi-transaction generalization of the
// per-transaction write batching the paper evaluates in §6.1.1.
//
// The pipeline is leader-based (the classic WAL group-commit shape; no
// persistent background goroutine or shutdown hook — the only goroutines
// it spawns are short-lived drainers that exit once the queue empties): a
// committing goroutine enqueues its request and, if a flusher slot is
// free, becomes a flusher; it drains the queue, performs the batched
// writes for the drained transactions, and signals each waiter.
// Transactions that arrive while every flusher is busy queue up for the
// next drain, so batch sizes grow naturally with concurrency and a solo
// commit flushes immediately with no added round trips.
//
// Unlike a WAL (one disk head), the storage engines here accept parallel
// writes, so flushes need not serialize behind a single leader — §3.3
// orders only a transaction's OWN data before its OWN record. Up to
// Config.GroupCommitFlushers flushes run concurrently (default
// max(8, MaxConcurrent), so the pipeline never caps storage concurrency
// below the node's configured client concurrency; tighten it to trade
// throughput for coalescing). Each flush takes at most maxGroupedCommits
// transactions so a deep backlog cannot inflate one flush's latency.
//
// Every flush preserves the strict write ordering of §3.3 for all its
// member transactions: phase one writes every transaction's data versions,
// phase two writes the commit records of exactly those transactions whose
// data is fully durable, and only then does phase three install the
// records into the metadata cache (visibility) and enqueue the whole
// flush as ONE append to the multicast queue. No commit record is ever
// written before its data, and no commit is acknowledged before its record
// is durable.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"aft/internal/records"
	"aft/internal/telemetry"
)

// commitReq is one transaction's submission to the pipeline.
type commitReq struct {
	// items are the step-1 data writes: one storage key per buffered
	// version, or the single packed object under the packed layout.
	items map[string][]byte
	// recKey/recVal are the step-2 commit-record write.
	recKey string
	recVal []byte
	// rec is installed into the metadata cache after recVal is durable.
	rec *records.CommitRecord
	// trace, when non-nil, receives a retroactive gc.flush span: the
	// flush runs under one member's goroutine, but every traced member
	// should see how long its batch's storage writes took.
	trace *telemetry.Trace

	err  error
	done chan struct{}
}

// maxGroupedCommits bounds one flush: with DynamoDB's 25-item batch limit
// a full group is 2-3 data round trips plus the shared record write.
const maxGroupedCommits = 32

// defaultFlushers is the concurrent-flush default. A committing client
// must wait out the in-progress flush before its own can start, so with F
// flushers a closed-loop client's cycle is ~(1 + 1/(2F)) flush times:
// F = 8 keeps that overhead under ~6% of the direct path's while still
// coalescing clients/F commits per flush under load.
const defaultFlushers = 8

// groupCommitter holds the pipeline's queue and flusher accounting.
type groupCommitter struct {
	mu       sync.Mutex
	queue    []*commitReq
	flushers int
}

// groupCommit submits req and blocks until a flush has processed it,
// returning the transaction's own outcome. The storage round trips of a
// flush run under the flushing goroutine's ctx; a commit that fails
// because another goroutine's ctx was canceled sees that error, its
// transaction stays live, and a retry (likely flushing for itself)
// re-submits the writes.
//
// A committing client flushes only until its own request resolves; if the
// queue is still non-empty then, its flusher slot transfers to a detached
// drainer goroutine (which exits as soon as the queue empties), so a
// client's commit latency is bounded by its own flush rounds rather than
// by how fast other clients keep the queue full.
func (n *Node) groupCommit(ctx context.Context, req *commitReq) error {
	req.done = make(chan struct{})
	c := &n.committer
	c.mu.Lock()
	c.queue = append(c.queue, req)
	if c.flushers >= n.flusherLimit {
		c.mu.Unlock()
		<-req.done
		return req.err
	}
	c.flushers++
	c.mu.Unlock()
	for {
		select {
		case <-req.done:
			// Resolved by our own flush or a concurrent flusher's; hand
			// the slot to a drainer for whatever is still queued. The
			// drainer runs detached from any client ctx.
			go n.drainQueue(context.Background())
			return req.err
		default:
		}
		if !n.flushNextBatch(ctx) {
			break // queue empty; slot released
		}
	}
	<-req.done
	return req.err
}

// flushNextBatch takes one batch off the queue and flushes it, reporting
// whether there was work. An empty queue releases the caller's flusher
// slot.
func (n *Node) flushNextBatch(ctx context.Context) bool {
	c := &n.committer
	c.mu.Lock()
	batch := c.queue
	if len(batch) > maxGroupedCommits {
		c.queue = batch[maxGroupedCommits:]
		batch = batch[:maxGroupedCommits]
	} else {
		c.queue = nil
	}
	if len(batch) == 0 {
		c.flushers--
		c.mu.Unlock()
		return false
	}
	c.mu.Unlock()
	n.flushCommits(ctx, batch)
	return true
}

// drainQueue runs flushes until the queue empties, then exits. It owns a
// flusher slot transferred from a client whose request already resolved.
func (n *Node) drainQueue(ctx context.Context) {
	for n.flushNextBatch(ctx) {
	}
}

// flushCommits runs one flush over batch; see the package comment for the
// three phases and their ordering guarantees.
func (n *Node) flushCommits(ctx context.Context, batch []*commitReq) {
	n.metrics.GroupFlushes.Add(1)
	n.metrics.GroupedCommits.Add(int64(len(batch)))
	flushStart := time.Now()
	failed := make(map[*commitReq]error, len(batch))

	// Phase 1: every transaction's data versions.
	n.flushPhase(ctx, batch, failed, "aft: persisting write set", func(req *commitReq) map[string][]byte {
		return req.items
	})
	// Phase 2: commit records, only for transactions whose data is fully
	// durable (§3.3: the record is the visibility point).
	n.flushPhase(ctx, batch, failed, "aft: persisting commit record", func(req *commitReq) map[string][]byte {
		return map[string][]byte{req.recKey: req.recVal}
	})

	// Phase 3: visibility. Install every durable record under one hold of
	// the metadata lock, then hand the whole flush to the multicast queue
	// in one append.
	visible := make([]*records.CommitRecord, 0, len(batch))
	n.meta.mu.Lock()
	for _, req := range batch {
		if err := failed[req]; err != nil {
			req.err = err
			continue
		}
		n.installLocked(req.rec)
		visible = append(visible, req.rec)
	}
	n.meta.mu.Unlock()
	if len(visible) > 0 {
		n.recMu.Lock()
		n.recent = append(n.recent, visible...)
		n.recMu.Unlock()
	}
	flushDur := time.Since(flushStart)
	// One flush serves many coalesced transactions; the shared flush ID
	// (plus the co-flushed traces' IDs) lets the stitched view link every
	// member trace to the same storage round trips. The ID and peer list
	// are built only when at least one member is traced.
	var flushID, peers string
	for _, req := range batch {
		if req.trace == nil {
			continue
		}
		if flushID == "" {
			flushID = strconv.FormatUint(n.flushSeq.Add(1), 10)
			var ids []string
			for _, other := range batch {
				if id := other.trace.ID(); id != "" {
					ids = append(ids, id)
				}
			}
			peers = strings.Join(ids, ",")
		}
		req.trace.AddSpan("gc.flush", flushStart, flushDur,
			map[string]string{
				"batch": strconv.Itoa(len(batch)),
				"flush": flushID,
				"peers": peers,
			})
	}
	for _, req := range batch {
		close(req.done)
	}
}

// flushPhase writes one phase's items for every not-yet-failed request,
// packing items from different transactions into chunks of the engine's
// batch limit. A chunk that fails is retried item by item through the
// point API so each transaction learns ITS OWN outcome — a shared batch
// may apply partially (storage.go permits non-atomic batches), and
// blanket-failing the chunk would report commits failed whose records
// were in fact durably written (they would then resurface as committed
// via the fault-manager scan while the client retries under a new ID).
// Errors carry errContext like the direct path's, and a failed
// transaction's remaining items are skipped; its stray data stays
// invisible because its commit record is never written (§3.3).
func (n *Node) flushPhase(ctx context.Context, batch []*commitReq, failed map[*commitReq]error, errContext string, itemsOf func(*commitReq) map[string][]byte) {
	limit := n.store.Capabilities().MaxBatchSize
	if limit <= 0 {
		limit = 128
	}
	chunk := make(map[string][]byte, limit)
	owner := make(map[string]*commitReq, limit)
	flush := func() {
		if len(chunk) == 0 {
			return
		}
		var err error
		if len(chunk) > 1 {
			sp := telemetry.StartSpan(ctx, "storage.batchput")
			sp.Annotate("items", strconv.Itoa(len(chunk)))
			err = n.store.BatchPut(ctx, chunk)
			sp.End()
		}
		if len(chunk) == 1 || err != nil {
			// Solo items take the point API outright (a one-item batch
			// buys no round trip, and real engines price BatchWriteItem
			// worse than PutItem — an uncontended commit keeps the direct
			// path's storage profile). Failed batches retry per item for
			// per-transaction attribution; re-writing items the partial
			// batch already applied is a harmless overwrite.
			for k, v := range chunk {
				req := owner[k]
				if failed[req] != nil {
					continue
				}
				if perr := n.store.Put(ctx, k, v); perr != nil {
					failed[req] = fmt.Errorf("%s: %w", errContext, perr)
				}
			}
		}
		chunk = make(map[string][]byte, limit)
		owner = make(map[string]*commitReq, limit)
	}
	for _, req := range batch {
		if failed[req] != nil {
			continue
		}
		for k, v := range itemsOf(req) {
			chunk[k] = v
			owner[k] = req
			if len(chunk) >= limit {
				flush()
				if failed[req] != nil {
					break // this transaction already failed; skip its rest
				}
			}
		}
	}
	flush()
}
