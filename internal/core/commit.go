package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/telemetry"
)

// CommitTransaction persists transaction txid's updates and makes them
// atomically visible (Table 1). The write-ordering protocol of §3.3 runs in
// three strictly ordered steps:
//
//  1. every buffered key version is written to its unique storage key
//     (batched when the engine supports it, §6.1.1);
//  2. the commit record — ID plus write set — is written to the
//     Transaction Commit Set;
//  3. only then is the commit acknowledged and the transaction's data made
//     visible to other requests, by installing the record into the local
//     metadata cache.
//
// On engines with a batch-write primitive, concurrently committing
// transactions hand steps 1 and 2 to the group-commit pipeline
// (groupcommit.go), which coalesces their data and record writes into
// shared BatchPut round trips while preserving the step ordering for every
// transaction in the flush. Engines without batching take the direct path
// below.
//
// A failure before step 2 completes leaves no visible effects: the data
// keys are unreferenced and the transaction will be retried. Commit is
// idempotent per transaction ID: retrying a commit that already succeeded
// returns the original commit ID (§3.1 exactly-once semantics).
func (n *Node) CommitTransaction(ctx context.Context, txid string) (idgen.ID, error) {
	tr := n.traceOf(txid)
	ctx = telemetry.WithTrace(ctx, tr)
	sp := tr.StartSpan("node.commit")
	start := time.Now()
	id, err := n.commitTransaction(ctx, txid)
	sp.End()
	if err == nil {
		n.latCommit.Observe(time.Since(start))
		// A failed attempt leaves the transaction live for a retry, so
		// the trace stays open; success — including the idempotent-retry
		// fast path, where tr is nil — completes it.
		tr.Finish("committed")
	}
	return id, err
}

func (n *Node) commitTransaction(ctx context.Context, txid string) (idgen.ID, error) {
	// An op whose deadline already passed is abandoned before any storage
	// write: the client has given up and will settle the outcome through
	// the §3.3.1 abort-or-redo path.
	if err := n.checkCtx(ctx); err != nil {
		return idgen.Null, err
	}
	n.tmu.RLock()
	t, live := n.txns[txid]
	prevID, finished := n.committedByUUID[txid]
	n.tmu.RUnlock()
	if !live {
		if finished {
			return prevID, nil // idempotent retry
		}
		return idgen.Null, ErrTxnNotFound
	}
	t.refreshLease(ctx)

	t.mu.Lock()
	for t.committing != nil {
		// Another commit attempt for this transaction is mid-flight (a
		// retried client racing its original, §3.3.1): wait for its
		// outcome rather than double-committing under a second ID. On
		// success the loop exits via t.done and the idempotent return
		// below; on failure this attempt claims the transaction itself.
		ch := t.committing
		t.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return idgen.Null, ctx.Err()
		}
		t.mu.Lock()
	}
	if t.done {
		t.mu.Unlock()
		// Raced with a concurrent finish: classify against the
		// idempotency table.
		n.tmu.RLock()
		id, committed := n.committedByUUID[txid]
		n.tmu.RUnlock()
		if committed {
			return id, nil
		}
		return idgen.Null, ErrTxnNotFound
	}
	// Claim the transaction for this attempt, then snapshot the write
	// buffer; the transaction stays live (and its pins held) until the
	// commit is durable.
	t.committing = make(chan struct{})
	writes := make(map[string][]byte, len(t.writes))
	for k, v := range t.writes {
		writes[k] = v
	}
	spilled := make([]string, 0, len(t.spilled))
	for k := range t.spilled {
		if _, rewritten := writes[k]; !rewritten {
			spilled = append(spilled, k)
		}
	}
	sort.Strings(spilled)
	spillDir := t.spillDir()
	t.mu.Unlock()

	// Read-only transactions have nothing to persist: assign an ID and
	// finish. No commit record is needed because no data must be made
	// visible.
	if len(writes) == 0 && len(spilled) == 0 {
		id := idgen.ID{Timestamp: n.gen.NewTimestamp(), UUID: txid}
		n.finishCommit(t, txid, id, nil, false)
		return id, nil
	}

	// The commit timestamp is assigned now (§3.1: "at commit time").
	id := idgen.ID{Timestamp: n.gen.NewTimestamp(), UUID: txid}

	// Step 1 payload: the packed layout (§8) writes one object for the
	// whole write set; the default layout writes one unique key per
	// version. Spilled transactions always use the default layout (their
	// payloads are already in storage).
	packed := n.cfg.PackedLayout && len(spilled) == 0 && len(writes) > 0
	var packedObj []byte
	items := make(map[string][]byte, len(writes))
	if packed {
		obj, err := records.Pack(writes)
		if err != nil {
			n.abandonCommit(t)
			return idgen.Null, fmt.Errorf("aft: packing write set: %w", err)
		}
		packedObj = obj
		items[records.PackKey(id)] = obj
	} else {
		for k, v := range writes {
			items[records.DataKey(k, id)] = v
		}
	}

	// Step 2 payload: the commit record.
	writeSet := make([]string, 0, len(writes)+len(spilled))
	for k := range writes {
		writeSet = append(writeSet, k)
	}
	writeSet = append(writeSet, spilled...)
	sort.Strings(writeSet)
	rec := records.NewCommitRecord(id, writeSet, n.cfg.NodeID)
	rec.Packed = packed
	// A client-sampled trace rides inside the record so peers receiving
	// the multicast delivery — and the fault manager recovering the
	// record after a crash — can attribute their work to the same trace.
	rec.TraceID = t.trace.SampledID()
	if len(spilled) > 0 {
		rec.SpillDir = spillDir
		rec.Spilled = spilled
	}
	payload, err := rec.Marshal()
	if err != nil {
		n.abandonCommit(t)
		return idgen.Null, fmt.Errorf("aft: encoding commit record: %w", err)
	}

	if n.store.Capabilities().BatchWrites {
		// Group pipeline: steps 1 and 2 are flushed together with other
		// in-flight commits; the flush also installs the record and
		// queues the multicast announcement (step 3 visibility).
		req := &commitReq{items: items, recKey: records.CommitKey(id), recVal: payload, rec: rec, trace: t.trace}
		wait := telemetry.StartSpan(ctx, "commit.flushwait")
		err := n.groupCommit(ctx, req)
		wait.End()
		if err != nil {
			n.abandonCommit(t)
			return idgen.Null, err
		}
		n.finishCommit(t, txid, id, rec, true)
	} else {
		// Direct path: step 1.
		sw := telemetry.StartSpan(ctx, "storage.write")
		err := n.writeVersions(ctx, items)
		sw.End()
		if err != nil {
			n.abandonCommit(t)
			return idgen.Null, fmt.Errorf("aft: persisting write set: %w", err)
		}
		// Step 2.
		sr := telemetry.StartSpan(ctx, "storage.putrecord")
		err = n.store.Put(ctx, records.CommitKey(id), payload)
		sr.End()
		if err != nil {
			n.abandonCommit(t)
			return idgen.Null, fmt.Errorf("aft: persisting commit record: %w", err)
		}
		// Step 3: acknowledge and make visible.
		n.finishCommit(t, txid, id, rec, false)
	}

	// Warm the data cache with the values just written — they are the
	// newest versions and likely to be read soon. The packed layout
	// caches the whole packed object under its pack key, exactly what a
	// subsequent read of any of its keys will fetch.
	if n.data != nil {
		if packed {
			n.data.put(records.PackKey(id), packedObj)
		} else {
			for k, v := range writes {
				n.data.put(records.DataKey(k, id), v)
			}
		}
	}
	n.metrics.Committed.Add(1)
	return id, nil
}

// finishCommit retires the transaction state and, when rec is non-nil and
// not already installed by the group-commit flush, installs the commit
// into the local metadata cache and multicast queue.
func (n *Node) finishCommit(t *txnState, txid string, id idgen.ID, rec *records.CommitRecord, installed bool) {
	if rec != nil && !installed {
		n.meta.mu.Lock()
		n.installLocked(rec)
		n.meta.mu.Unlock()
		n.recMu.Lock()
		n.recent = append(n.recent, rec)
		n.recMu.Unlock()
	}
	n.tmu.Lock()
	n.committedByUUID[txid] = id
	delete(n.txns, txid)
	n.tmu.Unlock()
	t.mu.Lock()
	t.done = true
	if t.committing != nil {
		close(t.committing)
		t.committing = nil
	}
	n.unpin(t)
	t.mu.Unlock()
	n.release()
}

// abandonCommit releases a failed attempt's claim on the transaction; it
// stays live (pins held, state intact) for a retry.
func (n *Node) abandonCommit(t *txnState) {
	t.mu.Lock()
	close(t.committing)
	t.committing = nil
	t.mu.Unlock()
}

// writeVersions persists items using the engine's batch primitive when
// available (chunked to the engine limit), falling back to sequential puts
// — exactly the behaviour Figure 2 measures for DynamoDB versus Redis/S3.
func (n *Node) writeVersions(ctx context.Context, items map[string][]byte) error {
	caps := n.store.Capabilities()
	if !caps.BatchWrites {
		return n.writeSequential(ctx, items)
	}
	limit := caps.MaxBatchSize
	if limit <= 0 {
		limit = len(items)
	}
	batch := make(map[string][]byte, limit)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := n.store.BatchPut(ctx, batch)
		if errors.Is(err, storage.ErrBatchUnsupported) {
			err = n.writeSequential(ctx, batch)
		}
		batch = make(map[string][]byte, limit)
		return err
	}
	for k, v := range items {
		batch[k] = v
		if len(batch) >= limit {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

func (n *Node) writeSequential(ctx context.Context, items map[string][]byte) error {
	for k, v := range items {
		if err := n.store.Put(ctx, k, v); err != nil {
			return err
		}
	}
	return nil
}
