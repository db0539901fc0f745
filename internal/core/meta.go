package core

// meta.go is the node's metadata core: the Commit Set Cache, the
// key-version index, the locally-deleted markers and the spill floors
// (§3.1), all guarded by one RWMutex.
//
// The version index is allowed to be PARTIAL relative to the commit set: a
// record recovered from storage is indexed only under the keys whose
// fallback reads verified their version lists (installRecoveredLocked),
// never under keys whose newer versions this node may have spilled.
//
// Lock ordering, node-wide:
//
//	txnState.mu  →  meta.mu  →  pinMu
//
// The transaction table lock (tmu) and the multicast queue lock (recMu)
// are leaves: never held while acquiring any other lock. Reads select and
// pin under the read lock. Merges, sweeps and budget spills snapshot the
// cache first and then write-lock one record at a time, re-checking
// presence, pins and supersedence under the lock, so readers never wait
// behind a whole pass.

import (
	"sort"
	"sync"

	"aft/internal/idgen"
	"aft/internal/records"
)

// metaTable is the metadata core; every field is guarded by mu.
type metaTable struct {
	mu sync.RWMutex
	// index maps each user key to its known committed versions in
	// ascending ID order.
	index versionIndex
	// commits is the Commit Set Cache.
	commits map[idgen.ID]*records.CommitRecord
	// locallyDeleted holds transactions the local GC has removed,
	// answering the global GC's unanimity queries (§5.2).
	locallyDeleted map[idgen.ID]*records.CommitRecord
	// spillFloor marks keys whose newest resident version a budget spill
	// evicted: key → the evicted ID. While a key has a floor, its index
	// cannot be trusted to hold the newest committed version — a later
	// full-index install of an OLDER record (a fault-manager scan
	// recovery, a promotion announcement) would otherwise become the
	// key's apparent newest and reads would serve it without consulting
	// storage. The read path verifies floored keys against storage once
	// per transaction; installing any version >= the floor clears it.
	spillFloor map[string]idgen.ID
}

func newMetaTable() metaTable {
	return metaTable{
		index:          make(versionIndex),
		commits:        make(map[idgen.ID]*records.CommitRecord),
		locallyDeleted: make(map[idgen.ID]*records.CommitRecord),
		spillFloor:     make(map[string]idgen.ID),
	}
}

// indexLocked makes id a candidate for key and lifts key's refetch floor
// if id supersedes it: with a version >= the evicted newest resident, the
// index's top is again at least as new as anything the spill dropped, so
// reads can trust it. The caller holds the write lock.
func (m *metaTable) indexLocked(key string, id idgen.ID) {
	m.index.insert(key, id)
	if fl, ok := m.spillFloor[key]; ok && !id.Less(fl) {
		delete(m.spillFloor, key)
	}
}

// installLocked makes a committed transaction visible locally: it enters
// the Commit Set Cache and its write set is indexed. The caller holds
// meta.mu for writing.
func (n *Node) installLocked(rec *records.CommitRecord) bool {
	id := rec.ID()
	_, cached := n.meta.commits[id]
	if !cached {
		if _, ok := n.meta.locallyDeleted[id]; ok {
			return false // already GC'd locally; do not resurrect
		}
		n.meta.commits[id] = rec
		n.metaBytes.Add(int64(rec.ApproxBytes()))
	}
	// An already-cached record may be only partially indexed, if it
	// arrived through a read fallback (installRecoveredLocked indexes
	// just the verified key). A full install (commit, multicast,
	// fault-manager push) vouches for the whole write set, so upgrade it
	// to fully selectable; without this, the announcement would be
	// swallowed and the record could stay invisible to reads of its other
	// keys forever.
	for _, k := range rec.WriteSet {
		n.meta.indexLocked(k, id)
	}
	return !cached
}

// floorSet reports whether key currently has a refetch floor — its index
// may be hiding a spilled newer version, so a read must verify against
// storage before trusting resident candidates.
func (n *Node) floorSet(key string) bool {
	n.meta.mu.RLock()
	_, ok := n.meta.spillFloor[key]
	n.meta.mu.RUnlock()
	return ok
}

// installRecoveredLocked installs a record recovered from storage for a
// read of key (the partial-metadata fallback), resurrecting it even if
// the local GC had deleted it. The local sweep's supersedence view is
// ownership-scoped, so a cross-shard record can be locally deleted while
// it is still the newest version of a NON-owned key this node must serve;
// without resurrection such keys would read as missing forever after a
// sweep. Clearing the locally-deleted marker flips this node's GC vote
// back to "cached" (Caches), which is conservative for the owner-voted
// global GC; if the data was already collected, the payload fetch fails
// and the ErrVersionVanished retry re-selects.
//
// The record is indexed ONLY under key, not its whole write set. The
// fallback verified key's version list against storage (the List is
// ground truth), so key's candidates are complete; the record's OTHER
// keys were NOT verified, and indexing them would resurrect an old
// version as the apparent newest of a key whose newer records this node
// spilled or never bootstrapped. A later read of a sibling key sees its
// own miss, runs its own fallback, and re-indexes the cached record
// without a second round trip (fetchKeyRecords' index-aware dedup). The
// caller holds meta.mu for writing.
func (n *Node) installRecoveredLocked(rec *records.CommitRecord, key string) bool {
	id := rec.ID()
	// Cached already — possibly selectable only for sibling keys after
	// an earlier recovery; either way make it a candidate for THIS key.
	n.meta.indexLocked(key, id)
	if _, ok := n.meta.commits[id]; ok {
		return false
	}
	delete(n.meta.locallyDeleted, id)
	n.meta.commits[id] = rec
	n.metaBytes.Add(int64(rec.ApproxBytes()))
	return true
}

// removeLocked undoes installLocked: the record leaves the Commit Set
// Cache and index, and its cached payloads are evicted. When markDeleted
// is set the removal is recorded for the global GC (§5.2). The caller
// holds meta.mu for writing.
func (n *Node) removeLocked(rec *records.CommitRecord, markDeleted bool) {
	id := rec.ID()
	delete(n.meta.commits, id)
	for _, k := range rec.WriteSet {
		n.meta.index.remove(k, id)
		sk := rec.StorageKeyFor(k)
		n.data.evict(sk)
		if rec.Packed {
			// The per-key entries cached by extractPacked leave with the
			// pack object; nothing can reference them once the version is
			// unindexed, and keeping them would squat LRU slots.
			n.data.evict(packEntryKey(sk, k))
		}
	}
	if markDeleted {
		n.meta.locallyDeleted[id] = rec
	}
	n.metaBytes.Add(-int64(rec.ApproxBytes()))
}

// cachedRecord returns id's commit record if this node caches it.
func (n *Node) cachedRecord(id idgen.ID) (*records.CommitRecord, bool) {
	n.meta.mu.RLock()
	rec, ok := n.meta.commits[id]
	n.meta.mu.RUnlock()
	return rec, ok
}

// KnownCommits returns a snapshot of the Commit Set Cache in ascending ID
// order. Internal callers (sweep, spill) revalidate each record under the
// write lock before acting on it.
func (n *Node) KnownCommits() []*records.CommitRecord {
	n.meta.mu.RLock()
	out := make([]*records.CommitRecord, 0, len(n.meta.commits))
	for _, rec := range n.meta.commits {
		out = append(out, rec)
	}
	n.meta.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID().Less(out[j].ID()) })
	return out
}
