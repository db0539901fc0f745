package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aft/internal/chaos"
	"aft/internal/checker"
	"aft/internal/cluster"
	"aft/internal/core"
	"aft/internal/latency"
	"aft/internal/storage"
	"aft/internal/storage/dynamosim"
	"aft/internal/storage/walengine"
	"aft/internal/wire"
	"aft/internal/workload"
)

// spec is one named workload: a traffic mix. Every mix uses the §6.1.2 request
// shape: 4 KB values and Zipf 1.0 keys.
type spec struct {
	name    string
	backend string  // "dynamodb" (dynamosim) or "wal" (walengine)
	scale   float64 // DynamoDB latency-model scale; 0 models no latency
	nodes   int
	wire    bool // clients reach the node over loopback TCP
	keys    int
	cache   int // data-cache entries per node
	funcs   int // functions per request
	writes  int // writes per function
	reads   int // reads per function
	clients int // closed-loop client goroutines; 0 selects the open loop
	rate    float64
	warmup  int // requests run before the timed window
	// gc is the fault-manager scan and global-GC period. A round collects
	// at most 5000 transactions, so paper-tcp (about 5k txn/s) needs
	// several rounds a second; wal-write (about 4k txn/s) runs two, since
	// every round lists the whole log index under the engine's read lock.
	gc time.Duration
}

const (
	valueBytes = 4096
	zipfTheta  = 1.0

	// Background periods: the paper's 1 s multicast scaled down so that
	// several multicast, local-GC and global-GC rounds run in every
	// window, and storage and metadata reach a steady state.
	multicastPeriod = 100 * time.Millisecond
	localGCPeriod   = 250 * time.Millisecond

	// preloadClients write the keys concurrently before the warm-up:
	// one key at a time is far too slow over modeled storage latency.
	preloadClients = 128
	// warmClients drives the open-loop workload's warm-up.
	warmClients = 64
	// maxInFlight bounds open-loop requests outstanding at once; the
	// generator waits (and its lag shows) beyond it.
	maxInFlight = 1024
)

var workloads = []spec{
	// CPU-bound on the networked path: wire, core, record encoding and
	// the Go runtime, while storage costs almost nothing. The key space
	// fits the default 4,096-entry data cache.
	{name: "paper-tcp", backend: "dynamodb", nodes: 1, wire: true,
		keys: 2000, cache: 4096, funcs: 2, writes: 1, reads: 2,
		clients: 64, warmup: 4000, gc: 250 * time.Millisecond},
	// The paper's deployment: two nodes behind the load balancer over
	// DynamoDB-like latency, at a fixed arrival rate well below capacity.
	// Bound by storage round trips, so group commit, read batching, the
	// data cache, multicast and GC decide it. The latency model runs at
	// full scale: scaled down to 0.1, its sub-millisecond sleeps are
	// swamped by the tens-of-milliseconds timer-wakeup stalls of a shared
	// 2-vCPU VM, and p99 then measures the host. The key space is 12x the
	// data cache (shrunk to 1,024 entries to keep the in-memory table
	// small).
	{name: "dynamo-2node", backend: "dynamodb", scale: 1, nodes: 2,
		keys: 12288, cache: 1024, funcs: 2, writes: 1, reads: 2,
		rate: 1600, warmup: 3000, gc: 250 * time.Millisecond},
	// Durability-bound: write-only requests over the WAL engine with real
	// fsync, so group commit feeds fsync coalescing and compaction runs.
	// Compaction runs back to back and takes whatever CPU the requests
	// leave; with 32 clients the latency median sat on the slope of the
	// tail its stalls make and moved by up to 30% run to run. With 64,
	// each request waits through more flushes and the figures follow
	// throughput.
	{name: "wal-write", backend: "wal", nodes: 1,
		keys: 10000, cache: 4096, funcs: 2, writes: 2, reads: 0,
		clients: 64, warmup: 3000, gc: 500 * time.Millisecond},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// env is one built deployment with its preloaded keys.
type env struct {
	wl      spec
	dyn     *dynamosim.Store
	wal     *walengine.Store
	dir     string
	cluster *cluster.Cluster
	server  *wire.Server
	wclient *wire.Client
	client  chaos.Client // what requests call: wire client, node or balancer
	check   *checker.Recorder
	runner  *chaos.Runner
	gen     *workload.Generator
}

// setup builds the deployment for wl, preloads every key and runs the
// warm-up. With tr non-nil the cluster runs over the timing decorator and
// requests go through a timed client; the tracer stays off until the
// traced window.
func setup(ctx context.Context, wl spec, seed int64, workdir string, tr *tracer) (*env, error) {
	e := &env{wl: wl}
	var store storage.Store
	switch wl.backend {
	case "dynamodb":
		opts := dynamosim.Options{}
		if wl.scale > 0 {
			opts.Latency = latency.NewModel(latency.DynamoDBProfile(), seed)
			opts.Sleeper = &latency.Sleeper{Scale: wl.scale}
		}
		e.dyn = dynamosim.New(opts)
		store = e.dyn
	case "wal":
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		if e.wal, err = walengine.Open(filepath.Join(dir, "log"), walengine.Options{}); err != nil {
			e.close()
			return nil, err
		}
		store = e.wal
	default:
		return nil, fmt.Errorf("unknown backend %q", wl.backend)
	}
	if tr != nil {
		store = &timedStore{inner: store, tr: tr}
	}
	c, err := cluster.New(cluster.Config{
		Nodes: wl.nodes,
		Store: store,
		Node: core.Config{
			EnableDataCache:  true,
			DataCacheEntries: wl.cache,
		},
		MulticastPeriod:  multicastPeriod,
		PruneMulticast:   true,
		LocalGCInterval:  localGCPeriod,
		GlobalGCInterval: wl.gc,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	if err := c.Start(ctx); err != nil {
		e.close()
		return nil, err
	}
	e.cluster = c
	e.client = c.Client()
	layer := "core"
	if wl.wire {
		e.server = wire.NewServer(c.Nodes()[0])
		addr, err := e.server.Listen("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		if e.wclient, err = wire.DialWith(addr.String(), wire.DialConfig{MaxConns: 2}); err != nil {
			e.close()
			return nil, err
		}
		e.client = e.wclient
		layer = "wire"
	}
	e.check = checker.New()
	e.runner = &chaos.Runner{Payload: workload.Payload(seed, valueBytes), Check: e.check}
	e.runner.Client = e.client
	if tr != nil {
		e.runner.Client = newTimedClient(e.client, tr, layer)
	}
	e.gen = workload.NewGenerator(seed, workload.NewZipf(seed+100, wl.keys, zipfTheta),
		wl.funcs, wl.writes, wl.reads)

	if err := e.preload(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	clients := wl.clients
	if clients == 0 {
		clients = warmClients
	}
	if res := closedLoop(ctx, e, nil, clients, wl.warmup, time.Now(), 0); res.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", res.failed, res.attempted, res.firstErr)
	}
	return e, nil
}

// preload writes every key once, one key per request: each key's preload
// commit record is then superseded by the key's first rewrite, so commit
// metadata and storage start at their steady-state size instead of growing
// through the window while the Zipf tail is first rewritten.
func (e *env) preload(ctx context.Context) error {
	next := make(chan int)
	errs := make(chan error, preloadClients)
	var wg sync.WaitGroup
	for w := 0; w < preloadClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				req := workload.Request{Funcs: [][]workload.Op{{{Kind: workload.OpWrite, Key: workload.KeyName(i)}}}}
				if err := e.runner.Do(ctx, req); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var err error
feed:
	for i := 0; i < e.wl.keys; i++ {
		select {
		case next <- i:
		case err = <-errs:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	if err != nil {
		return err
	}
	e.cluster.FlushMulticast()
	return nil
}

// keyNames lists every key of the workload.
func (e *env) keyNames() []string {
	keys := make([]string, e.wl.keys)
	for i := range keys {
		keys[i] = workload.KeyName(i)
	}
	return keys
}

// close stops every goroutine the env started and removes its files. The
// deployment is discarded, so close errors change nothing and are dropped.
func (e *env) close() {
	if e.wclient != nil {
		e.wclient.Close()
	}
	if e.server != nil {
		_ = e.server.Close()
	}
	if e.cluster != nil {
		e.cluster.Stop()
	}
	if e.wal != nil {
		_ = e.wal.Close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}
