// Command perfbench is the repository's benchmark. It runs one named
// workload in one process, through the public functions of each layer,
// checks every run's history with the consistency checker, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of its output. See README.md for the metric dictionary.
//
// Usage (from the repository root; run.sh builds and forwards flags):
//
//	bash perfbench/run.sh --workload paper-tcp --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"aft/internal/checker"
	"aft/internal/storage"
	"aft/internal/workload"
)

// gitCommit is set at build time by run.sh.
var gitCommit = "unknown"

// setupRuns is how many times a run builds the deployment; setup_s is the
// median, and the last build is the one measured.
const setupRuns = 3

// finalReaders read the final state in parallel after the quiesce step.
const finalReaders = 64

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    int64
	seconds int
	trace   bool
	workdir string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload to run: paper-tcp, dynamo-2node or wal-write")
	seed := flags.Int64("seed", 1, "seed of the generated inputs")
	seconds := flags.Int("seconds", 30, "length of the measured window")
	trace := flags.Int("trace", 0, "1 prints per-layer metrics from a traced window and writes spans")
	workdir := flags.String("workdir", ".bench_build", "directory for WAL files and span output")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-tcp|dynamo-2node|wal-write), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := bench(context.Background(), wl, o, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res.Metrics == nil {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// header is the host and config block every result carries.
func header(wl spec, o options) map[string]any {
	cfg := map[string]any{
		"workload": wl.name, "backend": wl.backend, "latency_scale": wl.scale,
		"seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nodes": wl.nodes, "wire": wl.wire, "keys": wl.keys,
		"data_cache_entries": wl.cache, "functions": wl.funcs,
		"writes_per_function": wl.writes, "reads_per_function": wl.reads,
		"value_bytes": valueBytes, "zipf": zipfTheta,
		"warmup_requests": wl.warmup, "setup_runs": setupRuns,
		"multicast_period_ms": multicastPeriod.Milliseconds(),
		"local_gc_period_ms":  localGCPeriod.Milliseconds(),
		"global_gc_period_ms": wl.gc.Milliseconds(),
	}
	if wl.clients > 0 {
		cfg["loop"], cfg["clients"] = "closed", wl.clients
	} else {
		cfg["loop"], cfg["arrivals_per_s"] = "open", wl.rate
	}
	if wl.wire {
		cfg["wire_max_conns"] = 2
	}
	return map[string]any{
		"host": map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
			"git_commit": gitCommit,
		},
		"config": cfg,
	}
}

// bench runs one workload. A result without Metrics means the run failed
// before producing figures; one with Correct false failed the checker.
func bench(ctx context.Context, wl spec, o options, stdout io.Writer) (result, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	setups := make([]float64, setupRuns)
	var e *env
	for i := range setups {
		start := time.Now()
		built, err := setup(ctx, wl, o.seed, o.workdir, tr)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
		if i < setupRuns-1 {
			built.close()
		} else {
			e = built
		}
	}
	defer e.close()

	// End-to-end figures come from an untraced window. A traced run
	// halves it and follows it with an equal traced window, whose figures
	// are the per-layer ones.
	window := time.Duration(o.seconds) * time.Second
	if o.trace {
		window /= 2
	}
	plain := e.drive(ctx, tr, o.seed, window)
	attempted, failed := plain.attempted, plain.failed
	var traced loadResult
	var tBefore, tAfter counters
	if o.trace {
		tr.on.Store(true)
		tBefore = snapshot(e, tr)
		traced = e.drive(ctx, tr, o.seed+1, window)
		tAfter = snapshot(e, tr)
		tr.on.Store(false)
		attempted += traced.attempted
		failed += traced.failed
	}
	if failed > 0 {
		first := plain.firstErr
		if first == nil {
			first = traced.firstErr
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed; first: %v\n", failed, attempted, first)
	}

	if err := e.quiesce(ctx); err != nil {
		return result{}, fmt.Errorf("quiesce: %w", err)
	}
	metadata := 0
	for _, n := range e.cluster.Nodes() {
		metadata += n.MetadataSize()
	}
	verdict, err := e.audit(ctx)
	if err != nil {
		return result{}, fmt.Errorf("audit: %w", err)
	}
	hdr := header(wl, o)
	hdr["verdict"] = verdict.String()
	hdr["latency_samples"] = len(plain.lat)
	if o.trace {
		hdr["traced_latency_samples"] = len(traced.lat)
	}
	if line, err := json.Marshal(hdr); err == nil {
		fmt.Fprintf(stdout, "%s\n", line)
	}
	res := result{Correct: verdict.Clean(), Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !res.Correct {
		return res, fmt.Errorf("checker: %s %v", verdict, verdict.Violations)
	}

	if !o.trace {
		// The checker's history is dropped before the heap is read, so
		// the reading is the deployment's own.
		e.check, e.runner.Check = nil, nil
		runtime.GC()
		heap := heapLiveBytes()
		put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
		put("txn_per_s", float64(len(plain.lat))/plain.elapsed.Seconds(), "1/s")
		put("txn_p50_ms", ms(plain.latencyQuantile(0.50)), "ms")
		put("txn_p99_ms", ms(plain.latencyQuantile(0.99)), "ms")
		put("cpu_us_per_txn", plain.cpuPerTxn(), "us")
		put("heap_live_mb", float64(heap)/1e6, "MB")
		put("setup_s", median(setups), "s")
		return res, nil
	}
	walRatio, err := e.walSpace(ctx)
	if err != nil {
		return result{}, err
	}
	res.Metrics = perLayer(tBefore, tAfter, traced, plain.cpuPerTxn(), metadata, walRatio)
	path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, o.seed))
	if err := tr.writeSpans(path, hdr); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return res, nil
}

// collectRound bounds the quiesce step's global collect round, as the
// cluster's own global-GC loop bounds each of its rounds.
const collectRound = 5000

// quiesce brings the stopped deployment to a steady state: one multicast
// round on every node, one local metadata sweep, one global collect round,
// and a Go GC.
func (e *env) quiesce(ctx context.Context) error {
	e.cluster.FlushMulticast()
	for _, n := range e.cluster.Nodes() {
		n.SweepLocalMetadata(0)
	}
	if _, err := e.cluster.FaultManager().CollectOnce(ctx, collectRound); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

// bareStore is the engine under the deployment, without the decorator.
func (e *env) bareStore() storage.Store {
	if e.wal != nil {
		return e.wal
	}
	return e.dyn
}

// audit settles commits of unknown outcome against storage, reads every
// key's final state and replays the recorded history through the checker.
func (e *env) audit(ctx context.Context) (checker.Verdict, error) {
	if _, err := e.check.ResolveStorage(ctx, e.bareStore()); err != nil {
		return checker.Verdict{}, err
	}
	keys := e.keyNames()
	chunk := (len(keys) + finalReaders - 1) / finalReaders
	final := make(map[string]workload.Meta, len(keys))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for lo := 0; lo < len(keys); lo += chunk {
		part := keys[lo:min(lo+chunk, len(keys))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.runner.FinalState(ctx, part)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			for k, m := range got {
				final[k] = m
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return checker.Verdict{}, firstErr
	}
	return e.check.Verdict(final), nil
}

// walSpace returns the WAL directory's size on disk per byte of live keys
// and values, or 0 for other backends.
func (e *env) walSpace(ctx context.Context) (float64, error) {
	if e.wal == nil {
		return 0, nil
	}
	keys, err := e.wal.List(ctx, "")
	if err != nil {
		return 0, err
	}
	var live int64
	for lo := 0; lo < len(keys); lo += 1000 {
		part := keys[lo:min(lo+1000, len(keys))]
		vals, err := e.wal.BatchGet(ctx, part)
		if err != nil {
			return 0, err
		}
		for k, v := range vals {
			live += int64(len(k) + len(v))
		}
	}
	var disk int64
	err = filepath.WalkDir(e.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		disk += info.Size()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return ratio(float64(disk), float64(live)), nil
}

// perLayer computes the per-layer metrics of the traced window between
// snapshots b and a.
func perLayer(b, a counters, res loadResult, untracedCPUPerTxn float64, metadata int, walRatio float64) map[string]metric {
	txns := float64(len(res.lat))
	per := func(v int64) float64 { return ratio(float64(v), txns) }
	tm := func(name string) float64 { return meanUs(b.timers[name], a.timers[name]) }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// wire
	for _, op := range []string{"start", "get", "put", "commit"} {
		put("wire.call_us."+op, tm("wire."+op), "us")
		put("core.call_us."+op, tm("core."+op), "us")
	}
	nodeReadUs := ratio(float64(a.readSum-b.readSum)/1e3, float64(a.readN-b.readN))
	nodeCommitUs := ratio(float64(a.commitSum-b.commitSum)/1e3, float64(a.commitN-b.commitN))
	put("wire.node_share.get", ratio(nodeReadUs, tm("wire.get")), "ratio")
	put("wire.node_share.commit", ratio(nodeCommitUs, tm("wire.commit")), "ratio")
	wc, wcb, ws, wsb := a.wireClient, b.wireClient, a.wireServer, b.wireServer
	put("wire.frames_per_flush.client", ratio(float64(wc.FramesSent-wcb.FramesSent), float64(wc.Flushes-wcb.Flushes)), "frames/flush")
	put("wire.frames_per_flush.server", ratio(float64(ws.FramesSent-wsb.FramesSent), float64(ws.Flushes-wsb.Flushes)), "frames/flush")
	put("wire.bytes_per_txn", per(wc.BytesSent+wc.BytesRecv-wcb.BytesSent-wcb.BytesRecv), "B/txn")
	put("os.write_syscalls_per_txn", per(a.syscw-b.syscw), "count/txn")
	put("os.read_syscalls_per_txn", per(a.syscr-b.syscr), "count/txn")

	// core
	n, nb := a.node, b.node
	put("core.commits_per_flush", ratio(float64(n.GroupedCommits-nb.GroupedCommits), float64(n.GroupFlushes-nb.GroupFlushes)), "commits/flush")
	reads := float64(n.Reads - nb.Reads)
	put("core.cache_hit_ratio", ratio(float64(n.CacheHits-nb.CacheHits), reads), "ratio")
	remote, coalesced := float64(n.RemoteFetches-nb.RemoteFetches), float64(n.CoalescedFetches-nb.CoalescedFetches)
	put("core.remote_fetches_per_read", ratio(remote, reads), "ratio")
	put("core.coalesced_fetch_ratio", ratio(coalesced, remote+coalesced), "ratio")
	put("core.redo_per_txn", per(a.runner.Redos-b.runner.Redos), "count/txn")
	put("core.metadata_records", float64(metadata), "count")

	// storage, records, wal
	put("storage.calls_per_txn", per(a.store.Calls()-b.store.Calls()), "calls/txn")
	for _, op := range []string{"get", "put", "batch_put", "batch_get", "list", "batch_delete"} {
		put("storage.call_us."+op, tm("storage."+op), "us")
	}
	put("storage.items_per_batch_put", ratio(float64(a.store.BatchItems-b.store.BatchItems), float64(a.store.Batches-b.store.Batches)), "items/batch")
	put("storage.write_bytes_per_user_byte", ratio(float64(a.storeBytes-b.storeBytes), float64(a.userBytes-b.userBytes)), "ratio")
	put("records.commit_record_bytes", ratio(float64(a.commitRecBytes-b.commitRecBytes), float64(a.commitRecN-b.commitRecN)), "B")
	put("wal.appends_per_fsync", ratio(float64(a.wal.Appends-b.wal.Appends), float64(a.wal.Fsyncs-b.wal.Fsyncs)), "appends/fsync")
	put("wal.fsyncs_per_txn", per(a.wal.Fsyncs-b.wal.Fsyncs), "count/txn")
	put("wal.compactions_per_ktxn", 1000*per(a.wal.Compactions-b.wal.Compactions), "count/ktxn")
	put("wal.bytes_reclaimed_per_txn", per(a.wal.BytesReclaimed-b.wal.BytesReclaimed), "B/txn")
	put("wal.dir_bytes_per_live_byte", walRatio, "ratio")

	// multicast, faultmgr
	sent, pruned := float64(a.bus.Broadcast-b.bus.Broadcast), float64(a.bus.Pruned-b.bus.Pruned)
	put("multicast.broadcasts_per_txn", ratio(sent, txns), "count/txn")
	put("multicast.pruned_ratio", ratio(pruned, sent+pruned), "ratio")
	put("faultmgr.recovered_per_ktxn", 1000*per(a.fm.Recovered-b.fm.Recovered), "count/ktxn")
	put("faultmgr.versions_deleted_per_txn", per(a.fm.VersionsDeleted-b.fm.VersionsDeleted), "count/txn")

	// go
	put("go.allocs_per_txn", per(int64(a.allocObjects-b.allocObjects)), "count/txn")
	put("go.alloc_bytes_per_txn", per(int64(a.allocBytes-b.allocBytes)), "B/txn")
	put("go.gc_cpu_share", ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU), "ratio")
	put("go.sched_latency_p99_us", histQuantile(b.sched, a.sched, 0.99)*1e6, "us")

	// bench
	put("bench.trace_overhead", ratio(res.cpuPerTxn(), untracedCPUPerTxn), "ratio")
	put("bench.gen_lag_p99_ms", ms(quantile(res.lag, 0.99)), "ms")
	put("bench.txn_fail_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio")
	put("bench.latency_samples", txns, "count")
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
