package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aft/internal/chaos"
	"aft/internal/core"
	"aft/internal/faultmgr"
	"aft/internal/multicast"
	"aft/internal/storage"
	"aft/internal/storage/walengine"
	"aft/internal/wire"
)

// counters is a point-in-time copy of every counter the layers expose,
// plus the process's own. A window's figures are the difference of two.
type counters struct {
	node       core.NodeMetricsSnapshot // summed over live nodes
	commitN    uint64                   // node commit-latency histogram
	commitSum  time.Duration
	readN      uint64 // node read-latency histogram
	readSum    time.Duration
	wireClient wire.MetricsSnapshot
	wireServer wire.MetricsSnapshot
	store      storage.Snapshot
	wal        walengine.MetricsSnapshot
	bus        multicast.BusSnapshot
	fm         faultmgr.MetricsSnapshot
	runner     chaos.RunnerMetricsSnapshot

	cpu          time.Duration // process user+sys CPU (getrusage)
	syscr, syscw int64         // read/write syscalls (/proc/self/io)

	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	sched                    metrics.Float64Histogram

	userBytes, storeBytes, commitRecN, commitRecBytes int64
	timers                                            map[string]timerSnap
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

// snapshot reads every counter of e, and of tr when non-nil.
func snapshot(e *env, tr *tracer) counters {
	var c counters
	for _, n := range e.cluster.Nodes() {
		m := n.Metrics().Snapshot()
		c.node.Committed += m.Committed
		c.node.Reads += m.Reads
		c.node.CacheHits += m.CacheHits
		c.node.RemoteFetches += m.RemoteFetches
		c.node.CoalescedFetches += m.CoalescedFetches
		c.node.GroupFlushes += m.GroupFlushes
		c.node.GroupedCommits += m.GroupedCommits
		cl, rl := n.CommitLatency(), n.ReadLatency()
		c.commitN += cl.Count
		c.commitSum += cl.Sum
		c.readN += rl.Count
		c.readSum += rl.Sum
	}
	if e.wclient != nil {
		c.wireClient = e.wclient.Metrics().Snapshot()
		c.wireServer = e.server.Metrics().Snapshot()
	}
	if e.dyn != nil {
		c.store = e.dyn.Metrics().Snapshot()
	}
	if e.wal != nil {
		c.store = e.wal.Metrics().Snapshot()
		c.wal = e.wal.WAL().Snapshot()
	}
	c.bus = e.cluster.Bus().Metrics().Snapshot()
	c.fm = e.cluster.FaultManager().Metrics().Snapshot()
	c.runner = e.runner.Metrics().Snapshot()

	c.cpu = processCPU()
	c.syscr, c.syscw = procIO()

	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)
	c.allocObjects = samples[0].Value.Uint64()
	c.allocBytes = samples[1].Value.Uint64()
	c.gcCPU = samples[2].Value.Float64()
	c.totalCPU = samples[3].Value.Float64()
	h := samples[4].Value.Float64Histogram()
	c.sched = metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: h.Buckets,
	}

	if tr != nil {
		c.userBytes = tr.userBytes.Load()
		c.storeBytes = tr.storeBytes.Load()
		c.commitRecN = tr.commitRecN.Load()
		c.commitRecBytes = tr.commitRecBytes.Load()
		c.timers = make(map[string]timerSnap, len(tr.timers))
		for name := range tr.timers {
			c.timers[name] = tr.snap(name)
		}
	}
	return c
}

// processCPU returns the process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procIO returns the process's read and write syscall counts, or zeros
// where /proc/self/io is unavailable.
func procIO() (syscr, syscw int64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseInt(val, 10, 64)
		switch name {
		case "syscr":
			syscr = v
		case "syscw":
			syscw = v
		}
	}
	return syscr, syscw
}

// heapLiveBytes reads the live heap as of the last completed GC cycle.
func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histQuantile returns the q-quantile of the observations between two
// snapshots of a runtime/metrics histogram, at the upper bound of the
// bucket holding it (the lower bound for the unbounded last bucket).
func histQuantile(before, after metrics.Float64Histogram, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			counts[i] -= before.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total) + 0.5)
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			hi := after.Buckets[i+1]
			if hi > 1e300 {
				return after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}
