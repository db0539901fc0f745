package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/workload"
)

// sliceLen is the length of the slices a window is cut into: the latency
// and CPU figures are the median of their per-slice values, so a stall in
// one slice moves them no more than any other outlier slice.
const sliceLen = time.Second

// sample is one committed request: when it finished, as an offset from
// the window's start, and its latency from first Start to acked commit.
type sample struct{ at, lat time.Duration }

// tick is the process CPU and the commit count at one slice boundary.
type tick struct {
	cpu     time.Duration
	commits int64
}

// loadResult is what one load window observed from the client side.
type loadResult struct {
	lat       []sample
	lag       []time.Duration // open loop: how late each request was sent
	ticks     []tick          // at every slice boundary of the window
	attempted int64
	failed    int64
	firstErr  error
	elapsed   time.Duration // window start until the last request finished
}

func (r *loadResult) record(err error, start, due time.Time) {
	now := time.Now()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat = append(r.lat, sample{at: now.Sub(start), lat: now.Sub(due)})
}

func (r *loadResult) merge(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.lat = append(r.lat, o.lat...)
}

// drive runs the workload's load for dur, sampling process CPU and the
// commit count at every slice boundary.
func (e *env) drive(ctx context.Context, tr *tracer, seed int64, dur time.Duration) loadResult {
	start := time.Now()
	slices := int(dur / sliceLen)
	ticks := make([]tick, slices+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range ticks {
			time.Sleep(time.Until(start.Add(time.Duration(i) * sliceLen)))
			ticks[i] = tick{cpu: processCPU(), commits: e.runner.Metrics().Commits.Load()}
		}
	}()
	var res loadResult
	if e.wl.clients > 0 {
		res = closedLoop(ctx, e, tr, e.wl.clients, 0, start, dur)
	} else {
		res = openLoop(ctx, e, tr, e.wl.rate, seed, start, dur)
	}
	wg.Wait()
	res.ticks = ticks
	return res
}

// do runs one request, redos included, under a root span when tracing.
func (e *env) do(ctx context.Context, tr *tracer, req workload.Request) error {
	ctx, done := tr.begin(ctx, spanTxn)
	defer end(done)
	return e.runner.Do(ctx, req)
}

// closedLoop runs clients goroutines from start, each sending its next
// request when the previous one has finished, until n requests were
// issued (n > 0) or dur has passed (dur > 0).
func closedLoop(ctx context.Context, e *env, tr *tracer, clients, n int, start time.Time, dur time.Duration) loadResult {
	var issued atomic.Int64
	deadline := start.Add(dur)
	parts := make([]loadResult, clients)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(r *loadResult) {
			defer wg.Done()
			for {
				if n > 0 && issued.Add(1) > int64(n) {
					return
				}
				if dur > 0 && !time.Now().Before(deadline) {
					return
				}
				req := e.gen.Next()
				sent := time.Now()
				r.record(e.do(ctx, tr, req), start, sent)
			}
		}(&parts[i])
	}
	wg.Wait()
	var res loadResult
	for i := range parts {
		res.merge(&parts[i])
	}
	res.elapsed = time.Since(start)
	return res
}

// openLoop sends requests at Poisson arrivals of rate per second for dur
// from start, whether or not earlier ones have finished. Each request is
// timed from the moment it was due, so a stall also charges the requests
// queued behind it; the generator's own lateness is returned as lag.
func openLoop(ctx context.Context, e *env, tr *tracer, rate float64, seed int64, start time.Time, dur time.Duration) loadResult {
	rng := rand.New(rand.NewSource(seed))
	var (
		mu  sync.Mutex
		res loadResult
		lag []time.Duration
		wg  sync.WaitGroup
	)
	sem := make(chan struct{}, maxInFlight)
	for due := start; ; {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		lag = append(lag, time.Since(due))
		req := e.gen.Next()
		wg.Add(1)
		go func(due time.Time, req workload.Request) {
			defer wg.Done()
			err := e.do(ctx, tr, req)
			<-sem
			mu.Lock()
			res.record(err, start, due)
			mu.Unlock()
		}(due, req)
	}
	wg.Wait()
	res.lag = lag
	res.elapsed = time.Since(start)
	return res
}

// quantile returns the q-quantile of ds (nearest rank); ds is sorted in
// place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

// latencyQuantile returns the median over the window's full slices of
// each slice's q-quantile latency, with requests assigned to the slice in
// which they finished.
func (r *loadResult) latencyQuantile(q float64) time.Duration {
	slices := len(r.ticks) - 1
	if slices < 1 {
		return quantile(latencies(r.lat), q)
	}
	per := make([][]time.Duration, slices)
	for _, s := range r.lat {
		if i := int(s.at / sliceLen); i < slices {
			per[i] = append(per[i], s.lat)
		}
	}
	vals := make([]float64, slices)
	for i, ds := range per {
		vals[i] = float64(quantile(ds, q))
	}
	return time.Duration(median(vals))
}

// cpuPerTxn returns the median over the window's slices of process CPU
// per committed request, in microseconds.
func (r *loadResult) cpuPerTxn() float64 {
	var vals []float64
	for i := 1; i < len(r.ticks); i++ {
		a, b := r.ticks[i-1], r.ticks[i]
		if n := b.commits - a.commits; n > 0 {
			vals = append(vals, float64((b.cpu-a.cpu).Microseconds())/float64(n))
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

func latencies(ss []sample) []time.Duration {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.lat
	}
	return ds
}
