package experiments

// The wire experiment measures the framed, pipelined wire protocol over
// real TCP loopback. Each cell fixes a concurrency level (closed-loop
// workers multiplexed onto a pool of at most 8 pipelined conns) and a
// workload — "ping" is the pure wire-path round trip (no storage, no
// transaction state), "txn" the full Start/Put/Commit cycle — and
// reports throughput, allocation rate, client-observed latency
// percentiles, and how deep the pipeline ran. The committed
// BENCH_wire.json is the artifact behind the README's reading guide.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"aft/internal/core"
	"aft/internal/stats"
	"aft/internal/storage/dynamosim"
	"aft/internal/wire"
)

// WireCell is one concurrency × workload measurement.
type WireCell struct {
	Conns    int    `json:"conns"`    // closed-loop workers
	Workload string `json:"workload"` // "ping" | "txn"
	Ops      int    `json:"ops"`      // completed operations

	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"` // process-wide: client+server
	BytesPerOp  float64 `json:"bytes_per_op"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`

	// Pipeline internals: how deep the pipeline actually ran, how many
	// TCP conns carried the load, and how many frames each flush
	// syscall batched.
	PipelineDepthHW int64   `json:"pipeline_depth_hw"`
	WireConns       int64   `json:"wire_conns"`
	FramesPerFlush  float64 `json:"frames_per_flush"`

	WallMS int64 `json:"wall_ms"`
}

// Wire runs the concurrency sweep and renders its table.
func Wire(opts Options) (Table, error) {
	cells, err := WireCells(opts)
	if err != nil {
		return Table{}, err
	}
	return WireTable(cells)
}

// WireTable renders measured cells.
func WireTable(cells []WireCell) (Table, error) {
	table := Table{
		Title:  "Wire protocol: pipelined binary frames (TCP loopback)",
		Header: []string{"workload", "conns", "ops", "ops/s", "allocs/op", "B/op", "p50 us", "p99 us", "tcp conns", "depth hw", "frames/flush"},
		Notes: []string{
			"conns: closed-loop workers, multiplexed onto a pool of at most 8 pipelined TCP conns",
			"allocs/op and B/op are process-wide (client and server share the process), so both sides are charged",
			"depth hw: high-water mark of ops concurrently in flight on one pipelined conn",
		},
	}
	for _, c := range cells {
		table.Rows = append(table.Rows, []string{
			c.Workload, fmt.Sprint(c.Conns), fmt.Sprint(c.Ops),
			fmt.Sprintf("%.0f", c.OpsPerSec),
			fmt.Sprintf("%.1f", c.AllocsPerOp),
			fmt.Sprintf("%.0f", c.BytesPerOp),
			fmt.Sprintf("%.0f", c.P50Micros),
			fmt.Sprintf("%.0f", c.P99Micros),
			fmt.Sprint(c.WireConns),
			fmt.Sprint(c.PipelineDepthHW),
			fmt.Sprintf("%.1f", c.FramesPerFlush),
		})
	}
	return table, nil
}

// WireCells sweeps workload × concurrency.
func WireCells(opts Options) ([]WireCell, error) {
	opts = opts.withDefaults()
	conns := []int{64, 256, 1024}
	opsPerWorker := 60
	if opts.Quick {
		conns = []int{16, 64}
		opsPerWorker = 25
	}
	var cells []WireCell
	for _, workload := range []string{"ping", "txn"} {
		for _, nc := range conns {
			cell, err := wireCell(workload, nc, opsPerWorker)
			if err != nil {
				return nil, fmt.Errorf("wire %s/%d: %w", workload, nc, err)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

func wireCell(workload string, workers, opsPerWorker int) (WireCell, error) {
	store := dynamosim.New(dynamosim.Options{})
	node, err := core.NewNode(core.Config{NodeID: "wire-bench", Store: store})
	if err != nil {
		return WireCell{}, err
	}
	srv := wire.NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return WireCell{}, err
	}
	defer srv.Close()

	// Every worker multiplexes onto a small pipelined pool — the
	// provisioning a real deployment would use.
	client, err := wire.DialWith(addr.String(), wire.DialConfig{
		MaxConns: min(workers, 8), OpTimeout: 30 * time.Second,
	})
	if err != nil {
		return WireCell{}, err
	}
	defer client.Close()

	ctx := context.Background()
	runWorker := func(w int, rec *stats.Recorder) error {
		for i := 0; i < opsPerWorker; i++ {
			start := time.Now()
			switch workload {
			case "ping":
				if err := client.Ping(ctx); err != nil {
					return err
				}
			case "txn":
				txid, err := client.StartTransaction(ctx)
				if err != nil {
					return err
				}
				if err := client.Put(ctx, txid, fmt.Sprintf("w%d", w), []byte("bench-value")); err != nil {
					return err
				}
				if _, err := client.CommitTransaction(ctx, txid); err != nil {
					return err
				}
			}
			rec.Record(time.Since(start))
		}
		return nil
	}

	// Warm the pools and conn dials out of the measured window.
	if err := runWorker(-1, stats.NewRecorder()); err != nil {
		return WireCell{}, err
	}

	// One shared recorder: Record is mutex-guarded, and the lock cost is
	// identical across cells so the comparison stays fair.
	rec := stats.NewRecorder()
	errs := make(chan error, workers)
	m0 := client.Metrics().Snapshot()
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		go func(w int) { errs <- runWorker(w, rec) }(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			return WireCell{}, err
		}
	}
	wall := time.Since(t0)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	sum := rec.Summarize()

	ops := workers * opsPerWorker
	// Diff against the pre-run snapshot so the sequential warmup
	// (frames == flushes by construction) doesn't dilute the ratio.
	m := client.Metrics().Snapshot()
	cell := WireCell{
		Conns: workers, Workload: workload, Ops: ops,
		OpsPerSec:   float64(ops) / wall.Seconds(),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops),
		P50Micros:   float64(sum.Median.Microseconds()),
		P99Micros:   float64(sum.P99.Microseconds()),
		WallMS:      wall.Milliseconds(),

		PipelineDepthHW: m.PipelineDepthHW,
		WireConns:       m.Conns,
	}
	if fl := m.Flushes - m0.Flushes; fl > 0 {
		cell.FramesPerFlush = float64(m.FramesSent-m0.FramesSent) / float64(fl)
	}
	return cell, nil
}
