package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"aft/internal/chaos"
	"aft/internal/core"
	"aft/internal/storage"
	"aft/internal/storage/dynamosim"
)

// binaryFake is a hand-rolled server that answers the Dial hello with
// a chosen protocol version, then hands the connection to a
// test-provided frame loop. It lets tests script exact server behavior
// (reply out of order, go silent mid-pipeline, speak another version)
// that the real server never exhibits.
type binaryFake struct {
	ln      net.Listener
	version uint8
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   []net.Conn
	// serve runs after the hello; fw writes frames, br reads them.
	serve func(conn net.Conn, br *bufio.Reader, fw *frameWriter)
}

func startBinaryFake(t *testing.T, version uint8, serve func(net.Conn, *bufio.Reader, *frameWriter)) *binaryFake {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &binaryFake{ln: ln, version: version, serve: serve}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, conn)
			f.mu.Unlock()
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.handle(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.mu.Lock()
		for _, c := range f.conns {
			c.Close()
		}
		f.mu.Unlock()
		f.wg.Wait()
	})
	return f
}

// handle answers the conn's first frame when it is Dial's OpPing hello,
// then runs the scripted frame loop. Redialed conns send no hello: their
// first frame is dropped unanswered, so scripts that must see every
// frame keep MaxConns at 1.
func (f *binaryFake) handle(conn net.Conn) {
	br := bufio.NewReader(conn)
	var m Metrics
	fw := newFrameWriter(conn, &m)
	defer fw.close()
	var buf []byte
	fr, err := readFrame(br, &buf)
	if err != nil {
		return
	}
	if Op(fr.code) == OpPing {
		if err := fw.writeResponse(fr.id, &Response{Version: f.version, Value: []byte("fake")}, fr.crc); err != nil {
			return
		}
	}
	f.serve(conn, br, fw)
}

// TestPipelineConcurrentOpsOneConn: with the pool capped at ONE
// connection, many concurrent ops must still all make progress by
// sharing the pipe — the high-water depth proves they overlapped in
// flight rather than serializing lockstep.
func TestPipelineConcurrentOpsOneConn(t *testing.T) {
	checkGoroutineLeak(t)
	_, addr, node := startServer(t)
	client, err := DialWith(addr, DialConfig{MaxConns: 1, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				txid, err := client.StartTransaction(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				k := fmt.Sprintf("p%d-%d", w, i)
				if err := client.Put(ctx, txid, k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, err := client.CommitTransaction(ctx, txid); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := node.Metrics().Snapshot().Committed; got != workers*5 {
		t.Fatalf("committed = %d, want %d", got, workers*5)
	}
	m := client.Metrics().Snapshot()
	if m.PipelineDepthHW < 2 {
		t.Fatalf("pipeline depth high-water = %d, want >= 2 (ops never overlapped on the conn)", m.PipelineDepthHW)
	}
	if m.Conns != 1 {
		t.Fatalf("conns = %d, want 1 (MaxConns caps the pool)", m.Conns)
	}
}

// TestPipelineOutOfOrderCompletion: the fake server buffers a batch of
// requests and answers them in REVERSE order. Each pipelined caller
// must still receive its own response — the request-ID demux, not
// arrival order, pairs frames with waiters.
func TestPipelineOutOfOrderCompletion(t *testing.T) {
	checkGoroutineLeak(t)
	const batch = 6
	fake := startBinaryFake(t, ProtocolVersion, func(conn net.Conn, br *bufio.Reader, fw *frameWriter) {
		var buf []byte
		var it internTable
		type pend struct {
			id  uint64
			key string
		}
		var pends []pend
		for {
			f, err := readFrame(br, &buf)
			if err != nil {
				return
			}
			var req Request
			if err := decodeRequestFrame(f.code, f.payload, &req, &it); err != nil {
				return
			}
			pends = append(pends, pend{f.id, req.Key})
			if len(pends) == batch {
				for i := len(pends) - 1; i >= 0; i-- { // reverse order
					resp := Response{Value: []byte(pends[i].key)}
					if err := fw.writeResponse(pends[i].id, &resp, false); err != nil {
						return
					}
				}
				pends = pends[:0]
			}
		}
	})

	client, err := DialWith(fake.ln.Addr().String(), DialConfig{MaxConns: 1, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i)
			v, err := client.Get(ctx, "txn", key)
			if err != nil {
				t.Errorf("Get(%s): %v", key, err)
				return
			}
			if string(v) != key {
				t.Errorf("Get(%s) demuxed someone else's response: %q", key, v)
			}
		}(i)
	}
	wg.Wait()
}

// TestPipelineTimeoutAbandonsOpSiblingsRetriable: a half-open server
// (reads frames, never answers). The op that hits its deadline reports
// the retriable ErrDeadlineExceeded; the conn is then retired, so
// pipelined siblings fail retriably too — and NOTHING reports the
// terminal ErrClosed, because the client itself is still open.
func TestPipelineTimeoutAbandonsOpSiblingsRetriable(t *testing.T) {
	checkGoroutineLeak(t)
	addr := startHalfOpen(t)
	client, err := DialWith(addr, DialConfig{MaxConns: 1, OpTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	const ops = 4
	errs := make(chan error, ops)
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.StartTransaction(ctx)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	timeouts := 0
	for err := range errs {
		if err == nil {
			t.Fatal("op against half-open server succeeded")
		}
		if errors.Is(err, ErrClosed) {
			t.Fatalf("pipelined op misclassified terminal: %v", err)
		}
		switch {
		case errors.Is(err, ErrDeadlineExceeded):
			timeouts++
		case errors.Is(err, storage.ErrUnavailable):
			// Sibling killed by the timed-out op retiring the conn.
		default:
			t.Fatalf("unclassified pipelined failure: %v", err)
		}
	}
	if timeouts == 0 {
		t.Fatal("no op reported ErrDeadlineExceeded")
	}
	if got := client.Metrics().Snapshot().Timeouts; got == 0 {
		t.Fatalf("wire timeout counter = %d, want > 0", got)
	}
}

// TestServerCloseCancelsParkedHandlers pins the serveConn context fix:
// handlers run under a server-lifetime context, so a handler parked in
// the node's admission wait (MaxConcurrent exhausted) unblocks when the
// server closes. Before the fix handlers ran under Background and the
// parked goroutine survived Close forever — Close itself hung on the
// handler WaitGroup, and the goroutine census below failed.
func TestServerCloseCancelsParkedHandlers(t *testing.T) {
	checkGoroutineLeak(t)
	store := dynamosim.New(dynamosim.Options{})
	node, err := core.NewNode(core.Config{
		NodeID: "srv-adm", Store: store,
		MaxConcurrent: 1, AdmissionQueue: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialWith(addr.String(), DialConfig{MaxConns: 1, OpTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	// Hold the only concurrency slot open.
	if _, err := client.StartTransaction(ctx); err != nil {
		t.Fatal(err)
	}
	// Park a second Start in the admission queue.
	parked := make(chan error, 1)
	go func() {
		_, err := client.StartTransaction(ctx)
		parked <- err
	}()
	time.Sleep(100 * time.Millisecond) // let it reach the admission wait

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung behind a handler parked in admission")
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("parked Start succeeded after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked op never unblocked after server close")
	}
}

// TestPipelineChaosMidFrameResets: the chaos layer cuts the connection
// mid-frame on a recurring cadence while a redo-until-commit workload
// runs. Every cut must classify retriably and the workload must
// converge.
func TestPipelineChaosMidFrameResets(t *testing.T) {
	checkGoroutineLeak(t)
	store := dynamosim.New(dynamosim.Options{})
	node, err := core.NewNode(core.Config{NodeID: "srv-chaos", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc := chaos.WrapListener(raw, chaos.NetConfig{Seed: 7})
	srv := NewServer(node)
	addr := srv.Serve(nc)
	defer srv.Close()

	client, err := DialWith(addr.String(), DialConfig{
		MaxConns: 2, OpTimeout: 500 * time.Millisecond, DialTimeout: 500 * time.Millisecond,
		FrameCRC: true, // resets land mid-frame; CRC guards the torn edges
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	committed := 0
	for i := 0; i < 10; i++ {
		nc.ResetAfterWrites(3) // cut three write-frames from now, repeatedly
		key := fmt.Sprintf("chaos-%d", i)
		deadline := time.Now().Add(10 * time.Second)
		for attempt := 0; ; attempt++ {
			if time.Now().After(deadline) {
				t.Fatalf("key %s: no commit after %d attempts", key, attempt)
			}
			txid, err := client.StartTransaction(ctx)
			if err != nil {
				requireRetriable(t, err)
				continue
			}
			if err := client.Put(ctx, txid, key, []byte{byte(i)}); err != nil {
				requireRetriable(t, err)
				continue
			}
			if _, err := client.CommitTransaction(ctx, txid); err != nil {
				requireRetriable(t, err)
				continue
			}
			committed++
			break
		}
	}
	if committed != 10 {
		t.Fatalf("committed %d/10 under mid-frame resets", committed)
	}
	// §3.1: redone commits are idempotent; every committed key readable.
	txid, err := client.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v, err := client.Get(ctx, txid, fmt.Sprintf("chaos-%d", i))
		if err != nil || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("chaos-%d = %v, %v", i, v, err)
		}
	}
	if rm := nc.NetFaultMetrics().Snapshot(); rm.Resets == 0 {
		t.Fatalf("chaos injected no resets; the campaign tested nothing (metrics %+v)", rm)
	}
}

// requireRetriable fails the test when err is terminal: under connection
// chaos every failure must be retriable or the redo discipline breaks.
func requireRetriable(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, ErrClosed) {
		t.Fatalf("terminal error under chaos: %v", err)
	}
	if !errors.Is(err, storage.ErrUnavailable) && !errors.Is(err, ErrDeadlineExceeded) &&
		!errors.Is(err, core.ErrTxnNotFound) {
		t.Fatalf("unclassified error under chaos: %v", err)
	}
}

// TestFrameBytesMatchAcrossPeers: once the conn is quiesced, each
// side's received bytes equal the other side's sent bytes, with and
// without CRC trailers. Both counts are bytes on the wire, trailer
// included.
func TestFrameBytesMatchAcrossPeers(t *testing.T) {
	for _, crc := range []bool{false, true} {
		srv, addr, _ := startServer(t)
		client, err := DialWith(addr, DialConfig{MaxConns: 1, FrameCRC: crc})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		txid, err := client.StartTransaction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Put(ctx, txid, "k", []byte("value")); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Get(ctx, txid, "k"); err != nil {
			t.Fatal(err)
		}
		if _, err := client.CommitTransaction(ctx, txid); err != nil {
			t.Fatal(err)
		}
		c, s := client.Metrics().Snapshot(), srv.Metrics().Snapshot()
		client.Close()
		if c.BytesRecv != s.BytesSent || s.BytesRecv != c.BytesSent {
			t.Fatalf("crc=%v: client sent/recv %d/%d bytes, server sent/recv %d/%d",
				crc, c.BytesSent, c.BytesRecv, s.BytesSent, s.BytesRecv)
		}
		if c.FramesRecv != s.FramesSent || s.FramesRecv != c.FramesSent || c.FramesSent != 5 {
			t.Fatalf("crc=%v: client sent/recv %d/%d frames, server sent/recv %d/%d, want 5 each way",
				crc, c.FramesSent, c.FramesRecv, s.FramesSent, s.FramesRecv)
		}
	}
}

// TestServerMirrorsRequestCRC: the server puts a CRC trailer on a
// response exactly when its request frame carried one, with no
// negotiation — so one conn may even mix both.
func TestServerMirrorsRequestCRC(t *testing.T) {
	_, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var buf []byte
	for i, crc := range []bool{true, false, true} {
		frame := appendRequestFrame(nil, uint64(i), &Request{Op: OpPing, Version: ProtocolVersion}, crc)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(br, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.id != uint64(i) || f.crc != crc {
			t.Fatalf("ping %d (crc=%v) answered with id %d crc=%v", i, crc, f.id, f.crc)
		}
		var resp Response
		if err := decodeResponseFrame(f.code, f.payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Version != ProtocolVersion || string(resp.Value) != "srv-1" {
			t.Fatalf("hello reply = %+v", resp)
		}
	}
}
