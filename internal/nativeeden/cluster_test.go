package nativeeden_test

// In-process cluster tests: several member RTSes in one test process,
// wired by a loopback transport that calls Deliver synchronously. This
// exercises the whole cluster machinery — shadow-root replay, the
// deterministic channel-id agreement, wire-codec remote sends, ensure-
// on-first-touch delivery — without forking processes; the process-
// level coordinator and transports are tested in internal/cluster.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/graph"
	"parhask/internal/nativeeden"
	"parhask/internal/pe"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

// memHub routes cluster messages between in-process member RTSes.
type memHub struct {
	perProc int
	mu      sync.Mutex
	rts     []*nativeeden.RTS
	severed []bool
}

type memPort struct {
	h    *memHub
	rank int
}

func (t *memPort) SendRemote(kind nativeeden.MsgKind, chanID int64, src, dst int, frame []byte) error {
	owner := dst / t.h.perProc
	t.h.mu.Lock()
	target := t.h.rts[owner]
	sev := t.h.severed[t.rank] || t.h.severed[owner]
	t.h.mu.Unlock()
	if sev {
		return fmt.Errorf("memhub: link %d->%d severed", t.rank, owner)
	}
	if target == nil {
		return fmt.Errorf("memhub: rank %d not assembled", owner)
	}
	return target.Deliver(kind, chanID, src, dst, frame[nativeeden.HeaderRoom:])
}

// runCluster runs main SPMD over procs×perProc PEs and returns rank
// 0's value plus every rank's Result (drained workers included).
func runCluster(t *testing.T, procs, perProc int, main pe.Program, sever func(h *memHub)) (graph.Value, []*nativeeden.Result, error) {
	t.Helper()
	h := &memHub{perProc: perProc, rts: make([]*nativeeden.RTS, procs), severed: make([]bool, procs)}
	for rank := 0; rank < procs; rank++ {
		r, err := nativeeden.NewRTS(nativeeden.Config{Cluster: &nativeeden.ClusterSpec{
			Rank: rank, Procs: procs, PerProc: perProc,
			Transport: &memPort{h: h, rank: rank},
		}})
		if err != nil {
			t.Fatalf("NewRTS rank %d: %v", rank, err)
		}
		h.mu.Lock()
		h.rts[rank] = r
		h.mu.Unlock()
	}
	if sever != nil {
		sever(h)
	}

	results := make([]*nativeeden.Result, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for rank := 1; rank < procs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = h.rts[rank].RunMain(main)
		}(rank)
	}
	results[0], errs[0] = h.rts[0].RunMain(main)
	// Rank 0 is done (its root returned or failed): drain the workers,
	// exactly as the coordinator does after collecting the result.
	for rank := 1; rank < procs; rank++ {
		h.rts[rank].Drain()
	}
	wg.Wait()
	for rank := 1; rank < procs; rank++ {
		if errs[rank] != nil && !errors.Is(errs[rank], nativeeden.ErrDrained) {
			t.Logf("rank %d ended with %v", rank, errs[rank])
		}
	}
	var value graph.Value
	if results[0] != nil {
		value = results[0].Value
	}
	return value, results, errs[0]
}

func TestClusterSumEuler(t *testing.T) {
	const n, procs, perProc = 1500, 3, 2
	v, _, err := runCluster(t, procs, perProc, euler.EdenProgram(n, 2, 0), nil)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if want := euler.SumTotientSieve(n); v.(int64) != want {
		t.Fatalf("cluster sumEuler(%d) = %v, want %d", n, v, want)
	}
}

func TestClusterAPSPRing(t *testing.T) {
	g := apsp.RandomGraph(24, 7, 40, 4)
	want := apsp.FloydWarshall(apsp.Clone(g))
	v, _, err := runCluster(t, 3, 2, apsp.EdenRingProgram(apsp.Clone(g), 3, 0), nil)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if !apsp.Equal(v.(apsp.Graph), want) {
		t.Fatal("cluster APSP result differs from Floyd-Warshall oracle")
	}
}

func TestClusterMatmulTorus(t *testing.T) {
	a, b := matmul.Random(16, 1), matmul.Random(16, 2)
	want := matmul.MulOracle(a, b)
	v, _, err := runCluster(t, 2, 2, matmul.EdenCannonProgram(a, b, 2, 0), nil)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if !matmul.Equal(v.(matmul.Mat), want, 1e-9) {
		t.Fatal("cluster Cannon result differs from sequential oracle")
	}
}

// TestClusterByteConservation: with no faults, every message charged by
// a sender is received with the same byte count somewhere in the
// cluster — the packing model and the wire bytes agree end to end.
func TestClusterByteConservation(t *testing.T) {
	_, results, err := runCluster(t, 3, 2, euler.EdenProgram(800, 2, 0), nil)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	var sentMsgs, recvMsgs, sentBytes, recvBytes int64
	for rank, res := range results {
		if res == nil {
			t.Fatalf("rank %d returned no result", rank)
		}
		for _, ps := range res.PerPE {
			sentMsgs += ps.MsgsSent
			recvMsgs += ps.MsgsRecv
			sentBytes += ps.BytesSent
			recvBytes += ps.BytesRecv
		}
	}
	if sentMsgs == 0 {
		t.Fatal("no messages counted")
	}
	if sentMsgs != recvMsgs || sentBytes != recvBytes {
		t.Fatalf("conservation violated: sent %d msgs / %d bytes, received %d msgs / %d bytes",
			sentMsgs, sentBytes, recvMsgs, recvBytes)
	}
}

// TestClusterSeveredLink: a dead link surfaces as the structured
// *eden.SendError carrying the transport failure, not a hang.
func TestClusterSeveredLink(t *testing.T) {
	_, _, err := runCluster(t, 3, 2, euler.EdenProgram(1500, 2, 0),
		func(h *memHub) { h.severed[1] = true })
	var se *eden.SendError
	if !errors.As(err, &se) {
		t.Fatalf("rank 0 error = %v, want *eden.SendError from the severed link", err)
	}
}

func TestClusterSpecValidation(t *testing.T) {
	bad := []nativeeden.ClusterSpec{
		{Rank: 0, Procs: 0, PerProc: 1},
		{Rank: 0, Procs: 2, PerProc: 0},
		{Rank: 2, Procs: 2, PerProc: 1},
		{Rank: -1, Procs: 2, PerProc: 1},
		{Rank: 0, Procs: 2, PerProc: 1}, // no transport
	}
	for i := range bad {
		spec := bad[i]
		if _, err := nativeeden.NewRTS(nativeeden.Config{Cluster: &spec}); err == nil {
			t.Errorf("spec %+v should be rejected", spec)
		}
	}
}
