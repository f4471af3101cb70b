package cluster

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parhask/internal/nativeeden"
)

func TestMeshLayout(t *testing.T) {
	// Every pair of ranks is connected end to end, and rank r's k-th
	// inherited end is its link to the k-th other rank: a byte pair
	// (r, p) written on r's link to p arrives on p's link to r.
	for _, network := range []string{"tcp", "unix"} {
		for procs := 1; procs <= 4; procs++ {
			addr := "127.0.0.1:0"
			if network == "unix" {
				addr = filepath.Join(t.TempDir(), "s")
			}
			ln, err := net.Listen(network, addr)
			if err != nil {
				t.Fatal(err)
			}
			ends, err := dialMesh(ln, procs)
			ln.Close()
			if err != nil {
				t.Fatalf("%s, %d procs: %v", network, procs, err)
			}
			conns := make([][]*conn, procs)
			for r := range ends {
				if len(ends[r]) != procs-1 {
					t.Fatalf("%s: rank %d of %d has %d ends", network, r, procs, len(ends[r]))
				}
				if conns[r], err = peerConns(r, ends[r]); err != nil {
					t.Fatal(err)
				}
			}
			for r := range conns {
				for p, c := range conns[r] {
					if p == r {
						if c != nil {
							t.Fatalf("%s: rank %d has a link to itself", network, r)
						}
						continue
					}
					switch c.rw.(type) {
					case *net.TCPConn:
						if network != "tcp" {
							t.Fatalf("%s pair yields %T", network, c.rw)
						}
					case *net.UnixConn:
						if network != "unix" {
							t.Fatalf("%s pair yields %T", network, c.rw)
						}
					default:
						t.Fatalf("%s pair yields %T", network, c.rw)
					}
					if _, err := c.rw.Write([]byte{byte(r), byte(p)}); err != nil {
						t.Fatal(err)
					}
					got := make([]byte, 2)
					if _, err := io.ReadFull(conns[p][r].rw, got); err != nil {
						t.Fatal(err)
					}
					if got[0] != byte(r) || got[1] != byte(p) {
						t.Fatalf("%s, %d procs: rank %d's link to rank %d read %v, want [%d %d]", network, procs, p, r, got, r, p)
					}
				}
			}
			for _, cs := range conns {
				for _, c := range cs {
					if c != nil {
						c.Close()
					}
				}
			}
		}
	}
}

func TestMeshFDCensus(t *testing.T) {
	// The coordinator closes every socket and file a run opens, the
	// mesh ends it hands over, the listener and the control links, by
	// the time Run returns.
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd")
	}
	open := func() []string {
		es, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		var fds []string
		for _, e := range es {
			target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
			fds = append(fds, e.Name()+" -> "+target)
		}
		return fds
	}
	cfgs := []Config{
		{Procs: 3, PerProc: 1, Transport: "tcp", Spec: "sumeuler?n=500&pechunks=2"},
		{Procs: 3, PerProc: 1, Transport: "unix", Spec: "sumeuler?n=500&pechunks=2"},
	}
	// A first run of each opens what the process keeps for good (the
	// network poller's descriptors).
	for _, cfg := range cfgs {
		runOK(t, cfg)
	}
	before := open()
	for i := 0; i < 10; i++ {
		for _, cfg := range cfgs {
			runOK(t, cfg)
		}
	}
	if after := open(); len(after) != len(before) {
		t.Fatalf("%d open descriptors after 20 runs, %d before:\n%s\nbefore:\n%s",
			len(after), len(before), strings.Join(after, "\n"), strings.Join(before, "\n"))
	}
}

func TestPeerSendDropsOnClosedPipe(t *testing.T) {
	// A send to a peer whose link has closed is a counted drop, not an
	// error and not a wait.
	ours, theirs := net.Pipe()
	theirs.Close()
	tr := &meshTransport{
		perProc: 1, l: newWLink(0, "unix", ""),
		peers: []*conn{nil, newConn(ours)}, drops: make([]atomic.Int64, 2),
	}
	done := make(chan error, 1)
	go func() {
		done <- tr.SendRemote(nativeeden.MsgChanSend, 7, 0, 1, make([]byte, nativeeden.HeaderRoom+4))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send to a closed peer returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("send to a closed peer blocked")
	}
	if got := [2]int64{tr.drops[0].Load(), tr.drops[1].Load()}; got != [2]int64{0, 1} {
		t.Fatalf("drops by rank %v, want [0 1]", got)
	}
}

func TestControlLinkRejectsData(t *testing.T) {
	// Data has one path, the mesh. A data frame on a control link ends
	// that connection at the coordinator and the run at the worker.
	body := dataBody(nativeeden.MsgChanSend, 7, 0, 1, "x")

	cd, l := newTestCoord(4)
	defer close(cd.stop)
	ours, theirs := net.Pipe()
	defer theirs.Close()
	go cd.readLoop(l, newConn(ours))
	if err := newConn(theirs).write(frameData, body); err != nil {
		t.Fatal(err)
	}
	ev := <-cd.evCh
	if !ev.readerEnd || ev.err == nil || !strings.Contains(ev.err.Error(), "data frame on the control link") {
		t.Fatalf("coordinator reported %+v, want the connection failed by a data frame", ev)
	}

	w := newWLink(1, "unix", "")
	ours, theirs = net.Pipe()
	defer theirs.Close()
	w.c = newConn(ours)
	go func() {
		if err := newConn(theirs).write(frameData, body); err != nil {
			t.Error(err)
		}
	}()
	err := w.readControl(func() { t.Error("a data frame drained the run") })
	if err == nil || err.Error() != errDataOnControl(1).Error() {
		t.Fatalf("worker's control reader ended with %v, want %v", err, errDataOnControl(1))
	}
}
