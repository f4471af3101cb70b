package nativeeden_test

import (
	"errors"
	"reflect"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/graph"
	"parhask/internal/nativeeden"
	"parhask/internal/pe"
)

// The two-rank, two-PEs-a-rank cluster the tests below run on: rank 0
// owns PEs 0 and 1, rank 1 owns PEs 2 and 3. A message from the root on
// PE 0 to localPE goes through withPE; one to remotePE goes through
// memPort and Deliver.
const (
	localPE  = 1
	remotePE = 2
)

// oneOfEach sends one message of every kind — a channel value, a stream
// element and a stream close — from the root to a thread on PE dest,
// which echoes what it received.
func oneOfEach(dest int) pe.Program {
	return func(p pe.Ctx) graph.Value {
		in, out := p.NewChan(dest)
		sin, sout := p.NewStream(dest)
		back, backOut := p.NewChan(0)
		p.Spawn(dest, "receiver", func(w pe.Ctx) {
			v := w.Receive(in)
			w.Send(backOut, []graph.Value{v, w.RecvAll(sin)})
		})
		p.Send(out, []int64{1, 2, 3})
		p.StreamSend(sout, "element")
		p.StreamClose(sout)
		return p.Receive(back)
	}
}

// msgCounters is the message half of a PE's counters.
type msgCounters struct{ msgsSent, msgsRecv, bytesSent, bytesRecv int64 }

func countersOf(ps nativeeden.PEStats) msgCounters {
	return msgCounters{ps.MsgsSent, ps.MsgsRecv, ps.BytesSent, ps.BytesRecv}
}

// TestReceiveSameBothWays: a message lands in the same state, with the
// same receiver counters, whether it arrives from the same process or
// through Deliver.
func TestReceiveSameBothWays(t *testing.T) {
	local, lres, err := runCluster(t, 2, 2, oneOfEach(localPE), nil)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	remote, rres, err := runCluster(t, 2, 2, oneOfEach(remotePE), nil)
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	want := []graph.Value{[]int64{1, 2, 3}, []graph.Value{"element"}}
	if !reflect.DeepEqual(local, want) || !reflect.DeepEqual(remote, want) {
		t.Fatalf("received local %#v, remote %#v, want %#v", local, remote, want)
	}
	lc, rc := countersOf(lres[0].PerPE[localPE]), countersOf(rres[1].PerPE[remotePE])
	if lc != rc {
		t.Fatalf("receiver counters differ: local %+v, through Deliver %+v", lc, rc)
	}
	if lc.msgsRecv != 3 {
		t.Fatalf("receiver counted %d messages, want 3", lc.msgsRecv)
	}
}

// TestReceiveMisuseBothWays: a message the receiver cannot take is a
// *eden.ChanMisuseError on either path. The one asymmetry is a send to
// a channel whose value was already received: in process the cell is
// gone, so it is misuse, but Deliver installs a missing cell on first
// touch (a remote delivery may beat the replayed creation), so through
// Deliver the message lands in a fresh cell.
func TestReceiveMisuseBothWays(t *testing.T) {
	cases := []struct {
		name        string
		prog        func(dest int) pe.Program
		op          string
		remoteLands bool
		reason      string
	}{
		{"second close", func(dest int) pe.Program {
			return func(p pe.Ctx) graph.Value {
				_, out := p.NewStream(dest)
				p.StreamClose(out)
				p.StreamClose(out)
				return true
			}
		}, "StreamClose", false, "closed-or-unknown-stream"},
		{"element after close", func(dest int) pe.Program {
			return func(p pe.Ctx) graph.Value {
				_, out := p.NewStream(dest)
				p.StreamClose(out)
				p.StreamSend(out, int64(7))
				return true
			}
		}, "StreamSend", false, "closed-or-unknown-stream"},
		{"send to a received channel", func(dest int) pe.Program {
			return func(p pe.Ctx) graph.Value {
				in, out := p.NewChan(dest)
				ack, ackOut := p.NewChan(0)
				p.Spawn(dest, "receiver", func(w pe.Ctx) {
					w.Send(ackOut, w.Receive(in))
				})
				p.Send(out, int64(1))
				p.Receive(ack)
				p.Send(out, int64(2))
				return true
			}
		}, "Send", true, "unknown-channel"},
	}
	for _, tc := range cases {
		for _, dest := range []int{localPE, remotePE} {
			path := "local"
			if dest == remotePE {
				path = "Deliver"
			}
			t.Run(tc.name+"/"+path, func(t *testing.T) {
				_, _, err := runCluster(t, 2, 2, tc.prog(dest), nil)
				if dest == remotePE && tc.remoteLands {
					if err != nil {
						t.Fatalf("err = %v, want the delivery to land in a fresh cell", err)
					}
					return
				}
				var me *eden.ChanMisuseError
				if !errors.As(err, &me) {
					t.Fatalf("err = %v, want a *eden.ChanMisuseError", err)
				}
				if me.Op != tc.op || me.Owner != dest || me.PE != 0 || me.Reason != tc.reason {
					t.Fatalf("misuse = %+v, want op %s, PE 0, owner %d, reason %s", me, tc.op, dest, tc.reason)
				}
			})
		}
	}
}
