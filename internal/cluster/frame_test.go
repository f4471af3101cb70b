package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// rwc adapts a bytes.Buffer into the io.ReadWriteCloser a conn wants,
// so corrupt byte streams can be fed to the reader directly.
type rwc struct {
	bytes.Buffer
}

func (r *rwc) Close() error { return nil }

func readerOver(raw []byte) *conn {
	b := &rwc{}
	b.Write(raw)
	return newConn(b)
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := newConn(a), newConn(b)
	defer ca.Close()
	defer cb.Close()

	frames := fixedFrames
	go func() {
		for _, f := range frames {
			if err := ca.write(f.kind, f.seq, f.body); err != nil {
				t.Errorf("write(kind %d): %v", f.kind, err)
			}
		}
	}()
	for _, f := range frames {
		kind, seq, body, err := cb.read()
		if err != nil {
			t.Fatalf("read(kind %d): %v", f.kind, err)
		}
		if kind != f.kind || seq != f.seq || !bytes.Equal(body, f.body) {
			t.Fatalf("round trip: got (%d, %d, %q), want (%d, %d, %q)",
				kind, seq, body, f.kind, f.seq, f.body)
		}
	}
}

func TestFrameTruncatedHeader(t *testing.T) {
	// A stream that dies inside the length prefix or the kind/seq header
	// must fail structurally, never hang or return a phantom frame.
	for _, raw := range [][]byte{
		{},
		{0x09},
		{0x09, 0x00, 0x00},
		{0x09, 0x00, 0x00, 0x00},               // length says 9, nothing follows
		{0x09, 0x00, 0x00, 0x00, frameData},    // kind but no seq
		{0x09, 0x00, 0x00, 0x00, frameData, 1}, // partial seq
	} {
		c := readerOver(raw)
		if _, _, _, err := c.read(); err == nil {
			t.Errorf("read of truncated stream %v succeeded", raw)
		} else if err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Errorf("truncated stream %v: %v, want EOF-class error", raw, err)
		}
	}
}

func TestFrameBadLength(t *testing.T) {
	over := make([]byte, 4)
	binary.LittleEndian.PutUint32(over, maxFrame+1)
	under := make([]byte, 4)
	binary.LittleEndian.PutUint32(under, frameHeaderLen-1)
	for _, raw := range [][]byte{over, under, {0, 0, 0, 0}} {
		c := readerOver(raw)
		_, _, _, err := c.read()
		if err == nil {
			t.Fatalf("read accepted frame length %d", binary.LittleEndian.Uint32(raw))
		}
		if !strings.Contains(err.Error(), "frame length") {
			t.Errorf("bad length error %q is not structural", err)
		}
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	// Length promises 100 body bytes; the stream ends early.
	raw := make([]byte, 4+frameHeaderLen+10)
	binary.LittleEndian.PutUint32(raw, frameHeaderLen+100)
	raw[4] = frameData
	c := readerOver(raw)
	if _, _, _, err := c.read(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

func TestDataBodyTooShort(t *testing.T) {
	// A DATA body shorter than its fixed header is a structural decode
	// error for the router, not a slice panic.
	for n := 0; n < dataHeaderLen; n++ {
		if _, _, _, _, _, err := decodeData(make([]byte, n)); err == nil {
			t.Errorf("decodeData accepted %d-byte body", n)
		}
	}
	kind, chanID, src, dst, payload, err := decodeData(encodeData(2, -7, 1, 3, []byte("xy")))
	if err != nil || kind != 2 || chanID != -7 || src != 1 || dst != 3 || string(payload) != "xy" {
		t.Errorf("decodeData round trip: %d %d %d %d %q %v", kind, chanID, src, dst, payload, err)
	}
}

func TestControlBodySizes(t *testing.T) {
	if _, _, _, err := decodeHello(make([]byte, helloLen-1)); err == nil {
		t.Error("decodeHello accepted a short body")
	}
	if _, _, _, err := decodeHello(make([]byte, helloLen+1)); err == nil {
		t.Error("decodeHello accepted a long body")
	}
	if _, err := decodeSeq([]byte{1, 2, 3}); err == nil {
		t.Error("decodeSeq accepted a short body")
	}
	if _, _, err := decodePing(make([]byte, pingLen-1)); err == nil {
		t.Error("decodePing accepted a short body")
	}
	rank, flags, last, err := decodeHello(encodeHello(3, helloFlagReconnect, 99))
	if err != nil || rank != 3 || flags != helloFlagReconnect || last != 99 {
		t.Errorf("hello round trip: %d %d %d %v", rank, flags, last, err)
	}
	nanos, ack, err := decodePing(encodePing(-5, 12))
	if err != nil || nanos != -5 || ack != 12 {
		t.Errorf("ping round trip: %d %d %v", nanos, ack, err)
	}
}

func TestTrimAcked(t *testing.T) {
	buf := []savedFrame{{seq: 1}, {seq: 2}, {seq: 3}, {seq: 4}}
	buf = trimAcked(buf, 2)
	if len(buf) != 2 || buf[0].seq != 3 || buf[1].seq != 4 {
		t.Fatalf("trimAcked(2) left %v", buf)
	}
	if buf = trimAcked(buf, 1); len(buf) != 2 {
		t.Fatalf("stale ack trimmed live frames: %v", buf)
	}
	if buf = trimAcked(buf, 10); len(buf) != 0 {
		t.Fatalf("full ack left %v", buf)
	}
}

func TestSequencedKinds(t *testing.T) {
	seq := map[byte]bool{
		frameData: true, frameResult: true, frameError: true,
		frameDrain: true, frameReport: true, frameBye: true,
	}
	for kind := frameHello; kind <= frameWelcome; kind++ {
		if sequenced(kind) != seq[kind] {
			t.Errorf("sequenced(%d) = %v", kind, sequenced(kind))
		}
	}
}

func TestRouteDropsOnDeadRank(t *testing.T) {
	// A routed frame whose destination is gone is counted, not silently
	// discarded and not a wedge.
	cd := &coord{stop: make(chan struct{}), depth: 4}
	l := &rankLink{rank: 1, out: make(chan outFrame, 4)}
	l.cond = sync.NewCond(&l.mu)
	cd.links = []*rankLink{nil, l}

	l.done.Store(true)
	cd.route(l, frameData, []byte("x"))
	if got := l.drops.Load(); got != 1 {
		t.Fatalf("drops after routing to a reported rank = %d, want 1", got)
	}
	l.done.Store(false)
	l.kill()
	cd.route(l, frameData, []byte("y"))
	if got := l.drops.Load(); got != 2 {
		t.Fatalf("drops after routing to a dead rank = %d, want 2", got)
	}
	if len(l.out) != 0 {
		t.Fatalf("dropped frames still queued: %d", len(l.out))
	}
}

func TestRouteBackpressure(t *testing.T) {
	// A live rank whose queue is full must surface structured
	// backpressure on the event channel instead of blocking the router.
	cd := &coord{stop: make(chan struct{}), depth: 1, evCh: make(chan event, 4)}
	l := &rankLink{rank: 0, out: make(chan outFrame, 1)}
	l.cond = sync.NewCond(&l.mu)
	cd.links = []*rankLink{l}

	cd.route(l, frameData, []byte("a"))
	cd.route(l, frameData, []byte("b"))
	select {
	case ev := <-cd.evCh:
		if !ev.backpressure || ev.rank != 0 {
			t.Fatalf("unexpected event %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("queue overflow produced no backpressure event")
	}
}

// countingRWC counts Write calls on the way to its buffer: each one is
// a syscall on a real socket.
type countingRWC struct {
	rwc
	writes int
}

func (c *countingRWC) Write(p []byte) (int, error) {
	c.writes++
	return c.rwc.Write(p)
}

// failingRWC refuses every write, like a socket whose peer is gone.
type failingRWC struct{ rwc }

func (failingRWC) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// fixedFrames are the well-formed frames the round-trip test and the
// fuzz corpus share.
var fixedFrames = []struct {
	kind byte
	seq  uint32
	body []byte
}{
	{frameHello, 0, encodeHello(2, helloFlagReconnect, 77)},
	{frameGo, 0, nil},
	{frameData, 1, encodeData(3, 42, 1, 4, []byte("payload"))},
	{framePing, 0, encodePing(123456789, 31)},
	{frameAck, 0, encodeSeq(9)},
	{frameReport, 2, []byte(`{"rank":1}`)},
}

func TestFrameSingleWrite(t *testing.T) {
	// Header and body leave together: one write per frame, and one write
	// for a whole batch queued before a flush.
	w := &countingRWC{}
	c := newConn(w)
	if err := c.write(frameData, 1, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("one frame took %d writes, want 1", w.writes)
	}
	const n = 32
	for i := 0; i < n; i++ {
		if err := c.queue(frameData, uint32(2+i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes != 1 {
		t.Fatalf("queued frames reached the socket before the flush (%d writes)", w.writes)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if w.writes != 2 {
		t.Fatalf("flushing %d queued frames took %d writes, want 1", n, w.writes-1)
	}
	// Everything written reads back as 1+n frames, in order, seqs intact.
	r := readerOver(w.Bytes())
	for want := uint32(1); want <= n+1; want++ {
		kind, seq, body, err := r.read()
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if kind != frameData || seq != want {
			t.Fatalf("frame %d read back as kind %d seq %d", want, kind, seq)
		}
		if want > 1 && (len(body) != 1 || body[0] != byte(want-2)) {
			t.Fatalf("frame %d body %v", want, body)
		}
	}
	if _, _, _, err := r.read(); err != io.EOF {
		t.Fatalf("after the batch: %v, want EOF", err)
	}
}

func TestFrameLargeBodyGrows(t *testing.T) {
	// A body past the first read step arrives whole through the growth
	// loop.
	body := make([]byte, 5*readStep+123)
	for i := range body {
		body[i] = byte(i * 7)
	}
	w := &rwc{}
	if err := newConn(w).write(frameReport, 9, body); err != nil {
		t.Fatal(err)
	}
	kind, seq, got, err := readerOver(w.Bytes()).read()
	if err != nil || kind != frameReport || seq != 9 || !bytes.Equal(got, body) {
		t.Fatalf("large frame: kind %d seq %d len %d err %v", kind, seq, len(got), err)
	}
}

// allocatedBy reports the heap bytes fn allocates (cumulative, so
// garbage counts).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestFrameHostileLength(t *testing.T) {
	// Four untrusted bytes claim a gigabyte and then the stream ends:
	// the reader must fail having allocated a read step, not the claim.
	raw := make([]byte, 4, 4+frameHeaderLen)
	binary.LittleEndian.PutUint32(raw, maxFrame)
	raw = append(raw, frameData, 1, 0, 0, 0)
	c := readerOver(raw)
	var err error
	got := allocatedBy(func() { _, _, _, err = c.read() })
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated gigabyte frame: %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if got > 4*readStep {
		t.Fatalf("reading a truncated frame claiming %d bytes allocated %d", maxFrame, got)
	}
}

func TestTrimAckedClearsTail(t *testing.T) {
	// Acked bodies must not stay reachable through the vacated tail of
	// the backing array.
	buf := make([]savedFrame, 4)
	for i := range buf {
		buf[i] = savedFrame{seq: uint32(i + 1), kind: frameData, body: []byte{byte(i)}}
	}
	kept := trimAcked(buf, 3)
	if len(kept) != 1 || kept[0].seq != 4 {
		t.Fatalf("trimAcked(3) left %v", kept)
	}
	for i, f := range buf[len(kept):] {
		if f.body != nil || f.seq != 0 {
			t.Errorf("vacated slot %d still holds %+v", len(kept)+i, f)
		}
	}
}

// newTestCoord is a coordinator with one rank link and nothing running.
func newTestCoord(depth int) (*coord, *rankLink) {
	cd := &coord{stop: make(chan struct{}), depth: depth, evCh: make(chan event, 16)}
	l := &rankLink{rank: 0, out: make(chan outFrame, depth)}
	l.cond = sync.NewCond(&l.mu)
	cd.links = []*rankLink{l}
	return cd, l
}

func TestFlushFailureReplaysExactlyOnce(t *testing.T) {
	// A batch buffered on a conn whose flush fails stays whole in the
	// retransmit buffer, and the reconnect replays it once, in order,
	// ahead of anything sent afterwards.
	cd, l := newTestCoord(16)
	defer close(cd.stop)
	bad := newConn(&failingRWC{})
	l.c, l.gen = bad, 1
	for i := 0; i < 3; i++ {
		if c := cd.deliver(l, outFrame{kind: frameData, body: []byte{byte(i)}}); c != bad {
			t.Fatalf("frame %d buffered on %p, want the live conn", i, c)
		}
	}
	cd.flush(l, bad)
	if l.c != nil {
		t.Fatal("a failed flush left the broken conn installed")
	}
	if len(l.unacked) != 3 {
		t.Fatalf("%d frames in the retransmit buffer after a failed flush, want 3", len(l.unacked))
	}

	// The worker redials having processed frame 1 only.
	ours, theirs := net.Pipe()
	defer theirs.Close()
	type frame struct {
		kind byte
		seq  uint32
		body []byte
	}
	got := make(chan frame, 8)
	go func() {
		r := newConn(theirs)
		for {
			kind, seq, body, err := r.read()
			if err != nil {
				close(got)
				return
			}
			got <- frame{kind, seq, body}
		}
	}()
	resumed := newConn(ours)
	if !cd.resumeRank(l, resumed, 1) {
		t.Fatal("resumeRank refused a healthy conn")
	}
	cd.flush(l, cd.deliver(l, outFrame{kind: frameData, body: []byte{3}}))
	resumed.Close()

	var frames []frame
	for f := range got {
		frames = append(frames, f)
	}
	if len(frames) != 4 || frames[0].kind != frameWelcome {
		t.Fatalf("after the reconnect the worker read %+v, want welcome + 3 data frames", frames)
	}
	for i, f := range frames[1:] {
		if f.kind != frameData || f.seq != uint32(i+2) || len(f.body) != 1 || f.body[0] != byte(i+1) {
			t.Fatalf("replayed frame %d is %+v, want data seq %d body [%d]", i, f, i+2, i+1)
		}
	}
}

func TestWriteLoopCoalescesQueuedFrames(t *testing.T) {
	// Frames already queued when the writer wakes leave in one write.
	cd, l := newTestCoord(flushEvery)
	w := &countingRWC{}
	l.c, l.gen = newConn(w), 1
	const n = 32
	for i := 0; i < n; i++ {
		cd.route(l, frameData, make([]byte, 512))
	}
	done := make(chan struct{})
	go func() { cd.writeLoop(l); close(done) }()
	for { // the writer is the only consumer: wait for it to drain the queue
		l.mu.Lock()
		sent := len(l.unacked)
		l.mu.Unlock()
		if sent == n {
			break
		}
		runtime.Gosched()
	}
	close(cd.stop)
	<-done
	if w.writes != 1 {
		t.Fatalf("%d queued frames took %d writes, want 1", n, w.writes)
	}
	r := readerOver(w.Bytes())
	for want := uint32(1); want <= n; want++ {
		if _, seq, _, err := r.read(); err != nil || seq != want {
			t.Fatalf("frame %d read back as seq %d, %v", want, seq, err)
		}
	}
}

func TestAwaitAckedWakesOnEvents(t *testing.T) {
	// The goodbye wait ends the moment the last ack lands or the link
	// dies — not at the next poll, and long before its cap.
	waiting := func(l *wlink) chan struct{} {
		done := make(chan struct{})
		go func() { l.awaitAcked(time.Hour); close(done) }()
		return done
	}
	returned := func(done chan struct{}, why string) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("awaitAcked still waiting after %s", why)
		}
	}

	l := newWLink(1, "unix", "", true)
	l.unacked = []savedFrame{{seq: 1}, {seq: 2}}
	done := waiting(l)
	l.ackSent(1)
	select {
	case <-done:
		t.Fatal("awaitAcked returned with a frame still unacked")
	case <-time.After(10 * time.Millisecond):
	}
	l.ackSent(2)
	returned(done, "the final ack")

	l = newWLink(1, "unix", "", true)
	l.unacked = []savedFrame{{seq: 1}}
	done = waiting(l)
	l.failTerminal(io.ErrClosedPipe)
	returned(done, "a terminal link error")

	l = newWLink(1, "unix", "", true)
	l.unacked = []savedFrame{{seq: 1}}
	l.awaitAcked(time.Millisecond) // the cap still bounds a silent coordinator
}

func TestReportFailedNamesCauseOnce(t *testing.T) {
	cause := errors.New("use of closed network connection")
	runErr := fmt.Errorf("cluster: rank 2 lost coordinator: %w", cause)
	if got := reportFailed(2, runErr, cause).Error(); strings.Count(got, cause.Error()) != 1 {
		t.Errorf("shared cause printed more than once: %q", got)
	}
	other := errors.New("queue overflow")
	got := reportFailed(2, runErr, other).Error()
	if !strings.Contains(got, cause.Error()) || !strings.Contains(got, other.Error()) {
		t.Errorf("distinct causes must both be named: %q", got)
	}
}

// FuzzFrameRead: arbitrary bytes never panic the frame reader, every
// frame it returns lies within the bytes supplied, and it never
// allocates more than a small multiple of them plus a constant.
func FuzzFrameRead(f *testing.F) {
	var all []byte
	for _, fr := range fixedFrames {
		w := &rwc{}
		if err := newConn(w).write(fr.kind, fr.seq, fr.body); err != nil {
			f.Fatal(err)
		}
		f.Add(w.Bytes())
		all = append(all, w.Bytes()...)
	}
	f.Add(all)
	f.Add(all[:len(all)-3])
	over := make([]byte, 4)
	binary.LittleEndian.PutUint32(over, maxFrame+1)
	f.Add(over)
	f.Add([]byte{0x09, 0x00, 0x00, 0x00, frameData, 1})
	f.Add([]byte{0x00, 0x00, 0x00, 0x40, frameData, 1, 0, 0, 0}) // claims maxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		c := readerOver(data)
		total := 0
		got := allocatedBy(func() {
			for {
				_, _, body, err := c.read()
				if err != nil {
					return
				}
				total += 4 + frameHeaderLen + len(body)
			}
		})
		if total > len(data) {
			t.Fatalf("frames totalling %d bytes read from %d", total, len(data))
		}
		// Doubling growth: at most 4x the bytes that arrived, cumulative;
		// the constant covers the one read step a final truncated frame
		// may claim and the fuzz worker's own bookkeeping.
		if limit := uint64(4*len(data) + 16*readStep); got > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
	})
}

var frameSink []byte

// BenchmarkFrameWriteRead prices a framed hop over a unix socket pair:
// burst frames of 512 bytes written (burst1: one write each, as a
// worker sends; burst32: queued then flushed once, as the
// coordinator's writer drains a backlog) and read back.
func BenchmarkFrameWriteRead(b *testing.B) {
	for _, burst := range []int{1, 32} {
		b.Run(fmt.Sprintf("burst%d", burst), func(b *testing.B) {
			dir := b.TempDir()
			ln, err := net.Listen("unix", dir+"/s")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			dialled, err := net.Dial("unix", dir+"/s")
			if err != nil {
				b.Fatal(err)
			}
			accepted, err := ln.Accept()
			if err != nil {
				b.Fatal(err)
			}
			w, r := newConn(dialled), newConn(accepted)
			defer w.Close()
			defer r.Close()
			body := make([]byte, 512)
			b.SetBytes(int64(burst * len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < burst; j++ {
					_ = w.queue(frameData, uint32(j+1), body)
				}
				if err := w.flush(); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < burst; j++ {
					_, _, got, err := r.read()
					if err != nil {
						b.Fatal(err)
					}
					frameSink = got
				}
			}
		})
	}
}
