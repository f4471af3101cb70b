package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parhask/internal/eden/wire"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/nativeeden"
	"parhask/internal/workloads/euler"
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
			if err := ca.write(f.kind, f.body); err != nil {
				t.Errorf("write(kind %d): %v", f.kind, err)
			}
		}
	}()
	for _, f := range frames {
		kind, body, err := cb.read(nil)
		if err != nil {
			t.Fatalf("read(kind %d): %v", f.kind, err)
		}
		if kind != f.kind || !bytes.Equal(body, f.body) {
			t.Fatalf("round trip: got (%d, %q), want (%d, %q)", kind, body, f.kind, f.body)
		}
	}
}

func TestFrameTruncatedHeader(t *testing.T) {
	// A stream that dies inside the length prefix, the kind byte or a
	// short body must fail structurally, never hang or return a phantom
	// frame.
	for _, raw := range [][]byte{
		{},
		{0x05},
		{0x05, 0x00, 0x00},
		{0x05, 0x00, 0x00, 0x00},               // length says 5, nothing follows
		{0x05, 0x00, 0x00, 0x00, frameData},    // kind but no body
		{0x05, 0x00, 0x00, 0x00, frameData, 1}, // partial body
	} {
		c := readerOver(raw)
		if _, _, err := c.read(nil); err == nil {
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
		_, _, err := c.read(nil)
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
	if _, _, err := c.read(nil); err != io.ErrUnexpectedEOF {
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
	kind, chanID, src, dst, payload, err := decodeData(dataBody(2, -7, 1, 3, "xy"))
	if err != nil || kind != 2 || chanID != -7 || src != 1 || dst != 3 || string(payload) != "xy" {
		t.Errorf("decodeData round trip: %d %d %d %d %q %v", kind, chanID, src, dst, payload, err)
	}
}

func TestControlBodySizes(t *testing.T) {
	for _, n := range []int{0, helloLen - 1, helloLen + 1, 9} {
		if _, err := decodeHello(make([]byte, n)); err == nil {
			t.Errorf("decodeHello accepted a %d-byte body", n)
		}
	}
	for _, n := range []int{0, pingLen - 1, pingLen + 1, 12} {
		if _, err := decodePing(make([]byte, n)); err == nil {
			t.Errorf("decodePing accepted a %d-byte body", n)
		}
	}
	if len(encodeHello(3)) != 4 || len(encodePing(1)) != 8 {
		t.Errorf("hello and ping bodies are %d and %d bytes, want 4 and 8", len(encodeHello(3)), len(encodePing(1)))
	}
	rank, err := decodeHello(encodeHello(3))
	if err != nil || rank != 3 {
		t.Errorf("hello round trip: %d %v", rank, err)
	}
	nanos, err := decodePing(encodePing(-5))
	if err != nil || nanos != -5 {
		t.Errorf("ping round trip: %d %v", nanos, err)
	}
}

// pipeReader collects every frame read from c until it ends, then
// closes the returned channel. The buffer holds more frames than any
// test expects, so the reader never holds up a writer on a net.Pipe.
func pipeReader(c *conn) <-chan frame {
	got := make(chan frame, 16)
	go func() {
		defer close(got)
		for {
			kind, body, err := c.read(nil)
			if err != nil {
				return
			}
			got <- frame{kind, body}
		}
	}()
	return got
}

// frame is one frame as a test reads it back.
type frame struct {
	kind byte
	body []byte
}

func collect(got <-chan frame) []frame {
	var fs []frame
	for f := range got {
		fs = append(fs, f)
	}
	return fs
}

// testResult is a RESULT body for a coordinator's state machine.
func testResult(t *testing.T) []byte {
	t.Helper()
	b, err := wire.Encode(int64(42))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRouteDropsOnDeadRank(t *testing.T) {
	// Rank 0's result drains every other rank by a direct send. A DRAIN
	// whose destination has reported or is dead counts one drop; a live
	// rank reads its DRAIN and counts none.
	cd, _ := newTestCoord(4)
	defer close(cd.stop)
	cd.links[1].done.Store(true)
	cd.links[2].close()
	ours, theirs := net.Pipe()
	cd.links[3].c = newConn(ours)
	got := pipeReader(newConn(theirs))
	if err := cd.step(event{rank: 0, kind: frameResult, body: testResult(t)}); err != nil {
		t.Fatal(err)
	}
	ours.Close()
	if fs := collect(got); len(fs) != 1 || fs[0].kind != frameDrain {
		t.Fatalf("live rank read %+v, want one DRAIN", fs)
	}
	for rank, want := range []int64{0, 1, 1, 0} {
		if got := cd.links[rank].drops.Load(); got != want {
			t.Errorf("rank %d: %d drops, want %d", rank, got, want)
		}
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

// dataBody builds a frameData body the way a worker sends one: the
// payload behind the header room, the header written into it.
func dataBody(kind nativeeden.MsgKind, chanID int64, src, dst int, payload string) []byte {
	b := append(make([]byte, dataHeaderLen), payload...)
	putDataHeader(b, kind, chanID, src, dst)
	return b
}

// fixedFrames are the well-formed frames the round-trip test and the
// fuzz corpus share.
var fixedFrames = []frame{
	{frameHello, encodeHello(2)},
	{frameGo, nil},
	{frameData, dataBody(3, 42, 1, 4, "payload")},
	{framePing, encodePing(123456789)},
	{frameAck, nil},
	{frameReport, []byte(`{"rank":1}`)},
	{frameError, encodeWorkerError(&faults.DeadlockError{Backend: "nativeeden", Reason: "quiescence"})},
	{framePong, encodePing(-1)},
}

func TestFrameSingleWrite(t *testing.T) {
	// Header and body leave together: one write per frame.
	w := &countingRWC{}
	c := newConn(w)
	const n = 4
	for i := 0; i < n; i++ {
		if err := c.write(frameData, bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
		if w.writes != i+1 {
			t.Fatalf("%d frames took %d writes, want %d", i+1, w.writes, i+1)
		}
	}
	// Everything written reads back as n frames, in order.
	r := readerOver(w.Bytes())
	for i := 0; i < n; i++ {
		kind, body, err := r.read(nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != frameData || !bytes.Equal(body, bytes.Repeat([]byte{byte(i)}, 512)) {
			t.Fatalf("frame %d read back as kind %d body %v", i, kind, body)
		}
	}
	if _, _, err := r.read(nil); err != io.EOF {
		t.Fatalf("after the frames: %v, want EOF", err)
	}
}

// reuseBufs are the buffers the read tests pass in: none (a fresh
// body), and dirty leftovers of an earlier frame smaller and larger
// than one read step.
func reuseBufs() map[string][]byte {
	return map[string][]byte{
		"fresh": nil,
		"small": bytes.Repeat([]byte{0xa5}, 100),
		"large": bytes.Repeat([]byte{0x5a}, 3*readStep),
	}
}

func TestFrameLargeBodyGrows(t *testing.T) {
	// A body past the first read step (and past the buffer passed in)
	// arrives whole through the growth loop.
	body := make([]byte, 5*readStep+123)
	for i := range body {
		body[i] = byte(i * 7)
	}
	w := &rwc{}
	if err := newConn(w).write(frameReport, body); err != nil {
		t.Fatal(err)
	}
	for name, buf := range reuseBufs() {
		kind, got, err := readerOver(w.Bytes()).read(buf)
		if err != nil || kind != frameReport || !bytes.Equal(got, body) {
			t.Fatalf("large frame into %s buffer: kind %d len %d err %v", name, kind, len(got), err)
		}
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
	// the reader must fail having allocated a read step, not the claim,
	// whatever buffer it was handed.
	raw := make([]byte, 4, 4+frameHeaderLen+4)
	binary.LittleEndian.PutUint32(raw, maxFrame)
	raw = append(raw, frameData, 1, 0, 0, 0)
	for name, buf := range reuseBufs() {
		c := readerOver(raw)
		var err error
		got := allocatedBy(func() { _, _, err = c.read(buf) })
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated gigabyte frame into %s buffer: %v, want %v", name, err, io.ErrUnexpectedEOF)
		}
		if got > 4*readStep {
			t.Fatalf("reading a truncated frame claiming %d bytes into %s buffer allocated %d", maxFrame, name, got)
		}
	}
}

// discardRWC is a peer that takes every byte and never answers.
type discardRWC struct{}

func (discardRWC) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardRWC) Write(p []byte) (int, error) { return len(p), nil }
func (discardRWC) Close() error                { return nil }

func TestWorkerSendAllocatesOneBuffer(t *testing.T) {
	// A remote message costs the worker one allocation: the frame the
	// payload is encoded into is the body the peer link writes — no copy
	// into a second body, no boxed encoder or header on the way. Checked
	// for a 128-entry pivot row and for a registered struct (whose codec
	// receives the encoder by pointer).
	tr := &meshTransport{
		perProc: 2, l: newWLink(0, "unix", ""),
		peers: []*conn{nil, newConn(discardRWC{})}, drops: make([]atomic.Int64, 2),
	}
	for _, v := range []graph.Value{make([]int32, 128), euler.Range{Lo: 1, Hi: 9}} {
		allocs := testing.AllocsPerRun(200, func() {
			frame, err := nativeeden.EncodeFrame(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.SendRemote(nativeeden.MsgChanSend, 7, 0, 3, frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("sending a %T through the worker transport made %v allocations, want 1", v, allocs)
		}
	}
}

func TestReusedReadAllocatesNothing(t *testing.T) {
	// Once the worker's read buffer has grown to the largest frame, a
	// data frame costs the read no allocation at all.
	frame, err := nativeeden.EncodeFrame(make([]int32, 128))
	if err != nil {
		t.Fatal(err)
	}
	putDataHeader(frame, nativeeden.MsgStreamSend, 7, 0, 3)
	const runs = 100
	w := &rwc{}
	wc := newConn(w)
	for i := 0; i <= runs+1; i++ { // the warm-up read, AllocsPerRun's own, then runs
		if err := wc.write(frameData, frame); err != nil {
			t.Fatal(err)
		}
	}
	c := readerOver(w.Bytes())
	_, buf, err := c.read(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		_, body, err := c.read(buf)
		if err != nil || !bytes.Equal(body, frame) {
			t.Fatalf("reused read: %d bytes, %v", len(body), err)
		}
		buf = body
	})
	if allocs != 0 {
		t.Fatalf("reading a data frame into the grown buffer made %v allocations, want 0", allocs)
	}
}

// newTestCoord is a coordinator of procs ranks, none connected, with
// nothing running, and its rank 0 link.
func newTestCoord(procs int) (*coord, *rankLink) {
	cd := newCoord(Config{Procs: procs, PerProc: 1})
	return cd, cd.links[0]
}

// cutRWC takes the first limit bytes written and then fails, like a
// socket cut mid-frame.
type cutRWC struct {
	rwc
	limit  int
	closed bool
}

func (c *cutRWC) Write(p []byte) (int, error) {
	if c.Len()+len(p) > c.limit {
		n, _ := c.rwc.Write(p[:c.limit-c.Len()])
		return n, io.ErrClosedPipe
	}
	return c.rwc.Write(p)
}

func (c *cutRWC) Close() error {
	c.closed = true
	return nil
}

func TestControlWriteFailureIsTerminal(t *testing.T) {
	// A worker's link breaks mid-REPORT. That write returns its error and
	// closes the link; every later write returns the same error and puts
	// nothing on the socket; the goodbye wait is over at once; and a run
	// that failed of the same break names the cause once.
	t.Run("worker", func(t *testing.T) {
		result, report := testResult(t), []byte(`{"rank":0}`)
		w := &cutRWC{limit: 4 + frameHeaderLen + len(result) + 3}
		l := newWLink(0, "unix", "")
		l.c = newConn(w)
		if err := l.write(frameResult, result); err != nil {
			t.Fatal(err)
		}
		err := l.write(frameReport, report)
		if err == nil {
			t.Fatal("a write cut mid-frame returned nil")
		}
		if !w.closed {
			t.Fatal("a failed write left the link open")
		}
		for _, kind := range []byte{frameReport, frameBye} {
			if again := l.write(kind, nil); again != err {
				t.Fatalf("a write after the break returned %v, want %v", again, err)
			}
		}
		if w.Len() != w.limit {
			t.Fatalf("%d bytes reached the socket, want the %d before the cut", w.Len(), w.limit)
		}
		l.awaitAcked(time.Hour)
		runErr := fmt.Errorf("cluster: rank 0 lost coordinator: %w", err)
		if got := reportFailed(0, runErr, l.write(frameError, nil)).Error(); strings.Count(got, err.Error()) != 1 {
			t.Fatalf("the cause is not named exactly once: %q", got)
		}
	})
}

func TestAwaitAckedWakesOnEvents(t *testing.T) {
	// The goodbye wait ends the moment the coordinator's ACK lands or the
	// link dies — not at the next poll, and long before its cap — and the
	// cap still bounds a silent coordinator.
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

	l := newWLink(1, "unix", "")
	ours, theirs := net.Pipe()
	l.c = newConn(ours)
	readErr := make(chan error, 1)
	go func() { readErr <- l.readControl(func() {}) }()
	coord := newConn(theirs)
	done := waiting(l)
	if err := coord.write(framePing, encodePing(1)); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := coord.read(nil); err != nil || kind != framePong {
		t.Fatalf("ping answered with kind %d, %v", kind, err)
	}
	select {
	case <-done:
		t.Fatal("awaitAcked returned before the ACK")
	case <-time.After(10 * time.Millisecond):
	}
	if err := coord.write(frameAck, nil); err != nil {
		t.Fatal(err)
	}
	returned(done, "the ACK")
	theirs.Close()
	if err := <-readErr; err != nil {
		t.Fatalf("the coordinator hung up after the ACK, and the reader ended with %v, want nil", err)
	}

	l = newWLink(1, "unix", "")
	done = waiting(l)
	l.failTerminal(io.ErrClosedPipe)
	returned(done, "a terminal link error")

	l = newWLink(1, "unix", "")
	l.awaitAcked(time.Millisecond) // the cap
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
// allocates more than a small multiple of them plus a constant. The
// input is read twice — into fresh bodies, and into one reused buffer
// left dirty by a previous frame — and both reads must return the same
// frames and end with the same error. Each frame is also handed to the
// decoder for its kind, which must not panic and must reject a
// malformed body.
func FuzzFrameRead(f *testing.F) {
	var all []byte
	for _, fr := range fixedFrames {
		w := &rwc{}
		if err := newConn(w).write(fr.kind, fr.body); err != nil {
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
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, frameData, 1})          // a body cut short
	f.Add([]byte{0x00, 0x00, 0x00, 0x40, frameData, 1, 0, 0, 0}) // claims maxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		c := readerOver(data)
		total := 0
		var fresh []frame
		var freshErr error
		got := allocatedBy(func() {
			for {
				kind, body, err := c.read(nil)
				if err != nil {
					freshErr = err
					return
				}
				total += 4 + frameHeaderLen + len(body)
				fresh = append(fresh, frame{kind, body})
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
		for _, fr := range fresh {
			checkDecode(t, fr)
		}

		_, buf, err := readerOver(all).read(nil) // the previous frame's leftovers
		if err != nil {
			t.Fatal(err)
		}
		c = readerOver(data)
		for i := 0; ; i++ {
			kind, body, err := c.read(buf)
			if err != nil {
				if i != len(fresh) || fmt.Sprint(err) != fmt.Sprint(freshErr) {
					t.Fatalf("reused read ended at frame %d with %v; fresh read at %d with %v", i, err, len(fresh), freshErr)
				}
				return
			}
			if i >= len(fresh) {
				t.Fatalf("reused read returned frame %d; fresh read ended at %d", i, len(fresh))
			}
			if want := fresh[i]; kind != want.kind || !bytes.Equal(body, want.body) {
				t.Fatalf("frame %d: reused read (%d, %x), fresh (%d, %x)", i, kind, body, want.kind, want.body)
			}
			buf = body
		}
	})
}

// checkDecode hands a frame that arrived from outside to the decoder for
// its kind: each accepts exactly the well-formed bodies.
func checkDecode(t *testing.T, fr frame) {
	t.Helper()
	switch fr.kind {
	case frameHello:
		if _, err := decodeHello(fr.body); (err == nil) != (len(fr.body) == helloLen) {
			t.Fatalf("decodeHello(%d bytes): %v", len(fr.body), err)
		}
	case framePing, framePong:
		if _, err := decodePing(fr.body); (err == nil) != (len(fr.body) == pingLen) {
			t.Fatalf("decodePing(%d bytes): %v", len(fr.body), err)
		}
	case frameData:
		_, _, _, _, payload, err := decodeData(fr.body)
		if (err == nil) != (len(fr.body) >= dataHeaderLen) || (err == nil && len(payload) != len(fr.body)-dataHeaderLen) {
			t.Fatalf("decodeData(%d bytes): %d-byte payload, %v", len(fr.body), len(payload), err)
		}
	case frameError:
		// An envelope that does not parse, or has no text, is only text.
		err := decodeWorkerError(1, fr.body)
		if err == nil || !strings.Contains(err.Error(), "rank 1") {
			t.Fatalf("decodeWorkerError(%q) = %v", fr.body, err)
		}
		var env wireError
		if (json.Unmarshal(fr.body, &env) != nil || env.Text == "") && errors.Unwrap(err) != nil {
			t.Fatalf("decodeWorkerError(%q) found a typed failure in a malformed envelope: %#v", fr.body, errors.Unwrap(err))
		}
	}
}

var frameSink []byte

// BenchmarkFrameWriteRead prices a framed hop over a unix socket pair:
// a 512-byte frame written, as a worker sends to a peer, and read back.
func BenchmarkFrameWriteRead(b *testing.B) {
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
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.write(frameData, body); err != nil {
			b.Fatal(err)
		}
		_, got, err := r.read(nil)
		if err != nil {
			b.Fatal(err)
		}
		frameSink = got
	}
}
