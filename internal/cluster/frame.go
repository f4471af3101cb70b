// Package cluster runs the native Eden runtime as a real multi-process
// cluster: a coordinator process launches one worker process per rank
// (re-executing its own binary with a worker environment), the workers
// run the SPMD program over nativeeden's cluster mode, and every
// cross-process Eden message travels as wire-codec bytes through a
// star topology — each worker holds one TCP or Unix-socket connection
// to the coordinator, which routes data frames by destination PE. The
// paper's PVM daemons motivated the same shape: one well-known relay
// beats N² mutual connections for small clusters, and it gives the
// coordinator the vantage point to fold statistics, merge per-PE
// timelines, and turn a dead worker or severed link into a structured
// *faults.ProcessDeathError instead of a hang.
//
// The protocol is self-healing: the coordinator pings every worker
// (framePing/framePong) so a wedged worker is distinguishable from a
// slow one, a worker whose connection breaks redials with backoff and
// re-HELLOs, and the payload-bearing frames carry per-link sequence
// numbers with cumulative acks so a reconnect replays exactly the
// frames the other side never processed — no loss, no duplicates.
// RunSupervised adds the outer recovery loop: a rank that actually
// dies is respawned by restarting the whole SPMD run (deterministic
// shadow-root replay makes full-run retry the honest recovery unit).
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"parhask/internal/nativeeden"
)

// Frame kinds. Every frame on a cluster connection is
// [u32 length][u8 kind][u32 seq][body], length covering kind+seq+body.
// seq is zero on the meta frames and a per-link, per-direction
// sequence number (1, 2, ...) on the payload frames — see sequenced.
const (
	// frameHello (worker -> coordinator): body =
	// [u32 rank][u8 flags][u32 lastRecvSeq]. First frame on every
	// connection, binding it to a rank; helloFlagReconnect marks a
	// redial after a link failure, and lastRecvSeq tells the
	// coordinator which of its frames the worker has already processed
	// (so replay starts exactly after it).
	frameHello byte = 1 + iota
	// frameGo (coordinator -> worker): empty body; start the run.
	frameGo
	// frameData (both directions): one Eden message. Body layout is
	// [u8 MsgKind][i64 chan][i32 src][i32 dst][payload]; the payload is
	// the wire-codec encoding whose length equals eden.SizeOfChecked.
	frameData
	// frameResult (rank 0 -> coordinator): body = wire-encoded root value.
	frameResult
	// frameError (worker -> coordinator): body = JSON wireError (see
	// errors.go); the run failed on that worker. The envelope carries a
	// type tag so structured failures survive the process boundary.
	frameError
	// frameDrain (coordinator -> worker): empty body; the root's result
	// is in, unwind and report.
	frameDrain
	// frameReport (worker -> coordinator): body = JSON workerReport
	// (stats, eventlog dump).
	frameReport
	// frameBye (worker -> coordinator): empty body; clean goodbye.
	frameBye
	// framePing (coordinator -> worker): body = [i64 send-nanos]
	// [u32 ackSeq]. Liveness probe; ackSeq is the coordinator's
	// cumulative ack of the worker's sequenced frames.
	framePing
	// framePong (worker -> coordinator): body echoes the ping's nanos
	// and carries the worker's own cumulative ack.
	framePong
	// frameAck (both directions): body = [u32 seq], a cumulative ack
	// sent every ackEvery sequenced frames so retransmit buffers stay
	// bounded between heartbeats.
	frameAck
	// frameWelcome (coordinator -> worker): body = [u32 lastRecvSeq],
	// the coordinator's answer to a reconnect HELLO. It is the first
	// frame on the new connection; the worker trims its retransmit
	// buffer to it and replays the rest before resuming.
	frameWelcome
)

// helloFlagReconnect marks a HELLO from a worker redialling after a
// link failure rather than joining the run.
const helloFlagReconnect = 1

// helloLen is the fixed HELLO body size: rank, flags, lastRecvSeq.
const helloLen = 4 + 1 + 4

// sequenced reports whether a frame kind carries a per-link sequence
// number and therefore participates in ack/replay. The meta frames
// (hello, go, ping/pong, ack, welcome) are connection-scoped and never
// replayed.
func sequenced(kind byte) bool {
	switch kind {
	case frameData, frameResult, frameError, frameDrain, frameReport, frameBye:
		return true
	}
	return false
}

// ackEvery is how many sequenced frames a receiver lets accumulate
// before sending an explicit cumulative ack (heartbeats piggyback acks
// too, this just bounds the retransmit buffers under bursts).
const ackEvery = 32

// maxFrame bounds a frame body; a length beyond it means a corrupt or
// hostile stream, not a big message.
const maxFrame = 1 << 30

// frameHeaderLen is the post-length fixed prefix: kind byte + seq u32.
const frameHeaderLen = 1 + 4

// connBufSize sizes each conn's read and write buffers: big enough
// that a burst of small frames, or any one ordinary frame with its
// header, leaves in a single write.
const connBufSize = 1 << 16

// conn is one framed cluster connection: buffered reads on the caller's
// goroutine, mutex-serialised buffered writes from any goroutine. Only
// whole frames enter the write buffer, so a flush by any writer puts
// only whole frames on the socket.
type conn struct {
	rw io.ReadWriteCloser
	br *bufio.Reader
	wm sync.Mutex // guards bw
	bw *bufio.Writer
}

func newConn(rw io.ReadWriteCloser) *conn {
	return &conn{
		rw: rw,
		br: bufio.NewReaderSize(rw, connBufSize),
		bw: bufio.NewWriterSize(rw, connBufSize),
	}
}

func (c *conn) Close() error { return c.rw.Close() }

// write sends one frame, header and body in one socket write; safe for
// concurrent use.
func (c *conn) write(kind byte, seq uint32, body []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	if err := c.put(kind, seq, body); err != nil {
		return err
	}
	return c.bw.Flush()
}

// queue buffers one frame for a later flush (or an earlier one: any
// write on this conn flushes what is queued, in order). An error is
// sticky — every later queue, write or flush on the conn fails too —
// so a caller batching frames may check only the flush.
func (c *conn) queue(kind byte, seq uint32, body []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	return c.put(kind, seq, body)
}

// flush writes out every queued frame.
func (c *conn) flush() error {
	c.wm.Lock()
	defer c.wm.Unlock()
	return c.bw.Flush()
}

// put appends one frame to the write buffer; the caller holds wm.
func (c *conn) put(kind byte, seq uint32, body []byte) error {
	var hdr [4 + frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(frameHeaderLen+len(body)))
	hdr[4] = kind
	binary.LittleEndian.PutUint32(hdr[5:9], seq)
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.bw.Write(body)
	return err
}

// readStep caps the first allocation for an incoming frame: the length
// prefix is four untrusted bytes, so the body buffer starts here and
// doubles only as bytes actually arrive. A truncated frame claiming a
// gigabyte costs one readStep.
const readStep = 1 << 16

// read returns the next frame. Only the owning reader goroutine calls
// it. A malformed length fails structurally — callers treat any error
// as a broken link, never as something to wait out.
func (c *conn) read() (byte, uint32, []byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(c.br, lenb[:]); err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(lenb[:]))
	if n < frameHeaderLen || n > maxFrame {
		return 0, 0, nil, fmt.Errorf("cluster: frame length %d outside [%d,%d]", n, frameHeaderLen, maxFrame)
	}
	buf := make([]byte, min(n, readStep))
	for filled := 0; ; {
		if _, err := io.ReadFull(c.br, buf[filled:]); err != nil {
			return 0, 0, nil, err
		}
		if len(buf) == n {
			break
		}
		filled = len(buf)
		grown := make([]byte, min(n, 2*filled))
		copy(grown, buf)
		buf = grown
	}
	return buf[0], binary.LittleEndian.Uint32(buf[1:5]), buf[frameHeaderLen:], nil
}

// savedFrame is one sent-but-unacked sequenced frame held for replay
// after a reconnect.
type savedFrame struct {
	seq  uint32
	kind byte
	body []byte
}

// trimAcked drops the prefix of buf cumulatively acked by seq, zeroing
// the vacated tail so the backing array stops pinning acked bodies.
func trimAcked(buf []savedFrame, seq uint32) []savedFrame {
	i := 0
	for i < len(buf) && buf[i].seq <= seq {
		i++
	}
	if i == 0 {
		return buf
	}
	n := copy(buf, buf[i:])
	clear(buf[n:])
	return buf[:n]
}

// encodeHello builds a HELLO body.
func encodeHello(rank int, flags byte, lastRecv uint32) []byte {
	b := make([]byte, helloLen)
	binary.LittleEndian.PutUint32(b[:4], uint32(rank))
	b[4] = flags
	binary.LittleEndian.PutUint32(b[5:9], lastRecv)
	return b
}

// decodeHello splits a HELLO body.
func decodeHello(b []byte) (rank int, flags byte, lastRecv uint32, err error) {
	if len(b) != helloLen {
		return 0, 0, 0, fmt.Errorf("cluster: hello body %d bytes, want %d", len(b), helloLen)
	}
	return int(int32(binary.LittleEndian.Uint32(b[:4]))), b[4], binary.LittleEndian.Uint32(b[5:9]), nil
}

// encodeSeq packs the single-u32 bodies (frameAck, frameWelcome).
func encodeSeq(seq uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], seq)
	return b[:]
}

// decodeSeq unpacks a single-u32 body, tolerating nothing else.
func decodeSeq(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("cluster: seq body %d bytes, want 4", len(b))
	}
	return binary.LittleEndian.Uint32(b), nil
}

// pingLen is the ping/pong body size: send-nanos + cumulative ack.
const pingLen = 8 + 4

// encodePing packs a ping/pong body.
func encodePing(nanos int64, ack uint32) []byte {
	b := make([]byte, pingLen)
	binary.LittleEndian.PutUint64(b[:8], uint64(nanos))
	binary.LittleEndian.PutUint32(b[8:12], ack)
	return b
}

// decodePing unpacks a ping/pong body.
func decodePing(b []byte) (nanos int64, ack uint32, err error) {
	if len(b) != pingLen {
		return 0, 0, fmt.Errorf("cluster: ping body %d bytes, want %d", len(b), pingLen)
	}
	return int64(binary.LittleEndian.Uint64(b[:8])), binary.LittleEndian.Uint32(b[8:12]), nil
}

// dataHeaderLen is the fixed prefix of a frameData body.
const dataHeaderLen = 1 + 8 + 4 + 4

// encodeData builds a frameData body around payload.
func encodeData(kind nativeeden.MsgKind, chanID int64, src, dst int, payload []byte) []byte {
	b := make([]byte, dataHeaderLen+len(payload))
	b[0] = byte(kind)
	binary.LittleEndian.PutUint64(b[1:9], uint64(chanID))
	binary.LittleEndian.PutUint32(b[9:13], uint32(src))
	binary.LittleEndian.PutUint32(b[13:17], uint32(dst))
	copy(b[dataHeaderLen:], payload)
	return b
}

// decodeData splits a frameData body. The payload aliases b.
func decodeData(b []byte) (kind nativeeden.MsgKind, chanID int64, src, dst int, payload []byte, err error) {
	if len(b) < dataHeaderLen {
		return 0, 0, 0, 0, nil, fmt.Errorf("cluster: data frame %d bytes, need at least %d", len(b), dataHeaderLen)
	}
	kind = nativeeden.MsgKind(b[0])
	chanID = int64(binary.LittleEndian.Uint64(b[1:9]))
	src = int(int32(binary.LittleEndian.Uint32(b[9:13])))
	dst = int(int32(binary.LittleEndian.Uint32(b[13:17])))
	return kind, chanID, src, dst, b[dataHeaderLen:], nil
}
