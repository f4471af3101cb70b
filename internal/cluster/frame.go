// Package cluster runs the native Eden runtime as a real multi-process
// cluster: a coordinator process launches one worker process per rank
// (re-executing its own binary with a worker environment), the workers
// run the SPMD program over nativeeden's cluster mode, and every
// cross-process Eden message travels as wire-codec bytes straight from
// the sending worker to the receiving one, as Eden's PVM/MPI layer
// sends from PE to PE. There are two topologies over one transport (TCP
// or Unix sockets):
//
//   - the data mesh: one connection per pair of workers, made by the
//     coordinator before launch and inherited by both workers as file
//     descriptors. A frame is sent once and never kept — a stream
//     socket is ordered and lossless, and an inherited link is never
//     redialled — and a link lives and dies with its two processes;
//   - the control star: one connection from each worker to the
//     coordinator, which owns launch, start, heartbeats, drain, results,
//     errors, reports and supervision. From there it folds statistics,
//     merges per-PE timelines, and turns a dead worker or severed link
//     into a structured *faults.ProcessDeathError instead of a hang.
//
// The control protocol carries no sequence numbers and is never
// redialled: the coordinator pings every worker (framePing/framePong)
// so a wedged worker is distinguishable from a slow one, each side
// sends each of its few payload-bearing frames once a run — RESULT or
// ERROR, REPORT and BYE from a worker, one DRAIN to it — and a link
// that breaks before its worker's REPORT is that rank's death, exactly
// as an exit is.
//
// Run's restart budget is the one recovery path: a rank that dies,
// wedges or loses its link is recovered by restarting the whole SPMD
// run (deterministic shadow-root replay makes full-run retry the
// honest recovery unit).
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
// [u32 length][u8 kind][body], length covering kind+body.
const (
	// frameHello (worker -> coordinator): body = [u32 rank]. First
	// frame on every control connection, binding it to a rank.
	frameHello byte = 1 + iota
	// frameGo (coordinator -> worker): empty body; start the run.
	frameGo
	// frameData (worker -> worker, on a data link only): one Eden
	// message. Body layout is [u8 MsgKind][i64 chan][i32 src][i32 dst]
	// [payload]; the payload is the wire-codec encoding whose length
	// equals eden.SizeOfChecked. On a control link it is a protocol
	// error at either end (errDataOnControl).
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
	// framePing (coordinator -> worker): body = [i64 send-nanos], a
	// liveness probe.
	framePing
	// framePong (worker -> coordinator): body echoes the ping's.
	framePong
	// frameAck (coordinator -> worker): empty body; the answer to BYE,
	// which the worker waits for before it exits.
	frameAck
)

// helloLen is the fixed HELLO body size: the rank.
const helloLen = 4

// errDataOnControl is the protocol error a data frame on a control link
// raises: data has one path, the mesh, and a frame that strays onto the
// control star means one side is broken.
func errDataOnControl(rank int) error {
	return fmt.Errorf("cluster: rank %d: data frame on the control link", rank)
}

// maxFrame bounds a frame body; a length beyond it means a corrupt or
// hostile stream, not a big message.
const maxFrame = 1 << 30

// frameHeaderLen is the post-length fixed prefix: the kind byte.
const frameHeaderLen = 1

// connBufSize sizes each conn's read and write buffers: big enough
// that any one ordinary frame, header included, leaves in a single
// write.
const connBufSize = 1 << 16

// conn is one framed cluster connection: buffered reads on the caller's
// goroutine, mutex-serialised writes from any goroutine, each frame
// buffered whole and flushed at once. Each side keeps its frame-header
// scratch in the conn, so neither a read nor a write allocates one.
type conn struct {
	rw io.ReadWriteCloser
	br *bufio.Reader
	rh [4 + frameHeaderLen]byte // read's header; owned by the reader
	wm sync.Mutex               // guards bw and wh
	bw *bufio.Writer
	wh [4 + frameHeaderLen]byte
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
// concurrent use. A failed write leaves the conn's error sticky, so
// every later write fails too.
func (c *conn) write(kind byte, body []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	binary.LittleEndian.PutUint32(c.wh[:4], uint32(frameHeaderLen+len(body)))
	c.wh[4] = kind
	if _, err := c.bw.Write(c.wh[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(body); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readStep caps the first allocation for an incoming frame: the length
// prefix is four untrusted bytes, so a new body buffer starts here and
// doubles only as bytes actually arrive. A truncated frame claiming a
// gigabyte costs one readStep.
const readStep = 1 << 16

// read returns the next frame. Its body is read into buf's storage
// when it fits (buf nil means a fresh buffer); past that storage, or
// past readStep, it grows by doubling as bytes arrive. A caller that
// passes each body back as the next buf reads a stream without
// allocating once the buffer has grown to its largest frame — and must
// then be done with a body before the next read. Only the owning
// reader goroutine calls it. A malformed length fails structurally,
// and a stream that ends inside a frame with io.ErrUnexpectedEOF —
// callers treat any error as a broken link, never as something to wait
// out.
func (c *conn) read(buf []byte) (byte, []byte, error) {
	h := c.rh[:]
	if _, err := io.ReadFull(c.br, h[:4]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(h[:4]))
	if n < frameHeaderLen || n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: frame length %d outside [%d,%d]", n, frameHeaderLen, maxFrame)
	}
	if err := readRest(c.br, h[4:]); err != nil {
		return 0, nil, err
	}
	n -= frameHeaderLen
	var body []byte
	if first := min(n, max(cap(buf), readStep)); first <= cap(buf) {
		body = buf[:first]
	} else {
		body = make([]byte, first)
	}
	for filled := 0; ; {
		if err := readRest(c.br, body[filled:]); err != nil {
			return 0, nil, err
		}
		if len(body) == n {
			break
		}
		filled = len(body)
		grown := make([]byte, min(n, 2*filled))
		copy(grown, body)
		body = grown
	}
	return h[4], body, nil
}

// readRest fills b from inside a frame, where even a clean EOF means
// the frame was cut short.
func readRest(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// encodeHello builds a HELLO body.
func encodeHello(rank int) []byte {
	return binary.LittleEndian.AppendUint32(make([]byte, 0, helloLen), uint32(rank))
}

// decodeHello unpacks a HELLO body.
func decodeHello(b []byte) (rank int, err error) {
	if len(b) != helloLen {
		return 0, fmt.Errorf("cluster: hello body %d bytes, want %d", len(b), helloLen)
	}
	return int(int32(binary.LittleEndian.Uint32(b))), nil
}

// pingLen is the ping/pong body size: the send-nanos.
const pingLen = 8

// encodePing packs a ping body.
func encodePing(nanos int64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, pingLen), uint64(nanos))
}

// decodePing unpacks a ping/pong body.
func decodePing(b []byte) (nanos int64, err error) {
	if len(b) != pingLen {
		return 0, fmt.Errorf("cluster: ping body %d bytes, want %d", len(b), pingLen)
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// dataHeaderLen is the fixed prefix of a frameData body: the room
// nativeeden encodes every remote payload behind.
const dataHeaderLen = nativeeden.HeaderRoom

// putDataHeader writes a frameData body's header into the room at the
// front of frame, whose payload is already in place behind it.
func putDataHeader(frame []byte, kind nativeeden.MsgKind, chanID int64, src, dst int) {
	frame[0] = byte(kind)
	binary.LittleEndian.PutUint64(frame[1:9], uint64(chanID))
	binary.LittleEndian.PutUint32(frame[9:13], uint32(src))
	binary.LittleEndian.PutUint32(frame[13:17], uint32(dst))
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
