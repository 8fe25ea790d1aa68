// TCP transport: ranks as separate OS processes over real sockets.
//
// The simulator in this package runs every rank as a goroutine in one
// address space. A tcp-backed Cluster (NewTCPCluster) instead owns exactly
// one local rank and reaches its peers over length-prefixed, checksummed
// TCP frames. There is one kind of traffic: a raw message from one rank's
// process straight to another's mailbox. A point-to-point send is one such
// message; a collective (tcpCollective) is a handful of them — each member's
// metadata (virtual clock, extra, part sizes: tens of bytes) to the
// communicator's rank 0 and the assembled table back, then every part once,
// from the rank that holds it to each rank that returns it. All analytic
// cost charging runs on the exact same code paths as the simulator, over the
// exact same rendezvous metadata, so a tcp run's similarity graph, Stats,
// virtual times, and byte bills are bit-identical to the in-process
// backends, and no payload byte is written to a rank that does not return it.
// The transport additionally records its own wall-clock ledger (TCPStats).
//
// Determinism requirements the rest of the repo already satisfies:
// communication must be SPMD (every rank performs the same sequence of
// collectives per communicator, which keeps the per-rank sequence numbers
// in lockstep with zero coordination and makes FIFO order per (comm, src,
// dst, tag) the only message matching needed), and communicator ids must
// derive purely from the split history (TrySplit allocates ids from a local
// counter over sorted colors — a pure function of the deposits, replicated
// identically in every process).
//
// Failure model: every blocking wait on a remote frame is bounded by
// TCPOptions.ReadTimeout and surfaces as an error wrapping ErrTCPTimeout
// through the Try* path; a rank that aborts (error, injected crash,
// interrupt) broadcasts an abort frame carrying its cause, which peers
// reconstruct so errors.Is sees the original sentinel across process
// boundaries. The deterministic fault injector stacks on top unchanged:
// its verdicts are pure hashes of (seed, comm, seq), so tcp ranks agree on
// every drop/corrupt/delay schedule without communicating.
package mpi

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// --- frame codec ---

// A tcp frame is magic ("PTF3"), a little-endian u32 body length, the body,
// and a little-endian u64 wire.Checksum of the body. The envelope is PTF2's;
// the magic moved because the bodies inside did (collective metadata and
// parts are raw messages, the message head is 48 bytes), so a mesh of mixed
// builds fails its handshake by name instead of misparsing a frame. The
// encoding is canonical: any byte string DecodeTCPFrame accepts re-encodes
// to exactly the bytes consumed (FuzzTCPFrameRoundTrip holds the codec to
// this).
const (
	tcpFrameMagic   = "PTF3"
	tcpHeaderLen    = 8 // magic + u32 body length
	tcpTrailerLen   = 8 // checksum of the body
	maxTCPFrameBody = 1 << 30
)

// Frame body kinds (first body byte).
const (
	tcpKindHello byte = 1 // handshake: u64 world rank of the dialer
	tcpKindP2P   byte = 2 // raw message for a mailbox: p2p, collective metadata, collective part
	tcpKindAbort byte = 5 // abort cause: code byte + message text
	tcpKindBye   byte = 6 // clean shutdown notice
)

// tcpFrameEnds returns the header and the trailer that frame the body
// head‖tail. The checksum is chained over the two pieces, which equals the
// checksum of the contiguous body a reader verifies when len(head) is a
// multiple of 8 (or tail is empty).
func tcpFrameEnds(head, tail []byte) (hdr, trl []byte) {
	ends := make([]byte, 0, tcpHeaderLen+tcpTrailerLen)
	ends = append(ends, tcpFrameMagic...)
	ends = wire.AppendU32(ends, uint32(len(head)+len(tail)))
	ends = wire.AppendU64(ends, wire.Checksum(wire.Checksum(wire.ChecksumInit, head), tail))
	return ends[:tcpHeaderLen], ends[tcpHeaderLen:]
}

// AppendTCPFrame appends one framed body to dst and returns the result. The
// 1 GiB body limit is enforced where a frame meets a socket (writeFrame),
// as an error.
func AppendTCPFrame(dst, body []byte) []byte {
	hdr, trl := tcpFrameEnds(body, nil)
	dst = append(dst, hdr...)
	dst = append(dst, body...)
	return append(dst, trl...)
}

// tcpFrameSize validates a frame header (magic, length limit) and returns
// the body length it announces.
func tcpFrameSize(hdr []byte) (int, error) {
	if len(hdr) < tcpHeaderLen {
		return 0, fmt.Errorf("mpi: tcp frame truncated: %d header bytes of %d", len(hdr), tcpHeaderLen)
	}
	if string(hdr[:4]) != tcpFrameMagic {
		return 0, fmt.Errorf("mpi: bad tcp frame magic % x", hdr[:4])
	}
	size := int(wire.U32(hdr[4:]))
	if size > maxTCPFrameBody {
		return 0, fmt.Errorf("mpi: tcp frame body %d bytes exceeds limit %d", size, maxTCPFrameBody)
	}
	return size, nil
}

// tcpFrameBody checks the trailer of rest (a size-byte body followed by its
// checksum) and returns the body.
func tcpFrameBody(rest []byte, size int) ([]byte, error) {
	body := rest[:size:size]
	if got, want := wire.U64(rest[size:]), wire.Checksum(wire.ChecksumInit, body); got != want {
		return nil, fmt.Errorf("mpi: tcp frame checksum %016x, want %016x", got, want)
	}
	return body, nil
}

// DecodeTCPFrame parses one frame from the front of buf, returning the body
// and the bytes consumed. Truncated input, bad magic, an oversized length
// prefix, and checksum mismatches are all rejected.
func DecodeTCPFrame(buf []byte) (body []byte, n int, err error) {
	size, err := tcpFrameSize(buf)
	if err != nil {
		return nil, 0, err
	}
	total := tcpHeaderLen + size + tcpTrailerLen
	if len(buf) < total {
		return nil, 0, fmt.Errorf("mpi: tcp frame truncated: %d bytes of %d", len(buf), total)
	}
	if body, err = tcpFrameBody(buf[tcpHeaderLen:total], size); err != nil {
		return nil, 0, err
	}
	return body, total, nil
}

// readTCPFrame reads one frame from a stream, reassembling partial reads
// (io.ReadFull) and applying the same validation as DecodeTCPFrame.
func readTCPFrame(br *bufio.Reader) ([]byte, error) {
	var hdr [tcpHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	size, err := tcpFrameSize(hdr[:])
	if err != nil {
		return nil, err
	}
	rest := make([]byte, size+tcpTrailerLen)
	if _, err := io.ReadFull(br, rest); err != nil {
		return nil, fmt.Errorf("mpi: tcp frame body: %w", err)
	}
	return tcpFrameBody(rest, size)
}

// --- errors ---

// ErrTCPTimeout tags every bounded wait of the tcp transport that expired:
// handshake dials and every receive, point-to-point or inside a collective.
// It surfaces through the Try* methods as the cluster abort cause, so a lost
// peer fails the run instead of hanging it.
var ErrTCPTimeout = errors.New("mpi: tcp deadline exceeded")

// ErrSharedOverTCP rejects a collective part that is not a []byte on a
// tcp-backed cluster: the typed collectives (TryBcastShared and friends)
// hand values across ranks by reference, which requires one address space.
// Callers serialize first (dmat does this by running tcp clusters with
// BackendCodec). Only a rank that holds such a part can tell, so the refusal
// aborts the cluster and the other ranks return the relayed cause.
var ErrSharedOverTCP = errors.New("mpi: shared collectives need one address space (tcp transport active); use the codec backend")

// Abort-cause codes carried in abort frames, so sentinel identity survives
// the process boundary and errors.Is keeps working on the receiving side.
const (
	abortCodeGeneric byte = iota
	abortCodeInterrupted
	abortCodeCrashed
	abortCodeRetries
	abortCodeTimeout
)

func abortCodeOf(err error) byte {
	switch {
	case errors.Is(err, ErrInterrupted):
		return abortCodeInterrupted
	case errors.Is(err, ErrRankCrashed):
		return abortCodeCrashed
	case errors.Is(err, ErrRetriesExhausted):
		return abortCodeRetries
	case errors.Is(err, ErrTCPTimeout):
		return abortCodeTimeout
	default:
		return abortCodeGeneric
	}
}

func abortBaseOf(code byte) error {
	switch code {
	case abortCodeInterrupted:
		return ErrInterrupted
	case abortCodeCrashed:
		return ErrRankCrashed
	case abortCodeRetries:
		return ErrRetriesExhausted
	case abortCodeTimeout:
		return ErrTCPTimeout
	default:
		return ErrAborted
	}
}

// remoteAbortError reconstructs a peer's abort cause from an abort frame:
// the message text travels verbatim, and Unwrap restores the sentinel the
// cause matched on the sending side.
type remoteAbortError struct {
	base error
	msg  string
}

func (e *remoteAbortError) Error() string { return e.msg }
func (e *remoteAbortError) Unwrap() error { return e.base }

// --- transport ---

// TCPOptions configures one rank of a tcp-backed cluster.
type TCPOptions struct {
	Rank  int // this process's world rank
	Size  int // total rank count across all processes
	Model CostModel
	// Listener accepts connections from higher-ranked peers during the mesh
	// handshake. Required when Size > 1; closed by Cluster.Close.
	Listener net.Listener
	// Peers[i] is rank i's listen address ("host:port"); Peers[Rank] is
	// unused. Required when Size > 1.
	Peers []string
	// HandshakeTimeout bounds mesh construction: dialing lower ranks and
	// accepting higher ones. Default 10s.
	HandshakeTimeout time.Duration
	// ReadTimeout bounds every blocking wait on a remote frame; expiry
	// aborts the cluster with an error wrapping ErrTCPTimeout. Default 2
	// minutes.
	ReadTimeout time.Duration
}

type tcpConn struct {
	c  net.Conn
	br *bufio.Reader
	mu sync.Mutex // serializes writes
}

// tcpTransport is the per-process state behind a tcp-backed Cluster.
type tcpTransport struct {
	rank, size  int
	ln          net.Listener
	conns       []*tcpConn // indexed by world rank; nil for self
	readTimeout time.Duration
	byeFrom     []atomic.Bool // indexed by world rank: the peer said goodbye

	closing atomic.Bool
	cluster *Cluster

	wallNS    atomic.Int64 // wall-clock nanoseconds blocked on remote frames
	framesOut atomic.Int64
	framesIn  atomic.Int64
	bytesOut  atomic.Int64
	bytesIn   atomic.Int64
	readers   sync.WaitGroup
}

// TCPStats is the wall-clock ledger of a tcp-backed cluster, recorded
// alongside the simulator's analytic clock (which stays authoritative for
// the paper's scaling numbers).
type TCPStats struct {
	CommWall       time.Duration // wall time this rank spent blocked on remote frames
	FramesSent     int64
	FramesReceived int64
	BytesSent      int64 // framed bytes on the wire, headers included
	BytesReceived  int64
}

// TCPStats reports the transport's wall-clock counters; ok is false on a
// simulated (in-process) cluster.
func (cl *Cluster) TCPStats() (stats TCPStats, ok bool) {
	t := cl.tcp
	if t == nil {
		return TCPStats{}, false
	}
	return TCPStats{
		CommWall:       time.Duration(t.wallNS.Load()),
		FramesSent:     t.framesOut.Load(),
		FramesReceived: t.framesIn.Load(),
		BytesSent:      t.bytesOut.Load(),
		BytesReceived:  t.bytesIn.Load(),
	}, true
}

// NewTCPCluster builds the mesh for one rank of a multi-process cluster:
// it dials every lower rank (introducing itself with a hello frame),
// accepts a connection from every higher rank, and starts one reader per
// peer. The returned Cluster runs exactly one local rank — Run invokes fn
// once, with Comm.Rank() == o.Rank — and must be torn down with Close.
// Cluster.Summary reports nothing here: the run's ledger is read out with
// Comm.Summarize before Run returns.
func NewTCPCluster(o TCPOptions) (*Cluster, error) {
	if o.Size <= 0 || o.Rank < 0 || o.Rank >= o.Size {
		return nil, fmt.Errorf("mpi: tcp rank %d of %d", o.Rank, o.Size)
	}
	if o.Size > 1 {
		if o.Listener == nil {
			return nil, fmt.Errorf("mpi: tcp cluster of %d needs a listener", o.Size)
		}
		if len(o.Peers) != o.Size {
			return nil, fmt.Errorf("mpi: %d peer addresses for a tcp cluster of %d", len(o.Peers), o.Size)
		}
	}
	hs := o.HandshakeTimeout
	if hs <= 0 {
		hs = 10 * time.Second
	}
	rt := o.ReadTimeout
	if rt <= 0 {
		rt = 2 * time.Minute
	}
	cl := &Cluster{
		size:   o.Size,
		model:  o.Model,
		router: &router{boxes: make(map[mailKey]*mailbox), collectives: make(map[collKey]*collState)},
		clocks: []*Clock{newClock(o.Model)},
	}
	t := &tcpTransport{
		rank: o.Rank, size: o.Size, ln: o.Listener,
		conns:       make([]*tcpConn, o.Size),
		readTimeout: rt,
		byeFrom:     make([]atomic.Bool, o.Size),
		cluster:     cl,
	}
	cl.tcp = t

	deadline := time.Now().Add(hs)
	hello := wire.AppendU64([]byte{tcpKindHello}, uint64(o.Rank))
	for peer := 0; peer < o.Rank; peer++ {
		conn, err := dialUntil(o.Peers[peer], deadline)
		if err != nil {
			t.closePartial()
			return nil, fmt.Errorf("mpi: tcp rank %d dialing rank %d: %w", o.Rank, peer, err)
		}
		conn.SetWriteDeadline(deadline)
		if _, err := conn.Write(AppendTCPFrame(nil, hello)); err != nil {
			conn.Close()
			t.closePartial()
			return nil, fmt.Errorf("mpi: tcp rank %d hello to rank %d: %w", o.Rank, peer, err)
		}
		conn.SetWriteDeadline(time.Time{})
		t.conns[peer] = &tcpConn{c: conn, br: bufio.NewReader(conn)}
	}
	for need := o.Size - 1 - o.Rank; need > 0; need-- {
		if d, ok := o.Listener.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
		}
		conn, err := o.Listener.Accept()
		if err != nil {
			t.closePartial()
			return nil, fmt.Errorf("mpi: tcp rank %d accepting peers: %w", o.Rank, err)
		}
		conn.SetReadDeadline(deadline)
		br := bufio.NewReader(conn)
		body, err := readTCPFrame(br)
		if err != nil || len(body) != 9 || body[0] != tcpKindHello {
			conn.Close()
			t.closePartial()
			return nil, fmt.Errorf("mpi: tcp rank %d: bad hello (%v)", o.Rank, err)
		}
		peer := int(int64(wire.U64(body[1:])))
		if peer <= o.Rank || peer >= o.Size || t.conns[peer] != nil {
			conn.Close()
			t.closePartial()
			return nil, fmt.Errorf("mpi: tcp rank %d: unexpected hello from rank %d", o.Rank, peer)
		}
		conn.SetReadDeadline(time.Time{})
		t.conns[peer] = &tcpConn{c: conn, br: br}
	}
	for world, tc := range t.conns {
		if tc != nil {
			t.readers.Add(1)
			go t.readLoop(world, tc)
		}
	}
	return cl, nil
}

func dialUntil(addr string, deadline time.Time) (net.Conn, error) {
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("dial %s: %w", addr, ErrTCPTimeout)
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return conn, nil
		}
		// The peer's listener may not be up yet; retry until the deadline.
		time.Sleep(10 * time.Millisecond)
	}
}

func (t *tcpTransport) closePartial() {
	t.closing.Store(true)
	for _, tc := range t.conns {
		if tc != nil {
			tc.c.Close()
		}
	}
	if t.ln != nil {
		t.ln.Close()
	}
}

// writeFrame frames the body head‖tail to rank world as header · body ·
// trailer in one vectored write: a payload goes from the caller's slice to
// the socket without a copy into a frame buffer. len(head) must be a
// multiple of 8 when tail is not empty (tcpFrameEnds).
func (t *tcpTransport) writeFrame(world int, head, tail []byte) error {
	if world < 0 || world >= t.size || world == t.rank || t.conns[world] == nil {
		return fmt.Errorf("mpi: no tcp connection to rank %d", world)
	}
	if n := len(head) + len(tail); n > maxTCPFrameBody {
		return fmt.Errorf("mpi: tcp frame to rank %d: body of %d bytes exceeds the limit of %d", world, n, maxTCPFrameBody)
	}
	tc := t.conns[world]
	hdr, trl := tcpFrameEnds(head, tail)
	bufs := net.Buffers{hdr, head, tail, trl}
	tc.mu.Lock()
	n, err := bufs.WriteTo(tc.c)
	tc.mu.Unlock()
	t.framesOut.Add(1)
	t.bytesOut.Add(n)
	if err != nil {
		return fmt.Errorf("mpi: tcp write to rank %d: %w", world, err)
	}
	return nil
}

// readLoop drains one peer connection, dispatching frames until the peer
// says goodbye, the link breaks, or the cluster shuts down. An unexpected
// link failure aborts the cluster (a vanished peer must fail the run, not
// hang it); failures during shutdown or after an abort are benign.
func (t *tcpTransport) readLoop(world int, tc *tcpConn) {
	defer t.readers.Done()
	for {
		body, err := readTCPFrame(tc.br)
		if err != nil {
			if t.closing.Load() || t.byeFrom[world].Load() || t.cluster.Aborted() != nil {
				return
			}
			t.cluster.abort(fmt.Errorf("mpi: tcp link to rank %d broken: %w", world, err))
			return
		}
		t.framesIn.Add(1)
		t.bytesIn.Add(int64(tcpHeaderLen + len(body) + tcpTrailerLen))
		bye, err := t.dispatch(world, body)
		if err != nil {
			t.cluster.abort(fmt.Errorf("mpi: tcp frame from rank %d: %w", world, err))
			return
		}
		if bye {
			return
		}
	}
}

func (t *tcpTransport) dispatch(world int, body []byte) (bye bool, err error) {
	if len(body) == 0 {
		return false, fmt.Errorf("empty frame body")
	}
	switch body[0] {
	case tcpKindP2P:
		r := wire.NewReader(body)
		kind := r.U64()
		key := mailKey{
			comm: r.U64(),
			src:  int(int64(r.U64())),
			dst:  int(int64(r.U64())),
			tag:  int(int64(r.U64())),
		}
		msg := message{arrival: r.F64()}
		if err := r.Err(); err != nil {
			return false, fmt.Errorf("short message head: %w", err)
		}
		if kind != uint64(tcpKindP2P) {
			return false, fmt.Errorf("message kind word %#x", kind)
		}
		// Communicator-local ranks are below the communicator's size, which is
		// at most the world's.
		if key.src < 0 || key.src >= t.size || key.dst < 0 || key.dst >= t.size {
			return false, fmt.Errorf("message from rank %d to rank %d on comm %d of a %d-rank world",
				key.src, key.dst, key.comm, t.size)
		}
		if payload := r.Peek(); len(payload) > 0 {
			msg.data = payload
		}
		t.cluster.router.box(key).put(msg)
	case tcpKindAbort:
		if len(body) < 2 {
			return false, fmt.Errorf("short abort frame")
		}
		t.cluster.abort(&remoteAbortError{
			base: abortBaseOf(body[1]),
			msg:  fmt.Sprintf("mpi: rank %d aborted: %s", world, body[2:]),
		})
	case tcpKindBye:
		t.byeFrom[world].Store(true)
		return true, nil
	default:
		return false, fmt.Errorf("unknown tcp frame kind %d", body[0])
	}
	return false, nil
}

// poison broadcasts the abort cause to all peers (best effort, bounded write
// deadline). Called by Cluster.abort exactly once, after the first cause
// wins the CAS — which is also what stops abort frames ping-ponging between
// processes.
func (t *tcpTransport) poison(err error) {
	if t.closing.Load() {
		return
	}
	msg := err.Error()
	if len(msg) > 4096 {
		msg = msg[:4096]
	}
	t.tellAll(append([]byte{tcpKindAbort, abortCodeOf(err)}, msg...))
}

// tellAll sends body to every peer, best effort under a bounded write
// deadline: the process is on its way out either way.
func (t *tcpTransport) tellAll(body []byte) {
	for world, tc := range t.conns {
		if tc != nil {
			tc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			_ = t.writeFrame(world, body, nil)
		}
	}
}

// --- collectives over tcp ---

// Reserved tags of the raw messages a collective exchanges; point-to-point
// tags are non-negative (sendE and recvE refuse others).
const (
	tagCollMeta = -1 - iota // a member's metadata to rank 0; rank 0's table back
	tagCollPart             // one part, from its holder to a rank that returns it
)

// tcpCollective is collective over sockets. The metadata rendezvous relays
// through the communicator's rank 0 (tcpRendezvous), so every rank leaves
// with a collState equal to the simulator's shared one and the charge
// functions run on it verbatim. The parts never touch the relay: each is one
// raw message from the rank that holds it to each rank the route returns it
// on, and a part the metadata sizes at zero is skipped on both sides. Raw
// messages travel below sendE's clock charges and fault verdicts. Any
// failure aborts the cluster under the collective's name.
func (c *Comm) tcpCollective(extra int64, parts []any, sizes []int64, via route) (st *collState, got []any, err error) {
	t := c.cluster.tcp
	if err := c.cluster.Aborted(); err != nil {
		return nil, nil, err
	}
	*c.collSeq++
	seq := *c.collSeq
	defer func() {
		if err != nil {
			err = fmt.Errorf("mpi: collective %d on comm %d: %w", seq, c.id, err)
			c.cluster.abort(err)
		}
	}()
	for _, p := range parts {
		if _, ok := p.([]byte); !ok && p != nil {
			return nil, nil, ErrSharedOverTCP
		}
	}
	st = newCollState(c.size)
	st.clocks[c.rank], st.extra[c.rank], st.sizes[c.rank] = c.clock.now, extra, sizes
	if c.size > 1 {
		defer t.blocked(time.Now())
		if err := c.tcpRendezvous(seq, st); err != nil {
			return nil, nil, err
		}
	}
	// A rank must have announced exactly the parts the route takes from it:
	// the charge functions index the table by it.
	for src, announced := range st.sizes {
		need := 0
		for dst := 0; via != nil && dst < c.size; dst++ {
			need = max(need, via(src, dst)+1)
		}
		if len(announced) != need {
			return nil, nil, fmt.Errorf("rank %d announced %d parts, the collective takes %d of it", src, len(announced), need)
		}
	}
	if via == nil {
		return st, nil, nil
	}
	for dst := 0; dst < c.size; dst++ {
		if k := via(c.rank, dst); dst != c.rank && k >= 0 && sizes[k] > 0 {
			if err := t.sendP2P(c.worldOf(dst), c.id, c.rank, dst, tagCollPart, 0, partAs[[]byte](parts[k])); err != nil {
				return nil, nil, err
			}
		}
	}
	got = make([]any, c.size)
	for src := range got {
		k := via(src, c.rank)
		switch {
		case k < 0:
		case src == c.rank:
			got[src] = parts[k]
		case st.sizes[src][k] > 0:
			msg, err := c.take(src, tagCollPart)
			if n := st.sizes[src][k]; err == nil && int64(len(msg.data)) != n {
				err = fmt.Errorf("%d bytes where its metadata announced %d", len(msg.data), n)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("part from rank %d: %w", src, err)
			}
			got[src] = msg.data
		}
	}
	return st, got, nil
}

// tcpRendezvous fills st with every rank's metadata: members send theirs to
// the communicator's rank 0, which appends each to the table (its own first)
// and answers every member with the whole of it. A member's message and the
// table share one layout — the collective's sequence number, then (clock,
// extra, part count, sizes) per rank — so one decoder reads both.
func (c *Comm) tcpRendezvous(seq uint64, st *collState) error {
	t := c.cluster.tcp
	table := appendCollMeta(wire.AppendU64(nil, seq), st, c.rank)
	if c.rank != 0 {
		if err := t.sendP2P(c.worldOf(0), c.id, c.rank, 0, tagCollMeta, 0, table); err != nil {
			return err
		}
		msg, err := c.take(0, tagCollMeta)
		if err != nil {
			return fmt.Errorf("metadata from rank 0: %w", err)
		}
		return readCollMeta(msg.data, seq, st, 0, c.size)
	}
	for r := 1; r < c.size; r++ {
		msg, err := c.take(r, tagCollMeta)
		if err == nil {
			err = readCollMeta(msg.data, seq, st, r, r+1)
		}
		if err != nil {
			return fmt.Errorf("metadata from rank %d: %w", r, err)
		}
		table = appendCollMeta(table, st, r)
	}
	for r := 1; r < c.size; r++ {
		if err := t.sendP2P(c.worldOf(r), c.id, 0, r, tagCollMeta, 0, table); err != nil {
			return err
		}
	}
	return nil
}

func appendCollMeta(dst []byte, st *collState, rank int) []byte {
	dst = wire.AppendF64(dst, st.clocks[rank])
	dst = wire.AppendU64(dst, uint64(st.extra[rank]))
	dst = wire.AppendU64(dst, uint64(len(st.sizes[rank])))
	for _, n := range st.sizes[rank] {
		dst = wire.AppendU64(dst, uint64(n))
	}
	return dst
}

// readCollMeta decodes the metadata of ranks [lo, hi) of collective seq from
// buf into st, rejecting another collective's, a negative size, and a buffer
// that is not exactly those ranks' records.
func readCollMeta(buf []byte, seq uint64, st *collState, lo, hi int) error {
	r := wire.NewReader(buf)
	if got := r.U64(); r.Err() == nil && got != seq {
		return fmt.Errorf("it is for collective %d", got)
	}
	for rank := lo; rank < hi; rank++ {
		st.clocks[rank] = r.F64()
		st.extra[rank] = int64(r.U64())
		st.sizes[rank] = make([]int64, r.Count(8))
		wire.U64s(r, st.sizes[rank])
		for _, n := range st.sizes[rank] {
			if n < 0 {
				return fmt.Errorf("rank %d announces a part of %d bytes", rank, n)
			}
		}
	}
	return r.Done()
}

// --- raw messages ---

// sendP2P ships one raw message, process to process, to a remote rank's
// mailbox; a failure is the caller's to abort on. A point-to-point send is
// already charged by sendE and its frame carries the sender-computed virtual
// arrival time bit-exactly, so the receiver's clock advances exactly as the
// simulator's would; a collective's messages carry no arrival. The 48-byte
// head (kind as a u64 word, comm, src, dst, tag, arrival) keeps the payload
// word-aligned in the body, which is what lets writeFrame checksum and write
// it in place.
func (t *tcpTransport) sendP2P(world int, comm uint64, src, dst, tag int, arrival float64, data []byte) error {
	head := make([]byte, 0, 48)
	for _, w := range []uint64{uint64(tcpKindP2P), comm, uint64(src), uint64(dst), uint64(int64(tag))} {
		head = wire.AppendU64(head, w)
	}
	return t.writeFrame(world, wire.AppendF64(head, arrival), data)
}

// blocked adds the wall time since start to the ledger of time spent waiting
// on remote ranks.
func (t *tcpTransport) blocked(start time.Time) { t.wallNS.Add(time.Since(start).Nanoseconds()) }

// --- lifecycle ---

// runTCP is Cluster.Run for a tcp-backed cluster: the process owns exactly
// one rank, so fn runs once, on the caller's goroutine. A local error (or
// panic) aborts the whole distributed run via abort frames; a remote abort
// surfaces as this rank's error.
func (cl *Cluster) runTCP(fn func(*Comm) error) error {
	t := cl.tcp
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("mpi: rank %d panicked: %v", t.rank, p)
			}
		}()
		err = fn(&Comm{
			cluster: cl,
			id:      0,
			rank:    t.rank,
			size:    cl.size,
			world:   t.rank,
			clock:   cl.clocks[0],
			collSeq: new(uint64),
			sendSeq: new(uint64),
		})
	}()
	if err != nil {
		cl.abort(err)
		return err
	}
	if cause := cl.Aborted(); cause != nil {
		return cause
	}
	return nil
}

// Close tears a tcp-backed cluster's mesh down: a goodbye frame to every
// peer (skipped after an abort — the abort frame already said why), then
// connections and listener close and the readers drain. No-op on a
// simulated cluster; idempotent.
func (cl *Cluster) Close() error {
	t := cl.tcp
	if t == nil {
		return nil
	}
	if t.closing.Swap(true) {
		return nil
	}
	if cl.Aborted() == nil {
		t.tellAll([]byte{tcpKindBye})
	}
	var err error
	for _, tc := range t.conns {
		if tc == nil {
			continue
		}
		if cerr := tc.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if t.ln != nil {
		if cerr := t.ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	t.readers.Wait()
	return err
}

// RunTCPLocal runs fn as p tcp-backed ranks inside this process: p
// clusters, p listeners on 127.0.0.1, a real kernel-socket mesh — the full
// tcp stack minus fork/exec (the launcher in tcplaunch.go covers that).
// The conformance, chaos, and bench suites drive the tcp backend through
// this harness. arm, when non-nil, runs on each rank's cluster before Run
// (e.g. to arm a fault plan). Returns the first root-cause error, skipping
// ranks that merely echo a remote abort.
func RunTCPLocal(p int, model CostModel, arm func(rank int, cl *Cluster), fn func(*Comm) error) error {
	listeners := make([]net.Listener, p)
	peers := make([]string, p)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return fmt.Errorf("mpi: tcp listener for rank %d: %w", i, err)
		}
		listeners[i] = ln
		peers[i] = ln.Addr().String()
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cl, err := NewTCPCluster(TCPOptions{
				Rank: rank, Size: p, Model: model,
				Listener: listeners[rank], Peers: peers,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			if arm != nil {
				arm(rank, cl)
			}
			errs[rank] = cl.Run(fn)
			cl.Close()
		}(rank)
	}
	wg.Wait()
	var echo error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var remote *remoteAbortError
		if errors.As(err, &remote) {
			if echo == nil {
				echo = err
			}
			continue
		}
		return err
	}
	return echo
}
