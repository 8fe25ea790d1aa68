// TCP transport: ranks as separate OS processes over real sockets.
//
// The simulator in this package runs every rank as a goroutine in one
// address space. A tcp-backed Cluster (NewTCPCluster) instead owns exactly
// one local rank and reaches its peers over length-prefixed, checksummed
// TCP frames: point-to-point sends travel directly to the destination
// process, and each collective is a root-relay exchange that reconstructs
// the simulator's rendezvous state — every member ships (virtual clock,
// extra, payload) to the communicator's rank 0, which assembles the full
// arrays and fans them back. All analytic cost charging then runs on the
// exact same code paths as the simulator, over the exact same
// reconstructed state, so a tcp run's similarity graph, Stats, virtual
// times, and byte bills are bit-identical to the in-process backends. The
// transport additionally records its own wall-clock ledger (TCPStats).
//
// Determinism requirements the rest of the repo already satisfies:
// communication must be SPMD (every rank performs the same sequence of
// collectives per communicator, which keeps the per-rank sequence numbers
// in lockstep with zero coordination), and communicator ids must derive
// purely from the split history (TrySplit allocates ids from a local
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

// A tcp frame is magic ("PTF2"), a little-endian u32 body length, the body,
// and a little-endian u64 wire.Checksum of the body ("PTF1" sealed the same
// layout with a byte-wise FNV-1a). The encoding is canonical: any byte
// string DecodeTCPFrame accepts re-encodes to exactly the bytes consumed
// (FuzzTCPFrameRoundTrip holds the codec to this).
const (
	tcpFrameMagic   = "PTF2"
	tcpHeaderLen    = 8 // magic + u32 body length
	tcpTrailerLen   = 8 // checksum of the body
	maxTCPFrameBody = 1 << 30
)

// Frame body kinds (first body byte).
const (
	tcpKindHello byte = 1 // handshake: u64 world rank of the dialer
	tcpKindP2P   byte = 2 // point-to-point message
	tcpKindColl  byte = 3 // member deposit of a collective rendezvous
	tcpKindReply byte = 4 // root's assembled rendezvous state
	tcpKindAbort byte = 5 // abort cause: code byte + message text
	tcpKindBye   byte = 6 // clean shutdown notice
)

// AppendTCPFrame appends one framed body to dst and returns the result.
func AppendTCPFrame(dst, body []byte) []byte {
	if len(body) > maxTCPFrameBody {
		panic(fmt.Sprintf("mpi: tcp frame body %d bytes exceeds limit %d", len(body), maxTCPFrameBody))
	}
	dst = append(dst, tcpFrameMagic...)
	dst = wire.AppendU32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return wire.AppendU64(dst, wire.Checksum(wire.ChecksumInit, body))
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
// handshake dials, collective deposits and replies, point-to-point
// receives. It surfaces through the Try* methods as the cluster abort
// cause, so a lost peer fails the run instead of hanging it.
var ErrTCPTimeout = errors.New("mpi: tcp deadline exceeded")

// ErrSharedOverTCP rejects the zero-copy shared collectives (TryBcastShared
// and friends) on a tcp-backed cluster: they hand values across ranks by
// reference, which requires one address space. Callers fall back to the
// byte-codec path (dmat does this by running tcp clusters with
// BackendCodec).
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

type tcpCollKey struct{ comm, seq uint64 }

// tcpDeposit is one member's rendezvous contribution, received by the
// communicator's rank 0.
type tcpDeposit struct {
	clock float64
	extra int64
	data  []byte
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

	mu      sync.Mutex
	cond    *sync.Cond
	gathers map[tcpCollKey]map[int]tcpDeposit // root side: member deposits
	replies map[tcpCollKey][]byte             // member side: reply bodies
	byeFrom []bool

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
// Aggregate readers (MaxTime, TotalBytes, PeakBytes, SectionMax) cover the
// local rank only; cluster-wide totals are the caller's to reduce with
// collectives before Run returns.
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
		gathers:     make(map[tcpCollKey]map[int]tcpDeposit),
		replies:     make(map[tcpCollKey][]byte),
		byeFrom:     make([]bool, o.Size),
		cluster:     cl,
	}
	t.cond = sync.NewCond(&t.mu)
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
		if tc == nil {
			continue
		}
		t.readers.Add(1)
		go t.readLoop(world, tc)
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

func (t *tcpTransport) writeFrame(world int, body []byte) error {
	if world < 0 || world >= t.size || world == t.rank || t.conns[world] == nil {
		return fmt.Errorf("mpi: no tcp connection to rank %d", world)
	}
	tc := t.conns[world]
	frame := AppendTCPFrame(make([]byte, 0, tcpHeaderLen+len(body)+tcpTrailerLen), body)
	tc.mu.Lock()
	_, err := tc.c.Write(frame)
	tc.mu.Unlock()
	t.framesOut.Add(1)
	t.bytesOut.Add(int64(len(frame)))
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
			if t.closing.Load() || t.sawBye(world) || t.cluster.Aborted() != nil {
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

func (t *tcpTransport) sawBye(world int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byeFrom[world]
}

func (t *tcpTransport) dispatch(world int, body []byte) (bye bool, err error) {
	if len(body) == 0 {
		return false, fmt.Errorf("empty frame body")
	}
	r := wire.NewReader(body[1:])
	switch body[0] {
	case tcpKindP2P:
		key := mailKey{
			comm: r.U64(),
			src:  int(int64(r.U64())),
			dst:  int(int64(r.U64())),
			tag:  int(int64(r.U64())),
		}
		msg := message{arrival: r.F64()}
		if err := r.Err(); err != nil {
			return false, fmt.Errorf("short p2p frame: %w", err)
		}
		if payload := r.Peek(); len(payload) > 0 {
			msg.data = payload
		}
		t.cluster.router.box(key).put(msg)
	case tcpKindColl:
		key := tcpCollKey{comm: r.U64(), seq: r.U64()}
		member := int(int64(r.U64()))
		dep := tcpDeposit{clock: r.F64(), extra: int64(r.U64())}
		if err := r.Err(); err != nil {
			return false, fmt.Errorf("short collective frame: %w", err)
		}
		if payload := r.Peek(); len(payload) > 0 {
			dep.data = payload
		}
		t.mu.Lock()
		g := t.gathers[key]
		if g == nil {
			g = make(map[int]tcpDeposit)
			t.gathers[key] = g
		}
		if _, dup := g[member]; dup {
			t.mu.Unlock()
			return false, fmt.Errorf("duplicate deposit for collective %d on comm %d from member %d",
				key.seq, key.comm, member)
		}
		g[member] = dep
		t.cond.Broadcast()
		t.mu.Unlock()
	case tcpKindReply:
		key := tcpCollKey{comm: r.U64(), seq: r.U64()}
		if err := r.Err(); err != nil {
			return false, fmt.Errorf("short collective reply: %w", err)
		}
		t.mu.Lock()
		t.replies[key] = r.Peek()
		t.cond.Broadcast()
		t.mu.Unlock()
	case tcpKindAbort:
		if len(body) < 2 {
			return false, fmt.Errorf("short abort frame")
		}
		t.cluster.abort(&remoteAbortError{
			base: abortBaseOf(body[1]),
			msg:  fmt.Sprintf("mpi: rank %d aborted: %s", world, body[2:]),
		})
	case tcpKindBye:
		t.mu.Lock()
		t.byeFrom[world] = true
		t.mu.Unlock()
		return true, nil
	default:
		return false, fmt.Errorf("unknown tcp frame kind %d", body[0])
	}
	return false, nil
}

// poison wakes every transport-level waiter and broadcasts the abort cause
// to all peers (best effort, bounded write deadline). Called by
// Cluster.abort exactly once, after the first cause wins the CAS — which is
// also what stops abort frames ping-ponging between processes.
func (t *tcpTransport) poison(err error) {
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
	if t.closing.Load() {
		return
	}
	msg := err.Error()
	if len(msg) > 4096 {
		msg = msg[:4096]
	}
	body := append([]byte{tcpKindAbort, abortCodeOf(err)}, msg...)
	for world, tc := range t.conns {
		if tc == nil {
			continue
		}
		tc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_ = t.writeFrame(world, body)
	}
}

// --- the rendezvous relay ---

// tcpRendezvous is the tcp twin of rendezvous: members ship their deposit
// to the communicator's rank 0, which assembles the full clock/extra/data
// arrays (its own slot included) and fans the result back, so every rank
// returns a collState identical to the simulator's shared one. The analytic
// collective costs are then charged by the caller on the usual code paths.
func (c *Comm) tcpRendezvous(data []byte, extra int64) (*collState, error) {
	t := c.cluster.tcp
	if err := c.cluster.Aborted(); err != nil {
		return nil, err
	}
	*c.collSeq++
	seq := *c.collSeq
	st := &collState{
		clocks: make([]float64, c.size),
		data:   make([][]byte, c.size),
		extra:  make([]int64, c.size),
		ready:  true,
	}
	st.cond = sync.NewCond(&st.mu)
	st.clocks[c.rank] = c.clock.now
	st.data[c.rank] = data
	st.extra[c.rank] = extra
	if c.size == 1 {
		return st, nil
	}
	start := time.Now()
	defer func() { t.wallNS.Add(time.Since(start).Nanoseconds()) }()
	key := tcpCollKey{comm: c.id, seq: seq}
	if c.rank == 0 {
		deps, err := t.awaitDeposits(key, c.size-1, c.cluster.Aborted)
		if err != nil {
			err = fmt.Errorf("mpi: collective %d on comm %d: %w", seq, c.id, err)
			c.cluster.abort(err)
			return nil, err
		}
		for member, dep := range deps {
			if member <= 0 || member >= c.size {
				err := fmt.Errorf("mpi: collective %d on comm %d: deposit from out-of-range rank %d",
					seq, c.id, member)
				c.cluster.abort(err)
				return nil, err
			}
			st.clocks[member] = dep.clock
			st.data[member] = dep.data
			st.extra[member] = dep.extra
		}
		reply := encodeTCPReply(c.id, seq, st)
		for r := 1; r < c.size; r++ {
			if err := t.writeFrame(c.worldOf(r), reply); err != nil {
				c.cluster.abort(err)
				return nil, err
			}
		}
		return st, nil
	}
	body := make([]byte, 0, 41+len(data))
	body = append(body, tcpKindColl)
	body = wire.AppendU64(body, c.id)
	body = wire.AppendU64(body, seq)
	body = wire.AppendU64(body, uint64(c.rank))
	body = wire.AppendF64(body, c.clock.now)
	body = wire.AppendU64(body, uint64(extra))
	body = append(body, data...)
	if err := t.writeFrame(c.worldOf(0), body); err != nil {
		c.cluster.abort(err)
		return nil, err
	}
	raw, err := t.awaitReply(key, c.cluster.Aborted)
	if err != nil {
		err = fmt.Errorf("mpi: collective %d on comm %d: %w", seq, c.id, err)
		c.cluster.abort(err)
		return nil, err
	}
	if err := decodeTCPReply(raw, c.size, st); err != nil {
		c.cluster.abort(err)
		return nil, err
	}
	return st, nil
}

func encodeTCPReply(comm, seq uint64, st *collState) []byte {
	body := make([]byte, 0, 25+16*len(st.clocks))
	body = append(body, tcpKindReply)
	body = wire.AppendU64(body, comm)
	body = wire.AppendU64(body, seq)
	body = wire.AppendU64(body, uint64(len(st.clocks)))
	for i := range st.clocks {
		body = wire.AppendF64(body, st.clocks[i])
		body = wire.AppendU64(body, uint64(st.extra[i]))
	}
	return append(body, flatten(st.data)...)
}

// decodeTCPReply fills st from the part of a reply body that follows
// kind/comm/seq (which the dispatcher consumed to key it).
func decodeTCPReply(raw []byte, size int, st *collState) error {
	r := wire.NewReader(raw)
	if count := r.U64(); r.Err() == nil && count != uint64(size) {
		return fmt.Errorf("mpi: collective reply for %d ranks on a comm of %d", count, size)
	}
	for i := 0; i < size; i++ {
		st.clocks[i] = r.F64()
		st.extra[i] = int64(r.U64())
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("mpi: short collective reply: %w", err)
	}
	parts, err := unflatten(r.Peek(), size)
	if err != nil {
		return fmt.Errorf("mpi: collective reply payload: %w", err)
	}
	for i, p := range parts {
		if len(p) == 0 {
			st.data[i] = nil
		} else {
			st.data[i] = p
		}
	}
	return nil
}

func (t *tcpTransport) awaitDeposits(key tcpCollKey, want int, aborted func() error) (map[int]tcpDeposit, error) {
	deadline := time.Now().Add(t.readTimeout)
	wake := time.AfterFunc(t.readTimeout, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer wake.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if g := t.gathers[key]; len(g) >= want {
			delete(t.gathers, key)
			return g, nil
		}
		if err := aborted(); err != nil {
			return nil, err
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("waiting for %d member deposits: %w", want, ErrTCPTimeout)
		}
		t.cond.Wait()
	}
}

func (t *tcpTransport) awaitReply(key tcpCollKey, aborted func() error) ([]byte, error) {
	deadline := time.Now().Add(t.readTimeout)
	wake := time.AfterFunc(t.readTimeout, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer wake.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if raw, ok := t.replies[key]; ok {
			delete(t.replies, key)
			return raw, nil
		}
		if err := aborted(); err != nil {
			return nil, err
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("waiting for the root's reply: %w", ErrTCPTimeout)
		}
		t.cond.Wait()
	}
}

// --- point-to-point over tcp ---

// sendP2P ships one already-charged message to a remote rank. The frame
// carries the sender-computed virtual arrival time bit-exactly, so the
// receiver's clock advances exactly as the simulator's would.
func (t *tcpTransport) sendP2P(world int, comm uint64, src, dst, tag int, arrival float64, data []byte) error {
	body := make([]byte, 0, 41+len(data))
	body = append(body, tcpKindP2P)
	body = wire.AppendU64(body, comm)
	body = wire.AppendU64(body, uint64(src))
	body = wire.AppendU64(body, uint64(dst))
	body = wire.AppendU64(body, uint64(int64(tag)))
	body = wire.AppendF64(body, arrival)
	body = append(body, data...)
	if err := t.writeFrame(world, body); err != nil {
		t.cluster.abort(err)
		return err
	}
	return nil
}

// tcpTake is the receive wait of a tcp-backed rank: bounded by the
// transport's read deadline and recorded in the wall-clock ledger.
func (c *Comm) tcpTake(mb *mailbox) (message, error) {
	t := c.cluster.tcp
	start := time.Now()
	defer func() { t.wallNS.Add(time.Since(start).Nanoseconds()) }()
	msg, err := mb.takeTimeout(c.cluster.Aborted, t.readTimeout)
	if err != nil && errors.Is(err, ErrTCPTimeout) {
		c.cluster.abort(err)
	}
	return msg, err
}

// takeTimeout is take with a deadline, so a vanished sender surfaces as
// ErrTCPTimeout instead of a hang. A timer broadcast wakes the wait loop
// when the deadline expires.
func (mb *mailbox) takeTimeout(aborted func() error, d time.Duration) (message, error) {
	deadline := time.Now().Add(d)
	wake := time.AfterFunc(d, func() {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	})
	defer wake.Stop()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 {
		if err := aborted(); err != nil {
			return message{}, err
		}
		if !time.Now().Before(deadline) {
			return message{}, fmt.Errorf("mpi: receive: %w", ErrTCPTimeout)
		}
		mb.cond.Wait()
	}
	m := mb.queue[0]
	mb.queue = mb.queue[1:]
	return m, nil
}

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
		for world, tc := range t.conns {
			if tc == nil {
				continue
			}
			tc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			_ = t.writeFrame(world, []byte{tcpKindBye})
		}
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
