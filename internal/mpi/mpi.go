// Package mpi provides the message-passing substrate PASTIS is written
// against. The paper's implementation runs on MPI over a Cray XC40; this
// package reproduces the MPI programming model in pure Go: every rank is a
// goroutine, point-to-point messages and collectives move through in-memory
// mailboxes, and sub-communicators support the 2D process-grid decomposition
// of CombBLAS.
//
// # Virtual time
//
// Wall-clock time on a laptop cannot reproduce the paper's 64-2025 node
// scaling studies, so each rank carries a deterministic virtual clock
// (LogGP-style): local compute advances it by counted operations divided by
// a calibrated rate, every message charges latency alpha plus bytes*beta,
// and collectives follow the usual tree/bucket cost models and synchronize
// participants. Because the clock depends only on operation and byte counts
// — never on the Go scheduler — simulated times are exactly reproducible,
// and the *shape* of scaling curves follows from the real communication
// structure of the distributed algorithm being run.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// CostModel holds the machine constants of the virtual-time model.
// Defaults approximate one Cori-class node per rank (the paper runs one MPI
// rank per node with OpenMP inside; rates fold the intra-node threading in).
type CostModel struct {
	Alpha       float64 // point-to-point latency, seconds
	Beta        float64 // per-byte transfer time, seconds/byte
	ComputeRate float64 // generic local compute, ops/second (one core)
	IORate      float64 // parallel filesystem read rate per rank, bytes/second
	// CoresPerNode caps the intra-rank threading speedup of ParOps: a rank
	// configured with t threads charges parallel compute as
	// ops / min(t, CoresPerNode), the virtual analog of GOMAXPROCS on the
	// simulated node (the paper runs one MPI rank per node with OpenMP
	// threads inside). <= 0 means uncapped.
	CoresPerNode int
}

// DefaultCostModel returns constants calibrated to the paper's platform
// scale: ~2us MPI latency, ~8GB/s injection bandwidth, and node-level
// compute/IO rates. Absolute seconds are not meaningful — shapes are.
func DefaultCostModel() CostModel {
	return CostModel{
		Alpha:        2e-6,
		Beta:         1.25e-10,
		ComputeRate:  2e9,
		IORate:       1e9,
		CoresPerNode: 32, // Cori Haswell: 32 cores per node
	}
}

// Clock is one rank's virtual clock plus its accounting ledger.
type Clock struct {
	now       float64
	model     CostModel
	threads   int   // effective intra-rank threads for ParOps; >= 1
	sent      int64 // bytes sent (p2p + collectives)
	received  int64
	messages  int64
	live      int64 // live allocation bytes currently charged to this rank
	peak      int64 // high-water mark of live
	markPeak  int64 // high-water mark of live since the last PeakSinceMark
	retrySent int64 // bytes re-sent by fault-injected retries (subset of sent)
	sections  map[string]float64
	openSect  []openSection
}

type openSection struct {
	name  string
	start float64
}

func newClock(model CostModel) *Clock {
	return &Clock{model: model, threads: 1, sections: make(map[string]float64)}
}

// Now returns the rank's current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves virtual time forward by d seconds (d < 0 is ignored).
func (c *Clock) Advance(d float64) {
	if d > 0 {
		c.now += d
	}
}

// Reach moves virtual time forward to t if it is not already past it: a
// collective's completion, a message's arrival or an off-clock lane's end.
func (c *Clock) Reach(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Ops charges n generic compute operations at the model's compute rate.
func (c *Clock) Ops(n float64) { c.Advance(n / c.model.ComputeRate) }

// SetThreads declares the rank's intra-rank thread count for subsequent
// ParOps charges: the effective parallelism is min(threads, CoresPerNode)
// (uncapped if the model leaves CoresPerNode <= 0). Values < 1 reset to
// serial. Returns the effective thread count.
func (c *Clock) SetThreads(threads int) int {
	if threads < 1 {
		threads = 1
	}
	if cap := c.model.CoresPerNode; cap > 0 && threads > cap {
		threads = cap
	}
	c.threads = threads
	return threads
}

// ParOps charges n compute operations spread perfectly across the rank's
// effective threads: ops / min(threads, CoresPerNode) seconds of virtual
// time at the model's per-core rate. Used by the thread-parallel stages
// (SpGEMM chunk multiply, batched alignment); serial bookkeeping keeps
// charging via Ops.
func (c *Clock) ParOps(n float64) { c.Advance(n / c.model.ComputeRate / float64(c.threads)) }

// OpsDuration returns the virtual seconds n generic operations would take,
// without advancing the clock. Overlap lanes (work executing off the rank's
// critical path, e.g. wave-pipelined alignment) use it to account deferred
// compute that is later reconciled with Advance.
func (c *Clock) OpsDuration(n float64) float64 { return n / c.model.ComputeRate }

// ParOpsDuration is OpsDuration for thread-parallel work: the seconds n
// operations take when spread across the rank's effective threads.
func (c *Clock) ParOpsDuration(n float64) float64 {
	return n / c.model.ComputeRate / float64(c.threads)
}

// IOBytes charges reading n bytes from the parallel filesystem.
func (c *Clock) IOBytes(n int64) { c.Advance(float64(n) / c.model.IORate) }

// AllocBytes records n bytes of simulated allocation becoming live on this
// rank. The live counter feeds PeakBytes, the per-rank memory high-water
// mark the memory-bounded wave pipeline is designed to shrink. Allocation
// tracking is explicit (dmat's matrix constructors and release hooks call
// these), not tied to Go's allocator, so peaks are deterministic.
func (c *Clock) AllocBytes(n int64) {
	if n <= 0 {
		return
	}
	c.live += n
	c.peak = max(c.peak, c.live)
	c.markPeak = max(c.markPeak, c.live)
}

// FreeBytes records n bytes leaving the live set.
func (c *Clock) FreeBytes(n int64) {
	if n <= 0 {
		return
	}
	c.live -= n
	if c.live < 0 {
		c.live = 0
	}
}

// LiveBytes returns the bytes currently charged as live.
func (c *Clock) LiveBytes() int64 { return c.live }

// PeakSinceMark returns the live-bytes high-water mark since the previous
// call (since the clock started, on the first), then restarts that window at
// the bytes live now. A caller checking a memory budget at its own
// boundaries sees every charge made in between, however brief.
func (c *Clock) PeakSinceMark() int64 {
	p := c.markPeak
	c.markPeak = c.live
	return p
}

// BytesSent reports cumulative communication volume sent.
func (c *Clock) BytesSent() int64 { return c.sent }

// StartSection begins attributing elapsed virtual time to a named pipeline
// component (sections may nest; each level accumulates independently).
func (c *Clock) StartSection(name string) {
	c.openSect = append(c.openSect, openSection{name: name, start: c.now})
}

// EndSection closes the innermost open section.
func (c *Clock) EndSection() {
	if len(c.openSect) == 0 {
		panic("mpi: EndSection without StartSection")
	}
	s := c.openSect[len(c.openSect)-1]
	c.openSect = c.openSect[:len(c.openSect)-1]
	c.sections[s.name] += c.now - s.start
}

// Section runs fn inside a named section.
func (c *Clock) Section(name string, fn func()) {
	c.StartSection(name)
	defer c.EndSection()
	fn()
}

// CreditSection attributes d virtual seconds of work to a named component
// without advancing the clock. Overlapped stages use it: work hidden under
// communication still shows up in the dissection ledger even though it adds
// nothing to the critical path (components may then sum past the makespan,
// exactly as overlapping bars would).
func (c *Clock) CreditSection(name string, d float64) {
	if d > 0 {
		c.sections[name] += d
	}
}

// SubSectionName returns the ledger key for a named sub-component of a
// pipeline section ("align:ug"). Sub-sections are ordinary section names —
// they accumulate independently and are never summed into the parent — but
// the "parent:child" convention lets dissection tooling break a component
// down further (e.g. the alignment cascade attributing prefilter vs rescue
// time) without new ledger machinery. Callers crediting a sub-section
// should keep crediting the parent with the total, as the wave driver does
// for SectionAlign.
func SubSectionName(section, sub string) string { return section + ":" + sub }

// message is one point-to-point payload annotated with the virtual time at
// which it becomes available to the receiver.
type message struct {
	data    []byte
	arrival float64
}

type mailKey struct {
	comm uint64
	src  int // comm-local source rank
	dst  int
	tag  int
}

// mailbox is an unbounded FIFO so nonblocking sends never deadlock
// (MPI eager protocol).
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Signal()
}

// take blocks until a message is queued, the cluster aborts, or — when d is
// positive — d has passed, so that over tcp a vanished sender surfaces as
// ErrTCPTimeout instead of a hang (a timer broadcast wakes the wait loop at
// the deadline). aborted is checked inside the wait loop under mb.mu, and
// Cluster.abort broadcasts the cond under the same lock, so the wakeup
// cannot be missed.
func (mb *mailbox) take(aborted func() error, d time.Duration) (message, error) {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
		wake := time.AfterFunc(d, func() {
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		})
		defer wake.Stop()
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 {
		if err := aborted(); err != nil {
			return message{}, err
		}
		if d > 0 && !time.Now().Before(deadline) {
			return message{}, fmt.Errorf("mpi: receive: %w", ErrTCPTimeout)
		}
		mb.cond.Wait()
	}
	m := mb.queue[0]
	mb.queue = mb.queue[1:]
	return m, nil
}

// router owns every mailbox and the collective rendezvous state.
type router struct {
	mu          sync.Mutex
	boxes       map[mailKey]*mailbox
	collectives map[collKey]*collState
}

func (r *router) box(k mailKey) *mailbox {
	r.mu.Lock()
	defer r.mu.Unlock()
	mb, ok := r.boxes[k]
	if !ok {
		mb = newMailbox()
		r.boxes[k] = mb
	}
	return mb
}

// Cluster is a virtual machine of p ranks sharing a cost model. With the
// default in-process backend all p ranks live here as goroutines; a
// tcp-backed cluster (NewTCPCluster) owns exactly one local rank and
// reaches the other p-1 over the tcp transport. A run's ledger is read out
// through Summary (summary.go).
type Cluster struct {
	size       int
	model      CostModel
	router     *router
	clocks     []*Clock
	nextCommID uint64 // guarded by router.mu; 0 is the world communicator
	faults     *faultInjector
	tcp        *tcpTransport              // non-nil on a tcp-backed cluster
	abortErr   atomic.Pointer[abortCause] // first abort cause wins
}

// abort poisons the cluster with err: every rank blocked in a collective
// rendezvous or a point-to-point receive wakes and returns err, and every
// later communication attempt fails fast. The first cause wins; later calls
// are no-ops. Lock order: the router lock is released before any per-state
// lock is taken (Split holds a collState lock while taking the router lock,
// so the reverse order here would deadlock).
func (cl *Cluster) abort(err error) {
	if err == nil {
		err = ErrAborted
	}
	if !cl.abortErr.CompareAndSwap(nil, &abortCause{err}) {
		return
	}
	r := cl.router
	r.mu.Lock()
	boxes := make([]*mailbox, 0, len(r.boxes))
	for _, mb := range r.boxes {
		boxes = append(boxes, mb)
	}
	colls := make([]*collState, 0, len(r.collectives))
	for _, st := range r.collectives {
		colls = append(colls, st)
	}
	r.mu.Unlock()
	for _, mb := range boxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	for _, st := range colls {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	}
	if cl.tcp != nil {
		cl.tcp.poison(err)
	}
}

// abortCause boxes the abort error: atomic.Value would demand one
// consistent concrete error type across all aborts (it panics on a
// type change mid-CAS), and abort causes come from everywhere —
// injected crashes, rank errors, SIGINT interrupts.
type abortCause struct{ err error }

// Aborted returns the abort cause, or nil while the cluster is healthy.
func (cl *Cluster) Aborted() error {
	if v := cl.abortErr.Load(); v != nil {
		return v.err
	}
	return nil
}

// Interrupt aborts the cluster with ErrInterrupted (wrapping cause when
// non-nil): every blocked rank wakes with an error that unwraps to
// ErrInterrupted, so drivers can drain local work, checkpoint, and exit
// cleanly. Safe to call from any goroutine (it is the SIGINT hook).
func (cl *Cluster) Interrupt(cause error) {
	err := error(ErrInterrupted)
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrInterrupted, cause)
	}
	cl.abort(err)
}

// NewCluster creates a cluster of p ranks.
func NewCluster(p int, model CostModel) *Cluster {
	if p <= 0 {
		panic(fmt.Sprintf("mpi: cluster size %d", p))
	}
	cl := &Cluster{
		size:   p,
		model:  model,
		router: &router{boxes: make(map[mailKey]*mailbox), collectives: make(map[collKey]*collState)},
	}
	cl.clocks = make([]*Clock, p)
	for i := range cl.clocks {
		cl.clocks[i] = newClock(model)
	}
	return cl
}

// Run executes fn once per rank, each on its own goroutine, and waits for
// all of them. A rank returning an error (or panicking) aborts the cluster
// so peers blocked in collectives or receives fail instead of deadlocking;
// the root cause — the first error that is not itself the abort echo — is
// returned, and the cluster is quiescent afterwards. On a tcp-backed
// cluster fn runs once, for the single local rank.
func (cl *Cluster) Run(fn func(*Comm) error) error {
	if cl.tcp != nil {
		return cl.runTCP(fn)
	}
	errs := make([]error, cl.size)
	var wg sync.WaitGroup
	for r := 0; r < cl.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					cl.abort(errs[rank])
				}
			}()
			c := &Comm{
				cluster: cl,
				id:      0,
				rank:    rank,
				size:    cl.size,
				world:   rank,
				clock:   cl.clocks[rank],
				collSeq: new(uint64),
				sendSeq: new(uint64),
			}
			errs[rank] = fn(c)
			if errs[rank] != nil {
				cl.abort(errs[rank])
			}
		}(r)
	}
	wg.Wait()
	// Prefer the root cause over ranks that merely echo the abort it caused.
	cause := cl.Aborted()
	for _, err := range errs {
		if err != nil && err != cause {
			return err
		}
	}
	if cause != nil {
		return cause
	}
	return nil
}

// Comm is a communicator: a group of ranks that exchange messages and run
// collectives, analogous to an MPI communicator.
type Comm struct {
	cluster *Cluster
	id      uint64
	rank    int // rank within this communicator
	size    int
	world   int   // world rank of this process
	worlds  []int // comm rank -> world rank; nil on the world comm (identity)
	clock   *Clock
	collSeq *uint64 // per-rank sequence number of collective calls on this comm
	sendSeq *uint64 // per-rank sequence number of point-to-point sends on this comm
}

// worldOf maps a communicator-local rank to its world rank (where the tcp
// transport addresses its process).
func (c *Comm) worldOf(rank int) int {
	if c.worlds == nil {
		return rank
	}
	return c.worlds[rank]
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Clock returns the caller's virtual clock.
func (c *Comm) Clock() *Clock { return c.clock }

// sendE transmits data to rank dst with the given tag (eager, buffered: it
// never blocks); the sender is charged the latency overhead. It is the send
// behind TrySend. extraLatency models in-flight delay injected by a fault
// plan: it is added to the message's arrival time without charging the
// sender.
func (c *Comm) sendE(dst, tag int, data []byte, extraLatency float64) error {
	if dst < 0 || dst >= c.size || tag < 0 {
		return fmt.Errorf("mpi: send to rank %d of %d, tag %d", dst, c.size, tag)
	}
	if err := c.cluster.Aborted(); err != nil {
		return err
	}
	m := c.cluster.model
	c.clock.Advance(m.Alpha)
	c.clock.sent += int64(len(data))
	c.clock.messages++
	arrival := c.clock.now + m.Alpha + float64(len(data))*m.Beta + extraLatency
	if t := c.cluster.tcp; t != nil && dst != c.rank {
		err := t.sendP2P(c.worldOf(dst), c.id, c.rank, dst, tag, arrival, data)
		if err != nil {
			err = t.abortCause(err)
			c.cluster.abort(err)
		}
		return err
	}
	c.cluster.router.box(mailKey{comm: c.id, src: c.rank, dst: dst, tag: tag}).
		put(message{data: data, arrival: arrival})
	return nil
}

// recvE blocks until a message from src with the given tag arrives and
// returns its payload; the receiver's clock advances to at least the message
// arrival time. It is the receive behind Irecv and fails instead of
// blocking forever when the cluster aborts.
func (c *Comm) recvE(src, tag int) ([]byte, error) {
	if src < 0 || src >= c.size || tag < 0 {
		return nil, fmt.Errorf("mpi: recv from rank %d of %d, tag %d", src, c.size, tag)
	}
	if t := c.cluster.tcp; t != nil {
		defer t.blocked(time.Now())
	}
	msg, err := c.take(src, tag)
	if err != nil {
		if errors.Is(err, ErrTCPTimeout) {
			c.cluster.abort(err)
		}
		return nil, err
	}
	c.clock.Reach(msg.arrival)
	c.clock.received += int64(len(msg.data))
	return msg.data, nil
}

// take claims the next raw message from src on tag: the wait under recvE
// and, over tcp, under every collective. On a tcp-backed cluster it is
// bounded by the transport's read deadline; the caller aborts the cluster on
// its expiry (recvE as is, tcpCollective under the collective's name).
func (c *Comm) take(src, tag int) (message, error) {
	var d time.Duration
	if t := c.cluster.tcp; t != nil {
		d = t.readTimeout
	}
	return c.cluster.router.box(mailKey{comm: c.id, src: src, dst: c.rank, tag: tag}).
		take(c.cluster.Aborted, d)
}

// Request is a pending nonblocking operation.
type Request struct {
	wait func() ([]byte, error)
	data []byte
	err  error
	done bool
}

// TryWait completes the operation, returning the received payload (nil for
// sends) or the abort error that ended the wait.
func (r *Request) TryWait() ([]byte, error) {
	if !r.done {
		r.data, r.err = r.wait()
		r.done = true
	}
	return r.data, r.err
}

// TryIsend starts a nonblocking send through the fault decorator: dropped
// attempts are re-sent with backoff (TrySend). With the eager protocol the
// data is buffered immediately; the returned request completes instantly.
func (c *Comm) TryIsend(dst, tag int, data []byte) (*Request, error) {
	if err := c.TrySend(dst, tag, data); err != nil {
		return nil, err
	}
	return &Request{done: true}, nil
}

// Irecv starts a nonblocking receive. The matching message is claimed at
// TryWait time; because mailboxes are keyed by (src, tag) and FIFO per key,
// this matches MPI ordering semantics for a single outstanding
// receive per key.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{wait: func() ([]byte, error) { return c.recvE(src, tag) }}
}

// --- collectives ---
//
// Every collective is the same two steps. A metadata rendezvous: each rank
// deposits its virtual clock, one extra word and the wire size of every part
// it holds — tens of bytes — and leaves with every rank's deposit. From that
// metadata alone the collective's one charge function bills the clock: the
// simulated machine moves bytes, the charge never looks at them. And a
// movement: each part travels exactly once, from the rank that holds it to
// each rank that returns it — by reference in process (the collState carries
// it), as one direct frame over tcp (tcpCollective). A part is opaque to the
// engine (any + size), so the byte API (part = []byte, size = len) and the
// typed API of transport.go (part = T, size = the caller's wire bytes) are
// the same code on every backend.

type collKey struct {
	comm uint64
	seq  uint64
}

// collState is one collective's rendezvous. It becomes read-only once every
// rank has arrived, so reading sibling slots after the barrier is race-free.
type collState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	arrived int // all arrived: the state is complete, and off the router's map
	clocks  []float64
	extra   []int64
	sizes   [][]int64 // sizes[r][k]: wire bytes of the k-th part rank r holds
	parts   [][]any   // in process only: the parts themselves, by reference
	// derived holds fresh communicator ids per split color, assigned once by
	// the first rank to ask from the cluster-wide counter.
	derived map[int]uint64
}

func newCollState(size int) *collState {
	st := &collState{clocks: make([]float64, size), extra: make([]int64, size),
		sizes: make([][]int64, size), parts: make([][]any, size)}
	st.cond = sync.NewCond(&st.mu)
	return st
}

func (cl *Cluster) coll(key collKey, size int) *collState {
	r := cl.router
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.collectives[key]
	if !ok {
		st = newCollState(size)
		r.collectives[key] = st
	}
	return st
}

func (cl *Cluster) collDone(key collKey) {
	r := cl.router
	r.mu.Lock()
	delete(r.collectives, key)
	r.mu.Unlock()
}

// A route names, for a (source, destination) pair of ranks, which of the
// source's parts the destination returns from the collective (-1: none).
// Every collective here moves at most one part per pair.
type route func(src, dst int) int

func fromRoot(root int) route {
	return func(src, _ int) int {
		if src == root {
			return 0
		}
		return -1
	}
}

func toRoot(root int) route {
	return func(_, dst int) int {
		if dst == root {
			return 0
		}
		return -1
	}
}

func toAll(_, _ int) int     { return 0 }
func perDest(_, dst int) int { return dst }

// collective is the engine under every collective: it deposits this rank's
// metadata (extra, and sizes[k] = the wire bytes of parts[k]), blocks until
// all ranks of the communicator arrive, and returns the rendezvous state
// plus the parts routed to this rank, indexed by source (nil route: none
// move). Fails with the abort cause instead of blocking forever when the
// cluster aborts; once every rank has arrived the collective completes even
// if an abort races in, so completed collectives stay consistent across
// ranks.
func (c *Comm) collective(extra int64, parts []any, sizes []int64, via route) (*collState, []any, error) {
	if c.cluster.tcp != nil {
		return c.tcpCollective(extra, parts, sizes, via)
	}
	*c.collSeq++
	key := collKey{comm: c.id, seq: *c.collSeq}
	st := c.cluster.coll(key, c.size)

	st.mu.Lock()
	st.clocks[c.rank] = c.clock.now
	st.extra[c.rank] = extra
	st.sizes[c.rank] = sizes
	st.parts[c.rank] = parts
	st.arrived++
	last := st.arrived == c.size
	if last {
		st.cond.Broadcast()
	}
	for st.arrived < c.size {
		if err := c.cluster.Aborted(); err != nil {
			st.mu.Unlock()
			return nil, nil, err
		}
		st.cond.Wait()
	}
	st.mu.Unlock()
	if last {
		c.cluster.collDone(key)
	}
	if via == nil {
		return st, nil, nil
	}
	got := make([]any, c.size)
	for src := range got {
		if k := via(src, c.rank); k >= 0 {
			got[src] = st.parts[src][k]
		}
	}
	return st, got, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func log2Ceil(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// The charge functions: one per collective kind, each the only place that
// kind's clock and byte bill is computed, reached by the byte and the typed
// API alike.

// barrierE synchronizes all ranks; its cost is a latency tree.
func (c *Comm) barrierE() error {
	st, _, err := c.collective(0, nil, nil, nil)
	if err != nil {
		return err
	}
	c.clock.Reach(maxOf(st.clocks) + log2Ceil(c.size)*c.cluster.model.Alpha)
	return nil
}

// bcastE distributes root's part to every rank (binomial tree cost: log2(p)
// rounds of alpha + n*beta; root charges sent, others received). Only
// root's part and size are consulted.
func (c *Comm) bcastE(root int, part any, size int64) (any, error) {
	var parts []any
	var sizes []int64
	if c.rank == root {
		parts, sizes = []any{part}, []int64{size}
	}
	st, got, err := c.collective(0, parts, sizes, fromRoot(root))
	if err != nil {
		return nil, err
	}
	n := st.sizes[root][0]
	m := c.cluster.model
	c.clock.Reach(maxOf(st.clocks) + log2Ceil(c.size)*(m.Alpha+float64(n)*m.Beta))
	if c.rank != root {
		c.clock.received += n
	} else {
		c.clock.sent += n * int64(c.size-1)
	}
	return got[root], nil
}

// allgatherE collects each rank's part on every rank
// (recursive-doubling cost).
func (c *Comm) allgatherE(part any, size int64) ([]any, error) {
	st, got, err := c.collective(0, []any{part}, []int64{size}, toAll)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, s := range st.sizes {
		total += s[0]
	}
	m := c.cluster.model
	c.clock.Reach(maxOf(st.clocks) + log2Ceil(c.size)*m.Alpha + float64(total-size)*m.Beta)
	c.clock.sent += size * int64(c.size-1)
	c.clock.received += total - size
	return got, nil
}

// alltoallvE sends parts[j] to rank j and returns what every rank sent to
// the caller. Cost: pairwise exchanges charged by per-rank volume.
func (c *Comm) alltoallvE(parts []any, sizes []int64) ([]any, error) {
	if len(parts) != c.size || len(sizes) != c.size {
		return nil, fmt.Errorf("mpi: Alltoallv with %d parts and %d sizes on comm of size %d", len(parts), len(sizes), c.size)
	}
	st, got, err := c.collective(0, parts, sizes, perDest)
	if err != nil {
		return nil, err
	}
	var sent, recv int64
	for j, n := range sizes {
		if j != c.rank {
			sent += n
		}
	}
	for i, s := range st.sizes {
		if i != c.rank {
			recv += s[c.rank]
		}
	}
	m := c.cluster.model
	c.clock.Reach(maxOf(st.clocks) + float64(c.size-1)*m.Alpha + float64(sent+recv)*m.Beta)
	c.clock.sent += sent
	c.clock.received += recv
	c.clock.messages += int64(c.size - 1)
	return got, nil
}

// allreduceInt64E combines one int64 per rank with op ("sum", "max", "min")
// and returns the result on every rank.
func (c *Comm) allreduceInt64E(op string, v int64) (int64, error) {
	st, _, err := c.collective(v, nil, nil, nil)
	if err != nil {
		return 0, err
	}
	out := st.extra[0]
	for _, x := range st.extra[1:] {
		switch op {
		case "sum":
			out += x
		case "max":
			if x > out {
				out = x
			}
		case "min":
			if x < out {
				out = x
			}
		default:
			return 0, fmt.Errorf("mpi: unknown reduce op %q", op)
		}
	}
	m := c.cluster.model
	c.clock.Reach(maxOf(st.clocks) + 2*log2Ceil(c.size)*(m.Alpha+8*m.Beta))
	return out, nil
}

// exscanInt64E returns the exclusive prefix sum of v by rank order
// (rank 0 receives 0), the primitive behind the distributed sequence index.
func (c *Comm) exscanInt64E(v int64) (int64, error) {
	st, _, err := c.collective(v, nil, nil, nil)
	if err != nil {
		return 0, err
	}
	var sum int64
	for r := 0; r < c.rank; r++ {
		sum += st.extra[r]
	}
	m := c.cluster.model
	c.clock.Reach(maxOf(st.clocks) + log2Ceil(c.size)*(m.Alpha+8*m.Beta))
	return sum, nil
}

// gathervE collects every rank's part at root (others receive nil).
func (c *Comm) gathervE(root int, part any, size int64) ([]any, error) {
	st, got, err := c.collective(0, []any{part}, []int64{size}, toRoot(root))
	if err != nil {
		return nil, err
	}
	var total int64
	for _, s := range st.sizes {
		total += s[0]
	}
	m := c.cluster.model
	t := maxOf(st.clocks) + log2Ceil(c.size)*m.Alpha
	if c.rank == root {
		t += float64(total-size) * m.Beta
		c.clock.received += total - size
	} else {
		c.clock.sent += size
	}
	c.clock.Reach(t)
	if c.rank != root {
		return nil, nil
	}
	return got, nil
}

// TrySplit partitions the communicator by color; ranks within each new
// communicator are ordered by (key, old rank), as in MPI_Comm_split. It
// fails instead of blocking when the cluster aborts mid-rendezvous.
func (c *Comm) TrySplit(color, key int) (*Comm, error) {
	payload := wire.AppendU64(make([]byte, 0, 24), uint64(int64(color)))
	payload = wire.AppendU64(payload, uint64(int64(key)))
	payload = wire.AppendU64(payload, uint64(int64(c.world)))
	// An allgather of the 24-byte deposits that charges nothing: forming a
	// communicator is set-up, not modeled traffic.
	st, deposits, err := c.collective(0, []any{payload}, []int64{int64(len(payload))}, toAll)
	if err != nil {
		return nil, err
	}

	type member struct{ color, key, oldRank, world int }
	members := make([]member, c.size)
	for i, d := range deposits {
		r := wire.NewReader(partAs[[]byte](d))
		members[i] = member{
			color:   int(int64(r.U64())),
			key:     int(int64(r.U64())),
			oldRank: i,
			world:   int(int64(r.U64())),
		}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("mpi: Split deposit from rank %d: %w", i, err)
		}
	}
	var group []member
	for _, mb := range members {
		if mb.color == color {
			group = append(group, mb)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].oldRank < group[j].oldRank
	})
	newRank := -1
	for i, mb := range group {
		if mb.oldRank == c.rank {
			newRank = i
		}
	}
	// Assign each color group a fresh cluster-unique communicator id. The
	// first rank to ask allocates ids for every color of this split so all
	// group members observe the same value.
	st.mu.Lock()
	if st.derived == nil {
		st.derived = make(map[int]uint64)
		colors := map[int]bool{}
		for _, mb := range members {
			colors[mb.color] = true
		}
		sorted := make([]int, 0, len(colors))
		for col := range colors {
			sorted = append(sorted, col)
		}
		sort.Ints(sorted)
		r := c.cluster.router
		r.mu.Lock()
		for _, col := range sorted {
			c.cluster.nextCommID++
			st.derived[col] = c.cluster.nextCommID
		}
		r.mu.Unlock()
	}
	newID := st.derived[color]
	st.mu.Unlock()
	worlds := make([]int, len(group))
	for i, mb := range group {
		worlds[i] = mb.world
	}
	return &Comm{
		cluster: c.cluster,
		id:      newID,
		rank:    newRank,
		size:    len(group),
		world:   c.world,
		worlds:  worlds,
		clock:   c.clock,
		collSeq: new(uint64),
		sendSeq: new(uint64),
	}, nil
}
