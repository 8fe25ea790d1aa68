package mpi

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wire"
)

// DecodeTCPFrame parses one frame from the front of buf, returning the body
// and the bytes consumed: the in-memory reference the frame fuzz holds the
// stream reader readTCPFrame to. Truncated input, bad magic, an oversized
// length prefix, and checksum mismatches are all rejected.
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

// Messages counts the clock's point-to-point sends.
func (c *Clock) Messages() int64 { return c.messages }

// TestMain doubles as the worker fixture of the self-exec launcher test:
// when LaunchTCP re-runs this test binary with the worker environment set,
// the process becomes one tcp rank instead of a test run.
func TestMain(m *testing.M) {
	if os.Getenv("PASTIS_MPI_TCP_WORKER") != "" {
		os.Exit(tcpWorkerFixture())
	}
	os.Exit(m.Run())
}

// tcpWorkerFixture is one rank of TestTCPLaunchSelfExec: build the mesh via
// the stdin/stdout address exchange, allreduce the rank sum, verify it.
func tcpWorkerFixture() int {
	rank, _ := strconv.Atoi(os.Getenv("PASTIS_MPI_TCP_RANK"))
	size, _ := strconv.Atoi(os.Getenv("PASTIS_MPI_TCP_SIZE"))
	cl, err := StartTCPWorker(rank, size, DefaultCostModel(), os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", rank, err)
		return 1
	}
	defer cl.Close()
	err = cl.Run(func(c *Comm) error {
		if os.Getenv("PASTIS_MPI_TCP_FAIL") != "" && c.Rank() == 1 {
			return fmt.Errorf("injected worker failure: %w", ErrInterrupted)
		}
		sum, err := c.TryAllreduceInt64("sum", int64(c.Rank()))
		if err != nil {
			return err
		}
		if want := int64(size * (size - 1) / 2); sum != want {
			return fmt.Errorf("rank sum %d, want %d", sum, want)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", rank, err)
		if errors.Is(err, ErrInterrupted) {
			return 130
		}
		return 1
	}
	return 0
}

// --- frame codec ---

func FuzzTCPFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendTCPFrame(nil, nil))
	f.Add(AppendTCPFrame(nil, []byte{tcpKindBye}))
	f.Add(AppendTCPFrame(nil, []byte("hello, frame")))
	f.Add(append(AppendTCPFrame(nil, []byte{1, 2, 3}), "trailing"...))
	f.Add([]byte(tcpFrameMagic))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, n, err := DecodeTCPFrame(data)
		if err != nil {
			return
		}
		if n < tcpHeaderLen+tcpTrailerLen || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// The encoding is canonical: an accepted frame re-encodes to exactly
		// the bytes consumed.
		if re := AppendTCPFrame(nil, body); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs:\n got  % x\n want % x", re, data[:n])
		}
		// The streaming reader must agree with the buffer decoder.
		sbody, serr := readTCPFrame(bufio.NewReader(bytes.NewReader(data)))
		if serr != nil {
			t.Fatalf("stream reader rejected an accepted frame: %v", serr)
		}
		if !bytes.Equal(sbody, body) {
			t.Fatalf("stream body % x, buffer body % x", sbody, body)
		}
	})
}

// The tcp frame under the shared hardening contract. A frame decoder
// consumes one frame and reports its length; bytes past it belong to the
// next frame, so "trailing bytes" is the adapter's n != len check. The
// stream reader must reject every truncation and agree on every accepted
// frame (it is spared the length-field flips: it allocates what the header
// announces, up to the 1 GiB limit, before it can see the bytes are missing).
func TestTCPFrameHardening(t *testing.T) {
	for _, body := range [][]byte{nil, []byte("flip any bit and the frame dies")} {
		frame := AppendTCPFrame(nil, body)
		testutil.Hardening(t, frame, func(buf []byte) ([]byte, error) {
			got, n, err := DecodeTCPFrame(buf)
			if err == nil || len(buf) < len(frame) {
				sgot, serr := readTCPFrame(bufio.NewReader(bytes.NewReader(buf)))
				if (err == nil) != (serr == nil) || !bytes.Equal(got, sgot) {
					t.Fatalf("buffer decoder (%q, %v) and stream reader (%q, %v) disagree", got, err, sgot, serr)
				}
			}
			if err != nil {
				return nil, err
			}
			if n != len(buf) {
				return nil, fmt.Errorf("%d bytes after the frame", len(buf)-n)
			}
			return AppendTCPFrame(nil, got), nil
		})
	}
}

func TestTCPFrameRejectsOversizedLength(t *testing.T) {
	hdr := []byte(tcpFrameMagic)
	n := uint32(maxTCPFrameBody + 1)
	hdr = append(hdr, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	if _, _, err := DecodeTCPFrame(hdr); err == nil {
		t.Error("oversized length prefix accepted by DecodeTCPFrame")
	}
	if _, err := readTCPFrame(bufio.NewReader(bytes.NewReader(hdr))); err == nil {
		t.Error("oversized length prefix accepted by readTCPFrame")
	}
}

// The stream reader must reassemble a frame that arrives one byte at a time
// across a real connection.
func TestTCPFramePartialReadReassembly(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	body := []byte("reassembled from 1-byte segments")
	frame := AppendTCPFrame(nil, body)
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		defer client.Close()
		for _, b := range frame {
			if _, err := client.Write([]byte{b}); err != nil {
				return
			}
		}
	}()
	got, err := readTCPFrame(bufio.NewReader(server))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("reassembled body %q, want %q", got, body)
	}
}

// --- the transport against the simulator ---

// rankLedger is what one rank observed: collective results plus its final
// virtual clock, compared bit-for-bit between backends.
type rankLedger struct {
	bcast    []byte
	gathered [][]byte
	shuffled [][]byte
	allSum   int64
	exscan   int64
	recv     []byte
	now      float64
	sent     int64
	received int64
	messages int64
}

// collectiveWorkout runs a fixed mixed sequence of collectives and
// point-to-point traffic, returning the rank's ledger.
func collectiveWorkout(c *Comm) (rankLedger, error) {
	var l rankLedger
	p := c.Size()
	var err error
	payload := []byte(nil)
	if c.Rank() == 0 {
		payload = bytes.Repeat([]byte("pastis"), 100)
	}
	if l.bcast, err = c.TryBcast(0, payload); err != nil {
		return l, err
	}
	bufs := make([][]byte, p)
	for j := range bufs {
		bufs[j] = bytes.Repeat([]byte{byte(c.Rank()), byte(j)}, 5+c.Rank()+j)
	}
	if l.shuffled, err = c.TryAlltoallv(bufs); err != nil {
		return l, err
	}
	if l.gathered, err = c.TryGatherv(0, bytes.Repeat([]byte{byte(c.Rank())}, 3+2*c.Rank())); err != nil {
		return l, err
	}
	if l.allSum, err = c.TryAllreduceInt64("sum", int64(1+c.Rank()*c.Rank())); err != nil {
		return l, err
	}
	if l.exscan, err = c.TryExscanInt64(int64(1 + c.Rank())); err != nil {
		return l, err
	}
	// A p2p ring: each rank sends to (rank+1) mod p and receives from its
	// predecessor.
	if p > 1 {
		if err = c.TrySend((c.Rank()+1)%p, 7, []byte{byte(c.Rank()), 0xab}); err != nil {
			return l, err
		}
		if l.recv, err = c.TryRecv((c.Rank()+p-1)%p, 7); err != nil {
			return l, err
		}
	}
	clk := c.Clock()
	l.now = clk.Now()
	l.sent = clk.BytesSent()
	l.received = clk.BytesReceived()
	l.messages = clk.Messages()
	return l, nil
}

// TestTCPCollectivesMatchSimulator holds the tcp transport to the
// bit-identity contract at the collective level: every result and every
// virtual-clock ledger must equal the in-process simulator's, because both
// run the same analytic charging code over the same rendezvous state.
func TestTCPCollectivesMatchSimulator(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	for _, p := range []int{1, 2, 4, 5} {
		sim := make([]rankLedger, p)
		cl := NewCluster(p, DefaultCostModel())
		if err := cl.Run(func(c *Comm) error {
			l, err := collectiveWorkout(c)
			sim[c.Rank()] = l
			return err
		}); err != nil {
			t.Fatalf("p=%d simulator: %v", p, err)
		}
		tcp := make([]rankLedger, p)
		if err := RunTCPLocal(p, DefaultCostModel(), nil, func(c *Comm) error {
			l, err := collectiveWorkout(c)
			tcp[c.Rank()] = l
			return err
		}); err != nil {
			t.Fatalf("p=%d tcp: %v", p, err)
		}
		for r := 0; r < p; r++ {
			a, b := sim[r], tcp[r]
			if !bytes.Equal(a.bcast, b.bcast) {
				t.Errorf("p=%d rank %d: bcast differs", p, r)
			}
			if len(a.shuffled) != len(b.shuffled) {
				t.Fatalf("p=%d rank %d: alltoallv arity differs", p, r)
			}
			for j := range a.shuffled {
				if !bytes.Equal(a.shuffled[j], b.shuffled[j]) {
					t.Errorf("p=%d rank %d: alltoallv[%d] differs", p, r, j)
				}
			}
			for j := range a.gathered {
				if !bytes.Equal(a.gathered[j], b.gathered[j]) {
					t.Errorf("p=%d rank %d: gatherv[%d] differs", p, r, j)
				}
			}
			if a.allSum != b.allSum || a.exscan != b.exscan {
				t.Errorf("p=%d rank %d: reductions %d/%d vs %d/%d",
					p, r, a.allSum, a.exscan, b.allSum, b.exscan)
			}
			if !bytes.Equal(a.recv, b.recv) {
				t.Errorf("p=%d rank %d: p2p payload differs", p, r)
			}
			if a.now != b.now {
				t.Errorf("p=%d rank %d: clock %v (sim) vs %v (tcp)", p, r, a.now, b.now)
			}
			if a.sent != b.sent || a.received != b.received || a.messages != b.messages {
				t.Errorf("p=%d rank %d: byte bill %d/%d/%d (sim) vs %d/%d/%d (tcp)",
					p, r, a.sent, a.received, a.messages, b.sent, b.received, b.messages)
			}
		}
	}
}

// Each payload crosses a socket once: with parts large enough that framing
// does not hide it, what a rank writes to (reads from) its sockets is what
// the analytic bill says it sent (received), plus per-frame overhead and the
// metadata relay. The roots are not rank 0, so a relay that carried payload
// would show at once.
func TestTCPWireMatchesBill(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const part = 256 << 10
	for _, p := range []int{2, 4, 5} {
		root := p - 1
		clusters := make([]*Cluster, p)
		sent, received := make([]int64, p), make([]int64, p)
		whole := func(src int, b []byte) error {
			if len(b) != part || b[0] != byte(src) || b[part-1] != byte(src) {
				return fmt.Errorf("part from rank %d arrived as %d bytes", src, len(b))
			}
			return nil
		}
		err := RunTCPLocal(p, DefaultCostModel(), func(rank int, cl *Cluster) { clusters[rank] = cl }, func(c *Comm) error {
			mine := bytes.Repeat([]byte{byte(c.Rank())}, part)
			var send []byte
			if c.Rank() == root {
				send = mine
			}
			got, err := c.TryBcast(root, send)
			if err == nil {
				err = whole(root, got)
			}
			if err != nil {
				return err
			}
			bufs := make([][]byte, p)
			for j := range bufs {
				bufs[j] = mine
			}
			for _, collective := range []func() ([][]byte, error){
				func() ([][]byte, error) { return c.TryGatherv(root, mine) },
				func() ([][]byte, error) { return c.TryAlltoallv(bufs) },
				func() ([][]byte, error) { return c.TryAllgather(mine) },
			} {
				parts, err := collective()
				if err != nil {
					return err
				}
				for src, b := range parts {
					if err := whole(src, b); err != nil {
						return err
					}
				}
			}
			sent[c.Rank()], received[c.Rank()] = c.Clock().BytesSent(), c.Clock().BytesReceived()
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for r, cl := range clusters {
			wire, _ := cl.TCPStats()
			if float64(wire.BytesSent) > 1.05*float64(sent[r]) {
				t.Errorf("p=%d rank %d: wrote %d bytes to its sockets, its bill says it sent %d", p, r, wire.BytesSent, sent[r])
			}
			if float64(wire.BytesReceived) > 1.05*float64(received[r]) {
				t.Errorf("p=%d rank %d: read %d bytes from its sockets, its bill says it received %d", p, r, wire.BytesReceived, received[r])
			}
		}
	}
}

// The zero-copy shared collectives hand references across address spaces;
// a tcp-backed cluster must refuse them with ErrSharedOverTCP instead of
// delivering a value that only exists in another process.
func TestTCPSharedCollectivesRefused(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	err := RunTCPLocal(2, DefaultCostModel(), nil, func(c *Comm) error {
		_, err := TryBcastShared(c, 0, []int{1, 2, 3}, 24)
		if err == nil {
			return fmt.Errorf("TryBcastShared succeeded over tcp")
		}
		return err
	})
	if !errors.Is(err, ErrSharedOverTCP) {
		t.Fatalf("error %v does not wrap ErrSharedOverTCP", err)
	}
}

// Only the rank holding the typed part can refuse it, so the refusal aborts
// the cluster: a rank that holds none leaves the collective with the relayed
// cause — the holder's error, naming the collective — not a hang.
func TestTCPSharedRefusalAbortsCluster(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	errs := runTCPMesh(t, 2, 30*time.Second, func(c *Comm) error {
		_, err := TryBcastShared(c, 0, []int{1, 2, 3}, 24)
		return err
	})
	if !errors.Is(errs[0], ErrSharedOverTCP) {
		t.Fatalf("rank 0: %v does not wrap ErrSharedOverTCP", errs[0])
	}
	if err := errs[1]; !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), "rank 0 aborted") ||
		!strings.Contains(err.Error(), "collective 1 on comm 0: "+ErrSharedOverTCP.Error()) {
		t.Fatalf("rank 1: %v, want rank 0's relayed refusal", errs[1])
	}
}

// runTCPMesh is a RunTCPLocal variant exposing per-rank errors and the read
// timeout, for the failure-path tests.
func runTCPMesh(t *testing.T, p int, readTimeout time.Duration, fn func(*Comm) error) []error {
	t.Helper()
	listeners := make([]net.Listener, p)
	peers := make([]string, p)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
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
				Rank: rank, Size: p, Model: DefaultCostModel(),
				Listener: listeners[rank], Peers: peers, ReadTimeout: readTimeout,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = cl.Run(fn)
			cl.Close()
		}(rank)
	}
	wg.Wait()
	return errs
}

// A receive whose sender never shows up must fail with ErrTCPTimeout at the
// read deadline, not hang the run.
func TestTCPDeadlineAbortsLostPeer(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	errs := runTCPMesh(t, 2, 200*time.Millisecond, func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.TryRecv(1, 9)
			return err
		}
		return nil // rank 1 exits without ever sending
	})
	if !errors.Is(errs[0], ErrTCPTimeout) {
		t.Fatalf("rank 0 error %v does not wrap ErrTCPTimeout", errs[0])
	}
}

// A collective deposit wait must be bounded the same way.
func TestTCPDeadlineAbortsCollective(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	errs := runTCPMesh(t, 2, 200*time.Millisecond, func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.TryBcast(0, []byte("nobody joins"))
			return err
		}
		time.Sleep(2 * time.Second) // absent from the collective past the deadline
		return nil
	})
	if !errors.Is(errs[0], ErrTCPTimeout) {
		t.Fatalf("rank 0 error %v does not wrap ErrTCPTimeout", errs[0])
	}
}

// The collective traffic under the transport's hardening contract: rank 1
// plays a peer that is broken or hostile while rank 0 receives a broadcast
// from it. Every fault must end rank 0's collective with an error that names
// it, within the read deadline — never a panic, never a hang.
func TestTCPCollectiveHardening(t *testing.T) {
	// announce runs rank 1's side of the metadata rendezvous of the world's
	// first collective, holding parts of the given sizes (a broadcast root
	// holds one).
	announce := func(c *Comm, seq uint64, sizes ...int64) error {
		st := newCollState(2)
		st.sizes[1] = sizes
		meta := appendCollMeta(wire.AppendU64(nil, seq), st, 1)
		if err := c.cluster.tcp.sendP2P(0, c.id, 1, 0, tagCollMeta, 0, meta); err != nil {
			return err
		}
		_, err := c.take(0, tagCollMeta)
		return err
	}
	head := func(comm uint64, src int) []byte {
		h := wire.AppendU64(nil, uint64(tcpKindP2P))
		for _, v := range []uint64{comm, uint64(src), 0, uint64(1<<64 - 2), 0} { // tag -2: a part
			h = wire.AppendU64(h, v)
		}
		return h
	}
	// check runs rank 1 as peer against rank 0 in coll, the world's first
	// collective, and holds rank 0's error to the contract.
	check := func(t *testing.T, peer, coll func(c *Comm) error, want string, timeout bool) {
		defer testutil.Watchdog(t, time.Minute)()
		errs := runTCPMesh(t, 2, 300*time.Millisecond, func(c *Comm) error {
			if c.Rank() == 1 {
				peer(c) // its own error, if any, is the echo of rank 0's abort
				return nil
			}
			return coll(c)
		})
		err := errs[0]
		if err == nil || !strings.Contains(err.Error(), "collective 1 on comm 0") || !strings.Contains(err.Error(), want) {
			t.Fatalf("rank 0: %v, want an error naming its collective and %q", err, want)
		}
		if errors.Is(err, ErrTCPTimeout) != timeout {
			t.Fatalf("rank 0: %v: deadline expiry = %v, want %v", err, !timeout, timeout)
		}
	}
	for _, tc := range []struct {
		name    string
		peer    func(c *Comm) error
		want    string
		timeout bool
	}{
		{"truncated part header", func(c *Comm) error {
			return c.cluster.tcp.writeFrame(0, head(c.id, 1)[:40], nil)
		}, "short message head", false},
		{"part from an out-of-range source", func(c *Comm) error {
			return c.cluster.tcp.writeFrame(0, head(c.id, 7), make([]byte, 100))
		}, "message from rank 7", false},
		{"part shorter than announced", func(c *Comm) error {
			if err := announce(c, 1, 100); err != nil {
				return err
			}
			return c.cluster.tcp.sendP2P(0, c.id, 1, 0, tagCollPart, 0, make([]byte, 99))
		}, "part from rank 1: 99 bytes where its metadata announced 100", false},
		{"part for a communicator that does not exist", func(c *Comm) error {
			if err := announce(c, 1, 100); err != nil {
				return err
			}
			return c.cluster.tcp.sendP2P(0, 999, 1, 0, tagCollPart, 0, make([]byte, 100))
		}, "part from rank 1", true},
		{"metadata of another collective", func(c *Comm) error {
			return announce(c, 7, 100)
		}, "metadata from rank 1: it is for collective 7", false},
		{"metadata announcing a negative size", func(c *Comm) error {
			return announce(c, 1, -100)
		}, "announces a part of -100 bytes", false},
		{"metadata cut short", func(c *Comm) error {
			return c.cluster.tcp.sendP2P(0, c.id, 1, 0, tagCollMeta, 0, wire.AppendU64(nil, 1))
		}, "metadata from rank 1", false},
		{"metadata announcing no part", func(c *Comm) error {
			return announce(c, 1)
		}, "rank 1 announced 0 parts, the collective takes 1 of it", false},
		{"metadata announcing a part too many", func(c *Comm) error {
			return announce(c, 1, 100, 100)
		}, "rank 1 announced 2 parts, the collective takes 1 of it", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check(t, tc.peer, func(c *Comm) error {
				_, err := c.TryBcast(1, nil)
				return err
			}, tc.want, tc.timeout)
		})
	}
	// No part of a gather is routed to a rank that is not its root, yet the
	// charge reads every rank's announced size there too.
	t.Run("metadata announcing no part to a gather's non-root", func(t *testing.T) {
		check(t, func(c *Comm) error { return announce(c, 1) }, func(c *Comm) error {
			_, err := c.TryGatherv(1, []byte("rank 0's part"))
			return err
		}, "rank 1 announced 0 parts, the collective takes 1 of it", false)
	})
}

// A body over the 1 GiB frame limit is the sender's error, naming the rank,
// the collective and the size, and aborts the cluster by the normal path; it
// was a panic in the frame encoder. (The payload is never touched, so the
// allocation stays virtual.)
func TestTCPOversizedFrameIsAnError(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	errs := runTCPMesh(t, 2, 30*time.Second, func(c *Comm) error {
		var send []byte
		if c.Rank() == 0 {
			send = make([]byte, maxTCPFrameBody)
		}
		_, err := c.TryBcast(0, send)
		return err
	})
	for _, want := range []string{"collective 1 on comm 0", "frame to rank 1", fmt.Sprint(maxTCPFrameBody + 48), "exceeds the limit"} {
		if errs[0] == nil || !strings.Contains(errs[0].Error(), want) {
			t.Fatalf("rank 0: %v, want an error naming %q", errs[0], want)
		}
	}
	// The cause relayed to the peers is the same named error, not the bare
	// write failure under it.
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "rank 0 aborted: mpi: collective 1 on comm 0") {
		t.Fatalf("rank 1: %v, want rank 0's abort naming the collective", errs[1])
	}
}

// A rank's abort cause must cross the process boundary with its sentinel
// identity intact: peers see an error errors.Is finds ErrInterrupted in.
func TestTCPAbortPropagatesSentinel(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	errs := runTCPMesh(t, 3, 30*time.Second, func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("rank 2 giving up: %w", ErrInterrupted)
		}
		_, err := c.TryBcast(0, []byte("stalls until the abort frame lands"))
		return err
	})
	for r := 0; r < 3; r++ {
		if !errors.Is(errs[r], ErrInterrupted) {
			t.Errorf("rank %d error %v does not wrap ErrInterrupted", r, errs[r])
		}
	}
}

// A write to a peer that relayed an abort and left can fail before this
// rank's reader has dispatched the relayed abort frame; the write error must
// not win the cluster's abort cause over it. abortCause waits for the peer's
// reader to exit, at most ReadTimeout, then prefers the cluster's cause; an
// error that is no failed write waits for nothing.
func TestTCPAbortCauseAwaitsPeerReader(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	relayed := fmt.Errorf("mpi: rank 0 aborted: %w", ErrInterrupted)
	writeErr := &tcpWriteError{world: 0, err: errors.New("writev: broken pipe")}
	setup := func(timeout time.Duration) (*Cluster, *tcpTransport) {
		cl := NewCluster(1, DefaultCostModel())
		return cl, &tcpTransport{conns: []*tcpConn{{done: make(chan struct{})}}, readTimeout: timeout, cluster: cl}
	}

	cl, tr := setup(time.Minute)
	go func() {
		time.Sleep(20 * time.Millisecond) // the reader is still on the abort frame
		cl.abort(relayed)
		close(tr.conns[0].done)
	}()
	if got := tr.abortCause(writeErr); got != relayed {
		t.Errorf("failed write, peer relayed an abort: cause %v, want %v", got, relayed)
	}

	_, tr = setup(20 * time.Millisecond) // the reader never exits
	if got := tr.abortCause(writeErr); got != error(writeErr) {
		t.Errorf("failed write, no abort within ReadTimeout: cause %v, want the write error", got)
	}

	cl, tr = setup(time.Minute) // the reader never exits, and nothing waits on it
	cl.abort(relayed)
	wrapped := fmt.Errorf("mpi: collective 3 on comm 0: part from rank 0: %w", relayed)
	if got := tr.abortCause(wrapped); got != wrapped {
		t.Errorf("error carrying the cluster's cause: %v, want it unchanged", got)
	}
	if got := tr.abortCause(errors.New("metadata from rank 0: it is for collective 4")); got != relayed {
		t.Errorf("other error after an abort: cause %v, want %v", got, relayed)
	}
}

// TCPStats must record the wall-clock side of a run: frames and bytes in
// both directions, and time blocked on remote ranks.
func TestTCPStatsRecorded(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	clusters := make([]*Cluster, 2)
	err := RunTCPLocal(2, DefaultCostModel(), func(rank int, cl *Cluster) {
		clusters[rank] = cl
	}, func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(20 * time.Millisecond) // guarantee rank 0 blocks
		}
		_, err := c.TryBcast(0, bytes.Repeat([]byte{1}, 1000))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, cl := range clusters {
		stats, ok := cl.TCPStats()
		if !ok {
			t.Fatalf("rank %d: TCPStats not available on a tcp cluster", rank)
		}
		if stats.FramesSent == 0 || stats.BytesSent == 0 {
			t.Errorf("rank %d: empty send ledger: %+v", rank, stats)
		}
		if stats.FramesReceived == 0 || stats.BytesReceived == 0 {
			t.Errorf("rank %d: empty receive ledger: %+v", rank, stats)
		}
	}
	root, _ := clusters[0].TCPStats()
	if root.CommWall <= 0 {
		t.Errorf("rank 0 blocked on rank 1's deposit but CommWall = %v", root.CommWall)
	}
	if _, ok := NewCluster(2, DefaultCostModel()).TCPStats(); ok {
		t.Error("TCPStats claims availability on a simulated cluster")
	}
}

// Comm ids must replicate identically across processes with zero
// coordination; a split communicator's collectives prove it end to end.
func TestTCPSplitCommunicators(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	const p = 4
	sums := make([]int64, p)
	err := RunTCPLocal(p, DefaultCostModel(), nil, func(c *Comm) error {
		sub, err := c.TrySplit(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		sum, err := sub.TryAllreduceInt64("sum", int64(c.Rank()))
		if err != nil {
			return err
		}
		sums[c.Rank()] = sum
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		want := int64(0 + 2)
		if r%2 == 1 {
			want = 1 + 3
		}
		if sums[r] != want {
			t.Errorf("rank %d: split-comm sum %d, want %d", r, sums[r], want)
		}
	}
}

// --- the fork/exec launcher ---

// TestTCPLaunchSelfExec drives LaunchTCP for real: it forks this test
// binary, whose TestMain turns the children into tcp worker ranks that mesh
// up over the stdin/stdout address exchange and allreduce across three OS
// processes.
func TestTCPLaunchSelfExec(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes; skipped in -short")
	}
	defer testutil.Watchdog(t, 2*time.Minute)()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	logDir := t.TempDir()
	const procs = 3
	env := func(rank int) []string {
		return []string{
			"PASTIS_MPI_TCP_WORKER=1",
			"PASTIS_MPI_TCP_RANK=" + strconv.Itoa(rank),
			"PASTIS_MPI_TCP_SIZE=" + strconv.Itoa(procs),
		}
	}
	if err := LaunchTCP(TCPLaunch{
		Procs: procs, Command: exe, Env: env, LogDir: logDir,
	}); err != nil {
		t.Fatalf("launch failed: %v", err)
	}
	for rank := 0; rank < procs; rank++ {
		if _, err := os.Stat(fmt.Sprintf("%s/rank-%d.log", logDir, rank)); err != nil {
			t.Errorf("missing worker log: %v", err)
		}
	}

	// Failure path: a worker error must surface as that rank's
	// TCPWorkerError carrying the process exit status.
	err = LaunchTCP(TCPLaunch{
		Procs: procs, Command: exe, LogDir: t.TempDir(),
		Env: func(rank int) []string {
			return append(env(rank), "PASTIS_MPI_TCP_FAIL=1")
		},
	})
	if err == nil {
		t.Fatal("failing worker reported success")
	}
	var worker *TCPWorkerError
	if !errors.As(err, &worker) {
		t.Fatalf("error %v is not a TCPWorkerError", err)
	}
	if code := ExitCode(err); code != 130 {
		t.Errorf("exit code %d, want 130 (interrupted)", code)
	}
}

// A launch whose workers never announce must fail at the start timeout with
// every child reaped.
func TestTCPLaunchStartTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes; skipped in -short")
	}
	defer testutil.Watchdog(t, time.Minute)()
	err := LaunchTCP(TCPLaunch{
		Procs:        2,
		Command:      "/bin/sleep",
		Args:         func(int) []string { return []string{"60"} },
		LogDir:       t.TempDir(),
		StartTimeout: 500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("silent workers reported success")
	}
}
