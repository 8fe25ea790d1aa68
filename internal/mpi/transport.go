// Shared-memory transport: typed zero-copy collectives.
//
// Every rank of a Cluster is a goroutine in one address space, so a
// collective does not have to serialize its payload at all — it can hand the
// receivers a reference to the root's value. What must NOT change is the
// virtual-time story: the simulated machine still moves bytes over a wire,
// so the shared collectives charge every clock exactly as their byte-codec
// twins (TryBcast, TryAlltoallv) would for a payload of the analytically computed
// wire size. A caller that can state its payload's encoded size gets the
// codec path's accounting — MaxTime, BytesSent/Received, TotalBytes — bit
// for bit, without encoding anything.
//
// The handoff contract: a value passed through a shared collective is
// immutable from the moment it is deposited. The root keeps using it, every
// receiver reads it, nobody writes — exactly the aliasing discipline of an
// MPI broadcast buffer between post and completion, extended for the
// value's lifetime because here there is only one copy. dmat enforces this
// for matrix blocks (receivers treat broadcast blocks as read-only);
// ad-hoc callers must do the same.
//
// Each collective comes in two forms, mirroring the byte API: the
// error-returning form that fails cleanly on cluster abort (bcastSharedE),
// and the exported fault-decorated form (TryBcastShared) that additionally
// retries injected drop/corrupt faults with deterministic backoff when a
// fault plan is armed.
package mpi

// TryBcastShared hands root's value v to every rank of the communicator by
// reference — no serialization, no copy — while charging each rank's clock
// exactly as TryBcast would for a wire payload of wireBytes bytes (binomial
// tree: log2(p) rounds of alpha + n*beta; root charges sent, others
// received). Only root's v and wireBytes are consulted; other ranks pass
// the zero value. The returned value aliases root's v on every rank: it
// must be treated as immutable by all parties. With a fault plan armed,
// dropped or corrupted attempts re-broadcast with backoff, the re-sent wire
// bytes charged to the retry ledger.
func TryBcastShared[T any](c *Comm, root int, v T, wireBytes int64) (out T, err error) {
	err = c.withFaults(func() error {
		out, err = bcastSharedE(c, root, v, wireBytes)
		return err
	})
	return out, err
}

func bcastSharedE[T any](c *Comm, root int, v T, wireBytes int64) (T, error) {
	if c.cluster.tcp != nil {
		var zero T
		return zero, ErrSharedOverTCP
	}
	var deposit any
	var wire int64
	if c.rank == root {
		deposit = v
		wire = wireBytes
	}
	st, err := c.rendezvousVal(nil, wire, deposit)
	if err != nil {
		var zero T
		return zero, err
	}
	out := st.vals[root].(T)
	n := st.extra[root]
	m := c.cluster.model
	t := maxOf(st.clocks) + log2Ceil(c.size)*(m.Alpha+float64(n)*m.Beta)
	if t > c.clock.now {
		c.clock.now = t
	}
	if c.rank != root {
		c.clock.received += n
	} else {
		c.clock.sent += n * int64(c.size-1)
	}
	return out, nil
}

// TryAlltoallvShared sends vals[j] to rank j by reference and returns what
// every rank sent to the caller, charging clocks exactly as TryAlltoallv
// would for per-destination payloads of wire[j] bytes (pairwise exchanges
// charged by per-rank volume). vals and wire must both have
// communicator-size length; unused slots carry the zero value and 0.
// Received values alias the sender's — immutable by contract. Runs through
// the fault decorator.
func TryAlltoallvShared[T any](c *Comm, vals []T, wire []int64) (out []T, err error) {
	err = c.withFaults(func() error {
		out, err = alltoallvSharedE(c, vals, wire)
		return err
	})
	return out, err
}

func alltoallvSharedE[T any](c *Comm, vals []T, wire []int64) ([]T, error) {
	if c.cluster.tcp != nil {
		return nil, ErrSharedOverTCP
	}
	if len(vals) != c.size || len(wire) != c.size {
		return nil, errMismatchedBuffers(c.size, len(vals))
	}
	type deposit struct {
		vals []T
		wire []int64
	}
	st, err := c.rendezvousVal(nil, 0, deposit{vals: vals, wire: wire})
	if err != nil {
		return nil, err
	}
	out := make([]T, c.size)
	var sent, recv int64
	for j, w := range wire {
		if j != c.rank {
			sent += w
		}
	}
	for i := range out {
		d := st.vals[i].(deposit)
		out[i] = d.vals[c.rank]
		if i != c.rank {
			recv += d.wire[c.rank]
		}
	}
	m := c.cluster.model
	t := maxOf(st.clocks) + float64(c.size-1)*m.Alpha + float64(sent+recv)*m.Beta
	if t > c.clock.now {
		c.clock.now = t
	}
	c.clock.sent += sent
	c.clock.received += recv
	c.clock.messages += int64(c.size - 1)
	return out, nil
}
