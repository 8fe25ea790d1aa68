// The typed collectives: a part is any Go value plus the wire size its
// sender states for it.
//
// Every rank of an in-process Cluster is a goroutine in one address space,
// so a collective does not have to serialize its payload at all — the
// engine (collective, mpi.go) hands the receivers a reference to the
// holder's value. What must NOT change is the virtual-time story: the
// simulated machine still moves bytes over a wire, and the one charge
// function of each collective kind bills the stated size, so a caller that
// can state its payload's encoded size gets the byte path's accounting —
// clocks, BytesSent/Received, Summary.BytesOnWire — bit for bit, without
// encoding anything. The byte API (TryBcast, TryAlltoallv in faults.go) is these
// functions at T = []byte with size = len.
//
// The handoff contract: a value passed through a collective is immutable
// from the moment it is deposited. The holder keeps using it, every
// receiver reads it, nobody writes — exactly the aliasing discipline of an
// MPI broadcast buffer between post and completion, extended for the
// value's lifetime because in process there is only one copy. dmat enforces
// this for matrix blocks (receivers treat broadcast blocks as read-only);
// ad-hoc callers must do the same. Over tcp a part crosses a socket, so
// only []byte parts can move: anything else fails the collective with
// ErrSharedOverTCP, which aborts the cluster.
//
// Like every Try* collective these run through the fault decorator, which
// retries injected drop/corrupt faults with deterministic backoff when a
// fault plan is armed.
package mpi

// partAs unboxes a part the engine returned; a part that did not move (none
// routed here, or empty over tcp) is T's zero value.
func partAs[T any](part any) T {
	if part == nil {
		var zero T
		return zero
	}
	return part.(T)
}

// TryBcastShared hands root's value v to every rank of the communicator —
// by reference in process: no serialization, no copy — charging each rank's
// clock for a broadcast of wireBytes bytes (bcastE). Only root's v and
// wireBytes are consulted; other ranks pass the zero value. The returned
// value aliases root's v on every rank: it must be treated as immutable by
// all parties. With a fault plan armed, dropped or corrupted attempts
// re-broadcast with backoff, the re-sent wire bytes charged to the retry
// ledger.
func TryBcastShared[T any](c *Comm, root int, v T, wireBytes int64) (T, error) {
	part, err := withFaults(c, func() (any, error) { return c.bcastE(root, v, wireBytes) })
	return partAs[T](part), err
}

// TryAlltoallvShared sends vals[j] to rank j and returns what every rank
// sent to the caller, charging clocks for per-destination payloads of
// wire[j] bytes (alltoallvE). vals and wire must both have communicator-size
// length; unused slots carry the zero value and 0. Received values alias
// the sender's — immutable by contract.
func TryAlltoallvShared[T any](c *Comm, vals []T, wire []int64) ([]T, error) {
	parts := make([]any, len(vals))
	for j, v := range vals {
		parts[j] = v
	}
	got, err := withFaults(c, func() ([]any, error) { return c.alltoallvE(parts, wire) })
	return partsAs[T](got), err
}

func partsAs[T any](parts []any) []T {
	if parts == nil {
		return nil
	}
	out := make([]T, len(parts))
	for i, p := range parts {
		out[i] = partAs[T](p)
	}
	return out
}
