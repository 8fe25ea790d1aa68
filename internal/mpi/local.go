package mpi

import "context"

// RunLocal is the in-process run driver, the goroutine-backed counterpart
// of RunTCPLocal and the one place outside this package's tests where a
// run is launched: create a p-rank cluster under model, arm plan when
// non-nil, tie the cluster to ctx (InterruptOn), run fn once per rank and
// return rank 0's value with the run's Summary. The Summary comes back on
// every path, a failed run's included. A body error comes back as
// Cluster.Run reports it; cancelling ctx mid-run fails the run with an error
// wrapping ErrInterrupted and ctx's cause.
func RunLocal[T any](ctx context.Context, p int, model CostModel, plan *FaultPlan,
	fn func(*Comm) (T, error)) (T, Summary, error) {

	cl := NewCluster(p, model)
	if plan != nil {
		cl.ArmFaults(*plan)
	}
	defer cl.InterruptOn(ctx)()
	var root T
	err := cl.Run(func(c *Comm) error {
		v, err := fn(c)
		if err == nil && c.Rank() == 0 {
			root = v
		}
		return err
	})
	sum, _ := cl.Summary()
	if err != nil {
		var none T
		return none, sum, err
	}
	return root, sum, nil
}

// InterruptOn interrupts the cluster with ctx's cause once ctx is
// cancelled, until the returned stop function is called: the one
// ctx→Interrupt watcher, shared by RunLocal and the pastis-rank worker of a
// tcp run. A ctx that cannot be cancelled (nil, context.Background) costs
// nothing, and a cancellable one costs no goroutine until it fires.
func (cl *Cluster) InterruptOn(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	cancel := context.AfterFunc(ctx, func() { cl.Interrupt(context.Cause(ctx)) })
	return func() { cancel() }
}
