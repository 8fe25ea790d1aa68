package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestTransportConformanceSoak replays seeded randomized workloads —
// dataset shape × substitute k-mers × alignment kernels (cascades included)
// × wave counts × thread counts × cluster sizes — on all three transport
// backends in one run, diffing the PSG, the Stats, and the communication
// bill per seed. Where TestTransportBackendsEquivalent pins a handcrafted
// variant matrix, the soak walks the configuration space at random (fixed
// seed, so failures replay): any divergence between the in-process backends
// and the multi-process tcp stack shows up with the offending configuration
// in the failure message.
func TestTransportConformanceSoak(t *testing.T) {
	defer testutil.Watchdog(t, 15*time.Minute)()
	seeds := 50
	if testing.Short() {
		seeds = 4
	}
	rng := rand.New(rand.NewSource(7))
	kernels := []AlignMode{"xd", "ug", "wfa", "ug+wfa"}
	subsChoices := []int{0, 3, 5}
	pChoices := []int{1, 4, 9}
	for i := 0; i < seeds; i++ {
		nFam := 2 + rng.Intn(3)
		dsSeed := rng.Int63n(1 << 30)
		subs := subsChoices[rng.Intn(len(subsChoices))]
		kernel := kernels[rng.Intn(len(kernels))]
		blocks := 1 + rng.Intn(3)
		threads := 1 + rng.Intn(4)
		p := pChoices[rng.Intn(len(pChoices))]
		name := fmt.Sprintf("seed %d: ds=%d fam=%d subs=%d align=%s blocks=%d threads=%d p=%d",
			i, dsSeed, nFam, subs, kernel, blocks, threads, p)

		data := familyDataset(t, nFam, dsSeed)
		cfg := DefaultConfig()
		cfg.SubstituteKmers = subs
		cfg.CommonKmerThreshold = 1
		cfg.Align = kernel
		cfg.Blocks = blocks
		cfg.Threads = threads

		cfg.Transport = "shared"
		sharedEdges, sharedStats, sharedSum := runPipeline(t, data.Records, p, cfg)
		shared := chaosRun{edges: sharedEdges, stats: sharedStats, sum: sharedSum}

		cfg.Transport = "codec"
		codecEdges, codecStats, codecSum := runPipeline(t, data.Records, p, cfg)
		sameTransportRun(t, name+" [codec]", chaosRun{edges: codecEdges, stats: codecStats, sum: codecSum}, shared)

		cfg.Transport = "tcp"
		tcp, err := runChaosPipelineTCP(data.Records, p, cfg)
		if err != nil {
			t.Fatalf("%s [tcp]: %v", name, err)
		}
		sameTransportRun(t, name+" [tcp]", tcp, shared)

		if t.Failed() {
			t.Fatalf("%s: stopping the soak at the first divergent seed", name)
		}
	}
}
