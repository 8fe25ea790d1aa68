// Strong scaling on the virtual cluster: the paper's Fig. 14 workflow.
// Run the sparse-matrix phase of the pipeline (alignment excluded, as in
// the paper's scaling study) over growing node counts and watch the
// virtual-time makespan fall and the communication volume grow.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	data, err := pastis.GenerateMetaclustLike(400, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d sequences\n\n", len(data.Records))

	cfg := pastis.DefaultConfig()
	cfg.Align = pastis.AlignNone // matrix phase only, as in Fig. 14
	cfg.SubstituteKmers = 10

	// Use node-level rates matching the scaled dataset so the runs sit in
	// the paper's compute-dominated regime (see docs/COST_MODEL.md).
	model := pastis.DefaultCostModel()
	model.ComputeRate = 4e7
	model.IORate = 4e7

	fmt.Println("nodes  virtual_s  speedup  efficiency  MB_on_wire")
	var base float64
	for _, nodes := range []int{16, 64, 256, 1024} {
		res, err := pastis.BuildGraphWithModel(data.Records, nodes, cfg, model)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = res.Time * float64(nodes)
		}
		speedup := base / res.Time
		fmt.Printf("%5d  %9.4f  %7.1f  %9.1f%%  %10.2f\n",
			nodes, res.Time, speedup,
			100*speedup/float64(nodes), float64(res.BytesOnWire)/1e6)
	}

	fmt.Println("\nper-component times at 256 nodes (paper Fig. 16):")
	res, err := pastis.BuildGraphWithModel(data.Records, 256, cfg, model)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"fasta", "form A", "tr. A", "form S", "AS", "(AS)AT", "sym.", "wait"} {
		fmt.Printf("  %-8s %.5f s\n", name, res.Sections[name])
	}
}
