package kmeans_test

import (
	"fmt"
	"log"

	"flare/internal/kmeans"
	"flare/internal/linalg"
)

// Example clusters three obvious groups and reads back their sizes.
func Example() {
	m := linalg.NewMatrix(9, 2)
	for i := 0; i < 9; i++ {
		centre := float64((i % 3) * 100)
		m.Set(i, 0, centre+float64(i))
		m.Set(i, 1, centre-float64(i))
	}
	res, err := kmeans.Cluster(m, 3, kmeans.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clusters:", res.K)
	for _, size := range res.Sizes {
		fmt.Println("size:", size)
	}
	// Output:
	// clusters: 3
	// size: 3
	// size: 3
	// size: 3
}

// ExampleSweep evaluates clustering quality over a range of counts, the
// data behind the paper's Figure 9.
func ExampleSweep() {
	m := linalg.NewMatrix(40, 2)
	for i := 0; i < 40; i++ {
		m.Set(i, 0, float64((i%4)*50)+float64(i)/10)
		m.Set(i, 1, float64((i%4)*50)-float64(i)/10)
	}
	sweep, err := kmeans.Sweep(m, 2, 6, kmeans.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	knee, err := kmeans.KneeK(sweep, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("knee at k =", knee)
	// Output:
	// knee at k = 4
}
