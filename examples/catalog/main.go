// Catalog demonstrates the paper's §6 future-work direction — mining with a
// huge number of distinct symbols (an E-commerce catalog) — using the
// sparse compatibility representation with lsp.Mine. The matrix is stored
// as its non-zero cells; Phase 2 still expands each SKU's row densely while
// it mines. The example exits non-zero when the planted habit is not on the
// mined border.
//
// The store has thousands of SKUs. Each SKU has a handful of substitutes
// (same product, different brand/size) that fulfillment may ship instead.
// Purchase logs therefore scatter one underlying buying habit across many
// observed SKU combinations; the sparse matrix concentrates that evidence
// back onto the intended SKUs.
//
//	go run ./examples/catalog
package main

import (
	"fmt"
	"log"
	"math/rand"

	lsp "repro"
)

const (
	nSKUs        = 5000
	substitutes  = 4    // substitutes per SKU
	substitution = 0.25 // chance an ordered SKU ships as a substitute
	nOrders      = 4000
	minMatch     = 0.05
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Substitution structure: SKU s's substitutes are the next `substitutes`
	// SKUs in its product family (a block of substitutes+1 consecutive ids).
	family := func(s int) int { return s - s%(substitutes+1) }
	shipped := func(s lsp.Symbol) lsp.Symbol {
		if rng.Float64() >= substitution {
			return s
		}
		base := family(int(s))
		sub := base + rng.Intn(substitutes+1)
		return lsp.Symbol(sub)
	}

	// The compatibility matrix, built sparsely: each observed SKU's column
	// holds its own identity mass and its family members' substitution
	// shares. 5000 columns × 5 cells ≈ 25K cells, vs 25M dense.
	var cells []lsp.SparseCell
	for obs := 0; obs < nSKUs; obs++ {
		base := family(obs)
		// Observed `obs` is the intended SKU with prob 1-substitution +
		// substitution/(substitutes+1) (a substitution can land on itself),
		// or any family member with the remaining share.
		share := substitution / float64(substitutes+1)
		for true0 := base; true0 < base+substitutes+1 && true0 < nSKUs; true0++ {
			p := share
			if true0 == obs {
				p += 1 - substitution
			}
			cells = append(cells, lsp.SparseCell{
				True: lsp.Symbol(true0), Observed: lsp.Symbol(obs), P: p,
			})
		}
	}
	// Families truncated by the catalog edge need renormalizing; rebuild
	// only full families by capping the catalog at a multiple of the family
	// size (5000 is one, so the loop above is already consistent).
	matrix, err := lsp.NewSparseMatrix(nSKUs, cells)
	if err != nil {
		log.Fatal(err)
	}

	// A popular buying habit: a specific camera, lens and tripod (three
	// SKUs from different families), bought in order.
	habit := lsp.Pattern{lsp.Symbol(120), lsp.Symbol(1740), lsp.Symbol(3355)}
	orders := lsp.NewMemDB(nil)
	for i := 0; i < nOrders; i++ {
		basket := make([]lsp.Symbol, 5+rng.Intn(6))
		for j := range basket {
			basket[j] = lsp.Symbol(rng.Intn(nSKUs))
		}
		if rng.Float64() < 0.3 {
			pos := rng.Intn(len(basket) - len(habit) + 1)
			copy(basket[pos:], habit)
		}
		for j, want := range basket {
			basket[j] = shipped(want)
		}
		orders.Append(basket)
	}

	fmt.Printf("catalog: %d SKUs (%d substitutes each), %d orders, %.0f%% substitution\n\n",
		nSKUs, substitutes, nOrders, substitution*100)

	res, err := lsp.Mine(orders, matrix, lsp.Config{
		MinMatch:   minMatch,
		SampleSize: 3000,
		MaxLen:     3,
		MaxGap:     0,
		MemBudget:  5000,
		Workers:    -1, // parallel probe scans
		Rng:        lsp.NewRand(3),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mined in %d scans of the order log\n", res.Scans)
	fmt.Printf("frequent patterns: %d, border: %d\n\n", res.Frequent.Len(), res.Border.Len())

	found := false
	for _, p := range res.Border.Patterns() {
		if p.K() < 3 {
			continue
		}
		marker := ""
		if p.Equal(habit) {
			marker = "  <- the planted buying habit"
			found = true
		}
		fmt.Printf("  %v%s\n", p, marker)
	}

	vals, err := lsp.MatchInDB(orders, matrix, []lsp.Pattern{habit})
	if err != nil {
		log.Fatal(err)
	}
	sups, err := lsp.SupportInDB(orders, []lsp.Pattern{habit})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhabit %v: observed exactly %.3f of orders, intent-adjusted match %.3f\n",
		habit, sups[0], vals[0])
	if !found {
		log.Fatalf("the planted habit %v is not on the border", habit)
	}
}
