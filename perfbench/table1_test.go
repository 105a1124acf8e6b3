package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"multihonest/internal/settlement"
)

var update = flag.Bool("update", false, "rewrite testdata/table1_golden.json from the current DP")

// TestTable1Golden regenerates the full grid and checks it against the
// committed golden bit for bit, and against the paper within 2%. With
// -update it rewrites the golden instead.
func TestTable1Golden(t *testing.T) {
	tab, err := settlement.ComputeTable1(nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(goldenPath, goldenOf(tab)); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := loadGolden(".")
	if err != nil {
		t.Fatal(err)
	}
	if bad, errs := checkTable(tab, golden); bad != 0 {
		t.Fatalf("%d cells wrong: %v", bad, errs)
	}
}

// TestCheckTableCatchesOneBit flips the last bit of one cell and expects
// the check to count it.
func TestCheckTableCatchesOneBit(t *testing.T) {
	golden, err := loadGolden(".")
	if err != nil {
		t.Fatal(err)
	}
	tab := &settlement.Table{Cells: map[settlement.Key]float64{}}
	for _, c := range golden {
		tab.Cells[settlement.MakeKey(c.Frac, c.K, c.Alpha)] = c.P
	}
	if bad, errs := checkTable(tab, golden); bad != 0 {
		t.Fatalf("golden itself fails the check: %v", errs)
	}
	key := settlement.MakeKey(golden[7].Frac, golden[7].K, golden[7].Alpha)
	tab.Cells[key] = nextUp(tab.Cells[key])
	if bad, _ := checkTable(tab, golden); bad != 1 {
		t.Fatalf("one-ulp change counted %d wrong cells, want 1", bad)
	}
}

func nextUp(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
