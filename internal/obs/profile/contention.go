package profile

import (
	"fmt"
	"io"
	"sort"
)

// ContentionCell is one row of the lock contention heatmap: a named lock
// (a data path's sharded lock, a magazine depot) with its acquire count and
// how many acquires hit contention.
type ContentionCell struct {
	Name      string  `json:"name"`
	Acquires  uint64  `json:"acquires"`
	Contended uint64  `json:"contended"`
	Rate      float64 `json:"rate"` // Contended / Acquires
}

// FillRates computes each cell's contention rate in place.
func FillRates(cells []ContentionCell) {
	for i := range cells {
		if cells[i].Acquires > 0 {
			cells[i].Rate = float64(cells[i].Contended) / float64(cells[i].Acquires)
		}
	}
}

// WriteContentionTable renders the cells as a heatmap: one row per lock,
// hottest (highest contention rate, then most acquires) first, with a bar
// of '#' proportional to the rate. Cells with zero acquires are skipped.
func WriteContentionTable(w io.Writer, cells []ContentionCell) error {
	live := make([]ContentionCell, 0, len(cells))
	for _, c := range cells {
		if c.Acquires > 0 {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		_, err := fmt.Fprintln(w, "contention: no lock acquires recorded")
		return err
	}
	FillRates(live)
	sort.Slice(live, func(i, j int) bool {
		if live[i].Rate != live[j].Rate {
			return live[i].Rate > live[j].Rate
		}
		if live[i].Acquires != live[j].Acquires {
			return live[i].Acquires > live[j].Acquires
		}
		return live[i].Name < live[j].Name
	})
	if _, err := fmt.Fprintf(w, "%-16s %10s %10s %8s  heat\n",
		"lock", "acquires", "contended", "rate"); err != nil {
		return err
	}
	for _, c := range live {
		bar := int(c.Rate*20 + 0.5)
		if c.Contended > 0 && bar == 0 {
			bar = 1 // contended at all: visibly warm
		}
		if bar > 20 {
			bar = 20
		}
		heat := make([]byte, bar)
		for i := range heat {
			heat[i] = '#'
		}
		_, err := fmt.Fprintf(w, "%-16s %10d %10d %7.2f%%  %s\n",
			c.Name, c.Acquires, c.Contended, 100*c.Rate, heat)
		if err != nil {
			return err
		}
	}
	return nil
}
