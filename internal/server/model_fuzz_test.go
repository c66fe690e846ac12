package server

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzServerModel replays the model test's histories (replayModel) from
// fuzzed seeds, 1 to 90 steps long, with kills only after a fold: a kill
// that meets acknowledged updates no fold has persisted loses them until
// the server logs its updates. The corpus starts from the seed rows of
// TestServerModel; every failing input it finds becomes a named row of
// modelRows, so TestServerModel replays it on every run.
func FuzzServerModel(f *testing.F) {
	for _, row := range modelRows {
		if !row.killLoses {
			f.Add(row.seed, uint8(row.steps))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		row := modelRow{name: "fuzz", seed: seed, steps: int(steps) % 90}
		if row.steps == 0 {
			row.steps = 90
		}
		if ran, _, err := replayModel(t, row, nil); err != nil {
			prefix := shortestFailingPrefix(t, row, ran)
			lines := make([]string, len(prefix))
			for i, s := range prefix {
				lines[i] = fmt.Sprintf("  %3d  %v", i, s)
			}
			t.Fatalf("seed %d, %d steps: %v\nshortest failing prefix, %d of %d steps:\n%s",
				seed, row.steps, err, len(prefix), len(ran), strings.Join(lines, "\n"))
		}
	})
}
