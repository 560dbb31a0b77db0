package experiments

import "testing"

// TestSplitBudget pins the programs-vs-broadcast-workers split shared by
// Executor.RunGrids and RunAttribution: lanes never exceed the program
// count or the budget and never fall below one, and each lane's broadcast
// gets the budget left over per lane, at least one worker.
func TestSplitBudget(t *testing.T) {
	for _, c := range []struct {
		programs, budget, lanes, perProg int
	}{
		{0, 2, 1, 2}, {0, 8, 1, 8},
		{1, 2, 1, 2}, {1, 8, 1, 8},
		{2, 2, 2, 1}, {2, 8, 2, 4},
		{6, 2, 2, 1}, {6, 8, 6, 1},
		{20, 2, 2, 1}, {20, 8, 8, 1},
	} {
		lanes, perProg := split(c.programs, c.budget)
		if lanes != c.lanes || perProg != c.perProg {
			t.Errorf("split(%d, %d) = (%d, %d), want (%d, %d)",
				c.programs, c.budget, lanes, perProg, c.lanes, c.perProg)
		}
	}
}
