package bandit

import (
	"testing"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// TestSelectUpdateCycleAllocatesNothing pins what the fleet budget assumes:
// once a policy exists, a slot — block start, OMD solve and arm draw included
// — creates no garbage. u = 0 starts a block on every slot; u = 2 mixes block
// starts with slots inside a block.
func TestSelectUpdateCycleAllocatesNothing(t *testing.T) {
	unblocked, err := NewTsallisINF(6, numeric.SplitRNG(1, "unblocked"))
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := NewBlockedTsallisINF(6, 2, numeric.SplitRNG(1, "blocked"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{unblocked, blocked} {
		cycle := func() { p.Update(float64(p.SelectArm()) * 0.7) }
		for i := 0; i < 50; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(500, cycle); n != 0 {
			t.Errorf("%s: %v allocs per SelectArm+Update cycle, want 0", p.Name(), n)
		}
	}
}

// BenchmarkBlockStart times Algorithm 1's block start — learning rate, OMD
// solve over six arms, arm draw — by running the unblocked schedule, where
// every slot starts a block.
func BenchmarkBlockStart(b *testing.B) {
	p, err := NewTsallisINF(6, numeric.SplitRNG(1, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Update(float64(p.SelectArm()) * 0.7)
	}
}
