package trace

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/workload"
)

// FuzzReadWorkload holds the workload reader to its contract on arbitrary
// bytes: whatever it accepts is a rectangular matrix of non-negative counts
// with at least one slot and one edge, and survives WriteWorkload ->
// ReadWorkload unchanged.
func FuzzReadWorkload(f *testing.F) {
	gen, err := workload.NewGenerator(workload.Config{Edges: 4, MeanPeak: 50, Spread: 3}, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := WriteWorkload(&good, gen.Series(30)); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add([]byte("slot,edge0\n0,+5\n1,007\n"))
	f.Add([]byte("slot,edge0\n0,9223372036854775808\n"))
	for _, tt := range badWorkloadCSVs {
		f.Add([]byte(tt.csv))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ReadWorkload(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(w) == 0 || len(w[0]) == 0 {
			t.Fatalf("accepted a workload of %d slots", len(w))
		}
		for slot, counts := range w {
			if len(counts) != len(w[0]) {
				t.Fatalf("slot %d has %d edges, slot 0 has %d", slot, len(counts), len(w[0]))
			}
			for edge, m := range counts {
				if m < 0 {
					t.Fatalf("slot %d edge %d: accepted count %d", slot, edge, m)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, w); err != nil {
			t.Fatalf("WriteWorkload of an accepted workload: %v", err)
		}
		back, err := ReadWorkload(&buf)
		if err != nil {
			t.Fatalf("ReadWorkload of WriteWorkload's output: %v", err)
		}
		if !slices.EqualFunc(w, back, slices.Equal[[]int]) {
			t.Fatalf("round trip changed the workload: %v -> %v", w, back)
		}
	})
}

// FuzzReadPrices holds the price reader to its contract on arbitrary bytes:
// whatever it accepts has at least one slot, every quote finite and positive
// with sell < buy, and survives WritePrices -> ReadPrices bit for bit.
func FuzzReadPrices(f *testing.F) {
	p, err := market.GeneratePrices(market.DefaultPriceConfig(), 40, rand.New(rand.NewSource(2)))
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := WritePrices(&good, p); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add([]byte("slot,buy,sell\n0,0x1p3,7e0\n1,1e400,7\n"))
	f.Add([]byte("slot,buy,sell\n0,5e-324,4e-324\n"))
	for _, tt := range badPriceCSVs {
		f.Add([]byte(tt.csv))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPrices(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p.Horizon() == 0 || len(p.Sell) != len(p.Buy) {
			t.Fatalf("accepted %d buy / %d sell quotes", len(p.Buy), len(p.Sell))
		}
		for slot := range p.Buy {
			buy, sell := p.Buy[slot], p.Sell[slot]
			if math.IsInf(buy, 0) || !(0 < sell && sell < buy) {
				t.Fatalf("slot %d: accepted buy=%v sell=%v", slot, buy, sell)
			}
		}
		var buf bytes.Buffer
		if err := WritePrices(&buf, p); err != nil {
			t.Fatalf("WritePrices of an accepted series: %v", err)
		}
		back, err := ReadPrices(&buf)
		if err != nil {
			t.Fatalf("ReadPrices of WritePrices's output: %v", err)
		}
		if !slices.Equal(p.Buy, back.Buy) || !slices.Equal(p.Sell, back.Sell) {
			t.Fatalf("round trip changed the series: %v -> %v", p, back)
		}
	})
}
