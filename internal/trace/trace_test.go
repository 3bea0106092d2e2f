package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/workload"
)

func TestWorkloadRoundTrip(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{Edges: 4, MeanPeak: 50, Spread: 3},
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	original := gen.Series(30)
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, original); err != nil {
		t.Fatalf("WriteWorkload: %v", err)
	}
	decoded, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatalf("ReadWorkload: %v", err)
	}
	if len(decoded) != len(original) {
		t.Fatalf("slots = %d, want %d", len(decoded), len(original))
	}
	for tt := range original {
		for i := range original[tt] {
			if decoded[tt][i] != original[tt][i] {
				t.Fatalf("mismatch at slot %d edge %d", tt, i)
			}
		}
	}
}

func TestWriteWorkloadErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, nil); err == nil {
		t.Error("expected error for empty workload")
	}
	if err := WriteWorkload(&buf, [][]int{{}}); err == nil {
		t.Error("expected error for zero edges")
	}
	if err := WriteWorkload(&buf, [][]int{{1, 2}, {1}}); err == nil {
		t.Error("expected error for ragged rows")
	}
}

// badWorkloadCSVs and badPriceCSVs are the inputs the readers must reject;
// they also seed the fuzz targets.
var badWorkloadCSVs = []struct{ name, csv string }{
	{"empty", ""},
	{"header only", "slot,edge0\n"},
	{"bad header", "time,edge0\n0,5\n"},
	{"ragged row", "slot,edge0,edge1\n0,5\n"},
	{"non-integer", "slot,edge0\n0,abc\n"},
	{"negative", "slot,edge0\n0,-3\n"},
}

func TestReadWorkloadErrors(t *testing.T) {
	for _, tt := range badWorkloadCSVs {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadWorkload(strings.NewReader(tt.csv)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestPricesRoundTrip(t *testing.T) {
	p, err := market.GeneratePrices(market.DefaultPriceConfig(), 40, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePrices(&buf, p); err != nil {
		t.Fatalf("WritePrices: %v", err)
	}
	decoded, err := ReadPrices(&buf)
	if err != nil {
		t.Fatalf("ReadPrices: %v", err)
	}
	if decoded.Horizon() != p.Horizon() {
		t.Fatalf("horizon = %d", decoded.Horizon())
	}
	for tt := range p.Buy {
		if decoded.Buy[tt] != p.Buy[tt] || decoded.Sell[tt] != p.Sell[tt] {
			t.Fatalf("price mismatch at slot %d", tt)
		}
	}
}

func TestWritePricesErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrices(&buf, nil); err == nil {
		t.Error("expected error for nil prices")
	}
	if err := WritePrices(&buf, &market.Prices{}); err == nil {
		t.Error("expected error for empty prices")
	}
}

var badPriceCSVs = []struct{ name, csv string }{
	{"empty", ""},
	{"bad header", "t,b,s\n0,8,7\n"},
	{"ragged", "slot,buy,sell\n0,8\n"},
	{"bad buy", "slot,buy,sell\n0,x,7\n"},
	{"bad sell", "slot,buy,sell\n0,8,x\n"},
	{"sell >= buy", "slot,buy,sell\n0,8,9\n"},
	{"zero buy", "slot,buy,sell\n0,0,0\n"},
	{"NaN buy", "slot,buy,sell\n0,NaN,7\n"},
	{"nan sell", "slot,buy,sell\n0,8,nan\n"},
	{"Inf buy", "slot,buy,sell\n0,Inf,7\n"},
	{"infinity buy", "slot,buy,sell\n0,8,7\n1,+infinity,7\n"},
}

func TestReadPricesErrors(t *testing.T) {
	for _, tt := range badPriceCSVs {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadPrices(strings.NewReader(tt.csv)); err == nil {
				t.Error("expected error")
			}
		})
	}
}
