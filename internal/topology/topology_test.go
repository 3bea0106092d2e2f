package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerate(t *testing.T) {
	topo, err := Generate(DefaultConfig(10), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(topo.Edges) != 10 {
		t.Fatalf("edges = %d", len(topo.Edges))
	}
	seen := make(map[string]bool)
	for _, e := range topo.Edges {
		if seen[e.Name] {
			t.Errorf("duplicate edge name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := Generate(Config{Edges: 0, BoxKm: 100}, rng); err == nil {
		t.Error("expected error for zero edges")
	}
	if _, err := Generate(Config{Edges: 5, BoxKm: 0}, rng); err == nil {
		t.Error("expected error for zero box")
	}
	if _, err := Generate(Config{Edges: 5, BoxKm: 100, DelayPerKm: -1}, rng); err == nil {
		t.Error("expected error for negative delay")
	}
}

func TestGreatCircleKnownDistances(t *testing.T) {
	syd := Site{Name: "sydney", Lat: -33.87, Lon: 151.21}
	mel := Site{Name: "melbourne", Lat: -37.81, Lon: 144.96}
	d := GreatCircleKm(syd, mel)
	// Sydney–Melbourne is about 714 km.
	if math.Abs(d-714) > 20 {
		t.Errorf("Sydney-Melbourne = %v km, want ~714", d)
	}
	if GreatCircleKm(syd, syd) != 0 {
		t.Error("distance to self must be zero")
	}
}

func TestGreatCircleSymmetry(t *testing.T) {
	prop := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Site{Lat: math.Mod(lat1, 90), Lon: math.Mod(lon1, 180)}
		b := Site{Lat: math.Mod(lat2, 90), Lon: math.Mod(lon2, 180)}
		if math.IsNaN(a.Lat) || math.IsNaN(a.Lon) || math.IsNaN(b.Lat) || math.IsNaN(b.Lon) {
			return true
		}
		d1, d2 := GreatCircleKm(a, b), GreatCircleKm(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDelaysPositiveAndHeterogeneous(t *testing.T) {
	topo, err := Generate(DefaultConfig(30), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Edges) != 30 {
		t.Fatalf("edges = %d", len(topo.Edges))
	}
	lo, hi := topo.Delay(0), topo.Delay(0)
	for i := range topo.Edges {
		d := topo.Delay(i)
		if d < topo.BaseDelay {
			t.Fatalf("delay[%d] = %v below base %v", i, d, topo.BaseDelay)
		}
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	if hi/lo < 1.2 {
		t.Errorf("delays too uniform: [%v, %v] — heterogeneity drives per-edge block schedules", lo, hi)
	}
}

func TestDelayMatchesDistance(t *testing.T) {
	topo, err := Generate(DefaultConfig(5), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range topo.Edges {
		want := topo.BaseDelay + topo.DelayPerKm*GreatCircleKm(topo.Cloud, topo.Edges[i])
		if got := topo.Delay(i); math.Abs(got-want) > 1e-12 {
			t.Errorf("Delay(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t1, err := Generate(DefaultConfig(8), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Generate(DefaultConfig(8), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1.Edges {
		if t1.Edges[i] != t2.Edges[i] {
			t.Fatal("same seed produced different sites")
		}
	}
}

func TestEdgesWithinBox(t *testing.T) {
	cfg := DefaultConfig(50)
	topo, err := Generate(cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range topo.Edges {
		// Box half-diagonal is BoxKm*sqrt(2); allow small slack for the
		// lat/lon projection.
		if d := GreatCircleKm(topo.Cloud, e); d > cfg.BoxKm*math.Sqrt2*1.05 {
			t.Errorf("edge %s is %v km away, outside the deployment box", e.Name, d)
		}
	}
}
