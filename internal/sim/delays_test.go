package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

func TestGreatCircleKnownDistances(t *testing.T) {
	// Sydney–Melbourne is about 714 km.
	if d := greatCircleKm(-33.87, 151.21, -37.81, 144.96); math.Abs(d-714) > 20 {
		t.Errorf("Sydney-Melbourne = %v km, want ~714", d)
	}
	if greatCircleKm(-33.87, 151.21, -33.87, 151.21) != 0 {
		t.Error("distance to self must be zero")
	}
}

func TestGreatCircleSymmetry(t *testing.T) {
	prop := func(lat1, lon1, lat2, lon2 float64) bool {
		lat1, lon1 = math.Mod(lat1, 90), math.Mod(lon1, 180)
		lat2, lon2 = math.Mod(lat2, 90), math.Mod(lon2, 180)
		if math.IsNaN(lat1) || math.IsNaN(lon1) || math.IsNaN(lat2) || math.IsNaN(lon2) {
			return true
		}
		d1, d2 := greatCircleKm(lat1, lon1, lat2, lon2), greatCircleKm(lat2, lon2, lat1, lon1)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDelaysPositiveAndHeterogeneous(t *testing.T) {
	delays := edgeDelays(30, rand.New(rand.NewSource(3)))
	if len(delays) != 30 {
		t.Fatalf("delays = %d", len(delays))
	}
	lo, hi := delays[0], delays[0]
	for i, d := range delays {
		if d < baseDelay {
			t.Fatalf("delay[%d] = %v below base %v", i, d, baseDelay)
		}
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	if hi/lo < 1.2 {
		t.Errorf("delays too uniform: [%v, %v] — heterogeneity drives per-edge block schedules", lo, hi)
	}
}

// TestDelayMatchesDistance replays edgeDelays' two draws per edge: each u_i
// is the base delay plus the per-km rate times the site's distance from the
// cloud, and NewScenario scales exactly those values by SwitchWeight.
func TestDelayMatchesDistance(t *testing.T) {
	delays := edgeDelays(5, rand.New(rand.NewSource(4)))
	replay := rand.New(rand.NewSource(4))
	cloudLat, cloudLon := -12.46, 130.84
	for i, got := range delays {
		lat := cloudLat + (replay.Float64()*2-1)*boxKm/111.0
		lon := cloudLon + (replay.Float64()*2-1)*boxKm/(111.0*math.Cos(cloudLat*math.Pi/180))
		want := baseDelay + delayPerKm*greatCircleKm(cloudLat, cloudLon, lat, lon)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("delay[%d] = %v, want %v", i, got, want)
		}
	}

	s := testScenario(t, 4, 4, 7)
	cfg := s.Cfg
	cfg.SwitchWeight = 2.5
	scaled, err := NewScenario(cfg, s.Zoo)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range edgeDelays(cfg.Edges, numeric.SplitRNG(cfg.Seed, "topology")) {
		if scaled.Delays[i] != d*cfg.SwitchWeight {
			t.Errorf("scenario delay[%d] = %v, want %v × %v", i, scaled.Delays[i], d, cfg.SwitchWeight)
		}
	}
}

// TestEdgeDelaysOnePerEdge checks edgeDelays returns one delay per edge and
// places every edge at its own site: no two edges share a delay.
func TestEdgeDelaysOnePerEdge(t *testing.T) {
	delays := edgeDelays(10, rand.New(rand.NewSource(1)))
	if len(delays) != 10 {
		t.Fatalf("delays = %d", len(delays))
	}
	seen := make(map[float64]int)
	for i, d := range delays {
		if j, dup := seen[d]; dup {
			t.Errorf("edges %d and %d share delay %v", j, i, d)
		}
		seen[d] = i
	}
}

func TestEdgeDelaysDeterministic(t *testing.T) {
	d1 := edgeDelays(8, rand.New(rand.NewSource(9)))
	d2 := edgeDelays(8, rand.New(rand.NewSource(9)))
	if len(d1) != 8 {
		t.Fatalf("delays = %d", len(d1))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("same seed produced different delays")
		}
	}
}

func TestEdgeDelaysWithinBox(t *testing.T) {
	// Box half-diagonal is boxKm*sqrt(2); allow small slack for the
	// lat/lon projection.
	limit := baseDelay + delayPerKm*boxKm*math.Sqrt2*1.05
	for i, d := range edgeDelays(50, rand.New(rand.NewSource(10))) {
		if d > limit {
			t.Errorf("edge %d's delay %v s puts it outside the deployment box (limit %v s)", i, d, limit)
		}
	}
}
