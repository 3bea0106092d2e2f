// Package topology models the cloud–edge deployment: one cloud site and a
// set of edge sites with geographic coordinates, from which the per-edge
// model-download delay u_i and per-byte transfer-energy coefficient are
// derived.
//
// The paper places sites at real Australian cellular base stations and
// estimates network delay from geographic distance. Offline we generate
// deterministic pseudo-geographic sites: edges scattered across a bounding
// box around a cloud location, with great-circle distances mapped linearly
// to download delays in a configurable range. Only the scalar u_i (and the
// transfer-energy coefficient) enter the paper's formulation, so this
// preserves the relevant structure: heterogeneous switching costs across
// edges.
package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Site is a geographic location.
type Site struct {
	Name     string
	Lat, Lon float64 // degrees
}

// Topology is one cloud plus a set of edges.
type Topology struct {
	Cloud Site
	Edges []Site

	// DelayPerKm converts distance to one-way network delay seconds per km
	// of great-circle distance (plus a base latency).
	DelayPerKm float64
	BaseDelay  float64
}

// Config parameterizes generation.
type Config struct {
	Edges int
	// BoxKm is the half-width of the deployment box around the cloud, km.
	BoxKm float64
	// DelayPerKm and BaseDelay map distance to seconds of download delay
	// per unit model size; see Delay.
	DelayPerKm float64
	BaseDelay  float64
}

// DefaultConfig mirrors the paper's setting: edges spread over a few hundred
// km around a Northern-Territory-like cloud site, delays on the order of
// hundreds of milliseconds to seconds for a model download.
func DefaultConfig(edges int) Config {
	return Config{
		Edges:      edges,
		BoxKm:      400,
		DelayPerKm: 0.004, // 4 ms per km
		BaseDelay:  0.05,  // 50 ms floor
	}
}

// Generate builds a pseudo-geographic topology. The cloud sits at a fixed
// reference location; edges are uniform in the surrounding box.
func Generate(cfg Config, rng *rand.Rand) (*Topology, error) {
	if cfg.Edges <= 0 {
		return nil, fmt.Errorf("topology: need at least one edge, got %d", cfg.Edges)
	}
	if cfg.BoxKm <= 0 {
		return nil, fmt.Errorf("topology: BoxKm must be positive, got %g", cfg.BoxKm)
	}
	if cfg.DelayPerKm < 0 || cfg.BaseDelay < 0 {
		return nil, fmt.Errorf("topology: negative delay parameters")
	}
	// Reference cloud location (Northern Territory, Australia).
	cloud := Site{Name: "cloud-nt", Lat: -12.46, Lon: 130.84}
	t := &Topology{
		Cloud:      cloud,
		DelayPerKm: cfg.DelayPerKm,
		BaseDelay:  cfg.BaseDelay,
	}
	const kmPerDegLat = 111.0
	kmPerDegLon := kmPerDegLat * math.Cos(cloud.Lat*math.Pi/180)
	t.Edges = make([]Site, cfg.Edges)
	for i := range t.Edges {
		dLatKm := (rng.Float64()*2 - 1) * cfg.BoxKm
		dLonKm := (rng.Float64()*2 - 1) * cfg.BoxKm
		t.Edges[i] = Site{
			Name: fmt.Sprintf("edge-%02d", i),
			Lat:  cloud.Lat + dLatKm/kmPerDegLat,
			Lon:  cloud.Lon + dLonKm/kmPerDegLon,
		}
	}
	return t, nil
}

// GreatCircleKm returns the great-circle distance between two sites in km
// (haversine formula, mean Earth radius).
func GreatCircleKm(a, b Site) float64 {
	const earthRadiusKm = 6371.0
	rad := math.Pi / 180
	lat1, lat2 := a.Lat*rad, b.Lat*rad
	dLat := (b.Lat - a.Lat) * rad
	dLon := (b.Lon - a.Lon) * rad
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Delay returns the per-edge model-download communication cost u_i in
// seconds: base latency plus distance-proportional transfer time.
func (t *Topology) Delay(edge int) float64 {
	d := GreatCircleKm(t.Cloud, t.Edges[edge])
	return t.BaseDelay + t.DelayPerKm*d
}
