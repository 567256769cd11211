// Package zones models the spatial layer of the datacenter: servers
// are assigned to zones, each served by its own CRAC (computer-room
// air conditioner) of finite capacity. The paper notes that hot-group
// servers "do not need to be physically clustered: they can be
// distributed throughout the datacenter to maintain the same ... DC-
// level temperature distributions" — this package quantifies why:
// physically clustering the hot group overloads one CRAC while the
// others idle, whereas striping it across zones keeps every CRAC at
// the fleet-average load.
package zones

import (
	"fmt"

	"vmt/internal/stats"
)

// Assignment maps each server (by ID) to a zone.
type Assignment struct {
	zoneOf []int
	zones  int
}

// Striped assigns servers round-robin across zones: consecutive server
// IDs land in different zones, so any ID-prefix group (the VMT hot
// group) spreads evenly.
func Striped(servers, zones int) (Assignment, error) {
	if err := validate(servers, zones); err != nil {
		return Assignment{}, err
	}
	a := Assignment{zoneOf: make([]int, servers), zones: zones}
	for i := range a.zoneOf {
		a.zoneOf[i] = i % zones
	}
	return a, nil
}

// Clustered assigns servers in contiguous blocks: an ID-prefix hot
// group concentrates in the first zones — the layout the paper warns
// against.
func Clustered(servers, zones int) (Assignment, error) {
	if err := validate(servers, zones); err != nil {
		return Assignment{}, err
	}
	a := Assignment{zoneOf: make([]int, servers), zones: zones}
	per := (servers + zones - 1) / zones
	for i := range a.zoneOf {
		a.zoneOf[i] = i / per
	}
	return a, nil
}

func validate(servers, zones int) error {
	if servers <= 0 || zones <= 0 {
		return fmt.Errorf("zones: need positive servers and zones")
	}
	if zones > servers {
		return fmt.Errorf("zones: more zones (%d) than servers (%d)", zones, servers)
	}
	return nil
}

// ZoneLoads splits a per-server load snapshot (watts per server, by
// ID) into per-zone sums.
func (a Assignment) ZoneLoads(perServerW []float64) ([]float64, error) {
	if len(perServerW) != len(a.zoneOf) {
		return nil, fmt.Errorf("zones: snapshot has %d servers, assignment %d",
			len(perServerW), len(a.zoneOf))
	}
	out := make([]float64, a.zones)
	for i, w := range perServerW {
		out[a.zoneOf[i]] += w
	}
	return out, nil
}

// Imbalance summarizes how unevenly a load snapshot lands on the
// zones' CRACs.
type Imbalance struct {
	// MaxZoneW and MeanZoneW are the hottest and average zone loads.
	MaxZoneW, MeanZoneW float64
	// PeakToMean is MaxZoneW / MeanZoneW (1.0 = perfectly balanced);
	// each CRAC must be provisioned for its zone's peak, so the fleet
	// pays for PeakToMean × the balanced capacity.
	PeakToMean float64
}

// Summarize reduces per-zone loads.
func Summarize(zoneLoads []float64) (Imbalance, error) {
	if len(zoneLoads) == 0 {
		return Imbalance{}, fmt.Errorf("zones: no zones")
	}
	maxW, err := stats.Max(zoneLoads)
	if err != nil {
		return Imbalance{}, err
	}
	mean := stats.Mean(zoneLoads)
	im := Imbalance{MaxZoneW: maxW, MeanZoneW: mean}
	if mean > 0 {
		im.PeakToMean = maxW / mean
	}
	return im, nil
}

// WorstImbalance scans a [sample][server] cooling-load recording and
// returns the worst per-sample zone imbalance over the run.
func (a Assignment) WorstImbalance(grid [][]float64) (Imbalance, error) {
	if len(grid) == 0 {
		return Imbalance{}, fmt.Errorf("zones: empty recording")
	}
	var worst Imbalance
	for _, snap := range grid {
		loads, err := a.ZoneLoads(snap)
		if err != nil {
			return Imbalance{}, err
		}
		im, err := Summarize(loads)
		if err != nil {
			return Imbalance{}, err
		}
		if im.PeakToMean > worst.PeakToMean {
			worst = im
		}
	}
	return worst, nil
}
