// Package topology models the datacenter's physical hierarchy: servers
// mount into racks (one PDU per rack), racks line up into rows, and
// rows share a cooling zone (one CRAC loop per zone). The hierarchy is
// derived arithmetically from server IDs — server i sits in rack
// i/ServersPerRack, and racks fill rows and rows fill zones in ID
// order — so every domain is a contiguous ID range and the mapping is
// deterministic, allocation-free, and identical on every run.
//
// A Spec is JSON-round-trippable, so fault plans carry their topology
// inline, and fault.ParsePlan validates it on decode. The fault engine
// uses domains to trip correlated failures (a PDU loss crashes a whole
// rack atomically; a cooling-zone failure derates every server in the
// zone); the planned recirculation work reuses the same rack/row
// geometry for cross-server heat interference.
package topology

import "fmt"

// Domain kinds accepted by DomainCount and DomainRange.
const (
	DomainRack = "rack" // one PDU: servers_per_rack consecutive servers
	DomainRow  = "row"  // racks_per_row consecutive racks
	DomainZone = "zone" // one cooling loop: rows_per_zone consecutive rows
)

// KnownKind reports whether kind names a modeled failure-domain level.
func KnownKind(kind string) bool {
	switch kind {
	case DomainRack, DomainRow, DomainZone:
		return true
	}
	return false
}

// Spec declares the hierarchy's branching factors. All three must be
// positive; the cluster size itself is supplied when the spec is bound
// to a fleet (Build), so one spec serves every sweep point.
type Spec struct {
	// ServersPerRack is the number of servers sharing one rack (and
	// one PDU).
	ServersPerRack int `json:"servers_per_rack"`
	// RacksPerRow is the number of racks in one row.
	RacksPerRow int `json:"racks_per_row"`
	// RowsPerZone is the number of rows sharing one cooling zone.
	RowsPerZone int `json:"rows_per_zone"`
}

// Validate checks the spec's internal consistency.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.ServersPerRack <= 0 {
		return fmt.Errorf("topology: servers_per_rack must be positive, got %d", s.ServersPerRack)
	}
	if s.RacksPerRow <= 0 {
		return fmt.Errorf("topology: racks_per_row must be positive, got %d", s.RacksPerRow)
	}
	if s.RowsPerZone <= 0 {
		return fmt.Errorf("topology: rows_per_zone must be positive, got %d", s.RowsPerZone)
	}
	return nil
}

// Topology binds a validated Spec to a concrete fleet size. The last
// rack (and row, and zone) may be partially filled when the cluster
// size is not a multiple of the branching factors; its domain range is
// clipped to the fleet.
type Topology struct {
	spec Spec
	n    int
}

// Build binds spec to a fleet of numServers servers.
func Build(spec Spec, numServers int) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if numServers <= 0 {
		return nil, fmt.Errorf("topology: need a positive server count, got %d", numServers)
	}
	return &Topology{spec: spec, n: numServers}, nil
}

// serversPerDomain returns the span of one domain of the given kind in
// servers, or 0 for an unknown kind.
func (t *Topology) serversPerDomain(kind string) int {
	switch kind {
	case DomainRack:
		return t.spec.ServersPerRack
	case DomainRow:
		return t.spec.ServersPerRack * t.spec.RacksPerRow
	case DomainZone:
		return t.spec.ServersPerRack * t.spec.RacksPerRow * t.spec.RowsPerZone
	}
	return 0
}

// DomainCount returns how many domains of the given kind the fleet
// spans.
func (t *Topology) DomainCount(kind string) (int, error) {
	span := t.serversPerDomain(kind)
	if span == 0 {
		return 0, fmt.Errorf("topology: unknown domain kind %q (want %s, %s, or %s)",
			kind, DomainRack, DomainRow, DomainZone)
	}
	return ceilDiv(t.n, span), nil
}

// DomainRange resolves domain index of the given kind to its server-ID
// range [lo, hi), clipped to the fleet size.
func (t *Topology) DomainRange(kind string, index int) (lo, hi int, err error) {
	count, err := t.DomainCount(kind)
	if err != nil {
		return 0, 0, err
	}
	if index < 0 || index >= count {
		return 0, 0, fmt.Errorf("topology: %s %d out of range (fleet has %d)", kind, index, count)
	}
	span := t.serversPerDomain(kind)
	lo = index * span
	hi = lo + span
	if hi > t.n {
		hi = t.n
	}
	return lo, hi, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
