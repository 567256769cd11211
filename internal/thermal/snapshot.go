package thermal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"vmt/internal/jsonio"
)

// Fleet state snapshots: the serialization boundary of the
// struct-of-arrays store. A snapshot is NDJSON — one header line
// followed by one line per server in strictly increasing ID order —
// the same stream shape the telemetry fleet log uses, so the tooling
// that replays those logs can replay these. Snapshots carry the
// integrated state and ledgers only; the spec and material are
// construction inputs of the fleet (NewFleet), so a snapshot restores
// into a fleet built with the ones it was captured from.
//
// Floats round-trip exactly: encoding/json emits the shortest
// representation that parses back to the identical float64, so a
// capture → write → read → restore cycle reproduces fleet state bit
// for bit (the fuzz harness pins this as a fixpoint property).

// SnapshotVersion is the format version written in the header line.
const SnapshotVersion = 1

// FleetHeader is the first line of a fleet snapshot stream.
type FleetHeader struct {
	V int `json:"v"`
	N int `json:"n"`
}

// ServerRecord is one server's integrated state and ledgers.
type ServerRecord struct {
	ID int `json:"id"`
	// AirC is the air-node temperature; WaxHJ the pack enthalpy with
	// WaxTC and Melt its cached projections — carried verbatim rather
	// than recomputed on restore, because immediately after NewFleet the
	// cached temperature is the inlet pinned exactly (Pack.Reset
	// semantics), not the round-tripped projection of the enthalpy.
	AirC   float64 `json:"air_c"`
	WaxHJ  float64 `json:"wax_h_j"`
	WaxTC  float64 `json:"wax_t_c"`
	Melt   float64 `json:"melt"`
	InletC float64 `json:"inlet_c"`
	// Cumulative energy ledgers.
	InputJ  float64 `json:"input_j"`
	EjectJ  float64 `json:"eject_j"`
	StoredJ float64 `json:"stored_j"`
}

// FleetState is a decoded snapshot: a header plus one record per
// server, Records[i].ID == i.
type FleetState struct {
	N       int
	Records []ServerRecord
}

// CaptureState copies the fleet's integrated state into a FleetState.
func (f *Fleet) CaptureState() *FleetState {
	st := &FleetState{N: f.n, Records: make([]ServerRecord, f.n)}
	for i := 0; i < f.n; i++ {
		st.Records[i] = ServerRecord{
			ID:      i,
			AirC:    f.airC[i],
			WaxHJ:   f.waxHJ[i],
			WaxTC:   f.waxTC[i],
			Melt:    f.meltFrac[i],
			InletC:  f.inletC[i],
			InputJ:  f.inputJ[i],
			EjectJ:  f.ejectJ[i],
			StoredJ: f.storedJ[i],
		}
	}
	return st
}

// RestoreState loads a captured state into the fleet, which must be
// the same size as the snapshot. Step memos and settled flags are
// cleared — the restored pre-state may not match whatever transition a
// slot recorded — and the per-step outputs reset to zero until the
// next step.
func (f *Fleet) RestoreState(st *FleetState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	if st.N != f.n {
		return fmt.Errorf("thermal: snapshot holds %d servers, fleet has %d", st.N, f.n)
	}
	for i, r := range st.Records {
		f.airC[i] = r.AirC
		f.waxHJ[i] = r.WaxHJ
		f.waxTC[i] = r.WaxTC
		f.meltFrac[i] = r.Melt
		f.inletC[i] = r.InletC
		f.inputJ[i] = r.InputJ
		f.ejectJ[i] = r.EjectJ
		f.storedJ[i] = r.StoredJ
		f.coolingW[i] = 0
		f.waxFlowW[i] = 0
		f.settled[i] = false
		f.memo[i] = memoPair{}
		f.memoState[i] = 0
	}
	return nil
}

// Validate checks the snapshot invariants the writer guarantees:
// record count matches the header, IDs are dense and in order, every
// float is finite, and melt fractions lie in [0,1].
func (st *FleetState) Validate() error {
	if st.N < 0 {
		return fmt.Errorf("thermal: snapshot header n %d negative", st.N)
	}
	if len(st.Records) != st.N {
		return fmt.Errorf("thermal: snapshot header n %d but %d records", st.N, len(st.Records))
	}
	for i, r := range st.Records {
		if r.ID != i {
			return fmt.Errorf("thermal: snapshot record %d has id %d (want dense ascending)", i, r.ID)
		}
		for _, v := range [...]float64{r.AirC, r.WaxHJ, r.WaxTC, r.Melt, r.InletC, r.InputJ, r.EjectJ, r.StoredJ} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("thermal: snapshot record %d holds non-finite value", i)
			}
		}
		if r.Melt < 0 || r.Melt > 1 {
			return fmt.Errorf("thermal: snapshot record %d melt fraction %v outside [0,1]", i, r.Melt)
		}
	}
	return nil
}

// Encode serializes the state as NDJSON: the header line, then one
// record line per server. (Named Encode rather than WriteTo to avoid
// colliding with the io.WriterTo signature convention.)
func (st *FleetState) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(FleetHeader{V: SnapshotVersion, N: st.N}); err != nil {
		return fmt.Errorf("thermal: snapshot header: %w", err)
	}
	for i := range st.Records {
		if err := enc.Encode(&st.Records[i]); err != nil {
			return fmt.Errorf("thermal: snapshot record %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("thermal: snapshot flush: %w", err)
	}
	return nil
}

// ReadFleetState decodes and validates a snapshot stream. Anything it
// accepts satisfies the Validate invariants and survives a
// Encode → ReadFleetState round trip unchanged.
func ReadFleetState(r io.Reader) (*FleetState, error) {
	var st *FleetState // nil until the header line
	err := jsonio.Lines(r, func(line []byte) error {
		if st == nil {
			var hdr FleetHeader
			if err := jsonio.Decode(bytes.NewReader(line), &hdr); err != nil {
				return err
			}
			if hdr.V != SnapshotVersion {
				return fmt.Errorf("unsupported version %d", hdr.V)
			}
			st = &FleetState{N: hdr.N}
			return nil
		}
		var rec ServerRecord
		if err := jsonio.Decode(bytes.NewReader(line), &rec); err != nil {
			return err
		}
		st.Records = append(st.Records, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("thermal: snapshot %w", err)
	}
	if st == nil {
		return nil, fmt.Errorf("thermal: snapshot missing header line")
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}
