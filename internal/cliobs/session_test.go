package cliobs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vmt"
	"vmt/internal/workload"
)

// TestServeSession drives the HTTP step/observe seam end to end: an
// open-ended source session served on an ephemeral debug port,
// advanced and inspected purely through the endpoints.
func TestServeSession(t *testing.T) {
	o := &Observability{DebugAddr: "127.0.0.1:0"}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	cfg := vmt.Scenario(4, vmt.PolicyVMTTA, 22)
	cfg.Step = 2 * time.Minute
	cfg.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.5, Events: 30}
	s, err := vmt.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ServeSession(s)
	base := "http://" + o.Addr()

	var obs vmt.Observation
	getJSON := func(resp *http.Response, err error) vmt.Observation {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var o vmt.Observation
		if err := json.Unmarshal(body, &o); err != nil {
			t.Fatalf("not an observation: %v\n%.300s", err, body)
		}
		return o
	}

	// Before any step: tick 0, every server with all its cores free.
	obs = getJSON(http.Get(base + "/observe"))
	if obs.Tick != 0 || len(obs.Servers) != 4 {
		t.Fatalf("pre-step observation: %+v", obs)
	}
	for i, so := range obs.Servers {
		if so.ID != i || so.BusyCores != 0 || so.FreeCores != 32 || so.Crashed {
			t.Fatalf("pre-step server %d: %+v, want all 32 cores free", i, so)
		}
	}

	// GET /step is refused; the clock only moves on POST.
	resp, err := http.Get(base + "/step")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /step status %d", resp.StatusCode)
	}

	obs = getJSON(http.Post(base+"/step?n=3", "", nil))
	if obs.Tick != 3 || len(obs.Servers) != 4 {
		t.Fatalf("after /step?n=3: tick=%d servers=%d", obs.Tick, len(obs.Servers))
	}
	if obs.TotalPowerW <= 0 {
		t.Fatalf("aggregates not populated: %+v", obs)
	}

	// A placement directive funnels the next matching arrival.
	resp, err = http.Post(fmt.Sprintf("%s/place?workload=%s&server=2",
		base, workload.WebSearch.Name), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST /place status %d", resp.StatusCode)
	}
	obs = getJSON(http.Post(base+"/step", "", nil))
	if obs.Tick != 4 {
		t.Fatalf("default step count: tick=%d", obs.Tick)
	}
	if obs.PlacementsOverridden != 1 {
		t.Fatalf("placements overridden = %d, want 1", obs.PlacementsOverridden)
	}

	// Bad requests come back as client errors, not panics.
	for _, n := range []string{"bogus", "0"} {
		resp, err = http.Post(base+"/step?n="+n, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/step?n=%s status %d, want %d", n, resp.StatusCode, http.StatusBadRequest)
		}
	}
	resp, err = http.Post(base+"/place?workload=nope&server=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown workload") {
		t.Fatalf("bad place: status %d body %s", resp.StatusCode, body)
	}
}

// TestServeSessionDone checks the finite-horizon path: a /step that
// reaches the horizon closes Done() so the serving process can exit.
func TestServeSessionDone(t *testing.T) {
	o := &Observability{DebugAddr: "127.0.0.1:0"}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	cfg := vmt.Scenario(3, vmt.PolicyRoundRobin, 0)
	cfg.Step = 2 * time.Minute
	cfg.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.4, Events: 20}
	cfg.Horizon = 10 * time.Minute // 5 ticks
	// n·step for the largest n overflows a time.Duration; the step
	// still clamps to the horizon.
	for _, n := range []string{"999", "9223372036854775807"} {
		s, err := vmt.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ss := ServeSession(s)

		resp, err := http.Post("http://"+o.Addr()+"/step?n="+n, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/step?n=%s status %d: %s", n, resp.StatusCode, body)
		}
		var obs vmt.Observation
		if err := json.Unmarshal(body, &obs); err != nil {
			t.Fatal(err)
		}
		if !obs.Done || obs.Tick != 5 {
			t.Fatalf("/step?n=%s clamped step: %+v", n, obs)
		}
		select {
		case <-ss.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("/step?n=%s: Done() not closed after the horizon step", n)
		}
	}
}
