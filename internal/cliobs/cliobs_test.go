package cliobs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vmt"
	"vmt/internal/telemetry"
	"vmt/internal/trace"
)

func smallCfg() vmt.Config {
	cfg := vmt.Scenario(5, vmt.PolicyVMTTA, 22)
	spec := trace.PaperTwoDay()
	spec.Days = 1
	spec.PeakUtil = []float64{0.95}
	spec.PeakHours = []float64{20}
	cfg.Trace = spec
	return cfg
}

func TestFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterFlags(fs)
	if err := fs.Parse([]string{
		"-trace", "t.json", "-metrics", "m.txt",
		"-cpuprofile", "c.pprof", "-debug-addr", ":0",
	}); err != nil {
		t.Fatal(err)
	}
	if o.TracePath != "t.json" || o.MetricsPath != "m.txt" ||
		o.CPUProfilePath != "c.pprof" || o.DebugAddr != ":0" {
		t.Fatalf("flags not bound: %+v", o)
	}
}

// TestStartRunClose drives the full CLI path: flags → Start → a real
// run through the process-wide defaults → Close, then checks each
// artifact.
func TestStartRunClose(t *testing.T) {
	dir := t.TempDir()
	o := &Observability{
		TracePath:      filepath.Join(dir, "trace.json"),
		MetricsPath:    filepath.Join(dir, "metrics.txt"),
		CPUProfilePath: filepath.Join(dir, "cpu.pprof"),
		DebugAddr:      "127.0.0.1:0",
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := vmt.Run(smallCfg()); err != nil {
		o.Close()
		t.Fatal(err)
	}

	// The debug server exposes expvar with the live registry.
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", o.Addr()))
	if err != nil {
		o.Close()
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "vmt_metrics") ||
		!strings.Contains(string(body), "run_ticks") {
		t.Fatalf("expvar output missing metrics: %.300s", body)
	}

	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	// Chrome trace artifact is valid JSON with span events.
	raw, err := os.ReadFile(o.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid chrome JSON: %v", err)
	}
	spans := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("trace has no span events")
	}

	// Metrics text dump has the run's counters.
	mtxt, err := os.ReadFile(o.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mtxt), "run_ticks") {
		t.Fatalf("metrics dump missing counters:\n%s", mtxt)
	}

	// The CPU profile exists and is non-trivial (pprof files start with
	// a gzip header).
	prof, err := os.ReadFile(o.CPUProfilePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Fatalf("cpu profile does not look like a pprof file (%d bytes)", len(prof))
	}
}

func TestJSONVariants(t *testing.T) {
	dir := t.TempDir()
	o := &Observability{
		TracePath:   filepath.Join(dir, "trace.jsonl"),
		MetricsPath: filepath.Join(dir, "metrics.json"),
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := vmt.Run(smallCfg()); err != nil {
		o.Close()
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(o.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
	mraw, err := os.ReadFile(o.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(mraw, &snap); err != nil {
		t.Fatalf("metrics .json is not JSON: %v", err)
	}
}

// TestMetricsTextDumpIsCumulative: a -metrics dump to a non-.json path
// is the Prometheus exposition format, whose histogram buckets are
// cumulative — each le="x" line counts every observation at or below
// x, so the counts never decrease and le="+Inf" equals the count.
func TestMetricsTextDumpIsCumulative(t *testing.T) {
	o := &Observability{MetricsPath: filepath.Join(t.TempDir(), "m.txt")}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := vmt.Run(smallCfg()); err != nil {
		o.Close()
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(o.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var buckets []uint64
	inf, count := "", ""
	for _, line := range strings.Split(string(raw), "\n") {
		name, value, _ := strings.Cut(line, " ")
		switch {
		case name == "pcm_melt_frac_count":
			count = value
		case strings.HasPrefix(name, "pcm_melt_frac_bucket{"):
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if len(buckets) > 0 && n < buckets[len(buckets)-1] {
				t.Errorf("bucket counts decrease at %q: %v", line, buckets)
			}
			buckets = append(buckets, n)
			if name == `pcm_melt_frac_bucket{le="+Inf"}` {
				inf = value
			}
		}
	}
	if len(buckets) == 0 || count == "" || inf != count {
		t.Fatalf("le=\"+Inf\" bucket %q, pcm_melt_frac_count %q over %d buckets; want equal:\n%s",
			inf, count, len(buckets), raw)
	}
}

func TestCloseWithoutStartIsSafe(t *testing.T) {
	if err := (&Observability{}).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStartRejectsNonPositiveStreamWindow: a -stream-window below one
// fails Start before the stream file exists, instead of silently
// streaming default-sized windows.
func TestStartRejectsNonPositiveStreamWindow(t *testing.T) {
	for _, window := range []int{0, -7} {
		o := &Observability{StreamPath: filepath.Join(t.TempDir(), "stream.ndjson"), StreamWindow: window}
		if err := o.Start(); err == nil {
			o.Close()
			t.Errorf("window %d: Start succeeded, want an error", window)
		}
		if _, err := os.Stat(o.StreamPath); !os.IsNotExist(err) {
			t.Errorf("window %d: stream file exists after Start (stat error %v)", window, err)
		}
	}
	o := &Observability{StreamPath: filepath.Join(t.TempDir(), "stream.ndjson"), StreamWindow: 32}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingFlagsAndLiveEndpoints drives the streaming layer the
// way the CLI does: -stream, -fleet-log, -profile-bands, and the
// /metrics and /fleet live endpoints on the debug server.
func TestStreamingFlagsAndLiveEndpoints(t *testing.T) {
	dir := t.TempDir()
	o := &Observability{
		MetricsPath:  filepath.Join(dir, "metrics.txt"),
		StreamPath:   filepath.Join(dir, "stream.ndjson"),
		StreamWindow: 32,
		FleetLogPath: filepath.Join(dir, "fleet.ndjson"),
		ProfileBands: true,
		DebugAddr:    "127.0.0.1:0",
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := vmt.Run(smallCfg()); err != nil {
		o.Close()
		t.Fatal(err)
	}

	// /metrics serves Prometheus text exposition, including the band
	// profiles -profile-bands enabled.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", o.Addr()))
	if err != nil {
		o.Close()
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE run_ticks counter",
		"band_wall_ns_physics",
		"profiler_self_ns",
		"pcm_melt_frac_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(string(promBody), want) {
			t.Errorf("/metrics missing %q:\n%.400s", want, promBody)
		}
	}

	// /fleet serves the latest snapshot as JSON.
	resp, err = http.Get(fmt.Sprintf("http://%s/fleet", o.Addr()))
	if err != nil {
		o.Close()
		t.Fatal(err)
	}
	fleetBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap struct {
		Tick    int64 `json:"tick"`
		Servers []struct {
			ID       int     `json:"id"`
			AirTempC float64 `json:"air_temp_c"`
			Group    string  `json:"group"`
		} `json:"servers"`
	}
	if err := json.Unmarshal(fleetBody, &snap); err != nil {
		t.Fatalf("/fleet is not JSON: %v\n%.300s", err, fleetBody)
	}
	if snap.Tick == 0 || len(snap.Servers) != 5 {
		t.Fatalf("/fleet snapshot wrong shape: tick=%d servers=%d", snap.Tick, len(snap.Servers))
	}
	if snap.Servers[0].Group == "" {
		t.Error("/fleet snapshot missing placement groups for a grouping policy")
	}

	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	// The stream file holds valid window records covering the run.
	sf, err := os.Open(o.StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadWindows(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	for _, rec := range recs {
		series[rec.Series] = true
	}
	if !series["cooling_load_w"] || !series["hot_group_size"] {
		t.Fatalf("stream file missing expected series: %v", series)
	}

	// The fleet log replays into per-tick snapshots.
	ff, err := os.Open(o.FleetLogPath)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := telemetry.ReadFleetLog(ff)
	ff.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("fleet log is empty")
	}
	if int64(len(snaps)) != snaps[len(snaps)-1].Tick {
		t.Fatalf("fleet log has %d snapshots but last tick is %d", len(snaps), snaps[len(snaps)-1].Tick)
	}
}
