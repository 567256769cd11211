// Package cliobs wires the shared observability command-line flags —
// run tracing, metrics dumps, CPU profiles, and a live debug server —
// into the vmt binaries. Both cmd/vmtsim and cmd/vmtsweep register the
// same flags through it so every tool observes runs the same way:
//
//	-trace out.json      write a Chrome trace_event file (Perfetto)
//	-trace out.jsonl     write spans as JSON lines instead
//	-metrics out.txt     dump the metrics registry on exit in the Prometheus
//	                     text format (.json for JSON)
//	-cpuprofile out.pprof  write a CPU profile for go tool pprof
//	-debug-addr :8080    serve expvar + net/http/pprof while running
//	-stream out.ndjson   stream windowed time-series telemetry, one
//	                     sealed window per line, flushed as it closes
//	-stream-window 60    ticks aggregated per stream window
//	-fleet-log out.ndjson  stream one fleet snapshot per sample tick
//	-profile-bands       profile tick stages (wall + alloc per stage)
//
// With -debug-addr the server additionally exposes live endpoints:
// /metrics serves the registry in Prometheus text exposition format
// and /fleet serves the latest fleet snapshot as JSON — both safe to
// scrape mid-run (the fleet view reads an atomic pointer to an
// immutable snapshot, never the session's state).
//
// The sinks are installed as the process-wide defaults
// (vmt.SetDefaultObservers), so runs constructed deep inside the
// sweep helpers report too. Telemetry is observational only: enabling
// any of these flags cannot change simulation results.
package cliobs

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"vmt"
	"vmt/internal/telemetry"
)

// Observability carries the flag values and the sinks they activate.
// Zero value is inert; populate via RegisterFlags + flag parsing, then
// bracket the program body with Start and Close.
type Observability struct {
	TracePath      string
	MetricsPath    string
	CPUProfilePath string
	DebugAddr      string
	StreamPath     string
	StreamWindow   int
	FleetLogPath   string
	ProfileBands   bool

	registry    *telemetry.Registry
	recorder    *telemetry.Recorder
	stream      *telemetry.Stream
	streamSink  *telemetry.NDJSONSink
	fleet       *telemetry.FleetPublisher
	fleetLog    *telemetry.NDJSONFleetLog
	cpuFile     *os.File
	traceFile   *os.File
	metricsFile *os.File
	streamFile  *os.File
	fleetFile   *os.File
	listener    net.Listener
}

// RegisterFlags adds the shared observability flags to fs and returns
// the Observability they populate.
func RegisterFlags(fs *flag.FlagSet) *Observability {
	o := &Observability{}
	fs.StringVar(&o.TracePath, "trace", "",
		"write a run trace to this file (.json → Chrome trace_event for Perfetto, .jsonl → JSON lines)")
	fs.StringVar(&o.MetricsPath, "metrics", "",
		"dump the metrics registry to this file on exit (.json → JSON, otherwise the Prometheus text format)")
	fs.StringVar(&o.CPUProfilePath, "cpuprofile", "",
		"write a CPU profile to this file")
	fs.StringVar(&o.DebugAddr, "debug-addr", "",
		"serve expvar, net/http/pprof, /metrics (Prometheus), and /fleet (JSON) on this address while running (e.g. localhost:8080)")
	fs.StringVar(&o.StreamPath, "stream", "",
		"stream windowed time-series telemetry to this NDJSON file, one sealed window per line, flushed as each window closes")
	fs.IntVar(&o.StreamWindow, "stream-window", telemetry.DefaultWindowTicks,
		"ticks aggregated per stream window")
	fs.StringVar(&o.FleetLogPath, "fleet-log", "",
		"stream one fleet snapshot (per-server temperature, melt fraction, group, crash state) per sample tick to this NDJSON file")
	fs.BoolVar(&o.ProfileBands, "profile-bands", false,
		"profile each tick stage (physics, fault, guard, schedule, sample): per-stage wall time and allocation counters, plus alloc tracks in -trace output")
	return o
}

// expvar and default-mux registration are process-global and panic on
// duplicates, so the published variable and the live endpoints read
// through atomic pointers that Start retargets.
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[telemetry.Registry]
	liveOnce   sync.Once
	liveReg    atomic.Pointer[telemetry.Registry]
	liveFleet  atomic.Pointer[telemetry.FleetPublisher]
)

func publishExpvar() {
	expvar.Publish("vmt_metrics", expvar.Func(func() any {
		r := expvarReg.Load()
		if r == nil {
			return nil
		}
		return r.Snapshot()
	}))
}

// registerLiveHandlers installs /metrics and /fleet on the default
// mux (where the debug server already serves expvar and pprof). Both
// endpoints are scrape-safe mid-run: the registry snapshot reads
// atomic instruments, and the fleet view loads an atomic pointer to an
// immutable snapshot — neither touches the simulation goroutine.
func registerLiveHandlers() {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		r := liveReg.Load()
		if r == nil {
			http.Error(w, "metrics not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := telemetry.WritePrometheus(w, r.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	http.HandleFunc("/fleet", func(w http.ResponseWriter, _ *http.Request) {
		var snap *telemetry.FleetSnapshot
		if p := liveFleet.Load(); p != nil {
			snap = p.Load()
		}
		if snap == nil {
			http.Error(w, "no fleet snapshot yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		if err := enc.Encode(snap); err != nil {
			// Headers are gone; nothing useful to report to the client.
			return
		}
	})
}

// Start activates the sinks the parsed flags requested and installs
// them as the process-wide defaults. It returns an error if a flag
// value is invalid or a file or listener cannot be created; in that
// case nothing is installed.
func (o *Observability) Start() error {
	if o.StreamPath != "" && o.StreamWindow <= 0 {
		return fmt.Errorf("stream-window: must be positive, got %d", o.StreamWindow)
	}
	if o.CPUProfilePath != "" {
		f, err := os.Create(o.CPUProfilePath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		o.cpuFile = f
	}
	// Output files open up front so a bad path fails before the
	// simulation, not after it.
	if o.MetricsPath != "" || o.DebugAddr != "" || o.ProfileBands {
		o.registry = telemetry.NewRegistry()
		if o.MetricsPath != "" {
			f, err := os.Create(o.MetricsPath)
			if err != nil {
				o.stopProfile()
				return fmt.Errorf("metrics: %w", err)
			}
			o.metricsFile = f
		}
	}
	if o.TracePath != "" {
		f, err := os.Create(o.TracePath)
		if err != nil {
			o.stopProfile()
			o.closeFiles()
			return fmt.Errorf("trace: %w", err)
		}
		o.recorder = telemetry.NewRecorder()
		o.traceFile = f
	}
	if o.StreamPath != "" {
		f, err := os.Create(o.StreamPath)
		if err != nil {
			o.stopProfile()
			o.closeFiles()
			return fmt.Errorf("stream: %w", err)
		}
		o.streamFile = f
		o.streamSink = telemetry.NewNDJSONSink(f)
		o.stream = telemetry.NewStream(telemetry.StreamOptions{
			WindowTicks: o.StreamWindow,
			Sink:        o.streamSink,
		})
	}
	// The fleet publisher exists whenever anything consumes it: the
	// NDJSON log, or the debug server's /fleet live view.
	if o.FleetLogPath != "" {
		f, err := os.Create(o.FleetLogPath)
		if err != nil {
			o.stopProfile()
			o.closeFiles()
			return fmt.Errorf("fleet-log: %w", err)
		}
		o.fleetFile = f
		o.fleetLog = telemetry.NewNDJSONFleetLog(f)
		o.fleet = telemetry.NewFleetPublisher(o.fleetLog)
	} else if o.DebugAddr != "" {
		o.fleet = telemetry.NewFleetPublisher(nil)
	}
	if o.DebugAddr != "" {
		ln, err := net.Listen("tcp", o.DebugAddr)
		if err != nil {
			o.stopProfile()
			o.closeFiles()
			return fmt.Errorf("debug-addr: %w", err)
		}
		o.listener = ln
		expvarOnce.Do(publishExpvar)
		expvarReg.Store(o.registry)
		liveOnce.Do(registerLiveHandlers)
		liveReg.Store(o.registry)
		liveFleet.Store(o.fleet)
		go http.Serve(ln, nil) // expvar + pprof + /metrics + /fleet on the default mux
	}
	var tracer telemetry.Tracer
	if o.recorder != nil {
		tracer = o.recorder
	}
	vmt.SetDefaultObservers(vmt.Observers{
		Metrics:      o.registry,
		Tracer:       tracer,
		Stream:       o.stream,
		Fleet:        o.fleet,
		ProfileBands: o.ProfileBands,
	})
	return nil
}

// Addr returns the debug server's listen address ("" when disabled) —
// useful when -debug-addr picked an ephemeral port.
func (o *Observability) Addr() string {
	if o.listener == nil {
		return ""
	}
	return o.listener.Addr().String()
}

func (o *Observability) stopProfile() {
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		o.cpuFile.Close()
		o.cpuFile = nil
	}
}

func (o *Observability) closeFiles() {
	if o.traceFile != nil {
		o.traceFile.Close()
		o.traceFile = nil
	}
	if o.metricsFile != nil {
		o.metricsFile.Close()
		o.metricsFile = nil
	}
	if o.streamFile != nil {
		o.streamFile.Close()
		o.streamFile = nil
	}
	if o.fleetFile != nil {
		o.fleetFile.Close()
		o.fleetFile = nil
	}
}

// Close flushes every active sink: it stops the CPU profile, writes
// the trace and metrics files, shuts down the debug listener, and
// clears the process defaults. Safe to call when nothing was enabled.
func (o *Observability) Close() error {
	vmt.SetDefaultObservers(vmt.Observers{})
	o.stopProfile()
	if o.listener != nil {
		o.listener.Close()
		o.listener = nil
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Runs seal their own trailing windows, but a stream can still
	// hold a partial window if the process stops between runs; flush
	// it, then surface any latched write error before closing the
	// file.
	if o.stream != nil {
		o.stream.Flush()
		keep(o.streamSink.Err())
		o.stream, o.streamSink = nil, nil
	}
	if o.streamFile != nil {
		keep(o.streamFile.Close())
		o.streamFile = nil
	}
	if o.fleetLog != nil {
		keep(o.fleetLog.Err())
		o.fleetLog = nil
	}
	if o.fleetFile != nil {
		keep(o.fleetFile.Close())
		o.fleetFile = nil
	}
	if o.traceFile != nil {
		keep(flushFile(o.traceFile, o.TracePath, func(f *os.File) error {
			if strings.EqualFold(filepath.Ext(o.TracePath), ".jsonl") {
				return o.recorder.WriteJSONL(f)
			}
			return o.recorder.WriteChromeTrace(f)
		}))
		o.traceFile = nil
	}
	if o.metricsFile != nil {
		keep(flushFile(o.metricsFile, o.MetricsPath, func(f *os.File) error {
			if strings.EqualFold(filepath.Ext(o.MetricsPath), ".json") {
				return o.registry.WriteJSON(f)
			}
			return telemetry.WritePrometheus(f, o.registry.Snapshot())
		}))
		o.metricsFile = nil
	}
	return firstErr
}

func flushFile(f *os.File, path string, write func(*os.File) error) error {
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
