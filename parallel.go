package vmt

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"vmt/internal/telemetry"
)

// progressWindowRuns is the window width (in completed runs) of the
// sampler behind the progress line's rate/ETA: recent enough to track
// pace changes, wide enough to smooth worker jitter.
const progressWindowRuns = 8

// RunError reports which configuration of a batch failed. It wraps the
// underlying cause for errors.Is/As.
type RunError struct {
	// Index is the position of the failing configuration in the input
	// slice.
	Index int
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *RunError) Error() string { return fmt.Sprintf("vmt: run %d: %v", e.Index, e.Err) }

// Unwrap returns the underlying failure.
func (e *RunError) Unwrap() error { return e.Err }

// BatchOptions tunes RunManyOpts.
type BatchOptions struct {
	// Workers bounds concurrency; ≤0 selects GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per completed run with
	// elapsed time and batch throughput — sweep feedback for long
	// parameter studies.
	Progress io.Writer
	// Context, when non-nil, cancels the batch: queued runs are marked
	// with ctx.Err() without starting, in-flight runs stop at their
	// next tick, and completed indices keep their results — clean
	// partial progress, never a torn batch.
	Context context.Context
	// Timeout, when positive, bounds each run's wall time. A run that
	// exceeds it fails with context.DeadlineExceeded at its index
	// while its siblings complete normally.
	Timeout time.Duration
}

// RunMany executes the given configurations concurrently (each run is
// itself single-threaded and independent) and returns results in input
// order. Determinism is preserved: every run produces exactly what a
// sequential Run of the same configuration would.
func RunMany(cfgs []Config) ([]*Result, error) {
	return RunManyOpts(cfgs, BatchOptions{})
}

// RunManyN is RunMany with an explicit worker bound (≥1).
func RunManyN(cfgs []Config, workers int) ([]*Result, error) {
	if workers < 1 {
		return nil, fmt.Errorf("vmt: need at least one worker")
	}
	return RunManyOpts(cfgs, BatchOptions{Workers: workers})
}

// RunManyOpts is RunMany with batch options. Every configuration runs
// to completion even if another fails; the error for the
// lowest-indexed failure is returned as a *RunError carrying that
// index, and results at all successful indices are still populated —
// callers that can use partial sweeps may inspect both. A run that
// panics is isolated: the panic is recovered into that run's error
// (with the stack) and its siblings are unaffected. Each run observes
// through its Config's sinks, falling back on the process defaults
// (SetDefaultObservers) with the shared tracer and stream tagged by
// the run's index.
func RunManyOpts(cfgs []Config, opts BatchOptions) ([]*Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	defaults := defaultObservers()

	// runOne isolates a single run: a panic anywhere inside Run is
	// recovered into an indexed error instead of tearing down the
	// whole batch, and the optional per-run timeout is layered onto
	// the batch context.
	runOne := func(cfg Config) (res *Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("vmt: run panicked: %v\n%s", r, debug.Stack())
			}
		}()
		rctx := ctx
		if opts.Timeout > 0 {
			var cancel context.CancelFunc
			rctx, cancel = context.WithTimeout(rctx, opts.Timeout)
			defer cancel()
		}
		return RunCtx(rctx, cfg)
	}

	start := time.Now() //vmtlint:allow detrand observational: progress-line timing only
	var progressMu sync.Mutex
	done := 0
	// Per-run durations feed a windowed time-series (the same bounded
	// sampler streamed runs use), so the rate and ETA reflect the
	// recent completion pace — a sweep whose late configurations are
	// bigger than its early ones gets an honest forecast, not the
	// whole-batch average.
	durations := telemetry.NewTimeSeries("batch_run_seconds", progressWindowRuns, 4, nil)
	report := func(i int, d time.Duration) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		durations.Observe(int64(done), d.Seconds())
		done++
		elapsed := time.Since(start) //vmtlint:allow detrand observational: progress-line timing only
		rate := float64(done) / elapsed.Seconds()
		// Prefer the last sealed window's mean run time; before one
		// seals, fall back to the batch-wide mean.
		perRun := elapsed.Seconds() / float64(done)
		if w, ok := durations.Last(); ok && w.Count > 0 {
			perRun = w.Mean
		}
		remaining := len(cfgs) - done
		eta := time.Duration(perRun * float64(remaining) / float64(workers) * float64(time.Second))
		fmt.Fprintf(opts.Progress,
			"vmt: run %d/%d done (%s, %d servers) in %v — %.2f runs/s, eta %v\n",
			done, len(cfgs), cfgs[i].Policy, cfgs[i].Servers,
			d.Round(time.Millisecond), rate, eta.Round(time.Second))
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cfg := cfgs[i]
				// Batch workers already saturate the cores; nested
				// per-tick physics parallelism would only add
				// contention. Results are bit-identical for any
				// worker count, so this changes nothing observable.
				if cfg.PhysicsWorkers == 0 {
					cfg.PhysicsWorkers = 1
				}
				// Tag the shared default tracer and stream with the run
				// index so exported traces and window records keep runs
				// apart; a Config's own sinks pass through untagged.
				shared := defaults
				shared.Tracer = telemetry.WithRun(defaults.Tracer, i)
				shared.Stream = defaults.Stream.ForRun(i)
				cfg.Observers = cfg.Observers.or(shared)
				runStart := time.Now() //vmtlint:allow detrand observational: progress-line timing only
				results[i], errs[i] = runOne(cfg)
				report(i, time.Since(runStart)) //vmtlint:allow detrand observational: progress-line timing only
			}
		}()
	}
feed:
	for i := range cfgs {
		select {
		case <-ctx.Done():
			// Mark every not-yet-dispatched run cancelled; in-flight
			// runs observe the same context at their next tick.
			for j := i; j < len(cfgs); j++ {
				errs[j] = ctx.Err()
			}
			break feed
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, &RunError{Index: i, Err: err}
		}
	}
	return results, nil
}
