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

// BatchOptions tunes RunMany.
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

// RunMany executes a batch of configurations concurrently and returns
// their results in input order; it is the one batch entry point.
//
// The batch goes through the process run cache (RunCache): a
// configuration already stored, or repeating an earlier one of the
// batch, is answered without simulating, and fresh results are stored
// for the rest of the process, so results are shared — treat them as
// read-only. A configuration that sets any of its own Observers always
// simulates and takes no duplicates, so its sinks see its run.
// RunCache().SetEnabled(false) forces fresh runs. Cache traffic lands
// on the experiment_cache_* counters of the default registry.
//
// Each run is single-threaded, independent and bit-identical to a
// sequential Run. Every run completes even if another fails; the
// lowest-indexed failure is returned as a *RunError carrying its index
// in cfgs, with results at all successful indices populated. A
// panicking run is recovered into its own error (with the stack). Runs
// observe through their Config's sinks, falling back on the process
// defaults (SetDefaultObservers) with the shared tracer and stream
// tagged by the run's index in cfgs.
func RunMany(cfgs []Config, opts BatchOptions) ([]*Result, error) {
	// An empty key runs fresh and keeps nothing: for a configuration with
	// its own sinks, and for one the key cannot encode (it fails at Run).
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Observers != (Observers{}) {
			continue
		}
		if k, err := configKey(cfg); err == nil {
			keys[i] = k
		}
	}
	plan := runCache.Plan(keys)

	metrics := defaultObservers().Metrics
	metrics.Counter("experiment_cache_hits").Add(uint64(len(cfgs) - plan.Misses()))
	metrics.Counter("experiment_cache_misses").Add(uint64(plan.Misses()))
	if n := plan.Corrupt(); n > 0 {
		metrics.Counter("experiment_cache_corruptions").Add(uint64(n))
	}

	runs, errs := runPool(cfgs, plan.Run, opts)
	fresh := make([]any, len(runs))
	for j, r := range runs {
		if r != nil {
			fresh[j] = r
		}
	}
	out := make([]*Result, len(cfgs))
	for i, v := range runCache.Commit(plan, fresh) {
		if v != nil {
			out[i] = v.(*Result)
		}
	}
	for j, err := range errs {
		if err != nil {
			return out, &RunError{Index: plan.Run[j], Err: err}
		}
	}
	return out, nil
}

// runPool simulates cfgs[idx[j]] for every j on a bounded worker pool
// and returns the results and errors aligned with idx. The shared
// default tracer and stream are tagged with idx[j], the run's index in
// cfgs.
func runPool(cfgs []Config, idx []int, opts BatchOptions) ([]*Result, []error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idx) {
		workers = len(idx)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(idx))
	errs := make([]error, len(idx))
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
		remaining := len(idx) - done
		eta := time.Duration(perRun * float64(remaining) / float64(workers) * float64(time.Second))
		fmt.Fprintf(opts.Progress,
			"vmt: run %d/%d done (%s, %d servers) in %v — %.2f runs/s, eta %v\n",
			done, len(idx), cfgs[i].Policy, cfgs[i].Servers,
			d.Round(time.Millisecond), rate, eta.Round(time.Second))
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				i := idx[j]
				cfg := cfgs[i]
				// Batch workers already saturate the cores; nested
				// per-tick physics parallelism would only add
				// contention. Results are bit-identical for any
				// worker count, so this changes nothing observable.
				if cfg.PhysicsWorkers == 0 {
					cfg.PhysicsWorkers = 1
				}
				// Tag the shared default tracer and stream with the run's
				// index in cfgs so exported traces and window records keep
				// runs apart; a Config's own sinks pass through untagged.
				shared := defaults
				shared.Tracer = telemetry.WithRun(defaults.Tracer, i)
				shared.Stream = defaults.Stream.ForRun(i)
				cfg.Observers = cfg.Observers.or(shared)
				runStart := time.Now() //vmtlint:allow detrand observational: progress-line timing only
				results[j], errs[j] = runOne(cfg)
				report(i, time.Since(runStart)) //vmtlint:allow detrand observational: progress-line timing only
			}
		}()
	}
feed:
	for j := range idx {
		select {
		case <-ctx.Done():
			// Mark every not-yet-dispatched run cancelled; in-flight
			// runs observe the same context at their next tick.
			for k := j; k < len(idx); k++ {
				errs[k] = ctx.Err()
			}
			break feed
		case jobs <- j:
		}
	}
	close(jobs)
	wg.Wait()
	return results, errs
}
